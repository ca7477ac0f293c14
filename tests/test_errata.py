"""Every catalogued discrepancy must reproduce: printed reading refuted,
corrected reading confirmed, both against the same oracle."""

import math

import pytest

from ramaseries.errata import ENTRIES, catalog
from ramaseries.identities import two_sided_closed
from ramaseries.verify import errata_records

EXPECTED_KEYS = {
    "(2.9)",
    "(2.13b)",
    "(2.17)",
    "(2.18)",
    "(3.4)",
    "(4.4)",
    "(4.5)",
    "x3-example",
    "(5.7)",
    "log-log-example",
    "lerch-reduction",
    "two-sided",
}


@pytest.fixture(scope="module")
def reproduced():
    return [(entry, *errata_records(entry)) for entry in ENTRIES]


def test_catalog_complete():
    assert set(catalog().keys()) == EXPECTED_KEYS


def test_every_entry_adjudicates(reproduced):
    assert len(reproduced) == len(EXPECTED_KEYS)
    for entry, printed, corrected in reproduced:
        assert printed.verdict == "fail", entry.key
        assert corrected.verdict == "pass", entry.key
        assert (printed.spec, corrected.spec) == ("errata %s printed" % entry.key,
                                                  "errata %s corrected" % entry.key)
        # same oracle on both sides, otherwise the comparison proves nothing
        assert printed.oracle_value == corrected.oracle_value, entry.key


def test_entries_have_prose(reproduced):
    for entry, _, _ in reproduced:
        assert entry.printed and entry.corrected and entry.detail


def test_two_sided_closed_limits():
    # beta -> 0 collapses to the plain symmetric kernel value
    s = math.sin(math.pi * 0.25)
    k2 = math.pi ** 3 * (2.0 - s * s) / s ** 3
    assert two_sided_closed(0.25, 0.0) == pytest.approx(k2, rel=1e-13)
    assert two_sided_closed(0.25, 0.0) == pytest.approx(131.5484909999179, rel=1e-12)
    assert two_sided_closed(0.5, 0.5) == pytest.approx(16.028459862503067, rel=1e-11)


def test_lerch_key_numbers(reproduced):
    by_key = {entry.key: (printed, corrected) for entry, printed, corrected in reproduced}
    printed, corrected = by_key["lerch-reduction"]
    assert printed.series_value == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    assert corrected.series_value == pytest.approx(2.0 * math.log(1.5), rel=1e-12)
