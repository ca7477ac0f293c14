"""One evaluation of each shared oracle per suite pass, and pool units that keep
the tasks sharing one together. No test here starts a process."""

import collections
import os

import pytest

from ramaseries import quadrature, verify
from ramaseries.quadrature import IntegralSpec, oracle_value
from ramaseries.verify import make_record

_BASE = {"trig-sin": "sin", "trig-cos": "cos", "logsin": "log"}
_FORMS = {"trig-sin": ("F7", "F8"), "trig-cos": ("F9", "F10"), "logsin": ("F11", "F11")}


def _count_oracles(monkeypatch):
    """A counter of the Abel integrals evaluated (not read from a memo)."""
    abel = collections.Counter()
    abel.parts = []  # the parts each evaluation computed
    trig_integral = quadrature._trig_integral

    def count_trig(*key, **parts):
        abel[key] += 1
        abel.parts.append(parts.get("parts", (0, 1)))
        return trig_integral(*key, **parts)

    monkeypatch.setattr(quadrature, "_trig_integral", count_trig)
    return abel


def _spec(op, args):
    a, f, alpha, part = args
    form = _FORMS[op][part == "s"]
    params = {"a": a, "w": f, "alpha": alpha}
    if form == "F11":
        params["part"] = part
    return IntegralSpec(form, params)


def _memo_keys(tasks):
    """The Abel keys the tasks read, as the spy sees them."""
    return {(_BASE[op], *args[:3]) for _, op, args, _ in tasks if op in _BASE}


def test_make_record_verdict():
    rec = make_record("id1", 1.0, 1.0 + 5e-10, 1e-9)
    assert rec.verdict == "pass"
    rec = make_record("id2", 1.0, 1.1, 1e-9)
    assert rec.verdict == "fail"
    assert rec.residual == pytest.approx(-0.1)


def test_suite_pass_evaluates_each_oracle_once(monkeypatch):
    abel = _count_oracles(monkeypatch)
    want_abel = _memo_keys(verify.build_suite("all"))
    assert len(want_abel) == 27
    passes = []
    for _ in range(2):
        abel.clear()
        passes.append(verify.run_suite("all"))
        # the errata entries read suite cells, so they add no evaluation
        assert set(abel) == want_abel and set(abel.values()) == {1}
        assert quadrature._MEMO is None
    assert passes[0] == passes[1]


def test_bare_oracle_after_pass_evaluates_again(monkeypatch):
    abel = _count_oracles(monkeypatch)
    tasks = verify.build_suite("all")
    records = verify.execute(tasks)
    cells = [(op, args, rec) for (_, op, args, _), rec in zip(tasks, records) if op in _BASE]
    assert len(cells) == 54
    evaluated = sum(abel.values())
    assert set(abel.parts) == {(0, 1)}
    for op, args, rec in cells:
        assert oracle_value(_spec(op, args)).value == rec.oracle_value, (op, args)
    assert sum(abel.values()) == evaluated + len(cells)
    # a bare call computes its own part alone
    assert abel.parts[evaluated:] == [(int(args[3] == "s"),) for _, args, _ in cells]


def test_each_pool_unit_evaluates_its_oracles_once(monkeypatch):
    # a spawned or forkserver worker imports quadrature afresh, with no memo
    # open; the unit's own memo must share the evaluations all the same
    abel = _count_oracles(monkeypatch)
    tasks = [t for t in verify.build_suite("all") if verify._shared_oracle(t) is not None]
    assert quadrature._MEMO is None
    results = []
    for unit in verify._units(tasks):
        results.extend(verify._map_unit((verify._run_task, unit)))
        assert quadrature._MEMO is None
    assert set(abel) == _memo_keys(tasks) and set(abel.values()) == {1}
    assert sorted(results, key=lambda r: r[0]) == [verify._run_task(t) for t in tasks]


def test_memo_dropped_when_a_task_raises(monkeypatch):
    def faulty(op, args):
        raise RuntimeError("a faulty op")

    monkeypatch.setattr(verify, "_dispatch", faulty)
    with pytest.raises(RuntimeError):
        verify.execute(verify.build_suite("trig"))
    assert quadrature._MEMO is None


def test_nested_memo_shares_the_outer_one(monkeypatch):
    abel = _count_oracles(monkeypatch)
    spec = _spec("trig-sin", (1, 2.0, 0.0, "c"))
    with quadrature.oracle_memo():
        want = oracle_value(spec).value
        with quadrature.oracle_memo():
            assert oracle_value(spec).value == want
            oracle_value(_spec("trig-cos", (1, 2.0, 0.0, "s")))
        # the inner block's entry outlives it, inside the outer one
        oracle_value(_spec("trig-cos", (1, 2.0, 0.0, "c")))
    assert sum(abel.values()) == 2
    assert quadrature._MEMO is None
    with pytest.raises(RuntimeError):
        with quadrature.oracle_memo():
            with quadrature.oracle_memo():
                raise RuntimeError("a faulty block")
    assert quadrature._MEMO is None


def test_pool_units_keep_shared_oracles_together(monkeypatch):
    # a fake pool, which maps serially and starts no process, records the units
    from ramaseries import pool

    abel = _count_oracles(monkeypatch)
    units = []

    class FakePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            jobs = list(jobs)
            units.extend(unit for _, unit in jobs)
            return map(fn, jobs)

    tasks = verify.build_suite("all")
    serial = verify.execute(tasks)
    monkeypatch.setattr(pool, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    abel.clear()
    pooled = verify.execute(tasks, workers=2)
    assert pooled == serial
    # each unit's memo nests in the pass's, so the errata units read the
    # suite's integrals: 27 evaluations, one each
    assert set(abel) == _memo_keys(tasks) and set(abel.values()) == {1}
    assert quadrature._MEMO is None
    assert sorted(t for unit in units for t in unit) == tasks
    assert all(len(unit) >= 4 for unit in units[:-1])
    unit_of = collections.defaultdict(set)
    for i, unit in enumerate(units):
        for task in unit:
            key = verify._shared_oracle(task)
            if key is not None:
                unit_of[key].add(i)
    # 27 Abel integrals, none split across units
    assert len(unit_of) == 27
    assert all(len(u) == 1 for u in unit_of.values())
    # in plain chunks of four, the first sine cell's c part (ordinal 394)
    # and s part (396) fell into two chunks
    sin_c = next(t for t in tasks if t[1:3] == ("trig-sin", (1, 2.0, 0.0, "c")))
    assert sin_c[0] == 394
