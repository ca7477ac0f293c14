"""Golden output: stdout and exit code of fixed CLI commands, byte for byte.

The files under tests/golden/ hold what each command printed, and
exit_codes.json what it returned.  The test runs every command in process
through cli_runner.run_cli and compares.  A change that alters a value on
purpose regenerates them with

    python tests/test_golden.py

and says in its change log which outputs moved and why; it prints the
name of every file whose bytes it changed.
"""

import json
import pathlib
import sys

import pytest

from cli_runner import run_cli

GOLDEN = pathlib.Path(__file__).with_name("golden")

CASES = {
    "verify-all-jsonl": ["verify", "all", "--format", "jsonl"],
    "verify-all-jsonl-tol": ["verify", "all", "--format", "jsonl", "--tol", "1e-6"],
    "errata-text": ["errata"],
    "errata-jsonl": ["errata", "--format", "jsonl"],
    "coeffs": ["coeffs", "--p", "2", "--b", "2", "--m", "4"],
    "coeffs-readme": ["coeffs", "--p", "-0.5", "--b", "0.25", "--m", "8"],
    "table-phi-csv": ["table", "phi", "--a=-1.5:0.5:1", "--b", "0.25:2.25:1", "--n", "0..2",
                      "--format", "csv"],
    "table-phi-csv-2w": ["table", "phi", "--a=-1.5:0.5:1", "--b", "0.25:2.25:1", "--n", "0..2",
                         "--format", "csv", "--workers", "2"],
    "table-phi-text": ["table", "phi", "--a=-0.5", "--b", "0.25:2.25:0.5", "--n", "0..1"],
    "table-phitilde-csv": ["table", "phitilde", "--a", "0..2", "--b", "0.5:1.5:0.5", "--n", "0..1",
                           "--format", "csv"],
    "table-psi-csv": ["table", "psi", "--a=-1:1:1", "--b", "1", "--beta=-0.5:0.5:0.5",
                      "--alpha", "0..1", "--format", "csv"],
    "table-psi-jsonl": ["table", "psi", "--a=-1", "--b", "1", "--beta=-0.5:0.5:0.5",
                        "--alpha", "0", "--format", "jsonl"],
    "table-phida-csv": ["table", "phida", "--a=-0.5:0.5:0.5", "--b", "0.25:1:0.75", "--n", "0..1",
                        "--format", "csv"],
    "table-zeta-csv": ["table", "zeta", "--s", "2..4", "--q", "0.5:1.5:0.5", "--format", "csv"],
    "table-lerch-csv": ["table", "lerch", "--beta=-0.5:0.5:0.5", "--s", "1..2", "--q", "1:2:0.5",
                        "--format", "csv"],
    "table-sprime-csv": ["table", "sprime", "--r", "1..6", "--format", "csv"],
    "eval-phi-jsonl": ["eval", "phi", "--a=-0.5", "--b", "0.25", "--alpha", "1", "--format", "jsonl"],
    "eval-phi-text": ["eval", "phi", "--a=-0.5", "--b", "0.25", "--n", "1"],
    "eval-phitilde-jsonl": ["eval", "phitilde", "--a", "2", "--b", "1", "--n", "0", "--format", "jsonl"],
    "eval-psi-jsonl": ["eval", "psi", "--a=-1", "--b", "1", "--beta", "0.5", "--alpha", "0",
                       "--format", "jsonl"],
    "eval-phida-jsonl": ["eval", "phida", "--a=-0.5", "--b", "0.25", "--n", "1", "--format", "jsonl"],
    "eval-zeta-jsonl": ["eval", "zeta", "--s", "2", "--q", "1", "--format", "jsonl"],
    "eval-lerch-jsonl": ["eval", "lerch", "--beta=-0.5", "--s", "1", "--q", "1", "--format", "jsonl"],
    "eval-sprime-jsonl": ["eval", "sprime", "--r", "3", "--format", "jsonl"],
    "eval-sprime-csv": ["eval", "sprime", "--r", "3", "--format", "csv"],
    "eval-integral-jsonl": ["eval", "integral", "--form", "F1", "--a=-0.5", "--b", "0.25",
                            "--alpha", "1", "--format", "jsonl"],
    "eval-missing-arg": ["eval", "phi", "--a", "0"],
    "verify-twosided-text": ["verify", "twosided"],
    "verify-twosided-csv": ["verify", "twosided", "--format", "csv"],
    "errata-csv": ["errata", "--format", "csv"],
    "eval-phi-csv": ["eval", "phi", "--a=-0.5", "--b", "0.25", "--n", "1", "--format", "csv"],
    "eval-integral-text": ["eval", "integral", "--form", "F7", "--a", "1", "--w", "2"],
    "table-phi-divergent-csv": ["table", "phi", "--a=-2:0:1", "--b", "1", "--n", "0", "--format", "csv"],
    "table-phi-divergent-jsonl": ["table", "phi", "--a=-2:0:1", "--b", "1", "--n", "0",
                                  "--format", "jsonl"],
    "table-phi-divergent-text": ["table", "phi", "--a=-2:0:1", "--b", "1", "--n", "0"],
    "eval-phida-nan-order": ["eval", "phida", "--a", "0.5", "--b", "1", "--n", "nan"],
    "eval-integral-no-abel-value": ["eval", "integral", "--form", "F8", "--a", "1", "--w", "1",
                                    "--alpha", "0"],
}


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, exit_codes):
    r = run_cli(*CASES[name])
    assert r.returncode == exit_codes[name]
    assert r.stdout == (GOLDEN / (name + ".out")).read_text()


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    files = {}
    for name, argv in sorted(CASES.items()):
        codes[name], files[name + ".out"], _ = run_cli(*argv)
    files["exit_codes.json"] = json.dumps(codes, indent=1, sort_keys=True) + "\n"
    for fname, text in files.items():
        path = GOLDEN / fname
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
            print(fname)
