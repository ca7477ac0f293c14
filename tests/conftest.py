"""test_cli.py's one `python -m ramaseries` subprocess finds the package in
src/ as this process does (pyproject's pytest pythonpath); every other CLI
call runs in process through cli_runner.run_cli."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
