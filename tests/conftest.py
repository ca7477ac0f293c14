"""The CLI tests start `python -m ramaseries` in subprocesses; they find
the package in src/ as this process does (pyproject's pytest pythonpath)."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
