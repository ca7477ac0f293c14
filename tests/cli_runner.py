"""The one way the tests run the command line: cli.main in this process."""

import contextlib
import io
import os
from typing import NamedTuple
from unittest import mock


class Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(*argv, env=None):
    """cli.main(argv) with stdout and stderr captured and the variables in
    env set for this call alone; argparse's SystemExit gives the exit code."""
    from ramaseries import cli

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return Run(code, out.getvalue(), err.getvalue())
