"""The process entry of ``python -m qprop``, ``python -m qprop.cli`` and the
``qprop`` console script.

A call's process ends without interpreter teardown: once ``cli.main`` has
returned, the standard streams are flushed and the process leaves by
``os._exit``, which skips finalizing every loaded module and the garbage
collection at exit. So ``atexit`` hooks do not run, and a tool that acts at
interpreter exit should call ``cli.main`` in process.
"""
import contextlib
import os
import sys
from typing import NoReturn

from qprop.cli import main


def run() -> NoReturn:
    """Run the CLI, flush stdout and stderr, and exit with main's code.

    A flush that fails (text that --help left in a stdout buffer that
    cannot be written, say) is output that cannot be written: one error line
    and exit 2, as a failed write inside main.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError as exc:
            code = 2
            if stream is sys.stdout:
                with contextlib.suppress(AttributeError, OSError):   # no stderr to tell
                    sys.stderr.write(f"qprop: error: cannot write output: {exc}\n")
    os._exit(code)


if __name__ == "__main__":
    run()
