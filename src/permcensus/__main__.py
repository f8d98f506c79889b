"""Module entry point for `python -m permcensus`.

Once main() has returned, every object still alive stays alive until the
process ends, so this entry moves them all into the collector's permanent
generation (gc.freeze) before sys.exit.  The collections that interpreter
teardown runs then skip them, which saves a few milliseconds per run (about
a tenth of a default `census`); the final flush of stdio, the atexit hooks
and the exit code are those of a plain sys.exit.

The freeze lives here and not in cli.main, because cli.main also returns
to callers that keep running in the same process (the tests, and anything
that calls it in-process) and need a working collector afterwards.  The
installed `permcensus` script calls cli.main and so still pays for the
full teardown.
"""

import gc
import sys

from permcensus.cli import main

if __name__ == "__main__":
    code = main()
    gc.freeze()
    sys.exit(code)
