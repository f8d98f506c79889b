"""Command-line interface: the argument parser, and the census rows rendered and written.

census.rows computes each row of a layout (census.COLUMNS names its
columns); this module renders its exact ratios with six significant
digits, as plain, csv or jsonl lines.  Each row is written as soon as it
is computed, so `census --to 10000 | head -1` does not wait for the rest
of the range: before the first row, census.rows runs only the sigma
sieves of the whole range, and each row draws P only up to its degree.
Exit codes: 0 success, 1 verification failure, failed write or lack of
memory, 2 usage error, 130 after Ctrl-C, whether or not stderr can be
written (warn skips a failed line).

Importing this module loads census, arith and partitions, and no other
module of the package.  The verification suites live in verify.py, which
the `verify` subcommand imports when it runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from permcensus import census
from permcensus.census import significant_digits

DEFAULT_FROM = 3
DEFAULT_TO = 255
# A cycles row factorizes its degree by trial division: up to 10**12 a row
# takes under a second, and at 10**23 - 1 one row trial-divides for hours.
CYCLES_MAX_TO = 10**12

SUITE_NAMES = ("formulas", "identities", "origami", "characters", "bounds")


def cmd_census(args) -> int:
    if args.start < 3 or args.start > args.stop:
        warn(f"census: need 3 <= --from <= --to, got {args.start}..{args.stop}")
        return 2
    if args.family == "cycles" and args.stop > CYCLES_MAX_TO:
        warn(f"census: --family cycles needs --to <= {CYCLES_MAX_TO}, got {args.stop}")
        return 2
    header = census.COLUMNS[args.family]
    if args.format == "jsonl":
        import json

        def render(row: list) -> str:
            return json.dumps(dict(zip(header, row)), separators=(",", ":"))
    else:
        sep = "," if args.format == "csv" else " "

        def render(row: list) -> str:
            return sep.join(map(str, row))

    # Each row goes to stdout as soon as it is computed; stdout's own
    # buffering decides when a reader sees it (no flush per row).
    out = sys.stdout
    if args.format == "csv":
        out.write(",".join(header) + "\n")
    for row in census.rows(args.family, range(args.start, args.stop + 1)):
        cells = [significant_digits(x) if isinstance(x, Fraction) else x for x in row]
        out.write(render(cells) + "\n")
    return 0


def _cmd_verify(args) -> int:
    # Usage errors are reported before the suites' modules are loaded.
    if args.max_n == 8 and not args.allow_n8:
        warn("verify: --max-n 8 needs --allow-n8")
        return 2
    from permcensus import verify

    return verify.cmd_verify(args)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message} (see --help)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permcensus",
        description="Exact census of permutation pairs with 3-cycle commutators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cen = sub.add_parser("census", help="print family counts over a degree range")
    cen.add_argument("--from", dest="start", type=int, default=DEFAULT_FROM,
                     help=f"first degree (default {DEFAULT_FROM})")
    cen.add_argument("--to", dest="stop", type=int, default=DEFAULT_TO,
                     help=f"last degree (default {DEFAULT_TO})")
    cen.add_argument("--family", choices=tuple(census.COLUMNS), default="main",
                     help="main: all pairs; cycles: n-cycle and any-cycle families "
                          f"(--to at most {CYCLES_MAX_TO})")
    cen.add_argument("--format", choices=("plain", "csv", "jsonl"), default="plain")
    cen.add_argument("--threads", type=_thread_count, default=1,
                     help="accepted for compatibility and ignored: rows are "
                          "computed in one thread (an integer >= 1; default 1)")
    cen.set_defaults(func=cmd_census)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suites", nargs="+", choices=SUITE_NAMES,
                     default=list(SUITE_NAMES), metavar="SUITE",
                     help=f"subset of: {', '.join(SUITE_NAMES)}")
    ver.add_argument("--max-n", dest="max_n", type=int, choices=range(3, 9), default=5,
                     help="largest degree for brute-force suites (default 5)")
    ver.add_argument("--allow-n8", action="store_true",
                     help="permit the degree-8 enumeration (it roughly doubles "
                          "the time of --max-n 7)")
    ver.add_argument("--json", action="store_true",
                     help="also print a machine-readable JSON summary")
    ver.set_defaults(func=_cmd_verify)
    return parser


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"thread count (--threads) must be an integer >= 1, got {text!r}")
    return value


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if sys.stdout is None:  # started with stdout closed (`permcensus census >&-`)
        warn("permcensus: cannot write output: stdout is closed")
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # a write error surfaces here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (census | head): stop quietly.
        _discard_stdout()
        return 0
    except OSError as exc:  # stdout could not be written, e.g. a full disk
        warn(f"permcensus: cannot write output: {exc}")
        _discard_stdout()
        return 1
    except (MemoryError, OverflowError):
        # A table too large for this process (census --to 1000000000000 under
        # a memory limit) or for any list (OverflowError from 2**63 entries up).
        warn(f"permcensus: out of memory: {args.command} needs more than this process may use")
        return 1
    except KeyboardInterrupt:  # Ctrl-C: stop quietly, with the status a shell gives SIGINT
        _discard_stdout()
        return 130


def warn(line: str) -> None:
    """Write one line to stderr, best effort: skip it when stderr is closed or fails."""
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError):  # sys.stderr is None when fd 2 was closed at start
        pass


def _discard_stdout() -> None:
    """Point stdout at /dev/null, so that the flush at exit cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
