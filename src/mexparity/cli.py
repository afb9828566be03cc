"""Command-line front end.

Three subcommands: `compute` streams coefficients of the mex-partition
series, CHUNK rows at a time rendered straight from the series (parity
bits as fixed-width rows filled in by strided copies), so its memory
does not grow with `--limit`; `verify` runs the named verification
suites, and `scan` sweeps residue classes for parity congruence
candidates.  Every record stream can be rendered as an aligned table,
JSON lines or CSV, and the same invocation always produces
byte-identical output.  Options are parsed with the standard library's
argparse; the package has no runtime dependency.

Exit codes: 0 success (all checks passed), 1 a verification found a
counterexample or the records could not all be written (stdout closed
early, silently, or a failed write such as a full disk, with one line on
stderr), 2 usage error, including a limit or a scan modulus past one of
the ceilings that keep a request within time and memory.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections.abc import Iterable, Iterator

from . import genfun, verify
from .errors import LimitError
from .series import MOD2, TruncatedSeries

CHUNK = 1 << 14  # rows per chunk that `compute` renders and writes at a time

_COLUMNS = {
    "coefficient": ("t", "n", "value"),
    "report": verify.VerificationReport.COLUMNS,
    "claim": verify.CongruenceClaim.COLUMNS,
}


def _cell(value, fmt: str) -> str:
    if type(value) is int:
        return str(value)
    if value is None:
        return "" if fmt == "csv" else "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render(kind: str, records: list[dict], fmt: str) -> str:
    columns = _COLUMNS[kind]
    # json and csv are imported where they are used, not at start-up:
    # `compute` and every table skip both
    if fmt == "jsonl":
        import json

        # one %-template per kind; a cell that is not an int is its JSON text
        line = f'{{"kind":"{kind}"' + "".join(f',"{c}":%s' for c in columns) + "}\n"
        rows = (
            [str(v) if type(v) is int else json.dumps(v) for v in map(rec.__getitem__, columns)]
            for rec in records
        )
        return "".join(line % tuple(row) for row in rows)
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("kind",) + columns)
        for rec in records:
            writer.writerow([kind] + [_cell(rec[c], "csv") for c in columns])
        return buf.getvalue()
    k = len(columns)
    cells = [*columns, *(_cell(rec[c], "table") for rec in records for c in columns)]
    line = "  ".join(f"{{:<{max(map(len, cells[i::k]))}}}" for i in range(k))
    return "".join(line.format(*row).rstrip() + "\n" for row in zip(*[iter(cells)] * k))


def _coefficient_chunks(t: int, series: TruncatedSeries, fmt: str) -> Iterator[str]:
    # The bytes of _render("coefficient", ...), CHUNK rows at a time: the
    # t and n column widths follow from t and the order alone, and value is
    # the last column, so the table's rstrip drops all of its padding.
    if fmt == "jsonl":
        line = '{{"kind":"coefficient","t":%d,"n":{},"value":{}}}\n' % t
    elif fmt == "csv":
        yield "kind,t,n,value\n"
        line = "coefficient,%d,{},{}\n" % t
    else:
        wn = len(str(series.order - 1))
        yield f"{'t':<{len(str(t))}}  {'n':<{wn}}  value\n"
        line = "%d  {:<%d}  {}\n" % (t, wn)
    if series.domain is not MOD2:
        # values of any width: one format call per row, at most 10^4 rows
        coeffs = series.coeffs
        for lo in range(0, series.order, CHUNK):
            hi = min(lo + CHUNK, series.order)
            yield "".join(map(line.format, range(lo, hi), coeffs[lo:hi]))
        return
    # Over GF(2) every value is one digit, so the rows of a run [a, b) of
    # d-digit indices all have the width w of row a: the run is that row
    # repeated, and the digits of n and the bits are copied into their
    # columns by strided slice assignments.  at_n and tail place n and the
    # bit in a row, counted from its start and from its end.
    probe = line.format("\0", "\1")
    at_n, tail = probe.index("\0"), len(probe) - probe.index("\1")
    digits = series.digits
    for lo in range(0, series.order, CHUNK):
        hi = min(lo + CHUNK, series.order)
        rows, a = [], lo
        while a < hi:
            d = len(str(a))
            b = min(hi, 10**d)
            row = line.format(a, 0).encode()
            w = len(row)
            buf = bytearray(row * (b - a))
            ns = (("%d" * (b - a)) % tuple(range(a, b))).encode()
            for i in range(d):
                buf[at_n + i::w] = ns[i::d]
            buf[w - tail::w] = digits[a:b].encode()
            rows.append(buf.decode())
            a = b
        yield "".join(rows)


def _emit(chunks: Iterable[str], out: io.TextIOWrapper | None) -> None:
    # out is the --out FILE that main opened for appending, or None for stdout
    if out is None:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
        return
    with out:
        if os.path.isfile(out.name):
            out.truncate(0)  # a regular FILE's old contents are replaced
        out.writelines(chunks)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mexparity", allow_abbrev=False,
        description="Partition-parity toolkit: exact q-series, enumeration oracles and "
                    "congruence verification for mex-defined partition counts.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    compute, check, scan = (
        commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        for name, summary in [
            ("compute", "Print the count (or its parity) for every weight 0 <= n < limit."),
            ("verify", "Run a verification suite; exit 1 if any check finds a counterexample."),
            ("scan", "Emit one claim per residue class: refuted with its first witness, "
                     "verified-to-bound, or unchecked when the limit reaches no index of "
                     "the class.  Always exits 0; claims are evidence, not proofs.")])
    for sub in (compute, scan):
        sub.add_argument("--t", type=int, default=1,
                         help="odd parameter t of the mex statistic, A = a = t")
    # one destination for both flags, so the last one given wins
    compute.add_argument("--mod2", dest="mod2", action="store_const", const=True,
                         help="parity bits (the default for t >= 5)")
    compute.add_argument("--int", dest="mod2", action="store_const", const=False,
                         help="exact integers (the default for t < 5)")
    check.add_argument("--suite", choices=verify.SUITES, default="all")
    scan.add_argument("--modulus", type=int, default=2, help="scan residue classes modulo this value")
    for sub in (compute, check, scan):
        # a string default goes through type= too: a bad MEXPARITY_LIMIT is a usage error
        sub.add_argument("--limit", type=int,
                         default=os.environ.get("MEXPARITY_LIMIT", "1000"),
                         help="exclusive bound on indices (default %(default)s, from "
                              "MEXPARITY_LIMIT when set)")
        sub.add_argument("--format", dest="fmt", choices=("table", "jsonl", "csv"),
                         default="table", help="aligned table, JSON lines or CSV")
        sub.add_argument("--out", metavar="FILE", help="write records to FILE instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Run `mexparity` on argv (default: sys.argv[1:]); exit 2 on a usage error, else 1 on failure."""
    parser = _parser()
    args = parser.parse_args(argv)
    # every check runs before anything is built
    t = getattr(args, "t", 1)
    if t < 1 or t % 2 == 0:
        parser.error("--t must be an odd positive integer")
    for name, low in (("limit", 1 if args.command == "compute" else 2), ("modulus", 1)):
        if getattr(args, name, low) < low:
            parser.error(f"--{name} must be at least {low}")
    out = None
    if args.out:
        # opened once, for appending, which truncates nothing: a request
        # refused below by a ceiling leaves an existing FILE as it was, and
        # a new one empty
        try:
            out = open(args.out, "a", newline="")
        except OSError as exc:
            parser.error(f"--out {args.out!r} cannot be opened: {exc.strerror} (FILE must be "
                         "writable, not a directory and not in a missing directory)")
    failed = False
    try:
        if args.command == "compute":
            mod2 = args.t >= 5 if args.mod2 is None else args.mod2
            build = genfun.ptt_mod2_series if mod2 else genfun.ptt_series
            chunks = _coefficient_chunks(args.t, build(args.t, args.limit), args.fmt)
        elif args.command == "verify":
            reports = verify.run_suite(args.suite, args.limit)
            chunks = [_render("report", [r.to_record() for r in reports], args.fmt)]
            failed = not all(r.passed for r in reports)
        else:
            claims = verify.scan_congruences(args.t, args.modulus, args.limit)
            chunks = [_render("claim", [c.to_record() for c in claims], args.fmt)]
    except LimitError as exc:
        if out is not None:
            out.close()
        # its message names the ceiling the request is past
        parser.error(str(exc))
    try:
        _emit(chunks, out)
    except OSError as exc:
        # a closed pipe means the reader is gone and needs no message; either
        # way stdout points at devnull, so the flush at exit cannot fail again
        if not isinstance(exc, BrokenPipeError):
            print(f"mexparity: cannot write the records: {exc.strerror}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    if failed:
        sys.exit(1)


# the call form perfbench/tracer.py uses to run the CLI in-process
main.main = lambda args=None, **_: main(args)


if __name__ == "__main__":
    main()
