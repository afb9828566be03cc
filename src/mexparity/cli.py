"""Command-line front end.

Three subcommands: `compute` streams coefficients of the mex-partition
series, CHUNK rows at a time formatted straight from the series, so its
memory does not grow with `--limit`; `verify` runs the named verification
suites, and `scan` sweeps residue classes for parity congruence
candidates.  Every record stream can be rendered as an aligned table,
JSON lines or CSV, and the same invocation always produces
byte-identical output.

Exit codes: 0 success (all checks passed), 1 a verification found a
counterexample, 2 usage error, including a limit or a scan modulus past
one of the ceilings that keep a request within time and memory.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from collections.abc import Iterable, Iterator

import click

from . import genfun, verify
from .errors import LimitError
from .series import MOD2, TruncatedSeries

CHUNK = 1 << 14  # rows per chunk that `compute` renders and writes at a time

_COLUMNS = {
    "coefficient": ("t", "n", "value"),
    "report": ("theorem_id", "range", "passed", "counterexample", "detail"),
    "claim": ("t", "modulus", "residue", "checked_bound", "status", "witness"),
}


def _odd_t_option(ctx, param, value):
    if value < 1 or value % 2 == 0:
        raise click.BadParameter("t must be an odd positive integer")
    return value


def _cell(value, fmt: str) -> str:
    if type(value) is int:
        return str(value)
    if fmt == "jsonl":
        return json.dumps(value)
    if value is None:
        return "" if fmt == "csv" else "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render(kind: str, records: list[dict], fmt: str) -> str:
    columns = _COLUMNS[kind]
    if fmt == "jsonl":
        # one %-template per kind; no records still render as one newline
        line = f'{{"kind":"{kind}"' + "".join(f',"{c}":%s' for c in columns) + "}\n"
        rows = ([_cell(rec[c], fmt) for c in columns] for rec in records)
        return "".join(line % tuple(row) for row in rows) or "\n"
    if fmt == "csv":
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
    vals = series.digits if series.domain is MOD2 else series.coeffs
    for lo in range(0, series.order, CHUNK):
        hi = min(lo + CHUNK, series.order)
        yield "".join(map(line.format, range(lo, hi), vals[lo:hi]))


def _emit(chunks: Iterable[str], out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.writelines(chunks)
    else:
        for chunk in chunks:
            click.echo(chunk, nl=False)


_limit_option = click.option(
    "--limit",
    type=click.IntRange(min=1),
    default=1000,
    show_default=True,
    envvar="MEXPARITY_LIMIT",
    help="Exclusive bound on indices (override default via MEXPARITY_LIMIT).",
)
_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(("table", "jsonl", "csv")),
    default="table",
    show_default=True,
    help="Output format: aligned table, JSON lines, or CSV.",
)
_out_option = click.option(
    "--out",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write records to FILE instead of stdout.",
)


class _Group(click.Group):
    # every subcommand's LimitError, whose message names the ceiling, is a
    # usage error (exit 2)
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except LimitError as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Group)
def main():
    """Partition-parity toolkit: exact q-series, enumeration oracles and
    congruence verification for mex-defined partition counts."""


@main.command()
@click.option("--t", "t", type=int, default=1, show_default=True, callback=_odd_t_option,
              help="Odd parameter t of the mex statistic (A = a = t).")
@_limit_option
@click.option("--mod2/--int", "mod2", default=None,
              help="Coefficient domain: parity bits or exact integers "
                   "[default: --int for t < 5, --mod2 for t >= 5].")
@_format_option
@_out_option
def compute(t: int, limit: int, mod2: bool | None, fmt: str, out: str | None):
    """Print the count (or its parity) for every weight 0 <= n < limit."""
    if mod2 is None:
        mod2 = t >= 5
    series = genfun.ptt_mod2_series(t, limit) if mod2 else genfun.ptt_series(t, limit)
    _emit(_coefficient_chunks(t, series, fmt), out)


@main.command("verify")
@click.option("--suite", type=click.Choice(verify.SUITES), default="all", show_default=True,
              help="Which verification suite to run.")
@_limit_option
@_format_option
@_out_option
def verify_cmd(suite: str, limit: int, fmt: str, out: str | None):
    """Run a verification suite; exit 1 if any check finds a counterexample."""
    if limit < 2:
        raise click.UsageError("--limit must be at least 2")
    reports = verify.run_suite(suite, limit)
    _emit([_render("report", [r.to_record() for r in reports], fmt)], out)
    if any(not r.passed for r in reports):
        sys.exit(1)


@main.command()
@click.option("--t", "t", type=int, default=1, show_default=True, callback=_odd_t_option,
              help="Odd parameter t of the mex statistic.")
@click.option("--modulus", type=click.IntRange(min=1), default=2, show_default=True,
              help="Scan residue classes modulo this value.")
@_limit_option
@_format_option
@_out_option
def scan(t: int, modulus: int, limit: int, fmt: str, out: str | None):
    """Scan every residue class for all-even coefficients up to the limit.

    Emits one claim per class: refuted with its first witness,
    verified-to-bound, or unchecked when the limit reaches no index of
    the class.  Scanning always exits 0; claims are evidence, not proofs.
    """
    if limit < 2:
        raise click.UsageError("--limit must be at least 2")
    claims = verify.scan_congruences(t, modulus, limit)
    _emit([_render("claim", [c.to_record() for c in claims], fmt)], out)


if __name__ == "__main__":
    main()
