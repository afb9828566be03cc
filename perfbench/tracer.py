"""Per-layer tracing of the mexparity package from outside its source.

`Tracer` replaces the public functions of each module with wrappers that
record calls, elapsed time, self time (elapsed minus the time of traced
calls nested inside), `lru_cache` hits and operand shapes, under names of
the form `<module>.<function>[.<domain>].<stat>`.  Every module namespace
that holds one of these functions gets the wrapper, so calls through a
re-export (`mexparity.genfun.series_mul`, `mexparity.verify.ptt_mod2_series`)
are caught as well as calls inside the defining module.  Leaving the
`with` block puts every original object back.

Run as a script, this file is the traced stand-in for
`python -m mexparity.cli`: it runs the CLI with the given arguments under a
`Tracer` and writes the stats as one `PERFBENCH_TRACE <json>` line to
stderr, leaving stdout exactly as the CLI wrote it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

TRACE_MARKER = "PERFBENCH_TRACE "

# functions whose only stat is a call count: they run millions of times per
# workload, so timing each call would dominate what is measured
_COUNTED = {
    "partitions": ("crank", "rank", "mex"),
}

# functions timed as spans, named <module>.<function>
_SPANS = {
    "series": ("series_mul", "series_recip", "euler_product", "dissect"),
    "partitions": ("p_direct",),
    "genfun": (
        "ptt_series",
        "ptt_mod2_series",
        "acore_mod2_series",
        "dissection_identity_check",
    ),
    "verify": (
        "verify_characterization",
        "verify_crank_rank",
        "verify_odd_progression",
        "verify_qnr_families",
        "verify_power4_families",
        "verify_theorem6",
        "verify_tcore_congruences",
        "verify_series_identities",
        "verify_dissection_identities",
        "scan_congruences",
    ),
}

# closed-form constructors share one span name: each is cheap on its own
_CLOSED_FORMS = ("euler_pentagonal", "jacobi_cube", "alternating_triangular", "theta_psi")

# The dispatch cutoffs of the series kernels at the time the benchmark was
# defined.  They are fixed here, not read from the package, so the shape
# counts stay comparable when the kernels' own cutoffs change or go away.
GF2_POPCOUNT_CUTOFF = 512
INT_NNZ_PRODUCT_CUTOFF = 2_000_000


def _domain(series) -> str:
    return "mod2" if series.domain.value == "mod2" else "int"


def _nnz(series, order: int) -> int:
    # through nonzero_indices, not .coeffs, so the probe is not traced itself
    from mexparity.series import nonzero_indices

    return sum(1 for i in nonzero_indices(series) if i < order)


def _euler_domain(args, kwargs) -> str:
    domain = args[3] if len(args) > 3 else kwargs.get("domain")
    return "mod2" if domain is not None and domain.value == "mod2" else "int"


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    `stats` maps metric names to numbers; the class is not thread-safe
    and traces one process's calls.
    """

    def __init__(self):
        self.stats: dict[str, float] = defaultdict(int)
        # time spent in traced callees of each open span; [0] is the root
        self._child_time = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import mexparity
        from mexparity import cli, genfun, partitions, series, verify

        modules = {"series": series, "partitions": partitions, "genfun": genfun,
                   "verify": verify, "cli": cli}
        replace = {}
        for mod_name, names in _SPANS.items():
            for name in names:
                fn = getattr(modules[mod_name], name)
                replace[fn] = self._span(f"{mod_name}.{name}", fn, **self._extras(mod_name, name))
        for name in _CLOSED_FORMS:
            fn = getattr(series, name)
            replace[fn] = self._span("series.closed_forms", fn)
        for mod_name, names in _COUNTED.items():
            for name in names:
                fn = getattr(modules[mod_name], name)
                replace[fn] = self._counted(f"{mod_name}.{name}.calls", fn)
        fn = partitions.enumerate_partitions
        replace[fn] = self._iterator("partitions.enumerate_partitions", fn)

        try:
            for module in (mexparity, *modules.values()):
                for attr, value in list(vars(module).items()):
                    if callable(value) and value in replace:
                        self._set(module, attr, replace[value])
            self._set(cli, "_render", self._render(cli._render))
            cls = series.TruncatedSeries
            self._set(cls, "coeffs", property(self._coeffs(cls.coeffs.fget)))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _extras(self, mod_name: str, name: str) -> dict:
        if mod_name != "series":
            return {}
        if name == "series_mul":
            return {"domain_of": lambda args, kw: _domain(args[0]), "shape": self._mul_shape}
        if name == "series_recip":
            return {"domain_of": lambda args, kw: _domain(args[0])}
        if name == "euler_product":
            return {"domain_of": _euler_domain}
        return {}

    # -- wrappers ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, key: str):
        """Time the body of a `with` block as one call named `key`."""
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(key, time.perf_counter() - start)

    def _close(self, key: str, elapsed: float, call: bool = True) -> None:
        # pop the span opened by the caller and charge it to its parent
        child = self._child_time.pop()
        self._child_time[-1] += elapsed
        stats = self.stats
        stats[key + ".calls"] += call
        stats[key + ".s"] += elapsed
        stats[key + ".self_s"] += elapsed - child

    def _span(self, key: str, fn, domain_of=None, shape=None):
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter
        stack = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = key if domain_of is None else f"{key}.{domain_of(args, kwargs)}"
            if shape is not None:
                shape(name, args)
            hits = cache_info().hits if cache_info is not None else 0
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, clock() - start)
                if cache_info is not None:
                    self.stats[name + ".cache_hits"] += cache_info().hits - hits

        return wrapper

    def _counted(self, key: str, fn):
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _iterator(self, key: str, fn):
        # the work of a generator happens in next(), so each next() is a span
        clock = time.perf_counter
        stack = self._child_time
        stats = self.stats

        def timed(it):
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(key, clock() - start, call=False)
                stats[key + ".yielded"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            stats[key + ".calls"] += 1
            return timed(it)

        return wrapper

    def _mul_shape(self, name: str, args) -> None:
        # the operand shapes the kernels dispatch on, computed the same way
        a, b = args[0], args[1]
        order = min(a.order, b.order)
        stats = self.stats
        if name.endswith(".mod2"):
            mask = (1 << order) - 1
            low = min((a.bits & mask).bit_count(), (b.bits & mask).bit_count())
            stats[name + ".min_popcount_sum"] += low
            stats[name + ".calls_min_popcount_gt_512"] += low > GF2_POPCOUNT_CUTOFF
        else:
            nnz = _nnz(a, order) * _nnz(b, order)
            stats[name + ".nnz_product_sum"] += nnz
            stats[name + ".calls_nnz_product_gt_2e6"] += nnz > INT_NNZ_PRODUCT_CUTOFF

    def _render(self, fn):
        # not a span: rendering stays in cli.main's self time
        clock = time.perf_counter
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(kind, records, fmt):
            start = clock()
            try:
                return fn(kind, records, fmt)
            finally:
                stats["cli.render.s"] += clock() - start
                stats["cli.records"] += len(records)

        return wrapper

    def _coeffs(self, fget):
        clock = time.perf_counter
        stack = self._child_time
        stats = self.stats

        @functools.wraps(fget)
        def wrapper(series):
            stack.append(0.0)
            start = clock()
            try:
                out = fget(series)
            finally:
                self._close("series.coeffs", clock() - start)
            stats["series.coeffs.len_sum"] += len(out)
            return out

        return wrapper


def run_cli(argv: list[str]) -> int | str | None:
    """Run the CLI under a Tracer; return the code it passed to sys.exit."""
    from mexparity import cli

    tracer = Tracer()
    code: int | str | None = 0
    with tracer:
        with tracer.span("cli.main"):
            try:
                cli.main.main(args=argv, prog_name="mexparity", standalone_mode=True)
            except SystemExit as stop:
                code = stop.code
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARKER + json.dumps(tracer.stats, sort_keys=True) + "\n")
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(run_cli(sys.argv[1:]))
