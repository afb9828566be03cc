"""End-to-end and per-layer benchmark of the mexparity CLI.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload parity-catalog --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --record    # rewrite reference.json from this tree

A workload is a fixed list of CLI commands.  The benchmark is a closed
loop with one client: it runs one command at a time, each in a fresh
`python -m mexparity.cli` process, so every `lru_cache` starts cold as it
does for a user.  The seed fixes the order of the commands in the list.
Passes over the list repeat while another pass, judged by the last one,
ends within `--seconds`, and every timing reported is the median over
passes.

Every command's exit code and stdout sha256 are checked against
reference.json, recorded from the seed commit; a mismatch is a failed
operation.  With `--trace 0` the last stdout line holds the end-to-end
metrics; with `--trace 1` each pass runs the list untraced and then traced
(see tracer.py) and the last line holds the per-layer metrics.  Earlier
lines describe the machine and each command run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import TRACE_MARKER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
TRACER = BENCH_DIR / "tracer.py"

# a command that takes longer than this is killed and counted as failed
COMMAND_TIMEOUT_S = 120.0
# fresh `--help` processes timed for setup_s; the median is reported
SETUP_RUNS = 9

WORKLOADS: dict[str, dict] = {
    "parity-catalog": {
        "why": "verify p11, p33, theorem6 and scan t=9 mod 18 at limit 1e5: GF(2) Euler "
               "products and Kronecker multiplies in series, no partitions; sparse "
               "closed-form Euler quotients should speed it",
        "commands": [
            ["verify", "--suite", "p11", "--limit", "100000"],
            ["verify", "--suite", "p33", "--limit", "100000"],
            ["verify", "--suite", "theorem6", "--limit", "100000"],
            ["scan", "--t", "9", "--modulus", "18", "--limit", "100000"],
        ],
    },
    "enumeration-oracle": {
        "why": "verify crank-rank at limit 45: enumerates 540,634 partitions three times, "
               "no series; a single-pass oracle should speed it and series work should "
               "not move it",
        "commands": [
            ["verify", "--suite", "crank-rank", "--limit", "45"],
        ],
    },
    "exact-stream": {
        "why": "verify identities 5e3; compute t=3 int jsonl 1e4, t=5 table and t=1 csv "
               "1e5: integer series (O(N^2) Euler base) and rendering, which sets peak RSS; "
               "GF(2) work should not move its integer half",
        "commands": [
            ["verify", "--suite", "identities", "--limit", "5000"],
            ["compute", "--t", "3", "--int", "--limit", "10000", "--format", "jsonl"],
            ["compute", "--t", "5", "--limit", "100000"],
            ["compute", "--t", "1", "--mod2", "--limit", "100000", "--format", "csv"],
        ],
    },
}

# (name, unit, better, bound): what a user of the CLI sees, with tracing off
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("ops_ok", "ratio", "higher", 0.01),
]


def _names(prefix: str, *parts: tuple[str, ...]) -> list[str]:
    names = [prefix]
    for choices in parts:
        names = [f"{n}.{c}" for n in names for c in choices]
    return names


_MOD2_INT = ("mod2", "int")
_CHECKERS = (
    "verify_characterization", "verify_crank_rank", "verify_odd_progression",
    "verify_qnr_families", "verify_power4_families", "verify_theorem6",
    "verify_tcore_congruences", "verify_series_identities",
    "verify_dissection_identities", "scan_congruences",
)

# (per-layer metric names, the end-to-end metric and workload each should move)
PER_LAYER_GROUPS: list[tuple[list[str], str]] = [
    (_names("series.euler_product", _MOD2_INT, ("calls", "self_s", "cache_hits"))
     + _names("series.series_mul", _MOD2_INT, ("calls", "self_s"))
     + _names("series.series_recip", _MOD2_INT, ("calls", "self_s")),
     "wall_s/cpu_s on parity-catalog (mod2) and exact-stream (int); zero on enumeration-oracle"),
    (["series.series_mul.mod2.min_popcount_sum",
      "series.series_mul.mod2.calls_min_popcount_gt_512",
      "series.series_mul.int.nnz_product_sum",
      "series.series_mul.int.calls_nnz_product_gt_2e6"],
     "operand-shape counts, as computed, that justify or delete the Kronecker cutoffs"),
    (_names("series.dissect", ("calls", "self_s"))
     + _names("series.coeffs", ("calls", "self_s", "len_sum"))
     + _names("series.closed_forms", ("calls", "self_s")),
     "wall_s and peak_rss_mib on exact-stream and parity-catalog"),
    (_names("genfun", ("ptt_mod2_series", "acore_mod2_series", "ptt_series"),
            ("calls", "s", "cache_hits"))
     + _names("genfun.dissection_identity_check", ("calls", "s")),
     "wall_s on parity-catalog and exact-stream"),
    (_names("partitions.enumerate_partitions", ("calls", "s", "yielded"))
     + _names("partitions.p_direct", ("calls", "s"))
     + ["partitions.crank.calls", "partitions.rank.calls", "partitions.mex.calls"],
     "wall_s on enumeration-oracle"),
    (_names("verify", _CHECKERS, ("calls", "s", "self_s")),
     "wall_s on parity-catalog; self time is the sweep cost (predicate loops, coefficient walks)"),
    (["cli.main.s", "cli.main.self_s", "cli.render.s", "cli.records", "cli.out_bytes"],
     "wall_s and peak_rss_mib on exact-stream (parsing, rendering, writing)"),
    (["trace_overhead_s"], "none: traced wall_s minus untraced wall_s of the same pass"),
]
PER_LAYER = [name for names, _ in PER_LAYER_GROUPS for name in names]


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def layer_better(name: str) -> str:
    return "higher" if name.endswith("cache_hits") else "lower"


def benchmark_spec() -> dict:
    """The BENCHMARK.json this module implements."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 35,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": layer_unit(n), "better": layer_better(n)} for n in PER_LAYER
        ],
    }


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """Environment for every child: the tree's own src, fixed hashing,
    and no inherited MEXPARITY_* or PYTHON* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MEXPARITY_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


@dataclass
class CommandRun:
    argv: list[str]
    traced: bool
    exit_code: int
    stdout_sha256: str
    stdout_bytes: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    stderr: str = ""
    stats: dict[str, float] = field(default_factory=dict)
    ok: bool = True


def run_command(argv: list[str], traced: bool = False, timeout: float = COMMAND_TIMEOUT_S) -> CommandRun:
    """Run one CLI command in a fresh process and measure it.

    Stdout is hashed as it streams; wall time runs from spawn to reap, and
    CPU time and max RSS come from the child's own rusage.
    """
    entry = [str(TRACER)] if traced else ["-m", "mexparity.cli"]
    digest = hashlib.sha256()
    size = 0
    err_chunks: list[bytes] = []
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *entry, *argv], cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    reader = threading.Thread(target=lambda: err_chunks.append(proc.stderr.read()))
    # a bare kill: the child stays a zombie until wait4 below, so its pid
    # cannot be reused, and nothing but wait4 reaps it
    killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
    reader.start()
    killer.start()
    try:
        while chunk := proc.stdout.read(1 << 16):
            digest.update(chunk)
            size += len(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    stderr = b"".join(err_chunks).decode("utf-8", "replace")
    stats: dict[str, float] = {}
    if traced:
        kept = []
        for line in stderr.splitlines():
            if line.startswith(TRACE_MARKER):
                stats = json.loads(line[len(TRACE_MARKER):])
            else:
                kept.append(line)
        stderr = "\n".join(kept)
        stats["cli.out_bytes"] = size
    return CommandRun(
        argv=list(argv), traced=traced, exit_code=proc.returncode,
        stdout_sha256=digest.hexdigest(), stdout_bytes=size, wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime, maxrss_mib=usage.ru_maxrss / 1024,
        stderr=stderr, stats=stats,
    )


def check(run: CommandRun, reference: dict) -> bool:
    """True iff exit code and stdout digest match the recorded reference
    (and, for a traced run, the trace stats arrived)."""
    ref = reference.get(command_key(run.argv))
    run.ok = (
        ref is not None
        and run.exit_code == ref["exit_code"]
        and run.stdout_sha256 == ref["stdout_sha256"]
        and (not run.traced or "cli.main.calls" in run.stats)
    )
    return run.ok


# ---------------------------------------------------------------------------
# a benchmark run
# ---------------------------------------------------------------------------


def machine_info() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "mexparity").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def package_origin() -> str:
    """File the children import mexparity from."""
    out = subprocess.run(
        [sys.executable, "-c", "import mexparity; print(mexparity.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    return out.stdout.strip()


def emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def run_pass(commands: list[list[str]], reference: dict, traced: bool) -> list[CommandRun]:
    runs = []
    for argv in commands:
        run = run_command(argv, traced=traced)
        check(run, reference)
        emit({"command": command_key(argv), "traced": traced, "ok": run.ok,
              "exit_code": run.exit_code, "wall_s": run.wall_s, "cpu_s": run.cpu_s,
              "maxrss_mib": run.maxrss_mib, "stdout_bytes": run.stdout_bytes})
        if not run.ok and run.stderr:
            print(run.stderr[-2000:], file=sys.stderr)
        runs.append(run)
    return runs


def measure_setup(runs: int) -> tuple[list[float], int]:
    """Time fresh `--help` processes; return the times and the failures."""
    run_command(["--help"])  # writes bytecode caches so every timed start is alike
    times, failed = [], 0
    for _ in range(runs):
        run = run_command(["--help"])
        times.append(run.wall_s)
        if run.exit_code != 0 or run.stdout_bytes == 0:
            failed += 1
    return times, failed


def sum_stats(runs: list[CommandRun]) -> dict[str, float]:
    total: dict[str, float] = {}
    for run in runs:
        for key, value in run.stats.items():
            total[key] = total.get(key, 0) + value
    return total


def passes_until(deadline: float):
    """Yield once per pass: always once, then again while a pass as long as
    the last one still ends by `deadline` (a perf_counter reading)."""
    while True:
        begin = time.perf_counter()
        yield
        now = time.perf_counter()
        if now + (now - begin) > deadline:
            return


def benchmark(commands: list[list[str]], seconds: float, trace: bool, reference: dict) -> dict:
    """Run passes over `commands` and return the result object printed last."""
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    deadline = time.perf_counter() + seconds
    if not trace:
        setup_times, setup_failed = measure_setup(SETUP_RUNS)
        attempted += SETUP_RUNS
        failed += setup_failed
        walls, cpus, rss = [], [], []
        for _ in passes_until(deadline):
            runs = run_pass(commands, reference, traced=False)
            attempted += len(runs)
            failed += sum(not r.ok for r in runs)
            walls.append(sum(r.wall_s for r in runs))
            cpus.append(sum(r.cpu_s for r in runs))
            rss.append(max(r.maxrss_mib for r in runs))
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mib": statistics.median(rss),
            "setup_s": statistics.median(setup_times),
            "ops_ok": 1 - failed / attempted,
        }
        for name, unit, _, _ in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
        emit({"passes": len(walls), "pass_wall_s": walls, "setup_s": setup_times})
    else:
        plain_walls, traced_walls, layers = [], [], []
        for _ in passes_until(deadline):
            plain = run_pass(commands, reference, traced=False)
            traced = run_pass(commands, reference, traced=True)
            for runs in (plain, traced):
                attempted += len(runs)
                failed += sum(not r.ok for r in runs)
            plain_walls.append(sum(r.wall_s for r in plain))
            traced_walls.append(sum(r.wall_s for r in traced))
            layers.append(sum_stats(traced))
        overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
        emit({"passes": len(traced_walls), "layers": layers})
        for name in PER_LAYER:
            if name == "trace_overhead_s":
                value = overhead
            else:
                value = statistics.median(pass_stats.get(name, 0) for pass_stats in layers)
            metrics[name] = {"value": value, "unit": layer_unit(name)}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_reference() -> dict:
    """Run every distinct command once and record its exit code and digest."""
    commands: dict[str, dict] = {}
    for spec in WORKLOADS.values():
        for argv in spec["commands"]:
            run = run_command(argv)
            commands[command_key(argv)] = {
                "exit_code": run.exit_code,
                "stdout_sha256": run.stdout_sha256,
                "stdout_bytes": run.stdout_bytes,
            }
            emit({"command": command_key(argv), **commands[command_key(argv)]})
    return {"machine": machine_info(), "commands": commands}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the tree under test")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "mexparity" / "cli.py").is_file():
        print(f"error: no mexparity source tree at {SRC}", file=sys.stderr)
        return 2
    origin = package_origin()
    if not origin or Path(origin).resolve().parent != (SRC / "mexparity").resolve():
        print(f"error: children import mexparity from {origin or 'nowhere'}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.record:
        data = record_reference()
        REFERENCE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return 0

    reference = json.loads(REFERENCE.read_text())["commands"]
    commands = [list(argv) for argv in WORKLOADS[args.workload]["commands"]]
    random.Random(args.seed).shuffle(commands)
    emit({"machine": machine_info(), "workload": args.workload, "seed": args.seed,
          "commands": [command_key(c) for c in commands]})
    emit(benchmark(commands, args.seconds, bool(args.trace), reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
