"""Tests of the benchmark harness itself, at tiny orders.

Run from the root of the source tree:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

TINY_COMMANDS = [
    ["compute", "--t", "3", "--int", "--limit", "60", "--format", "jsonl"],
    ["compute", "--t", "5", "--limit", "300"],
    ["compute", "--t", "1", "--mod2", "--limit", "300", "--format", "csv"],
    ["verify", "--suite", "p33", "--limit", "300"],
    ["verify", "--suite", "identities", "--limit", "60"],
    ["scan", "--t", "9", "--modulus", "18", "--limit", "400"],
]


def _reference_for(argv):
    plain = run.run_command(argv)
    return {run.command_key(argv): {"exit_code": plain.exit_code,
                                    "stdout_sha256": plain.stdout_sha256}}


def test_tracer_wraps_reexports_and_restores_originals():
    import mexparity
    from mexparity import cli, genfun, partitions, series, verify

    modules = (mexparity, cli, genfun, partitions, series, verify)
    before = [dict(vars(m)) for m in modules]
    coeffs = vars(series.TruncatedSeries)["coeffs"]
    with tracer.Tracer() as tr:
        assert genfun.series_mul is not before[2]["series_mul"]
        assert verify.ptt_mod2_series is not before[5]["ptt_mod2_series"]
        assert vars(series.TruncatedSeries)["coeffs"] is not coeffs
        verify.run_suite("p33", 200)
        verify.run_suite("p33", 200)
    for saved, module in zip(before, modules):
        assert vars(module) == saved
        for name, value in saved.items():
            assert vars(module)[name] is value
    assert vars(series.TruncatedSeries)["coeffs"] is coeffs
    assert tr.stats["verify.verify_characterization.calls"] == 2
    assert tr.stats["genfun.ptt_mod2_series.cache_hits"] >= 1
    assert tr.stats["series.series_mul.mod2.calls"] >= 1


def test_tracer_restores_originals_after_an_error():
    from mexparity import verify

    original = verify.run_suite
    checker = verify.verify_characterization
    with pytest.raises(ValueError):
        with tracer.Tracer():
            verify.verify_characterization("p99", 10)
    assert verify.run_suite is original
    assert verify.verify_characterization is checker


def test_self_time_excludes_traced_callees():
    from mexparity import genfun

    with tracer.Tracer() as tr:
        genfun.ptt_series(3, 83)
    stats = tr.stats
    assert stats["genfun.ptt_series.calls"] == 1
    assert 0 <= stats["genfun.ptt_series.self_s"] <= stats["genfun.ptt_series.s"]
    callees = stats["series.series_mul.int.s"] + stats["series.euler_product.int.s"]
    assert stats["genfun.ptt_series.s"] >= callees
    assert stats["series.series_mul.int.nnz_product_sum"] > 0


@pytest.mark.parametrize("argv", TINY_COMMANDS, ids=run.command_key)
def test_traced_stdout_matches_untraced(argv):
    plain = run.run_command(argv)
    traced = run.run_command(argv, traced=True)
    assert plain.exit_code == traced.exit_code == 0
    assert plain.stdout_bytes > 0
    assert traced.stdout_sha256 == plain.stdout_sha256
    assert traced.stats["cli.main.calls"] == 1
    assert traced.stats["cli.out_bytes"] == plain.stdout_bytes


def test_enumeration_counts_at_tiny_order():
    traced = run.run_command(["verify", "--suite", "crank-rank", "--limit", "5"], traced=True)
    assert traced.exit_code == 0
    stats = traced.stats
    # p(1..5) = 1, 2, 3, 5, 7: enumerated once for crank/rank and once per p_direct
    assert stats["partitions.enumerate_partitions.yielded"] == 3 * 18
    assert stats["partitions.crank.calls"] == stats["partitions.rank.calls"] == 18
    assert not any(k.startswith("series.") for k in stats)


def test_digest_or_exit_code_mismatch_is_a_failure():
    argv = TINY_COMMANDS[1]
    key = run.command_key(argv)
    good = _reference_for(argv)
    assert run.run_pass([argv], good, traced=False)[0].ok
    assert run.run_pass([argv], good, traced=True)[0].ok
    wrong_digest = {key: {**good[key], "stdout_sha256": "0" * 64}}
    wrong_code = {key: {**good[key], "exit_code": 1}}
    for reference in (wrong_digest, wrong_code, {}):
        assert not run.run_pass([argv], reference, traced=False)[0].ok

    slow = run.run_command(argv, timeout=0.01)
    assert slow.exit_code == -9
    assert not run.check(slow, good)

    result = run.benchmark([argv], seconds=0, trace=False, reference=wrong_digest)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == run.SETUP_RUNS + 1
    assert result["metrics"]["ops_ok"]["value"] == 1 - 1 / result["attempted"]


def test_result_line_carries_exactly_the_declared_metrics():
    argv = TINY_COMMANDS[0]
    reference = _reference_for(argv)
    plain = run.benchmark([argv], seconds=0, trace=False, reference=reference)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0
    assert list(plain["metrics"]) == [m[0] for m in run.END_TO_END]
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    traced = run.benchmark([argv], seconds=0, trace=True, reference=reference)
    assert traced["correct"] and traced["attempted"] == 2
    assert list(traced["metrics"]) == run.PER_LAYER
    assert traced["metrics"]["cli.records"]["value"] == 60


def test_benchmark_json_matches_the_harness_and_its_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == run.benchmark_spec()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(unit.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 2 <= len(spec["workloads"]) <= 8
    assert len(json.dumps(spec)) <= 64 * 1024


def test_reference_covers_every_workload_command():
    reference = json.loads(run.REFERENCE.read_text())["commands"]
    for spec in run.WORKLOADS.values():
        for argv in spec["commands"]:
            assert reference[run.command_key(argv)]["exit_code"] == 0


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "parity-catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
