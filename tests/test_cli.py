import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import threading
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import mexparity
from mexparity import genfun, series, verify
from mexparity.cli import CHUNK, _coefficient_chunks, _render, main
from mexparity.genfun import ptt_mod2_series, ptt_series
from mexparity.series import MOD2, TruncatedSeries


def run(*args, env=None):
    """Run the CLI in-process under the extra environment `env`.

    Returns its exit code, `output` (stdout, then stderr) and
    `stdout_bytes` (stdout alone, UTF-8 encoded).
    """
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as stop:
            code = 0 if stop.code is None else stop.code
    return SimpleNamespace(exit_code=code, output=out.getvalue() + err.getvalue(),
                           stdout_bytes=out.getvalue().encode())


def child_env():
    """The test process's environment, with the package on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mexparity.__file__)))


class TestCompute:
    def test_t3_values(self):
        result = run("compute", "--t", "3", "--limit", "6")
        assert result.exit_code == 0
        values = [line.split()[-1] for line in result.output.splitlines()[1:]]
        assert values == ["1", "1", "2", "2", "4", "5"]

    def test_t1_parity(self):
        result = run("compute", "--t", "1", "--limit", "5", "--mod2")
        assert result.exit_code == 0
        values = [line.split()[-1] for line in result.output.splitlines()[1:]]
        assert values == ["1", "0", "1", "0", "1"]

    def test_even_t_is_usage_error(self):
        result = run("compute", "--t", "2", "--limit", "5")
        assert result.exit_code == 2

    def test_zero_limit_is_usage_error(self):
        result = run("compute", "--t", "1", "--limit", "0")
        assert result.exit_code == 2

    def test_integer_domain_is_capped(self):
        result = run("compute", "--t", "1", "--limit", "20000", "--int")
        assert result.exit_code == 2
        assert "exceeds the ceiling 10000" in result.output

    def test_large_t_defaults_to_parity(self):
        result = run("compute", "--t", "7", "--limit", "40000")
        assert result.exit_code == 0

    def test_env_var_overrides_default_limit(self):
        result = run("compute", "--t", "1", env={"MEXPARITY_LIMIT": "3"})
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 4  # header + 3 rows

    def test_bad_env_limit_is_usage_error(self):
        result = run("compute", "--t", "1", env={"MEXPARITY_LIMIT": "abc"})
        assert result.exit_code == 2
        assert "Traceback" not in result.output

    def test_given_limit_overrides_a_bad_env_limit(self):
        result = run("compute", "--t", "1", "--limit", "3", env={"MEXPARITY_LIMIT": "abc"})
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 4

    @pytest.mark.parametrize("flags, domain", [(("--mod2", "--int"), "--int"),
                                               (("--int", "--mod2"), "--mod2")])
    def test_last_domain_flag_wins(self, flags, domain):
        result = run("compute", "--t", "5", "--limit", "12", *flags)
        assert result.exit_code == 0
        assert result.output == run("compute", "--t", "5", "--limit", "12", domain).output
        values = [int(line.split()[-1]) for line in result.output.splitlines()[1:]]
        series = ptt_series(5, 12) if domain == "--int" else ptt_mod2_series(5, 12)
        assert values == list(series.coeffs)

    def test_closed_pipe_exits_one_without_a_traceback(self):
        # the reader takes one line and goes away while rows are still coming
        proc = subprocess.Popen(
            [sys.executable, "-m", "mexparity.cli", "compute", "--t", "5", "--limit", "1000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        try:
            assert proc.stdout.readline().split() == [b"t", b"n", b"value"]
        finally:
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.stderr.close()
            proc.wait(timeout=120)
        assert proc.returncode == 1
        assert b"Traceback" not in stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("to_out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("args", [
        ("verify", "--suite", "p11", "--limit", "100"),
        ("compute", "--t", "5", "--limit", "100000"),
    ])
    def test_failed_write_exits_one_with_one_line(self, args, to_out):
        # a full disk: stdout or --out is /dev/full, where every write fails
        with open("/dev/full", "w") as full:
            child = subprocess.run(
                [sys.executable, "-m", "mexparity.cli", *args, *(["--out", "/dev/full"] if to_out else [])],
                stdout=subprocess.DEVNULL if to_out else full, stderr=subprocess.PIPE, env=child_env(),
                timeout=120)
        assert child.returncode == 1
        assert child.stderr.decode().splitlines() == [
            "mexparity: cannot write the records: No space left on device"]


class TestVerifyCommand:
    def test_unknown_suite(self):
        result = run("verify", "--suite", "bogus")
        assert result.exit_code == 2

    def test_identities_suite_passes(self):
        result = run("verify", "--suite", "identities", "--limit", "300")
        assert result.exit_code == 0
        assert "euler-pentagonal-identity" in result.output

    def test_p33_suite_passes(self):
        result = run("verify", "--suite", "p33", "--limit", "2000")
        assert result.exit_code == 0

    def test_all_suite_small(self):
        result = run("verify", "--suite", "all", "--limit", "150")
        assert result.exit_code == 0
        assert "crank-rank-equivalence" in result.output

    def test_failing_report_exits_one(self, monkeypatch):
        from mexparity import cli
        from mexparity.verify import VerificationReport

        failing = VerificationReport("probe", "n < 9", 7, detail="synthetic")
        monkeypatch.setattr(cli.verify, "run_suite", lambda name, bound: [failing])
        result = run("verify", "--suite", "p11")
        assert result.exit_code == 1
        assert "7" in result.output


class TestScanCommand:
    def test_refuted_single_class(self):
        result = run("scan", "--t", "1", "--modulus", "1", "--limit", "100", "--format", "jsonl")
        assert result.exit_code == 0
        claims = [json.loads(line) for line in result.output.splitlines()]
        assert len(claims) == 1
        assert claims[0]["status"] == "refuted"
        assert claims[0]["witness"] == 2

    def test_t5_rediscovery(self):
        result = run("scan", "--t", "5", "--modulus", "10", "--limit", "2000", "--format", "jsonl")
        claims = [json.loads(line) for line in result.output.splitlines()]
        verified = {c["residue"] for c in claims if c["status"] == "verified-to-bound"}
        assert {2, 6} <= verified

    def test_t7_rediscovery(self):
        result = run("scan", "--t", "7", "--modulus", "14", "--limit", "2000", "--format", "jsonl")
        claims = [json.loads(line) for line in result.output.splitlines()]
        verified = {c["residue"] for c in claims if c["status"] == "verified-to-bound"}
        assert {7, 9, 13} <= verified

    def test_unchecked_classes_exit_zero(self):
        result = run("scan", "--t", "5", "--modulus", "10", "--limit", "3", "--format", "jsonl")
        assert result.exit_code == 0
        statuses = [json.loads(line)["status"] for line in result.output.splitlines()]
        assert statuses.count("unchecked") == 8

    def test_even_t_rejected(self):
        assert run("scan", "--t", "2", "--modulus", "4", "--limit", "100").exit_code == 2


OUT_COMMANDS = [("compute", "--t", "5"), ("verify", "--suite", "p11"),
                ("scan", "--t", "9", "--modulus", "18")]


class TestUsage:
    def test_no_subcommand_is_usage_error(self):
        assert run().exit_code == 2

    @pytest.fixture
    def no_build(self, monkeypatch):
        def fail(*a):
            raise AssertionError("something was built for an unusable --out")

        for module, name in [(genfun, "ptt_mod2_series"), (genfun, "ptt_series"),
                             (verify, "run_suite"), (verify, "scan_congruences")]:
            monkeypatch.setattr(module, name, fail)

    @pytest.mark.parametrize("args", OUT_COMMANDS)
    def test_out_directory_is_usage_error_before_any_build(self, no_build, tmp_path, args):
        result = run(*args, "--out", str(tmp_path))
        assert result.exit_code == 2
        assert "directory" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("args", OUT_COMMANDS)
    def test_out_in_missing_directory_is_usage_error_before_any_build(self, no_build, tmp_path, args):
        target = tmp_path / "missing" / "x.txt"
        result = run(*args, "--out", str(target))
        assert result.exit_code == 2
        assert "usage:" in result.output and "missing directory" in result.output
        assert "Traceback" not in result.output
        assert not target.parent.exists()

    @pytest.mark.parametrize("args", OUT_COMMANDS)
    def test_unopenable_out_is_usage_error_before_any_build(self, no_build, tmp_path, args):
        # both pass a check of the path's shape, but open() refuses them
        dangling = tmp_path / "link"
        dangling.symlink_to(tmp_path / "missing" / "x.txt")
        for target in (tmp_path / ("x" * 300), dangling):
            result = run(*args, "--out", str(target))
            assert result.exit_code == 2
            assert "usage:" in result.output
            assert "Traceback" not in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link"]

    def test_out_can_be_a_named_pipe(self, tmp_path):
        # --out is opened once: a second open would find the reader gone
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        args = ("compute", "--t", "3", "--limit", "5")
        child = subprocess.run([sys.executable, "-m", "mexparity.cli", *args, "--out", str(fifo)],
                               env=child_env(), capture_output=True, text=True, timeout=20)
        reader.join(timeout=20)
        assert child.returncode == 0
        assert got == [run(*args).output]

    def test_refused_request_keeps_an_existing_out(self, tmp_path):
        target = tmp_path / "x.txt"
        target.write_text("kept\n")
        result = run("verify", "--suite", "p11", "--limit", str(series.MOD2_ORDER_CEILING + 1),
                     "--out", str(target))
        assert result.exit_code == 2
        assert target.read_text() == "kept\n"

    def test_import_path_has_no_click_dataclasses_or_inspect(self):
        # each of the first three costs 10-20 ms at every start, json and csv
        # about 3 ms together, and only jsonl or csv records use those two;
        # only the modules that importing the CLI adds are counted, not what
        # site hooks load
        code = ("import sys; before = set(sys.modules); import mexparity.cli; "
                "print(sorted({'click', 'dataclasses', 'inspect', 'json', 'csv'} "
                "& set(sys.modules) - before))")
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, check=True).stdout
        assert out == "[]\n"


class TestCeilings:
    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--suite", "crank-rank"),
            ("verify", "--suite", "all"),
            ("scan", "--t", "9", "--modulus", "18"),
            ("compute", "--t", "5", "--mod2"),
        ],
    )
    def test_limit_past_the_mod2_ceiling_is_a_usage_error(self, monkeypatch, args):
        def no_build(*a):
            raise AssertionError("something was built past the ceiling")

        # partition_parity is the check for compute, and it would build R
        # with these two
        for module, name in [(genfun, "euler_product"), (series, "alternating_triangular"),
                             (series, "_gf2_mul"), (verify, "nonzero_indices"),
                             (verify, "ptt_mod2_series"), (verify, "_crank_rank_tallies")]:
            monkeypatch.setattr(module, name, no_build)
        result = run(*args, "--limit", str(series.MOD2_ORDER_CEILING + 1))
        assert result.exit_code == 2
        assert "exceeds the ceiling 100000000" in result.output
        assert "Traceback" not in result.output

    def test_scan_modulus_past_its_ceiling_is_a_usage_error(self, monkeypatch):
        def no_build(*a):
            raise AssertionError("a series was built past the modulus ceiling")

        monkeypatch.setattr(verify, "ptt_mod2_series", no_build)
        modulus = verify.SCAN_MODULUS_CEILING + 1
        result = run("scan", "--t", "9", "--modulus", str(modulus), "--limit", "100")
        assert result.exit_code == 2
        assert "exceeds the ceiling 1000000" in result.output
        assert "Traceback" not in result.output


class TestOutputFormats:
    def test_jsonl_and_csv_carry_identical_data(self):
        args = ("scan", "--t", "3", "--modulus", "4", "--limit", "500")
        jl = run(*args, "--format", "jsonl").output
        cv = run(*args, "--format", "csv").output
        json_rows = [json.loads(line) for line in jl.splitlines()]
        csv_rows = list(csv.DictReader(io.StringIO(cv)))
        assert len(json_rows) == len(csv_rows)
        for jrow, crow in zip(json_rows, csv_rows):
            for key, jval in jrow.items():
                cval = crow[key]
                if jval is None:
                    assert cval == ""
                elif isinstance(jval, bool):
                    assert cval == ("true" if jval else "false")
                else:
                    assert cval == str(jval)

    def test_reruns_are_byte_identical(self):
        args = ("verify", "--suite", "p11", "--limit", "400", "--format", "csv")
        assert run(*args).output == run(*args).output

    def test_out_file(self, tmp_path):
        target = tmp_path / "rows.csv"
        result = run("compute", "--t", "3", "--limit", "4", "--format", "csv", "--out", str(target))
        assert result.exit_code == 0
        assert result.output == ""
        with target.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["1", "1", "2", "2"]

    def test_table_has_header(self):
        result = run("compute", "--t", "1", "--limit", "2")
        header = result.output.splitlines()[0].split()
        assert header == ["t", "n", "value"]


# Chunk edges, and orders at which the n column widens: in the first rows
# (9 -> 10 rows), and inside a chunk (99 -> 101, 10**4 + 1 and 10**5 + 1).
STREAM_LIMITS = (1, 9, 10, 11, 99, 100, 101, 10**4 + 1, CHUNK - 1, CHUNK, CHUNK + 1,
                 2 * CHUNK + 3, 10**5 + 1)
FORMATS = ("table", "jsonl", "csv")


def render_records(t, series, fmt):
    """Reference bytes for `compute`: one dict per coefficient, rendered
    as a whole by `_render`."""
    coeffs = series.coeffs
    records = [{"t": t, "n": n, "value": coeffs[n]} for n in range(series.order)]
    return _render("coefficient", records, fmt)


def max_rss_kib(*args):
    proc = subprocess.Popen([sys.executable, "-m", "mexparity.cli", *args],
                            stdout=subprocess.DEVNULL, env=child_env())
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss


class TestStreamedCompute:
    @given(t=st.integers(0, 12).map(lambda k: 2 * k + 1), mod2=st.booleans(),
           limit=st.sampled_from(STREAM_LIMITS), fmt=st.sampled_from(FORMATS))
    @settings(max_examples=40)
    def test_stdout_equals_rendered_records(self, t, mod2, limit, fmt):
        assume(mod2 or limit <= genfun.INT_ORDER_CEILING)
        series = ptt_mod2_series(t, limit) if mod2 else ptt_series(t, limit)
        domain = "--mod2" if mod2 else "--int"
        result = run("compute", "--t", str(t), domain, "--limit", str(limit), "--format", fmt)
        assert result.exit_code == 0
        assert result.output == render_records(t, series, fmt)

    @pytest.mark.parametrize("limit", STREAM_LIMITS)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_integer_chunks_past_a_chunk_edge(self, fmt, limit):
        # --int is capped below CHUNK and ptt_series past it is slow, so
        # signed values that differ at every index stand in for it here
        series = TruncatedSeries([n * (-1) ** n for n in range(limit)])
        assert "".join(_coefficient_chunks(7, series, fmt)) == render_records(7, series, fmt)

    @given(t=st.integers(0, 100).map(lambda k: 2 * k + 1),
           order=st.sampled_from((10, 100, 1000, 10**4, CHUNK, 2 * CHUNK)).flatmap(
               lambda edge: st.integers(edge - 2, edge + 2)),
           fmt=st.sampled_from(FORMATS), rng=st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_random_bits_next_to_a_width_change(self, t, order, fmt, rng):
        # random bits differ from row to row, so a bit or a digit of n copied
        # one row or one column off shows; the real series' sparse bits may not
        bits = format(rng.getrandbits(order), f"0{order}b")
        series = TruncatedSeries(map(int, bits), MOD2)
        assert "".join(_coefficient_chunks(t, series, fmt)) == render_records(t, series, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_rows_stream_one_chunk_at_a_time(self, fmt):
        chunks = list(_coefficient_chunks(5, ptt_mod2_series(5, 2 * CHUNK + 3), fmt))
        header = [] if fmt == "jsonl" else [1]
        assert [chunk.count("\n") for chunk in chunks] == header + [CHUNK, CHUNK, 3]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_out_file_equals_stdout(self, tmp_path, fmt):
        args = ("compute", "--t", "5", "--limit", str(2 * CHUNK + 3), "--format", fmt)
        target = tmp_path / f"rows.{fmt}"
        assert run(*args, "--out", str(target)).output == ""
        assert target.read_bytes() == run(*args).stdout_bytes

    def test_memory_does_not_grow_with_the_limit(self):
        small = max_rss_kib("compute", "--t", "5", "--limit", "10000")
        large = max_rss_kib("compute", "--t", "5", "--limit", "1000000")
        assert large - small <= 32 * 1024


# One record set per kind, covering negative and multi-width ints, None,
# both bools, an empty string and a CSV cell that needs quoting.
GOLDEN_RECORDS = {
    "coefficient": [
        {"t": 3, "n": 0, "value": 1},
        {"t": 3, "n": 9, "value": -128},
        {"t": 3, "n": 10, "value": 7},
    ],
    "report": [
        {"theorem_id": "euler-pentagonal-identity", "range": "0 <= n < 50", "passed": True,
         "counterexample": None, "detail": ""},
        {"theorem_id": "p11-characterization", "range": "1 <= n < 50", "passed": False,
         "counterexample": 12, "detail": 'coefficients differ at q^12: 1 vs 0, "quoted"'},
    ],
    "claim": [
        {"t": 5, "modulus": 10, "residue": 2, "checked_bound": 9, "status": "verified",
         "witness": None},
        {"t": 5, "modulus": 10, "residue": 3, "checked_bound": 9, "status": "refuted",
         "witness": 0},
        {"t": 5, "modulus": 10, "residue": 9, "checked_bound": -1, "status": "unchecked",
         "witness": None},
    ],
}

GOLDEN_OUTPUT = {
    ("coefficient", "table"): (
        "t  n   value\n"
        "3  0   1\n"
        "3  9   -128\n"
        "3  10  7\n"
    ),
    ("coefficient", "jsonl"): (
        '{"kind":"coefficient","t":3,"n":0,"value":1}\n'
        '{"kind":"coefficient","t":3,"n":9,"value":-128}\n'
        '{"kind":"coefficient","t":3,"n":10,"value":7}\n'
    ),
    ("coefficient", "csv"): (
        "kind,t,n,value\n"
        "coefficient,3,0,1\n"
        "coefficient,3,9,-128\n"
        "coefficient,3,10,7\n"
    ),
    ("report", "table"): (
        "theorem_id                 range        passed  counterexample  detail\n"
        "euler-pentagonal-identity  0 <= n < 50  true    -\n"
        "p11-characterization       1 <= n < 50  false   12              "
        'coefficients differ at q^12: 1 vs 0, "quoted"\n'
    ),
    ("report", "jsonl"): (
        '{"kind":"report","theorem_id":"euler-pentagonal-identity","range":"0 <= n < 50",'
        '"passed":true,"counterexample":null,"detail":""}\n'
        '{"kind":"report","theorem_id":"p11-characterization","range":"1 <= n < 50",'
        '"passed":false,"counterexample":12,'
        '"detail":"coefficients differ at q^12: 1 vs 0, \\"quoted\\""}\n'
    ),
    ("report", "csv"): (
        "kind,theorem_id,range,passed,counterexample,detail\n"
        "report,euler-pentagonal-identity,0 <= n < 50,true,,\n"
        'report,p11-characterization,1 <= n < 50,false,12,'
        '"coefficients differ at q^12: 1 vs 0, ""quoted"""\n'
    ),
    ("claim", "table"): (
        "t  modulus  residue  checked_bound  status     witness\n"
        "5  10       2        9              verified   -\n"
        "5  10       3        9              refuted    0\n"
        "5  10       9        -1             unchecked  -\n"
    ),
    ("claim", "jsonl"): (
        '{"kind":"claim","t":5,"modulus":10,"residue":2,"checked_bound":9,'
        '"status":"verified","witness":null}\n'
        '{"kind":"claim","t":5,"modulus":10,"residue":3,"checked_bound":9,'
        '"status":"refuted","witness":0}\n'
        '{"kind":"claim","t":5,"modulus":10,"residue":9,"checked_bound":-1,'
        '"status":"unchecked","witness":null}\n'
    ),
    ("claim", "csv"): (
        "kind,t,modulus,residue,checked_bound,status,witness\n"
        "claim,5,10,2,9,verified,\n"
        "claim,5,10,3,9,refuted,0\n"
        "claim,5,10,9,-1,unchecked,\n"
    ),
}


class TestRenderGolden:
    @pytest.mark.parametrize("kind, fmt", sorted(GOLDEN_OUTPUT))
    def test_bytes_are_pinned(self, kind, fmt):
        assert _render(kind, GOLDEN_RECORDS[kind], fmt) == GOLDEN_OUTPUT[kind, fmt]
