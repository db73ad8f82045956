import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetacontour.reporting as reporting
from zetacontour import zero_finder
from zetacontour.cli import build_parser, main
from zetacontour.errors import DomainError
from zetacontour.precision import FAST_CONFIG
from zetacontour.reporting import (
    SUITES,
    RunConfig,
    ensure_table,
    export_report,
    load_report_json,
    run_suite,
)
from zetacontour.zero_finder import load_table, save_table


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def table_path(tmp_path, table500):
    p = tmp_path / "zeros.zctab"
    save_table(table500, p)
    return str(p)


class TestRunConfig:
    def test_round_trip_and_hash(self):
        cfg = RunConfig(zero_table_path="x.zctab")
        back = RunConfig.from_json_dict(cfg.to_json_dict())
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()
        # a config written when RunConfig still had ``threads`` reads the same
        legacy = RunConfig.from_json_dict(dict(cfg.to_json_dict(), threads=2))
        assert legacy == cfg
        assert legacy.config_hash() == cfg.config_hash() == (
            "b9b19d1609a683de8453aec9d66c9cc784e4c1731c3a5fdb6bfc7227832beaf8")

    def test_legacy_truncation_and_params_keys_ignored(self):
        cfg = RunConfig(precision=FAST_CONFIG, zero_table_path="x.zctab")
        legacy = {"precision": {"working_digits": 15, "target_abs_tol": 1e-11,
                                "euler_maclaurin_terms": 14, "cutoff_N": 16},
                  "zero_table_path": "x.zctab", "params": {"T": "30"},
                  "threads": 2}
        assert RunConfig.from_json_dict(legacy) == cfg


class TestTableResolution:
    def test_short_file_is_rebuilt_and_saved(self, tmp_path, table120):
        path = tmp_path / "short.zctab"
        save_table(table120, path)
        table = ensure_table(str(path), 130.0)
        assert table.max_height >= 130.0
        assert load_table(path) == table

    def test_no_path_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        saved = []
        monkeypatch.setattr(reporting, "save_table", lambda *a: saved.append(a))
        table = ensure_table(None, 40.0)
        assert table.max_height == 40.0 and len(table) == 6
        assert saved == [] and list(tmp_path.iterdir()) == []

    def test_suite_all_reads_one_table(self, tmp_path, big_table, monkeypatch):
        path = tmp_path / "big.zctab"
        save_table(big_table, path)
        loads, builds, seen = [], [], []
        real_load = reporting.load_table
        monkeypatch.setattr(reporting, "load_table",
                            lambda p: loads.append(p) or real_load(p))
        monkeypatch.setattr(reporting, "find_zeros_up_to",
                            lambda *a, **k: builds.append(a))
        # stub bodies record the table they are handed; heights stay real
        for name, (_, height) in list(SUITES.items()):
            monkeypatch.setitem(SUITES, name,
                                (lambda cfg, table: seen.append(table) or [], height))
        run_suite("all", RunConfig(zero_table_path=str(path)))
        assert len(loads) == 1 and builds == []
        assert len(seen) == len(SUITES) and all(t is seen[0] for t in seen)
        assert seen[0].max_height >= max(h for _, h in SUITES.values())


class TestReports:
    def test_suite_runs_and_exports(self, tmp_path):
        cfg = RunConfig()
        rep = run_suite("telescoping", cfg)
        assert rep.ok
        assert rep.config_hash == cfg.config_hash()
        jpath = export_report(rep, "json", tmp_path / "r.json")
        cpath = export_report(rep, "csv", tmp_path / "r.csv")
        loaded = load_report_json(jpath)
        assert loaded == rep
        rows = Path(cpath).read_text().strip().split("\n")
        assert len(rows) == len(rep.checks) + 1

    def test_export_idempotent(self, tmp_path):
        rep = run_suite("digamma-trend", RunConfig())
        a = export_report(rep, "json", tmp_path / "a.json").read_bytes()
        b = export_report(rep, "json", tmp_path / "b.json").read_bytes()
        assert a == b
        # re-export of the loaded report is byte-identical too
        again = export_report(load_report_json(tmp_path / "a.json"), "json",
                              tmp_path / "c.json").read_bytes()
        assert again == a

    def test_measured_only_has_no_passfail(self, table_path, monkeypatch):
        # paper-claims records must never carry pass/fail
        cfg = RunConfig(zero_table_path=table_path)
        rep = run_suite("paper-claims", cfg)
        assert all(c.passed is None for c in rep.checks)
        assert rep.ok  # measured-only records cannot fail a suite

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("nope", RunConfig())

    def test_zeros_suite_reads_the_resolved_table(self, table_path, monkeypatch):
        def no_build(*a, **k):
            raise AssertionError("the zeros suite built a table")

        monkeypatch.setattr(reporting, "find_zeros_up_to", no_build)
        monkeypatch.setattr(zero_finder, "find_zeros_up_to", no_build)
        assert run_suite("zeros", RunConfig(zero_table_path=table_path)).ok

    @pytest.mark.parametrize("name", ["identities", "zeros", "argument-principle",
                                      "cross-module", "riccati"])
    def test_light_suites_pass(self, name, table_path):
        rep = run_suite(name, RunConfig(zero_table_path=table_path))
        assert rep.ok, [c.name for c in rep.failed]


class TestCli:
    def test_zeros_roundtrip(self, tmp_path):
        out = tmp_path / "t.zctab"
        assert main(["zeros", "--up-to", "40", "--out", str(out)]) == 0
        table = load_table(out)
        assert len(table.gammas) == 6  # N(40) = 6

    def test_integrate_json_contract(self, tmp_path, table_path):
        out = tmp_path / "rep.json"
        rc = main(["integrate", "--alpha", "0.6", "--beta", "0.8", "--T", "30",
                   "--zeros", table_path, "--out", str(out)])
        assert rc == 0
        d = json.loads(out.read_text())
        for edge in ("da", "ab", "bc", "cd"):
            assert set(d["edges"][edge]) == {"re", "im", "err"}
        assert "winding_raw" in d and "winding" in d and "total" in d
        assert d["winding"] == 0

    def test_integrate_general_box(self, tmp_path, table_path):
        out = tmp_path / "rep.json"
        rc = main(["integrate", "--general", "0.9", "1.1", "-1", "1",
                   "--zeros", table_path, "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["winding"] == -1

    def test_telescope_csv(self, tmp_path, table_path):
        out = tmp_path / "trace.csv"
        rc = main(["telescope", "--alpha", "0.6", "--beta", "0.8", "--T", "30",
                   "--N", "3", "--zeros", table_path, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("k,gamma_k,h1,h2,f,g,wrap_f,wrap_g,step_residual,"
                            "P,R,p_gap,r_gap,abs_x_over_u")
        assert len(lines) == 4

    def test_telescope_writes_N_rows_past_a_short_table(self, tmp_path, table120):
        # a table to 120 holds fewer than 100 zeros; the trace asks for more
        path = tmp_path / "short.zctab"
        save_table(table120, path)
        out = tmp_path / "trace.csv"
        rc = main(["telescope", "--alpha", "0.6", "--beta", "0.8", "--T", "30",
                   "--N", "100", "--zeros", str(path), "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 100
        assert all(len(r.split(",")) == 14 for r in rows)
        assert len(load_table(path)) >= 100

    def test_probe_csv(self, tmp_path, table_path):
        out = tmp_path / "scan.csv"
        rc = main(["probe", "--tau", "0:1:0.5", "--K", "0.6:0.8",
                   "--U", "0", "--V", "-3.14159265", "--eps", "0.5",
                   "--zeros", table_path, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "tau,sup_distance,skipped_flag"
        assert len(lines) == 4

    def test_probe_with_every_shift_skipped(self, tmp_path, table_path, capsys):
        # the one shift puts the segment 5e-4 from the first zero
        out = tmp_path / "scan.csv"
        rc = main(["probe", "--tau", "14.134725141734693:14.134725141734693:1",
                   "--K", "0.5005:0.8", "--zeros", table_path, "--out", str(out)])
        assert rc == 0
        assert "scanned 0 shifts (skipped 1)" in capsys.readouterr().out
        lines = out.read_text().strip().split("\n")
        assert lines[1:] == ["14.134725141734693,,1"]

    def test_malformed_table_exits_2(self, tmp_path, capsys):
        for body, line in ((b"zctab v1\naccuracy=0\nmax_height=30.0\n", 2),
                           (b"zctab v1\naccuracy=1e-09\nmax_height=30.0\n"
                            b"21.02204\n14.134725\n", 5)):
            p = tmp_path / "bad.zctab"
            p.write_bytes(body + f"sha256={hashlib.sha256(body).hexdigest()}\n"
                          .encode())
            rc = main(["integrate", "--general", "0.4", "0.6", "14", "14.3",
                       "--zeros", str(p)])
            assert rc == 2
            assert f"error: line {line}:" in capsys.readouterr().err

    def test_suite_exit_code_and_export(self, tmp_path):
        out = tmp_path / "suite.json"
        rc = main(["suite", "telescoping", "--out", str(out)])
        assert rc == 0
        rep = load_report_json(out)
        assert rep.suite == "telescoping"
        csv_out = tmp_path / "suite.csv"
        rc = main(["export", "--report", str(out), "--format", "csv",
                   "--out", str(csv_out)])
        assert rc == 0
        assert csv_out.read_text().startswith("name,kind,measured")

    def test_env_var_default_table(self, tmp_path, table_path, monkeypatch):
        monkeypatch.setenv("ZC_ZERO_TABLE", table_path)
        out = tmp_path / "rep.json"
        rc = main(["integrate", "--alpha", "0.6", "--beta", "0.8", "--T", "30",
                   "--out", str(out)])
        assert rc == 0

    def test_integrate_through_a_mirrored_zero_refuses_fast(self, tmp_path):
        # the box's lower edge runs through -gamma_1; screening it needs the
        # zeros down to |y0|, not only up to y1
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("ZC_ZERO_TABLE", None)
        proc = subprocess.run(
            [sys.executable, "-m", "zetacontour.cli", "integrate", "--general",
             "0.4", "0.6", "-14.134725141734693", "-13"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "singularity" in proc.stderr

    def test_error_exit_code(self, tmp_path, table_path):
        rc = main(["integrate", "--alpha", "0.2", "--beta", "0.8", "--T", "30",
                   "--zeros", table_path, "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {name: {o for a in p._actions for o in a.option_strings}
                   for name, p in sub.choices.items()}
        common = {"-h", "--help"}
        table = common | {"--zeros", "--out"}
        box = table | {"--alpha", "--beta", "--T", "--general", "--quad-tol"}
        assert options == {
            "zeros": table | {"--up-to"},
            "integrate": box,
            "decompose": box | {"--eps2"},
            "telescope": table | {"--alpha", "--beta", "--T", "--N"},
            "probe": table | {"--tau", "--K", "--U", "--V", "--eps",
                              "--samples", "--t-offset"},
            "suite": table | {"--precision-digits", "--tol"},
            "export": common | {"--report", "--format", "--out"},
        }

    def test_export_needs_out(self, tmp_path):
        report = tmp_path / "suite.json"
        assert main(["suite", "telescoping", "--out", str(report)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["export", "--report", str(report)])
        assert exc.value.code == 2

    def test_suite_refuses_the_double_engine(self):
        assert main(["suite", "telescoping", "--precision-digits", "15"]) == 2
        with pytest.raises(DomainError):
            run_suite("telescoping", RunConfig(precision=FAST_CONFIG))

    def test_failing_check_exit_code(self, monkeypatch):
        import zetacontour.reporting as reporting
        from zetacontour.reporting import CheckRecord

        def always_fails(cfg, table=None):
            return [CheckRecord(name="forced", kind="pass_fail", measured=1.0,
                                bound=0.0, passed=False)]

        monkeypatch.setitem(reporting.SUITES, "forced", (always_fails, 0.0))
        assert main(["suite", "forced"]) == 1


def test_measurement_script_starts():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_paper_measurements.py"),
         "--help"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "--out-dir" in proc.stdout


def test_snapshot_script_starts():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "snapshot_outputs.py"), "--help"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "--out-dir" in proc.stdout and "--zeros" in proc.stdout


def test_compare_snapshots_script_starts():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_snapshots.py"), "--help"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "DIR_A" in proc.stdout and "DIR_B" in proc.stdout
