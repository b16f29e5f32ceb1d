"""Command-line interface: formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dipolesum
from dipolesum import cli
from dipolesum.cli import CSV_COLUMNS, main
from dipolesum.errors import (
    GridTooShort,
    InvalidOrder,
    InvalidQuantumNumbers,
    NoBoundState,
    NotConverged,
    QuadratureNotConverged,
)
from dipolesum.hydrogen import bound_bound_z2, bound_state, channel
from dipolesum.potentials import power_law, solve_bound


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_ground_state_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--state", "1s", "--orders", "0..1",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2
        row = rows[0]
        assert row["state"] == {"n": 1, "l": 0}
        assert set(row) >= {"state", "J", "channel", "discrete", "continuum",
                            "total", "constructive", "closed_form", "pass"}
        assert row["channel"] == "plus"
        assert row["constructive"] == "1/1"
        assert isinstance(row["discrete"], float)
        assert row["pass"] is True

    def test_csv_column_order(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--state", "1s", "--orders", "1..1",
                               "--format", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == CSV_COLUMNS

    def test_divergent_rendered_not_errored(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--state", "1s", "--orders", "4..4")
        assert code == 0
        assert "div" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "table", "--state", "1s", "--orders", "0..2",
                             "--format", "json")
        _, out2, _ = run_cli(capsys, "table", "--state", "1s", "--orders", "0..2",
                             "--format", "json")
        assert out1 == out2

    def test_oscillator_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--potential", "gamma=2", "--nodes", "0",
                               "--orders", "0..4", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        trk = next(r for r in rows if r["J"] == 1)
        assert trk["discrete"] == pytest.approx(1.0, abs=1e-4)
        assert all(r["pass"] for r in rows)

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "table", "--state", "zz")
        assert code == 2

    def test_missing_selector_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "table")
        assert code == 2

    @pytest.mark.parametrize("command", ["table", "kramers"])
    def test_empty_order_range_exit_2(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--state", "1s", "--orders", "3..1")
        assert code == 2
        assert out == ""
        assert err.strip() == "error: empty order range '3..1'"


class TestMatrix:
    def test_exact_rational_emitted(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--state", "1s", "--to-n", "2",
                               "--channel", "plus", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["z2"] == "32768/59049"

    def test_full_digits_past_int_str_limit(self, capsys):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        code, out, _ = run_cli(capsys, "matrix", "--state", "2p", "--to-n", "2000",
                               "--channel", "minus")
        assert code == 0
        if limit:
            assert sys.get_int_max_str_digits() == limit   # restored after printing
            sys.set_int_max_str_digits(0)
        try:
            text = out.split(" = ")[1]
            assert len(text) > 5000
            assert Fraction(text) == bound_bound_z2(bound_state(2, 1), 2000, channel("minus", 1))
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)


class TestExitCodes:
    @pytest.mark.parametrize("exc,code", [
        (QuadratureNotConverged("panel refinement is not contracting"), 1),
        (NotConverged("eigenvalue refinement did not converge"), 1),
        (GridTooShort("normalization points disagree"), 1),
        (NoBoundState("requested state above the continuum threshold"), 1),
        (ValueError("grid overlap requires a shared grid"), 1),
        (RuntimeError("unexpected\nsecond line"), 1),
        (InvalidQuantumNumbers("(n, l) = (2, 2)"), 2),
        (InvalidOrder("order outside the range"), 2),
    ])
    def test_error_kinds(self, capsys, monkeypatch, exc, code):
        def boom(args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_matrix", boom)
        got, out, err = run_cli(capsys, "matrix", "--state", "1s", "--to-n", "2",
                                "--channel", "plus")
        assert got == code
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_parse_errors_exit_2(self, capsys, tmp_path):
        for argv in (["table", "--potential", "gamma=x"],
                     ["table", "--state", "1s", "--orders", "a..b"],
                     ["potential", "--potential", "gamma=2", "--nodes", "-1"],
                     ["--config", str(tmp_path / "missing.cfg"), "table", "--state", "1s"]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert "Traceback" not in err


class TestKramers:
    def test_exact_state_residuals(self, capsys):
        code, out, _ = run_cli(capsys, "kramers", "--state", "3d",
                               "--orders", "0..3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert all(r["pass"] for r in rows)


class TestPotentialCommand:
    def test_oscillator_diagnostics(self, capsys):
        code, out, _ = run_cli(capsys, "potential", "--potential", "gamma=2",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["energy"] == pytest.approx(1.5, abs=1e-8)
        assert abs(data["virial_residual"]) < 1e-6
        assert data["force_rule"] == pytest.approx(data["force_rule_expected"], abs=1e-5)

    def test_no_overflow_warning_in_node_count(self):
        # the sweep's node test must not overflow on neighbours of ~1e250
        env = dict(os.environ)
        src = str(Path(dipolesum.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "dipolesum",
                               "potential", "--potential", "gamma=1/2", "--nodes", "3"],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "nodes: 3" in proc.stdout

    def test_steep_negative_power_excited_level(self, capsys):
        code, out, _ = run_cli(capsys, "potential", "--potential", "gamma=-3/2", "--nodes", "1",
                               "--format", "json")
        assert code == 0
        wide = solve_bound(power_law(Fraction(-3, 2)), 0, 1, rho_max=300.0)
        assert json.loads(out)["energy"] == pytest.approx(wide.energy, rel=1e-9)


class TestConfigFile:
    def test_config_overrides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("orders=1..1\nformat=json\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "table", "--state", "1s")
        assert code == 0
        rows = json.loads(out)
        assert [r["J"] for r in rows] == [1]

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("orders=1..1\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "table", "--state", "1s",
                               "--orders", "2..2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["J"] for r in rows] == [2]

    @pytest.mark.parametrize("line,argv", [
        ("nodes=-1", ["potential", "--potential", "gamma=2"]),
        ("format=xml", ["table", "--state", "1s", "--orders", "0..0"]),
    ])
    def test_invalid_config_value_exit_2(self, capsys, tmp_path, line, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags,nodes", [([], 1), (["--nodes", "0"], 0)])
    def test_typed_config_value_and_flag_override(self, capsys, tmp_path, flags, nodes):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nodes=1\nformat=json\n")
        code, out, _ = run_cli(capsys, f"--config={cfg}", "potential", "--potential", "gamma=2",
                               *flags)
        assert code == 0
        data = json.loads(out)
        assert data["nodes"] == nodes
        assert data["energy"] == pytest.approx(1.5 + 2 * nodes, abs=1e-8)


class TestVerify:
    def test_equivalences_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "equivalences",
                               "--format", "json")
        assert code == 0
        checks = json.loads(out)
        assert all(c["pass"] for c in checks)
        names = " ".join(c["check"] for c in checks)
        assert "negative control" in names

    def test_contour_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "contour", "--format", "json")
        assert code == 0
        assert all(c["pass"] for c in json.loads(out))
