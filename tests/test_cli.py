"""Command-line interface: formats, determinism, exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dipolesum
from dipolesum import cli, oracle
from dipolesum.cli import CSV_COLUMNS, main
from dipolesum.errors import (
    InvalidOrder,
    InvalidQuantumNumbers,
    InvalidTruncation,
    NoBoundState,
    NotConverged,
    NumericalFailure,
    QuadratureNotConverged,
)
from dipolesum.hydrogen import bound_bound_z2, bound_bound_z2_floats, bound_state, channel
from dipolesum.potentials import MESH_SIZES, mesh_spectrum, power_law, solve_bound


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

    def test_coulomb_rows_carry_error_bar(self, capsys):
        # each row states the estimate its gate used: |total - constructive| <= max(tol, est)
        code, out, _ = run_cli(capsys, "table", "--state", "2p", "--orders=-4..4",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 27 and all(r["route"] == "oracle" for r in rows)
        for r in rows:
            assert math.isfinite(r["estimated_error"]), (r["J"], r["channel"])
            gap = abs(r["total"] - float(Fraction(r["constructive"])))
            assert r["pass"] == (gap <= max(2e-4, r["estimated_error"])), (r["J"], r["channel"])
        code, out, _ = run_cli(capsys, "table", "--state", "1s", "--orders", "4..4",
                               "--format", "json")
        assert code == 0
        assert [(r["divergent"], r["estimated_error"], r["route"]) for r in json.loads(out)] == [
            (True, None, "oracle")]

    def test_csv_column_order(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--state", "1s", "--orders", "1..1",
                               "--format", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == CSV_COLUMNS

    def test_csv_prints_the_closed_form_of_potential_rows(self, capsys):
        # the value each row is gated against, as the text output prints it
        _, text, _ = run_cli(capsys, "table", "--potential", "gamma=2", "--orders", "0..2")
        code, out, _ = run_cli(capsys, "table", "--potential", "gamma=2", "--orders", "0..2",
                               "--format", "csv")
        assert code == 0
        closed = [float(row[CSV_COLUMNS.index("closed_form")])
                  for row in csv.reader(out.splitlines()[1:])]
        assert [f"closed={c:.6f}" for c in closed] == re.findall(r"closed=\S+", text)

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

    def test_potential_pass_is_json_boolean(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--potential", "gamma=2", "--format", "json")
        assert code == 0
        assert all(r["pass"] is True for r in json.loads(out))

    @pytest.mark.parametrize("argv", [
        ["gamma=1", "--l", "1", "--nodes", "1", "--orders", "0..4"],
        ["log", "--orders", "0..3"],
        ["gamma=1/2", "--orders", "0..3"],
        ["gamma=-1/2", "--orders", "0..2"],
    ])
    def test_potential_mesh_rows_pass(self, capsys, argv):
        code, out, _ = run_cli(capsys, "table", "--potential", *argv, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert all(r["pass"] is True and r["route"] == "mesh" for r in rows)
        assert all(r["estimated_error"] <= 1e-4 for r in rows)
        assert all(abs(r["total"] - r["reference"]) <= 1e-4 for r in rows)

    def test_potential_with_continuum_prints_total_only(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--potential", "gamma=-1/2", "--orders", "0..1",
                               "--format", "json")
        assert code == 0
        assert all(r["discrete"] is None and r["total"] is not None for r in json.loads(out))

    def test_potential_fourth_order_log_fails_honestly(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--potential", "log", "--orders", "0..4")
        assert code == 1
        assert [line.endswith("PASS") for line in out.splitlines()] == [True] * 4 + [False]

    @pytest.mark.parametrize("argv", [["coulomb"], ["gamma=-1"], ["coulomb", "--l", "1"],
                                      ["gamma=-1/2"]])
    def test_potential_divergent_orders_reported(self, capsys, argv):
        # Coulomb past J = 3 + l, and gamma=-1/2 at l = 0, J = 4 (<rho^-3>)
        top = 4 + ("--l" in argv)
        code, out, _ = run_cli(capsys, "table", "--potential", *argv,
                               "--orders", f"3..{top}")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == f"J=+{top}  total: div"
        assert all(line.endswith("PASS") for line in lines[:-1])

    def test_potential_convergent_fourth_order_keeps_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--potential", "gamma=-1/2", "--l", "1",
                               "--orders", "3..4", "--format", "json")
        assert code == 0
        row = json.loads(out)[-1]
        assert row["pass"] is True and "divergent" not in row
        assert row["reference"] == pytest.approx(1.260834, abs=1e-6)

    def test_potential_text_row_shape(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--potential", "gamma=2", "--orders", "0..4")
        assert code == 0
        shape = re.compile(r"J=\+(\d)  total: discrete=(\d+\.\d{6}) continuum=      - "
                           r"total=(\d+\.\d{6}) constructive=      - closed=(\d+\.\d{6}) PASS")
        rows = [shape.fullmatch(line) for line in out.splitlines()]
        assert all(rows) and len(rows) == 5
        # the oscillator's S_J = 2^J / 2 exactly
        assert [m.group(2, 3, 4) for m in rows] == [(f"{2**J / 2:.6f}",) * 3 for J in range(5)]

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

    @pytest.mark.parametrize("argv", [
        ["table", "--state", "1s", "--nmax", "0"],
        ["table", "--state", "1s", "--nmax", "-3"],
        ["table", "--state", "2p", "--nmax", "2"],
        ["verify", "--suite", "paper-tables", "--nmax", "1"],
        ["verify", "--suite", "paper-tables", "--nmax", "2"],
        ["verify", "--suite", "all", "--nmax", "2"],
        ["table", "--state", "1s", "--tol", "nan"],
        ["table", "--state", "1s", "--tol", "-1"],
        ["table", "--potential", "gamma=2", "--tol", "inf"],
        ["verify", "--suite", "paper-tables", "--tol", "nan"],
        ["verify", "--suite", "paper-tables", "--tol", "-1"]])
    def test_out_of_range_nmax_and_tol_exit_2(self, capsys, argv):
        # --nmax must exceed the state's n (2 for the paper tables, whose deepest
        # state is 2p); --tol must be finite and non-negative
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


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
        (NumericalFailure("grid does not reach the asymptotic region"), 1),
        (NoBoundState("requested state above the continuum threshold"), 1),
        (ValueError("grid overlap requires a shared grid"), 1),
        (RuntimeError("unexpected\nsecond line"), 1),
        (InvalidQuantumNumbers("(n, l) = (2, 2)"), 2),
        (InvalidOrder("order outside the range"), 2),
        (InvalidTruncation("n_max must exceed the state's n = 2, not 2"), 2),
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

    @pytest.mark.parametrize("argv", [
        ["matrix", "--state", "2p", "--to-n", "3", "--channel", "plus", "--format", "xml"],
        ["table", "--potential", "log", "--nodes", "-1"],
        [],
        ["table", "--state", "1s", "--bogus"],
        ["--config"],
        ["table", "--potential", "gamma=1e400"],        # no finite float
        ["potential", "--potential", "gamma=1e-400"],   # rounds to 0.0
    ])
    def test_argparse_errors_are_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    # rho^g overflows a float on the state's grid: a usage error, and the
    # "error" filter turns any numpy warning on the way into a failure
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["potential", "--potential", "gamma=1e300"],
        ["potential", "--potential", "gamma=700"],
        ["table", "--potential", "gamma=300", "--orders", "0..1"],
    ])
    def test_overflowing_exponent_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    # rho^g/g = 1/g + ln rho + O(g ln^2 rho): a small exponent solves on the log
    # potential's extent (the guess's turning point, about 3^(1/g), overflowed a
    # float), and one too small for the solver to resolve its levels from 1/g is
    # a usage error
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma,code", [("0.001", 0), ("1e-10", 2), ("1e-300", 2)])
    def test_small_exponent(self, capsys, gamma, code):
        got, out, err = run_cli(capsys, "potential", "--potential", f"gamma={gamma}", "--format", "json")
        assert got == code
        if code == 0:
            assert err == ""
            # the log potential's ground level is 0.69776
            assert json.loads(out)["energy"] - 1000.0 == pytest.approx(0.6978, abs=1e-3)
        else:
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: ") and "resolved" in err, err

    @pytest.mark.parametrize("argv", [["--help"], ["table", "--help"]])
    def test_help_prints_usage_and_exits_0(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: dipolesum")
        assert err == ""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_keeps_the_verdict(self, unbuffered):
        # A one-page pipe cannot take the 4.8 kB table, so the reader reads one
        # line and closes the pipe while the command is still writing.
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("setting the pipe size is Linux-only")
        read_fd, write_fd = os.pipe()
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        src = str(Path(dipolesum.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "dipolesum", "table", "--state", "1s",
                                 "--orders=-13..3", "--format", "json"],
                                stdout=write_fd, stderr=subprocess.PIPE, env=env)
        os.close(write_fd)
        with open(read_fd, "rb", buffering=0) as reader:
            first = reader.readline()
        _, err = proc.communicate(timeout=300)
        assert first == b"[\n"
        assert err == b""
        assert proc.returncode == 0


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

    @pytest.mark.parametrize("argv", [["gamma=1/2", "--nodes", "5"],
                                      ["gamma=1/2", "--l", "1", "--nodes", "4"],
                                      ["gamma=1/2", "--nodes", "6"], ["gamma=3", "--nodes", "1"],
                                      ["gamma=-7/4", "--nodes", "4"],
                                      ["gamma=4", "--nodes", "0"], ["gamma=1/4", "--nodes", "3"]])
    def test_level_bracketed_from_mesh(self, capsys, argv):
        # each level solves inside a bracket around its mesh level, with that
        # level's node count (gamma=-7/4: the mesh level is 43 % too shallow;
        # gamma=4 and 1/4 solve on a grid cut where Numerov's f stays positive)
        code, out, _ = run_cli(capsys, "potential", "--potential", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["nodes"] == int(argv[-1])

    def test_steep_confining_exponents(self, capsys):
        # on the uncapped extent (about 15) the mesh diagonal reached 15^g / g and
        # the low mesh levels were lost: gamma=20 found no classical region and
        # gamma=40 reported 4.49e16
        energies = []
        for g in (20, 30, 40):
            code, out, _ = run_cli(capsys, "potential", "--potential", f"gamma={g}", "--format", "json")
            assert code == 0, g
            st = solve_bound(power_law(g), 0, 0)
            energy = json.loads(out)["energy"]
            assert energy == st.energy
            mesh = mesh_spectrum(power_law(g), 0, MESH_SIZES[-1], st.grid[-1])[0][0]
            assert energy == pytest.approx(mesh, rel=1e-8, abs=0), g
            energies.append(energy)
        # rho^g/g tends to a hard wall at rho = 1, whose ground level is pi^2/2
        assert energies[0] < energies[1] < energies[2] < math.pi**2 / 2

    def test_steep_negative_power_excited_level(self, capsys):
        code, out, _ = run_cli(capsys, "potential", "--potential", "gamma=-3/2", "--nodes", "1",
                               "--format", "json")
        assert code == 0
        wide = solve_bound(power_law(Fraction(-3, 2)), 0, 1, rho_max=300.0)
        assert json.loads(out)["energy"] == pytest.approx(wide.energy, rel=1e-9)


_POTENTIALS = st.one_of(
    st.fractions(min_value=-2, max_value=4, max_denominator=4)
      .filter(lambda g: g > -2 and g != 0).map(lambda g: f"gamma={g}"),
    st.sampled_from(["coulomb", "log"]))


def _run_in_process(argv):
    """Run the CLI and check what every command keeps of the exit-code contract:
    no traceback, exit 1 only with FAIL rows or one "error:" line, and a usage
    error (exit 2) as one "error:" line.  Returns (exit code, stdout)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err, argv
    errors = err.splitlines()
    one_error = len(errors) == 1 and errors[0].startswith("error: ")
    if code == 1:
        assert one_error or any(line.endswith("FAIL") for line in out.splitlines()), argv
    elif code == 2:
        assert one_error, argv
    return code, out


class TestPotentialFuzz:
    @settings(max_examples=25, deadline=None)
    @given(command=st.sampled_from([["potential"], ["table", "--orders", "0..4"]]),
           potential=_POTENTIALS, l=st.integers(0, 3), nodes=st.integers(0, 12))
    def test_exit_contract(self, command, potential, l, nodes):
        argv = [command[0], "--potential", potential, *command[1:],
                "--l", str(l), "--nodes", str(nodes)]
        code, _ = _run_in_process(argv)
        assert code in (0, 1), argv


# every Coulomb state selector with n <= 5
_STATES = [(n, l) for n in range(1, 6) for l in range(n)]


class TestCoulombFuzz:
    @settings(max_examples=50, deadline=None)
    @given(state=st.sampled_from(_STATES), to_n=st.integers(1, 3000),
           direction=st.sampled_from(["plus", "minus"]))
    def test_matrix_exit_contract(self, state, to_n, direction):
        n, l = state
        lp = l + 1 if direction == "plus" else l - 1
        code, out = _run_in_process(["matrix", "--state", f"{n}{'spdfg'[l]}", "--to-n", str(to_n),
                                     "--channel", direction, "--format", "json"])
        # a usage error exactly when (to_n, l') is no dipole partner; else the
        # exact element, which the float finish matches
        assert code == (2 if lp < 0 or to_n < lp + 1 else 0)
        if code == 0:
            want, = bound_bound_z2_floats(bound_state(n, l), channel(direction, l), to_n, to_n)
            assert json.loads(out)["z2_float"] == pytest.approx(want, rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(state=st.sampled_from(_STATES), lo=st.integers(-13, 9), width=st.integers(-1, 3),
           direction=st.sampled_from(["both", "plus", "minus", "total"]))
    def test_table_exit_contract(self, state, lo, width, direction):
        n, l = state
        code, _ = _run_in_process(["table", "--state", f"{n}{'spdfg'[l]}",
                                   f"--orders={lo}..{lo + width}", "--channel", direction])
        # usage errors: an empty order range and the minus channel of an s state
        assert (code == 2) == (width < 0 or (l == 0 and direction == "minus"))


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


# Per subcommand: the flags it requires, and for each config key values that
# argparse accepts (a later check may still reject some: nmax=1, tol=nan).
_CONFIG_KEYS = {
    "table": ([], {"state": ["1s", "2p", "3d", "5s"], "potential": ["gamma=2", "coulomb"],
                   "nodes": ["0", "1"], "l": ["0", "1"],
                   "orders": ["0..1", "-2..0", "3..4", "2..1"],
                   "channel": ["plus", "minus", "total", "both"], "nmax": ["1", "3", "40"],
                   "tol": ["1e-3", "0", "-1", "nan"], "format": ["text", "json", "csv"]}),
    "verify": ([], {"suite": ["paper-tables", "equivalences", "contour"],
                    "tol": ["1e-3", "-1"], "nmax": ["2", "40"], "format": ["text", "json"]}),
    "matrix": (["state", "to-n", "channel"],
               {"state": ["1s", "2p", "3d"], "to-n": ["1", "3", "40"],
                "channel": ["plus", "minus"], "format": ["text", "json"]}),
    "kramers": (["state"], {"state": ["1s", "2p", "3d"], "orders": ["0..3", "-1..1", "1..0"],
                            "format": ["text", "json"]}),
    "potential": (["potential"], {"potential": ["gamma=2", "coulomb"], "l": ["0", "1"],
                                  "nodes": ["0", "1"], "format": ["text", "json"]}),
}
# digit-free, so a junk value never asks for a costly level or order
_JUNK = st.one_of(st.sampled_from(["", "xml", "-1", "1.5", "0..", "1s s", "gamma=x", "inf"]),
                  st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                        blacklist_categories=["Nd"]), max_size=6))
_UNKNOWN_KEYS = ["foo", "Format", "nmax2", "", "config", "command", "help", "to_nn"]
_NOISE_LINES = ["", "   ", "# nmax=-5", "  # state=9z", "; not a pair", "[table]", "state"]


def _capture(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestConfigFuzz:
    @settings(max_examples=30, deadline=None)
    @given(command=st.sampled_from(sorted(_CONFIG_KEYS)), inline=st.booleans(), data=st.data())
    def test_exit_contract_and_flag_precedence(self, tmp_path_factory, command, inline, data):
        required, pools = _CONFIG_KEYS[command]
        extra = data.draw(st.sets(st.sampled_from(sorted(pools)), max_size=2))
        flags = {k: data.draw(st.sampled_from(pools[k])) for k in sorted({*required, *extra})}
        lines = []   # (key it sets or None, text)
        for _ in range(data.draw(st.integers(0, 8))):
            kind = data.draw(st.sampled_from(["key", "unknown", "noise"]))
            if kind == "noise":
                lines.append((None, data.draw(st.sampled_from(_NOISE_LINES))))
                continue
            key = data.draw(st.sampled_from(sorted(pools) if kind == "key" else _UNKNOWN_KEYS))
            spelling = data.draw(st.sampled_from([key, f"  {key} ", key.replace("-", "_")]))
            # a key that a flag also sets gets a value argparse accepts, so
            # that only precedence decides which one is used
            values = st.sampled_from(pools[key]) if key in pools else _JUNK
            value = data.draw(values if key in flags else st.one_of(values, _JUNK))
            sep = data.draw(st.sampled_from(["=", " = "]))
            lines.append((key if key in pools else None, f"{spelling}{sep}{value}"))
        folder = tmp_path_factory.mktemp("cfg")

        def run(config_lines):
            path = folder / f"{len(config_lines)}.cfg"
            path.write_text("".join(text + "\n" for _, text in config_lines))
            opt = [f"--config={path}"] if inline else ["--config", str(path)]
            return _capture([*opt, command, *(f"--{k}={v}" for k, v in flags.items())])

        code, out, err = run(lines)
        assert code in (0, 1, 2), (lines, flags)
        assert "Traceback" not in out + err
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (lines, err)
        if flags:
            # with the flagged keys dropped from the file, nothing changes
            kept = [line for line in lines if line[0] not in flags]
            if len(kept) < len(lines):
                assert run(kept) == (code, out, err), (lines, flags)


class TestVerify:
    @pytest.mark.parametrize("suite", ["identities", "equivalences", "contour"])
    def test_tol_rejected_by_fixed_gate_suites(self, capsys, suite):
        # these suites have fixed gates: a --tol they would ignore is a usage error
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--tol", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_equivalences_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "equivalences",
                               "--format", "json")
        assert code == 0
        checks = json.loads(out)
        assert all(c["pass"] for c in checks)
        names = " ".join(c["check"] for c in checks)
        assert "negative control" in names

    def test_contour_suite_reads_report_gates(self, monkeypatch):
        # a residue term above 1 passes on the report's relative gate
        rep = oracle.ContourReport(J=0, residue_rows=[(2, 2.0 + 1.5e-6, 2.0)],
                                   radius_stability=2e-8, line_integral=0.0,
                                   continuum_reference=0.0)
        monkeypatch.setattr(cli, "contour_check", lambda J: rep)
        checks = cli.verify_contour()
        assert [c["pass"] for c in checks[:3]] == [True, True, False]

    def test_contour_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "contour", "--format", "json")
        assert code == 0
        assert all(c["pass"] for c in json.loads(out))
