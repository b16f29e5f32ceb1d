"""Command-line front end.

Subcommands:
    table      recompute a sum-rule table (brute-force splits vs exact values)
    verify     run the verification suites (paper-tables, identities,
               equivalences, contour, all)
    matrix     query a single squared dipole matrix element
    kramers    identity residuals for a state
    potential  bound-state solver diagnostics

Exit codes: 0 all checks pass, 1 verification or numerical failure (or any
unexpected error, reported on one stderr line), 2 usage error.  Exact
rationals are emitted as full "p/q" strings, however many digits they have;
output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import oracle, potentials
from .errors import DipoleSumError, DivergentExpectation, DivergentSumRule, NumericalFailure
from .hydrogen import bound_bound_z2, bound_state, channel
from .ladder import family
from .oracle import N_MAX, contour_check, max_convergent_order
from .potentials import (COULOMB, LOG, MESH_SIZES, GridFunction, _default_rho_max,
                         grid_expectation, mesh_sum_rules, negative_sum_rules, power_law,
                         solve_bound)
from .sumrules import (
    FChoice,
    closed_form_coulomb,
    closed_form_power_law,
    constructive_value,
    equivalence_suite,
    kramers_general,
    kramers_recurrence,
    polarizability_1s,
)

_L_LETTERS = {"s": 0, "p": 1, "d": 2, "f": 3, "g": 4}
CSV_COLUMNS = ["J", "channel", "discrete", "continuum", "total", "constructive",
               "closed_form", "pass"]


def _frac_str(x: Fraction | None) -> str | None:
    """Full "p/q" digits, past the int-to-str digit limit of Python >= 3.11."""
    if x is None:
        return None
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return f"{x.numerator}/{x.denominator}"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _parse_state(text: str) -> tuple[int, int]:
    text = text.strip().lower()
    try:
        n, letter = int(text[:-1]), text[-1]
        return n, _L_LETTERS[letter]
    except (ValueError, KeyError, IndexError):
        raise SystemExit(_usage_error(f"cannot parse state selector {text!r}"))


def _parse_orders(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            orders = list(range(int(lo), int(hi) + 1))
        else:
            orders = [int(text)]
    except ValueError:
        raise SystemExit(_usage_error(f"cannot parse order range {text!r}"))
    if not orders:
        raise SystemExit(_usage_error(f"empty order range {text!r}"))
    return orders


def _parse_potential(text: str) -> potentials.Potential:
    text = text.strip().lower()
    if text == "coulomb":
        return COULOMB
    if text == "log":
        return LOG
    if text.startswith("gamma="):
        try:
            return power_law(Fraction(text.split("=", 1)[1]))
        except (ValueError, ZeroDivisionError):
            pass
    raise SystemExit(_usage_error(f"cannot parse potential {text!r}"))


def _error(msg: str, code: int) -> int:
    """Report msg as one "error:" line on stderr and return the exit code."""
    print("error: " + " ".join(msg.split()), file=sys.stderr)
    return code


def _usage_error(msg: str) -> int:
    return _error(msg, 2)


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


# ---------------------------------------------------------------------------
# table rows
# ---------------------------------------------------------------------------


def coulomb_table_rows(n: int, l: int, orders: list[int], channels: list[str],
                       n_max: int, tol: float) -> list[dict]:
    """One row per (J, channel) from oracle.compare, gated on
    |total - constructive| <= max(tol, estimated_error); divergent rows carry no
    estimate."""
    state = bound_state(n, l)
    rows = []
    for J in orders:
        for direction in channels:
            row = {"state": {"n": n, "l": l}, "J": J, "channel": direction,
                   "discrete": None, "continuum": None, "total": None,
                   "constructive": None, "closed_form": None,
                   "estimated_error": None, "route": "oracle", "pass": False}
            try:
                v = oracle.compare(state, direction, J, n_max)
                row.update(discrete=v.discrete, continuum=v.continuum, total=v.total,
                           constructive=_frac_str(v.constructive),
                           closed_form=_frac_str(v.closed_form),
                           estimated_error=v.estimated_error)
                row["pass"] = abs(v.total - float(v.constructive)) <= max(tol, v.estimated_error)
            except DivergentSumRule:
                row["divergent"] = True
                row["pass"] = True      # correctly reported divergent
            rows.append(row)
    return rows


def potential_table_rows(v0: potentials.Potential, l: int, nodes: int,
                         orders: list[int], tol: float) -> list[dict]:
    """Fine-mesh totals; the distance to the coarse mesh's total and to the closed form
    (on the shooter's level, a cross-check of the two solvers) must be <= max(tol, 1e-4).
    An order whose closed form needs a moment that does not exist is reported divergent.
    A Coulomb potential (also written gamma=-1) never comes here: its table is the
    hydrogen state's, from coulomb_table_rows."""
    state = solve_bound(v0, l, nodes)
    chans = [channel(d, l) for d in ("plus", "minus")[: 1 + (l > 0)]]
    coarse, fine = (mesh_sum_rules(v0, l, nodes, chans, orders, n) for n in MESH_SIZES)
    # with a continuum, the sign of E_k is no physical split: print the total only
    confining = v0.confining()
    gate = max(tol, 1e-4)
    rows = []
    for J in orders:
        total, est = fine[J], abs(fine[J] - coarse[J])
        row = {"state": {"potential": v0.kind if v0.kind != "power" else f"gamma={v0.gamma}",
                         "nodes": nodes, "l": l},
               "J": J, "channel": "total", "discrete": total if confining else None,
               "continuum": None, "total": total, "constructive": None, "closed_form": None,
               "estimated_error": est, "route": "mesh", "pass": est <= gate}
        try:
            row["closed_form"] = closed = closed_form_power_law(state, v0, J)   # expectation form
            row["pass"] = row["pass"] and abs(total - closed) <= gate
        except DivergentExpectation:
            row.update(discrete=None, total=None, estimated_error=None, divergent=True)
            row["pass"] = True      # correctly reported divergent
        except DipoleSumError:
            pass   # no closed form: the estimate alone gates the row
        rows.append(row)
    return rows


def _emit(rows: list[dict], fmt: str, stream) -> int:
    """Write the rows to stream; return the exit code, 0 when every row passes, else 1."""
    code = 0 if all(r["pass"] for r in rows) else 1
    if fmt == "json":
        json.dump(rows, stream, indent=2, default=float)
        stream.write("\n")
        return code
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([r.get("J"), r.get("channel"),
                             r.get("discrete"), r.get("continuum"), r.get("total"),
                             r.get("constructive"), r.get("closed_form"),
                             r.get("pass")])
        return code
    for r in rows:
        if r.get("divergent"):
            print(f"J={r['J']:+d} {r['channel']:>6}: div", file=stream)
            continue

        def _f(x):
            return "      -" if x is None else (f"{x:.6f}" if isinstance(x, float) else str(x))
        print(f"J={r['J']:+d} {r['channel']:>6}: discrete={_f(r['discrete'])} "
              f"continuum={_f(r['continuum'])} total={_f(r['total'])} "
              f"constructive={_f(r['constructive'])} closed={_f(r['closed_form'])} "
              f"{'PASS' if r['pass'] else 'FAIL'}", file=stream)
    return code


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

REFERENCE_SPLITS = {
    # (n, l, channel): {J: (discrete, continuum)} -- truncated sums, n_max=2000
    (1, 0, "plus"): {
        0: (0.716587, 0.283412), 1: (0.565003, 0.434996),
        2: (0.449355, 0.883977), 3: (0.360841, 4.972492),
        -1: (0.915814, 0.209185), -2: (1.178262, 0.165487),
        -3: (1.524670, 0.136787), -4: (1.982648, 0.116526),
    },
    (2, 0, "plus"): {
        0: (13.176806, 0.823193), 1: (0.648907, 0.351092),
        2: (0.104632, 0.228701), 3: (0.017622, 0.649044),
        -1: (27.70006, 2.29993), -2: (187.959, 7.04049),
    },
    (2, 1, "minus"): {
        0: (9.93978, 0.06021), 1: (-0.35677, 0.02344), 2: (0.32166, 0.01167),
        3: (-0.23252, 0.01030), 4: (0.17586, 0.04636),
        -1: (1.82473, 0.17526), -2: (18.4514, 0.5485),
    },
    (2, 1, "plus"): {
        0: (7.38669, 0.61330), 1: (1.11382, 0.21951), 2: (0.17304, 0.09362),
        3: (0.02790, 0.06098), 4: (0.00470, 0.17307),
        -1: (50.1225, 1.87746), -2: (345.927, 6.07274),
    },
}


def _print_tolerance(value: float) -> float:
    """Resolution of a truncated printed reference value."""
    text = f"{value!r}"
    if "." not in text:
        return 1.0
    return 10.0 ** -len(text.split(".")[1])


def verify_paper_tables(tol: float, n_max: int) -> list[dict]:
    checks = []
    for (n, l, direction), table in REFERENCE_SPLITS.items():
        state = bound_state(n, l)
        split_tol = tol if (n, l) == (1, 0) or l == 0 else max(tol, 2e-3)
        for J, (ref_d, ref_c) in sorted(table.items()):
            row = oracle.compare(state, direction, J, n_max)
            d, c, cons = row.discrete, row.continuum, float(row.constructive)
            cell = max(split_tol, _print_tolerance(ref_d))
            checks.append({"suite": "paper-tables",
                           "check": f"{n}{'spdfg'[l]} {direction} J={J} discrete",
                           "pass": abs(d - ref_d) <= cell,
                           "detail": f"{d:.6f} vs {ref_d} (tol {cell:g})"})
            cell = max(split_tol, _print_tolerance(ref_c))
            checks.append({"suite": "paper-tables",
                           "check": f"{n}{'spdfg'[l]} {direction} J={J} continuum",
                           "pass": abs(c - ref_c) <= cell,
                           "detail": f"{c:.6f} vs {ref_c} (tol {cell:g})"})
            checks.append({"suite": "paper-tables",
                           "check": f"{n}{'spdfg'[l]} {direction} J={J} total",
                           "pass": abs(d + c - cons) <= max(tol, 2e-4),
                           "detail": f"{d + c:.6f} vs exact {cons:.6f}"})
        top = max_convergent_order(state)
        try:
            oracle.compare(state, direction, top + 1, n_max)
            checks.append({"suite": "paper-tables",
                           "check": f"{n}{'spdfg'[l]} {direction} J={top + 1} divergent",
                           "pass": False, "detail": "should have raised"})
        except DivergentSumRule:
            checks.append({"suite": "paper-tables",
                           "check": f"{n}{'spdfg'[l]} {direction} J={top + 1} divergent",
                           "pass": True, "detail": "reported divergent"})
    return checks


def verify_identities() -> list[dict]:
    checks = []
    # virial on exact states
    for (n, l) in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
        res = kramers_general(bound_state(n, l), COULOMB, FChoice.RHO)
        checks.append({"suite": "identities", "check": f"virial exact ({n},{l})",
                       "pass": res == 0, "detail": str(res)})
    # numeric states: oscillator and log
    osc = solve_bound(power_law(2), 0, 0)
    logst = solve_bound(LOG, 0, 0)
    for name, st, v0 in [("oscillator", osc, power_law(2)), ("log", logst, LOG)]:
        res = kramers_general(st, v0, FChoice.RHO)
        checks.append({"suite": "identities", "check": f"virial {name}",
                       "pass": abs(res) < 1e-6, "detail": f"{res:.2e}"})
    # the seven moment-identity choices
    exact_states = [(1, 0), (2, 0), (2, 1), (3, 2)]
    for (n, l) in exact_states:
        st = bound_state(n, l)
        for choice in FChoice:
            try:
                res = kramers_general(st, COULOMB, choice)
                checks.append({"suite": "identities",
                               "check": f"moment identity {choice.value} ({n},{l})",
                               "pass": res == 0, "detail": str(res)})
            except DipoleSumError:
                checks.append({"suite": "identities",
                               "check": f"moment identity {choice.value} ({n},{l})",
                               "pass": True, "detail": "divergent (expected)"})
    for choice in FChoice:
        res = kramers_general(osc, power_law(2), choice)
        checks.append({"suite": "identities",
                       "check": f"moment identity {choice.value} oscillator",
                       "pass": abs(res) < 1e-5, "detail": f"{res:.2e}"})
    # recurrence sweep
    ok = all(kramers_recurrence(bound_state(n, l), J) == 0
             for n in range(1, 6) for l in range(n) for J in range(-2 * l, 4))
    checks.append({"suite": "identities", "check": "moment recurrence n<=5",
                   "pass": ok, "detail": "J in -2l..3"})
    # force rule on numeric states
    for name, st, v0 in [("oscillator", osc, power_law(2)), ("log", logst, LOG)]:
        force = grid_expectation(st, lambda r: v0.dv(r, 1))
        want = st.c_origin() ** 2 / 2.0
        checks.append({"suite": "identities", "check": f"force rule {name} l=0",
                       "pass": abs(force - want) < 1e-5,
                       "detail": f"{force:.8f} vs C0^2/2 = {want:.8f}"})
    return checks


def verify_equivalences() -> list[dict]:
    checks = []
    for n, l, direction, J in [(2, 0, "plus", 3), (1, 0, "plus", 3),
                               (2, 1, "plus", 4), (2, 1, "minus", 4),
                               (3, 2, "plus", 4), (3, 2, "minus", 4)]:
        rep = equivalence_suite(family(n, l, direction), J)
        checks.append({"suite": "equivalences",
                       "check": f"pairings ({n},{l}) {direction} J={J}",
                       "pass": rep.passed,
                       "detail": "; ".join(name for name, ok in rep.identities if not ok) or "all exact"})
    # root-factor correction: constructive totals vs both closed-form variants
    for J, want in [(3, Fraction(-2, 15)), (4, Fraction(2, 5))]:
        corrected = closed_form_coulomb(2, 1, J)
        printed = closed_form_coulomb(2, 1, J, corrected_root=False)
        cons = sum(constructive_value(2, 1, d, J) for d in ("plus", "minus"))
        checks.append({"suite": "equivalences",
                       "check": f"2p S{J} corrected root equals constructive",
                       "pass": corrected == cons == want,
                       "detail": f"closed {corrected} constructive {cons}"})
        checks.append({"suite": "equivalences",
                       "check": f"2p S{J} alternate-root variant fails (negative control)",
                       "pass": abs(printed - float(cons)) > 1e-3,
                       "detail": f"variant {printed:.6f} vs exact {float(cons):.6f}"})
    # polarizability chain
    alpha0 = polarizability_1s()
    checks.append({"suite": "equivalences", "check": "ground-state polarizability",
                   "pass": alpha0 == Fraction(9, 2), "detail": str(alpha0)})
    # Dalgarno-Lewis route against the exact inverse ladder, on the exact ground
    # state sampled on the shooter's default log grid
    rho = np.exp(np.linspace(math.log(1e-8), math.log(_default_rho_max(COULOMB, 0, 0)), 8192))
    ground = GridFunction(grid=rho, values=bound_state(1, 0).values(rho), l=0, energy=-0.5)
    sums = negative_sum_rules(ground, COULOMB, [channel("plus", 0)], [-1, -2])
    for j, want in [(1, Fraction(9, 8)), (2, Fraction(43, 32))]:
        got = sums[-j]
        checks.append({"suite": "equivalences", "check": f"kernel route S_-{j}",
                       "pass": abs(got - float(want)) < 1e-8,
                       "detail": f"{got:.12f} vs {want}"})
    return checks


def verify_contour() -> list[dict]:
    checks = []
    for J in range(4):
        rep = contour_check(J)
        worst = max(abs(a - b) for _, a, b in rep.residue_rows)
        checks.append({"suite": "contour", "check": f"residues J={J} (n=2..10)",
                       "pass": rep.gates["residues"], "detail": f"worst |diff| {worst:.2e}"})
        checks.append({"suite": "contour", "check": f"line integral J={J}",
                       "pass": rep.gates["line integral"],
                       "detail": f"{rep.line_integral:.9f} vs {rep.continuum_reference:.9f}"})
        checks.append({"suite": "contour", "check": f"radius stability J={J}",
                       "pass": rep.gates["radius stability"],
                       "detail": f"{rep.radius_stability:.2e}"})
    return checks


def run_verify(suite: str, tol: float, n_max: int) -> list[dict]:
    checks = []
    if suite in ("paper-tables", "all"):
        checks += verify_paper_tables(tol, n_max)
    if suite in ("identities", "all"):
        checks += verify_identities()
    if suite in ("equivalences", "all"):
        checks += verify_equivalences()
    if suite in ("contour", "all"):
        checks += verify_contour()
    return checks


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {text}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors, its subcommands' too, are one
    "error:" line on stderr and exit 2."""

    def error(self, message: str):
        raise SystemExit(_usage_error(message))


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dipolesum", description="energy-weighted dipole sum rules")
    p.add_argument("--config", help="key=value config file (flags override)")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="recompute a sum-rule table")
    t.add_argument("--state", help="Coulomb state selector, e.g. 1s, 2p")
    t.add_argument("--potential", help="coulomb | gamma=<g> | log")
    t.add_argument("--nodes", type=_nonnegative_int, default=0)
    t.add_argument("--l", type=_nonnegative_int, default=0)
    t.add_argument("--orders", default="0..3", help="order range A..B")
    t.add_argument("--channel", default="both", choices=["plus", "minus", "total", "both"])
    t.add_argument("--nmax", type=int, default=N_MAX)
    t.add_argument("--tol", type=float, default=2e-4)
    t.add_argument("--format", default="text", choices=["text", "json", "csv"])

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", default="all",
                   choices=["paper-tables", "identities", "equivalences", "contour", "all"])
    v.add_argument("--tol", type=float,
                   help="gate of the paper-tables suite (default 2e-4); the other suites "
                        "have fixed gates and reject it")
    v.add_argument("--nmax", type=int, default=N_MAX,
                   help="highest discrete level of the paper-tables suite; the contour "
                        "suite uses a fixed quadrature and levels n = 2..10")
    v.add_argument("--format", default="text", choices=["text", "json"])

    m = sub.add_parser("matrix", help="single squared dipole matrix element")
    m.add_argument("--state", required=True)
    m.add_argument("--to-n", type=int, required=True)
    m.add_argument("--channel", required=True, choices=["plus", "minus"])
    m.add_argument("--format", default="text", choices=["text", "json"])

    k = sub.add_parser("kramers", help="identity residuals for a state")
    k.add_argument("--state", required=True)
    k.add_argument("--orders", default="0..3")
    k.add_argument("--format", default="text", choices=["text", "json"])

    q = sub.add_parser("potential", help="bound-state solver diagnostics")
    q.add_argument("--potential", required=True)
    q.add_argument("--l", type=_nonnegative_int, default=0)
    q.add_argument("--nodes", type=_nonnegative_int, default=0)
    q.add_argument("--format", default="text", choices=["text", "json"])
    return p


def _with_config(tokens: list[str], args, config: dict[str, str]) -> list[str]:
    """Insert config entries as --key=value tokens right after the subcommand,
    so argparse validates them and the user's own flags, parsed later, win.
    Keys the subcommand does not have are ignored."""
    at = 0
    while at < len(tokens) and tokens[at] != args.command:   # only --config [=]FILE precedes it
        at += 1 if "=" in tokens[at] else 2
    extra = []
    for key, val in config.items():
        dest = key.replace("-", "_")
        if dest not in ("config", "command") and hasattr(args, dest):
            extra.append(f"--{dest.replace('_', '-')}={val}")
    return tokens[:at + 1] + extra + tokens[at + 1:]


def main(argv: list[str] | None = None) -> int:
    """Run one command and write its output once it is complete, so a reader
    that closes stdout early cannot change the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = _run(argv)
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: what is still buffered, and the flush at exit,
        # go to /dev/null instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    tokens = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        config = _load_config(args.config)
    except (OSError, UnicodeDecodeError) as exc:
        return _usage_error(f"cannot read config file: {exc}")
    if config:
        try:
            args = parser.parse_args(_with_config(tokens, args, config))
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0

    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        return _usage_error(f"--tol must be finite and non-negative, not {tol}")
    try:
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "matrix":
            return _cmd_matrix(args)
        if args.command == "kramers":
            return _cmd_kramers(args)
        if args.command == "potential":
            return _cmd_potential(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except NumericalFailure as exc:
        return _error(f"{type(exc).__name__}: {exc}", 1)
    except DipoleSumError as exc:
        return _error(str(exc), 2)
    except Exception as exc:  # noqa: BLE001 -- the CLI never prints a traceback
        return _error(f"{type(exc).__name__}: {exc}", 1)
    return 2


def _cmd_table(args) -> int:
    orders = _parse_orders(args.orders)
    if args.state:
        n, l = _parse_state(args.state)
    elif not args.potential:
        return _usage_error("table needs --state or --potential")
    elif (v0 := _parse_potential(args.potential)) in (COULOMB, power_law(-1)):
        n, l = args.nodes + args.l + 1, args.l   # the hydrogen state with these nodes
    else:
        return _emit(potential_table_rows(v0, args.l, args.nodes, orders, args.tol),
                     args.format, sys.stdout)
    if args.nmax <= n:   # the discrete sums end at level nmax, above the state's
        return _usage_error(f"--nmax must exceed the state's n = {n}")
    if args.channel == "both":
        channels = ["plus"] if l == 0 else ["plus", "minus", "total"]
    else:
        channels = [args.channel]
    return _emit(coulomb_table_rows(n, l, orders, channels, args.nmax, args.tol),
                 args.format, sys.stdout)


def _cmd_verify(args) -> int:
    if args.tol is not None and args.suite not in ("paper-tables", "all"):
        return _usage_error(f"--tol sets the paper-tables gate; the {args.suite} suite "
                            "has fixed gates")
    if args.suite in ("paper-tables", "all") and args.nmax <= 2:
        return _usage_error("--nmax must exceed 2, the n of the deepest paper-table state 2p")
    checks = run_verify(args.suite, 2e-4 if args.tol is None else args.tol, args.nmax)
    if args.format == "json":
        json.dump(checks, sys.stdout, indent=2)
        print()
    else:
        for c in checks:
            print(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['suite']}: {c['check']}  ({c['detail']})")
        n_fail = sum(not c["pass"] for c in checks)
        print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return 0 if all(c["pass"] for c in checks) else 1


def _cmd_matrix(args) -> int:
    n, l = _parse_state(args.state)
    chan = channel(args.channel, l)
    val = bound_bound_z2(bound_state(n, l), args.to_n, chan)
    out = {"state": {"n": n, "l": l}, "to_n": args.to_n, "channel": args.channel,
           "z2": _frac_str(val), "z2_float": float(val)}
    if args.format == "json":
        json.dump(out, sys.stdout)
        print()
    else:
        print(f"|<{args.state}| z |{args.to_n},{chan.target_l}>|^2 = {out['z2']} = {out['z2_float']:.10g}")
    return 0


def _cmd_kramers(args) -> int:
    n, l = _parse_state(args.state)
    st = bound_state(n, l)
    rows = []
    for J in _parse_orders(args.orders):
        try:
            res = kramers_recurrence(st, J)
            rows.append({"J": J, "recurrence_residual": _frac_str(res), "pass": res == 0})
        except DipoleSumError as exc:
            rows.append({"J": J, "recurrence_residual": None, "note": str(exc), "pass": True})
    for choice in FChoice:
        try:
            res = kramers_general(st, COULOMB, choice)
            rows.append({"choice": choice.value, "residual": _frac_str(res), "pass": res == 0})
        except DipoleSumError as exc:
            rows.append({"choice": choice.value, "residual": None, "note": str(exc), "pass": True})
    if args.format == "json":
        json.dump(rows, sys.stdout, indent=2)
        print()
    else:
        for r in rows:
            print(r)
    return 0 if all(r["pass"] for r in rows) else 1


def _cmd_potential(args) -> int:
    v0 = _parse_potential(args.potential)
    state = solve_bound(v0, args.l, args.nodes)
    virial = grid_expectation(state, lambda r: r * v0.dv(r, 1)) \
        - 2.0 * (state.energy - grid_expectation(state, v0.v))
    force = grid_expectation(state, lambda r: v0.dv(r, 1) - state.l * (state.l + 1) / r**3)
    out = {"potential": args.potential, "l": args.l, "nodes": state.nodes,
           "energy": state.energy, "c_origin": state.c_origin(),
           "virial_residual": virial, "force_rule": force,
           "force_rule_expected": (state.c_origin() ** 2 / 2.0 if args.l == 0 else 0.0)}
    if args.format == "json":
        json.dump(out, sys.stdout, indent=2)
        print()
    else:
        for k, v in out.items():
            print(f"{k}: {v}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
