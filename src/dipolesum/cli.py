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
import csv
import json
import math
import sys
from fractions import Fraction

from . import oracle, potentials
from .errors import DipoleSumError, DivergentSumRule, NumericalFailure
from .hydrogen import bound_bound_z2, bound_state, channel
from .ladder import build_f_ladder, greens_negative_order
from .oracle import QuadratureSpec, contour_check, max_convergent_order
from .potentials import COULOMB, LOG, grid_expectation, power_law, solve_bound
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
                       spec: QuadratureSpec, tol: float) -> list[dict]:
    state = bound_state(n, l)
    rows = []
    for J in orders:
        for direction in channels:
            row = {"state": {"n": n, "l": l}, "J": J, "channel": direction,
                   "discrete": None, "continuum": None, "total": None,
                   "constructive": None, "closed_form": None, "pass": False}
            try:
                if direction == "total":
                    parts = [oracle.compare(state, channel(d, l), J, spec)
                             for d in ("plus", "minus") if not (d == "minus" and l == 0)]
                    row["discrete"] = math.fsum(p.discrete for p in parts)
                    row["continuum"] = math.fsum(p.continuum for p in parts)
                    cons = [p.constructive for p in parts]
                    row["constructive"] = _frac_str(sum(cons)) if all(c is not None for c in cons) else None
                    est = math.fsum(p.estimated_error for p in parts)
                    cons_val = sum(cons) if all(c is not None for c in cons) else None
                else:
                    part = oracle.compare(state, channel(direction, l), J, spec)
                    row["discrete"], row["continuum"] = part.discrete, part.continuum
                    row["constructive"] = _frac_str(part.constructive)
                    est = part.estimated_error
                    cons_val = part.constructive
                row["discrete"] = float(row["discrete"])
                row["continuum"] = float(row["continuum"])
                row["total"] = row["discrete"] + row["continuum"]
                if 0 <= J <= 4 and (l == 0 or direction == "total"):
                    try:
                        row["closed_form"] = _frac_str(closed_form_coulomb(n, l, J))
                    except DipoleSumError:
                        pass
                if cons_val is not None:
                    row["pass"] = bool(abs(row["total"] - float(cons_val)) <= max(tol, est))
            except DivergentSumRule:
                row["channel"] = direction
                row["divergent"] = True
                row["pass"] = True      # correctly reported divergent
            rows.append(row)
    return rows


def potential_table_rows(v0: potentials.Potential, l: int, nodes: int,
                         orders: list[int], tol: float) -> list[dict]:
    """Discrete-only sums over the solved spectrum of a confining potential."""
    state = solve_bound(v0, l, nodes)
    rows = []
    # shared grid for final-state solves
    n_final = 10
    finals = {}
    for J in orders:
        row = {"state": {"potential": v0.kind if v0.kind != "power" else f"gamma={v0.gamma}",
                         "nodes": nodes, "l": l},
               "J": J, "channel": "total", "discrete": None, "continuum": None,
               "total": None, "constructive": None, "closed_form": None, "pass": False}
        total = 0.0
        for direction in ("plus", "minus"):
            if direction == "minus" and l == 0:
                continue
            chan = channel(direction, l)
            lp = chan.target_l
            if lp not in finals:
                finals[lp] = [solve_bound(v0, lp, k,
                                          rho_min=state.grid[0], rho_max=state.grid[-1],
                                          n_points=len(state.grid))
                              for k in range(n_final)]
            for fin in finals[lp]:
                de = 2.0 * (fin.energy - state.energy)
                me = potentials.grid_overlap(
                    potentials.GridFunction(state.grid, state.grid * state.values,
                                            l, hx=state.hx),
                    fin)
                total += float(chan.weight) * de**J * me**2
        row["discrete"] = total
        row["total"] = total
        try:
            closed = closed_form_power_law(state, v0, J)
            row["reference"] = closed   # numeric expectation form, not exact
            row["pass"] = abs(total - closed) <= max(tol, 1e-4)
        except DipoleSumError:
            row["pass"] = True
        rows.append(row)
    return rows


def _emit(rows: list[dict], fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(rows, stream, indent=2, default=float)
        stream.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([r.get("J"), r.get("channel"),
                             r.get("discrete"), r.get("continuum"), r.get("total"),
                             r.get("constructive"), r.get("closed_form"),
                             r.get("pass")])
        return
    for r in rows:
        if r.get("divergent"):
            print(f"J={r['J']:+d} {r['channel']:>6}: div", file=stream)
            continue

        def _f(x):
            return "      -" if x is None else (f"{x:.6f}" if isinstance(x, float) else str(x))
        closed = r["closed_form"] if r["closed_form"] is not None else r.get("reference")
        print(f"J={r['J']:+d} {r['channel']:>6}: discrete={_f(r['discrete'])} "
              f"continuum={_f(r['continuum'])} total={_f(r['total'])} "
              f"constructive={_f(r['constructive'])} closed={_f(closed)} "
              f"{'PASS' if r['pass'] else 'FAIL'}", file=stream)


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


def verify_paper_tables(tol: float, spec: QuadratureSpec) -> list[dict]:
    checks = []
    for (n, l, direction), table in REFERENCE_SPLITS.items():
        state = bound_state(n, l)
        chan = channel(direction, l)
        split_tol = tol if (n, l) == (1, 0) or l == 0 else max(tol, 2e-3)
        for J, (ref_d, ref_c) in sorted(table.items()):
            d = oracle.discrete_sum(state, chan, J, spec)
            c = oracle.continuum_integral(state, chan, J, spec)
            cons = float(constructive_value(n, l, direction, J))
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
            oracle.continuum_integral(state, chan, top + 1, spec)
            checks.append({"suite": "paper-tables",
                           "check": f"{n}{'spdfg'[l]} {direction} J={top + 1} divergent",
                           "pass": False, "detail": "should have raised"})
        except DivergentSumRule:
            checks.append({"suite": "paper-tables",
                           "check": f"{n}{'spdfg'[l]} {direction} J={top + 1} divergent",
                           "pass": True, "detail": "reported divergent"})
    return checks


def verify_identities(tol: float) -> list[dict]:
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


def verify_equivalences(tol: float) -> list[dict]:
    checks = []
    for n, l, direction, J in [(2, 0, "plus", 3), (1, 0, "plus", 3),
                               (2, 1, "plus", 4), (2, 1, "minus", 4),
                               (3, 2, "plus", 4), (3, 2, "minus", 4)]:
        fam = build_f_ladder(bound_state(n, l), channel(direction, l), 4)
        rep = equivalence_suite(fam, J)
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
    # kernel-quadrature route against exact inverse ladder
    for j, want in [(1, Fraction(9, 8)), (2, Fraction(43, 32))]:
        got = greens_negative_order(j)
        checks.append({"suite": "equivalences", "check": f"kernel route S_-{j}",
                       "pass": abs(got - float(want)) < 1e-8,
                       "detail": f"{got:.12f} vs {want}"})
    return checks


def verify_contour(tol: float) -> list[dict]:
    checks = []
    for J in range(4):
        rep = contour_check(J)
        worst = max(abs(a - b) for _, a, b in rep.residue_rows)
        checks.append({"suite": "contour", "check": f"residues J={J} (n=2..10)",
                       "pass": worst <= 1e-6, "detail": f"worst |diff| {worst:.2e}"})
        checks.append({"suite": "contour", "check": f"line integral J={J}",
                       "pass": abs(rep.line_integral - rep.continuum_reference) <= 1e-6,
                       "detail": f"{rep.line_integral:.9f} vs {rep.continuum_reference:.9f}"})
        checks.append({"suite": "contour", "check": f"radius stability J={J}",
                       "pass": rep.radius_stability <= 1e-8,
                       "detail": f"{rep.radius_stability:.2e}"})
    return checks


def run_verify(suite: str, tol: float, spec: QuadratureSpec) -> list[dict]:
    checks = []
    if suite in ("paper-tables", "all"):
        checks += verify_paper_tables(tol, spec)
    if suite in ("identities", "all"):
        checks += verify_identities(tol)
    if suite in ("equivalences", "all"):
        checks += verify_equivalences(tol)
    if suite in ("contour", "all"):
        checks += verify_contour(tol)
    return checks


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dipolesum",
                                description="energy-weighted dipole sum rules")
    p.add_argument("--config", help="key=value config file (flags override)")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="recompute a sum-rule table")
    t.add_argument("--state", help="Coulomb state selector, e.g. 1s, 2p")
    t.add_argument("--potential", help="coulomb | gamma=<g> | log")
    t.add_argument("--nodes", type=_nonnegative_int, default=0)
    t.add_argument("--l", type=_nonnegative_int, default=0)
    t.add_argument("--orders", default="0..3", help="order range A..B")
    t.add_argument("--channel", default="both", choices=["plus", "minus", "total", "both"])
    t.add_argument("--nmax", type=int, default=2000)
    t.add_argument("--tol", type=float, default=2e-4)
    t.add_argument("--format", default="text", choices=["text", "json", "csv"])

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", default="all",
                   choices=["paper-tables", "identities", "equivalences", "contour", "all"])
    v.add_argument("--tol", type=float, default=2e-4)
    v.add_argument("--nmax", type=int, default=2000,
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
    spec = QuadratureSpec(n_max=args.nmax)
    orders = _parse_orders(args.orders)
    if args.state:
        n, l = _parse_state(args.state)
        if args.channel == "both":
            channels = ["plus"] if l == 0 else ["plus", "minus", "total"]
        else:
            channels = [args.channel]
        if l == 0 and args.channel in ("minus",):
            return _usage_error("minus channel is forbidden for l = 0")
        rows = coulomb_table_rows(n, l, orders, channels, spec, args.tol)
    elif args.potential:
        v0 = _parse_potential(args.potential)
        rows = potential_table_rows(v0, args.l, args.nodes, orders, args.tol)
    else:
        return _usage_error("table needs --state or --potential")
    _emit(rows, args.format, sys.stdout)
    return 0 if all(r["pass"] for r in rows) else 1


def _cmd_verify(args) -> int:
    spec = QuadratureSpec(n_max=args.nmax)
    checks = run_verify(args.suite, args.tol, spec)
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
        print(f"|<{args.state}| z |{args.to_n},{chan.target_l}>|^2 = {_frac_str(val)} = {float(val):.10g}")
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
