"""Turn captured CLI output into operations with exact fields and accuracy gaps.

Every printed row or check is one operation, and so is every command.  An
operation carries:

* ``ok``    -- the row or check printed PASS, or the command exited 0 without
  an exception escaping ``cli.main``;
* ``exact`` -- the part of the output that must not change between runs or
  commits: exact rationals, reference values and labels, with computed
  floats replaced by ``#`` (``None`` when the operation prints nothing exact);
* ``gaps``  -- |printed value - reference| / tolerance for each value that is
  printed next to an exact or closed-form reference.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

# The CLI's default --tol; every table row is gated on it (potential rows on
# max(tol, 1e-4), which is the same number).
TABLE_TOL = 2e-4

# Gates for verify checks whose detail prints a computed value and its
# reference, or a residual, without stating the tolerance: the thresholds
# the CLI applies to them.  (suite, check-name substring, tolerance, whether
# the printed reference is an exact or tabulated constant).  Checks that
# print "(tol X)" use X.
CHECK_GATES = [
    ("paper-tables", "", 2e-4, True),
    ("contour", "residues", 1e-6, False),
    ("contour", "line integral", 1e-6, False),
    ("contour", "radius stability", 1e-8, False),
    ("equivalences", "kernel route", 1e-8, True),
    ("equivalences", "negative control", None, True),
    ("identities", "virial", 1e-6, False),
    ("identities", "moment identity", 1e-5, False),
    ("identities", "force rule", 1e-5, False),
]
# The potential command prints the virial residual and the force rule; they
# are gated like the same identities in the identities suite.
VIRIAL_TOL = 1e-6
FORCE_TOL = 1e-5

_FLOAT = re.compile(r"[-+]?\d+\.\d*(?:[eE][-+]?\d+)?|[-+]?\d+[eE][-+]?\d+")
_TOL = re.compile(r"\s*\(tol ([^)]+)\)")
_VERIFY_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+): (.*?)  \((.*)\)$")
_TABLE_LINE = re.compile(r"^(J=[+-]\d+\s+\S+:)(.*?)(?: (PASS|FAIL))?$")
_DIGEST_OVER = 160   # exact strings longer than this are stored as a digest


def op(label: str, ok: bool, exact: str | None = None, gaps=()) -> dict:
    if exact is not None and len(exact) > _DIGEST_OVER:
        exact = "sha256:" + hashlib.sha256(exact.encode()).hexdigest()
    return {"label": label, "ok": bool(ok), "exact": exact, "gaps": [float(g) for g in gaps]}


def _numbers(text: str) -> list[Fraction]:
    out = []
    for token in text.split():
        try:
            out.append(Fraction(token))
        except (ValueError, ZeroDivisionError):
            pass
    return out


def _check_op(check: dict) -> dict:
    suite, name, detail = check["suite"], check["check"], check["detail"]
    gate = next((g for g in CHECK_GATES if g[0] == suite and g[1] in name), None)
    tol_match = _TOL.search(detail)
    body = _TOL.sub("", detail)
    tol = float(tol_match.group(1)) if tol_match else (gate[2] if gate else None)
    exact_ref = gate[3] if gate else False
    gaps = []
    if " vs " in body:
        left, right = body.split(" vs ", 1)
        exact = _FLOAT.sub("#", left) + " vs " + (right if exact_ref else _FLOAT.sub("#", right))
        if tol_match:
            exact += f" (tol {tol_match.group(1)})"
        value, ref = _numbers(left), _numbers(right)
        if tol and value and ref:
            gaps.append(abs(value[-1] - ref[0]) / Fraction(tol))
    else:
        exact = _FLOAT.sub("#", detail)
        residual = _FLOAT.findall(body)
        if tol and residual:
            gaps.append(abs(Fraction(residual[0])) / Fraction(tol))
    return op(f"{suite}: {name}", check["pass"], exact, gaps)


def _verify_text(stdout: str) -> list[dict]:
    checks = []
    for line in stdout.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            checks.append({"suite": m.group(2), "check": m.group(3),
                           "pass": m.group(1) == "PASS", "detail": m.group(4)})
    return checks


def _table_json_op(row: dict) -> dict:
    label = f"J={row['J']:+d} {row['channel']}"
    exact = (f"constructive={row.get('constructive')} closed_form={row.get('closed_form')}"
             f" divergent={bool(row.get('divergent'))}")
    gaps = []
    if row.get("total") is not None:
        for ref in (row.get("constructive"), row.get("closed_form")):
            if ref is not None:
                gaps.append(abs(Fraction(row["total"]) - Fraction(ref)) / Fraction(TABLE_TOL))
    return op(label, row["pass"], exact, gaps)


def _table_text_ops(stdout: str) -> list[dict]:
    ops = []
    for line in stdout.splitlines():
        m = _TABLE_LINE.match(line)
        if not m:
            continue
        head, body, status = m.groups()
        fields = dict(kv.split("=", 1) for kv in body.split() if "=" in kv)
        gaps = []
        if _FLOAT.fullmatch(fields.get("total", "")):
            total = Fraction(fields["total"])
            for key in ("constructive", "closed"):
                if _FLOAT.fullmatch(fields.get(key, "")):
                    gaps.append(abs(total - Fraction(fields[key])) / Fraction(TABLE_TOL))
        ok = status == "PASS" or (status is None and body.strip() == "div")
        ops.append(op(" ".join(head.rstrip(":").split()), ok, _FLOAT.sub("#", head + body), gaps))
    return ops


def _potential_op(stdout: str) -> dict:
    fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    exact = f"potential={fields['potential']} l={fields['l']} nodes={fields['nodes']}"
    gaps = [abs(float(fields["virial_residual"])) / VIRIAL_TOL,
            abs(float(fields["force_rule"]) - float(fields["force_rule_expected"])) / FORCE_TOL]
    return op("report", True, exact, gaps)


def command_ops(argv: list[str], rc: int | None, exc: str | None, stdout: str) -> list[dict]:
    """Operations of one command: the command itself, then its rows or checks.

    Raises ValueError (or KeyError) when a command that exited 0 printed
    output of the wrong shape.
    """
    ops = [op("exit", rc == 0 and exc is None)]
    if not stdout.strip():
        return ops
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    cmd = argv[0]
    if cmd == "verify":
        checks = json.loads(stdout) if fmt == "json" else _verify_text(stdout)
        ops += [_check_op(c) for c in checks]
    elif cmd == "table":
        if fmt == "json":
            ops += [_table_json_op(r) for r in json.loads(stdout)]
        else:
            ops += _table_text_ops(stdout)
    elif cmd == "matrix":
        ops.append(op("value", rc == 0, stdout.strip()))
    elif cmd == "potential":
        ops.append(_potential_op(stdout))
    else:
        raise ValueError(f"no output parser for command {cmd!r}")
    return ops
