"""Benchmark for the dipolesum CLI's three sum-rule routes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record

Run from the root of a checkout; the package is imported from ``src/``.
Each workload pass is a fresh interpreter (``child.py``) running a fixed
list of CLI commands back to back, so module caches start cold as they do
for a CLI user.  Passes run one after another (a closed loop with one
client) until the next pass would end after ``--seconds``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics (medians
over the passes of the run); with ``--trace 1`` it holds the per-layer
metrics from traced passes, plus the tracing overhead against an untraced
pass.  Every pass's output is compared with ``expected.json``; ``--record``
rewrites a workload's entry there from one pass of the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
sys.path.insert(0, HERE)

from tracer import median_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

T0 = time.perf_counter()
CHILD_TIMEOUT_S = 160
# A run must end within 180 s: once two passes are done, no pass starts that
# would, judging by the last one, end later than this after start-up.
DEADLINE_S = 150
IMPORT_PROBES = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import dipolesum; print(time.perf_counter() - t)")
_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$")


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def _python(*args: str, trace_imports: bool = False) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-E", "-s"] + (["-X", "importtime"] if trace_imports else []) + list(args)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args[:3])} timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def import_breakdown(stderr: str) -> dict[str, float]:
    """numpy, scipy and dipolesum's own share of ``import dipolesum``.

    ``-X importtime`` prints each module when it finishes, children first and
    indented one step deeper than their parent.  A numpy or scipy module is
    charged to its package unless an enclosing module already belongs to
    numpy or scipy.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((len(m.group(2)) // 2, m.group(3), int(m.group(1)) * 1e-6))
    shares = {"numpy": 0.0, "scipy": 0.0}
    total = None
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(rows):
        del ancestors[depth:]
        root = name.split(".", 1)[0]
        if root in shares and not any(a in shares for a in ancestors):
            shares[root] += cumulative
        if name == "dipolesum" and depth == 0:
            total = cumulative
        ancestors.append(root)
    if total is None:
        raise BenchError("import dipolesum missing from -X importtime output")
    return {"setup.numpy_s": shares["numpy"], "setup.scipy_s": shares["scipy"],
            "setup.dipolesum_s": total - shares["numpy"] - shares["scipy"]}


def run_pass(workload: str, traced: bool) -> dict:
    args = [os.path.join(HERE, "child.py"), SRC, workload] + (["--trace"] if traced else [])
    t0 = time.perf_counter()
    proc = _python(*args)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["pass_s"] = time.perf_counter() - t0
    return result


def run_passes(workload: str, seconds: float, schedule: list[bool], minimum: int) -> list[dict]:
    """Passes, traced or not by cycling ``schedule``, until the next would overrun."""
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(workload, schedule[len(passes) % len(schedule)])
        passes.append(p)
        now = time.perf_counter()
        if len(passes) >= minimum and now - start + p["pass_s"] > seconds:
            return passes
        if len(passes) >= 2 and now - T0 + p["pass_s"] > DEADLINE_S:
            return passes


# ---------------------------------------------------------------------------
# correctness and failure accounting
# ---------------------------------------------------------------------------


def _ops(result: dict) -> dict[str, dict]:
    ops = {}
    for i, cmd in enumerate(result["commands"]):
        for op in cmd["ops"]:
            ops[f"{i}|{op['label']}"] = op
    return ops


def evaluate(result: dict, expected: dict) -> dict:
    """Compare one pass with the recorded outputs.

    Every failing operation lowers ``ops_passed_frac``.  One that passed at
    the recorded commit and now fails or is missing is a regression, and so
    is any exact field that differs; either makes the pass incorrect.  The
    known failures, and new operations a fix brings in, are not regressions.
    """
    ops = _ops(result)
    mismatches = [label for label, exact in expected["exact"].items()
                  if label in ops and ops[label]["exact"] != exact]
    passed = set(expected["passed"])
    missing = [label for label in passed if label not in ops]
    failed = [label for label, op in ops.items() if not op["ok"]]
    unexpected = [label for label in failed if label in passed] + missing
    gaps = [g for op in ops.values() for g in op["gaps"]]
    return {
        "attempted": len(ops) + len(missing),
        "failed": len(failed) + len(missing),
        "unexpected": unexpected,
        "mismatches": mismatches,
        "worst_gap_ratio": max(gaps) if gaps else 0.0,
        "signature": [(label, op["ok"], op["exact"]) for label, op in sorted(ops.items())],
    }


def load_expected(workload: str) -> dict:
    try:
        with open(EXPECTED) as fh:
            return json.load(fh)[workload]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no recorded outputs for {workload} in {EXPECTED}: {exc}") from exc


def record(workload: str) -> None:
    result = run_pass(workload, traced=False)
    ops = _ops(result)
    entry = {
        "commands": [" ".join(a) for a in WORKLOADS[workload]],
        "known_failures": sorted(label for label, op in ops.items() if not op["ok"]),
        "passed": sorted(label for label, op in ops.items() if op["ok"]),
        "exact": {label: op["exact"] for label, op in ops.items() if op["exact"] is not None},
    }
    data = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            data = json.load(fh)
    data[workload] = entry
    with open(EXPECTED, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(ops)} operations of {workload}, "
          f"{len(entry['known_failures'])} failing: {entry['known_failures']}")


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------


def metadata(seed: int, first_pass: dict) -> dict:
    sha = "unknown"   # a checkout without .git has no sha to report
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            sha = fh.read().strip()
        ref_path = os.path.join(ROOT, ".git", sha[5:])
        if sha.startswith("ref: ") and os.path.exists(ref_path):
            with open(ref_path) as fh:
                sha = fh.read().strip()
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"seed": seed, "git_sha": sha, "python": platform.python_version(),
            **first_pass["versions"], "nproc": os.cpu_count(), "cpu": cpu}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4f} [{q1:.4f}, {q3:.4f}]"


def _check(passes: list[dict], expected: dict) -> tuple[dict, list[str]]:
    evals = [evaluate(p, expected) for p in passes]
    problems = []
    for e in evals:
        problems += [f"unexpected failure: {x}" for x in e["unexpected"]]
        problems += [f"exact output differs: {x}" for x in e["mismatches"]]
    if any(e["signature"] != evals[0]["signature"] for e in evals):
        problems.append("outputs differ between passes")
    for p in passes:
        for c in p["commands"]:
            if c["parse_error"]:
                problems.append(f"{' '.join(c['argv'])}: unparsable output: {c['parse_error']}")
    return evals[0], sorted(set(problems))


def end_to_end(workload: str, seconds: float) -> tuple[dict, dict, list[str], dict]:
    expected = load_expected(workload)
    probes = [float(_python("-c", IMPORT_PROBE, SRC).stdout) for _ in range(IMPORT_PROBES)]
    passes = run_passes(workload, seconds, [False], minimum=1)
    ev, problems = _check(passes, expected)
    walls = [p["wall_s"] for p in passes]
    setups = probes + [p["import_s"] for p in passes]
    print(f"# {workload}: {len(passes)} passes; wall_s {_quartiles(walls)}; "
          f"setup_s {_quartiles(setups)} over {len(setups)} imports; "
          f"cpu_s {_quartiles([p['cpu_s'] for p in passes])}")
    print("# per command (first pass): " + "; ".join(
        f"{' '.join(c['argv'][:3])} {c['s']:.2f}s rc={c['rc']}"
        + (f" {c['exc'].split(':')[0]}" if c["exc"] else "") for c in passes[0]["commands"]))
    if ev["failed"]:
        print(f"# failed operations: {ev['failed']} of {ev['attempted']} "
              f"({len(ev['unexpected'])} of them passed at the recorded commit)")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "worst_gap_ratio": (ev["worst_gap_ratio"], "ratio"),
        "ops_passed_frac": (1.0 - ev["failed"] / ev["attempted"], "ratio"),
    }
    return metrics, ev, problems, passes[0]


def per_layer(workload: str, seconds: float) -> tuple[dict, dict, list[str], dict]:
    expected = load_expected(workload)
    probes = [import_breakdown(_python("-c", IMPORT_PROBE, SRC, trace_imports=True).stderr)
              for _ in range(IMPORT_PROBES)]
    # Two traced passes for the determinism check and one untraced pass for
    # the overhead, then more of both while time remains.
    passes = run_passes(workload, seconds, [True, False, True], minimum=3)
    ev, problems = _check(passes, expected)
    traced = [p for p in passes if "trace" in p]
    plain = [p for p in passes if "trace" not in p]
    counts = [p["trace"]["counts"] for p in traced]
    if len(counts) < 2:
        print("# determinism check skipped: a second traced pass would pass the deadline")
    if any(c != counts[0] for c in counts):
        problems.append("traced passes disagree on counts")
    layer = median_metrics([p["trace"]["metrics"] for p in traced])
    layer.update(median_metrics(probes))
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    layer["trace.wall_s"] = traced_wall
    layer["trace.overhead_s"] = traced_wall - plain_wall
    print(f"# {workload}: {len(traced)} traced passes, wall_s {_quartiles([p['wall_s'] for p in traced])}; "
          f"{len(plain)} untraced, wall_s {_quartiles([p['wall_s'] for p in plain])}; "
          f"overhead {layer['trace.overhead_s']:+.3f} s; layer spans cover "
          f"{100 * layer['trace.layer_share']:.1f}% of traced wall; "
          f"{traced[0]['trace']['wrapped']} functions wrapped")
    print("# counts: " + json.dumps(counts[0], sort_keys=True))
    units = _layer_units()
    metrics = {name: (layer[name], unit) for name, unit in units.items()}
    return metrics, ev, problems, passes[0]


def _layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the workload's recorded outputs and exit")
    args = parser.parse_args()
    try:
        if not os.path.isfile(os.path.join(SRC, "dipolesum", "cli.py")):
            raise BenchError(f"no dipolesum sources under {SRC}")
        if args.record:
            record(args.workload)
            return 0
        run = per_layer if args.trace else end_to_end
        metrics, ev, problems, first_pass = run(args.workload, args.seconds)
        print("# " + json.dumps(metadata(args.seed, first_pass), sort_keys=True))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in problems:
        print(f"# INCORRECT: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": ev["attempted"],
        "failed": len(ev["unexpected"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
