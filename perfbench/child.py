"""One workload pass in a fresh interpreter.

    python3 -E -s perfbench/child.py SRC WORKLOAD [--trace]

Imports ``dipolesum`` from SRC (timed: the set-up a CLI user pays on every
call, module caches cold), then runs the workload's commands back to back
through ``dipolesum.cli.main`` with stdout and stderr captured.  Prints one
JSON object: import time, wall and CPU time of the command list, peak RSS,
the numpy and scipy versions loaded, the parsed operations of every command,
and with ``--trace`` the per-layer metrics from spans around every public
package function.
"""

from __future__ import annotations

import os
import sys
import time


def main() -> int:
    src, workload = sys.argv[1], sys.argv[2]
    traced = "--trace" in sys.argv[3:]
    sys.path.insert(0, src)

    # Nothing else is imported before the timed import, so it pays for the
    # same modules as the import-only probes in run.py.
    t0 = time.perf_counter()
    import dipolesum
    import_s = time.perf_counter() - t0
    import contextlib
    import io
    import json
    import resource

    import dipolesum.cli as cli
    import outputs
    import tracer
    from workloads import WORKLOADS

    pkg_dir = os.path.dirname(os.path.abspath(dipolesum.__file__))
    if pkg_dir != os.path.join(os.path.abspath(src), "dipolesum"):
        print(f"dipolesum was imported from {pkg_dir}, not from {src}", file=sys.stderr)
        return 2

    spans = tracer.Tracer() if traced else None
    wrapped = spans.install() if spans else 0

    commands = []
    cpu0 = time.process_time()
    t1 = time.perf_counter()
    for argv in WORKLOADS[workload]:
        out, err = io.StringIO(), io.StringIO()
        c0 = time.perf_counter()
        rc, exc = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except Exception as e:  # an escaping exception is a failed operation
                exc = f"{type(e).__name__}: {e}"
        commands.append({"argv": argv, "rc": rc, "exc": exc, "s": time.perf_counter() - c0,
                         "stdout": out.getvalue()})
    wall_s = time.perf_counter() - t1
    cpu_s = time.process_time() - cpu0

    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {name: getattr(sys.modules.get(name), "__version__", "not imported")
                     for name in ("numpy", "scipy")},
        "commands": [],
    }
    for c in commands:
        try:
            ops = outputs.command_ops(c["argv"], c["rc"], c["exc"], c["stdout"])
            parse_error = None
        except (ValueError, KeyError, TypeError) as e:
            ops, parse_error = [outputs.op("exit", False)], f"{type(e).__name__}: {e}"
        result["commands"].append({"argv": c["argv"], "rc": c["rc"], "exc": c["exc"],
                                   "s": c["s"], "ops": ops, "parse_error": parse_error})
    if spans:
        metrics, counts = tracer.layer_metrics(spans, wall_s)
        result["trace"] = {"metrics": metrics, "counts": counts, "wrapped": wrapped}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
