"""Span tracer that wraps dipolesum's public functions from outside the package.

Every public function defined in a ``dipolesum`` module (``cli`` excepted) is
wrapped so that each call records a span ``(name, start, end, parent)``.  The
package binds names at import (``from .hydrogen import bound_bound_z2``), so
the wrapper replaces the function in every ``dipolesum.*`` namespace that
holds the same object; otherwise calls from ``oracle`` or ``cli`` would
escape the trace.  Spans stay in memory; ``layer_metrics`` turns them into
per-layer counts and times, with self time = duration minus child spans.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

PACKAGE = "dipolesum"

# Per-call observations kept with the span, for size buckets and counters.
OBSERVERS = {
    "hydrogen.bound_bound_z2":
        lambda args, kwargs, result: (
            kwargs["to_n"] if "to_n" in kwargs else args[1],
            result.numerator.bit_length() + result.denominator.bit_length()
            if isinstance(result, Fraction) else 0),
    "hydrogen.continuum_wave":
        lambda args, kwargs, result: (kwargs["q"] if "q" in kwargs else args[1],
                                      len(result.grid)),
    "potentials.solve_bound": lambda args, kwargs, result: len(result.grid),
}

# (label, lo, hi): a value v falls in the bucket when lo < v <= hi.
Z2_BUCKETS = [("n1-100", 0, 100), ("n101-1000", 100, 1000), ("n1001-2000", 1000, 2000)]
Q_BUCKETS = [("q0-1", 0.0, 1.0), ("q1-8", 1.0, 8.0), ("q8-", 8.0, float("inf"))]

LAYERS = ["exactalg", "ladder", "sumrules", "hydrogen", "oracle", "potentials"]


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # (function id, start, end, parent span index or -1, raised, observation)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (fid, start, clock(), parent, True, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = (fid, start, end, parent, False,
                          observe(args, kwargs, result) if observe else None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> int:
        """Wrap every public package function in every package namespace.

        Returns the number of functions wrapped.
        """
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}
        wrappers: dict[int, tuple[object, object]] = {}
        for mod_name, mod in modules.items():
            layer = mod_name.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod_name):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for mod in modules.values():
            for obj in vars(mod).values():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    raise RuntimeError(f"{obj.__qualname__} escaped the trace")
        return len(wrappers)


def _bucket_of(value, buckets):
    for label, lo, hi in buckets:
        if lo < value <= hi:
            return label
    return None


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict[str, float], dict[str, object]]:
    """Per-layer metrics and the exact counts used by the determinism check."""
    names = tracer.names
    spans = tracer.spans
    child = [0.0] * len(spans)
    for fid, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    calls: Counter[str] = Counter()
    errors: Counter[str] = Counter()
    total_s: defaultdict[str, float] = defaultdict(float)
    self_s: defaultdict[str, float] = defaultdict(float)   # by layer and by name
    top_s = 0.0
    z2_bits = 0
    z2_bucket_s: defaultdict[str, float] = defaultdict(float)
    z2_bucket_n: Counter[str] = Counter()
    wave_points = 0
    wave_q: set[float] = set()
    wave_bucket_s: defaultdict[str, float] = defaultdict(float)
    grid_points = 0
    for i, (fid, start, end, parent, raised, obs) in enumerate(spans):
        name = names[fid]
        dur = end - start
        calls[name] += 1
        errors[name] += raised
        total_s[name] += dur
        self_s[name.split(".", 1)[0]] += dur - child[i]
        self_s[name] += dur - child[i]
        if parent < 0:
            top_s += dur
        if obs is None:
            continue
        if name == "hydrogen.bound_bound_z2":
            z2_bits += obs[1]
            label = _bucket_of(obs[0], Z2_BUCKETS)
            if label:
                z2_bucket_s[label] += dur
                z2_bucket_n[label] += 1
        elif name == "hydrogen.continuum_wave":
            wave_points += obs[1]
            wave_q.add(obs[0])
            wave_bucket_s[_bucket_of(obs[0], Q_BUCKETS)] += dur
        elif name == "potentials.solve_bound":
            grid_points += obs

    waves = calls["hydrogen.continuum_wave"]
    m: dict[str, float] = {
        "cli.self_s": wall_s - top_s,
        "exactalg.apply_h.calls": calls["exactalg.apply_h"],
        "exactalg.solve_inhomogeneous.calls": calls["exactalg.solve_inhomogeneous"],
        "exactalg.overlap.calls": calls["exactalg.overlap"],
        "exactalg.self_s": self_s["exactalg"],
        "ladder.build_f_ladder.calls": calls["ladder.build_f_ladder"],
        "ladder.build_g_ladder.calls": calls["ladder.build_g_ladder"],
        "ladder.greens_negative_order.s": total_s["ladder.greens_negative_order"],
        "ladder.self_s": self_s["ladder"],
        "sumrules.constructive_value.calls": calls["sumrules.constructive_value"],
        "sumrules.coulomb_families.calls": calls["sumrules.coulomb_families"],
        "sumrules.self_s": self_s["sumrules"],
        "hydrogen.bound_bound_z2.calls": calls["hydrogen.bound_bound_z2"],
        "hydrogen.bound_bound_z2.s": total_s["hydrogen.bound_bound_z2"],
        "hydrogen.bound_bound_z2.result_kbits": z2_bits / 1000.0,
    }
    for label, _, _ in Z2_BUCKETS:
        n = z2_bucket_n[label]
        m[f"hydrogen.bound_bound_z2.us_per_call.{label}"] = 1e6 * z2_bucket_s[label] / n if n else 0.0
    m.update({
        "hydrogen.continuum_wave.calls": waves,
        "hydrogen.continuum_wave.s": total_s["hydrogen.continuum_wave"],
        "hydrogen.continuum_wave.points": wave_points,
        "hydrogen.continuum_wave.ns_per_point":
            1e9 * total_s["hydrogen.continuum_wave"] / wave_points if wave_points else 0.0,
        "hydrogen.continuum_wave.waves_per_q": waves / len(wave_q) if wave_q else 0.0,
    })
    for label, _, _ in Q_BUCKETS:
        m[f"hydrogen.continuum_wave.s.{label}"] = wave_bucket_s[label]
    m.update({
        "hydrogen.bound_free.calls":
            calls["hydrogen.bound_free_z2"] + calls["hydrogen.bound_free_amplitude_reduced"],
        "hydrogen.bound_free.s":
            total_s["hydrogen.bound_free_z2"] + total_s["hydrogen.bound_free_amplitude_reduced"],
        "hydrogen.continuum_z2_1s.calls": calls["hydrogen.continuum_z2_1s"],
        "hydrogen.errors": sum(v for k, v in errors.items() if k.startswith("hydrogen.")),
        "hydrogen.self_s": self_s["hydrogen"],
        "oracle.discrete_sum.calls": calls["oracle.discrete_sum"],
        "oracle.discrete_sum.self_s": self_s["oracle.discrete_sum"],
        # Every continuum integral goes through continuum_integral_with_error;
        # continuum_integral is a thin front for it.
        "oracle.continuum_integral.calls": calls["oracle.continuum_integral_with_error"],
        "oracle.continuum_integral.self_s":
            self_s["oracle.continuum_integral"]
            + self_s["oracle.continuum_integral_with_error"],
        "oracle.contour_check.s": total_s["oracle.contour_check"],
        "oracle.compare.calls": calls["oracle.compare"],
        "oracle.self_s": self_s["oracle"],
        "potentials.solve_bound.calls": calls["potentials.solve_bound"],
        "potentials.solve_bound.s": total_s["potentials.solve_bound"],
        "potentials.solve_bound.points": grid_points,
        "potentials.solve_bound.errors": errors["potentials.solve_bound"],
        "potentials.grid_overlap.calls": calls["potentials.grid_overlap"],
        "potentials.self_s": self_s["potentials"],
        "trace.spans": len(spans),
        "trace.layer_share": top_s / wall_s if wall_s > 0 else 0.0,
    })
    counts = {
        "calls": dict(sorted(calls.items())),
        "errors": dict(sorted((k, v) for k, v in errors.items() if v)),
        "z2_bits": z2_bits,
        "wave_points": wave_points,
        "wave_distinct_q": len(wave_q),
        "grid_points": grid_points,
    }
    return m, counts


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
