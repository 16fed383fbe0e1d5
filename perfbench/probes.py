"""Wrappers around calls into vanetsim's layers, installed from outside.

Nothing here edits the package: ``instrument`` swaps module functions
and class methods for thin wrappers and puts the originals back on exit.
Callers inside vanetsim look these names up at call time (``roadnet.
shortest_path``, ``self.router(...)``, ``self.comm.step(...)``), so the
wrappers see every call.

Two things can be installed:

* a ``Recorder`` (always on, untraced runs too) keeps what the output
  checks need: every cell solution's iterations, residual and saturation,
  and every DES replication's conservation counters;
* a ``Tracer`` (traced runs only) records one span per call at each layer
  boundary, in memory, plus counts that have no span of their own.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from vanetsim import (cli, ecorouting, energy, mac_analytic, mac_des, records, roadnet,
                      traffic)


class Recorder:
    """Per-call results the output checks read after a repeat."""

    def __init__(self):
        self.solve_calls = 0
        # (iterations, residual, saturated) per solution
        self.solutions: list[tuple[int, float, bool]] = []
        self.des_calls = 0
        self.replications: list[tuple[int, int, int, int, int, int]] = []


class Tracer:
    """Spans kept in memory: (name, parent index, start, end); root parent -1."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.runs: list = []        # (sim, comm) pairs built during the repeat
        self._stack = [-1]

    def spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, durations."""
        child = [0.0] * len(self.spans)
        for _name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, _parent, t0, t1) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "durations": []})
            dur = t1 - t0
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child[i]
            agg["durations"].append(dur)
        return out

    def top_level_s(self) -> float:
        return sum(t1 - t0 for _name, parent, t0, t1 in self.spans if parent < 0)

    def write(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("id\tparent\tname\tstart_us\tdur_us\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fp.write(f"{i}\t{parent}\t{name}\t{(t0 - origin) * 1e6:.1f}\t"
                         f"{(t1 - t0) * 1e6:.1f}\n")


# span name -> (owner, attribute); the layer boundaries the benchmark times
SPANS = {
    "traffic.step": (traffic.Simulation, "step"),
    "router.query": (ecorouting.EcoRouter, "__call__"),
    "comm.step": (ecorouting.CommModule, "step"),
    "roadnet.count_per_rsu": (roadnet.CoverageIndex, "count_per_rsu"),
    "roadnet.place_rsus": (roadnet, "place_rsus"),
    "energy.vt_micro_rate": (energy, "vt_micro_rate"),
    "mac_analytic.solve": (mac_analytic, "solve"),
    "mac_des.simulate": (mac_des, "simulate"),
    "records.write_record": (records, "write_record"),
    "records.write_table": (records, "write_table"),
    "records.write_meta": (records, "write_meta"),
}


@contextmanager
def instrument(rec: Recorder, tracer: Tracer | None = None):
    saved = []

    def patch(owner, attr, make):
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def record_solve(fn):
        def wrapper(*args, **kwargs):
            rec.solve_calls += 1
            sol = fn(*args, **kwargs)
            rec.solutions.append((sol.iterations, sol.residual, sol.t_delay is None))
            return sol
        return wrapper

    def record_des(fn):
        def wrapper(*args, **kwargs):
            rec.des_calls += 1
            st = fn(*args, **kwargs)
            rec.replications.append((st.generated, st.delivered, st.rejected,
                                     st.retry_dropped, st.in_system, st.attempts))
            return st
        return wrapper

    patch(mac_analytic, "solve", record_solve)
    patch(mac_des, "simulate", record_des)
    if tracer is not None:
        for name, (owner, attr) in SPANS.items():
            patch(owner, attr, lambda fn, name=name: tracer.spanned(name, fn))

        def count_relaxations(fn):
            counts = tracer.counts
            counts.setdefault("roadnet.sp_relaxations", 0)

            def wrapper(network, origin, destination, weight):
                def counted_weight(link):
                    counts["roadnet.sp_relaxations"] += 1
                    return weight(link)
                return fn(network, origin, destination, counted_weight)
            return tracer.spanned("roadnet.shortest_path", wrapper)

        def capture(fn):
            def wrapper(*args, **kwargs):
                sim, table, comm = fn(*args, **kwargs)
                tracer.runs.append((sim, comm))
                return sim, table, comm
            return wrapper

        patch(roadnet, "shortest_path", count_relaxations)
        patch(roadnet.CoverageIndex, "connected_rsu",
              lambda fn: tracer.counted("roadnet.connected_rsu_calls", fn))
        for attr in ("write_record", "write_table", "write_meta"):
            patch(records, attr, lambda fn: _count_bytes(tracer, fn))
        patch(cli, "build_run", capture)
    try:
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _count_bytes(tracer: Tracer, fn):
    counts = tracer.counts
    counts.setdefault("records.bytes", 0)

    def wrapper(path, *args, **kwargs):
        fn(path, *args, **kwargs)
        counts["records.bytes"] += os.path.getsize(path)
    return wrapper
