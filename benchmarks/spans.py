"""Spans recorded from outside the program, around its public functions.

``Tracer.wrap(module, attr, layer)`` replaces a module attribute with a
wrapper that records one span per call: layer name, start, end, parent span
and, while ``memory`` is on, the tracemalloc peak of the call above the
memory in use at entry.  Spans are kept in memory; ``summary`` turns them
into per-layer metrics and ``dump`` writes them out.

A layer's time is its self time: the span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager

MB = 1 << 20


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.memory = False
        self._restore = []

    @contextmanager
    def span(self, layer):
        sp = {"layer": layer, "parent": self.stack[-1] if self.stack else None,
              "info": {}, "peak_mb": None}
        sid = len(self.spans)
        self.spans.append(sp)
        if self.memory:
            if self.stack:
                parent = self.spans[self.stack[-1]]
                parent["_peak"] = max(parent["_peak"],
                                      tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            sp["_base"] = sp["_peak"] = tracemalloc.get_traced_memory()[0]
        self.stack.append(sid)
        sp["t0"] = time.perf_counter()
        try:
            yield sp
        finally:
            sp["t1"] = time.perf_counter()
            self.stack.pop()
            if self.memory:
                peak = max(sp.pop("_peak"), tracemalloc.get_traced_memory()[1])
                sp["peak_mb"] = (peak - sp.pop("_base")) / MB
                if self.stack:
                    parent = self.spans[self.stack[-1]]
                    parent["_peak"] = max(parent["_peak"], peak)
                tracemalloc.reset_peak()

    def wrap(self, module, attr, layer, info=None):
        """Trace calls to module.attr; info(args, kwargs, result) -> dict."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(layer) as sp:
                out = fn(*args, **kwargs)
                if info is not None:
                    sp["info"].update(info(args, kwargs, out))
            return out

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def unwrap(self):
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    own = [sp["t1"] - sp["t0"] for sp in spans]
    for sp in spans:
        if sp["parent"] is not None:
            own[sp["parent"]] -= sp["t1"] - sp["t0"]
    return own


def ops(spans):
    """Group spans by operation: each root span named "op" and the spans
    beneath it.  Spans under other roots (untimed calls) are left out."""
    groups, group_of = [], {}
    for sid, sp in enumerate(spans):
        if sp["parent"] is None:
            if sp["layer"] != "op":
                continue
            group_of[sid] = len(groups)
            groups.append([])
        elif sp["parent"] in group_of:
            group_of[sid] = group_of[sp["parent"]]
        else:
            continue
        groups[group_of[sid]].append(sid)
    return groups


def summary(spans):
    """Per-layer metrics from a traced run.

    Operations run under tracemalloc (their root span has a peak) give the
    memory peaks; the others give the times, as medians over operations of
    the per-operation sum over every call of the layer.  Counts come from
    the first operation, so they are exact for a seed.
    """
    own = self_times(spans)
    groups = ops(spans)
    per_op = []
    for group in groups:
        t = {}
        counts = {"swaps": 0, "slot_scans": 0, "scores": 0, "rows": 0}
        peaks = {}
        for sid in group:
            sp = spans[sid]
            layer, info = sp["layer"], sp["info"]
            t[layer] = t.get(layer, 0.0) + own[sid]
            if sp["peak_mb"] is not None:
                peaks[layer] = max(peaks.get(layer, 0.0), sp["peak_mb"])
            if layer == "ingest":
                counts["rows"] += info["rows"]
            if layer in ("exchange.alg1", "exchange.valg1"):
                rows = info.get("pool_rows")
                if rows is None:   # the pool was built inside the call
                    rows = next(spans[c]["info"]["rows"] for c in group
                                if spans[c]["parent"] == sid
                                and spans[c]["layer"] == "exchange.pool")
                scans = info["scans"]
                counts["swaps"] += info["swaps"]
                counts["slot_scans"] += scans
                counts["scores"] += scans * rows
                counts.setdefault("pool_rows", rows)
        root = spans[group[0]]
        op_s = root["t1"] - root["t0"]
        # the stages: everything but the op itself and the CLI around them
        covered = sum(v for name, v in t.items()
                      if name not in ("op", "cli.main"))
        per_op.append({"t": t, "counts": counts, "peaks": peaks,
                       "op_s": op_s, "cover": covered / op_s,
                       "memory": root["peak_mb"] is not None})
    timed = [o for o in per_op if not o["memory"]]
    peaks = {}
    for o in per_op:
        for layer, mb in o["peaks"].items():
            peaks[layer] = max(peaks.get(layer, 0.0), mb)

    def tmed(*layers):
        return statistics.median([sum(o["t"].get(x, 0.0) for x in layers)
                       for o in timed])

    def rate(count, *layers):
        vals = []
        for o in timed:
            busy = sum(o["t"].get(x, 0.0) for x in layers)
            vals.append(o["counts"][count] / busy if busy > 0 else 0.0)
        return statistics.median(vals)

    c, pk = timed[0]["counts"], peaks
    scans = c["slot_scans"]
    return {
        "ingest.s": tmed("ingest"),
        "ingest.rows_per_s": rate("rows", "ingest"),
        "ingest.peak_mb": pk.get("ingest", 0.0),
        "seeding.scale_s": tmed("seeding.scale"),
        "seeding.iboss_s": tmed("seeding.iboss"),
        "seeding.oss_s": tmed("seeding.oss"),
        "seeding.uniform_s": tmed("seeding.uniform"),
        "seeding.scale_peak_mb": pk.get("seeding.scale", 0.0),
        "seeding.oss_peak_mb": pk.get("seeding.oss", 0.0),
        "exchange.pool_s": tmed("exchange.pool"),
        "exchange.pool_rows": c.get("pool_rows", 0),
        "exchange.pool_peak_mb": pk.get("exchange.pool", 0.0),
        "exchange.alg1_s": tmed("exchange.alg1"),
        "exchange.valg1_s": tmed("exchange.valg1"),
        "exchange.peak_mb": max(pk.get("exchange.alg1", 0.0),
                                pk.get("exchange.valg1", 0.0)),
        "exchange.swaps": c["swaps"],
        "exchange.slot_scans": scans,
        "exchange.accept_ratio": c["swaps"] / scans if scans else 0.0,
        "exchange.scores": c["scores"],
        "exchange.scores_per_s": rate("scores", "exchange.alg1",
                                      "exchange.valg1"),
        "metrics.efficiency_s": tmed("metrics.efficiency"),
        "simulate.gen_s": tmed("simulate.gen"),
        "simulate.ols_s": tmed("simulate.ols"),
        "cli.overhead_s": tmed("cli.main"),
        "trace.op_s": statistics.median([o["op_s"] for o in timed]),
        "trace.cover": statistics.median([o["cover"] for o in timed]),
    }
