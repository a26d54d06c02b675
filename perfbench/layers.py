"""Outside-in layer trace for the benchmark's traced run.

The program carries no instrumentation. :class:`Tracer` wraps the public
boundaries of each module from outside (engine classes, block runtime
functions, program ``update`` methods, kernels, phase drivers and
pyspark's public actions) for the duration of a ``with`` block, and
restores every original on exit. It records busy time and call counts
at each boundary; a layer's self time is its span minus the child spans
it encloses.

Spark UDFs run in worker processes that import the program afresh, so
the worker side (block rounds, kernels, the JSON codec) is not visible
here: for Spark workloads those counters stay 0. Names that the UDF
closures pick up from module globals are left unpatched, so the closures
never pickle a wrapper.

The tracer also captures the arguments and results of the first
``capture_limit`` calls of each kernel, which :func:`replay` times in a
tight loop after the patches are gone.
"""
from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, Callable

from pyspark.sql.classic.dataframe import DataFrame as ClassicDataFrame
from pyspark.sql.readwriter import DataFrameWriter

import repro.core.anchored as anchored
import repro.core.decompose as decompose_mod
import repro.core.dindex as dindex
import repro.core.skyline as skyline
import repro.framework.local_engine as local_engine
from repro.framework.block_runtime import VertexProgram
from repro.framework.engine import SparkEngine
from repro.framework.partition import PARTITIONERS

pc = time.perf_counter

#: Program class -> metric prefix.
PROGRAMS = {
    anchored.HIndexProgram: "hindex",
    anchored.LUppProgram: "lupp",
    anchored.RefineProgram: "refine",
    skyline.SkylineProgram: "skyline",
}


def phase_name(program: VertexProgram, algo: str) -> str:
    """The RunStats key each engine run is recorded under by
    ``run_anchored`` / ``run_skyline``."""
    if isinstance(program, anchored.HIndexProgram):
        if algo == "AC":
            return "phase1"
        return "init_in" if program.consumes == "in" else "init_out"
    return {
        anchored.LUppProgram: "phase2",
        anchored.RefineProgram: "phase3",
        skyline.SkylineProgram: "dindex",
    }[type(program)]


@contextmanager
def _patched(owner: Any, attr: str, make: Callable[[Any], Any]):
    """Replace ``owner.attr`` (object attribute or dict key) by
    ``make(original)`` and restore it on exit."""
    if isinstance(owner, dict):
        orig = owner[attr]
        owner[attr] = make(orig)
        try:
            yield
        finally:
            owner[attr] = orig
        return
    own = attr in vars(owner)
    orig_raw = vars(owner)[attr] if own else None
    setattr(owner, attr, make(getattr(owner, attr)))
    try:
        yield
    finally:
        if own:
            setattr(owner, attr, orig_raw)
        else:
            delattr(owner, attr)


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


class Tracer:
    """Spans and counters at the program's public boundaries."""

    def __init__(self, algo: str, capture_limit: int = 0):
        self.algo = algo
        self.capture_limit = capture_limit
        self.time: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.write_s: list[float] = []
        self.block_updates: dict[int, int] = defaultdict(int)
        self.captures: dict[str, list[tuple]] = defaultdict(list)
        self._block: int | None = None
        self._engine_depth = 0
        self._spark_depth = 0
        self._payload_depth = 0

    # -- span helpers ---------------------------------------------------
    def _span(self, key: str, fn: Callable, *a, **kw):
        t0 = pc()
        try:
            return fn(*a, **kw)
        finally:
            self.time[key] += pc() - t0
            self.count[key] += 1

    def _capture(self, kind: str, item: tuple) -> None:
        if len(self.captures[kind]) < self.capture_limit:
            self.captures[kind].append(item)

    # -- wrappers -------------------------------------------------------
    def _engine_init(self, prefix: str):
        def make(orig):
            def __init__(eng, *a, **kw):
                self._engine_depth += 1
                try:
                    return self._span(f"{prefix}.init", orig, eng, *a, **kw)
                finally:
                    self._engine_depth -= 1
            return __init__
        return make

    def _engine_run(self, prefix: str):
        def make(orig):
            def run(eng, program, *a, **kw):
                phase = phase_name(program, self.algo)
                self._engine_depth += 1
                t0 = pc()
                try:
                    return orig(eng, program, *a, **kw)
                finally:
                    dt = pc() - t0
                    self._engine_depth -= 1
                    self.time[f"{prefix}.run"] += dt
                    self.time[f"phase.{phase}"] += dt
                    self.time["engine_runs"] += dt
            return run
        return make

    def _spark_action(self, orig):
        def action(obj, *a, **kw):
            if self._spark_depth:  # e.g. toPandas calling collect
                return orig(obj, *a, **kw)
            self._spark_depth += 1
            t0 = pc()
            try:
                return orig(obj, *a, **kw)
            finally:
                dt = pc() - t0
                self._spark_depth -= 1
                self.time["spark.action"] += dt
                self.count["spark.action"] += 1
                if self._engine_depth:
                    self.time["spark.in_engine"] += dt
        return action

    def _spark_write(self, orig):
        def parquet(writer, path, *a, **kw):
            self._spark_depth += 1
            t0 = pc()
            try:
                return orig(writer, path, *a, **kw)
            finally:
                dt = pc() - t0
                self._spark_depth -= 1
                self.write_s.append(dt)
                self.count["spark.written_bytes"] += _dir_bytes(str(path))
                if self._engine_depth:
                    self.time["spark.in_engine"] += dt
        return parquet

    def _phase_driver(self, orig):
        def driver(*a, **kw):
            before = self.time["engine_runs"]
            t0 = pc()
            try:
                return orig(*a, **kw)
            finally:
                inner = self.time["engine_runs"] - before
                self.time["phase.glue"] += pc() - t0 - inner
        return driver

    def _timed(self, key: str):
        def make(orig):
            def timed(*a, **kw):
                return self._span(key, orig, *a, **kw)
            return timed
        return make

    def _block_round(self, orig):
        def run_block_round(block_id, *a, **kw):
            self._block = block_id
            before = self.time["update_in_round"]
            t0 = pc()
            try:
                return orig(block_id, *a, **kw)
            finally:
                self._block = None
                inner = self.time["update_in_round"] - before
                self.time["runtime.block_round"] += pc() - t0 - inner
                self.count["runtime.block_round"] += 1
        return run_block_round

    def _update(self, prefix: str):
        def make(orig):
            def update(program, ctx, value, cache):
                snapshot = None
                if prefix in MICRO and len(self.captures[prefix]) < self.capture_limit:
                    snapshot = dict(cache)
                t0 = pc()
                new = orig(program, ctx, value, cache)
                dt = pc() - t0
                self.time[f"program.{prefix}.update"] += dt
                self.count[f"program.{prefix}.update"] += 1
                self.count["runtime.updates"] += 1
                if new != value:
                    self.count["runtime.useful_updates"] += 1
                if self._block is not None:
                    self.time["update_in_round"] += dt
                    self.block_updates[self._block] += 1
                if snapshot is not None:
                    self._capture(prefix, (orig, program, ctx, value, snapshot, new))
                return new
            return update
        return make

    def _payload_size(self, orig):
        def payload_size(program, value):
            if self._payload_depth:
                return orig(program, value)
            self._payload_depth += 1
            try:
                return self._span("runtime.payload_size", orig, program, value)
            finally:
                self._payload_depth -= 1
        return payload_size

    def _h_index(self, orig):
        def h_index(values):
            vals = list(values)
            out = self._span("kernel.h_index", orig, vals)
            self._capture("h_index", (orig, vals, out))
            return out
        return h_index

    def _d_index(self, orig):
        def n_order_d_index(in_sky, out_sky):
            out = self._span("kernel.d_index", orig, in_sky, out_sky)
            self._capture("d_index", (orig, in_sky, out_sky, out))
            return out
        return n_order_d_index

    # -- activation -----------------------------------------------------
    @contextmanager
    def active(self):
        patches = [
            (SparkEngine, "__init__", self._engine_init("engine")),
            (SparkEngine, "run", self._engine_run("engine")),
            (local_engine.LocalEngine, "__init__", self._engine_init("local_engine")),
            (local_engine.LocalEngine, "run", self._engine_run("local_engine")),
            (DataFrameWriter, "parquet", self._spark_write),
            (ClassicDataFrame, "collect", self._spark_action),
            (ClassicDataFrame, "count", self._spark_action),
            (ClassicDataFrame, "toPandas", self._spark_action),
            (PARTITIONERS, "hash", self._timed("partition")),
            (decompose_mod, "run_anchored", self._phase_driver),
            (decompose_mod, "run_skyline", self._phase_driver),
            (decompose_mod, "anchored_to_skyline", self._timed("decompose.convert")),
            (decompose_mod, "skyline_to_anchored", self._timed("decompose.convert")),
            (local_engine, "run_block_round", self._block_round),
            (VertexProgram, "payload_size", self._payload_size),
            (anchored, "h_index", self._h_index),
            (dindex, "h_index", self._h_index),
            (skyline, "n_order_d_index", self._d_index),
        ] + [(cls, "update", self._update(p)) for cls, p in PROGRAMS.items()]
        with ExitStack() as stack:
            for owner, attr, make in patches:
                stack.enter_context(_patched(owner, attr, make))
            yield self

    # -- report ---------------------------------------------------------
    def metrics(self, calls: int) -> dict[str, float]:
        """Per-call means of everything recorded over ``calls`` traced
        decompositions."""
        t, n = self.time, self.count
        per = lambda x: x / calls  # noqa: E731
        writes = sorted(self.write_s)
        supersteps = len(writes)
        written_mb = n["spark.written_bytes"] / 1e6
        updates = n["runtime.updates"]
        blocks = list(self.block_updates.values())
        engine_s = t["engine.init"] + t["engine.run"]
        m = {
            "partition.s": per(t["partition"]),
            "engine.init_s": per(t["engine.init"]),
            "engine.run_s": per(t["engine.run"]),
            "spark.writes": per(supersteps),
            "spark.write_s": per(sum(writes)),
            "spark.write_p50_s": statistics.median(writes) if writes else 0.0,
            "spark.write_max_s": writes[-1] if writes else 0.0,
            "spark.written_mb": per(written_mb),
            "spark.written_mb_per_superstep": written_mb / supersteps if supersteps else 0.0,
            "spark.actions": per(n["spark.action"]),
            "spark.action_s": per(t["spark.action"]),
            "engine.driver_self_s": per(engine_s - t["spark.in_engine"]),
            "local_engine.init_s": per(t["local_engine.init"]),
            "local_engine.run_s": per(t["local_engine.run"]),
            "runtime.block_rounds": per(n["runtime.block_round"]),
            "runtime.block_round_self_s": per(t["runtime.block_round"]),
            "runtime.updates": per(updates),
            "runtime.useful_update_ratio": n["runtime.useful_updates"] / updates if updates else 0.0,
            "runtime.block_work_skew": max(blocks) / statistics.mean(blocks) if blocks else 0.0,
            "runtime.payload_size_calls": per(n["runtime.payload_size"]),
            "runtime.payload_size_s": per(t["runtime.payload_size"]),
            "kernel.h_index_calls": per(n["kernel.h_index"]),
            "kernel.h_index_s": per(t["kernel.h_index"]),
            "kernel.d_index_calls": per(n["kernel.d_index"]),
            "kernel.d_index_s": per(t["kernel.d_index"]),
            "phase.glue_s": per(t["phase.glue"]),
            "decompose.convert_s": per(t["decompose.convert"]),
        }
        for prefix in PROGRAMS.values():
            key = f"program.{prefix}.update"
            m[f"{key}_calls"] = per(n[key])
            m[f"{key}_s"] = per(t[key])
        for phase in ("phase1", "phase2", "phase3", "init_in", "init_out", "dindex"):
            m[f"phase.{phase}_s"] = per(t[f"phase.{phase}"])
        return m


#: Captured kernel -> micro metric name.
MICRO = {
    "h_index": "micro.h_index_us",
    "d_index": "micro.d_index_us",
    "lupp": "micro.lupp_update_us",
    "refine": "micro.refine_update_us",
}


def _replay_once(kind: str, items: list[tuple]) -> bool:
    """Run every captured call once; True iff each output matches."""
    ok = True
    if kind == "h_index":
        for fn, vals, out in items:
            ok &= fn(vals) == out
    elif kind == "d_index":
        for fn, ins, outs, out in items:
            ok &= fn(ins, outs) == out
    else:
        for fn, program, ctx, value, cache, out in items:
            ok &= fn(program, ctx, value, cache) == out
    return ok


def replay(captures: dict[str, list[tuple]], passes: int = 5) -> tuple[dict[str, float], list[str]]:
    """Microseconds per call (median over ``passes``) for each captured
    kernel, plus the kernels whose replayed output differed."""
    out = {name: 0.0 for name in MICRO.values()}
    bad: list[str] = []
    for kind, items in captures.items():
        if not items:
            continue
        per_call = []
        for _ in range(passes):
            t0 = pc()
            if not _replay_once(kind, items):
                bad.append(kind)
                break
            per_call.append((pc() - t0) / len(items) * 1e6)
        if per_call:
            out[MICRO[kind]] = statistics.median(per_call)
    return out, bad
