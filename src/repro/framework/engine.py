"""Spark distributed engine for the block runtime.

A superstep is one Spark job over one input, the previous round's
output::

    out.groupBy("block").applyInPandas(round_fn, SCHEMA)
       .observe(obs, msgs, volume, changed)
       .localCheckpoint(eager=True)

Every output row is either a vertex's state (``kind = 's'``, keyed by its
owning block) or a message (``kind = 'm'``, keyed by the destination
block), so grouping the previous output by ``block`` hands each task its
block's state and its inbox together. ``round_fn`` splits the two by
``kind``, runs the shared
:func:`repro.framework.block_runtime.run_block_round` and emits the new
state rows and the outgoing message rows.

The round's message count, volume and changed-vertex count are
aggregated by a :class:`pyspark.sql.Observation` on the round output,
like Pregel aggregators: they arrive with the barrier instead of costing
extra actions.

The barrier is ``localCheckpoint(eager=True)``: it computes the round
once, keeps the rows in executor block storage and cuts the lineage.
This is safe because the plan has a single input. Catalyst's size-only
estimator takes the *product* of the children's ``sizeInBytes`` at
multi-child nodes, and a checkpoint keeps its plan's estimate, so a
cogroup of state and messages doubled the estimate's bit length every
round (by round ~25 each checkpoint spent minutes multiplying
million-digit integers). A chain of unary nodes passes the estimate
through unchanged.

A local checkpoint stays persisted until its RDD is unpersisted, which
``DataFrame.unpersist()`` does not do. The engine unpersists each
round's checkpoint once the next round is materialised, and the last
one when the run ends; :meth:`SparkEngine.close` frees the adjacency.

Vertex state, neighbor caches and message payloads travel as JSON columns
— the engine is generic over the program's value type.
"""
from __future__ import annotations

import json
from typing import Any

import pandas as pd
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.framework.block_runtime import (
    RunStats,
    VertexCtx,
    VertexProgram,
    VRec,
    init_block,
    run_block_round,
)
from repro.graphs.stats import clean_edges

_SCHEMA = (
    "kind string, block long, vid long, src long, payload string, "
    "in_nbrs string, out_nbrs string, consumers string, attrs string, "
    "value string, cache string, changed_round long, self_active boolean, "
    "size long"
)

def _recs_from_pdf(pdf: pd.DataFrame, program: VertexProgram) -> dict[int, VRec]:
    recs: dict[int, VRec] = {}
    for row in pdf.itertuples(index=False):
        ctx = VertexCtx(
            vid=int(row.vid),
            in_nbrs=tuple(json.loads(row.in_nbrs)),
            out_nbrs=tuple(json.loads(row.out_nbrs)),
            attrs=program.normalize_attrs(json.loads(row.attrs)),
        )
        rec = VRec(
            ctx=ctx,
            block=int(row.block),
            consumers=tuple((int(c), int(b)) for c, b in json.loads(row.consumers)),
            value=program.from_json_obj(json.loads(row.value)) if row.value else None,
            cache={
                int(k): program.from_json_obj(v)
                for k, v in json.loads(row.cache).items()
            },
            changed_round=int(row.changed_round),
            self_active=bool(row.self_active),
        )
        recs[ctx.vid] = rec
    return recs


def _rows_from_recs(
    recs: dict[int, VRec], program: VertexProgram
) -> list[dict[str, Any]]:
    rows = []
    for vid, r in recs.items():
        rows.append(
            {
                "kind": "s",
                "block": r.block,
                "vid": vid,
                "src": None,
                "payload": None,
                "in_nbrs": json.dumps(list(r.ctx.in_nbrs)),
                "out_nbrs": json.dumps(list(r.ctx.out_nbrs)),
                "consumers": json.dumps([list(c) for c in r.consumers]),
                "attrs": json.dumps(r.ctx.attrs),
                "value": json.dumps(program.to_json_obj(r.value)),
                "cache": json.dumps(
                    {str(k): program.to_json_obj(v) for k, v in r.cache.items()}
                ),
                "changed_round": r.changed_round,
                "self_active": r.self_active,
                "size": None,
            }
        )
    return rows


def _msg_rows(msgs, program: VertexProgram) -> list[dict[str, Any]]:
    return [
        {
            "kind": "m",
            "block": dblock,
            "vid": dvid,
            "src": svid,
            "payload": json.dumps(program.to_json_obj(payload)),
            "in_nbrs": None, "out_nbrs": None, "consumers": None,
            "attrs": None, "value": None, "cache": None,
            "changed_round": None, "self_active": None,
            "size": program.payload_size(payload),
        }
        for dblock, dvid, svid, payload in msgs
    ]


def _out_pdf(rows: list[dict[str, Any]]) -> pd.DataFrame:
    cols = [
        "kind", "block", "vid", "src", "payload", "in_nbrs", "out_nbrs",
        "consumers", "attrs", "value", "cache", "changed_round", "self_active",
        "size",
    ]
    return pd.DataFrame(rows, columns=cols)


def _barrier(df: DataFrame, round_no: int) -> tuple[DataFrame, int, int, int]:
    """Superstep barrier, the round's only Spark job: materialise ``df``
    as a local checkpoint and return it with the round's message count,
    volume and number of vertices changed in ``round_no``."""
    obs = Observation()
    out = df.observe(
        obs,
        F.count(F.when(F.col("kind") == "m", 1)).alias("msgs"),
        F.sum("size").alias("volume"),  # null on state rows
        F.count(F.when(F.col("changed_round") == round_no, 1)).alias("changed"),
    ).localCheckpoint(eager=True)
    m = obs.get
    # A sum over no rows is null.
    return out, m["msgs"], m["volume"] or 0, m["changed"]


def _free(checkpoint: DataFrame) -> None:
    """Unpersist the RDD behind a local checkpoint."""
    checkpoint._jdf.queryExecution().logical().rdd().unpersist(False)


class SparkEngine:
    """Distributed engine over an edges DataFrame ``(src, dst)``.

    ``partition`` maps vid -> block (a plain dict; one int per vertex is
    driver-sized even for large graphs, exactly like a partitioner's
    routing table). Results are collected back to the driver, as each
    phase of Algorithm 1/5 feeds the next.
    """

    def __init__(
        self,
        spark: SparkSession,
        edges: DataFrame,
        partition: dict[int, int],
        n_blocks: int | None = None,
    ):
        self.spark = spark
        self.partition = dict(partition)
        self.n_blocks = n_blocks or (max(partition.values()) + 1 if partition else 1)
        self.edges = e = clean_edges(edges)
        in_n = e.groupBy(F.col("dst").alias("vid")).agg(
            F.collect_list("src").alias("in_nbrs")
        )
        out_n = e.groupBy(F.col("src").alias("vid")).agg(
            F.collect_list("dst").alias("out_nbrs")
        )
        # Endpoints before the self-loop filter: a vertex whose only
        # edges are self-loops is still a vertex.
        src, dst = (F.col(c).cast("long").alias("vid") for c in edges.columns[:2])
        verts = edges.select(src).union(edges.select(dst)).distinct()
        adj = (
            verts.join(in_n, "vid", "left")
            .join(out_n, "vid", "left")
            .select(
                "vid",
                F.coalesce("in_nbrs", F.array()).alias("in_nbrs"),
                F.coalesce("out_nbrs", F.array()).alias("out_nbrs"),
            )
        )
        self._adj = adj.localCheckpoint(eager=True)
        # Driver-side adjacency for phase drivers (neighbor-attr maps).
        self.in_nbrs: dict[int, tuple] = {}
        self.out_nbrs: dict[int, tuple] = {}
        for row in self._adj.collect():
            self.in_nbrs[row["vid"]] = tuple(row["in_nbrs"])
            self.out_nbrs[row["vid"]] = tuple(row["out_nbrs"])
        self.vertices = sorted(self.in_nbrs)
        missing = [v for v in self.vertices if v not in self.partition]
        if missing:
            raise ValueError(f"partition misses vertices, e.g. {missing[:3]}")

    def close(self) -> None:
        """Free the adjacency checkpoint; the engine cannot run after."""
        _free(self._adj)

    def _initial_state(
        self, program: VertexProgram, attrs: dict[int, dict[str, Any]] | None
    ) -> DataFrame:
        part = self.partition
        attrs = attrs or {}

        def build(pdf: pd.DataFrame) -> pd.DataFrame:
            rows = []
            for row in pdf.itertuples(index=False):
                vid = int(row.vid)
                ctx = VertexCtx(
                    vid=vid,
                    in_nbrs=tuple(int(x) for x in row.in_nbrs),
                    out_nbrs=tuple(int(x) for x in row.out_nbrs),
                    attrs=attrs.get(vid, {}),
                )
                cons = [[int(c), part[int(c)]] for c in program.consumers(ctx)]
                rows.append(
                    {
                        "kind": "s",
                        "block": part[vid],
                        "vid": vid,
                        "src": None,
                        "payload": None,
                        "in_nbrs": json.dumps(list(ctx.in_nbrs)),
                        "out_nbrs": json.dumps(list(ctx.out_nbrs)),
                        "consumers": json.dumps(cons),
                        "attrs": json.dumps(ctx.attrs),
                        "value": json.dumps(None),
                        "cache": json.dumps({}),
                        "changed_round": 0,
                        "self_active": False,
                        "size": None,
                    }
                )
            return _out_pdf(rows)

        return self._adj.mapInPandas(
            lambda it: (build(pdf) for pdf in it), _SCHEMA
        )

    def run(
        self,
        program: VertexProgram,
        mode: str = "vertex",
        attrs: dict[int, dict[str, Any]] | None = None,
        max_rounds: int = 100_000,
    ) -> tuple[dict[int, Any], RunStats]:
        if mode not in ("vertex", "block"):
            raise ValueError(f"unknown mode {mode!r}")

        def init_fn(pdf: pd.DataFrame) -> pd.DataFrame:
            recs = _recs_from_pdf(pdf, program)
            bid = int(pdf["block"].iloc[0])
            msgs = init_block(bid, recs, program, mode)
            return _out_pdf(_rows_from_recs(recs, program) + _msg_rows(msgs, program))

        def make_round_fn(round_no: int):
            # One positional parameter: Spark dispatches on arity and would
            # pass the grouping key first to a two-parameter function.
            def round_fn(pdf: pd.DataFrame) -> pd.DataFrame:
                is_msg = pdf["kind"] == "m"
                recs = _recs_from_pdf(pdf[~is_msg], program)
                bid = int(pdf["block"].iloc[0])
                incoming = [
                    (
                        int(m.vid),
                        int(m.src),
                        program.from_json_obj(json.loads(m.payload)),
                    )
                    for m in pdf[is_msg].itertuples(index=False)
                ]
                _, out_msgs = run_block_round(
                    bid, recs, incoming, program, mode, round_no
                )
                return _out_pdf(
                    _rows_from_recs(recs, program) + _msg_rows(out_msgs, program)
                )

            return round_fn

        conf = self.spark.conf
        old_shuffle = conf.get("spark.sql.shuffle.partitions")
        conf.set("spark.sql.shuffle.partitions", str(max(self.n_blocks, 2)))
        stats = RunStats()
        out = None
        try:
            state0 = self._initial_state(program, attrs)
            out, n_msgs, vol, _ = _barrier(
                state0.groupBy("block").applyInPandas(init_fn, _SCHEMA), 0
            )
            stats.msgs_per_round.append(n_msgs)
            stats.changed_per_round.append(0)
            stats.volume_per_round.append(vol)

            for r in range(1, max_rounds + 1):
                prev = out
                out, n_msgs, vol, n_changed = _barrier(
                    prev.groupBy("block").applyInPandas(make_round_fn(r), _SCHEMA), r
                )
                _free(prev)
                stats.msgs_per_round.append(n_msgs)
                stats.changed_per_round.append(n_changed)
                stats.volume_per_round.append(vol)
                if n_msgs == 0 and n_changed == 0:
                    break
            else:
                raise RuntimeError(
                    f"{type(program).__name__} ({mode} mode): "
                    f"no convergence within {max_rounds} rounds"
                )

            values: dict[int, Any] = {}
            final = out.where(F.col("kind") == "s")
            for row in final.select("vid", "value", "changed_round").collect():
                values[row["vid"]] = program.from_json_obj(json.loads(row["value"]))
                stats.converge_round[row["vid"]] = row["changed_round"]
            return values, stats
        finally:
            if out is not None:
                _free(out)
            conf.set("spark.sql.shuffle.partitions", old_shuffle)
