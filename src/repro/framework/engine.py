"""Spark distributed engine for the block runtime.

A superstep is one Spark job over one input, the previous round's
output::

    out.groupBy("block").applyInPandas(round_fn, SCHEMA)
       .observe(obs, msgs, volume, changed)
       .localCheckpoint(eager=True)

Each block is one fragment, as on a GRAPE worker. Its state is one row
(``kind = 's'``) whose ``data`` is the pickled ``dict[int, VRec]`` that
:func:`repro.framework.block_runtime.run_block_round` reads and updates
(adjacency, consumers, attrs, value and neighbour cache), with the
number of vertices it changed that round in ``changed``. A round's
messages to one destination block are one row (``kind = 'm'``) whose
``data`` is the pickled list of ``(dst, src, payload)`` triples, with
the batch's message count in ``msgs`` and payload volume in ``volume``.
Grouping the previous output by ``block`` hands each task its block's
state and its inbox together. Values, attrs and payloads are plain
Python objects, so they round-trip exactly: tuples stay tuples and int
dict keys stay ints. ``data`` is only ever unpickled from bytes that this
run's own UDFs wrote.

The round's message count, volume and changed-vertex count are
summed by a :class:`pyspark.sql.Observation` on the round output,
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
"""
from __future__ import annotations

import os
import pickle
from collections import defaultdict
from typing import Any

import pandas as pd
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.framework.block_runtime import (
    Message,
    RunStats,
    VertexCtx,
    VertexProgram,
    VRec,
    init_block,
    run_block_round,
)
from repro.graphs.stats import clean_edges

_SCHEMA = (
    "kind string, block long, data binary, msgs long, volume long, changed long"
)


def _out_pdf(
    block_id: int,
    recs: dict[int, VRec],
    n_changed: int,
    msgs: list[Message],
    program: VertexProgram,
) -> pd.DataFrame:
    """A block's round output: its state row and one message batch per
    destination block."""
    batches: dict[int, list[tuple[int, int, Any]]] = defaultdict(list)
    for dblock, dvid, svid, payload in msgs:
        batches[dblock].append((dvid, svid, payload))
    rows = [("s", block_id, pickle.dumps(recs), 0, 0, n_changed)]
    for dblock, batch in batches.items():
        volume = sum(program.payload_size(p) for _, _, p in batch)
        rows.append(("m", dblock, pickle.dumps(batch), len(batch), volume, 0))
    return pd.DataFrame(rows)  # unnamed columns match _SCHEMA by position


def _barrier(df: DataFrame) -> tuple[DataFrame, int, int, int]:
    """Superstep barrier, the round's only Spark job: materialise ``df``
    as a local checkpoint and return it with the round's message count,
    volume and number of changed vertices."""
    obs = Observation()
    out = df.observe(
        obs, *(F.sum(c).alias(c) for c in ("msgs", "volume", "changed"))
    ).localCheckpoint(eager=True)
    m = obs.get
    # A sum over no rows is null.
    return out, m["msgs"] or 0, m["volume"] or 0, m["changed"] or 0


def _free(checkpoint: DataFrame) -> None:
    """Unpersist the RDD behind a local checkpoint."""
    checkpoint._jdf.queryExecution().logical().rdd().unpersist(False)


def get_spark(app: str) -> SparkSession:
    """The project's local SparkSession, for the jobs and the tests.

    Launch settings (read when the JVM starts, so only by the session
    that starts it) come from ``PYSPARK_SUBMIT_ARGS`` if set, else from
    ``SPARK_MASTER`` (default ``local[*]``) and ``SPARK_DRIVER_MEM``
    (default 8g). Session settings: Arrow on, broadcast joins off so
    joins exercise the shuffle path, and 16 shuffle partitions
    (:meth:`SparkEngine.run` sets one per block for its supersteps).
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 16)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


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

    def run(
        self,
        program: VertexProgram,
        mode: str = "vertex",
        attrs: dict[int, dict[str, Any]] | None = None,
        max_rounds: int = 100_000,
    ) -> tuple[dict[int, Any], RunStats]:
        if mode not in ("vertex", "block"):
            raise ValueError(f"unknown mode {mode!r}")

        part = self.partition
        attrs = attrs or {}

        def route(it):
            for pdf in it:
                yield pdf.assign(block=pdf["vid"].map(part))

        def init_fn(pdf: pd.DataFrame) -> pd.DataFrame:
            bid = int(pdf["block"].iloc[0])
            recs: dict[int, VRec] = {}
            for row in pdf.itertuples(index=False):
                vid = int(row.vid)
                ctx = VertexCtx(
                    vid=vid,
                    in_nbrs=tuple(int(x) for x in row.in_nbrs),
                    out_nbrs=tuple(int(x) for x in row.out_nbrs),
                    attrs=attrs.get(vid, {}),
                )
                cons = tuple((c, part[c]) for c in program.consumers(ctx))
                recs[vid] = VRec(ctx=ctx, block=bid, consumers=cons)
            msgs = init_block(bid, recs, program, mode)
            return _out_pdf(bid, recs, 0, msgs, program)

        def make_round_fn(round_no: int):
            # One positional parameter: Spark dispatches on arity and would
            # pass the grouping key first to a two-parameter function.
            def round_fn(pdf: pd.DataFrame) -> pd.DataFrame:
                bid = int(pdf["block"].iloc[0])
                recs: dict[int, VRec] = {}
                incoming: list[tuple[int, int, Any]] = []
                for kind, data in zip(pdf["kind"], pdf["data"]):
                    if kind == "s":
                        recs = pickle.loads(data)
                    else:
                        incoming += pickle.loads(data)
                changed, out_msgs = run_block_round(
                    bid, recs, incoming, program, mode, round_no
                )
                return _out_pdf(bid, recs, len(changed), out_msgs, program)

            return round_fn

        conf = self.spark.conf
        old_shuffle = conf.get("spark.sql.shuffle.partitions")
        conf.set("spark.sql.shuffle.partitions", str(max(self.n_blocks, 2)))
        stats = RunStats()
        out = None
        try:
            adj = self._adj.mapInPandas(
                route,
                "vid long, in_nbrs array<long>, out_nbrs array<long>, block long",
            )
            out, n_msgs, vol, _ = _barrier(
                adj.groupBy("block").applyInPandas(init_fn, _SCHEMA)
            )
            stats.msgs_per_round.append(n_msgs)
            stats.changed_per_round.append(0)
            stats.volume_per_round.append(vol)

            for r in range(1, max_rounds + 1):
                prev = out
                out, n_msgs, vol, n_changed = _barrier(
                    prev.groupBy("block").applyInPandas(make_round_fn(r), _SCHEMA)
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
            for row in out.where(F.col("kind") == "s").select("data").collect():
                for vid, rec in pickle.loads(row["data"]).items():
                    values[vid] = rec.value
                    stats.converge_round[vid] = rec.changed_round
            return values, stats
        finally:
            if out is not None:
                _free(out)
            conf.set("spark.sql.shuffle.partitions", old_shuffle)
