"""Label propagation (community LPA) — synchronous weighted-majority variant.

Absent from the reference (SURVEY.md §2.4); contract adopted from
Raghavan et al. 2007, made deterministic:

* init ``label[v] = v``
* per superstep, every vertex simultaneously takes the label with the
  maximum total incident edge weight among its neighbors; ties broken by the
  **minimum** label; vertices with no neighbors keep their label.
* stop when no label changes, or after ``max_iter`` supersteps (synchronous
  LPA can 2-cycle on bipartite structures, so hitting max_iter is NOT an
  error — the labels at max_iter are returned; with a fixed superstep count
  and tie rule the output is exactly reproducible, which is the
  "exact up to label canonicalization" test contract).

Nearest reference kin: the min-label fixpoint (``weak_cc.cuh:60-130``) and
Louvain's assign-to-best-cluster step (``louvain_impl.cuh:119-139``); the
(dst, label) two-level aggregation in the scatter is the same shape as
``per_v_transform_reduce_dst_key_aggregated_outgoing_e.cuh`` (the Louvain
prim built to tame high-degree vertices).

Output: Dataset ``(vertex:int64, label:int64)``.
"""

from __future__ import annotations

from typing import Optional

from raygraph.superstep import SuperstepEngine, gate_executor, get


def label_propagation(
    graph,
    max_iter: int = 30,
    num_workers: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    out_dir: Optional[str] = None,
    engine: Optional[SuperstepEngine] = None,
    local_edge_limit: int = 500_000,
):
    if graph.directed:
        raise ValueError(
            "label_propagation requires a symmetrized graph; build with directed=False"
        )
    own_engine = engine is None
    if own_engine:
        engine = SuperstepEngine(
            graph, num_workers=num_workers,
            checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
            executor=gate_executor(graph, num_workers, checkpoint_dir,
                                   resume, local_edge_limit),
        )
    else:
        # engine reuse: same-graph check + state reset (caller owns shutdown)
        if engine.graph is not graph and engine.graph.base_dir != graph.base_dir:
            raise ValueError("engine= was built over a different graph")
        engine._keep_alive = True  # result is a lazy handle; caller shuts down
        engine.reset()
    try:
        return _run(engine, max_iter, checkpoint_dir, resume, out_dir)
    finally:
        if own_engine:
            engine.shutdown()


def _run(engine, max_iter, checkpoint_dir, resume, out_dir):
    engine.wire_mirrors()
    get([w.lpa_init.remote() for w in engine.workers])

    start_iter = 0
    if resume and checkpoint_dir:
        latest = engine.latest_complete_iteration("lpa")
        if latest is not None:
            engine._restore("lpa", latest, ["labels"])
            start_iter = latest + 1

    import time

    for it in range(start_iter, max_iter):
        t0 = time.perf_counter()
        scatter_stats, update_stats = engine._exchange(
            "lpa_scatter", "lpa_update", mirror_names=("labels",)
        )
        changed = sum(s["changed"] for s in update_stats)
        wall = time.perf_counter() - t0
        if checkpoint_dir and (it % engine.checkpoint_every == 0 or changed == 0):
            engine._checkpoint(
                "lpa", it, ["labels"],
                {
                    "changed": changed,
                    "wall_sec": wall,
                    "rows_out": sum(s["rows_out"] for s in scatter_stats),
                    "rows_in": sum(s["rows_in"] for s in update_stats),
                    "shuffle_bytes": sum(s["bytes_out"] for s in scatter_stats),
                },
            )
        if changed == 0:
            break

    import pyarrow as pa

    ds = engine.result_dataset(["labels"], out_dir=out_dir)
    return ds.map_batches(
        lambda t: pa.table({"vertex": t.column("vertex"), "label": t.column("labels")}),
        batch_format="pyarrow",
    )
