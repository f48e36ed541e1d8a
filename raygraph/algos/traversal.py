"""BFS and SSSP — frontier traversal supersteps.

Reference: ``cpp/src/traversal/bfs_impl.cuh`` (325) / ``sssp_impl.cuh``
(295); the frontier walk is the
``transform_reduce_v_frontier_outgoing_e_by_dst`` + ``update_v_frontier``
prim pair (SURVEY.md §2.3), realized here as active-masked scatter +
min-reduce + frontier update in the BSP engine.

Contracts:
* BFS output ``(vertex, distance:int64, predecessor:int64)``; unreached
  vertices get distance −1, predecessor −1; sources get predecessor −1.
  Deterministic: among equal-distance predecessors the minimum vertex id
  wins (packed (dist<<32 | pred) min-reduce).
* SSSP output ``(vertex, distance:float64, predecessor:int64)``;
  non-negative weights required (Bellman-Ford-style relaxation converges
  regardless, but the reference's delta-stepping contract assumes w ≥ 0).
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

import numpy as np
import pandas as pd
import ray

from raygraph.superstep import SuperstepEngine, gate_executor, get


def _run_frontier(engine, scatter, update, max_iter, mirror_names=(),
                  algo=None, states=(), checkpoint_dir=None, resume=False,
                  raise_on_limit=True):
    import time

    start_iter = 0
    if resume and checkpoint_dir and algo:
        latest = engine.latest_complete_iteration(algo)
        if latest is not None:
            engine._restore(algo, latest, list(states))
            start_iter = latest + 1
    for it in range(start_iter, max_iter):
        t0 = time.perf_counter()
        sc, upd = engine._exchange(scatter, update, mirror_names=mirror_names)
        changed = sum(u["changed"] for u in upd)
        if checkpoint_dir and algo and (
            it % engine.checkpoint_every == 0 or changed == 0
        ):
            engine._checkpoint(
                algo, it, list(states),
                {
                    "changed": changed,
                    "wall_sec": time.perf_counter() - t0,
                    "rows_out": sum(s["rows_out"] for s in sc),
                    "rows_in": sum(u["rows_in"] for u in upd),
                    "shuffle_bytes": sum(s["bytes_out"] for s in sc),
                },
            )
        if changed == 0:
            return it
    if raise_on_limit:
        raise RuntimeError(
            f"frontier loop did not settle in {max_iter} supersteps"
        )
    return max_iter - 1


def bfs(graph, sources: Sequence[int] | int, max_iter: int = 10_000,
        num_workers: Optional[int] = None, out_dir=None,
        checkpoint_dir: Optional[str] = None, checkpoint_every: int = 1,
        resume: bool = False, max_depth: Optional[int] = None,
        local_edge_limit: int = 500_000):
    """``max_depth`` caps expansion at that many hops (vertices farther out
    stay at distance −1) instead of raising — the k-hop/egonet contract.
    Small graphs run the same engine in the driver (``local_edge_limit=0``
    / ``num_workers=`` pin the actor pool)."""
    srcs = [sources] if isinstance(sources, int) else list(sources)
    engine = SuperstepEngine(
        graph, num_workers=num_workers,
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
        executor=gate_executor(graph, num_workers, checkpoint_dir,
                               resume, local_edge_limit),
    )
    if max_depth is not None:
        max_iter = min(max_iter, max_depth)
    try:
        engine.wire_mirrors()
        get([w.bfs_init.remote(srcs) for w in engine.workers])
        _run_frontier(engine, "bfs_scatter", "bfs_update", max_iter,
                      mirror_names=("bfs", "active"), algo="bfs",
                      states=("bfs", "active"),
                      checkpoint_dir=checkpoint_dir, resume=resume,
                      raise_on_limit=max_depth is None)
        get([w.bfs_result.remote() for w in engine.workers])
        ds = engine.result_dataset(["distance", "predecessor"], out_dir=out_dir)
        return ds
    finally:
        engine.shutdown()


def extract_bfs_paths(graph, bfs_result, destinations,
                      max_depth: int = 10_000, bfs_dir: Optional[str] = None):
    """Unwind source→destination paths from a BFS result.

    Reference: ``cpp/src/traversal/extract_bfs_paths_impl.cuh`` (the
    predecessor-unwind utility).  ``bfs_result`` is the (vertex, distance,
    predecessor) Dataset from :func:`bfs`; ``destinations`` a small id
    list.  Returns Dataset (dest:int64, pos:int64, vertex:int64) where
    ``pos`` is the 0-based position along the path from the source
    (pos == distance of that vertex).  Unreached destinations (distance
    −1) produce no rows.

    The BFS result is spilled once to a hash-partitioned hive layout
    (``part=<p>/``, p = ``part_of_vertex`` — the graph's own vertex
    partitioning) unless ``bfs_dir`` already points at one; each unwind
    hop then reads ONLY the partition directories owning the current
    frontier vertices (row-group-pruned parquet reads of O(|dests|)
    matching rows) instead of rescanning all V result rows per hop.
    """
    import tempfile
    import uuid

    import pyarrow.dataset as pads
    import ray.data as rd

    from raygraph.hashing import part_of_vertex

    P = graph.num_partitions
    if bfs_dir is None:
        bfs_dir = os.path.join(
            tempfile.gettempdir(), "raygraph", f"bfsp-{uuid.uuid4().hex[:12]}"
        )

        def addpart(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["part"] = part_of_vertex(
                df["vertex"].to_numpy(np.int64), P
            ).astype(np.int32)
            return df

        bfs_result.map_batches(addpart, batch_format="pandas").write_parquet(
            bfs_dir, partition_cols=["part"]
        )

    dests = np.unique(np.asarray(list(destinations), dtype=np.int64))
    out_rows = []
    cur = dests  # current vertex being resolved, aligned with dest
    dest_of = dests.copy()
    for _ in range(max_depth):
        if not len(cur):
            break
        need = np.unique(cur)
        pieces = []
        for p in np.unique(part_of_vertex(need, P)):
            pdir = os.path.join(bfs_dir, f"part={int(p)}")
            if not os.path.isdir(pdir):
                continue
            pieces.append(
                pads.dataset(pdir)
                .to_table(
                    columns=["vertex", "distance", "predecessor"],
                    filter=pads.field("vertex").isin(need),
                )
                .to_pandas()
            )
        rows = (
            pd.concat(pieces, ignore_index=True)
            if pieces
            else pd.DataFrame(
                {"vertex": pd.Series(dtype=np.int64),
                 "distance": pd.Series(dtype=np.int64),
                 "predecessor": pd.Series(dtype=np.int64)}
            )
        ).set_index("vertex")
        d = rows.loc[cur, "distance"].to_numpy(np.int64)
        p = rows.loc[cur, "predecessor"].to_numpy(np.int64)
        reached = d >= 0
        out_rows.append(
            pd.DataFrame(
                {"dest": dest_of[reached], "pos": d[reached],
                 "vertex": cur[reached]}
            )
        )
        cont = reached & (p >= 0)
        cur = p[cont]
        dest_of = dest_of[cont]
    result = (
        pd.concat(out_rows, ignore_index=True)
        if out_rows
        else pd.DataFrame({"dest": [], "pos": [], "vertex": []})
    )
    return rd.from_pandas(
        result.astype({"dest": np.int64, "pos": np.int64, "vertex": np.int64})
    )


def sssp(graph, sources: Sequence[int] | int, max_iter: int = 10_000,
         num_workers: Optional[int] = None, out_dir=None,
         checkpoint_dir: Optional[str] = None, checkpoint_every: int = 1,
         resume: bool = False, local_edge_limit: int = 500_000):
    srcs = [sources] if isinstance(sources, int) else list(sources)
    engine = SuperstepEngine(
        graph, num_workers=num_workers,
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
        executor=gate_executor(graph, num_workers, checkpoint_dir,
                               resume, local_edge_limit),
    )
    try:
        engine.wire_mirrors()
        get([w.sssp_init.remote(srcs) for w in engine.workers])
        _run_frontier(engine, "sssp_scatter", "sssp_update", max_iter,
                      mirror_names=("dist", "active"), algo="sssp",
                      states=("dist", "pred", "active"),
                      checkpoint_dir=checkpoint_dir, resume=resume)
        import pyarrow as pa

        ds = engine.result_dataset(["dist", "pred"], out_dir=out_dir)
        return ds.map_batches(
            lambda t: pa.table(
                {
                    "vertex": t.column("vertex"),
                    "distance": t.column("dist"),
                    "predecessor": t.column("pred"),
                }
            ),
            batch_format="pyarrow",
        )
    finally:
        engine.shutdown()


def multi_source_bfs(graph, sources: Sequence[int], depth_limit=None,
                     num_workers: Optional[int] = None, out_dir=None):
    """Concurrent BFS from many sources — the
    ``python/cugraph/cugraph/traversal/ms_bfs.py`` ``multi_source_bfs``
    contract: output ``(vertex, distance_<source>, ...)`` with one distance
    column per source (−1 for unreached / beyond ``depth_limit``).

    Sources run in waves of ≤64: within a wave, frontier membership is
    bit-packed into one uint64 per vertex, so a whole wave costs the same
    superstep message volume as a single BFS; waves beyond the first are
    stitched on with a bucketed hash join keyed by vertex.
    """
    from raygraph import joins

    srcs = list(dict.fromkeys(int(s) for s in sources))
    if not srcs:
        raise ValueError("multi_source_bfs needs at least one source")
    waves = [srcs[i:i + 64] for i in range(0, len(srcs), 64)]

    result = None
    for wave in waves:
        engine = SuperstepEngine(graph, num_workers=num_workers)
        try:
            engine.wire_mirrors()
            ray.get([w.msbfs_init.remote(wave) for w in engine.workers])
            max_iter = 10_000 if depth_limit is None else depth_limit
            _run_frontier(engine, "msbfs_scatter", "msbfs_update", max_iter,
                          raise_on_limit=depth_limit is None)
            names = ray.get(engine.workers[0].msbfs_finalize.remote())
            ray.get([w.msbfs_finalize.remote()
                     for w in engine.workers[1:]])
            ds = engine.result_dataset(
                names, out_dir=out_dir if len(waves) == 1 else None
            )
        finally:
            engine.shutdown()
        result = ds if result is None else joins.hash_join(
            result, ds, on="vertex"
        )
    if out_dir is not None and len(waves) > 1:
        result.write_parquet(out_dir)
    return result
