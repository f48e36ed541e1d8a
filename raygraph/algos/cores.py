"""Core number / k-core — degeneracy peeling.

Reference: ``cpp/src/cores/core_number_impl.cuh`` (328) /
``k_core_impl.cuh``; contract: core_number(v) = largest k with v in the
k-core of the undirected simple graph; k_core(G, k) = induced subgraph on
{v : core(v) ≥ k}.

Two paths, same result:

* **local** (V ≤ ``broadcast_limit``): the O(E) Batagelj–Zaveršnik bucket
  peel over driver arrays — fastest when the edge list fits the driver.
* **distributed** (default past the limit; force with
  ``broadcast_limit=0``): synchronized delta-peeling on the BSP engine —
  per sub-round every alive vertex with remaining degree ≤ k is peeled
  (core = k) and its neighbors' degrees are decremented via the message
  exchange; k advances to the global min alive degree between waves.
  Only V-sized state lives on any one worker; the driver holds scalars.
  Round count is the peeling depth (inherent to parallel k-core).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _core_number_distributed(graph, num_workers=None):
    import ray
    import ray.data as rd

    from raygraph.superstep import SuperstepEngine

    engine = SuperstepEngine(graph, num_workers=num_workers)
    try:
        ray.get([w.core_init.remote() for w in engine.workers])
        k = 0
        while True:
            mins = [
                m for m in ray.get(
                    [w.core_min_deg.remote() for w in engine.workers]
                )
                if m is not None
            ]
            if not mins:
                break
            k = max(k, min(mins))
            while True:
                stats, _ = engine._exchange(
                    "core_peel_scatter", "core_peel_update", scatter_args=(k,)
                )
                if sum(s["peeled"] for s in stats) == 0:
                    break
        ds = engine.result_dataset(["core"])
        import pyarrow as pa

        return ds.map_batches(
            lambda t: pa.table(
                {"vertex": t.column("vertex"), "core_number": t.column("core")}
            ),
            batch_format="pyarrow",
        )
    finally:
        engine.shutdown()


def core_number(graph, broadcast_limit: int = 20_000_000, num_workers=None,
                local_edge_limit: int = 50_000_000):
    """Returns Dataset (vertex, core_number) — exact.

    The sequential Batagelj–Zaveršnik path below materializes the EDGE
    list on the driver, so the gate is on ``num_edges`` (mirroring
    louvain's ``local_edge_limit``), not just V — a low-V/high-E graph
    must take the distributed delta-peel, which is forced-path tested.
    """
    import ray.data as rd

    if graph.directed:
        raise ValueError("core_number requires an undirected graph")
    V = graph.num_vertices
    if V > broadcast_limit or graph.num_edges > local_edge_limit:
        return _core_number_distributed(graph, num_workers=num_workers)
    t = graph.edge_table(["src", "dst"])
    src = t.column("src").to_numpy()
    dst = t.column("dst").to_numpy()
    keep = src != dst
    src, dst = src[keep], dst[keep]

    deg = np.bincount(src, minlength=V)
    # CSR for peeling
    order = np.argsort(src, kind="stable")
    adj_dst = dst[order]
    offsets = np.zeros(V + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=V), out=offsets[1:])

    # O(E) bucket peeling (Batagelj–Zaveršnik)
    core = deg.copy()
    md = int(deg.max()) if V else 0
    bin_start = np.zeros(md + 2, dtype=np.int64)
    np.cumsum(np.bincount(deg, minlength=md + 1), out=bin_start[1:])
    pos = np.argsort(deg, kind="stable")
    vert = pos.copy()
    loc = np.empty(V, dtype=np.int64)
    loc[vert] = np.arange(V)
    bin_ptr = bin_start.copy()

    d = core.copy()
    for i in range(V):
        v = vert[i]
        dv = d[v]
        core[v] = dv
        for j in range(offsets[v], offsets[v + 1]):
            u = adj_dst[j]
            if d[u] > dv:
                du = d[u]
                pu = loc[u]
                pw = bin_ptr[du]
                wv = vert[pw]
                if u != wv:
                    vert[pu], vert[pw] = wv, u
                    loc[u], loc[wv] = pw, pu
                bin_ptr[du] += 1
                d[u] -= 1
    return rd.from_pandas(
        pd.DataFrame({"vertex": np.arange(V, dtype=np.int64),
                      "core_number": core.astype(np.int64)})
    )


def k_core(graph, k: int, core_numbers=None,
           broadcast_limit: int = 20_000_000):
    """Edges of the k-core (both endpoints core ≥ k) — ``k_core_impl.cuh``.

    Small graphs (V ≤ ``broadcast_limit``) use the broadcast semi-join of
    :func:`raygraph.ops.induced_subgraph`; past the limit the V-sized core
    table never lands on the driver — the edges are semi-joined against
    the (core ≥ k) vertex Dataset on src then dst with the bucketed
    ``hash_join`` (two shuffles, all sides stay distributed).
    """
    import numpy as np
    import ray

    from raygraph import joins, ops

    cn_ds = core_numbers if core_numbers is not None else core_number(graph)
    if graph.num_vertices <= broadcast_limit:
        cn = cn_ds.to_pandas()
        keep = cn.loc[cn["core_number"] >= k, "vertex"].to_numpy(np.int64)
        return ops.induced_subgraph(graph, keep)

    keep_ds = cn_ds.map_batches(
        lambda df, kk=k: df.loc[df["core_number"] >= kk, ["vertex"]],
        batch_format="pandas",
    )
    edges = graph.edges_dataset(columns=["src", "dst", "weight"])
    on_src = keep_ds.map_batches(
        lambda df: df.rename(columns={"vertex": "src"}), batch_format="pandas"
    )
    on_dst = keep_ds.map_batches(
        lambda df: df.rename(columns={"vertex": "dst"}), batch_format="pandas"
    )
    half = joins.hash_join(edges, on_src, on="src")
    return joins.hash_join(half, on_dst, on="dst")
