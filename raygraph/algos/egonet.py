"""Batched ego graphs — k-hop induced neighborhoods around seed vertices.

Reference: ``python/cugraph/cugraph/community/egonet.py`` (batched_ego_graphs)
/ ``cpp/src/community/legacy/egonet.cu``: for each seed, the subgraph induced
on all vertices within ``radius`` hops.

Shape here: one depth-capped BFS per seed on the BSP engine (distances past
``radius`` are never labeled, so the reachable set falls out of the BFS
result with no post-filter scan), then an induced-subgraph semi-join of the
edge table against that seed's reachable set.  Ego sets are radius-bounded
and small by contract, so the semi-join broadcasts the vertex set
(``ops.induced_subgraph``); callers with huge ego sets can lower
``broadcast_limit`` to force the bucketed two-sided ``hash_join`` path
instead (same scale story as ``cores.k_core``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd


def batched_ego_graphs(graph, seeds: Sequence[int], radius: int = 1,
                       num_workers=None, broadcast_limit: int = 20_000_000,
                       local_edge_limit: int = 500_000):
    """Edges ``(seed, src, dst, weight)`` of each seed's radius-hop egonet.

    Returns one Dataset with a ``seed`` column (the reference's batched
    contract), unioned across seeds.  Small graphs run the per-seed BFS +
    induced filter on driver arrays (one edge pull instead of one engine
    spin-up per seed; ``local_edge_limit=0`` forces the engine path).
    """
    import ray.data  # noqa: F401  (Dataset union)

    from raygraph import joins, ops
    from raygraph.algos.traversal import bfs

    if (num_workers is None and graph.num_edges <= local_edge_limit
            and graph.num_vertices <= 2_000_000):
        import ray.data as rd

        V = graph.num_vertices
        t = graph.edge_table()
        src = t.column("src").to_numpy()
        dst = t.column("dst").to_numpy()
        w = t.column("weight").to_numpy()
        order = np.argsort(src, kind="stable")
        nbr = dst[order]
        indptr = np.zeros(V + 1, np.int64)
        indptr[1:] = np.cumsum(np.bincount(src, minlength=V))
        frames = []
        for seed in seeds:
            reach = np.zeros(V, dtype=bool)
            reach[int(seed)] = True
            cur = np.array([int(seed)], dtype=np.int64)
            for _ in range(radius):
                if not len(cur):
                    break
                p0 = indptr[cur]
                deg = indptr[cur + 1] - p0
                tot = int(deg.sum())
                if tot == 0:
                    break
                idx = np.repeat(p0, deg) + (
                    np.arange(tot) - np.repeat(np.cumsum(deg) - deg, deg)
                )
                heads = nbr[idx]
                new = np.unique(heads[~reach[heads]])
                reach[new] = True
                cur = new
            m = reach[src] & reach[dst]
            frames.append(
                pd.DataFrame(
                    {"seed": np.int64(int(seed)), "src": src[m],
                     "dst": dst[m], "weight": w[m]}
                )
            )
        out = pd.concat(frames, ignore_index=True) if frames else (
            pd.DataFrame({"seed": pd.Series(dtype=np.int64),
                          "src": pd.Series(dtype=np.int64),
                          "dst": pd.Series(dtype=np.int64),
                          "weight": pd.Series(dtype=np.float64)})
        )
        return rd.from_pandas(out[["seed", "src", "dst", "weight"]])

    outs = []
    for seed in seeds:
        res = bfs(graph, int(seed), num_workers=num_workers,
                  max_depth=radius)
        reach = res.map_batches(
            lambda df: df.loc[df["distance"] >= 0, ["vertex"]],
            batch_format="pandas",
        )
        if graph.num_vertices <= broadcast_limit:
            verts = reach.to_pandas()["vertex"].to_numpy(np.int64)
            edges = ops.induced_subgraph(graph, verts)
        else:
            e = graph.edges_dataset(columns=["src", "dst", "weight"])
            on_src = reach.map_batches(
                lambda df: df.rename(columns={"vertex": "src"}),
                batch_format="pandas",
            )
            on_dst = reach.map_batches(
                lambda df: df.rename(columns={"vertex": "dst"}),
                batch_format="pandas",
            )
            edges = joins.hash_join(
                joins.hash_join(e, on_src, on="src"), on_dst, on="dst"
            )
        outs.append(
            edges.map_batches(
                lambda df, s=int(seed): df.assign(
                    seed=np.int64(s))[["seed", "src", "dst", "weight"]],
                batch_format="pandas",
            )
        )
    out = outs[0]
    for o in outs[1:]:
        out = out.union(o)
    return out
