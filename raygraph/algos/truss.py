"""K-truss subgraph — iterative triangle-support peeling.

Reference: ``cpp/src/community/legacy/ktruss.cu`` (python API
``community/ktruss_subgraph.py:41``): the k-truss is the maximal subgraph
in which every edge participates in ≥ k−2 triangles *within the
subgraph*.  The reference ships golden outputs
(``datasets/ref/ktruss/{polbooks,netscience}.csv``, k=5) which our test
replays.

Ray mapping: per round, per-edge triangle support comes from the wedge
kernel shared with ``triangle_count`` (:func:`raygraph.algos.triangles._wedges`:
each triangle found once, at its lowest-ranked corner, crediting its three
canonical edges), then edges below k−2 are dropped; repeat to fixpoint.
The kernel ranks vertices locally, so no stage depends on V.  Two
executors: graphs with ≤ ``local_edge_limit`` stored edges peel on the
driver table (:func:`_k_truss_local`); larger ones run the kernel per
``hash(apex)`` bucket between a degree aggregate, two joins and a
support count (:func:`_support_ds`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raygraph import joins
from raygraph.agg import hash_aggregate
from raygraph.algos.triangles import _wedges
from raygraph.lineage import cut_stats_lineage

_EDGES = pa.schema({"src": pa.int64(), "dst": pa.int64(),
                    "weight": pa.float64()})


def _canonical_edges(graph, local: bool):
    """Undirected stored-both-directions edges → one canonical (src<dst)
    row per edge, min weight (matches the symmetrize dedup rule): a driver
    ``pa.Table`` when ``local``, else a Dataset (one dedup shuffle)."""
    from raygraph.graph import _combine, dedup_edges

    def canon(t: pa.Table) -> pa.Table:
        # drops self-loops and the reversed copies
        return t.filter(pc.less(t.column("src"), t.column("dst")))

    if local:
        return _combine(canon(graph.edge_table(_EDGES.names)), "min")
    e = graph.edges_dataset(columns=list(_EDGES.names))
    return dedup_edges(e.map_batches(canon, batch_format="pyarrow"), "min")


def _support_ds(e, num_buckets: int):
    """Per-canonical-edge triangle support of the materialized (src, dst,
    weight) Dataset ``e`` (src < dst) → (src, dst, support), edges in no
    triangle omitted.  Every apex's rows land in one bucket, so the kernel
    sees each adjacency whole."""
    both = e.map_batches(
        lambda t: pa.concat_tables([
            t.select(["src", "dst"]),
            t.select(["dst", "src"]).rename_columns(["src", "dst"])]),
        batch_format="pyarrow",
    )
    deg = hash_aggregate(both, ["src"], {"deg": (None, "count")},
                         num_buckets=num_buckets)
    rows = joins.hash_join(both, deg.rename_columns({"src": "dst"}),
                           on="dst", num_buckets=num_buckets)

    empty = pa.schema({"apex": pa.int64(), "src": pa.int64(),
                       "dst": pa.int64()}).empty_table()
    wedges = joins.bucket_exchange(
        rows, ["src"], lambda t: pa.concat_tables([empty, *_wedges(t)]),
        num_buckets)
    tri = joins.hash_join(wedges, e, on=["src", "dst"],
                          num_buckets=num_buckets)

    def credit(t: pa.Table) -> pa.Table:
        # each triangle credits its three canonical (min,max) edges
        u, a, b = (t.column(c).to_numpy() for c in ("apex", "src", "dst"))
        return pa.table({
            "src": np.concatenate([np.minimum(u, a), np.minimum(u, b), a]),
            "dst": np.concatenate([np.maximum(u, a), np.maximum(u, b), b]),
        })

    return hash_aggregate(
        tri.map_batches(credit, batch_format="pyarrow"), ["src", "dst"],
        {"support": (None, "count")}, num_buckets=num_buckets,
    )


def _k_truss_local(src, dst, w, k: int, max_rounds: int):
    """All-numpy peel over canonical (src<dst) edge arrays — bit-equal to
    the Dataset rounds (the k-truss is the UNIQUE maximal subgraph, so
    any correct peel converges to the same edge set).  Per round: rank
    the vertices locally, run :func:`_wedges` once, close each wedge
    against the sorted packed canonical key, credit the three edge ids
    of each triangle, drop edges below k−2."""
    for _ in range(max_rounds):
        E = len(src)
        if E == 0:
            break
        verts = np.unique(np.concatenate([src, dst]))
        nv = len(verts)
        si = np.searchsorted(verts, src)
        di = np.searchsorted(verts, dst)
        deg = np.bincount(si, minlength=nv) + np.bincount(di, minlength=nv)
        ksort = np.argsort(si * nv + di)
        ksorted = (si * nv + di)[ksort]

        def eid(x, y):
            return ksort[np.searchsorted(ksorted, x * nv + y)]

        support = np.zeros(E, np.int64)
        heads = np.concatenate([di, si])
        for t in _wedges(pa.table({"src": np.concatenate([si, di]),
                                   "dst": heads, "deg": deg[heads]})):
            u, a, b = (t.column(c).to_numpy() for c in ("apex", "src", "dst"))
            wkey = a * nv + b
            pos = np.minimum(np.searchsorted(ksorted, wkey), E - 1)
            hit = ksorted[pos] == wkey
            u, a, b = u[hit], a[hit], b[hit]
            cred = np.concatenate([
                ksort[pos[hit]],
                eid(np.minimum(u, a), np.maximum(u, a)),
                eid(np.minimum(u, b), np.maximum(u, b)),
            ])
            support += np.bincount(cred, minlength=E)
        keep = support >= k - 2
        if keep.all():
            break
        src, dst, w = src[keep], dst[keep], w[keep]
    else:
        raise RuntimeError(f"k_truss did not settle in {max_rounds} rounds")
    return src, dst, w


def k_truss(graph, k: int, max_rounds: int = 100,
            local_edge_limit: int = 10_000_000):
    """K-truss subgraph edges — Dataset (src, dst, weight), canonical
    src < dst, every edge in ≥ k−2 triangles of the result.

    Graphs with ≤ ``local_edge_limit`` stored edges (both directions)
    peel in numpy on the driver table (identical result — the k-truss is
    unique); the Dataset rounds are the scale path (pass 0 to force
    them)."""
    import ray.data as rd

    if graph.directed:
        raise ValueError("k_truss requires an undirected graph")
    if graph.num_edges <= local_edge_limit:
        t = _canonical_edges(graph, local=True)
        src, dst, w = _k_truss_local(
            *(t.column(c).to_numpy() for c in _EDGES.names), k, max_rounds)
        return rd.from_pandas(pd.DataFrame({"src": src, "dst": dst,
                                            "weight": w}))
    e = cut_stats_lineage(_canonical_edges(graph, local=False).materialize())
    n = e.count()
    for _ in range(max_rounds):
        if n == 0 or k <= 2:
            break
        # bucket/block counts follow the shrinking edge set — without this
        # each round's bucketed joins shatter a tiny edge list into dozens
        # of near-empty blocks and scheduling overhead dominates
        nb = int(min(64, max(4, n // 250_000 + 4)))
        # cut_stats_lineage: keep the per-round stats walk O(round size) —
        # without it Ray's unmemoized to_summary walk over the join/union
        # diamonds compounds exponentially across peel rounds (driver hang)
        support = cut_stats_lineage(
            _support_ds(e, nb)
            .filter(expr=f"support >= {k - 2}")
            .materialize()
        )
        if support.count() == 0:
            n = 0  # no edge keeps enough triangles
            break
        nblocks = int(min(32, max(1, n // 500_000 + 1)))
        e = cut_stats_lineage(
            joins.hash_join(e, support, on=["src", "dst"], num_buckets=nb)
            .map_batches(lambda t: t.select(list(_EDGES.names)),
                         batch_format="pyarrow")
            .repartition(nblocks)
            .materialize()
        )
        n_new = e.count()
        if n_new == n:
            break
        n = n_new
    else:
        raise RuntimeError(f"k_truss did not settle in {max_rounds} rounds")
    # peeled to empty: Ray drops the schema of all-empty results — hand
    # back a typed empty dataset instead
    return e if n else rd.from_arrow(_EDGES.empty_table())
