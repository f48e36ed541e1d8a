"""Minimum spanning tree / forest — distributed Borůvka.

Reference: ``python/cugraph/cugraph/tree/minimum_spanning_tree.py:57``
(``minimum_spanning_tree(G, algorithm='boruvka')``) backed by
``cpp/src/tree/mst.cu`` — returns the MSF edge list of an undirected
weighted graph; ``maximum_spanning_tree`` negates weights.

Ray mapping: classic Borůvka rounds over Datasets.  Edges carry their
endpoints' current component labels; per round each component selects its
minimum crossing edge (``agg.hash_argmin`` — one map-side combine + one
bucket shuffle), the selected pointer graph's cycles (all 2-cycles under
a strict total edge order) are broken into self-pointing roots, and
components merge by pointer doubling — O(log depth) self-joins of the
(comp, ptr) Dataset.  No driver-side edge, vertex or component state;
every stage is a bucketed hash join or combinable aggregate.

Ties are broken by the strict total order (weight, a, b) on canonical
internal edges, which makes the MSF unique — Kruskal under the same
order yields the identical edge set (pinned by pytest).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from raygraph import joins
from raygraph.agg import distinct, hash_argmin
from raygraph.lineage import cut_stats_lineage
from raygraph.algos.truss import _canonical_edges


def _nb(n: int) -> int:
    return int(min(32, max(4, n // 250_000 + 4)))


def _driver_roots(pairs: pd.DataFrame) -> pd.DataFrame:
    """Union-find over (comp, other) selected-edge pairs → (comp, root),
    root = min comp id of each merged group.  Driver path for pair sets
    under ``driver_limit`` (same hybrid as dedup's pair components)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.setdefault(r, r) != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(pairs["comp"].to_numpy(np.int64),
                    pairs["other"].to_numpy(np.int64)):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            # union by min id keeps labels deterministic
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    comps = np.fromiter(parent.keys(), dtype=np.int64, count=len(parent))
    roots = np.fromiter((find(int(c)) for c in comps), dtype=np.int64,
                        count=len(comps))
    return pd.DataFrame({"comp": comps, "root": roots})


def _distributed_roots(sel, nb: int):
    """Dataset (comp, p=root) via 2-cycle breaking + pointer doubling —
    the scale path past ``driver_limit`` (O(log depth) self-joins, no
    driver state).  Under the strict total edge order every pointer-graph
    cycle is a 2-cycle (the cycle's min edge is mutual), broken here into
    a self-pointing root at the smaller comp id."""
    ptr = sel.map_batches(
        lambda df: pd.DataFrame(
            {"comp": df["comp"].to_numpy(np.int64),
             "p": df["other"].to_numpy(np.int64)}
        ),
        batch_format="pandas",
    )
    back = ptr.map_batches(
        lambda df: pd.DataFrame(
            {"p": df["comp"].to_numpy(np.int64),
             "pp": df["p"].to_numpy(np.int64)}
        ),
        batch_format="pandas",
    )
    j = joins.hash_join(ptr, back, on="p", num_buckets=nb)

    def break_cycles(df: pd.DataFrame) -> pd.DataFrame:
        c = df["comp"].to_numpy(np.int64)
        p = df["p"].to_numpy(np.int64)
        pp = df["pp"].to_numpy(np.int64)
        root = (pp == c) & (c < p)  # mutual pair → smaller id is root
        return pd.DataFrame({"comp": c, "p": np.where(root, c, p)})

    P = cut_stats_lineage(
        j.map_batches(break_cycles, batch_format="pandas").materialize()
    )

    # pointer doubling to the roots: p ← p[p] halves chain depth
    for _ in range(64):
        hop = P.map_batches(
            lambda df: pd.DataFrame(
                {"p": df["comp"].to_numpy(np.int64),
                 "pp": df["p"].to_numpy(np.int64)}
            ),
            batch_format="pandas",
        )
        nxt = joins.hash_join(P, hop, on="p", num_buckets=nb).map_batches(
            lambda df: pd.DataFrame(
                {"comp": df["comp"].to_numpy(np.int64),
                 "p": df["pp"].to_numpy(np.int64),
                 "__moved": (df["p"].to_numpy(np.int64)
                             != df["pp"].to_numpy(np.int64)).astype(np.int64)}
            ),
            batch_format="pandas",
        ).materialize()
        cut_stats_lineage(nxt)
        moved = nxt.sum("__moved")
        P = cut_stats_lineage(nxt.drop_columns(["__moved"]).materialize())
        if not moved:
            return P
    raise RuntimeError("MST pointer doubling did not converge")


def _mst_local(graph, max_rounds):
    """Driver-local Borůvka replica: the same per-component argmin on
    (w, a, b), the same min-root union-find merge (only the PARTITION
    feeds later rounds, so root labels can't change the edge set), on
    numpy arrays — the chosen edges match the Dataset rounds exactly."""
    import ray.data as rd

    t = _canonical_edges(graph, local=True)
    a, b, w = (c.to_numpy() for c in t.columns)
    ca, cb = a.copy(), b.copy()
    V = max(graph.num_vertices, 1)
    out_a, out_b, out_w = [], [], []
    for _ in range(max_rounds):
        if len(a) == 0:
            break
        comp = np.concatenate([ca, cb])
        other = np.concatenate([cb, ca])
        ww, aa, bb = np.tile(w, 2), np.tile(a, 2), np.tile(b, 2)
        order = np.lexsort((bb, aa, ww, comp))
        cs = comp[order]
        pick = order[np.r_[True, cs[1:] != cs[:-1]]]
        # distinct (a, b, w): canonical pairs are unique per (a, b)
        _, di = np.unique(aa[pick] * V + bb[pick], return_index=True)
        out_a.append(aa[pick][di])
        out_b.append(bb[pick][di])
        out_w.append(ww[pick][di])
        roots = _driver_roots(
            pd.DataFrame({"comp": comp[pick], "other": other[pick]})
        )
        rk = roots["comp"].to_numpy(np.int64)
        rv = roots["root"].to_numpy(np.int64)
        o = np.argsort(rk)
        rk, rv = rk[o], rv[o]

        def relabel(c):
            pos = np.searchsorted(rk, c)
            posc = np.minimum(pos, len(rk) - 1) if len(rk) else pos
            hit = (len(rk) > 0) & (rk[posc] == c)
            out = c.copy()
            out[hit] = rv[posc[hit]]
            return out

        ca, cb = relabel(ca), relabel(cb)
        keep = ca != cb
        a, b, w, ca, cb = a[keep], b[keep], w[keep], ca[keep], cb[keep]
    else:
        raise RuntimeError(f"Borůvka did not settle in {max_rounds} rounds")
    if not out_a:
        return rd.from_pandas(
            pd.DataFrame({"src": pd.Series(dtype=np.int64),
                          "dst": pd.Series(dtype=np.int64),
                          "weight": pd.Series(dtype=np.float64)})
        )
    return rd.from_pandas(
        pd.DataFrame(
            {"src": np.concatenate(out_a), "dst": np.concatenate(out_b),
             "weight": np.concatenate(out_w)}
        )
    )


def minimum_spanning_tree(graph, max_rounds: int = 64,
                          driver_limit: int = 2_000_000,
                          local_edge_limit: int = 500_000):
    """MSF edges of an undirected weighted graph — Dataset
    (src, dst, weight) with src < dst (internal vids).

    Per Borůvka round the selected pointer set has one row per active
    component; under ``driver_limit`` rows the component merge runs as a
    driver union-find + broadcast relabel (one map pass, no shuffles —
    bounded by ONE int64 pair array, the dedup/k_core hybrid pattern);
    past it the fully distributed 2-cycle-break + pointer-doubling path
    takes over (``driver_limit=0`` forces it; pytest pins both paths
    equal)."""
    if graph.directed:
        raise ValueError("minimum_spanning_tree requires an undirected graph")

    if (graph.num_edges <= local_edge_limit
            and graph.num_vertices <= 2_000_000):
        return _mst_local(graph, max_rounds)

    # canonical (a < b) edges, min weight per pair (multi-edge rule: the
    # cheapest parallel edge is the only MST candidate)
    work = _canonical_edges(graph, local=False).map_batches(
        lambda df: pd.DataFrame(
            {"a": df["src"].to_numpy(np.int64),
             "b": df["dst"].to_numpy(np.int64),
             "w": df["weight"].to_numpy(np.float64),
             "ca": df["src"].to_numpy(np.int64),
             "cb": df["dst"].to_numpy(np.int64)}
        ),
        batch_format="pandas",
    ).materialize()
    n = work.count()
    chosen = []  # per-round MST edge Datasets (total ≤ V-1 rows)

    for _ in range(max_rounds):
        if n == 0:
            break
        nb = _nb(n)

        # each crossing edge bids for both endpoint components
        def bids(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"comp": np.concatenate([df["ca"].to_numpy(np.int64),
                                         df["cb"].to_numpy(np.int64)]),
                 "other": np.concatenate([df["cb"].to_numpy(np.int64),
                                          df["ca"].to_numpy(np.int64)]),
                 "w": np.tile(df["w"].to_numpy(np.float64), 2),
                 "a": np.tile(df["a"].to_numpy(np.int64), 2),
                 "b": np.tile(df["b"].to_numpy(np.int64), 2)}
            )

        sel = cut_stats_lineage(hash_argmin(
            work.map_batches(bids, batch_format="pandas"),
            ["comp"], ["w", "a", "b"], num_buckets=nb,
        ).materialize())

        chosen.append(cut_stats_lineage(
            distinct(
                sel.map_batches(
                    lambda df: df[["a", "b", "w"]], batch_format="pandas"
                ),
                ["a", "b", "w"], num_buckets=nb,
            ).materialize()
        ))

        nsel = sel.count()  # one row per active component
        if nsel <= driver_limit:
            # driver union-find + broadcast relabel: one map pass
            import ray

            pairs = sel.map_batches(
                lambda df: df[["comp", "other"]], batch_format="pandas"
            ).to_pandas()
            kv = joins.broadcast_map_ref(_driver_roots(pairs), "comp", "root")

            def relabel_bc(df: pd.DataFrame) -> pd.DataFrame:
                m = ray.get(kv)
                ca = joins.lookup_broadcast(df["ca"].to_numpy(np.int64), m)
                cb = joins.lookup_broadcast(df["cb"].to_numpy(np.int64), m)
                keep = ca != cb
                return pd.DataFrame(
                    {"a": df["a"].to_numpy(np.int64)[keep],
                     "b": df["b"].to_numpy(np.int64)[keep],
                     "w": df["w"].to_numpy(np.float64)[keep],
                     "ca": ca[keep], "cb": cb[keep]}
                )

            work = cut_stats_lineage(
                work.map_batches(relabel_bc, batch_format="pandas")
                .repartition(max(1, _nb(n) // 2))
                .materialize()
            )
        else:
            P = _distributed_roots(sel, nb)
            # relabel edge endpoints to their merged roots via two
            # bucketed joins; drop intra edges
            ra = P.map_batches(
                lambda df: pd.DataFrame(
                    {"ca": df["comp"].to_numpy(np.int64),
                     "ra": df["p"].to_numpy(np.int64)}
                ),
                batch_format="pandas",
            )
            rb = P.map_batches(
                lambda df: pd.DataFrame(
                    {"cb": df["comp"].to_numpy(np.int64),
                     "rb": df["p"].to_numpy(np.int64)}
                ),
                batch_format="pandas",
            )
            work = joins.hash_join(work, ra, on="ca", how="left",
                                   num_buckets=nb)
            work = joins.hash_join(work, rb, on="cb", how="left",
                                   num_buckets=nb)

            def relabel(df: pd.DataFrame) -> pd.DataFrame:
                ca = df["ra"].fillna(df["ca"]).to_numpy(np.int64)
                cb = df["rb"].fillna(df["cb"]).to_numpy(np.int64)
                keep = ca != cb
                return pd.DataFrame(
                    {"a": df["a"].to_numpy(np.int64)[keep],
                     "b": df["b"].to_numpy(np.int64)[keep],
                     "w": df["w"].to_numpy(np.float64)[keep],
                     "ca": ca[keep], "cb": cb[keep]}
                )

            work = cut_stats_lineage(
                work.map_batches(relabel, batch_format="pandas")
                .repartition(max(1, _nb(n) // 2))
                .materialize()
            )
        n = work.count()
    else:
        raise RuntimeError(f"Borůvka did not settle in {max_rounds} rounds")

    import ray.data as rd

    if not chosen:
        return rd.from_pandas(
            pd.DataFrame({"src": pd.Series(dtype=np.int64),
                          "dst": pd.Series(dtype=np.int64),
                          "weight": pd.Series(dtype=np.float64)})
        )
    out = chosen[0]
    for c in chosen[1:]:
        out = out.union(c)
    return out.map_batches(
        lambda df: pd.DataFrame(
            {"src": df["a"].to_numpy(np.int64),
             "dst": df["b"].to_numpy(np.int64),
             "weight": df["w"].to_numpy(np.float64)}
        ),
        batch_format="pandas",
    )


def maximum_spanning_tree(graph, max_rounds: int = 64,
                          driver_limit: int = 2_000_000):
    """Maximum spanning forest — reference
    ``tree/minimum_spanning_tree.py:116`` (negate-weights reduction).
    Tie order stays (−weight, a, b), so the result is again unique."""

    class _Neg:
        """Weight-negating view of the graph for the Borůvka pass."""

        def __init__(self, g):
            self._g = g
            self.directed = g.directed
            self.num_vertices = g.num_vertices
            self.num_edges = g.num_edges

        def edges_dataset(self, columns=None):
            ds = self._g.edges_dataset(columns=columns)
            if columns and "weight" not in columns:
                return ds

            def neg(df: pd.DataFrame) -> pd.DataFrame:
                df = df.copy()
                df["weight"] = -df["weight"].to_numpy(np.float64)
                return df

            return ds.map_batches(neg, batch_format="pandas")

        def edge_table(self, columns=("src", "dst", "weight")):
            import pyarrow.compute as pc

            t = self._g.edge_table(columns)
            if "weight" not in t.column_names:
                return t
            return t.set_column(t.column_names.index("weight"), "weight",
                                pc.negate(t.column("weight")))

    res = minimum_spanning_tree(_Neg(graph), max_rounds=max_rounds,
                                driver_limit=driver_limit)
    return res.map_batches(
        lambda df: df.assign(weight=-df["weight"].to_numpy(np.float64)),
        batch_format="pandas",
    )
