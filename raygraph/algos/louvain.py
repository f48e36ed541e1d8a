"""Louvain community detection — modularity-maximizing hierarchy.

Reference: ``cpp/src/community/louvain_impl.cuh:46-303`` (python API
``community/louvain.py:23``): per level, iterate an assign-to-best-cluster
sweep, then contract the graph by cluster (``coarsen_graph``) and recurse;
returns ``(df[vertex, partition], modularity)``.

Ray mapping (the Louvain prim
``per_v_transform_reduce_dst_key_aggregated_outgoing_e.cuh`` is a two-level
reduction — exactly our combiner + bucketed aggregate):

* per sweep: edges ⋈ community-of-dst → aggregate by (src, community) →
  per-src vectorized argmax of the modularity gain → synchronous accepted
  moves, guarded by a modularity check (synchronous parallel sweeps can
  oscillate; the reference's sequential consistency is recovered by the
  guard + alternating hash-parity half-sweeps).
* contract: map both endpoints to their community label, combine parallel
  edges summing weights (``coarsen_graph_impl.cuh`` semantics).

**Scale contract (the MG shape, ``dask/community/louvain.py:53``): the
driver holds SCALARS only on the distributed path.**  All vertex state —
community label, weighted degree, community totals, the per-level
assignment of original vertices — lives in bounded Datasets:

* state ``S = (vertex, comm, k)`` is a Dataset; community totals are one
  bucketed aggregate of S; candidate scores attach via bucketed joins;
  the per-src argmax runs in ``groupby(hash(src))`` groups; accepted
  moves apply through one more join.  Modularity is a distributed scalar
  (per-batch internal-weight partials + a Σsig² partial over the
  community-totals Dataset).
* the original-vertex assignment ``A = (vertex, cur)`` composes with each
  level's (vertex → comm) mapping by a bucketed left join — never an
  array.

Community ids are **label values in the vertex-id domain** (a community
is named by one of its members), identically in both backends, so the
numpy fast path and the Dataset path make bit-identical decisions
(tie-breaks order by label, move parity hashes the original vertex id)
and ``louvain(g) == louvain(g, local_edge_limit=0)`` exactly.

Each backend has ONE level loop, shared by Louvain and Leiden: Louvain
is Leiden without the refinement step (:func:`_levels_local` on driver
arrays, :func:`_levels_ds` on Datasets).  The Dataset loop hands the rest
of the hierarchy to the array loop as soon as a level has ≤
``local_edge_limit`` edges (default 5M) — at entry or after any
contraction.  The array loop's sizes follow the level's ACTIVE vertex
count (≤ 2·edges — sparse/huge vertex ids are compacted through one
``np.unique``), never the original graph's V.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd

from raygraph.lineage import cut_stats_lineage


# --------------------------------------------------------------------------
# shared move-score kernel (identical math for both backends)
# --------------------------------------------------------------------------

def _best_moves(s, cd, wv, ks, cs, sig_cd, sig_cs, m2, resolution,
                csize_cs=None):
    """Per-src best move from row-aligned candidate arrays.

    ``s``: src id, ``cd``: candidate community label, ``wv``: Σ weight of
    src's edges into cd, ``ks``: k of src, ``cs``: current community of
    src, ``sig_cd``/``sig_cs``: Σ_tot of cd / of src's own community.
    (src, cd) pairs must be unique (post-aggregation) so the lexsort is a
    total order and the result is input-order independent.

    Returns ``(vertex, best[, own_csize])`` for vertices whose best move
    strictly beats staying.
    """
    # gain score for s joining cd (s's own mass removed from Σ_tot):
    # score = w_{s→cd} − res·k_s·Σ_tot*(cd)/m2
    sig_star = sig_cd - np.where(cs == cd, ks, 0.0)
    score = wv - resolution * ks * sig_star / m2
    # per src: argmax score, ties → min community label
    order = np.lexsort((cd, -score, s))
    s_s = s[order]
    first = np.ones(len(s_s), dtype=bool)
    first[1:] = s_s[1:] != s_s[:-1]
    vbest = s_s[first]
    cbest = cd[order][first]
    sbest = score[order][first]
    ks_f = ks[order][first]
    sig_cs_f = sig_cs[order][first]
    # score of STAYING: the row with cd == current community, or (no
    # internal links) −res·k_s·(Σ_tot(c_s)−k_s)/m2
    stay = -resolution * ks_f * (sig_cs_f - ks_f) / m2
    in_own = cd == cs
    if in_own.any():
        s_own = s[in_own]
        sc_own = score[in_own]
        o = np.argsort(s_own, kind="stable")
        s_own, sc_own = s_own[o], sc_own[o]
        pos = np.searchsorted(s_own, vbest)
        safe = np.minimum(pos, len(s_own) - 1)
        hit = s_own[safe] == vbest
        stay[hit] = sc_own[safe[hit]]
    keep = sbest > stay + 1e-12
    gain = sbest - stay  # exact: ΔQ of the single move = 2·gain/m2
    if csize_cs is not None:
        return (vbest[keep], cbest[keep], gain[keep],
                csize_cs[order][first][keep])
    return vbest[keep], cbest[keep], gain[keep], None


# --------------------------------------------------------------------------
# local (compact numpy) backend — levels with ≤ local_edge_limit edges
# --------------------------------------------------------------------------

def _local_arrays(level_edges):
    """Level edges → (active, sc, dc, w): ``active`` is the sorted array
    of this level's vertex ids; sc/dc index into it.  Array sizes are
    bounded by the level's edge count, never by original V."""
    df = level_edges.to_pandas()
    src = df["src"].to_numpy(np.int64)
    dst = df["dst"].to_numpy(np.int64)
    w = df["weight"].to_numpy(np.float64)
    active = np.unique(np.concatenate([src, dst]))
    return active, np.searchsorted(active, src), np.searchsorted(active, dst), w


def _modularity_local(sc, dc, w, comm, k, m2, resolution):
    """comm: original-label values over compact vertex index."""
    internal = w[comm[sc] == comm[dc]].sum()  # both directions counted
    _, lab_inv = np.unique(comm, return_inverse=True)
    sig = np.bincount(lab_inv, weights=k)
    return internal / m2 - resolution * float((sig / m2) @ (sig / m2))


def _move_phase_local(active, sc, dc, w, k, m2, comm, q_cur, resolution,
                      max_inner, min_gain, parity_salt,
                      restrict_parent=None, singleton_only=False):
    """Local-moving sweep loop over compact arrays; community labels stay
    ORIGINAL vertex-id values (identical decision domain to the Dataset
    backend).  Returns (comm, q_cur, improved)."""
    from raygraph.hashing import hash_int64

    improved = False
    keep0 = sc != dc
    if restrict_parent is not None:
        keep0 &= restrict_parent[sc] == restrict_parent[dc]
    sl0, dl0, wl0 = sc[keep0], dc[keep0], w[keep0]
    for sweep in range(max_inner):
        labels, lab_inv = np.unique(comm, return_inverse=True)
        n_lab = len(labels)
        sig = np.bincount(lab_inv, weights=k, minlength=n_lab)
        csize = np.bincount(lab_inv, minlength=n_lab) if singleton_only else None
        # aggregate (src, community-of-dst) → Σw, fully vectorized
        li_d = np.searchsorted(labels, comm[dl0])
        key = sl0.astype(np.int64) * n_lab + li_d
        uk, inv = np.unique(key, return_inverse=True)
        wv = np.bincount(inv, weights=wl0, minlength=len(uk))
        s_u = (uk // n_lab).astype(np.int64)
        li_u = (uk % n_lab).astype(np.int64)
        li_s = np.searchsorted(labels, comm[s_u])
        vb, cb, gain, own_csize = _best_moves(
            s_u, labels[li_u], wv, k[s_u], comm[s_u], sig[li_u], sig[li_s],
            m2, resolution,
            csize_cs=(csize[li_s] if singleton_only else None),
        )
        if len(vb) == 0:
            break  # no vertex gains from moving → converged
        if singleton_only:
            m = own_csize == 1
            vb, cb, gain = vb[m], cb[m], gain[m]
            if len(vb) == 0:
                break
        # alternate hash-parity half-sweeps over ORIGINAL ids: simultaneous
        # pairwise swaps (the synchronous-Louvain oscillation) cannot
        # happen inside one parity class; the modularity guard is a backstop
        parity = (
            hash_int64(active[vb] ^ np.int64(parity_salt)) % np.uint64(2)
        ).astype(np.int64)
        sel = parity == (sweep % 2)
        applied = False
        if sel.any():
            new_comm = comm.copy()
            new_comm[vb[sel]] = cb[sel]
            q_new = _modularity_local(sc, dc, w, new_comm, k, m2, resolution)
            if q_new > q_cur + min_gain:
                comm, q_cur, improved, applied = new_comm, q_new, True, True
        if not applied:
            # deterministic escape: the single best move (gain desc, then
            # min original id) — a lone move improves Q by exactly
            # 2·gain/m2 > 0, so the schedule can never stall short of
            # true convergence (gain below min_gain)
            j = np.lexsort((active[vb], -gain))[0]
            new_comm = comm.copy()
            new_comm[vb[j]] = cb[j]
            q_new = _modularity_local(sc, dc, w, new_comm, k, m2, resolution)
            if q_new <= q_cur + min_gain:
                break
            comm, q_cur, improved = new_comm, q_new, True
    return comm, q_cur, improved


# --------------------------------------------------------------------------
# distributed (Dataset) backend — no V-sized driver or broadcast state
# --------------------------------------------------------------------------

def _sig_ds(S, num_buckets):
    """Community totals: (comm, sig=Σk, csize=|members|) Dataset."""
    from raygraph.agg import hash_aggregate

    return hash_aggregate(
        S.map_batches(lambda df: df[["comm", "k"]], batch_format="pandas"),
        ["comm"], {"sig": ("k", "sum"), "csize": (None, "count")},
        num_buckets=num_buckets,
    )


def _modularity_ds(level_edges, S, m2, resolution, num_buckets):
    """Q = internal/m2 − res·Σ(Σ_tot/m2)² with only scalar partials on
    the driver: internal via two bucketed endpoint joins + per-batch
    sums, Σsig² via a per-batch partial over the community totals."""
    from raygraph import joins

    Ss = S.map_batches(
        lambda df: pd.DataFrame({"src": df["vertex"], "cs": df["comm"]}),
        batch_format="pandas",
    )
    Sd = S.map_batches(
        lambda df: pd.DataFrame({"dst": df["vertex"], "cd": df["comm"]}),
        batch_format="pandas",
    )
    e2 = joins.hash_join(
        joins.hash_join(level_edges, Ss, on="src", num_buckets=num_buckets),
        Sd, on="dst", num_buckets=num_buckets,
    )
    internal = float(
        e2.map_batches(
            lambda df: pd.DataFrame(
                {
                    "internal": [
                        float(
                            df["weight"].to_numpy(np.float64)[
                                df["cs"].to_numpy() == df["cd"].to_numpy()
                            ].sum()
                        )
                    ]
                }
            ),
            batch_format="pandas",
        ).sum("internal")
    )
    sumsq = float(
        _sig_ds(S, num_buckets)
        .map_batches(
            lambda df: pd.DataFrame(
                {"x": [float((df["sig"].to_numpy(np.float64) ** 2).sum())]}
            ),
            batch_format="pandas",
        )
        .sum("x")
    )
    return internal / m2 - resolution * sumsq / (m2 * m2)


def _level_state_ds(level_edges, comm_init_ds, num_buckets):
    """S = (vertex, k[, comm]) for a level: vertices = src∪dst of the
    level's edges, k = weighted out-degree.  ``comm_init_ds`` (vertex,
    comm) attaches the starting partition; None → every vertex its own
    community (comm = vertex)."""
    from raygraph import joins
    from raygraph.agg import hash_aggregate

    proj = level_edges.map_batches(
        lambda df: pd.DataFrame(
            {
                "vertex": np.concatenate(
                    [df["src"].to_numpy(np.int64), df["dst"].to_numpy(np.int64)]
                ),
                "k": np.concatenate(
                    [df["weight"].to_numpy(np.float64),
                     np.zeros(len(df), np.float64)]
                ),
            }
        ),
        batch_format="pandas",
    )
    S = hash_aggregate(proj, ["vertex"], {"k": ("k", "sum")},
                       num_buckets=num_buckets)
    if comm_init_ds is None:
        S = S.map_batches(
            lambda df: df.assign(comm=df["vertex"].to_numpy(np.int64)),
            batch_format="pandas",
        )
    else:
        S = joins.hash_join(S, comm_init_ds, on="vertex",
                            num_buckets=num_buckets)
    return cut_stats_lineage(S.materialize())


def _move_phase_ds(level_edges, S, m2, q_cur, resolution, max_inner,
                   min_gain, parity_salt, restricted=False,
                   singleton_only=False, num_buckets=64):
    """Dataset sweep loop — same decisions as :func:`_move_phase_local`.

    ``restricted``: S carries a ``parent`` column; only moves whose
    endpoints share a parent are considered (Leiden refinement).
    Returns (S, q_cur, improved)."""
    import ray

    from raygraph import joins
    from raygraph.agg import hash_aggregate
    from raygraph.hashing import hash_int64

    state_cols = ["vertex", "comm", "k"] + (["parent"] if restricted else [])

    nl = cut_stats_lineage(
        level_edges.map_batches(
            lambda df: df[df["src"].to_numpy() != df["dst"].to_numpy()],
            batch_format="pandas",
        ).materialize()
    )

    improved = False
    for sweep in range(max_inner):
        sig = cut_stats_lineage(_sig_ds(S, num_buckets).materialize())

        def dst_state(df: pd.DataFrame) -> pd.DataFrame:
            out = {"dst": df["vertex"].to_numpy(np.int64),
                   "cdst": df["comm"].to_numpy(np.int64)}
            if restricted:
                out["pdst"] = df["parent"].to_numpy(np.int64)
            return pd.DataFrame(out)

        linked = joins.hash_join(
            nl, S.map_batches(dst_state, batch_format="pandas"),
            on="dst", num_buckets=num_buckets,
        )
        # parent is constant within a community, so carrying pdst through
        # the (src, cdst) aggregate key changes nothing and keeps it
        # available for the psrc==pdst filter after the src-state join
        agg_keys = ["src", "cdst"] + (["pdst"] if restricted else [])
        agg = hash_aggregate(
            linked.map_batches(
                lambda df, c=agg_keys: df[c + ["weight"]],
                batch_format="pandas",
            ),
            agg_keys, {"w": ("weight", "sum")}, num_buckets=num_buckets,
        )

        def src_state(df: pd.DataFrame) -> pd.DataFrame:
            out = {"src": df["vertex"].to_numpy(np.int64),
                   "csrc": df["comm"].to_numpy(np.int64),
                   "ks": df["k"].to_numpy(np.float64)}
            if restricted:
                out["psrc"] = df["parent"].to_numpy(np.int64)
            return pd.DataFrame(out)

        cand = joins.hash_join(
            agg, S.map_batches(src_state, batch_format="pandas"),
            on="src", num_buckets=num_buckets,
        )
        if restricted:
            cand = cand.map_batches(
                lambda df: df[df["psrc"].to_numpy() == df["pdst"].to_numpy()],
                batch_format="pandas",
            )
        cand = joins.hash_join(
            cand,
            sig.map_batches(
                lambda df: pd.DataFrame(
                    {"cdst": df["comm"].to_numpy(np.int64),
                     "sig_d": df["sig"].to_numpy(np.float64)}
                ),
                batch_format="pandas",
            ),
            on="cdst", num_buckets=num_buckets,
        )
        cand = joins.hash_join(
            cand,
            sig.map_batches(
                lambda df: pd.DataFrame(
                    {"csrc": df["comm"].to_numpy(np.int64),
                     "sig_s": df["sig"].to_numpy(np.float64),
                     "csize_s": df["csize"].to_numpy(np.int64)}
                ),
                batch_format="pandas",
            ),
            on="csrc", num_buckets=num_buckets,
        )

        # co-locate rows of each src, then the shared vectorized kernel
        def pick(g: pd.DataFrame) -> pd.DataFrame:
            vb, cb, gain, oc = _best_moves(
                g["src"].to_numpy(np.int64),
                g["cdst"].to_numpy(np.int64),
                g["w"].to_numpy(np.float64),
                g["ks"].to_numpy(np.float64),
                g["csrc"].to_numpy(np.int64),
                g["sig_d"].to_numpy(np.float64),
                g["sig_s"].to_numpy(np.float64),
                m2, resolution,
                csize_cs=(
                    g["csize_s"].to_numpy(np.int64) if singleton_only else None
                ),
            )
            out = pd.DataFrame({"vertex": vb, "best": cb, "gain": gain})
            if singleton_only:
                out["own_csize"] = oc
            return out

        picked = cut_stats_lineage(joins.bucket_exchange(
            cand, ["src"], pick, 32, batch_format="pandas").materialize())
        if picked.count() == 0:
            break
        if singleton_only:
            picked = cut_stats_lineage(
                picked.map_batches(
                    lambda df: df.loc[
                        df["own_csize"].to_numpy() == 1,
                        ["vertex", "best", "gain"],
                    ],
                    batch_format="pandas",
                ).materialize()
            )
            if picked.count() == 0:
                break

        def par(df: pd.DataFrame, sweep=sweep) -> pd.DataFrame:
            v = df["vertex"].to_numpy(np.int64)
            p = (hash_int64(v ^ np.int64(parity_salt)) % np.uint64(2)).astype(
                np.int64
            )
            return df.loc[p == (sweep % 2), ["vertex", "best"]]

        movers = cut_stats_lineage(
            picked.map_batches(par, batch_format="pandas").materialize()
        )

        def apply(df: pd.DataFrame) -> pd.DataFrame:
            comm = df["comm"].to_numpy(np.int64).copy()
            b = df["best"].to_numpy()
            has = ~pd.isna(b)
            comm[has] = b[has].astype(np.int64)
            out = {"vertex": df["vertex"].to_numpy(np.int64),
                   "comm": comm,
                   "k": df["k"].to_numpy(np.float64)}
            if restricted:
                out["parent"] = df["parent"].to_numpy(np.int64)
            return pd.DataFrame(out)

        applied = False
        if movers.count() > 0:
            joined = joins.hash_join(S, movers, on="vertex", how="left",
                                     num_buckets=num_buckets)
            S_new = cut_stats_lineage(
                joined.map_batches(apply, batch_format="pandas").materialize()
            )
            q_new = _modularity_ds(level_edges, S_new, m2, resolution,
                                   num_buckets)
            if q_new > q_cur + min_gain:
                S, q_cur, improved, applied = S_new, q_new, True, True
        if not applied:
            # deterministic escape (matches _move_phase_local): apply the
            # single best move — ΔQ = 2·gain/m2 > 0 exactly, so the
            # parity schedule can never stall short of convergence.
            # Per-block top-1 partials → driver sees ≤ num_blocks rows.
            top = picked.map_batches(
                lambda df: df.sort_values(
                    ["gain", "vertex"], ascending=[False, True]
                ).head(1),
                batch_format="pandas",
            ).to_pandas()
            top = top.sort_values(["gain", "vertex"],
                                  ascending=[False, True]).head(1)
            v1 = int(top["vertex"].iloc[0])
            b1 = int(top["best"].iloc[0])

            def apply_one(df: pd.DataFrame, v1=v1, b1=b1) -> pd.DataFrame:
                comm = df["comm"].to_numpy(np.int64).copy()
                comm[df["vertex"].to_numpy(np.int64) == v1] = b1
                out = {"vertex": df["vertex"].to_numpy(np.int64),
                       "comm": comm,
                       "k": df["k"].to_numpy(np.float64)}
                if restricted:
                    out["parent"] = df["parent"].to_numpy(np.int64)
                return pd.DataFrame(out)

            S_new = cut_stats_lineage(
                S.map_batches(apply_one, batch_format="pandas").materialize()
            )
            q_new = _modularity_ds(level_edges, S_new, m2, resolution,
                                   num_buckets)
            if q_new <= q_cur + min_gain:
                break
            S, q_cur, improved = S_new, q_new, True
    return S.map_batches(
        lambda df, c=state_cols: df[c], batch_format="pandas"
    ), q_cur, improved


def _contract_ds(level_edges, S, num_buckets):
    """Coarsen: map both endpoints to their community label, sum parallel
    edges.  Intra-community edges become self-loops (they stay — they are
    the next level's internal weight)."""
    from raygraph import joins
    from raygraph.agg import hash_aggregate

    Ss = S.map_batches(
        lambda df: pd.DataFrame({"src": df["vertex"], "cs": df["comm"]}),
        batch_format="pandas",
    )
    Sd = S.map_batches(
        lambda df: pd.DataFrame({"dst": df["vertex"], "cd": df["comm"]}),
        batch_format="pandas",
    )
    e2 = joins.hash_join(
        joins.hash_join(level_edges, Ss, on="src", num_buckets=num_buckets),
        Sd, on="dst", num_buckets=num_buckets,
    )
    newe = hash_aggregate(
        e2.map_batches(
            lambda df: pd.DataFrame(
                {
                    "src": df["cs"].to_numpy(np.int64),
                    "dst": df["cd"].to_numpy(np.int64),
                    "weight": df["weight"].to_numpy(np.float64),
                }
            ),
            batch_format="pandas",
        ),
        ["src", "dst"], {"weight": ("weight", "sum")},
        num_buckets=num_buckets,
    )
    return cut_stats_lineage(newe.materialize())


def _compose_assign_ds(A, mapping_ds, num_buckets):
    """A = (vertex, cur) ∘ mapping (cur → new): one bucketed left join;
    unmapped rows (isolated / inactive vertices) keep their label."""
    from raygraph import joins

    j = joins.hash_join(A, mapping_ds, on="cur", how="left",
                        num_buckets=num_buckets)

    def fix(df: pd.DataFrame) -> pd.DataFrame:
        cur = df["cur"].to_numpy(np.int64).copy()
        nv = df["new"].to_numpy()
        has = ~pd.isna(nv)
        cur[has] = nv[has].astype(np.int64)
        return pd.DataFrame(
            {"vertex": df["vertex"].to_numpy(np.int64), "cur": cur}
        )

    return cut_stats_lineage(
        j.map_batches(fix, batch_format="pandas").materialize()
    )


def _compose_assign_bcast(A, active, new_labels):
    """Map-side compose when the level mapping fits a broadcast: one
    ``ray.put`` of (active, new_labels), zero-copy lookups per batch."""
    import ray

    from raygraph import joins

    ref = ray.put((active, new_labels))

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        vals, found = joins.lookup_broadcast(
            df["cur"].to_numpy(np.int64), ray.get(ref), missing="mask"
        )
        cur = df["cur"].to_numpy(np.int64).copy()
        cur[found] = vals[found]
        return pd.DataFrame(
            {"vertex": df["vertex"].to_numpy(np.int64), "cur": cur}
        )

    return cut_stats_lineage(A.map_batches(fn, batch_format="pandas").materialize())


def _init_assign(edges_ds, num_buckets):
    """A = (vertex, cur=vertex) over the graph's vertex set (distinct
    edge endpoints) — a Dataset, never a driver array."""
    from raygraph.agg import hash_aggregate

    proj = edges_ds.map_batches(
        lambda df: pd.DataFrame(
            {
                "vertex": np.concatenate(
                    [df["src"].to_numpy(np.int64), df["dst"].to_numpy(np.int64)]
                )
            }
        ),
        batch_format="pandas",
    )
    A = hash_aggregate(proj, ["vertex"], None, num_buckets=num_buckets)
    return cut_stats_lineage(
        A.map_batches(
            lambda df: pd.DataFrame(
                {
                    "vertex": df["vertex"].to_numpy(np.int64),
                    "cur": df["vertex"].to_numpy(np.int64),
                }
            ),
            batch_format="pandas",
        ).materialize()
    )


def _dense_labels_local(out_df: pd.DataFrame, num_buckets: int = 64
                        ) -> pd.DataFrame:
    """(vertex, cur) → (vertex, partition) with dense 0..C-1 labels: the
    build's dense-id rule (``graph.bucket_rank``) on one driver array, so
    the dense label is the label's row position."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from raygraph.graph import bucket_rank

    cur = pa.array(out_df["cur"].to_numpy(np.int64))
    labs = bucket_rank(cur, num_buckets).column("vertex_key")
    return pd.DataFrame(
        {
            "vertex": out_df["vertex"].to_numpy(np.int64),
            "partition": pc.index_in(cur, value_set=labs).to_numpy()
            .astype(np.int64),
        }
    )


def _dense_labels(out_ds, num_buckets: int = 64):
    """(vertex, cur) → (vertex, partition) with dense 0..C-1 labels: the
    build's dense-id rule on a Dataset (``graph.build_vertex_map`` over the
    ``cur`` column) — deterministic at any parallelism; no global sort; no
    C-sized driver state."""
    import pyarrow as pa

    from raygraph import joins
    from raygraph.graph import build_vertex_map

    vmap, _ = build_vertex_map(out_ds, cols=["cur"], num_buckets=num_buckets)
    vmap = vmap.map_batches(
        lambda t: pa.table({"cur": t.column("vertex_key"),
                            "new": t.column("vid")}),
        batch_format="pyarrow",
    )
    dense = joins.hash_join(out_ds, vmap, on="cur", num_buckets=num_buckets)
    return dense.map_batches(
        lambda df: pd.DataFrame(
            {
                "vertex": df["vertex"].to_numpy(np.int64),
                "partition": df["new"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )


def _finish(A):
    return A.map_batches(
        lambda df: pd.DataFrame(
            {
                "vertex": df["vertex"].to_numpy(np.int64),
                "partition": df["cur"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )


# --------------------------------------------------------------------------
# the level loop, one per backend — Louvain is Leiden without refinement
# --------------------------------------------------------------------------

def _apply_map_local(cur, active, new_labels):
    """Array compose — exactly ``_compose_assign_bcast``'s lookup
    semantics (values of ``cur`` found in ``active`` are replaced by the
    aligned ``new_labels``; others kept)."""
    n = len(active)
    pos = np.searchsorted(active, cur)
    found = (pos < n) & (active[np.minimum(pos, n - 1)] == cur)
    out = cur.copy()
    out[found] = new_labels[pos[found]]
    return out


def _levels_local(active, sc, dc, w, m2, max_levels, max_inner, resolution,
                  min_gain, parity_salt, refine_inner=None, comm_init=None):
    """The level loop on driver arrays.

    Per level: phase-1 local moving from ``comm_init`` ((vertices,
    comms) of this level) or singletons; with ``refine_inner`` set
    (Leiden), a singleton restart whose moves stay inside the phase-1
    communities; contraction by that refined partition; the next level
    starts from the phase-1 communities.  With ``refine_inner=None`` the
    refined partition is the phase-1 one and every level starts from
    singletons — exactly Louvain.

    Returns (cur, q): the last level's phase-1 community of each vertex
    of ``active``, and its modularity.  Arrays are sized by the level's
    active vertex count, never by the original graph's V."""
    cur = active.copy()  # composition of the refined partitions so far
    q = 0.0
    for level in range(max_levels):
        n = len(active)
        k = np.bincount(sc, weights=w, minlength=n)
        if comm_init is None:
            comm = active.copy()  # label = own id
        else:
            comm = np.empty(n, dtype=np.int64)
            comm[np.searchsorted(active, comm_init[0])] = comm_init[1]
        q = _modularity_local(sc, dc, w, comm, k, m2, resolution)
        comm, q, improved = _move_phase_local(
            active, sc, dc, w, k, m2, comm, q, resolution,
            max_inner, min_gain, parity_salt,
        )
        phase1 = _apply_map_local(cur, active, comm)
        if not improved or level == max_levels - 1:
            return phase1, q
        rcomm = comm
        if refine_inner is not None:
            rcomm = active.copy()
            q_ref = _modularity_local(sc, dc, w, rcomm, k, m2, resolution)
            rcomm, _, _ = _move_phase_local(
                active, sc, dc, w, k, m2, rcomm, q_ref, resolution,
                refine_inner, min_gain, parity_salt,
                restrict_parent=comm, singleton_only=True,
            )
        labels, lab_inv = np.unique(rcomm, return_inverse=True)
        n_ref = len(labels)
        if n_ref == n:
            return phase1, q
        cur = _apply_map_local(cur, active, rcomm)
        # contract (compact label packing)
        key = lab_inv[sc].astype(np.int64) * n_ref + lab_inv[dc]
        uk, inv = np.unique(key, return_inverse=True)
        w = np.bincount(inv, weights=w, minlength=len(uk))
        src, dst = labels[uk // n_ref], labels[uk % n_ref]
        active = np.unique(np.concatenate([src, dst]))
        sc, dc = np.searchsorted(active, src), np.searchsorted(active, dst)
        if refine_inner is not None:
            parent = np.empty(n_ref, dtype=np.int64)
            parent[lab_inv] = comm  # constant within a refined community
            comm_init = (labels, parent)
    return cur, q


def _as_mapping(S):
    """Level state (vertex, comm, ...) → compose mapping (cur, new)."""
    return S.map_batches(
        lambda df: pd.DataFrame(
            {"cur": df["vertex"].to_numpy(np.int64),
             "new": df["comm"].to_numpy(np.int64)}
        ),
        batch_format="pandas",
    )


def _levels_ds(level_edges, E_level, m2, max_levels, max_inner,
               resolution, min_gain, local_edge_limit, parity_salt,
               num_buckets, refine_inner=None):
    """The level loop on Datasets — same decisions as
    :func:`_levels_local`, scalars only on the driver.  As soon as a
    level has ≤ ``local_edge_limit`` edges (at entry, or after any
    contraction) the rest of the hierarchy runs in
    :func:`_levels_local`, and its result composes onto the
    original-vertex assignment once.

    Returns (assign, q): ``assign`` maps every vertex to its community —
    a pandas (vertex, cur) frame when the whole hierarchy ran on arrays,
    else a (vertex, cur) Dataset."""
    from raygraph.agg import hash_aggregate

    A = None             # (vertex, cur): original vertex → level vertex
    comm_init_ds = None  # (vertex, comm) start partition; None: singletons
    for level in range(max_levels):
        if E_level <= local_edge_limit:
            active, sc, dc, w = _local_arrays(level_edges)
            comm_init = None
            if comm_init_ds is not None:
                ci = comm_init_ds.to_pandas()  # ≤ active rows
                comm_init = (ci["vertex"].to_numpy(np.int64),
                             ci["comm"].to_numpy(np.int64))
            cur, q = _levels_local(
                active, sc, dc, w, m2, max_levels - level, max_inner,
                resolution, min_gain, parity_salt, refine_inner, comm_init,
            )
            if A is None:
                return pd.DataFrame({"vertex": active, "cur": cur}), q
            return _compose_assign_bcast(A, active, cur), q
        if A is None:
            A = _init_assign(level_edges, num_buckets)
        S = _level_state_ds(level_edges, comm_init_ds, num_buckets)
        q = _modularity_ds(level_edges, S, m2, resolution, num_buckets)
        S, q, improved = _move_phase_ds(
            level_edges, S, m2, q, resolution, max_inner, min_gain,
            parity_salt, num_buckets=num_buckets,
        )
        if not improved and comm_init_ds is None:
            return A, q  # nothing moved from singletons: S is the identity
        S = cut_stats_lineage(S.materialize())
        P = _compose_assign_ds(A, _as_mapping(S), num_buckets)
        if not improved or level == max_levels - 1:
            return P, q
        if refine_inner is None:
            S_ref, A = S, P
        else:
            # refinement state: comm = self (singletons), parent = phase-1
            S_ref = cut_stats_lineage(
                S.map_batches(
                    lambda df: pd.DataFrame(
                        {
                            "vertex": df["vertex"].to_numpy(np.int64),
                            "comm": df["vertex"].to_numpy(np.int64),
                            "k": df["k"].to_numpy(np.float64),
                            "parent": df["comm"].to_numpy(np.int64),
                        }
                    ),
                    batch_format="pandas",
                ).materialize()
            )
            q_ref = _modularity_ds(level_edges, S_ref, m2, resolution,
                                   num_buckets)
            S_ref, _, _ = _move_phase_ds(
                level_edges, S_ref, m2, q_ref, resolution, refine_inner,
                min_gain, parity_salt, restricted=True, singleton_only=True,
                num_buckets=num_buckets,
            )
            S_ref = cut_stats_lineage(S_ref.materialize())
            A = _compose_assign_ds(A, _as_mapping(S_ref), num_buckets)
            # the next level starts from the phase-1 communities (parent
            # is constant within each refined community)
            comm_init_ds = hash_aggregate(
                S_ref.map_batches(
                    lambda df: df[["comm", "parent"]], batch_format="pandas"
                ),
                ["comm"], {"parent": ("parent", "min")},
                num_buckets=num_buckets,
            ).map_batches(
                lambda df: pd.DataFrame(
                    {"vertex": df["comm"].to_numpy(np.int64),
                     "comm": df["parent"].to_numpy(np.int64)}
                ),
                batch_format="pandas",
            )
        n_ref = hash_aggregate(
            S_ref.map_batches(lambda df: df[["comm"]], batch_format="pandas"),
            ["comm"], None, num_buckets=num_buckets,
        ).count()
        if n_ref == S_ref.count():
            return P, q
        level_edges = _contract_ds(level_edges, S_ref, num_buckets)
        E_level = level_edges.count()
    return _init_assign(level_edges, num_buckets), 0.0  # max_levels <= 0


# --------------------------------------------------------------------------
# public API
# --------------------------------------------------------------------------

def _level0(graph, name):
    """The entry level's edges and m2 = Σ weight (both stored directions)."""
    if graph.directed:
        raise ValueError(
            f"{name} requires an undirected graph (directed=False)")
    level_edges = cut_stats_lineage(
        graph.edges_dataset(columns=["src", "dst", "weight"]).materialize()
    )
    return level_edges, float(level_edges.sum("weight") or 0.0)


def louvain(graph, max_levels: int = 10, max_inner: int = 20,
            resolution: float = 1.0, min_gain: float = 1e-9,
            local_edge_limit: int = 5_000_000, parity_salt: int = 0,
            num_buckets: int = 64):
    """Returns (Dataset (vertex, partition), modularity: float).

    Requires an undirected (symmetrized) simple graph, like the reference
    (``louvain.py`` asserts undirected input).  Partition labels are
    community representatives in the vertex-id domain (one member names
    the community).  Driver state is O(1) scalars on the distributed
    path; levels with ≤ ``local_edge_limit`` edges use a numpy fast path
    whose arrays are sized by the level's active vertex count.
    """
    import ray.data as rd

    level_edges, m2 = _level0(graph, "louvain")
    if m2 == 0:
        return _finish(_init_assign(level_edges, num_buckets)), 0.0
    assign, q = _levels_ds(
        level_edges, graph.num_edges, m2, max_levels, max_inner, resolution,
        min_gain, local_edge_limit, parity_salt, num_buckets,
    )
    if isinstance(assign, pd.DataFrame):
        assign = cut_stats_lineage(rd.from_pandas(assign))
    return _finish(assign), float(q)


def leiden(graph, max_levels: int = 10, max_inner: int = 20,
           resolution: float = 1.0, min_gain: float = 1e-9,
           local_edge_limit: int = 5_000_000, parity_salt: int = 0,
           refine_inner: int = 10, num_buckets: int = 64):
    """Leiden community detection (Traag, Waltman & van Eck 2019) —
    reference ``community/leiden.py`` / ``cpp/src/community/legacy/
    leiden.cu`` + ``leiden.cuh``.

    Louvain plus a **refinement phase** before each contraction: within
    every phase-1 community, vertices restart as singletons and greedily
    re-merge — but only with targets *inside their own community*, and
    only while they are *alone* in their refined community (the Leiden
    merge rule).  The graph is contracted by the REFINED partition, and
    the next level starts from the phase-1 communities (not singletons),
    so a badly-connected community is split at contraction instead of
    being frozen into one node — the Louvain pathology Leiden fixes.

    Same scale contract as :func:`louvain` (scalars-only driver on the
    distributed path).  Returns (Dataset (vertex, partition), modularity)
    with dense 0..C-1 labels (bucket-offset rank, deterministic).
    """
    import ray.data as rd

    level_edges, m2 = _level0(graph, "leiden")
    if m2 == 0:
        return _finish(_init_assign(level_edges, num_buckets)), 0.0
    assign, q = _levels_ds(
        level_edges, graph.num_edges, m2, max_levels, max_inner, resolution,
        min_gain, local_edge_limit, parity_salt, num_buckets, refine_inner,
    )
    if isinstance(assign, pd.DataFrame):
        out = rd.from_pandas(_dense_labels_local(assign, num_buckets))
    else:
        out = _dense_labels(assign, num_buckets)
    return out, float(q)


def ecg(graph, min_weight: float = 0.05, ensemble_size: int = 16,
        seed: int = 42, broadcast_limit: Optional[int] = None,
        **louvain_kwargs):
    """Ensemble Clustering for Graphs (Poulin & Théberge 2018) —
    ``cpp/src/community/legacy/ecg.cu`` / ``community/ecg.py:41``.

    1. Run ``ensemble_size`` single-level Louvain passes, each with a
       different move schedule (``parity_salt`` — the analogue of the
       reference's per-member vertex permutation).
    2. Reweight every edge: ``w' = min_weight + (1−min_weight)·
       (co-membership count / ensemble_size)`` (``ecg.cu:186``).
    3. Full Louvain on the reweighted graph.

    Scale contract: the driver never holds more than ONE member's V-sized
    label array at a time (transiently, to broadcast it); the ensemble
    co-membership counts accumulate inside one streamed pass over the
    edges reading the per-member broadcasts.  Past ``broadcast_limit``
    vertices the members stay Datasets and co-membership is computed by
    two bucketed hash joins of the (vertex, member, label) union onto the
    edge endpoints plus one aggregate — no V-sized driver or plasma array
    at all.

    Returns (Dataset (vertex, partition), modularity of the final
    partition on the REWEIGHTED graph).
    """
    import ray
    import ray.data as rd

    from raygraph.graph import DEFAULT_BROADCAST_LIMIT, Graph
    from raygraph.hashing import hash_int64

    if broadcast_limit is None:
        broadcast_limit = DEFAULT_BROADCAST_LIMIT
    # the ensemble passes pin max_levels=1 and their own parity_salt; a
    # caller-supplied value of either applies only to the final full pass
    ensemble_kwargs = {
        k: v for k, v in louvain_kwargs.items()
        if k not in ("max_levels", "parity_salt")
    }
    V = graph.num_vertices
    salts = [
        int(hash_int64(np.array([seed * 1_000_003 + i]))[0]) & 0x7FFFFFFF
        for i in range(ensemble_size)
        # int() BEFORE the mask: uint64 & python-int silently promotes to
        # float64 (the Graph.neighbors gotcha)
    ]

    local_limit = ensemble_kwargs.get("local_edge_limit", 5_000_000)
    if graph.num_edges <= local_limit and V <= broadcast_limit:
        # local fast ensemble: ONE edge pull, shared compact arrays, each
        # member one level of the array loop louvain runs (bit-identical
        # labels to ensemble_size louvain(max_levels=1) calls), and
        # co-membership reduces to comm_i[sc]==comm_i[dc] per edge
        edges_ds = cut_stats_lineage(
            graph.edges_dataset(columns=["src", "dst", "weight"]).materialize()
        )
        active, sc, dc, w = _local_arrays(edges_ds)
        m2 = float(w.sum())
        same = np.zeros(len(sc), dtype=np.int64)
        if m2 > 0:
            for salt in salts:
                comm, _q = _levels_local(
                    active, sc, dc, w, m2, 1,
                    ensemble_kwargs.get("max_inner", 20),
                    ensemble_kwargs.get("resolution", 1.0),
                    ensemble_kwargs.get("min_gain", 1e-9), salt,
                )
                same += comm[sc] == comm[dc]
        else:
            same += ensemble_size  # singleton self-comms; no edges move
        rw = rd.from_pandas(
            pd.DataFrame(
                {
                    "src": active[sc],
                    "dst": active[dc],
                    "weight": min_weight
                    + (1.0 - min_weight) * same / ensemble_size,
                }
            )
        )
        g2 = Graph.from_edges(
            rw, src="src", dst="dst", weight="weight",
            directed=True, renumber=False,
            num_partitions=graph.num_partitions,
        )
        g2.meta["directed"] = False
        g2._save_meta()
        return louvain(g2, **louvain_kwargs)

    member_ds = []
    for salt in salts:
        res, _q = louvain(graph, max_levels=1, parity_salt=salt,
                          **ensemble_kwargs)
        member_ds.append(res)

    edges = graph.edges_dataset(columns=["src", "dst"])
    if V <= broadcast_limit:
        # one member at a time: V-sized transient on the driver, broadcast
        # once, read zero-copy by every edge batch
        refs = []
        for res in member_ds:
            df = res.to_pandas()
            arr = np.empty(V, dtype=np.int64)
            arr[df["vertex"].to_numpy(np.int64)] = (
                df["partition"].to_numpy(np.int64)
            )
            refs.append(ray.put(arr))
            del df, arr

        def reweight(df: pd.DataFrame) -> pd.DataFrame:
            s = df["src"].to_numpy(np.int64)
            d = df["dst"].to_numpy(np.int64)
            same = np.zeros(len(df), dtype=np.int64)
            for r in refs:
                lab = ray.get(r)
                same += lab[s] == lab[d]
            return pd.DataFrame(
                {
                    "src": s,
                    "dst": d,
                    "weight": min_weight
                    + (1.0 - min_weight) * same / ensemble_size,
                }
            )

        rw = edges.map_batches(reweight, batch_format="pandas")
    else:
        from raygraph.agg import hash_aggregate
        from raygraph.joins import hash_join

        def tag_member(i):
            def fn(df: pd.DataFrame) -> pd.DataFrame:
                return pd.DataFrame(
                    {
                        "vertex": df["vertex"].to_numpy(np.int64),
                        "member": np.full(len(df), i, dtype=np.int32),
                        "label": df["partition"].to_numpy(np.int64),
                    }
                )

            return fn

        labels = member_ds[0].map_batches(tag_member(0), batch_format="pandas")
        for i in range(1, ensemble_size):
            labels = labels.union(
                member_ds[i].map_batches(tag_member(i), batch_format="pandas")
            )
        lab_s = labels.map_batches(
            lambda df: df.rename(columns={"vertex": "src", "label": "lab_s"}),
            batch_format="pandas",
        )
        lab_d = labels.map_batches(
            lambda df: df.rename(columns={"vertex": "dst", "label": "lab_d"}),
            batch_format="pandas",
        )
        j1 = hash_join(edges, lab_s, on="src")
        j2 = hash_join(j1, lab_d, on=["dst", "member"])
        sames = j2.map_batches(
            lambda df: pd.DataFrame(
                {
                    "src": df["src"].to_numpy(np.int64),
                    "dst": df["dst"].to_numpy(np.int64),
                    "same": (
                        df["lab_s"].to_numpy(np.int64)
                        == df["lab_d"].to_numpy(np.int64)
                    ).astype(np.int64),
                }
            ),
            batch_format="pandas",
        )
        agg = hash_aggregate(sames, ["src", "dst"], {"same": ("same", "sum")})
        rw = agg.map_batches(
            lambda df: pd.DataFrame(
                {
                    "src": df["src"].to_numpy(np.int64),
                    "dst": df["dst"].to_numpy(np.int64),
                    "weight": min_weight
                    + (1.0 - min_weight)
                    * df["same"].to_numpy(np.float64) / ensemble_size,
                }
            ),
            batch_format="pandas",
        )
    g2 = Graph.from_edges(
        rw, src="src", dst="dst", weight="weight",
        directed=True, renumber=False,
        num_partitions=graph.num_partitions,
    )
    # the reweighted graph keeps both stored directions, so Louvain's
    # undirected contract holds; flip the flag AND re-persist the meta so a
    # later Graph.load(out_dir) sees the same undirected handle
    g2.meta["directed"] = False
    g2._save_meta()
    return louvain(g2, **louvain_kwargs)
