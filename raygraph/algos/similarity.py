"""Vertex-pair similarity: Jaccard / Sørensen / Overlap coefficients.

Reference: ``cpp/src/link_prediction/{jaccard,sorensen,overlap}_impl.cuh``
(+ ``similarity_impl.cuh``) — neighbor-set intersection per vertex pair via
``per_v_pair_transform_dst_nbr_intersection.cuh``.

Two APIs, mirroring the reference:

* :func:`pair_similarity` — coefficients over **caller-provided pairs**
  (the reference's primary API shape: ``link_prediction/jaccard.py``
  computes over ``vertex_pair``).  Work is Σ_pairs deg(a) — no wedge
  explosion regardless of skew.
* :func:`pairwise_similarity` — all (a<b) pairs with ≥1 common neighbor.
  One kernel, :func:`_apex_pairs`, expands each apex's sorted neighbor
  list into its (a<b) neighbor pairs in bounded chunks and combines them;
  it runs once on the driver table for small edge sets, or once per
  ``hash(apex)`` bucket followed by one (a,b)-keyed aggregate.  Wedges
  are never shuffled (task input is Σdeg of a bucket's apexes, never
  Σdeg²), so a hub is exact with no cap and no path depends on V.

Coefficients come from exact per-pair counts and endpoint degrees, in one
formula (:func:`_coeff`):

* jaccard  = |N(a)∩N(b)| / |N(a)∪N(b)|
* sorensen = 2·|N(a)∩N(b)| / (|N(a)|+|N(b)|)
* overlap  = |N(a)∩N(b)| / min(|N(a)|,|N(b)|)

A zero denominator (a pair naming a vertex with no edges) gives 0.

**Weighted variants** (reference: ``link_prediction/wjaccard.py`` jaccard_w,
``woverlap.py``, ``wsorensen.py`` — per-vertex weights w(v) generalize set
size to volume vol(S) = Σ_{v∈S} w(v)): pass ``vertex_weights`` (a
(vertex, weight) Dataset) to either API; ``common`` becomes
vol(N(a)∩N(b)) and degrees become neighborhood volumes, so e.g.
weighted jaccard = vol(N(a)∩N(b)) / vol(N(a)∪N(b)).  A vertex absent
from ``vertex_weights`` weighs 0.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raygraph import joins


def _coeff(common, deg_a, deg_b, kind: str) -> np.ndarray:
    """The coefficient of ``kind`` from float64 intersection sizes and
    endpoint degrees (or volumes); 0 where the denominator is 0."""
    if kind == "jaccard":
        num, den = common, deg_a + deg_b - common
    elif kind == "sorensen":
        num, den = 2.0 * common, deg_a + deg_b
    elif kind == "overlap":
        num, den = common, np.minimum(deg_a, deg_b)
    else:
        raise ValueError(kind)
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


def _with_coeff(t: pa.Table, kind: str) -> pa.Table:
    """(a, b, common, deg_a, deg_b) → (a, b, common, coeff); a degree left
    null by a left join counts as 0."""
    c, da, db = (
        t.column(n).fill_null(0).to_numpy().astype(np.float64)
        for n in ("common", "deg_a", "deg_b")
    )
    return t.select(["a", "b", "common"]).append_column(
        "coeff", pa.array(_coeff(c, da, db, kind))
    )


def _attach_coeff(common, deg, kind: str, num_buckets: int):
    """Left-join per-pair common counts with both endpoint degrees and
    compute the coefficient. Returns (a, b, common, coeff)."""
    deg = deg.materialize()  # consumed by BOTH endpoint joins below —
    # without this the whole degree lineage (and its upstream edge
    # pipeline) executes twice
    j1 = joins.hash_join(
        common, deg.rename_columns({"src": "a", "deg": "deg_a"}), on="a",
        how="left", num_buckets=num_buckets,
    )
    j2 = joins.hash_join(
        j1, deg.rename_columns({"src": "b", "deg": "deg_b"}), on="b",
        how="left", num_buckets=num_buckets,
    )
    return j2.map_batches(
        _with_coeff, fn_kwargs={"kind": kind}, batch_format="pyarrow"
    )


def _endpoint_weights(vertex_weights):
    """(vertex, weight) Dataset → (w, __wt) frame for joining on the
    shared wedge endpoint column."""
    return vertex_weights.map_batches(
        lambda t: pa.table({"w": t.column("vertex"),
                            "__wt": t.column("weight").cast(pa.float64())}),
        batch_format="pyarrow",
    )


def _weights_kv_ref(vertex_weights, broadcast_limit: int):
    """Materialized (vertex, weight) Dataset → broadcast (karr, varr)
    object ref when the table fits the gate, else None (join fallback).
    One ``ray.put``; every map task reads it zero-copy from plasma."""
    if vertex_weights.count() > broadcast_limit:
        return None
    return joins.broadcast_map_ref(
        vertex_weights.to_pandas(), "vertex", "weight"
    )


def _attach_wt_bc(df: pd.DataFrame, kv_ref, key_col: str) -> pd.DataFrame:
    """Map-side weight attach replicating the inner join: look up
    ``key_col`` in the broadcast map, drop rows whose key is absent."""
    import ray

    vals, found = joins.lookup_broadcast(
        df[key_col].to_numpy(), ray.get(kv_ref), missing="mask"
    )
    out = df.loc[found].copy()
    out["__wt"] = np.asarray(vals, dtype=np.float64)[found]
    return out


def _volumes(edges_ds, vertex_weights, num_buckets: int, kv_ref=None):
    """Neighborhood volume per vertex: vol(v) = Σ_{u∈N(v)} w(u).
    Returns (src, deg) with deg = weighted volume.  With a broadcast
    weight map (``kv_ref``) the attach is map-only; otherwise one
    bucketed join on the neighbor endpoint.  Either way the sum is the
    same map-combined aggregate."""
    from raygraph.agg import hash_aggregate

    if kv_ref is not None:
        ew = edges_ds.map_batches(
            lambda df, kv=kv_ref: _attach_wt_bc(
                df.rename(columns={"dst": "w"})[["src", "w"]], kv, "w"
            ),
            batch_format="pandas",
        )
    else:
        ew = joins.hash_join(
            edges_ds.map_batches(
                lambda df: df.rename(columns={"dst": "w"})[["src", "w"]],
                batch_format="pandas",
            ),
            _endpoint_weights(vertex_weights),
            on="w",
            num_buckets=num_buckets,
        )
    return hash_aggregate(ew, ["src"], {"deg": ("__wt", "sum")})


def _ragged_triu_chunks(seg_sizes: np.ndarray, chunk: int):
    """Yield (row_idx, off_in_row) index chunks enumerating, for every
    segment of a sorted array, all within-segment (i<j) pairs — fully
    vectorized (no Python loop over segments), emitted in chunks of at
    most ``chunk`` pairs so a hub segment never materializes its full
    C(d,2) expansion at once.  ``row_idx`` indexes the flat sorted array
    (the pair's first element); the second element is
    ``row_idx + off_in_row + 1``."""
    rep = np.repeat(seg_sizes, seg_sizes) - 1 - (
        np.arange(int(seg_sizes.sum()))
        - np.repeat(np.cumsum(seg_sizes) - seg_sizes, seg_sizes)
    )  # per-row count of pairs where this row is the first element
    tot = int(rep.sum())
    if tot == 0:
        return
    cum = np.cumsum(rep)
    for c0 in range(0, tot, chunk):
        c1 = min(c0 + chunk, tot)
        r0 = int(np.searchsorted(cum, c0, side="right"))
        r1 = int(np.searchsorted(cum, c1 - 1, side="right")) + 1
        starts_r = cum[r0:r1] - rep[r0:r1]
        lo = np.maximum(starts_r, c0)
        hi = np.minimum(cum[r0:r1], c1)
        cnt = hi - lo
        row_idx = np.repeat(np.arange(r0, r1, dtype=np.int64), cnt)
        base = np.repeat(lo - starts_r, cnt)
        off = base + (np.arange(c1 - c0) - np.repeat(np.cumsum(cnt) - cnt, cnt))
        yield row_idx, off


def _apex_pairs(t: pa.Table, chunk: int = 1 << 22) -> pa.Table:
    """The pair-expansion kernel.  Rows ``(src = apex, dst = neighbor,
    deg = degree or volume of the neighbor[, __wt = apex weight])`` →
    ``(a, b, common, deg_a, deg_b)``, one row per neighbor pair a < b of
    some apex: ``common`` counts (or, with ``__wt``, sums the weights of)
    the apexes the pair shares among the input rows.

    Neighbor keys are ranked locally (sorted, so rank order is key order)
    and each pair packs into one int64; every apex's complete neighbor
    list must be in ``t``.  Null degrees and weights count as 0."""
    weighted = "__wt" in t.column_names
    dst = t.column("dst")
    keys = pc.unique(dst)
    keys = keys.take(pc.sort_indices(keys))
    n = len(keys)
    r = pc.index_in(dst, keys).to_numpy().astype(np.int64)
    src = t.column("src")
    s = pc.index_in(src, pc.unique(src)).to_numpy()
    order = np.lexsort((r, s))  # apex-major, neighbors ascending
    s, r = s[order], r[order]
    d = t.column("deg").fill_null(0).to_numpy()
    deg = np.zeros(n, d.dtype)
    deg[r] = d[order]
    w = (t.column("__wt").fill_null(0).to_numpy().astype(np.float64)[order]
         if weighted else None)
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    sizes = np.diff(np.r_[starts, len(s)])
    pks, cnts = [np.empty(0, np.int64)], [np.empty(0, np.float64)]
    for row_idx, off in _ragged_triu_chunks(sizes, chunk):
        pk = r[row_idx] * n + r[row_idx + off + 1]
        upk, inv = np.unique(pk, return_inverse=True)
        pks.append(upk)
        cnts.append(np.bincount(inv, weights=None if w is None else w[row_idx]))
    upk, inv = np.unique(np.concatenate(pks), return_inverse=True)
    common = np.bincount(inv, weights=np.concatenate(cnts), minlength=len(upk))
    ai, bi = upk // n, upk % n
    return pa.table({
        "a": keys.take(pa.array(ai)),
        "b": keys.take(pa.array(bi)),
        "common": common.astype(np.float64 if weighted else np.int64),
        "deg_a": deg[ai],
        "deg_b": deg[bi],
    })


def _pairs_local(edges_ds, vertex_weights, key: pa.DataType) -> pa.Table:
    """Driver executor: degrees (or volumes) by ``bincount`` over the
    whole edge table, then one kernel call."""
    from raygraph.graph import _driver_table, _endpoints

    t = _driver_table(edges_ds, pa.schema({"src": key, "dst": key}))
    verts = pc.unique(_endpoints(t))
    s = pc.index_in(t.column("src"), verts).to_numpy()
    d = pc.index_in(t.column("dst"), verts).to_numpy()
    rows = {"src": t.column("src"), "dst": t.column("dst")}
    if vertex_weights is None:
        deg = np.bincount(s, minlength=len(verts))
    else:
        wt = _driver_table(vertex_weights,
                           pa.schema({"vertex": key, "weight": pa.float64()}))
        idx = pc.index_in(wt.column("vertex"), verts)
        ok = idx.is_valid()
        w = np.zeros(len(verts), np.float64)
        w[idx.filter(ok).to_numpy()] = (
            wt.column("weight").filter(ok).to_numpy().astype(np.float64))
        deg = np.bincount(s, weights=w[d], minlength=len(verts))
        rows["__wt"] = w[s]
    rows["deg"] = deg[d]
    return _apex_pairs(pa.table(rows))


def _pairs_ds(edges_ds, vertex_weights, num_buckets: int):
    """Dataset executor: one degree (or volume) aggregate, one join
    attaching the neighbor's degree (and one attaching the apex weight),
    the kernel per ``hash(apex)`` bucket, and one (a,b) aggregate.  An
    apex's rows all land in one bucket, so a pair's partial ``common``
    values sum to the whole-table count and its degrees repeat exactly."""
    from raygraph.agg import hash_aggregate

    if vertex_weights is None:
        deg = hash_aggregate(edges_ds, ["src"], {"deg": (None, "count")},
                             num_buckets=num_buckets)
    else:
        vertex_weights = vertex_weights.materialize()  # 2 consumers
        deg = _volumes(edges_ds, vertex_weights, num_buckets)
    rows = joins.hash_join(
        edges_ds, deg.rename_columns({"src": "dst"}), on="dst", how="left",
        num_buckets=num_buckets,
    )
    if vertex_weights is not None:
        rows = joins.hash_join(
            rows, _endpoint_weights(vertex_weights).rename_columns(
                {"w": "src"}),
            on="src", how="left", num_buckets=num_buckets,
        )

    parts = joins.bucket_exchange(rows, ["src"], _apex_pairs, num_buckets)
    return hash_aggregate(
        parts, ["a", "b"],
        {"common": ("common", "sum"), "deg_a": ("deg_a", "min"),
         "deg_b": ("deg_b", "min")},
        num_buckets=num_buckets,
    ).materialize()


def pairwise_similarity(
    edges_ds,
    kind: str = "jaccard",
    num_buckets: int = 64,
    vertex_weights=None,
    shared_state: Optional[dict] = None,
    local_edge_limit: int = 500_000,
):
    """edges_ds: symmetrized simple (src,dst) Dataset. Returns
    (a, b, common, coeff) for a<b pairs with ≥1 common neighbor.

    The kernel (:func:`_apex_pairs`) runs on the driver table when the
    edge set is at most ``local_edge_limit`` edges, else per
    ``hash(apex)`` bucket of a Dataset pipeline (pass 0 to force it).

    ``shared_state``: optional caller-owned dict memoizing the
    kind-independent (a, b, common, deg_a, deg_b) table — pass the SAME
    dict across jaccard/sorensen/overlap calls over the SAME edge set and
    only the coefficient map re-runs per kind.

    ``vertex_weights``: optional (vertex, weight) Dataset → weighted
    coefficients (``wjaccard.py`` semantics); ``common`` becomes the
    weighted intersection volume (float64).
    """
    import ray.data as rd

    weighted = vertex_weights is not None
    ck = ("pairs", weighted)
    pairs = shared_state.get(ck) if shared_state is not None else None
    if pairs is None:
        # Arrow blocks: string keys then take the Arrow join path too
        edges_ds = edges_ds.map_batches(
            lambda t: t.select(["src", "dst"]), batch_format="pyarrow"
        ).materialize()
        key = edges_ds.schema().base_schema.field("src").type
        if edges_ds.count() <= local_edge_limit:
            pairs = _pairs_local(edges_ds, vertex_weights, key)
        else:
            pairs = _pairs_ds(edges_ds, vertex_weights, num_buckets)
            if pairs.count() == 0:
                # Ray drops the schema of an all-empty result: the driver
                # executor on no rows gives the typed empty table instead
                pairs = _pairs_local(
                    edges_ds.limit(0),
                    vertex_weights.limit(0) if weighted else None, key)
        if shared_state is not None:
            shared_state[ck] = pairs
    if isinstance(pairs, pa.Table):
        return rd.from_arrow(_with_coeff(pairs, kind))
    return pairs.map_batches(
        _with_coeff, fn_kwargs={"kind": kind}, batch_format="pyarrow"
    )


def pair_similarity(
    edges_ds,
    pairs_ds,
    kind: str = "jaccard",
    num_buckets: int = 64,
    vertex_weights=None,
    broadcast_limit: int = 20_000_000,
):
    """Similarity coefficients over caller-provided (a, b) pairs — the
    reference's primary API (``link_prediction/jaccard.py`` computes over
    ``vertex_pair``; ``similarity_impl.cuh`` intersects the two adjacency
    lists per given pair).

    Work: join pairs to N(a) (Σ deg(a) rows), keep the rows whose wedge
    endpoint is also in N(b) (one more bucketed join), count per pair.
    No quadratic expansion under any skew.  Every pair keeps its row:
    pairs with no common neighbor (or naming a vertex with no edges) are
    returned with common=0 / coeff=0.
    Returns (a, b, common, coeff).

    ``vertex_weights``: optional (vertex, weight) Dataset → weighted
    coefficients (``wjaccard.py`` jaccard_w over caller pairs); ``common``
    becomes the weighted intersection volume (float64).
    """
    from raygraph.agg import hash_aggregate

    weighted = vertex_weights is not None
    edges_ds = edges_ds.materialize()  # deg + both adjacency probes
    pairs_ds = pairs_ds.materialize()  # candidate join + zero-fill join
    kv_ref = None
    if weighted:
        vertex_weights = vertex_weights.materialize()
        kv_ref = _weights_kv_ref(vertex_weights, broadcast_limit)
        deg = _volumes(edges_ds, vertex_weights, num_buckets, kv_ref=kv_ref)
    else:
        deg = hash_aggregate(edges_ds, ["src"], {"deg": (None, "count")})
    ea = edges_ds.map_batches(
        lambda df: df.rename(columns={"src": "a", "dst": "w"})[["a", "w"]],
        batch_format="pandas",
    )
    eb = edges_ds.map_batches(
        lambda df: df.rename(columns={"src": "b", "dst": "w"})[["b", "w"]],
        batch_format="pandas",
    )
    cand = joins.hash_join(pairs_ds, ea, on="a", num_buckets=num_buckets)
    hit = joins.hash_join(cand, eb, on=["b", "w"], num_buckets=num_buckets)
    if weighted:
        if kv_ref is not None:
            hit = hit.map_batches(
                lambda df, kv=kv_ref: _attach_wt_bc(df, kv, "w"),
                batch_format="pandas",
            )
        else:
            hit = joins.hash_join(
                hit, _endpoint_weights(vertex_weights),
                on="w", num_buckets=num_buckets,
            )
    counted = hash_aggregate(
        hit, ["a", "b"],
        {"common": ("__wt", "sum") if weighted else (None, "count")},
    )
    # left-join back so zero-common pairs keep a row (reference contract)
    cast = np.float64 if weighted else np.int64
    common = joins.hash_join(
        pairs_ds, counted, on=["a", "b"], how="left", num_buckets=num_buckets
    ).map_batches(
        lambda df, cast=cast: pd.DataFrame(
            {
                "a": df["a"].to_numpy(np.int64),
                "b": df["b"].to_numpy(np.int64),
                "common": df["common"].fillna(0).to_numpy(cast),
            }
        ),
        batch_format="pandas",
    )
    return _attach_coeff(common, deg, kind, num_buckets)
