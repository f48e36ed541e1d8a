"""Graph construction: normalize → symmetrize → renumber → partition → CSR blocks.

M2 of the build plan (SURVEY.md §7.1).  Semantics mirror the reference's
``simpleGraphImpl.__from_edgelist`` pipeline (``simpleGraph.py:110-244``):

* **normalize** — map arbitrary source/destination/weight column names to the
  canonical fixed schema ``(src, dst, weight:float64)``; unweighted graphs get
  implicit weight 1.0 (``link_analysis/pagerank.py:73``).
* **renumber** — external string/int keys → dense int64 vids 0..V-1 via a
  distinct-union + deterministic id assignment (``number_map.py:47-171``).
  Determinism (required for resume): ids are assigned as
  ``bucket_offset[hash(key) % B] + rank_of_key_within_sorted_bucket`` —
  splitmix64 for integer keys, pandas SipHash for the rest
  (:func:`bucket_rank`) — a pure function of the key set, independent of
  parallelism.
* **symmetrize** — undirected graphs append the reversed edge list and dedup
  ``(src,dst)`` keeping the **min** of the weight (``structure/symmetrize.py:78-93``;
  duplicate-weight rule documented at :32-35).
* **partition** — edges placed by ``splitmix64(src) % P`` (the reference's
  MurmurHash3 placement, ``cpp/src/detail/graph_utils.cuh:69-81``), written as
  sorted-by-(src,dst) "CSR-blocked" Arrow/Parquet partitions, one hive
  directory per partition (resumable layout; workers read only their own
  partition).

Each stage is one Arrow kernel with two executors: a small input runs the
kernels on one driver table (:func:`_from_edges_local`), a large one runs
them per Dataset block plus two shuffles (:func:`_from_edges_ds`).

The on-disk layout *is* the graph object: ``{dir}/meta.json``,
``{dir}/edges/part={p}/*.parquet``, ``{dir}/vmap/*.parquet`` — so a Graph is
shareable across processes and survives restarts (unlike the reference, which
keeps the built graph device-resident only: ``serialization/serializer.cu`` is
its whole-graph escape hatch).
"""

from __future__ import annotations

import glob
import json
import os
import tempfile
import uuid
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raygraph import joins
from raygraph.hashing import hash_int64, key_bucket, part_of_vertex

CANON = ("src", "dst", "weight")
DEFAULT_BROADCAST_LIMIT = 20_000_000  # keys; above this, renumber uses a shuffle join
MULTI_KEY_SEP = "\x1f"  # unit separator — composite multi-column keys


def _rd():
    import ray.data as rd

    return rd


# ---------------------------------------------------------------------------
# normalize


def normalize_edges(ds, src, dst, weight: Optional[str] = None):
    """Rename/project to canonical columns; fill weight=1.0 when absent.

    ``src``/``dst`` may be a single column name or a LIST of names — the
    reference's multi-column external vertex keys (``number_map.py:47-171``
    renumbers column tuples).  Multi-column keys are joined into one
    composite string with the unit separator; :func:`split_key_column`
    restores the original columns after unrenumbering.
    """
    src_cols = [src] if isinstance(src, str) else list(src)
    dst_cols = [dst] if isinstance(dst, str) else list(dst)

    def key(t: pa.Table, cols):
        if len(cols) == 1:
            return t.column(cols[0])
        parts = [pc.cast(t.column(c), pa.string()) for c in cols]
        return pc.binary_join_element_wise(*parts, MULTI_KEY_SEP)

    def fn(t: pa.Table) -> pa.Table:
        s, d = key(t, src_cols), key(t, dst_cols)
        if s.type != d.type:
            # mixed endpoint key types (e.g. composite-string src, int
            # dst): unify to string so the renumber sees one key domain
            s = pc.cast(s, pa.string())
            d = pc.cast(d, pa.string())
        cols = {"src": s, "dst": d}
        if weight is not None:
            cols["weight"] = t.column(weight).cast(pa.float64())
        else:
            cols["weight"] = pa.array(
                np.ones(t.num_rows, dtype=np.float64), pa.float64()
            )
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def split_key_column(ds, col: str, names, sep: str = MULTI_KEY_SEP):
    """Split a composite multi-column key back into its original columns
    (inverse of the multi-column key join in :func:`normalize_edges`)."""
    names = list(names)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        parts = df[col].astype(str).str.split(sep, expand=True)
        parts.columns = names
        return pd.concat(
            [parts.reset_index(drop=True),
             df.drop(columns=[col]).reset_index(drop=True)],
            axis=1,
        )

    return ds.map_batches(fn, batch_format="pandas")


# ---------------------------------------------------------------------------
# build kernels
#
# Each build stage is written once, as a pa.Table → pa.Table (or array)
# kernel.  The driver build (_from_edges_local) calls it on the whole edge
# table; the Dataset build (_from_edges_ds) calls it per block, plus two
# shuffles: the vertex-map bucket rank and the edge dedup.

_EDGES = pa.schema({"src": pa.int64(), "dst": pa.int64(),
                    "weight": pa.float64()})


def _driver_table(ds, schema: pa.Schema) -> pa.Table:
    """All of ``ds`` as one driver table with ``schema``'s columns.

    ``to_arrow_refs()`` hands pandas blocks back unconverted, and an empty
    block may carry null-typed or upstream columns, so empties are dropped."""
    import ray
    from ray.data.block import BlockAccessor

    blocks = [BlockAccessor.for_block(b).to_arrow()
              for b in ray.get(ds.to_arrow_refs())]
    return pa.concat_tables(
        [b.select(schema.names) for b in blocks if b.num_rows]
        or [schema.empty_table()],
        promote_options="permissive")


def _read_files(pattern: str, schema: pa.Schema) -> pa.Table:
    """The parquet files matching ``pattern`` as one driver table with
    ``schema``'s columns — a pyarrow read, no Ray Data execution.  Empty
    files are dropped, as in :func:`_driver_table`."""
    import pyarrow.parquet as pq

    tables = [pq.read_table(f, columns=schema.names)
              for f in sorted(glob.glob(pattern))]
    return pa.concat_tables(
        [t for t in tables if t.num_rows] or [schema.empty_table()],
        promote_options="permissive")


def _endpoints(t: pa.Table, cols=("src", "dst")) -> pa.ChunkedArray:
    """The key columns ``cols`` of ``t`` stacked into one column."""
    cols = list(cols)
    return pa.chunked_array([c for n in cols for c in t.column(n).chunks],
                            t.schema.field(cols[0]).type)


def bucket_rank(keys, num_buckets: int = 64) -> pa.Table:
    """Distinct ``keys`` → ``(vertex_key, __bk, __local)`` in
    bucket-major order: the dense-id rule.

    ``__bk`` is the key's :func:`~raygraph.hashing.key_bucket` (the bucket
    of every hash exchange) and ``__local`` its ascending rank
    within the bucket; a key's dense id is the size of all lower buckets
    plus ``__local`` — a pure function of the key set, so resume sees the
    same ids at any parallelism, without a global sort
    (``number_map.py:138-171`` analogue).  On all keys at once the dense
    id is the row position; :func:`build_vertex_map` is the Dataset
    executor."""
    u = pc.unique(keys)
    # Arrow sorts strings by UTF-8 bytes, i.e. by code point
    u = u.take(pc.sort_indices(u))
    b = key_bucket([u], num_buckets)
    order = np.argsort(b, kind="stable")
    b = b[order]
    return pa.table({
        "vertex_key": u.take(pa.array(order)),
        "__bk": pa.array(b, pa.int32()),
        "__local": np.arange(len(b), dtype=np.int64) - np.searchsorted(b, b),
    })


def _translate(t: pa.Table, keys, vids) -> pa.Table:
    """(src, dst) keys → vids: ``pc.index_in`` against a vertex map's key
    column, then a take of its vid column."""
    if t.num_rows == 0:
        return _EDGES.empty_table()
    ends = _endpoints(t)
    if ends.type != keys.type:
        ends = ends.cast(keys.type)
    v = vids.take(pc.index_in(ends, value_set=keys))
    return pa.table({"src": v.slice(0, t.num_rows), "dst": v.slice(t.num_rows),
                     "weight": t.column("weight")})


def _as_ids(t: pa.Table) -> pa.Table:
    """``renumber=False``: the keys already are the vids."""
    return pa.table({"src": t.column("src").cast(pa.int64()),
                     "dst": t.column("dst").cast(pa.int64()),
                     "weight": t.column("weight")})


def _num_ids(t: pa.Table) -> int:
    """1 + the largest vid in ``t`` (0 without edges)."""
    m = [pc.max(t.column(c)).as_py() for c in ("src", "dst")]
    return max((x for x in m if x is not None), default=-1) + 1


def _canon(t: pa.Table, how: str) -> pa.Table:
    """An undirected edge's canonical pair (min(src,dst), max(src,dst)).

    Under "sum" a self-loop's weight doubles first: the legacy
    both-directions :func:`symmetrize` counts it twice (the edge and its
    identical swap)."""
    s, d, w = t.column("src"), t.column("dst"), t.column("weight")
    if how == "sum":
        w = pc.if_else(pc.equal(s, d), pc.multiply(w, 2.0), w)
    return pa.table({"src": pc.min_element_wise(s, d),
                     "dst": pc.max_element_wise(s, d), "weight": w})


_REDUCE = {"min": np.minimum, "max": np.maximum, "sum": np.add}


def _combine(t: pa.Table, how: str) -> pa.Table:
    """Combine parallel (src, dst) rows: a stable sort, then a segment
    reduce of weight.  Key-type generic — the ``symmetrize`` query dedups
    string-keyed edges."""
    t = t.select(list(CANON))
    if t.num_rows == 0:
        return t
    t = t.sort_by([("src", "ascending"), ("dst", "ascending")])
    s, d = t.column("src"), t.column("dst")
    new = pc.or_(pc.not_equal(s[1:], s[:-1]), pc.not_equal(d[1:], d[:-1]))
    starts = np.flatnonzero(np.r_[True, new.to_numpy(zero_copy_only=False)])
    w = _REDUCE[how].reduceat(t.column("weight").to_numpy(), starts)
    return t.take(starts).set_column(2, "weight", pa.array(w))


def _mirror(t: pa.Table) -> pa.Table:
    """Canonical (src ≤ dst) undirected edges in both orientations; a
    self-loop is one undirected edge and is never doubled."""
    t = t.select(list(CANON))
    back = t.filter(pc.not_equal(t.column("src"), t.column("dst")))
    return pa.concat_tables([t, pa.table({"src": back.column("dst"),
                                          "dst": back.column("src"),
                                          "weight": back.column("weight")})])


def _part_sort(t: pa.Table, num_partitions: int, hot=None) -> pa.Table:
    """Sort by (src, dst) and append ``part`` = splitmix64(src) % P; the
    rows of a ``hot`` src (sorted int64 array) spread by (src, dst) hash."""
    t = t.sort_by([("src", "ascending"), ("dst", "ascending")])
    src = t.column("src").to_numpy()
    part = part_of_vertex(src, num_partitions)
    if hot is not None:
        m = np.isin(src, hot)
        if m.any():
            dst = t.column("dst").to_numpy()[m]
            part[m] = (
                (hash_int64(src[m]) ^ hash_int64(dst))
                % np.uint64(num_partitions)
            ).astype(np.int32)
    return t.append_column("part", pa.array(part, pa.int32()))


# ---------------------------------------------------------------------------
# symmetrize


def symmetrize(ds, dedup: Optional[str] = "min"):
    """Append reversed edges; dedup (src,dst) by min/sum of weight.

    ``structure/symmetrize.py:78-93`` (SG) / :164-186 (MG groupby.min).
    ``dedup=None`` keeps parallel edges (multigraph, :88-89).
    """
    def both_directions(t: pa.Table) -> pa.Table:
        swapped = pa.table(
            {"src": t.column("dst"), "dst": t.column("src"), "weight": t.column("weight")}
        )
        return pa.concat_tables([t.select(["src", "dst", "weight"]), swapped])

    u = ds.map_batches(both_directions, batch_format="pyarrow", zero_copy_batch=True)
    if dedup is None:
        return u
    return dedup_edges(u, dedup)


_DEDUP_BUCKETS = 64


def dedup_edges(ds, how: str = "min"):
    """Exact (src,dst) dedup: :func:`_combine` per batch, ONE shuffle by
    edge-hash bucket, :func:`_combine` per bucket.

    No coalesce before the exchange: edge keys are mostly unique, so the
    per-batch combines are data-sized — a pre-exchange coalesce would copy
    the whole edge table through plasma once more, evicting page cache
    that the next stage's actor startups need (measured: +18s first-engine
    spin-up after the build at sf0.1)."""

    def combine(t: pa.Table) -> pa.Table:
        return _combine(t, how)

    part = ds.map_batches(combine, batch_format="pyarrow", zero_copy_batch=True)
    return joins.bucket_exchange(part, ["src", "dst"], combine,
                                 _DEDUP_BUCKETS, coalesce=False)


# ---------------------------------------------------------------------------
# renumber


def build_vertex_map(ds, cols=("src", "dst"), num_buckets: int = 64):
    """Distinct keys of ``cols`` → (vertex_key, vid): :func:`bucket_rank`
    on a Dataset.

    Each batch keeps its own distinct keys (a map-side combine), the ONE
    :func:`~raygraph.joins.bucket_exchange` groups them by key bucket —
    the ``__bk`` that :func:`bucket_rank` assigns — each bucket ranks all
    of its keys, and the driver sees only the B bucket sizes:
    vid = offsets[__bk] + __local, the row position the driver build
    gives the same key.

    Returns (vmap_dataset, num_vertices).
    """

    def distinct(t: pa.Table) -> pa.Table:
        return pa.table({"vertex_key": pc.unique(_endpoints(t, cols))})

    ranked = joins.bucket_exchange(
        ds.map_batches(distinct, batch_format="pyarrow", zero_copy_batch=True),
        ["vertex_key"],
        lambda t: bucket_rank(t.column("vertex_key"), num_buckets),
        num_buckets,
    ).materialize()  # small (distinct keys); reused twice below

    counts = _driver_table(ranked.map_batches(
        lambda t: pa.table({
            "b": np.arange(num_buckets, dtype=np.int32),
            "n": np.bincount(t.column("__bk").to_numpy(),
                             minlength=num_buckets),
        }),
        batch_format="pyarrow",
    ), pa.schema({"b": pa.int32(), "n": pa.int64()}))
    sizes = np.bincount(counts.column("b").to_numpy(),
                        weights=counts.column("n").to_numpy(),
                        minlength=num_buckets).astype(np.int64)
    offsets = np.cumsum(sizes) - sizes

    vmap = ranked.map_batches(
        lambda t: pa.table({
            "vertex_key": t.column("vertex_key"),
            "vid": offsets[t.column("__bk").to_numpy()]
            + t.column("__local").to_numpy(),
        }),
        batch_format="pyarrow",
    )
    return vmap, int(sizes.sum())


def build_vertex_map_by_degree(ds, cols=("src", "dst"), num_buckets: int = 64):
    """Distinct keys of ``cols`` → (vertex_key, vid) with vids assigned in
    DESCENDING total-degree order.

    Mirrors the reference's degree-descending vertex ordering
    (``renumber_edgelist_impl.cuh:384-392``) without a global sort:
    per-batch (key, count) partials; the ONE
    :func:`~raygraph.joins.bucket_exchange` groups them by key bucket;
    each bucket task sums its keys' degrees, sorts (degree desc, key asc)
    and emits per-(degree, bucket) local ranks; the driver sees only
    per-(degree, bucket) GROUP SIZES — O(distinct degrees × B) rows (power-law graphs have
    O(√E) distinct degrees) — orders them by (-degree, bucket) into
    exclusive offsets, and vid = group_offset + local_rank.  So
    degree(vid i) ≥ degree(vid j) whenever i < j, deterministic for a
    given edge multiset at any parallelism (degree ties order by hash
    bucket then key).  Degree = occurrence count in the input edge list
    (pre-dedup), matching the reference.

    Returns (vmap_dataset, num_vertices).
    """
    import ray

    def key_counts(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(_endpoints(t, cols))
        return pa.table({"vertex_key": vc.field("values"),
                         "__cnt": vc.field("counts")})

    def rank_within(t: pa.Table) -> pa.Table:
        t = t.group_by("vertex_key", use_threads=False).aggregate(
            [("__cnt", "sum")])
        keys = t.column("vertex_key")
        t = pa.table({"vertex_key": keys, "degree": t.column("__cnt_sum"),
                      "__bk": key_bucket([keys], num_buckets)})
        t = t.sort_by([("degree", "descending"), ("vertex_key", "ascending")])
        # local rank within each degree segment of this bucket
        d = -t.column("degree").to_numpy()
        return t.append_column(
            "__local", pa.array(np.arange(len(d)) - np.searchsorted(d, d)))

    ranked = joins.bucket_exchange(
        ds.map_batches(key_counts, batch_format="pyarrow"), ["vertex_key"],
        rank_within, num_buckets,
    ).materialize()  # small (distinct keys); reused twice

    # per-(degree, bucket) group sizes, ordered (degree desc, bucket asc)
    # by the key -degree·B + bucket into exclusive offsets
    g = _driver_table(ranked.map_batches(
        lambda t: t.group_by(["degree", "__bk"]).aggregate(
            [("__local", "count")]),
        batch_format="pyarrow",
    ), pa.schema({"degree": pa.int64(), "__bk": pa.int32(),
                  "__local_count": pa.int64()}))

    def okey(t: pa.Table) -> np.ndarray:
        return (-t.column("degree").to_numpy().astype(np.int64) * num_buckets
                + t.column("__bk").to_numpy())

    ks = np.unique(okey(g))
    sizes = np.bincount(np.searchsorted(ks, okey(g)),
                        weights=g.column("__local_count").to_numpy(),
                        minlength=len(ks)).astype(np.int64)
    ref = ray.put((ks, np.cumsum(sizes) - sizes))

    def assign(t: pa.Table) -> pa.Table:
        ks, offs = ray.get(ref)
        return pa.table({
            "vertex_key": t.column("vertex_key"),
            "vid": offs[np.searchsorted(ks, okey(t))]
            + t.column("__local").to_numpy(),
        })

    return ranked.map_batches(assign, batch_format="pyarrow"), int(sizes.sum())


def translate_edges(edges_ds, vmap_ds, num_vertices: int,
                    broadcast_limit: int = DEFAULT_BROADCAST_LIMIT,
                    num_buckets: int = 64):
    """(src, dst) keys → vids via the vertex map.

    Up to ``broadcast_limit`` vertices the map is pulled to the driver and
    ``ray.put`` once; every block runs :func:`_translate` against it (no
    shuffle, never re-shipped per batch).  Each block's ``pc.index_in``
    builds its own hash set of the map: at 2M keys that costs no more than
    the per-worker cached sorted / ``pd.Index`` lookup it replaced, and at
    20M int keys with 10M probes it took 4.9 s against 18 s (1 core).
    Larger maps fall back to two
    bucketed hash joins (``joins.hash_join``), so the driver never holds
    the map.
    """
    if num_vertices <= broadcast_limit:
        import ray

        vm = _driver_table(vmap_ds, pa.schema({"vertex_key": pa.int64(),
                                               "vid": pa.int64()}))
        ref = ray.put((vm.column("vertex_key").combine_chunks(),
                       vm.column("vid").combine_chunks()))
        return edges_ds.map_batches(
            lambda t: _translate(t, *ray.get(ref)),
            batch_format="pyarrow", zero_copy_batch=True,
        )

    # large-map path: two shuffle joins (temp vid columns avoid name clashes
    # with the canonical src/dst names)
    def side(key, vid):
        return vmap_ds.map_batches(
            lambda t: pa.table({key: t.column("vertex_key"),
                                vid: t.column("vid")}),
            batch_format="pyarrow",
        )

    e = joins.hash_join(edges_ds, side("src", "__vid_s"), on="src",
                        num_buckets=num_buckets)
    e = joins.hash_join(e, side("dst", "__vid_d"), on="dst",
                        num_buckets=num_buckets)
    return e.map_batches(
        lambda t: pa.table({"src": t.column("__vid_s").cast(pa.int64()),
                            "dst": t.column("__vid_d").cast(pa.int64()),
                            "weight": t.column("weight").cast(pa.float64())}),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# partition + persist


def partition_and_write(edges_ds, out_dir: str, num_partitions: int,
                        split_degree_threshold: Optional[int] = None,
                        mirror: bool = False):
    """Hash-partition edges by src into hive dirs of sorted-run files.

    No shuffle: each block is sorted by (src,dst) locally (the reference
    sorts per edge-partition when compressing COO→CSR,
    ``cpp/src/structure/detail/structure_utils.cuh:173-238``) and the
    hive-partitioned write splits it across ``part=`` directories.  A
    partition is therefore a set of sorted runs; consumers (the superstep
    workers) merge them with one ``np.unique``/searchsorted pass at load —
    cheaper at every scale than a cluster-wide sort shuffle.

    ``split_degree_threshold``: srcs with out-degree above it have their
    edge ROWS spread over all partitions by (src,dst) hash instead of
    landing in one src-hash partition — the reference's high-degree vertex
    splitting (``renumber_edgelist_impl.cuh`` degree segments).  The
    superstep engine detects the resulting foreign-src ("mirror") edges
    and syncs mirror state per iteration (PageRank path).

    ``mirror``: the input holds each undirected edge ONCE in canonical
    (src ≤ dst) order; every non-self-loop row is written in both
    orientations here, map-side.  This lets the undirected build dedup
    the canonical E-row table (half the shuffle volume) and pay the 2×
    expansion only in this shuffle-free write stage.
    """
    import ray

    if mirror:
        edges_ds = edges_ds.map_batches(
            _mirror, batch_format="pyarrow", zero_copy_batch=True
        )

    hot_ref = None
    if split_degree_threshold is not None:
        from raygraph.agg import hash_aggregate

        edges_ds = edges_ds.materialize()  # consumed twice below
        deg = hash_aggregate(
            edges_ds.map_batches(
                lambda t: pa.table({"src": t.column("src")}),
                batch_format="pyarrow",
            ),
            ["src"], {"n": (None, "count")},
        )
        hot = _driver_table(deg.map_batches(
            lambda t: t.filter(pc.greater(t.column("n"),
                                          split_degree_threshold)),
            batch_format="pyarrow",
        ), pa.schema({"src": pa.int64()}))  # hot srcs are few
        hot_ref = ray.put(np.sort(hot.column("src").to_numpy()))

    withpart = edges_ds.map_batches(
        lambda t: _part_sort(t, num_partitions,
                             None if hot_ref is None else ray.get(hot_ref)),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    withpart.write_parquet(os.path.join(out_dir, "edges"), partition_cols=["part"])


def _from_edges_local(ds, out_dir, renumber, how, mirror, num_partitions):
    """The build kernels on one driver table — for small inputs, where a
    Dataset round-trip per stage costs more than the stage.  Returns
    (num_vertices, num_edges)."""
    import pyarrow.parquet as pq

    t = _driver_table(ds, _EDGES)
    if renumber:
        keys = bucket_rank(_endpoints(t)).column("vertex_key")
        V = len(keys)
        vids = pa.array(np.arange(V, dtype=np.int64))
        t = _translate(t, keys, vids)
        vmap_dir = os.path.join(out_dir, "vmap")
        os.makedirs(vmap_dir, exist_ok=True)
        pq.write_table(pa.table({"vertex_key": keys, "vid": vids}),
                       os.path.join(vmap_dir, "part-0.parquet"))
    else:
        t = _as_ids(t)
        V = _num_ids(t)
    if mirror:
        t = _canon(t, how)
    if how is not None:
        t = _combine(t, how)
    if mirror:
        t = _mirror(t)

    t = _part_sort(t, num_partitions)
    part = t.column("part").to_numpy()
    t = t.drop_columns(["part"])
    edges_dir = os.path.join(out_dir, "edges")
    os.makedirs(edges_dir, exist_ok=True)
    for p in np.unique(part):
        pdir = os.path.join(edges_dir, f"part={int(p)}")
        os.makedirs(pdir, exist_ok=True)
        pq.write_table(t.filter(pa.array(part == p)),
                       os.path.join(pdir, "data.parquet"))
    return V, t.num_rows


def _from_edges_ds(ds, out_dir, renumber, how, mirror, num_partitions,
                   broadcast_limit, split_degree_threshold, order_by_degree):
    """The build kernels per Dataset block, plus the shuffles (vertex-map
    bucket rank, edge dedup).  Returns (num_vertices, num_edges)."""
    import pyarrow.dataset as pads
    import ray

    # The derivation inherits the source's block granularity (often
    # hundreds of tiny blocks for a narrow 3-column table), and every
    # downstream stage of the build pays per-block overhead: at sf0.1
    # one coalesce here cut vertex_map 8.3→2.7s, translate 10.1→3.5s,
    # dedup 13.1→1.2s, write 2.3→0.6s.  Size-aware and self-gating:
    # target ≥128 MB per block, at least one block per CPU, and only
    # when the current count is pathological (>2× target).
    nb, sz = ds.num_blocks(), ds.size_bytes() or 0
    tgt = max(
        int(ray.cluster_resources().get("CPU", 16)),
        int(sz // (128 << 20)) + 1,
    )
    if nb > 2 * tgt:
        # LAZY coalesce: consumers merge the materialized blocks on
        # the fly.  A second .materialize() here measurably stalls
        # the next actor-pool spin-up (a second persistent E-sized
        # plasma copy; see BASELINE.md coalesce finding) — the lazy
        # merge costs a re-execution per consumer but keeps exactly
        # one persistent copy.
        ds = ds.repartition(tgt, shuffle=False)

    if renumber:
        builder = (
            build_vertex_map_by_degree if order_by_degree
            else build_vertex_map
        )
        vmap, V = builder(ds)
        vmap = vmap.materialize()
        ds = translate_edges(ds, vmap, V, broadcast_limit=broadcast_limit)
        vmap.write_parquet(os.path.join(out_dir, "vmap"))
    else:
        ds = ds.map_batches(_as_ids, batch_format="pyarrow")
        mx = _driver_table(
            ds.map_batches(lambda t: pa.table({"n": [_num_ids(t)]}),
                           batch_format="pyarrow"),
            pa.schema({"n": pa.int64()}))
        V = pc.max(mx.column("n")).as_py() or 0

    if mirror:
        ds = ds.map_batches(lambda t: _canon(t, how), batch_format="pyarrow",
                            zero_copy_batch=True)
    if how is not None:
        ds = dedup_edges(ds, how)
    partition_and_write(
        ds, out_dir, num_partitions,
        split_degree_threshold=split_degree_threshold,
        mirror=mirror,
    )
    # edge count from parquet metadata (no data read)
    return V, pads.dataset(os.path.join(out_dir, "edges")).count_rows()


# ---------------------------------------------------------------------------
# Graph handle


class Graph:
    """Handle to a built, partitioned graph on disk.

    The analogue of ``cugraph.Graph`` (``structure/graph_classes.py:39-657``):
    properties + renumber map + partitioned physical edges, minus any
    device-resident state — workers page in only their own partition.
    """

    def __init__(self, base_dir: str, meta: dict):
        self.base_dir = base_dir
        self.meta = meta
        # driver-side copies of the immutable on-disk graph, read once per
        # handle by the small-graph gates (see edge_table / vertex_keys)
        self._edges: Optional[pa.Table] = None
        self._keys = None
        self._unrenumber_ref = None

    def __getstate__(self):
        # a handle shipped to a task carries its directory, not its caches
        return {"base_dir": self.base_dir, "meta": self.meta}

    def __setstate__(self, state):
        self.__init__(state["base_dir"], state["meta"])

    # -- properties -------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.meta["num_vertices"]

    @property
    def num_edges(self) -> int:
        """STORED directed edge rows (an undirected graph stores both
        directions, so this is 2× the logical edge count — it is the right
        figure for per-iteration traversal rates).  For the reference's
        ``number_of_edges()`` convention use :meth:`number_of_edges`."""
        return self.meta["num_edges"]

    def number_of_edges(self) -> int:
        """Logical edge count, cuGraph convention (``graph_classes.py``):
        each undirected edge counted once."""
        e = self.meta["num_edges"]
        return e if self.directed else e // 2

    @property
    def num_partitions(self) -> int:
        return self.meta["num_partitions"]

    @property
    def directed(self) -> bool:
        return self.meta["directed"]

    @property
    def renumbered(self) -> bool:
        return self.meta["renumbered"]

    # -- accessors --------------------------------------------------------
    def edges_dir(self) -> str:
        return os.path.join(self.base_dir, "edges")

    def part_dir(self, p: int) -> str:
        return os.path.join(self.base_dir, "edges", f"part={p}")

    def edges_dataset(self, columns=None):
        # driver-side footer fetch for the ≤num_partitions files (see
        # sources.driver_meta_provider: the default provider's remote
        # metadata tasks can stall behind a full actor-pool reservation)
        from raygraph.sources import read_parquet_dir

        return read_parquet_dir(self.edges_dir(), columns=columns)

    def vmap_dataset(self):
        from raygraph.sources import read_parquet_dir

        return read_parquet_dir(os.path.join(self.base_dir, "vmap"))

    def edge_table(self, columns=CANON) -> pa.Table:
        """The stored edges as one driver table (a pyarrow read of
        ``edges/``, no Ray Data execution), read once per handle.  For the
        small-graph gates: callers check the graph's size first."""
        if self._edges is None:
            self._edges = _read_files(
                os.path.join(self.edges_dir(), "part=*", "*.parquet"),
                _EDGES).combine_chunks()
        return self._edges.select(list(columns))

    def vertex_keys(self) -> pa.ChunkedArray:
        """External key of every vertex, indexed by vid (a pyarrow read of
        ``vmap/``, once per handle).  V-sized: callers stay under the
        ``broadcast_limit`` switch of :meth:`unrenumber`."""
        if self._keys is None:
            t = _read_files(os.path.join(self.base_dir, "vmap", "*.parquet"),
                            pa.schema({"vertex_key": pa.string(),
                                       "vid": pa.int64()}))
            self._keys = t.column("vertex_key").take(
                pc.sort_indices(t.column("vid")))
        return self._keys

    def vertices_dataset(self):
        """Dataset of (vid:int64) for all vertices — derived, not stored."""
        rd = _rd()
        v = self.num_vertices
        return rd.range(v).map_batches(
            lambda t: pa.table({"vertex": t.column("id").cast(pa.int64())}),
            batch_format="pyarrow",
        )

    def unrenumber(self, ds, col: str,
                   broadcast_limit: int = DEFAULT_BROADCAST_LIMIT):
        """Map internal vids in ``ds[col]`` back to external keys.

        ``graph_classes.py:412-451`` — inverse of the renumber translate.
        Small maps broadcast once (``ray.put`` of :meth:`vertex_keys`,
        indexed by vid); past ``broadcast_limit`` vertices it falls back to
        a bucketed hash join (same size switch as ``translate_edges``) so
        the driver never holds the vmap.
        """
        if not self.renumbered:
            return ds
        if self.num_vertices <= broadcast_limit:
            import ray

            # the vmap is immutable — ray.put once per handle, so a query
            # unrenumbering several columns pays one driver pull
            ref = self._unrenumber_ref
            if ref is None:
                ref = ray.put(
                    self.vertex_keys().to_numpy(zero_copy_only=False))
                self._unrenumber_ref = ref

            def fn(df: pd.DataFrame) -> pd.DataFrame:
                df = df.copy()
                df[col] = ray.get(ref)[df[col].to_numpy()]
                return df

            return ds.map_batches(fn, batch_format="pandas")

        # large-map path: one bucketed hash join on the vid column
        vm = self.vmap_dataset().map_batches(
            lambda df: df.rename(columns={"vid": col, "vertex_key": "__ext"}),
            batch_format="pandas",
        )
        joined = joins.hash_join(ds, vm, on=col)

        def swap(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df[col] = df["__ext"]
            return df.drop(columns="__ext")

        return joined.map_batches(swap, batch_format="pandas")

    # -- point lookups (test/REPL convenience — ``simpleGraph.py:928-1014``;
    # each is a filtered scan, not meant for hot paths) --------------------
    def has_node(self, vid: int) -> bool:
        return 0 <= int(vid) < self.num_vertices

    def has_edge(self, src: int, dst: int) -> bool:
        e = self.edges_dataset(columns=["src", "dst"])
        n = e.map_batches(
            lambda t: t.filter(
                pc.and_(pc.equal(t.column("src"), int(src)),
                        pc.equal(t.column("dst"), int(dst)))
            ),
            batch_format="pyarrow",
        ).count()
        return n > 0

    def neighbors(self, vid: int) -> np.ndarray:
        """Out-neighbors of ``vid`` (reads only vid's hash partition)."""
        import pyarrow.dataset as pads

        # int() before %: numpy uint64 % python int silently promotes to
        # float64 and mangles the partition id
        pdir = self.part_dir(int(hash_int64(np.array([vid]))[0]) % self.num_partitions)
        if not os.path.isdir(pdir):
            return np.empty(0, np.int64)
        t = pads.dataset(pdir).to_table(columns=["src", "dst"])
        s = t.column("src").to_numpy()
        return np.unique(t.column("dst").to_numpy()[s == int(vid)])

    def nodes(self):
        return self.vertices_dataset()

    def edges(self):
        return self.edges_dataset()

    # -- persistence ------------------------------------------------------
    @staticmethod
    def load(base_dir: str) -> "Graph":
        with open(os.path.join(base_dir, "meta.json")) as f:
            return Graph(base_dir, json.load(f))

    def _save_meta(self):
        with open(os.path.join(self.base_dir, "meta.json"), "w") as f:
            json.dump(self.meta, f, indent=1)

    # -- construction -----------------------------------------------------
    @staticmethod
    def from_edges(
        edges_ds,
        src: str = "src_key",
        dst: str = "dst_key",
        weight: Optional[str] = "weight",
        directed: bool = True,
        renumber: bool = True,
        dedup: Optional[str] = None,
        num_partitions: int = 16,
        out_dir: Optional[str] = None,
        broadcast_limit: int = DEFAULT_BROADCAST_LIMIT,
        split_degree_threshold: Optional[int] = None,
        order_by_degree: bool = False,
        local_edge_limit: int = 500_000,
    ) -> "Graph":
        """Build a partitioned Graph from an edge Dataset.

        ``dedup``: None keeps parallel edges; "min"/"sum" combines them.
        Undirected graphs are symmetrized with min-dedup unless overridden
        (reference default, ``symmetrize.py:78-93``).

        ``order_by_degree=True`` assigns dense vids in descending
        total-degree order (the reference's optional vertex ordering,
        ``renumber_edgelist_impl.cuh:384-392``) — deterministic, so
        resume-safe; requires ``renumber=True``.
        """
        if order_by_degree and not renumber:
            raise ValueError("order_by_degree requires renumber=True")
        if out_dir is None:
            out_dir = os.path.join(
                tempfile.gettempdir(), "raygraph", f"graph-{uuid.uuid4().hex[:12]}"
            )
        os.makedirs(out_dir, exist_ok=True)

        ds = normalize_edges(edges_ds, src=src, dst=dst, weight=weight)
        # Execute the upstream edge-derivation lineage exactly ONCE.  Both
        # build_vertex_map and translate_edges consume the normalized edges;
        # without this the whole derivation (corpus read, regex extraction,
        # joins) runs twice.  The normalized table is 3 narrow columns —
        # small relative to the source corpus — and materialize() keeps it
        # as spillable object-store blocks, so this stays streaming-safe.
        ds = ds.materialize()

        # Undirected graphs dedup the canonical (min(src,dst), max(src,dst))
        # pair table — HALF the shuffle volume of both-directions-then-dedup
        # — and mirror each surviving edge at write time.  Exactly
        # ``symmetrize(ds, dedup)``: min/sum over an unordered pair's
        # copies is orientation-independent, and _canon reproduces the
        # legacy "sum" self-loop doubling.
        how = dedup if directed else (dedup or "min")
        if (split_degree_threshold is None and not order_by_degree
                and ds.count() <= local_edge_limit):
            # small input: the same kernels on one driver table — checked
            # BEFORE the lazy coalesce so count() stays a metadata read
            V, E = _from_edges_local(ds, out_dir, renumber, how,
                                     not directed, num_partitions)
        else:
            V, E = _from_edges_ds(ds, out_dir, renumber, how, not directed,
                                  num_partitions, broadcast_limit,
                                  split_degree_threshold, order_by_degree)

        meta = {
            "num_vertices": V,
            "num_edges": E,
            "num_partitions": num_partitions,
            "directed": directed,
            "renumbered": renumber,
            "dedup": how,
            "weighted": weight is not None,
            "split_degree_threshold": split_degree_threshold,
            "order_by_degree": order_by_degree,
            # original key column spec (a list ⇒ composite multi-column
            # keys; unrenumber + split_key_column restores them)
            "src_key": src if isinstance(src, str) else list(src),
            "dst_key": dst if isinstance(dst, str) else list(dst),
            "schema_version": 1,
        }
        g = Graph(out_dir, meta)
        g._save_meta()
        return g
