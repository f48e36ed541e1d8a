"""Graph construction: normalize → symmetrize → renumber → partition → CSR blocks.

M2 of the build plan (SURVEY.md §7.1).  Semantics mirror the reference's
``simpleGraphImpl.__from_edgelist`` pipeline (``simpleGraph.py:110-244``):

* **normalize** — map arbitrary source/destination/weight column names to the
  canonical fixed schema ``(src, dst, weight:float64)``; unweighted graphs get
  implicit weight 1.0 (``link_analysis/pagerank.py:73``).
* **renumber** — external string/int keys → dense int64 vids 0..V-1 via a
  distinct-union + deterministic id assignment (``number_map.py:47-171``).
  Determinism (required for resume): ids are assigned as
  ``bucket_offset[crc32(key) % B] + rank_of_key_within_sorted_bucket`` — a
  pure function of the key set, independent of parallelism.
* **symmetrize** — undirected graphs append the reversed edge list and dedup
  ``(src,dst)`` keeping the **min** of the weight (``structure/symmetrize.py:78-93``;
  duplicate-weight rule documented at :32-35).
* **partition** — edges placed by ``splitmix64(src) % P`` (the reference's
  MurmurHash3 placement, ``cpp/src/detail/graph_utils.cuh:69-81``), written as
  sorted-by-(src,dst) "CSR-blocked" Arrow/Parquet partitions, one hive
  directory per partition (resumable layout; workers read only their own
  partition).

The on-disk layout *is* the graph object: ``{dir}/meta.json``,
``{dir}/edges/part={p}/*.parquet``, ``{dir}/vmap/*.parquet`` — so a Graph is
shareable across processes and survives restarts (unlike the reference, which
keeps the built graph device-resident only: ``serialization/serializer.cu`` is
its whole-graph escape hatch).
"""

from __future__ import annotations

import json
import os
import tempfile
import uuid
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from raygraph import joins
from raygraph.hashing import hash_int64, hash_str_array

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
    import pyarrow.compute as pc

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


def dedup_edges(ds, how: str = "min"):
    """Exact (src,dst) dedup: map-side combine + bucketed hash aggregate
    (see raygraph.agg for why not Ray's sort-based groupby).

    ``coalesce=False``: edge keys are mostly unique, so the combine's
    partials are data-sized — the pre-exchange coalesce would copy the
    whole edge table through plasma once more, evicting page cache that
    the next stage's actor startups need (measured: +18s first-engine
    spin-up after the build at sf0.1)."""
    from raygraph.agg import hash_aggregate

    return hash_aggregate(ds, ["src", "dst"], {"weight": ("weight", how)},
                          coalesce=False)


# ---------------------------------------------------------------------------
# renumber


def build_vertex_map(edges_ds, src_col="src_key", dst_col="dst_key",
                     key_is_str=True, num_buckets: int = 64):
    """Distinct(src ∪ dst) → (vertex_key, vid) with dense deterministic vids.

    Mirrors ``NumberMap.SingleGPU.indirection_map`` (``number_map.py:138-171``)
    but with a scale-safe id assignment: no global sort / zipWithIndex —
    keys are combined (per-batch dedup), hashed into B buckets, the ONE
    shuffle groups by bucket, and each bucket dedups + sorts locally; vids
    are ``cumulative_bucket_offset + local_rank``.  Deterministic for a given
    key set regardless of parallelism.

    Returns (vmap_dataset, num_vertices).
    """

    def project_bucket(df: pd.DataFrame) -> pd.DataFrame:
        k = pd.concat([df[src_col], df[dst_col]], ignore_index=True).unique()
        if key_is_str:
            h = hash_str_array(k)
        else:
            k = np.asarray(k, dtype=np.int64)
            h = hash_int64(k)
        return pd.DataFrame(
            {
                "vertex_key": k,
                "__bucket": (h % np.uint64(num_buckets)).astype(np.int32),
            }
        )

    keyed = edges_ds.map_batches(project_bucket, batch_format="pandas")

    def rank_within(group: pd.DataFrame) -> pd.DataFrame:
        u = np.unique(group["vertex_key"].to_numpy())
        return pd.DataFrame(
            {
                "vertex_key": u,
                "__bucket": group["__bucket"].iloc[0],
                "__local": np.arange(len(u), dtype=np.int64),
            }
        )

    keyed = joins.coalesce_for_exchange(keyed, num_buckets)
    ranked = keyed.groupby("__bucket").map_groups(rank_within, batch_format="pandas")
    ranked = ranked.materialize()  # small (distinct keys); reused twice below

    # per-bucket sizes: per-batch max partials → tiny frame on the driver
    parts = ranked.map_batches(
        lambda df: df.groupby("__bucket", as_index=False)["__local"].max(),
        batch_format="pandas",
    ).to_pandas()
    sizes = parts.groupby("__bucket")["__local"].max() + 1
    offsets = np.zeros(num_buckets, dtype=np.int64)
    offsets[sizes.index.to_numpy()] = sizes.to_numpy()
    total = int(offsets.sum())
    offsets = np.concatenate([[0], np.cumsum(offsets)[:-1]])

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        vid = offsets[df["__bucket"].to_numpy()] + df["__local"].to_numpy()
        return pd.DataFrame({"vertex_key": df["vertex_key"], "vid": vid.astype(np.int64)})

    vmap = ranked.map_batches(assign, batch_format="pandas")
    return vmap, total


def build_vertex_map_by_degree(edges_ds, src_col="src_key", dst_col="dst_key",
                               key_is_str=True, num_buckets: int = 64):
    """Distinct(src ∪ dst) → (vertex_key, vid) with vids assigned in
    DESCENDING total-degree order.

    Mirrors the reference's degree-descending vertex ordering
    (``renumber_edgelist_impl.cuh:384-392``) without a global sort:
    per-batch (key, count) partials → one bucketed hash aggregate gives
    (vertex_key, degree); the ONE shuffle groups by hash bucket; each
    bucket task sorts (degree desc, key asc) and emits per-(degree,
    bucket) local ranks; the driver sees only per-(degree, bucket) GROUP
    SIZES — O(distinct degrees × B) rows (power-law graphs have
    O(√E) distinct degrees) — orders them by (-degree, bucket) into
    exclusive offsets, and vid = group_offset + local_rank.  So
    degree(vid i) ≥ degree(vid j) whenever i < j, deterministic for a
    given edge multiset at any parallelism (degree ties order by hash
    bucket then key).  Degree = occurrence count in the input edge list
    (pre-dedup), matching the reference.

    Returns (vmap_dataset, num_vertices).
    """
    import ray

    from raygraph.agg import hash_aggregate

    def key_counts(df: pd.DataFrame) -> pd.DataFrame:
        k = pd.concat([df[src_col], df[dst_col]], ignore_index=True)
        vc = k.value_counts(sort=False)
        return pd.DataFrame(
            {
                "vertex_key": vc.index.to_numpy(),
                "__cnt": vc.to_numpy().astype(np.int64),
            }
        )

    partials = edges_ds.map_batches(key_counts, batch_format="pandas")
    deg = hash_aggregate(
        partials, ["vertex_key"], {"degree": ("__cnt", "sum")},
        num_buckets=num_buckets,
    )

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        k = df["vertex_key"].to_numpy()
        if key_is_str:
            h = hash_str_array(k)
        else:
            h = hash_int64(np.asarray(k, dtype=np.int64))
        return pd.DataFrame(
            {
                "vertex_key": df["vertex_key"].to_numpy(),
                "degree": df["degree"].to_numpy(np.int64),
                "__bucket": (h % np.uint64(num_buckets)).astype(np.int32),
            }
        )

    keyed = deg.map_batches(bucketize, batch_format="pandas")

    def rank_within(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["degree", "vertex_key"], ascending=[False, True],
            kind="stable",
        )
        d = g["degree"].to_numpy(np.int64)
        # local rank within each degree segment of this bucket
        seg0 = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        local = np.arange(len(d), dtype=np.int64)
        local -= np.repeat(local[seg0], np.diff(np.r_[seg0, len(d)]))
        return pd.DataFrame(
            {
                "vertex_key": g["vertex_key"].to_numpy(),
                "degree": d,
                "__bucket": group["__bucket"].iloc[0],
                "__local": local,
            }
        )

    keyed = joins.coalesce_for_exchange(keyed, num_buckets)
    ranked = keyed.groupby("__bucket").map_groups(
        rank_within, batch_format="pandas"
    )
    ranked = ranked.materialize()  # small (distinct keys); reused twice

    parts = ranked.map_batches(
        lambda df: df.groupby(
            ["degree", "__bucket"], as_index=False
        )["__local"].max(),
        batch_format="pandas",
    ).to_pandas()
    sizes = (
        parts.groupby(["degree", "__bucket"], as_index=False)["__local"].max()
    )
    sizes["__local"] += 1
    sizes = sizes.sort_values(
        ["degree", "__bucket"], ascending=[False, True]
    ).reset_index(drop=True)
    counts = sizes["__local"].to_numpy(np.int64)
    offs = np.concatenate([[0], np.cumsum(counts)[:-1]])
    total = int(counts.sum())
    okey = (
        sizes["degree"].to_numpy(np.int64) * num_buckets
        + sizes["__bucket"].to_numpy(np.int64)
    )
    order = np.argsort(okey, kind="stable")
    ref = ray.put((okey[order], offs[order]))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        ks, os_ = ray.get(ref)
        key = (
            df["degree"].to_numpy(np.int64) * num_buckets
            + df["__bucket"].to_numpy(np.int64)
        )
        vid = os_[np.searchsorted(ks, key)] + df["__local"].to_numpy(np.int64)
        return pd.DataFrame(
            {"vertex_key": df["vertex_key"], "vid": vid.astype(np.int64)}
        )

    vmap = ranked.map_batches(assign, batch_format="pandas")
    return vmap, total


def translate_edges(edges_ds, vmap_ds, num_vertices: int,
                    src_col="src_key", dst_col="dst_key",
                    broadcast_limit: int = DEFAULT_BROADCAST_LIMIT,
                    num_buckets: int = 64):
    """(src_key,dst_key,weight) → (src,dst,weight) via the vertex map.

    Small maps are broadcast once via ``ray.put`` and looked up with
    vectorized searchsorted inside every map task (no shuffle, never
    re-shipped per batch); large maps fall back to two bucketed hash joins
    (``joins.hash_join``).
    """
    if num_vertices <= broadcast_limit:
        vdf = vmap_ds.to_pandas()
        ref = joins.broadcast_map_ref(vdf, "vertex_key", "vid")

        def fn(df: pd.DataFrame) -> pd.DataFrame:
            import ray

            karr_varr = ray.get(ref)
            src = joins.lookup_broadcast(df[src_col].to_numpy(), karr_varr)
            dst = joins.lookup_broadcast(df[dst_col].to_numpy(), karr_varr)
            return pd.DataFrame(
                {
                    "src": src.astype(np.int64),
                    "dst": dst.astype(np.int64),
                    "weight": df["weight"].to_numpy(),
                }
            )

        return edges_ds.map_batches(fn, batch_format="pandas")

    # large-map path: two shuffle joins (temp vid columns avoid name clashes
    # with the canonical src/dst names)
    smap = vmap_ds.map_batches(
        lambda df: df.rename(columns={"vertex_key": src_col, "vid": "__vid_s"}),
        batch_format="pandas",
    )
    e1 = joins.hash_join(edges_ds, smap, on=src_col, num_buckets=num_buckets)
    dmap = vmap_ds.map_batches(
        lambda df: df.rename(columns={"vertex_key": dst_col, "vid": "__vid_d"}),
        batch_format="pandas",
    )
    e2 = joins.hash_join(e1, dmap, on=dst_col, num_buckets=num_buckets)
    return e2.map_batches(
        lambda df: pd.DataFrame(
            {
                "src": df["__vid_s"].to_numpy(np.int64),
                "dst": df["__vid_d"].to_numpy(np.int64),
                "weight": df["weight"].to_numpy(np.float64),
            }
        ),
        batch_format="pandas",
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

    def mirror_rows(t: pa.Table) -> pa.Table:
        s, d = t.column("src").to_numpy(), t.column("dst").to_numpy()
        keep = s != d  # a self-loop is one undirected edge — never doubled
        swapped = pa.table(
            {
                "src": pa.array(d[keep], pa.int64()),
                "dst": pa.array(s[keep], pa.int64()),
                "weight": t.column("weight").filter(pa.array(keep)),
            }
        )
        return pa.concat_tables([t.select(["src", "dst", "weight"]), swapped])

    if mirror:
        edges_ds = edges_ds.map_batches(
            mirror_rows, batch_format="pyarrow", zero_copy_batch=True
        )

    hot_ref = None
    if split_degree_threshold is not None:
        import ray

        from raygraph.agg import hash_aggregate

        edges_ds = edges_ds.materialize()  # consumed twice below
        deg = hash_aggregate(
            edges_ds.map_batches(
                lambda t: pa.table({"src": t.column("src")}),
                batch_format="pyarrow",
            ),
            ["src"], {"n": (None, "count")},
        )
        hot = deg.map_batches(
            lambda df: df.loc[df["n"] > split_degree_threshold, ["src"]],
            batch_format="pandas",
        ).to_pandas()  # hot srcs are few by definition
        hot_ref = ray.put(np.sort(hot["src"].to_numpy(np.int64)))

    def add_part_and_sort(t: pa.Table) -> pa.Table:
        t = t.sort_by([("src", "ascending"), ("dst", "ascending")])
        src = t.column("src").to_numpy()
        part = (hash_int64(src) % np.uint64(num_partitions)).astype(np.int32)
        if hot_ref is not None:
            import ray

            hs = ray.get(hot_ref)
            m = np.isin(src, hs)
            if m.any():
                dst = t.column("dst").to_numpy()
                spread = (
                    (hash_int64(src[m]) ^ hash_int64(dst[m]))
                    % np.uint64(num_partitions)
                ).astype(np.int32)
                part = part.copy()
                part[m] = spread
        return t.append_column("part", pa.array(part, pa.int32()))

    withpart = edges_ds.map_batches(
        add_part_and_sort, batch_format="pyarrow", zero_copy_batch=True
    )
    withpart.write_parquet(os.path.join(out_dir, "edges"), partition_cols=["part"])


def _from_edges_local(ds, out_dir, directed, renumber, dedup,
                      num_partitions, weight, src_spec, dst_spec):
    """Driver-local build for small inputs — a bit-faithful replica of
    the distributed stages (bucket-rank renumber, canonical-pair
    symmetrize with the self-loop "sum" doubling, splitmix64 src-hash
    partitioning, per-part (src,dst)-sorted hive parquet), minus the
    per-stage Dataset round-trips.  The caller already normalized the
    edge table to (src, dst, weight:float64) and holds the gate."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    from ray.data.block import BlockAccessor

    from raygraph.hashing import hash_int64, hash_str_array, part_of_vertex

    # to_arrow_refs() hands pandas blocks back unconverted, and an empty
    # block may carry null-typed or upstream columns, so empties are dropped
    blocks = [BlockAccessor.for_block(b).to_arrow()
              for b in ray.get(ds.to_arrow_refs())]
    empty = pa.table({"src": [], "dst": [], "weight": pa.array([], pa.float64())})
    t = pa.concat_tables(
        [b.select(list(CANON)) for b in blocks if b.num_rows] or [empty],
        promote_options="permissive")
    w = t.column("weight").to_numpy()

    os.makedirs(out_dir, exist_ok=True)
    if renumber:
        ends = t.column("src").chunks + t.column("dst").chunks
        keys = pc.unique(pa.chunked_array(ends, t.schema.field("src").type))
        # Arrow sorts strings by UTF-8 bytes, i.e. by code point — the
        # order the Dataset build's per-bucket np.unique ranks in
        keys = keys.take(pc.sort_indices(keys))
        V = len(keys)
        h = (hash_int64(keys.cast(pa.int64()).to_numpy())
             if pa.types.is_integer(keys.type)
             else hash_str_array(keys.to_numpy(zero_copy_only=False)))
        bucket = (h % np.uint64(64)).astype(np.int64)
        # vid = bucket-offset + ascending rank within bucket — keys are
        # already ascending, so bucket-major stable order IS the rank
        order = np.argsort(bucket, kind="stable")
        vid_of_key = np.empty(V, dtype=np.int64)
        vid_of_key[order] = np.arange(V, dtype=np.int64)
        s = vid_of_key[pc.index_in(t.column("src"), value_set=keys).to_numpy()]
        d = vid_of_key[pc.index_in(t.column("dst"), value_set=keys).to_numpy()]
        vmap_dir = os.path.join(out_dir, "vmap")
        os.makedirs(vmap_dir, exist_ok=True)
        pq.write_table(
            pa.table({"vertex_key": keys, "vid": vid_of_key}),
            os.path.join(vmap_dir, "part-0.parquet"),
        )
    else:
        s = t.column("src").to_numpy().astype(np.int64, copy=False)
        d = t.column("dst").to_numpy().astype(np.int64, copy=False)
        V = int(max(s.max(initial=-1), d.max(initial=-1))) + 1 if len(s) else 0

    mirror = False
    how = None
    if not directed:
        how = dedup or "min"
        if how == "sum":
            sl = s == d
            if sl.any():
                w = w.copy()
                w[sl] *= 2.0
        s, d = np.minimum(s, d), np.maximum(s, d)
        mirror = True
    elif dedup is not None:
        how = dedup
    if how is not None and len(s):
        # combine parallel (src,dst) rows — lexsort + segment reduce
        o = np.lexsort((d, s))
        s, d, w = s[o], d[o], w[o]
        newseg = np.r_[True, (s[1:] != s[:-1]) | (d[1:] != d[:-1])]
        starts = np.flatnonzero(newseg)
        red = np.minimum.reduceat if how == "min" else np.add.reduceat
        w = red(w, starts)
        s, d = s[starts], d[starts]

    if mirror and len(s):
        keep = s != d  # a self-loop is one undirected edge — never doubled
        s, d, w = (
            np.concatenate([s, d[keep]]),
            np.concatenate([d, s[keep]]),
            np.concatenate([w, w[keep]]),
        )

    E = len(s)
    edges_dir = os.path.join(out_dir, "edges")
    os.makedirs(edges_dir, exist_ok=True)
    if E:
        part = part_of_vertex(s, num_partitions)
        o = np.lexsort((d, s))
        s, d, w, part = s[o], d[o], w[o], part[o]
        for p in np.unique(part):
            m = part == p
            pdir = os.path.join(edges_dir, f"part={int(p)}")
            os.makedirs(pdir, exist_ok=True)
            pq.write_table(
                pa.table(
                    {"src": pa.array(s[m], pa.int64()),
                     "dst": pa.array(d[m], pa.int64()),
                     "weight": pa.array(w[m], pa.float64())}
                ),
                os.path.join(pdir, "data.parquet"),
            )

    meta = {
        "num_vertices": V,
        "num_edges": E,
        "num_partitions": num_partitions,
        "directed": directed,
        "renumbered": renumber,
        "dedup": dedup if directed else (dedup or "min"),
        "weighted": weight is not None,
        "split_degree_threshold": None,
        "order_by_degree": False,
        "src_key": src_spec if isinstance(src_spec, str) else list(src_spec),
        "dst_key": dst_spec if isinstance(dst_spec, str) else list(dst_spec),
        "schema_version": 1,
    }
    g = Graph(out_dir, meta)
    g._save_meta()
    return g


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
        Small maps broadcast once (``ray.put`` + searchsorted); past
        ``broadcast_limit`` vertices it falls back to a bucketed hash join
        (same size switch as ``translate_edges``) so the driver never holds
        the vmap.
        """
        if not self.renumbered:
            return ds
        if self.num_vertices <= broadcast_limit:
            import ray

            # the vmap is immutable — pull + ray.put once per handle, so
            # a query unrenumbering several columns pays one driver pull
            ref = getattr(self, "_unrenumber_ref", None)
            if ref is None:
                vdf = self.vmap_dataset().to_pandas().sort_values("vid")
                ref = ray.put(
                    (vdf["vid"].to_numpy(), vdf["vertex_key"].to_numpy())
                )
                self._unrenumber_ref = ref

            def fn(df: pd.DataFrame) -> pd.DataFrame:
                karr, varr = ray.get(ref)
                pos = np.searchsorted(karr, df[col].to_numpy())
                df = df.copy()
                df[col] = varr[pos]
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
        import pyarrow.compute as pc

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

        if (split_degree_threshold is None and not order_by_degree
                and ds.count() <= local_edge_limit):
            # small input: driver-local replica of every stage below
            # (bit-faithful; see _from_edges_local) — checked BEFORE the
            # lazy coalesce so count() stays a metadata read
            g = _from_edges_local(
                ds, out_dir, directed, renumber, dedup, num_partitions,
                weight, src, dst,
            )
            return g

        # The derivation inherits the source's block granularity (often
        # hundreds of tiny blocks for a narrow 3-column table), and every
        # downstream stage of the build pays per-block overhead: at sf0.1
        # one coalesce here cut vertex_map 8.3→2.7s, translate 10.1→3.5s,
        # dedup 13.1→1.2s, write 2.3→0.6s.  Size-aware and self-gating:
        # target ≥128 MB per block, at least one block per CPU, and only
        # when the current count is pathological (>2× target).
        import ray as _ray

        nb, sz = ds.num_blocks(), ds.size_bytes() or 0
        tgt = max(
            int(_ray.cluster_resources().get("CPU", 16)),
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
            # detect key type from schema
            sch = ds.schema()
            src_type = sch.types[sch.names.index("src")]
            key_is_str = pa.types.is_string(src_type) or pa.types.is_large_string(src_type)
            builder = (
                build_vertex_map_by_degree if order_by_degree
                else build_vertex_map
            )
            vmap, V = builder(ds, src_col="src", dst_col="dst", key_is_str=key_is_str)
            vmap = vmap.materialize()
            ds = translate_edges(
                ds, vmap, V, src_col="src", dst_col="dst", broadcast_limit=broadcast_limit
            )
            vmap.write_parquet(os.path.join(out_dir, "vmap"))
        else:
            cast = lambda t: pa.table(
                {
                    "src": t.column("src").cast(pa.int64()),
                    "dst": t.column("dst").cast(pa.int64()),
                    "weight": t.column("weight"),
                }
            )
            ds = ds.map_batches(cast, batch_format="pyarrow")
            mx = ds.map_batches(
                lambda t: pa.table(
                    {
                        "m": pa.array(
                            [
                                max(
                                    pa.compute.max(t.column("src")).as_py() or -1,
                                    pa.compute.max(t.column("dst")).as_py() or -1,
                                )
                            ],
                            pa.int64(),
                        )
                    }
                ),
                batch_format="pyarrow",
            ).to_pandas()
            V = int(mx["m"].max()) + 1 if len(mx) else 0

        mirror = False
        if not directed:
            # canonical-pair symmetrize: dedup the E-row (min(src,dst),
            # max(src,dst)) table — HALF the shuffle volume of the legacy
            # both-directions-then-dedup — and mirror each surviving edge
            # at write time (shuffle-free).  Exactly equivalent to
            # ``symmetrize(ds, dedup)``: min/sum over an unordered pair's
            # copies is orientation-independent; legacy "sum" counts each
            # self-loop copy twice (orig + its identical swap), which the
            # pre-dedup doubling below reproduces.
            how = dedup or "min"

            def canon(t: pa.Table, how=how) -> pa.Table:
                s = t.column("src").to_numpy()
                d = t.column("dst").to_numpy()
                w = t.column("weight").to_numpy(zero_copy_only=False)
                if how == "sum":
                    sl = s == d
                    if sl.any():
                        w = w.copy()
                        w[sl] *= 2.0
                return pa.table(
                    {
                        "src": pa.array(np.minimum(s, d), pa.int64()),
                        "dst": pa.array(np.maximum(s, d), pa.int64()),
                        "weight": pa.array(w, pa.float64()),
                    }
                )

            ds = dedup_edges(
                ds.map_batches(canon, batch_format="pyarrow",
                               zero_copy_batch=True),
                how,
            )
            mirror = True
        elif dedup is not None:
            ds = dedup_edges(ds, dedup)

        partition_and_write(
            ds, out_dir, num_partitions,
            split_degree_threshold=split_degree_threshold,
            mirror=mirror,
        )

        # edge count from parquet metadata (no data read)
        import pyarrow.dataset as pads

        E = pads.dataset(os.path.join(out_dir, "edges")).count_rows()

        meta = {
            "num_vertices": V,
            "num_edges": E,
            "num_partitions": num_partitions,
            "directed": directed,
            "renumbered": renumber,
            "dedup": dedup if directed else (dedup or "min"),
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
