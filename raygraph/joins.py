"""Distributed join / lookup primitives.

The reference's analogues are the renumber translate merges
(``structure/number_map.py:60-136``) and the kv-store lookups inside prims
(``prims/per_v_transform_reduce_dst_key_aggregated_outgoing_e.cuh`` uses a
cuco static_map).  In Ray Data we provide two strategies and pick by size:

* **broadcast join** — small side placed in the object store once with
  ``ray.put`` and read zero-copy by every map task (never re-shipped per
  batch).  This is the right shape for dimension tables / renumber maps that
  fit in a worker's heap.
* **bucketed hash join** — both sides are side-tagged, unioned and sent
  through :func:`bucket_exchange` (the one hash exchange under every
  bucketed operator: ``__bk = key_bucket(keys, B)``, one shuffle), then
  merged per bucket with the Acero hash join (``pa.Table.join``), or
  with pandas ``merge`` when a side's schema has a pandas ``object``
  column (the Arrow type is then unknown).
  All-to-all cost = one shuffle of each side; B sized ≈ 2–4× cluster
  cores.  Skewed keys can be salted by raising B (each bucket only needs
  to fit in one task's heap).

Ray ≥2.47 also ships ``Dataset.join``; we keep these explicit versions so
the partitioning assumptions are visible and controllable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from raygraph.hashing import key_bucket


def coalesce_for_exchange(ds, num_buckets: int):
    """Merge small blocks before a ``groupby(bucket)`` exchange.

    Ray's sort-based groupby pays a fixed per-block cost on BOTH sort
    sides; a stage fed by hundreds of tiny blocks (map-side partials,
    distinct-per-batch projections) spends more on block bookkeeping
    than on data (measured: 11.3s → 2.9s for the 1.8M-row renumber
    exchange fed by 384 ~4.7k-row blocks).  Coalescing to
    ``max(num_buckets, cluster CPUs)`` blocks keeps full parallelism and
    is heap-safe under these modules' existing sizing contract: callers
    already raise ``num_buckets`` until one BUCKET fits a task heap, and
    a coalesced block holds ≤ total/num_buckets ≈ one bucket of rows.
    (``target_num_rows_per_block`` repartition was measured slower than
    the plain count-based coalesce at this Ray version.)
    """
    import ray

    tgt = max(num_buckets, int(ray.cluster_resources().get("CPU", num_buckets)))
    return ds.repartition(tgt, shuffle=False)


BUCKET = "__bk"


def bucket_exchange(ds, keys: Sequence[str], fn, num_buckets: int = 64,
                    batch_format: str = "pyarrow", coalesce: bool = True):
    """The one hash-bucket exchange: append ``__bk`` =
    :func:`~raygraph.hashing.key_bucket` of ``keys`` to every block of
    ``ds`` (a Dataset, or a list of Datasets tagged one by one and then
    unioned), coalesce (:func:`coalesce_for_exchange`), and run ONE
    ``groupby("__bk").map_groups``.  ``fn`` sees all rows of a bucket at
    once, without ``__bk``, as ``batch_format``; every row of a key lands
    in the same call.

    Blocks are tagged in their own format (Arrow stays Arrow, pandas stays
    pandas), and the tag fuses into the stage that made the block.
    ``coalesce=False`` suits data-sized inputs (the edge dedup): there
    the extra plasma copy costs more than the small-block savings buy."""
    keys = list(keys)

    def tag(b):
        bk = key_bucket([b[k] for k in keys], num_buckets)
        if isinstance(b, pa.Table):
            return b.append_column(BUCKET, pa.array(bk))
        return b.assign(**{BUCKET: bk})

    tagged = [d.map_batches(tag, batch_format=None, zero_copy_batch=True)
              for d in (ds if isinstance(ds, (list, tuple)) else [ds])]
    both = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    if coalesce:
        both = coalesce_for_exchange(both, num_buckets)
    if batch_format == "pandas":
        def per_bucket(b):
            return fn(b.drop(columns=BUCKET))
    else:
        def per_bucket(b):
            return fn(b.drop_columns([BUCKET]))
    return both.groupby(BUCKET).map_groups(per_bucket,
                                           batch_format=batch_format)


def _pin_for_schema(ds):
    """Pin a Dataset whose schema is not known without executing it.

    ``columns()``/``schema()`` on such a handle run ``limit(1)`` over the
    plan and cancel the tasks still in flight; with an all-to-all in the
    lineage the ENTIRE upstream plan runs, and Ray discards the probe's
    blocks, so the real consumption executes it again (chained joins
    compound this quadratically).  Pinning first makes the probe free and
    lets the join's exchange read the pinned blocks.  Map-only lineages
    are pinned too: each probe cancels in-flight map tasks, and an
    iterative caller (Louvain's Dataset level loop) would run hundreds of
    them."""
    if ds.schema(fetch_if_missing=False) is not None:
        return ds
    from raygraph.lineage import cut_stats_lineage

    # cut_stats_lineage: join inputs pinned inside iterative loops would
    # otherwise chain stats parents round over round; Ray's unmemoized
    # to_summary walk over the resulting diamond DAG is O(2^rounds)
    return cut_stats_lineage(ds.materialize())


def _np_dtypes(ds) -> dict:
    sch = ds.schema()
    out = {}
    for name, t in zip(sch.names, sch.types):
        try:
            out[name] = t.to_pandas_dtype() if isinstance(t, pa.DataType) else t
        except Exception:
            out[name] = object
    return out


def _as_pa_type(t):
    """Schema entry (pa.DataType | numpy dtype) → concrete Arrow type, or
    None when unknowable (pandas ``object`` blocks may hold lists)."""
    if isinstance(t, pa.DataType):
        return t
    try:
        d = np.dtype(t)
    except Exception:
        return None
    if d == object:
        return None
    try:
        return pa.from_numpy_dtype(d)
    except Exception:
        return None


def _arrow_join_plan(left, right, keys, how):
    """Column→Arrow-type maps for both sides when the join can run on the
    Arrow path: inner/left only, int/string keys with equal types on both
    sides, primitive/string payloads, and fully KNOWN types (pandas
    ``object`` columns are ambiguous → pandas fallback)."""
    if how not in ("inner", "left"):
        return None

    def typed(ds):
        sch = ds.schema()
        if sch is None:  # empty dataset with unknown schema
            return None
        out = {}
        for name, t in zip(sch.names, sch.types):
            pt = _as_pa_type(t)
            if pt is None:
                return None
            ok = (
                pa.types.is_integer(pt) or pa.types.is_floating(pt)
                or pa.types.is_boolean(pt) or pa.types.is_string(pt)
                or pa.types.is_large_string(pt)
            )
            if not ok or name.startswith("__r_"):
                return None
            out[name] = pt
        return out

    la, ra = typed(left), typed(right)
    if la is None or ra is None:
        return None
    for k in keys:
        if k not in la or k not in ra or la[k] != ra[k]:
            return None
        if pa.types.is_floating(la[k]) or pa.types.is_boolean(la[k]):
            return None
    return la, ra


def _hash_join_arrow(left, right, keys, how, num_buckets, suffixes, plan):
    """Arrow formulation of :func:`hash_join`: tagged sides share ONE
    explicit unified schema (the other side's payload columns ride along
    as typed nulls — no empty-bucket dtype flap by construction), the
    bucket exchange moves zero-copy Arrow blocks, and each bucket merges
    with the Acero hash join (``pa.Table.join``)."""
    la, ra = plan
    left_cols = list(la)
    right_payload = [c for c in ra if c not in keys]
    jt = "inner" if how == "inner" else "left outer"

    def tag(side):
        def fn(t: pa.Table) -> pa.Table:
            n = len(t)
            cols = {}
            for c in left_cols:
                if side == 0 or c in keys:
                    cols[c] = t.column(c)
                else:
                    cols[c] = pa.nulls(n, la[c])
            for c in right_payload:
                cols["__r_" + c] = (
                    t.column(c) if side == 1 else pa.nulls(n, ra[c])
                )
            cols["__side"] = pa.array(np.full(n, side, np.uint8))
            return pa.table(cols)

        return fn

    lt = left.map_batches(tag(0), batch_format="pyarrow")
    rt = right.map_batches(tag(1), batch_format="pyarrow")

    rsel = keys + ["__r_" + c for c in right_payload]

    def merge(t: pa.Table) -> pa.Table:
        lmask = t.column("__side").to_numpy(zero_copy_only=False) == 0
        l = t.filter(pa.array(lmask)).select(left_cols)
        r = t.filter(pa.array(~lmask)).select(rsel).rename_columns(
            keys + right_payload
        )
        return l.join(r, keys=keys, join_type=jt,
                      left_suffix=suffixes[0], right_suffix=suffixes[1])

    return bucket_exchange([lt, rt], keys, merge, num_buckets)


def hash_join(
    left,
    right,
    on: Sequence[str] | str,
    how: str = "inner",
    num_buckets: int = 64,
    suffixes=("", "_r"),
):
    """Bucketed distributed hash join of two Datasets on equal-named keys.

    The two sides are tagged and unioned; Ray's union NaN-pads mismatched
    schemas when blocks mix, so each side's own columns (and dtypes) are
    re-selected/restored inside the per-bucket merge.
    """
    keys = [on] if isinstance(on, str) else list(on)
    left, right = _pin_for_schema(left), _pin_for_schema(right)
    plan = _arrow_join_plan(left, right, keys, how)
    if plan is not None:
        return _hash_join_arrow(left, right, keys, how, num_buckets,
                                suffixes, plan)
    left_cols, left_dtypes = list(left.columns()), _np_dtypes(left)
    right_cols, right_dtypes = list(right.columns()), _np_dtypes(right)

    def tag(side_val):
        return lambda df: df.assign(__side=np.uint8(side_val))

    lt = left.map_batches(tag(0), batch_format="pandas")
    rt = right.map_batches(tag(1), batch_format="pandas")

    def _restore(df: pd.DataFrame, cols, dtypes) -> pd.DataFrame:
        # a group may hold rows of only one side, in which case the other
        # side's columns are absent entirely (reindex adds them empty)
        df = df.reindex(columns=cols)
        # cast object targets too: a one-sided bucket's reindex pads the
        # absent side's string columns as all-NaN float64, and leaving
        # them float makes Ray's block-schema unification try to cast the
        # POPULATED buckets' strings to float (empty-bucket dtype flap)
        casts = {
            c: dtypes[c]
            for c in cols
            if c in dtypes and df[c].dtype != dtypes[c]
        }
        return df.astype(casts) if casts else df

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        l = _restore(group[group["__side"] == 0], left_cols, left_dtypes)
        r = _restore(group[group["__side"] == 1], right_cols, right_dtypes)
        return l.merge(r, on=keys, how=how, suffixes=suffixes)

    return bucket_exchange([lt, rt], keys, merge, num_buckets,
                           batch_format="pandas")


def asof_join(
    left,
    right,
    on: str,
    by: Sequence[str] | str,
    direction: str = "backward",
    num_buckets: int = 64,
    suffixes=("", "_r"),
):
    """Bucketed distributed as-of join: for each left row, attach the
    right row with the greatest ``on`` ≤ left's ``on`` (``backward``;
    exact matches included, mirroring SQL ``ASOF JOIN ... ON l.on >=
    r.on``) within the same ``by`` key.  Inner semantics — left rows with
    no match are dropped.

    Both sides hash-shuffle once on ``by`` (the only all-to-all), then
    each bucket sorts its two slices by ``on`` and runs a vectorized
    per-key ``pd.merge_asof``.  For determinism, callers must make the
    right side unique per (by, on) — with duplicate right timestamps the
    picked row is order-dependent.
    """
    keys = [by] if isinstance(by, str) else list(by)
    left, right = _pin_for_schema(left), _pin_for_schema(right)
    left_cols, left_dtypes = list(left.columns()), _np_dtypes(left)
    right_cols, right_dtypes = list(right.columns()), _np_dtypes(right)

    def tag(side_val):
        return lambda df: df.assign(__side=np.uint8(side_val))

    lt = left.map_batches(tag(0), batch_format="pandas")
    rt = right.map_batches(tag(1), batch_format="pandas")

    def _restore(df: pd.DataFrame, cols, dtypes) -> pd.DataFrame:
        df = df.reindex(columns=cols)
        # cast object targets too: a one-sided bucket's reindex pads the
        # absent side's string columns as all-NaN float64, and leaving
        # them float makes Ray's block-schema unification try to cast the
        # POPULATED buckets' strings to float (empty-bucket dtype flap)
        casts = {
            c: dtypes[c]
            for c in cols
            if c in dtypes and df[c].dtype != dtypes[c]
        }
        return df.astype(casts) if casts else df

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        l = _restore(group[group["__side"] == 0], left_cols, left_dtypes)
        r = _restore(group[group["__side"] == 1], right_cols, right_dtypes)
        if not len(l) or not len(r):
            return pd.merge_asof(
                l.sort_values(on, kind="mergesort").head(0),
                r.sort_values(on, kind="mergesort"),
                on=on, by=keys, direction=direction, suffixes=suffixes,
            )
        out = pd.merge_asof(
            l.sort_values(on, kind="mergesort"),
            r.sort_values(on, kind="mergesort"),
            on=on, by=keys, direction=direction, suffixes=suffixes,
        )
        # inner semantics: drop left rows with no as-of match (pandas
        # emits them NaN-padded, which would poison downstream dtypes)
        probe = [c for c in out.columns if c not in left_cols]
        if probe:
            out = out[out[probe[0]].notna()]
        return out

    return bucket_exchange([lt, rt], keys, merge, num_buckets,
                           batch_format="pandas")


def interval_join(
    left,
    right,
    on: str,
    by: Sequence[str] | str,
    start_col: str,
    end_col: str,
    num_buckets: int = 64,
    suffixes=("", "_r"),
):
    """Bucketed distributed point-in-interval join: attach to each left
    row the right row (same ``by`` key) whose closed interval
    ``[start_col, end_col]`` contains the left row's ``on`` value.
    Inner semantics — unmatched left rows are dropped.

    Contract: intervals within one key must be non-overlapping (e.g. the
    output of :func:`raygraph.data.windows.session_windows`), so each
    left row matches at most one interval.  That reduces the join to a
    backward as-of on ``start_col`` (one bucketed shuffle per side via
    :func:`asof_join`, vectorized ``merge_asof`` per bucket) followed by
    a map-side ``end_col ≥ on`` filter — no wedge/range explosion at any
    scale.
    """
    def prep(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[on] = df[start_col]
        return df

    left = _pin_for_schema(left)  # probed below AND inside asof_join
    r2 = right.map_batches(prep, batch_format="pandas")
    j = asof_join(left, r2, on=on, by=by, direction="backward",
                  num_buckets=num_buckets, suffixes=suffixes)
    left_cols = set(left.columns())
    end_out = end_col + suffixes[1] if end_col in left_cols else end_col
    return j.map_batches(
        lambda df: df[df[end_out] >= df[on]], batch_format="pandas"
    )


def semi_join(
    left,
    right,
    on: Sequence[str] | str,
    anti: bool = False,
    num_buckets: int = 64,
    broadcast_limit: int = 2_000_000,
):
    """Exact distributed semi-join (``anti=True`` → anti-join): the left
    rows whose key tuple does (does not) appear in ``right``.

    The right side contributes only key PRESENCE, so it is first reduced
    to distinct keys (:func:`raygraph.agg.distinct`: a map-side dedup,
    one small bucketed exchange).  Then:

    * distinct keys ≤ ``broadcast_limit`` — the key table is ``ray.put``
      once and the left side filters map-only: no shuffle of the (big)
      left side at all.  This is the 100-TB shape: a fact stream filtered
      against a bounded dimension key set.
    * otherwise — both sides exchange on ``hash(key) % num_buckets`` and
      membership is resolved per bucket (left rows and the key rows that
      can match them land in the same group by construction).

    Reference analogue: the Bloom pre-filter (``raygraph/data/bloom.py``)
    gives the same semantics approximately without the distinct-key
    aggregate; this is the exact version.
    """
    keys = [on] if isinstance(on, str) else list(on)
    left = _pin_for_schema(left)
    left_cols, left_dtypes = list(left.columns()), _np_dtypes(left)

    from raygraph.agg import distinct

    # consumed by count + filter
    dk = distinct(right, keys, num_buckets=num_buckets).materialize()

    n_keys = dk.count()
    if n_keys == 0:
        # empty key set (found by the hypothesis sweep: an all-empty
        # Dataset's to_pandas drops columns, so the broadcast path below
        # would KeyError) — anti keeps everything, semi keeps nothing
        if anti:
            return left
        return left.map_batches(
            lambda df: df.head(0), batch_format="pandas"
        )
    if n_keys <= broadcast_limit:
        import ray

        kdf = dk.to_pandas()
        single_numeric = (
            len(keys) == 1 and kdf[keys[0]].dtype.kind in "iuf"
        )
        if single_numeric:
            # pre-sort once at put time: each batch then pays one
            # searchsorted instead of rebuilding a hash set per batch
            ref = ray.put(np.sort(kdf[keys[0]].to_numpy()))
        else:
            ref = ray.put(kdf)

        def filt(df: pd.DataFrame) -> pd.DataFrame:
            bc = ray.get(ref)  # zero-copy plasma read, never re-shipped
            if single_numeric:
                v = df[keys[0]].to_numpy()
                if len(bc) == 0:
                    m = np.zeros(len(v), dtype=bool)
                else:
                    pos = np.searchsorted(bc, v)
                    pos_c = np.minimum(pos, len(bc) - 1)
                    m = (bc[pos_c] == v) & (pos < len(bc))
            elif len(keys) == 1:
                m = df[keys[0]].isin(bc[keys[0]]).to_numpy()
            else:
                m = (
                    df[keys]
                    .merge(bc.assign(__hit=1), on=keys, how="left")["__hit"]
                    .notna()
                    .to_numpy()
                )
            return df[~m] if anti else df[m]

        return left.map_batches(filt, batch_format="pandas")

    def tag(side_val, cols):
        return lambda df: df[cols].assign(__side=np.uint8(side_val))

    lt = left.map_batches(tag(0, left_cols), batch_format="pandas")
    rt = dk.map_batches(tag(1, keys), batch_format="pandas")

    def filt_bucket(group: pd.DataFrame) -> pd.DataFrame:
        l = group[group["__side"] == 0]
        present = group.loc[group["__side"] == 1, keys]
        if len(keys) == 1:
            m = l[keys[0]].isin(present[keys[0]]).to_numpy()
        else:
            m = (
                l[keys]
                .merge(present.assign(__hit=1), on=keys, how="left")["__hit"]
                .notna()
                .to_numpy()
            )
        out = l[~m] if anti else l[m]
        out = out.reindex(columns=left_cols)
        # cast object targets too (same empty-bucket dtype flap as
        # hash_join._restore: a one-sided bucket pads string columns as
        # all-NaN float64 and breaks block-schema unification)
        casts = {
            c: left_dtypes[c]
            for c in left_cols
            if c in left_dtypes and out[c].dtype != left_dtypes[c]
        }
        return out.astype(casts) if casts else out

    return bucket_exchange([lt, rt], keys, filt_bucket, num_buckets,
                           batch_format="pandas")


def anti_join(left, right, on, num_buckets: int = 64,
              broadcast_limit: int = 2_000_000):
    """Left rows with NO key match in ``right`` (see :func:`semi_join`)."""
    return semi_join(left, right, on, anti=True, num_buckets=num_buckets,
                     broadcast_limit=broadcast_limit)


def broadcast_map_ref(mapping_df: pd.DataFrame, key: str, value: str):
    """ray.put a key→value mapping once; returns the object ref.

    Stored as (sorted key array, value array) for vectorized searchsorted
    lookup — far faster than a Python dict for millions of keys.
    """
    import ray

    d = mapping_df[[key, value]].sort_values(key)
    karr = d[key].to_numpy()
    varr = d[value].to_numpy()
    return ray.put((karr, varr))


# id(karr) -> (karr, Index): holding karr in the cache pins it alive, so a
# cached id() can never be reused by a different later array (id reuse after
# gc would silently hit a stale Index and mis-map keys present in both maps).
_INDEX_CACHE: dict[int, tuple] = {}


def lookup_broadcast(keys: np.ndarray, kv, missing: str = "raise"):
    """Vectorized lookup of keys against a broadcast (karr, varr) pair.

    Integer keys use binary search; string (object-dtype) keys use a
    hashed ``pd.Index.get_indexer`` — ``np.searchsorted`` over object
    arrays devolves to per-comparison Python calls (~20 string compares
    per lookup) and dominated graph build.  The Index is built once per
    worker process per broadcast object (plasma gives a stable identity).

    ``missing="raise"`` (default) errors on any absent key and returns
    the value array alone.  ``missing="mask"`` returns ``(values,
    found)`` where absent keys carry an arbitrary in-range value and
    ``found`` is False — the vectorized equivalent of an inner join
    (callers drop the unfound rows).
    """
    karr, varr = kv
    if len(karr) == 0:
        # empty map: nothing can match; indexing varr below would raise
        found = np.zeros(len(np.asarray(keys)), dtype=bool)
        if missing == "mask":
            return np.empty(len(found), dtype=varr.dtype), found
        if len(found):
            raise KeyError("lookup_broadcast: empty map, no key can resolve")
        return np.empty(0, dtype=varr.dtype)
    if karr.dtype == object or karr.dtype.kind in "US":
        ent = _INDEX_CACHE.get(id(karr))
        if ent is None:
            idx = pd.Index(karr)
            _INDEX_CACHE.clear()  # one live broadcast map per worker is typical
            _INDEX_CACHE[id(karr)] = (karr, idx)
        else:
            idx = ent[1]
        pos = idx.get_indexer(keys)
        found = pos >= 0
        if missing == "mask":
            return varr[np.clip(pos, 0, len(varr) - 1)], found
        if not found.all():
            bad = np.asarray(keys)[~found][:5]
            raise KeyError(f"lookup_broadcast: keys not in map, e.g. {bad!r}")
        return varr[pos]
    pos = np.searchsorted(karr, keys)
    pos = np.clip(pos, 0, len(karr) - 1)
    found = karr[pos] == keys
    if missing == "mask":
        return varr[pos], found
    if not found.all():
        bad = np.asarray(keys)[~found][:5]
        raise KeyError(f"lookup_broadcast: keys not in map, e.g. {bad!r}")
    return varr[pos]
