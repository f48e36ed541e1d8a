"""Hash-bucketed grouped aggregation with map-side combining.

Ray Data's built-in ``groupby(...).aggregate(...)`` is sort-based and, at
this version/scale, pays ~15-80s fixed cost per shuffle and ~20ms per group
in ``map_groups``.  This module provides the classic partial-aggregate
pattern instead (the reference's two-level reduction,
``per_v_transform_reduce_dst_key_aggregated_outgoing_e.cuh``; Ray guide
"Aggregation at scale"):

1. **combine** — inside ``map_batches``, one Arrow ``group_by`` per batch
   emits one partial row per (key, batch).
2. **shuffle** — :func:`raygraph.joins.bucket_exchange`: ONE Ray groupby
   on the small-cardinality int bucket column ``__bk``.
3. **finalize** — per bucket, the same Arrow ``group_by`` over the
   partials.

This turns a 79s two-string-key groupby of 180k rows into <1s, and scales:
shuffle volume is O(distinct keys per batch), hot keys still land in one
bucket but a bucket only has to fit one task's heap (raise ``num_buckets``
to salt further).  Every stage moves Arrow tables; rows with a null key
are dropped, as pandas ``groupby`` drops them.

Supported ops: count, sum, min, max (all combinable two-phase).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raygraph.joins import bucket_exchange

# agg spec: out_col -> (in_col | None, op)
AggSpec = Dict[str, Tuple[Optional[str], str]]

_COMBINE_OP = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}
# a sum over no valid values is 0, as in pandas, not null
_SUM0 = pc.ScalarAggregateOptions(min_count=0)


def _valid_keys(t: pa.Table, keys) -> pa.Table:
    """The rows of ``t`` with no null key: pandas ``groupby`` drops null
    keys, Arrow ``group_by`` would keep them as one group."""
    if not any(t.column(k).null_count for k in keys):
        return t
    ok = pc.is_valid(t.column(keys[0]))
    for k in keys[1:]:
        ok = pc.and_(ok, pc.is_valid(t.column(k)))
    return t.filter(ok)


def _group(t: pa.Table, keys, aggs: AggSpec) -> pa.Table:
    """One ``pa.Table.group_by(keys)`` pass over ``t``, counts included:
    keys + one column per ``aggs`` entry."""
    cols = {k: t.column(k) for k in keys}
    counts = any(op == "count" for _c, op in aggs.values())
    spec = [([], "count_all")] if counts else []
    for i, (c, op) in enumerate(aggs.values()):
        if op != "count":
            cols[f"__a{i}"] = t.column(c)
            spec.append((f"__a{i}", op, _SUM0 if op == "sum" else None))
    res = pa.table(cols).group_by(keys, use_threads=False).aggregate(spec)
    out = {k: res.column(k) for k in keys}
    for i, (o, (_c, op)) in enumerate(aggs.items()):
        out[o] = res.column("count_all" if op == "count" else f"__a{i}_{op}")
    return pa.table(out)


def hash_aggregate(
    ds,
    keys: Sequence[str],
    aggs: Optional[AggSpec] = None,
    num_buckets: int = 64,
):
    """Grouped aggregate of ``ds`` by ``keys``; returns keys + agg columns.

    ``aggs=None`` → pure distinct. Example::

        hash_aggregate(e, ["src", "dst"], {"weight": ("weight", "min")})
    """
    keys = list(keys)
    aggs = aggs or {}
    fin = {o: (o, _COMBINE_OP[op]) for o, (_c, op) in aggs.items()}

    combined = ds.map_batches(
        lambda t: _group(_valid_keys(t, keys), keys, aggs),
        batch_format="pyarrow", zero_copy_batch=True)
    return bucket_exchange(combined, keys, lambda t: _group(t, keys, fin),
                           num_buckets)


def distinct(ds, keys: Sequence[str], num_buckets: int = 64):
    return hash_aggregate(ds, keys, None, num_buckets)


def _first_k(t: pa.Table, keys, order, k: int) -> pa.Table:
    """The first ``k`` rows of each key of ``t`` after a stable sort by
    ``keys`` ascending, then ``order`` (``(column, "ascending" |
    "descending")`` pairs): ties keep input order.  Null keys form one
    group."""
    t = t.sort_by([(c, "ascending") for c in keys] + list(order))
    n = t.num_rows
    if n == 0:
        return t
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for c in keys:
        a, b = t.column(c)[1:], t.column(c)[:-1]
        same = pc.or_kleene(pc.equal(a, b),
                            pc.and_(pc.is_null(a), pc.is_null(b)))
        new[1:] |= ~pc.fill_null(same, False).to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(new)
    rank = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
    return t.filter(pa.array(rank < k))


def hash_argmin(ds, keys: Sequence[str], order_cols: Sequence[str],
                num_buckets: int = 64):
    """Per-key row-argmin: for each key group keep the one FULL row that is
    lexicographically minimal on ``order_cols``.

    Combinable two-phase like :func:`hash_aggregate` — each batch keeps its
    per-key minimal row (map-side combine), then one bucket shuffle and a
    final per-key pick.  Row identity is preserved (unlike per-column
    ``min``, which would mix columns from different rows).  Null keys
    form one group, as in pandas ``drop_duplicates``."""
    keys = list(keys)
    order = [(c, "ascending") for c in order_cols]

    def pick(t: pa.Table) -> pa.Table:
        return _first_k(t, keys, order, 1)

    part = ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
    return bucket_exchange(part, keys, pick, num_buckets)


def grouped_topk(ds, keys: Sequence[str], order_cols: Sequence[str], k: int,
                 ascending=False, num_buckets: int = 64):
    """Per-key top-k FULL rows by ``order_cols`` (descending by default;
    pass a bool per order column for mixed directions, e.g. score
    descending with a string tiebreak ascending).

    Combinable two-phase: each batch keeps its per-key top-k (map-side
    combine bounds the shuffle to ≤ k rows per key per block), then one
    bucket shuffle and a final per-key top-k.  Deterministic iff
    ``order_cols`` is a total order within each key — include a tiebreak
    column (e.g. a row id) when the ranking column has duplicates.  Rows
    with a null key are dropped, as pandas ``groupby`` drops them.
    """
    keys = list(keys)
    order = list(order_cols)
    per_col = (
        [ascending] * len(order) if isinstance(ascending, bool)
        else list(ascending)
    )
    if len(per_col) != len(order):
        raise ValueError("ascending must be a bool or one flag per order col")
    order = [(c, "ascending" if a else "descending")
             for c, a in zip(order, per_col)]

    def topk(t: pa.Table) -> pa.Table:
        return _first_k(_valid_keys(t, keys), keys, order, k)

    part = ds.map_batches(topk, batch_format="pyarrow", zero_copy_batch=True)
    return bucket_exchange(part, keys, topk, num_buckets)


def bucketed_map_groups(
    ds,
    keys: Sequence[str],
    fn,
    num_buckets: int = 64,
):
    """``groupby(keys).map_groups(fn)`` without per-group task overhead.

    Groups by the bucket of ``keys`` (:func:`raygraph.joins.bucket_exchange`,
    one Ray group per bucket) and runs a pandas groupby-apply inside:
    ``fn`` receives each complete key group as a pandas frame, exactly as
    Ray's ``map_groups`` would deliver it.  Use when the expected group
    count is large and per-group work is small.

    Note: Ray passes a columnless empty block on wherever a block is
    empty (it never calls a ``map_batches`` function on one) and for every
    empty partition of the exchange's sort, and then logs "RefBundle with
    a different schema" warnings.  That is Ray-internal and harmless;
    ``fn`` should still return typed empty frames, so that the blocks IT
    produces stay schema-stable.
    """
    import pandas as pd

    keys = list(keys)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        group = t.to_pandas()
        outs = []
        for _, sub in group.groupby(keys, sort=False):
            r = fn(sub)
            if r is not None and len(r):
                outs.append(r)
        if not outs:
            r = fn(group.head(0))
            return r if r is not None else pd.DataFrame()
        return pd.concat(outs, ignore_index=True)

    return bucket_exchange(ds, keys, per_bucket, num_buckets)
