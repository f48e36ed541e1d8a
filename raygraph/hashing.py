"""Deterministic, run-stable hash functions for partitioning.

The reference partitions edges to GPUs with MurmurHash3_32(vertex) % P
(``cpp/src/detail/graph_utils.cuh:69-81``).  We need the same property —
a fixed, seedless, vectorizable integer hash that is identical across
processes and runs (required for checkpoint *resume*: a restarted job must
route every vertex to the same partition).  We use the splitmix64 finalizer
(public domain, Steele et al., "Fast splittable pseudorandom number
generators") for int64 vertex ids, and pandas' vectorized SipHash
(:func:`hash_str_array`) for string keys.

Python's builtin ``hash()`` is salted per-process (PYTHONHASHSEED) and MUST
NOT be used anywhere in the engine.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    z = x.astype(_U64, copy=True)
    z += _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    z = z ^ (z >> _U64(31))
    return z


def hash_int64(a) -> np.ndarray:
    """Stable uint64 hash of an int64 array (accepts array-likes)."""
    arr = np.asarray(a, dtype=np.int64)
    return splitmix64(arr.view(_U64) if arr.flags.c_contiguous else arr.astype(_U64))


def part_of_vertex(vids, num_parts: int) -> np.ndarray:
    """Partition id of each vertex id: splitmix64(v) % P  (int32).

    This single function defines BOTH edge placement (partition of an edge =
    part_of_vertex(src)) and vertex-state ownership (owner of v's score) —
    keeping src-aligned vertex state co-located with the CSR block, the 1D
    analogue of the reference's 2D hash placement (SURVEY.md §4.4).
    """
    return (hash_int64(vids) % _U64(num_parts)).astype(np.int32)


def hash_str_array(keys) -> np.ndarray:
    """Stable uint64 hashes of a sequence of string keys.

    Vectorized pandas SipHash (fixed internal key — deterministic across
    processes, runs and machines for a pinned pandas version), replacing
    a per-key python crc32 loop that showed up in the graph-build profile
    (12M key instances per sf0.1 build).  Consumers use it for shuffle
    bucketing and dense-vid assignment, which only require
    within-deployment stability.
    """
    import pandas as pd

    arr = np.asarray(keys, dtype=object)
    return pd.util.hash_array(arr, categorize=False)


def _column_hash(col) -> np.ndarray:
    """uint64 hash of one key column, an Arrow (chunked) array or a pandas
    Series: splitmix64 of the int64 value for integer types, pandas
    SipHash (:func:`hash_str_array`) of the values for anything else.
    Both formats hash equal values equally, so pandas and Arrow blocks of
    one Dataset bucket alike."""
    import pyarrow as pa

    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        if pa.types.is_integer(col.type):
            col = col.cast(pa.int64(), safe=False)
            if col.null_count:
                col = col.fill_null(0)
            return hash_int64(col.to_numpy())
        return hash_str_array(col.to_numpy(zero_copy_only=False))
    if col.dtype.kind in "iu":
        return hash_int64(col.to_numpy())
    return hash_str_array(col.to_numpy())


def key_bucket(cols, num_buckets: int) -> np.ndarray:
    """The bucket rule of every hash exchange: key columns → int32 bucket
    in ``[0, num_buckets)``.

    One column buckets by its :func:`_column_hash` mod B — the dense-id
    rule of the graph build (``graph.bucket_rank``), so vertex maps and
    checkpoints depend on it.  Each further column folds in as
    ``splitmix64(h) ^ hash(col)``, so ``(a, b)`` and ``(b, a)`` hash
    differently."""
    h = None
    for col in cols:
        hc = _column_hash(col)
        h = hc if h is None else splitmix64(h) ^ hc
    return (h % _U64(num_buckets)).astype(np.int32)


def group_pairs(a: np.ndarray, b: np.ndarray, weights=None, wide: bool = False):
    """Unique (a, b) pairs in lexicographic order with per-pair aggregates.

    Returns ``(ua, ub, agg)`` — ``agg`` is the pair count (int64) when
    ``weights is None``, else the per-pair weight sum (float64).  LPA's
    (dst, label) combine on the sender and its (vertex, label) combine on
    the receiver are the callers.

    One sort, then one boundary mask over the sorted pairs.  The sort key
    is the packed composite ``a << 32 | b`` (valid while ``0 <= a < 2^31``
    and ``0 <= b < 2^32``), or, with ``wide=True`` (ids past 2^32), a
    two-key ``np.lexsort``.

    The weight sums accumulate in INPUT order (``np.bincount`` over the
    group id of each input position), whatever the sort, so both widths
    give bit-identical float sums.  ``np.add.reduceat`` over the sorted
    weights would not: it is not a sequential sum.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if wide:
        order = np.lexsort((b, a))
        a_s, b_s = a[order], b[order]
    else:
        key = (a << np.int64(32)) | b
        order = np.argsort(key)
        key = key[order]
        a_s, b_s = key >> np.int64(32), key & np.int64(0xFFFFFFFF)
    new = np.ones(len(order), dtype=bool)
    new[1:] = (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])
    gid = np.cumsum(new) - 1
    inv = np.empty_like(gid)
    inv[order] = gid
    agg = np.bincount(inv, weights=weights, minlength=int(new.sum()))
    return a_s[new], b_s[new], agg


def owned_vertices(num_vertices: int, part: int, num_parts: int, chunk: int = 1 << 22) -> np.ndarray:
    """Sorted array of vertex ids owned by ``part`` (hash-mod ownership).

    Computed chunked so a worker never materializes hash values for all V
    vertices at once.
    """
    out = []
    for lo in range(0, num_vertices, chunk):
        hi = min(lo + chunk, num_vertices)
        vids = np.arange(lo, hi, dtype=np.int64)
        out.append(vids[part_of_vertex(vids, num_parts) == part])
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(out)
