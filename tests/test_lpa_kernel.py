"""LPA's worker kernels against the combine they replaced, bit for bit.

``lpa_scatter`` sums edge weights per (dst, label) and ``lpa_update`` sums
the received partials per (vertex, label), then picks the heaviest label
per vertex (ties -> min label).  The reference below is the earlier
combine: ``np.unique`` + ``np.bincount`` (packed keys) or a two-key
``np.lexsort`` + segment ``np.bincount`` (wide keys), then
``np.lexsort((lab, -wsum, vi))``.  Both sum each group in input order, so
float weights that are not exactly summable (multiples of 0.1) must give
the same bits; a segmented sum such as ``np.add.reduceat`` does not.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raygraph.hashing import part_of_vertex
from raygraph.superstep import PartitionWorker


def ref_group_pairs(a, b, weights, wide):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if not wide:
        key = (a << np.int64(32)) | b
        uk, inv = np.unique(key, return_inverse=True)
        agg = np.bincount(inv, weights=weights, minlength=len(uk))
        return uk >> np.int64(32), uk & np.int64(0xFFFFFFFF), agg
    order = np.lexsort((b, a))
    a_s, b_s = a[order], b[order]
    new = np.ones(len(a_s), dtype=bool)
    new[1:] = (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])
    gid = np.cumsum(new) - 1
    agg = np.bincount(gid, weights=np.asarray(weights)[order],
                      minlength=int(gid[-1]) + 1 if len(gid) else 0)
    return a_s[new], b_s[new], agg


def ref_scatter(wk):
    lab_e = wk._src_vec("labels")[wk.src_local]
    di, lab, wsum = ref_group_pairs(wk.dst_inverse, lab_e, wk.w, wk.wide)
    ow = wk.part2worker[part_of_vertex(wk.dst_unique[di], wk.P)]
    return [(wk.dst_unique[di[ow == q]], lab[ow == q], wsum[ow == q])
            for q in range(wk.W)]


def ref_update(wk, msgs):
    vids = np.concatenate([m[0] for m in msgs])
    labs = np.concatenate([m[1] for m in msgs])
    ws = np.concatenate([m[2] for m in msgs])
    new = wk.state["labels"].copy()
    idx = np.searchsorted(wk.owned, vids)
    vi, lab, wsum = ref_group_pairs(idx, labs, ws, wk.wide)
    order = np.lexsort((lab, -wsum, vi))
    vi_s, lab_s = vi[order], lab[order]
    first = np.ones(len(vi_s), dtype=bool)
    first[1:] = vi_s[1:] != vi_s[:-1]
    new[vi_s[first]] = lab_s[first]
    return new


def write_graph(path, V, P, seed):
    """A symmetrized multigraph with weights that are multiples of 0.1 (and
    a few NaNs): skewed in-degree gives groups of many edges."""
    rng = np.random.RandomState(seed)
    E = 6000
    src = rng.randint(0, V, E)
    dst = np.minimum(rng.zipf(1.6, E) - 1, V - 1)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = rng.randint(1, 30, len(src)) * 0.1
    w[rng.rand(len(w)) < 0.005] = np.nan  # NaN sums lose every argmax
    src, dst, w = (np.concatenate([src, dst]), np.concatenate([dst, src]),
                   np.concatenate([w, w]))
    part = part_of_vertex(src, P)
    for p in range(P):
        sel = part == p
        d = path / "edges" / f"part={p}"
        d.mkdir(parents=True)
        pq.write_table(pa.table({
            "src": src[sel].astype(np.int64),
            "dst": dst[sel].astype(np.int64),
            "weight": w[sel].astype(np.float64),
        }), str(d / "0.parquet"))


@pytest.mark.parametrize("wide", [False, True], ids=["packed", "wide"])
@pytest.mark.parametrize("W", [1, 3])
def test_lpa_kernel_matches_reference_combine(tmp_path, W, wide):
    V, P = 400, 6
    write_graph(tmp_path, V, P, seed=W)
    workers = [PartitionWorker(str(tmp_path), q, W, P, V, wide_keys=wide)
               for q in range(W)]
    rng = np.random.RandomState(3)
    for wk in workers:
        # a handful of labels: many (dst, label) groups of many edges, and
        # many vertices whose best labels tie exactly
        wk.state["labels"] = rng.randint(0, 5, wk.n_owned).astype(np.int64)
    changed = 0
    for _ in range(4):
        out = [wk.lpa_scatter()[0] for wk in workers]
        for wk, o in zip(workers, out):
            for got, want in zip(o, ref_scatter(wk)):
                for g, x in zip(got, want):
                    assert g.dtype == x.dtype and g.tobytes() == x.tobytes()
        want = [ref_update(wk, [o[wk.wid] for o in out]) for wk in workers]
        for wk, lab in zip(workers, want):
            changed += wk.lpa_update(out)["changed"]
            assert np.array_equal(wk.state["labels"], lab)
    assert changed
