"""V >= 2^32 wide-id kernels: forced-path equality on small graphs.

Several superstep kernels pack two ids into one int64 composite key
(BFS dist|pred, LPA dst|label, SCC color|flags, triangle slice*V+vid)
— valid only below 2^32 vertices.  Each has a wide variant (dynamic bit
widths / two-pass lexsort / rank compression) that engages automatically
past 2^32; since a 2^32-vertex graph can't exist in a test, these tests
FORCE the wide paths ($RAYGRAPH_WIDE_KEYS) and assert bit-identical
results against the packed defaults.
"""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from raygraph.graph import Graph
from raygraph.hashing import group_pairs

from tests import fixtures


def build(df, directed, tmp_path, name, num_partitions=4):
    return Graph.from_edges(
        rd.from_pandas(df),
        src="src", dst="dst", weight="weight",
        directed=directed, renumber=False,
        num_partitions=num_partitions,
        out_dir=str(tmp_path / name),
    )


# ----------------------------------------------------------- group_pairs


def test_group_pairs_wide_matches_packed():
    rng = np.random.RandomState(7)
    a = rng.randint(0, 50, 2000).astype(np.int64)
    b = rng.randint(0, 37, 2000).astype(np.int64)
    w = rng.rand(2000)
    for weights in (None, w):
        pa_, pb_, pc_ = group_pairs(a, b, weights=weights, wide=False)
        wa_, wb_, wc_ = group_pairs(a, b, weights=weights, wide=True)
        assert np.array_equal(pa_, wa_)
        assert np.array_equal(pb_, wb_)
        # both widths sum each pair's weights in input order
        assert pc_.dtype == wc_.dtype and np.array_equal(pc_, wc_)


def test_group_pairs_wide_past_32_bits():
    # ids above 2^32 — the packed path would corrupt these
    base = np.int64(2 ** 33)
    a = np.array([base + 1, base + 1, base + 5, 3], dtype=np.int64)
    b = np.array([base + 2, base + 2, 7, base + 9], dtype=np.int64)
    ua, ub, cnt = group_pairs(a, b, wide=True)
    assert ua.tolist() == [3, base + 1, base + 5]
    assert ub.tolist() == [base + 9, base + 2, 7]
    assert cnt.tolist() == [1, 2, 1]


def test_group_pairs_empty():
    e = np.empty(0, np.int64)
    ua, ub, cnt = group_pairs(e, e, wide=True)
    assert len(ua) == len(ub) == len(cnt) == 0


# ------------------------------------------- forced wide superstep paths


def test_wide_keys_bfs_lpa_triangles_match_packed(tmp_path, monkeypatch):
    from raygraph.algos import label_propagation
    from raygraph.algos.traversal import bfs
    from raygraph.algos.triangles import triangle_count

    g = build(fixtures.karate_df(), False, tmp_path, "kwide")
    bfs_p = bfs(g, 0, num_workers=4).to_pandas().sort_values("vertex")
    lpa_p = label_propagation(g, max_iter=15, num_workers=4).to_pandas().sort_values("vertex")
    tri_p = (
        triangle_count(g, num_workers=4)
        .to_pandas().sort_values("vertex")
    )

    monkeypatch.setenv("RAYGRAPH_WIDE_KEYS", "1")
    bfs_w = bfs(g, 0, num_workers=4).to_pandas().sort_values("vertex")
    lpa_w = label_propagation(g, max_iter=15, num_workers=4).to_pandas().sort_values("vertex")
    tri_w = (
        triangle_count(g, num_workers=4)
        .to_pandas().sort_values("vertex")
    )

    for col in ("distance", "predecessor"):
        assert np.array_equal(bfs_p[col].to_numpy(), bfs_w[col].to_numpy())
    assert np.array_equal(lpa_p["label"].to_numpy(), lpa_w["label"].to_numpy())
    assert np.array_equal(tri_p["counts"].to_numpy(), tri_w["counts"].to_numpy())


def test_wide_keys_scc_matches_packed(tmp_path, monkeypatch):
    from raygraph.algos import strongly_connected_components

    rng = np.random.RandomState(11)
    V = 60
    src = rng.randint(0, V, 300)
    dst = rng.randint(0, V, 300)
    keep = src != dst
    df = pd.DataFrame(
        {"src": src[keep], "dst": dst[keep], "weight": np.ones(keep.sum())}
    ).drop_duplicates(["src", "dst"])
    g = build(df, True, tmp_path, "sccw")
    scc_p = (
        strongly_connected_components(g, num_workers=4)
        .to_pandas().sort_values("vertex")["labels"].to_numpy()
    )
    monkeypatch.setenv("RAYGRAPH_WIDE_KEYS", "1")
    scc_w = (
        strongly_connected_components(g, num_workers=4)
        .to_pandas().sort_values("vertex")["labels"].to_numpy()
    )
    assert np.array_equal(scc_p, scc_w)
