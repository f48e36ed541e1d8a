"""M4/M5 tests: PageRank / WCC / LPA vs sequential oracles on golden graphs."""

import numpy as np
import pandas as pd
import pytest
import ray
import ray.data as rd

from raygraph.algos import (
    ConvergenceError,
    label_propagation,
    pagerank,
    weakly_connected_components,
)
from raygraph.graph import Graph

from tests import fixtures, oracles


def build(df, directed, tmp_path, name, num_partitions=4):
    return Graph.from_edges(
        rd.from_pandas(df),
        src="src", dst="dst", weight="weight",
        directed=directed, renumber=False,
        num_partitions=num_partitions,
        out_dir=str(tmp_path / name),
    )


def pr_vec(ds, V):
    df = ds.to_pandas().sort_values("vertex")
    assert len(df) == V
    return df.iloc[:, 1].to_numpy()


# ---------------------------------------------------------------- PageRank


def test_pagerank_karate_undirected(tmp_path):
    g = build(fixtures.karate_df(), False, tmp_path, "k")
    got = pr_vec(pagerank(g, alpha=0.85, tol=1e-6, max_iter=200), fixtures.KARATE_V)
    want = oracles.ref_pagerank(
        fixtures.karate_sym_arrays(), fixtures.KARATE_V,
        alpha=0.85, tol=1e-6, max_iter=200,
    )
    assert np.allclose(got, want, atol=1e-6)
    assert abs(got.sum() - 1.0) < 1e-9


def test_pagerank_directed_line_dangling(tmp_path):
    # line 0->1->...->9: vertex 9 dangling; exercises dangling redistribution
    g = build(fixtures.line_df(10), True, tmp_path, "line")
    got = pr_vec(pagerank(g, tol=1e-10, max_iter=500), 10)
    df = fixtures.line_df(10)
    want = oracles.ref_pagerank(
        (df["src"].to_numpy(), df["dst"].to_numpy(), df["weight"].to_numpy()),
        10, tol=1e-10, max_iter=500,
    )
    assert np.allclose(got, want, atol=1e-8)
    assert abs(got.sum() - 1.0) < 1e-9


def test_pagerank_weighted(tmp_path):
    df = fixtures.karate_df()
    rng = np.random.RandomState(7)
    df["weight"] = rng.uniform(0.5, 3.0, len(df)).round(3)
    g = build(df, True, tmp_path, "kw")
    got = pr_vec(pagerank(g, tol=1e-8, max_iter=300), fixtures.KARATE_V)
    want = oracles.ref_pagerank(
        (df["src"].to_numpy(), df["dst"].to_numpy(), df["weight"].to_numpy()),
        fixtures.KARATE_V, tol=1e-8, max_iter=300,
    )
    assert np.allclose(got, want, atol=1e-6)


def test_pagerank_personalization(tmp_path):
    g = build(fixtures.karate_df(), False, tmp_path, "kp")
    pers = {0: 1.0, 33: 3.0}
    got = pr_vec(
        pagerank(g, tol=1e-8, max_iter=300, personalization=pers), fixtures.KARATE_V
    )
    want = oracles.ref_pagerank(
        fixtures.karate_sym_arrays(), fixtures.KARATE_V,
        tol=1e-8, max_iter=300, personalization=pers,
    )
    assert np.allclose(got, want, atol=1e-6)


def test_pagerank_nstart_multiworker_warm_start(tmp_path):
    # regression: nstart vids must be filtered to each worker's owned set —
    # with >1 worker an unfiltered searchsorted raised IndexError or warm-
    # started the wrong vertices (ADVICE r1, superstep.py pagerank_init)
    g = build(fixtures.karate_df(), False, tmp_path, "kns")
    cold = pagerank(g, tol=1e-8, max_iter=300, num_workers=2).to_pandas()
    warm = pr_vec(
        pagerank(
            g, tol=1e-8, max_iter=300, num_workers=2,
            nstart=(cold["vertex"].to_numpy(), cold["pagerank"].to_numpy()),
        ),
        fixtures.KARATE_V,
    )
    want = oracles.ref_pagerank(
        fixtures.karate_sym_arrays(), fixtures.KARATE_V, tol=1e-8, max_iter=300
    )
    assert np.allclose(warm, want, atol=1e-6)


def test_pagerank_raises_without_convergence(tmp_path):
    g = build(fixtures.karate_df(), False, tmp_path, "kfail")
    with pytest.raises(ConvergenceError):
        pagerank(g, tol=1e-12, max_iter=2)


def test_pagerank_worker_count_invariance(tmp_path):
    # parallelism must not change the result beyond float tolerance
    g = build(fixtures.karate_df(), False, tmp_path, "kinv")
    a = pr_vec(pagerank(g, tol=1e-8, max_iter=300, num_workers=1), fixtures.KARATE_V)
    b = pr_vec(pagerank(g, tol=1e-8, max_iter=300, num_workers=4), fixtures.KARATE_V)
    assert np.allclose(a, b, atol=1e-10)


# ---------------------------------------------------------------- WCC


def test_wcc_two_components(tmp_path):
    df = fixtures.two_components_df()
    g = build(df, False, tmp_path, "2c")
    got = weakly_connected_components(g).to_pandas().sort_values("vertex")
    V = g.num_vertices
    want = oracles.ref_wcc((df["src"].to_numpy(), df["dst"].to_numpy()), V)
    # engine labels are canonical min-vid — must be exactly the oracle's
    assert np.array_equal(got["labels"].to_numpy(), want)
    # isolated vertices (ids 5..9 unused) are their own components
    assert got.set_index("vertex")["labels"][7] == 7


def test_wcc_karate_single_component(tmp_path):
    g = build(fixtures.karate_df(), False, tmp_path, "kwcc")
    got = weakly_connected_components(g).to_pandas()
    assert (got["labels"] == 0).all()


def test_wcc_requires_undirected(tmp_path):
    g = build(fixtures.line_df(5), True, tmp_path, "ld")
    with pytest.raises(ValueError):
        weakly_connected_components(g)


# ---------------------------------------------------------------- LPA


def test_lpa_matches_oracle(tmp_path):
    df = fixtures.karate_df()
    g = build(df, False, tmp_path, "klpa")
    got = (
        label_propagation(g, max_iter=30)
        .to_pandas()
        .sort_values("vertex")["label"]
        .to_numpy()
    )
    src, dst, w = fixtures.karate_sym_arrays()
    want = oracles.ref_lpa((src, dst, w), fixtures.KARATE_V, max_iter=30)
    assert oracles.canonical_map_equal(got, want)


def test_lpa_two_components_never_merge(tmp_path):
    df = fixtures.two_components_df()
    g = build(df, False, tmp_path, "2clpa")
    got = label_propagation(g, max_iter=20).to_pandas().set_index("vertex")["label"]
    comp_a = {got[v] for v in range(5)}
    comp_b = {got[v] for v in range(10, 14)}
    assert comp_a.isdisjoint(comp_b)


def test_lpa_deterministic_across_workers(tmp_path):
    df = fixtures.karate_df()
    g = build(df, False, tmp_path, "klpad")
    a = label_propagation(g, max_iter=15, num_workers=1).to_pandas().sort_values("vertex")["label"].to_numpy()
    b = label_propagation(g, max_iter=15, num_workers=4).to_pandas().sort_values("vertex")["label"].to_numpy()
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- SCC


def _scc_check(df, g, tmp_path_name=None):
    from raygraph.algos import strongly_connected_components

    got = (
        strongly_connected_components(g)
        .to_pandas()
        .sort_values("vertex")["labels"]
        .to_numpy()
    )
    e = g.edges_dataset().to_pandas()
    want = oracles.ref_scc(
        (e["src"].to_numpy(), e["dst"].to_numpy()), g.num_vertices
    )
    assert np.array_equal(got, want)
    return got


def test_scc_cycles_and_dag(tmp_path):
    # two directed 3-cycles bridged one-way, plus a dangling chain
    df = pd.DataFrame(
        {
            "src": [0, 1, 2, 3, 4, 5, 2, 6, 7],
            "dst": [1, 2, 0, 4, 5, 3, 3, 7, 8],
            "weight": np.ones(9),
        }
    )
    g = build(df, True, tmp_path, "scc1")
    got = _scc_check(None, g)
    assert set(got[:3]) == {0} and set(got[3:6]) == {3}
    assert got[6] == 6 and got[7] == 7 and got[8] == 8


def test_scc_random_directed(tmp_path):
    rng = np.random.RandomState(11)
    V = 60
    src = rng.randint(0, V, 300)
    dst = rng.randint(0, V, 300)
    keep = src != dst
    df = pd.DataFrame(
        {"src": src[keep], "dst": dst[keep], "weight": np.ones(keep.sum())}
    ).drop_duplicates(["src", "dst"])
    g = build(df, True, tmp_path, "sccr")
    _scc_check(None, g)


def test_scc_requires_directed(tmp_path):
    from raygraph.algos import strongly_connected_components

    g = build(fixtures.karate_df(), False, tmp_path, "sccund")
    with pytest.raises(ValueError):
        strongly_connected_components(g)


# ------------------------------------------------------- exchange modes


def test_sliced_exchange_matches_packed(tmp_path, monkeypatch):
    # per-receiver (sliced) exchange must reproduce packed-mode results
    # bit-for-bit across pagerank / wcc / lpa / bfs
    from raygraph.algos.traversal import bfs

    g = build(fixtures.karate_df(), False, tmp_path, "kex")
    pr_p = pr_vec(pagerank(g, tol=1e-8, max_iter=300, num_workers=4), fixtures.KARATE_V)
    wcc_p = weakly_connected_components(g, num_workers=4).to_pandas().sort_values("vertex")
    lpa_p = label_propagation(g, max_iter=15, num_workers=4).to_pandas().sort_values("vertex")
    bfs_p = bfs(g, 0, num_workers=4).to_pandas().sort_values("vertex")

    monkeypatch.setenv("RAYGRAPH_EXCHANGE", "sliced")
    pr_s = pr_vec(pagerank(g, tol=1e-8, max_iter=300, num_workers=4), fixtures.KARATE_V)
    wcc_s = weakly_connected_components(g, num_workers=4).to_pandas().sort_values("vertex")
    lpa_s = label_propagation(g, max_iter=15, num_workers=4).to_pandas().sort_values("vertex")
    bfs_s = bfs(g, 0, num_workers=4).to_pandas().sort_values("vertex")

    assert np.allclose(pr_p, pr_s, atol=1e-12)
    assert np.array_equal(wcc_p["labels"].to_numpy(), wcc_s["labels"].to_numpy())
    assert np.array_equal(lpa_p["label"].to_numpy(), lpa_s["label"].to_numpy())
    assert np.array_equal(bfs_p["distance"].to_numpy(), bfs_s["distance"].to_numpy())
    assert np.array_equal(
        bfs_p["predecessor"].to_numpy(), bfs_s["predecessor"].to_numpy()
    )


def test_tree_exchange_matches_packed(tmp_path, monkeypatch):
    # hierarchical (tree) exchange: sliced scatter + per-group combine.
    # Per-dst summation order differs (group subtotals first), so scores
    # agree to summation ulps; frontier kernels (wcc/lpa/bfs) fall back to
    # the sliced shape and must stay bit-identical.  Also checks: the
    # combine tier actually merged duplicate dsts (inter_out < intra_in),
    # and a rerun is bit-identical (deterministic for fixed W, G).
    from raygraph.algos.traversal import bfs
    from raygraph.algos.centrality import katz_centrality
    from raygraph.superstep import SuperstepEngine

    g = build(fixtures.karate_df(), False, tmp_path, "ktr")
    pr_p = pr_vec(pagerank(g, tol=1e-8, max_iter=300, num_workers=4), fixtures.KARATE_V)
    wcc_p = weakly_connected_components(g, num_workers=4).to_pandas().sort_values("vertex")
    bfs_p = bfs(g, 0, num_workers=4).to_pandas().sort_values("vertex")
    katz_p = (katz_centrality(g, max_iter=20, tol=0.0, num_workers=4,
                              fail_on_nonconvergence=False)
              .to_pandas().sort_values("vertex"))

    monkeypatch.setenv("RAYGRAPH_EXCHANGE", "tree")
    monkeypatch.setenv("RAYGRAPH_TREE_GROUP", "2")  # W=4 → 2 groups of 2
    eng = SuperstepEngine(g, num_workers=4)
    eng._keep_alive = True
    try:
        assert eng.exchange_mode == "tree"
        assert [len(m) for m in eng.groups] == [2, 2]
        pr_t = pr_vec(pagerank(g, tol=1e-8, max_iter=300, engine=eng),
                      fixtures.KARATE_V)
        tb = ray.get([w.tree_bytes.remote() for w in eng.workers])
        assert sum(t["combines"] for t in tb) > 0
        assert (sum(t["inter_out"] for t in tb)
                < sum(t["intra_in"] for t in tb))
        pr_t2 = pr_vec(pagerank(g, tol=1e-8, max_iter=300, engine=eng),
                       fixtures.KARATE_V)
    finally:
        eng._keep_alive = False
        eng.shutdown()
    wcc_t = weakly_connected_components(g, num_workers=4).to_pandas().sort_values("vertex")
    bfs_t = bfs(g, 0, num_workers=4).to_pandas().sort_values("vertex")
    katz_t = (katz_centrality(g, max_iter=20, tol=0.0, num_workers=4,
                              fail_on_nonconvergence=False)
              .to_pandas().sort_values("vertex"))

    assert np.allclose(pr_p, pr_t, atol=1e-12)
    assert np.array_equal(pr_t, pr_t2)  # deterministic rerun
    assert np.allclose(katz_p["katz_centrality"].to_numpy(),
                       katz_t["katz_centrality"].to_numpy(), atol=1e-12)
    assert np.array_equal(wcc_p["labels"].to_numpy(), wcc_t["labels"].to_numpy())
    assert np.array_equal(bfs_p["distance"].to_numpy(), bfs_t["distance"].to_numpy())


def test_static_exchange_ships_vids_once(tmp_path):
    # pagerank/spmv routing is static, so round 0 ships (vids, partials)
    # and every later round ships partials only — bytes_out must halve
    # (modulo the O(W) offsets) and results stay exact (covered above).
    from raygraph.superstep import SuperstepEngine

    g = build(fixtures.karate_df(), False, tmp_path, "kvf")
    eng = SuperstepEngine(g, num_workers=4)
    try:
        import ray

        ray.get([w.set_state.remote("x", 1.0) for w in eng.workers])
        _, stats0 = eng.spmv_round_refs("x")
        _, stats1 = eng.spmv_round_refs("x")
        b0 = sum(s["bytes_out"] for s in stats0)
        b1 = sum(s["bytes_out"] for s in stats1)
        rows = sum(s["rows_out"] for s in stats0)
        assert b0 == rows * 16  # int64 vids + float64 partials
        assert b1 == rows * 8   # partials only
    finally:
        eng.shutdown()


# ---------------------------------------------- high-degree src splitting


def test_split_high_degree_pagerank(tmp_path):
    # hub vertex 0 with 4000 out-edges plus a chain for background structure
    import pyarrow.dataset as pads
    import ray

    hub_dst = np.arange(1, 4001, dtype=np.int64)
    chain_src = np.arange(1, 4000, dtype=np.int64)
    df = pd.DataFrame(
        {
            "src": np.concatenate([np.zeros(4000, np.int64), chain_src]),
            "dst": np.concatenate([hub_dst, chain_src + 1]),
            "weight": np.ones(7999),
        }
    )
    g_un = build(df, True, tmp_path, "hub-unsplit", num_partitions=8)
    g_sp = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=True, renumber=False, num_partitions=8,
        out_dir=str(tmp_path / "hub-split"), split_degree_threshold=100,
    )

    def part_sizes(g):
        import os

        sizes = []
        for p in range(g.num_partitions):
            d = os.path.join(g.base_dir, "edges", f"part={p}")
            sizes.append(pads.dataset(d).count_rows() if os.path.isdir(d) else 0)
        return sizes

    # unsplit: the hub's 4000 edges land in ONE partition; split: spread
    assert max(part_sizes(g_un)) >= 4000
    assert max(part_sizes(g_sp)) <= 2000  # bounded near E/P

    a = pr_vec(pagerank(g_un, tol=1e-10, max_iter=500, num_workers=4), 4001)
    b = pr_vec(pagerank(g_sp, tol=1e-10, max_iter=500, num_workers=4), 4001)
    assert np.allclose(a, b, atol=1e-10)

    # the split graph really exercises the mirror path
    from raygraph.superstep import SuperstepEngine

    eng = SuperstepEngine(g_sp, num_workers=4)
    try:
        infos = ray.get([w.info.remote() for w in eng.workers])
        assert sum(i["mirrors"] for i in infos) > 0
    finally:
        eng.shutdown()


def test_split_graph_iterative_family_matches_unsplit(tmp_path):
    # undirected hub graph: wcc / lpa / bfs / sssp / katz / eigenvector
    # must produce identical results through the mirror-sync path
    from raygraph.algos.centrality import eigenvector_centrality, katz_centrality
    from raygraph.algos.traversal import bfs, sssp

    rng = np.random.RandomState(5)
    hub_dst = np.arange(1, 501, dtype=np.int64)
    extra_s = rng.randint(1, 501, 400)
    extra_d = rng.randint(1, 501, 400)
    keep = extra_s != extra_d
    df = pd.DataFrame(
        {
            "src": np.concatenate([np.zeros(500, np.int64), extra_s[keep]]),
            "dst": np.concatenate([hub_dst, extra_d[keep]]),
            "weight": np.concatenate(
                [np.ones(500), rng.randint(1, 5, keep.sum()).astype(float)]
            ),
        }
    ).drop_duplicates(["src", "dst"])
    g_un = build(df, False, tmp_path, "fam-unsplit", num_partitions=8)
    g_sp = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=8,
        out_dir=str(tmp_path / "fam-split"), split_degree_threshold=64,
    )

    def run_all(g):
        out = {}
        # the gated call: the in-driver engine, one worker, no mirrors
        out["lpa_gate"] = label_propagation(g, max_iter=10).to_pandas().sort_values("vertex")["label"].to_numpy()
        b = bfs(g, 0).to_pandas().sort_values("vertex")
        out["bfs_gate_d"] = b["distance"].to_numpy()
        out["bfs_gate_p"] = b["predecessor"].to_numpy()
        out["sssp_gate"] = sssp(g, 0).to_pandas().sort_values("vertex")["distance"].to_numpy()
        out["wcc"] = weakly_connected_components(g, num_workers=3).to_pandas().sort_values("vertex")["labels"].to_numpy()
        out["lpa"] = label_propagation(g, max_iter=10, num_workers=3).to_pandas().sort_values("vertex")["label"].to_numpy()
        b = bfs(g, 0, num_workers=3).to_pandas().sort_values("vertex")
        out["bfs_d"] = b["distance"].to_numpy()
        out["bfs_p"] = b["predecessor"].to_numpy()
        s = sssp(g, 0, num_workers=3).to_pandas().sort_values("vertex")
        out["sssp"] = s["distance"].to_numpy()
        out["katz"] = katz_centrality(g, alpha=0.002, tol=1e-9, max_iter=300, num_workers=3).to_pandas().sort_values("vertex")["katz_centrality"].to_numpy()
        out["eig"] = eigenvector_centrality(g, tol=1e-8, max_iter=500, num_workers=3).to_pandas().sort_values("vertex")["eigenvector_centrality"].to_numpy()
        return out

    a, b = run_all(g_un), run_all(g_sp)
    for k in ("wcc", "lpa", "bfs_d", "bfs_p",
              "lpa_gate", "bfs_gate_d", "bfs_gate_p"):
        assert np.array_equal(a[k], b[k]), k
    for k in ("sssp", "sssp_gate", "katz", "eig"):
        assert np.allclose(a[k], b[k], atol=1e-9), k


def test_split_graph_guards_unsupported_algos(tmp_path):
    df = pd.DataFrame(
        {
            "src": np.zeros(300, np.int64),
            "dst": np.arange(1, 301, dtype=np.int64),
            "weight": np.ones(300),
        }
    )
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=True, renumber=False, num_partitions=4,
        out_dir=str(tmp_path / "hub-g"), split_degree_threshold=50,
    )
    from raygraph.algos import strongly_connected_components

    # the engine path still lacks split-graph support — guard must hold
    with pytest.raises(Exception):
        strongly_connected_components(g, num_workers=2, local_edge_limit=0)

    # but the local gate handles it (vids are unchanged by splitting —
    # only physical partition placement differs), so small split graphs
    # now get correct labels: a star DAG is all singleton SCCs
    res = strongly_connected_components(g).to_pandas()
    assert len(res) == 301
    assert res["labels"].nunique() == 301


# ---------------------------------------------------------- betweenness


def test_betweenness_karate_all_sources(tmp_path):
    from raygraph.algos.centrality import betweenness_centrality

    g = build(fixtures.karate_df(), False, tmp_path, "kbc")
    got = (
        betweenness_centrality(g, normalized=False)
        .to_pandas().sort_values("vertex")["betweenness_centrality"].to_numpy()
    )
    src, dst, _ = fixtures.karate_sym_arrays()
    # unnormalized undirected = raw both-directions sum / 2 (reference
    # rescale() convention)
    want = oracles.ref_betweenness((src, dst), fixtures.KARATE_V) / 2.0
    assert np.allclose(got, want, atol=1e-9)
    # vertex 0 and 33 are the classic high-betweenness hubs
    assert got.argmax() in (0, 33)


def test_betweenness_karate_normalized(tmp_path):
    from raygraph.algos.centrality import betweenness_centrality

    g = build(fixtures.karate_df(), False, tmp_path, "kbcn")
    got = (
        betweenness_centrality(g, normalized=True)
        .to_pandas().sort_values("vertex")["betweenness_centrality"].to_numpy()
    )
    src, dst, _ = fixtures.karate_sym_arrays()
    V = fixtures.KARATE_V
    # normalized divides the RAW both-directions sum by the full
    # (V-1)(V-2) — for undirected this equals (raw/2) / ((V-1)(V-2)/2)
    want = oracles.ref_betweenness((src, dst), V) / ((V - 1) * (V - 2))
    assert np.allclose(got, want, atol=1e-12)


def test_betweenness_sampled_matches_oracle_same_sources(tmp_path):
    from raygraph.algos.centrality import betweenness_centrality

    g = build(fixtures.karate_df(), False, tmp_path, "kbcs")
    srcs = [0, 5, 33]
    got = (
        betweenness_centrality(g, sources=srcs, normalized=False)
        .to_pandas().sort_values("vertex")["betweenness_centrality"].to_numpy()
    )
    src, dst, _ = fixtures.karate_sym_arrays()
    # sampled unnormalized undirected: halve, then V/|S| extrapolation
    # (reference rescale_by_total_sources_used)
    want = (
        oracles.ref_betweenness((src, dst), fixtures.KARATE_V, sources=srcs)
        / 2.0 * (fixtures.KARATE_V / len(srcs))
    )
    assert np.allclose(got, want, atol=1e-9)


def test_betweenness_directed_line(tmp_path):
    from raygraph.algos.centrality import betweenness_centrality

    g = build(fixtures.line_df(6), True, tmp_path, "lbc")
    got = (
        betweenness_centrality(g, normalized=False)
        .to_pandas().sort_values("vertex")["betweenness_centrality"].to_numpy()
    )
    df = fixtures.line_df(6)
    want = oracles.ref_betweenness(
        (df["src"].to_numpy(), df["dst"].to_numpy()), 6
    )
    assert np.allclose(got, want)
    # interior vertices of a directed path: bc[i] = i*(n-1-i)
    assert np.allclose(got, [i * (5 - i) for i in range(6)])


def test_edge_betweenness_karate(tmp_path):
    from raygraph.algos.centrality import edge_betweenness_centrality

    g = build(fixtures.karate_df(), False, tmp_path, "kebc")
    src, dst, _ = fixtures.karate_sym_arrays()
    V = fixtures.KARATE_V
    want = oracles.ref_edge_betweenness((src, dst), V)

    got = edge_betweenness_centrality(g, normalized=False).to_pandas()
    # unnormalized undirected: raw per-stored-direction sum halved
    for r in got.itertuples():
        assert abs(r.betweenness_centrality
                   - want[(r.src, r.dst)] / 2.0) < 1e-9
    assert len(got) == len(src)

    gotn = edge_betweenness_centrality(g, normalized=True).to_pandas()
    for r in gotn.itertuples():
        assert abs(r.betweenness_centrality
                   - want[(r.src, r.dst)] / (V * (V - 1))) < 1e-9


def test_single_worker_engine_fetch_paths(tmp_path):
    """num_workers=1 regression: Ray returns a bare ObjectRef (not a list)
    from num_returns=1 calls, which used to break every served[p][q]
    fan-in (edge BC / SCC / intersect-triangles fetch); under concurrent
    cluster load the default W could collapse to 1 mid-suite."""
    from raygraph.algos import strongly_connected_components
    from raygraph.algos.centrality import edge_betweenness_centrality
    from raygraph.algos.triangles import triangle_count

    g = build(fixtures.karate_df(), False, tmp_path, "w1", num_partitions=1)
    src, dst, _ = fixtures.karate_sym_arrays()
    V = fixtures.KARATE_V

    want = oracles.ref_edge_betweenness((src, dst), V)
    got = edge_betweenness_centrality(g, normalized=False, num_workers=1)
    for r in got.to_pandas().itertuples():
        assert abs(r.betweenness_centrality - want[(r.src, r.dst)] / 2.0) < 1e-9

    tri = triangle_count(g, num_workers=1).to_pandas()
    assert tri[tri.columns[-1]].sum() == 3 * 45  # per-vertex counts, 45 tris

    # directed fixture for the SCC fetch path
    gd = build(
        pd.DataFrame({"src": [0, 1, 2, 2], "dst": [1, 2, 0, 3],
                      "weight": [1.0] * 4}),
        True, tmp_path, "w1d", num_partitions=1,
    )
    comp = (
        strongly_connected_components(gd, num_workers=1)
        .to_pandas()
        .sort_values("vertex")["labels"]
        .tolist()
    )
    assert comp == [0, 0, 0, 3]

    # sliced-exchange pagerank at W=1 (pagerank_scatter_sliced num_returns=1)
    import os

    from raygraph.algos import pagerank

    os.environ["RAYGRAPH_EXCHANGE"] = "sliced"
    try:
        pr_sliced = (
            pagerank(g, num_workers=1).to_pandas()
            .sort_values("vertex")["pagerank"].to_numpy()
        )
    finally:
        del os.environ["RAYGRAPH_EXCHANGE"]
    pr_packed = (
        pagerank(g, num_workers=1).to_pandas()
        .sort_values("vertex")["pagerank"].to_numpy()
    )
    assert np.allclose(pr_sliced, pr_packed, atol=1e-12)


def test_edge_betweenness_sampled_no_extrapolation(tmp_path):
    """Sampled edge BC matches the oracle on the same sources with NO V/k
    factor (the reference's NetworkX-compat note)."""
    from raygraph.algos.centrality import edge_betweenness_centrality

    g = build(fixtures.karate_df(), False, tmp_path, "kebcs")
    src, dst, _ = fixtures.karate_sym_arrays()
    V = fixtures.KARATE_V
    srcs = [0, 5, 33]
    want = oracles.ref_edge_betweenness((src, dst), V, sources=srcs)
    got = edge_betweenness_centrality(
        g, sources=srcs, normalized=True
    ).to_pandas()
    for r in got.itertuples():
        assert abs(r.betweenness_centrality
                   - want[(r.src, r.dst)] / (V * (V - 1))) < 1e-9


def test_pipelined_pagerank_matches_sync(tmp_path, monkeypatch):
    # the lag-1 pipelined loop (normally gated to >=2M edges/worker) must
    # produce the same converged scores as the synchronous loop — forced
    # on/off via $RAYGRAPH_PIPELINE; the pipelined run commits exactly one
    # extra power iteration past tol, so compare at the tol scale
    g = build(fixtures.karate_df(), False, tmp_path, "pipe")
    monkeypatch.setenv("RAYGRAPH_PIPELINE", "0")
    sync = pr_vec(pagerank(g, tol=1e-10, max_iter=500, num_workers=4),
                  fixtures.KARATE_V)
    monkeypatch.setenv("RAYGRAPH_PIPELINE", "1")
    pipe = pr_vec(pagerank(g, tol=1e-10, max_iter=500, num_workers=4),
                  fixtures.KARATE_V)
    assert np.allclose(sync, pipe, atol=1e-9)
    # fixed-iteration (tol=0) runs are bit-identical: exactly max_iter
    # rounds on both paths
    monkeypatch.setenv("RAYGRAPH_PIPELINE", "0")
    s20 = pr_vec(pagerank(g, tol=0.0, max_iter=20, num_workers=4,
                          fail_on_nonconvergence=False), fixtures.KARATE_V)
    monkeypatch.setenv("RAYGRAPH_PIPELINE", "1")
    p20 = pr_vec(pagerank(g, tol=0.0, max_iter=20, num_workers=4,
                          fail_on_nonconvergence=False), fixtures.KARATE_V)
    assert np.array_equal(s20, p20)


def test_engine_reuse_matches_standalone(tmp_path):
    # one engine serving pagerank -> wcc -> lpa -> pagerank (reset between
    # algorithms) must give exactly the results of per-algorithm engines:
    # routing/CSR are graph properties, state is per-algorithm
    from raygraph.superstep import SuperstepEngine

    g = build(fixtures.karate_df(), False, tmp_path, "reuse")
    pr_solo = pr_vec(pagerank(g, tol=1e-10, max_iter=500, num_workers=4),
                     fixtures.KARATE_V)
    cc_solo = weakly_connected_components(g, num_workers=4).to_pandas()
    cc_solo = cc_solo.sort_values("vertex").reset_index(drop=True)
    lpa_solo = label_propagation(g, max_iter=10, num_workers=4).to_pandas()
    lpa_solo = lpa_solo.sort_values("vertex").reset_index(drop=True)

    eng = SuperstepEngine(g, num_workers=4)
    try:
        # results from a kept-alive engine are lazy read handles over the
        # files its workers wrote; consume them after shutdown all the same
        ds_a = pagerank(g, tol=1e-10, max_iter=500, engine=eng)
        ds_b = weakly_connected_components(g, engine=eng)
        ds_c = label_propagation(g, max_iter=10, engine=eng)
        # a second pagerank on the reused engine (coef cache invalidation)
        ds_d = pagerank(g, tol=1e-10, max_iter=500, engine=eng)
        assert len(eng.workers) == 4  # engine survived all runs
    finally:
        eng.shutdown()
    pr_a = pr_vec(ds_a, fixtures.KARATE_V)
    pr_d = pr_vec(ds_d, fixtures.KARATE_V)
    cc_b = ds_b.to_pandas().sort_values("vertex").reset_index(drop=True)
    lpa_c = ds_c.to_pandas().sort_values("vertex").reset_index(drop=True)

    assert np.array_equal(pr_solo, pr_a)
    assert np.array_equal(pr_solo, pr_d)
    pd.testing.assert_frame_equal(cc_solo, cc_b)
    pd.testing.assert_frame_equal(lpa_solo, lpa_c)


def test_engine_reuse_rejects_other_graph(tmp_path):
    from raygraph.superstep import SuperstepEngine

    g1 = build(fixtures.karate_df(), False, tmp_path, "g1")
    g2 = build(fixtures.two_components_df(), False, tmp_path, "g2")
    eng = SuperstepEngine(g1, num_workers=2)
    try:
        with pytest.raises(ValueError, match="different graph"):
            pagerank(g2, engine=eng)
    finally:
        eng.shutdown()


def test_exchange_mode_auto_selection(tmp_path, monkeypatch):
    """Self-gating exchange: single node → packed (zero-copy plasma, the
    measured best at every W here); multi-node → tree when each node
    hosts ≥2 workers (group ≈ one node's workers), else sliced."""
    from raygraph.superstep import SuperstepEngine

    g = build(fixtures.karate_df(), False, tmp_path, "kauto")
    monkeypatch.delenv("RAYGRAPH_EXCHANGE", raising=False)
    eng = SuperstepEngine(g, num_workers=4)
    eng._keep_alive = True
    try:
        assert eng.exchange_mode == "packed"
    finally:
        eng._keep_alive = False
        eng.shutdown()

    # simulate an 2-node cluster: auto must pick tree with per-node groups
    monkeypatch.setattr(SuperstepEngine, "_alive_nodes",
                        staticmethod(lambda: 2))
    eng2 = SuperstepEngine(g, num_workers=4)
    eng2._keep_alive = True
    try:
        assert eng2.exchange_mode == "tree"
        assert [len(m) for m in eng2.groups] == [2, 2]
    finally:
        eng2._keep_alive = False
        eng2.shutdown()

    # 4 nodes × 1 worker each: nothing to combine on-node → sliced
    monkeypatch.setattr(SuperstepEngine, "_alive_nodes",
                        staticmethod(lambda: 4))
    eng3 = SuperstepEngine(g, num_workers=4)
    eng3._keep_alive = True
    try:
        assert eng3.exchange_mode == "sliced"
    finally:
        eng3._keep_alive = False
        eng3.shutdown()


@pytest.mark.parametrize("algo", ["scc", "spectral"])
def test_num_workers_pins_engine_on_small_graph(algo, tmp_path, monkeypatch):
    """``num_workers=`` pins the actor engine under the small-graph gate,
    as it does for every gated algorithm; without it the driver replica
    runs and no engine is built.  The spy stops the call once the engine
    is built: the engine paths have their own tests."""
    from raygraph.algos import strongly_connected_components
    from raygraph.algos.spectral import spectral_balanced_cut_clustering
    from raygraph.superstep import SuperstepEngine

    g = build(fixtures.karate_df(), algo == "scc", tmp_path, "g")
    run = {
        "scc": lambda **kw: strongly_connected_components(g, **kw),
        "spectral": lambda **kw: spectral_balanced_cut_clustering(
            g, 2, 2, **kw),
    }[algo]
    engines = []
    init = SuperstepEngine.__init__

    class Built(Exception):
        pass

    def spy(self, *a, **kw):
        init(self, *a, **kw)
        engines.append((self.executor, all(
            isinstance(w, ray.actor.ActorHandle) for w in self.workers)))
        self.shutdown()
        raise Built

    monkeypatch.setattr(SuperstepEngine, "__init__", spy)
    assert len(run().to_pandas()) == g.num_vertices
    assert engines == []
    with pytest.raises(Built):
        run(num_workers=2)
    assert engines == [("actors", True)]


def test_scc_local_matches_engine(tmp_path):
    """Forced engine path (local_edge_limit=0) equals the Tarjan local
    path bit-for-bit (canonical min-member labels)."""
    from raygraph.algos import strongly_connected_components

    rng = np.random.RandomState(7)
    V = 80
    src = rng.randint(0, V, 400)
    dst = rng.randint(0, V, 400)
    keep = src != dst
    df = pd.DataFrame(
        {"src": src[keep], "dst": dst[keep], "weight": np.ones(keep.sum())}
    ).drop_duplicates(["src", "dst"])
    g = build(df, True, tmp_path, "scceq")
    a = (strongly_connected_components(g).to_pandas()
         .sort_values("vertex").reset_index(drop=True))
    b = (strongly_connected_components(g, local_edge_limit=0).to_pandas()
         .sort_values("vertex").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize("exchange", ["packed", "sliced"])
@pytest.mark.parametrize("graph_name", ["karate", "random"])
@pytest.mark.parametrize("algo", ["bfs", "sssp", "lpa", "bc", "ebc",
                                  "pagerank", "katz", "eigenvector", "hits"])
def test_executor_equivalence(algo, graph_name, exchange, tmp_path,
                              monkeypatch):
    """One kernel, two executors: the small-graph gate runs the engine in
    the driver, and its output is bit-identical to the actor pool at W=1
    and W=3 in either exchange mode.  The gated call starts no actor and
    leaves the idle pool alone; ``local_edge_limit=0`` takes the pool.
    The spmv algorithms (PageRank, Katz, eigenvector, HITS) have no
    ``local_edge_limit``; their float sums over W=3 senders add in another
    order, so W=3 agrees to 1e-12 and W=1 bit for bit."""
    from raygraph import superstep
    from raygraph.algos.centrality import (
        betweenness_centrality,
        edge_betweenness_centrality,
        eigenvector_centrality,
        hits,
        katz_centrality,
    )
    from raygraph.algos.traversal import bfs, sssp
    from raygraph.superstep import SuperstepEngine

    if graph_name == "karate":
        df, directed = fixtures.karate_df(), False
    else:
        rng = np.random.RandomState(11)
        src, dst = rng.randint(0, 60, 300), rng.randint(0, 60, 300)
        keep = src != dst
        df = pd.DataFrame({
            "src": src[keep], "dst": dst[keep],
            "weight": rng.randint(1, 5, keep.sum()).astype(float),
        }).drop_duplicates(["src", "dst"])
        directed = algo != "lpa"  # LPA needs a symmetrized graph
    g = build(df, directed, tmp_path, "g")
    run = {
        "bfs": lambda **kw: bfs(g, 0, **kw),
        "sssp": lambda **kw: sssp(g, 0, **kw),
        "lpa": lambda **kw: label_propagation(g, max_iter=15, **kw),
        "bc": lambda **kw: betweenness_centrality(g, k=16, **kw),
        "ebc": lambda **kw: edge_betweenness_centrality(g, k=16, **kw),
        "pagerank": lambda **kw: pagerank(g, tol=1e-10, max_iter=200, **kw),
        "katz": lambda **kw: katz_centrality(g, alpha=0.01, tol=1e-10,
                                             max_iter=200, **kw),
        "eigenvector": lambda **kw: eigenvector_centrality(
            g, tol=1e-8, max_iter=500, **kw),
        "hits": lambda **kw: hits(g, tol=1e-8, max_iter=200, **kw),
    }[algo]
    key = ["src", "dst"] if algo == "ebc" else ["vertex"]

    def result(**kw):
        return run(**kw).to_pandas().sort_values(key).reset_index(drop=True)

    engines = []  # (executor, every worker is an actor) per engine
    init = SuperstepEngine.__init__

    def spy(self, *a, **kw):
        init(self, *a, **kw)
        engines.append((self.executor, all(
            isinstance(w, ray.actor.ActorHandle) for w in self.workers)))

    spawned = []
    remote_worker = superstep._RemoteWorker

    class SpawnSpy:
        def options(self, **kw):
            spawned.append(kw)
            return remote_worker.options(**kw)

    monkeypatch.setattr(SuperstepEngine, "__init__", spy)
    monkeypatch.setattr(superstep, "_RemoteWorker", SpawnSpy())
    monkeypatch.setenv("RAYGRAPH_EXCHANGE", exchange)

    idle = [w._actor_id for w in superstep._idle_workers()]
    got = result()
    assert engines == [("driver", False)]
    assert spawned == []
    assert [w._actor_id for w in superstep._idle_workers()] == idle

    spmv = algo in ("pagerank", "katz", "eigenvector", "hits")
    pinned = [{"num_workers": 1}, {"num_workers": 3}]
    if not spmv:
        pinned.append({"local_edge_limit": 0})
    for kw in pinned:
        pd.testing.assert_frame_equal(
            got, result(**kw), check_exact=not spmv or kw["num_workers"] == 1,
            rtol=0, atol=1e-12)
    assert engines[1:] == [("actors", True)] * len(pinned)
    assert superstep._idle_workers()

    if algo == "lpa":
        e = g.edges_dataset(columns=["src", "dst", "weight"]).to_pandas()
        want = oracles.ref_lpa(
            (e["src"].to_numpy(), e["dst"].to_numpy(), e["weight"].to_numpy()),
            g.num_vertices, max_iter=15,
        )
        assert np.array_equal(got["label"].to_numpy(), want)


def test_wcc_local_gate_matches_engine(tmp_path):
    """Canonical min-vid labels are a pure function of the partition —
    local union-find output must equal the engine fixpoint exactly."""
    df = fixtures.two_components_df()
    g = build(df, False, tmp_path, "2cpar")
    loc = (weakly_connected_components(g).to_pandas()
           .sort_values("vertex")["labels"].to_numpy())
    eng = (weakly_connected_components(g, local_edge_limit=0).to_pandas()
           .sort_values("vertex")["labels"].to_numpy())
    assert np.array_equal(loc, eng)


def test_wcc_engine_settles_long_path(tmp_path):
    """The engine's min-label fixpoint takes one superstep per hop; its
    default bound (V + 1 supersteps) settles a 1,200-vertex path."""
    V = 1200
    df = pd.DataFrame({"src": np.arange(V - 1), "dst": np.arange(1, V),
                       "weight": np.ones(V - 1)})
    g = build(df, False, tmp_path, "path")
    got = weakly_connected_components(g, local_edge_limit=0).to_pandas()
    assert len(got) == V
    assert (got["labels"] == 0).all()
