"""Tests: structural ops + triangle counting vs oracles."""

import itertools

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from raygraph import hypergraph, ops
from raygraph.algos.triangles import triangle_count
from raygraph.graph import Graph

from tests import fixtures, oracles


@pytest.fixture(scope="module")
def karate_und(tmp_path_factory):
    d = tmp_path_factory.mktemp("karund")
    return Graph.from_edges(
        rd.from_pandas(fixtures.karate_df()),
        src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=4,
        out_dir=str(d / "g"),
    )


@pytest.fixture(scope="module")
def karate_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("kardir")
    return Graph.from_edges(
        rd.from_pandas(fixtures.karate_df()),
        src="src", dst="dst", weight="weight",
        directed=True, renumber=False, num_partitions=4,
        out_dir=str(d / "g"),
    )


def test_degrees_directed(karate_dir):
    df = ops.degrees(karate_dir).to_pandas().sort_values("vertex")
    kd = fixtures.karate_df()
    out = kd.groupby("src").size()
    inn = kd.groupby("dst").size()
    for v in range(fixtures.KARATE_V):
        row = df[df["vertex"] == v].iloc[0]
        assert row["out_degree"] == out.get(v, 0)
        assert row["in_degree"] == inn.get(v, 0)
        assert row["degree"] == out.get(v, 0) + inn.get(v, 0)


def test_degrees_undirected_symmetric(karate_und):
    df = ops.degrees(karate_und).to_pandas()
    assert (df["in_degree"] == df["out_degree"]).all()
    # vertex 33 has 17 neighbors in karate
    assert df.set_index("vertex")["out_degree"][33] == 17


def test_self_loops_and_multi_edges(tmp_path):
    df = pd.DataFrame(
        {"src": [0, 0, 1, 2, 2], "dst": [0, 1, 2, 0, 0], "weight": [1.0] * 5}
    )
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=True, renumber=False, num_partitions=2,
        out_dir=str(tmp_path / "sl"),
    )
    assert ops.count_self_loops(g) == 1
    assert ops.count_multi_edges(g) == 1  # (2,0) twice -> 1 surplus


def test_two_hop_neighbors(tmp_path):
    df = fixtures.line_df(4)  # 0->1->2->3
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=True, renumber=False, num_partitions=2,
        out_dir=str(tmp_path / "th"),
    )
    pairs = ops.two_hop_neighbors(g).to_pandas().sort_values(["first", "second"])
    assert list(map(tuple, pairs.to_numpy())) == [(0, 2), (1, 3)]


def test_induced_subgraph(karate_und):
    sub = ops.induced_subgraph(karate_und, [0, 1, 2, 3]).to_pandas()
    assert set(sub["src"]).issubset({0, 1, 2, 3})
    assert set(sub["dst"]).issubset({0, 1, 2, 3})
    # karate has edges among 0-3: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3) both dirs
    assert len(sub) == 12


def test_coarsen(tmp_path):
    df = pd.DataFrame(
        {"src": [0, 1, 2], "dst": [1, 2, 3], "weight": [1.0, 2.0, 3.0]}
    )
    labels = pd.DataFrame({"vertex": [0, 1, 2, 3], "label": [0, 0, 1, 1]})
    out = (
        ops.coarsen(rd.from_pandas(df), labels)
        .to_pandas()
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )
    # (0,1)->(0,0) w1 ; (1,2)->(0,1) w2 ; (2,3)->(1,1) w3
    assert list(map(tuple, out.to_numpy())) == [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]


def test_triangles_karate(karate_und):
    got = (
        triangle_count(karate_und)
        .to_pandas()
        .sort_values("vertex")["counts"]
        .to_numpy()
    )
    src, dst, _ = fixtures.karate_sym_arrays()
    want = oracles.ref_triangles((src, dst), fixtures.KARATE_V)
    assert np.array_equal(got, want)
    assert got.sum() == 3 * 45  # karate has 45 triangles


def test_triangles_degree_join_path(karate_und):
    # forced join orientation (broadcast_limit=0, method pinned to the
    # wedge pipeline — auto picks the driver-local path for small graphs)
    # must match the broadcast path exactly — the scale path for V past
    # the broadcast limit
    got = (
        triangle_count(karate_und, broadcast_limit=0, method="wedge")
        .to_pandas()
        .sort_values("vertex")["counts"]
        .to_numpy()
    )
    src, dst, _ = fixtures.karate_sym_arrays()
    want = oracles.ref_triangles((src, dst), fixtures.KARATE_V)
    assert np.array_equal(got, want)


def test_triangles_two_components(tmp_path):
    df = fixtures.two_components_df()
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=4,
        out_dir=str(tmp_path / "t2c"),
    )
    got = triangle_count(g).to_pandas().sort_values("vertex")["counts"].to_numpy()
    e = g.edges_dataset().to_pandas()
    want = oracles.ref_triangles((e["src"].to_numpy(), e["dst"].to_numpy()), g.num_vertices)
    assert np.array_equal(got, want)
    # path component has no triangles; 4-clique vertices have C(3,2)=3 each
    assert got[0:5].sum() == 0
    assert (got[10:14] == 3).all()


def test_triangles_rejects_directed(karate_dir):
    with pytest.raises(ValueError):
        triangle_count(karate_dir)


def test_hypergraph_bipartite():
    df = pd.DataFrame({"id": [1, 2], "color": ["red", "blue"], "size": ["s", "s"]})
    e = (
        hypergraph.hypergraph_edges(
            rd.from_pandas(df), ["color", "size"], row_key_col="id"
        )
        .to_pandas()
        .sort_values(["src_key", "dst_key"])
    )
    assert len(e) == 4
    assert set(e["src_key"]) == {"row::1", "row::2"}
    assert "color::red" in set(e["dst_key"]) and "size::s" in set(e["dst_key"])


def test_hypergraph_direct():
    df = pd.DataFrame({"a": ["x"], "b": ["y"], "c": ["z"]})
    e = hypergraph.hypergraph_edges(
        rd.from_pandas(df), ["a", "b", "c"], direct=True
    ).to_pandas()
    assert sorted(zip(e["src_key"], e["dst_key"])) == [
        ("a::x", "b::y"), ("a::x", "c::z"), ("b::y", "c::z"),
    ]


# -------------------------------------------------------------- k-truss


def _brute_ktruss(edges, k):
    """Sequential peel: edge set (canonical a<b tuples) of the k-truss."""
    es = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    while True:
        adj = {}
        for a, b in es:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        drop = {
            (a, b) for a, b in es
            if len(adj[a] & adj[b]) < k - 2
        }
        if not drop:
            return es
        es -= drop


def test_k_truss_karate(karate_und):
    from raygraph.algos.truss import k_truss

    got = k_truss(karate_und, 4).to_pandas()
    want = _brute_ktruss(
        map(tuple, fixtures.karate_df()[["src", "dst"]].to_numpy()), 4
    )
    assert set(zip(got["src"], got["dst"])) == want
    assert len(got) == len(want)


def test_k_truss_polbooks_golden():
    # replay the reference's golden k-truss output (k=5, polbooks) —
    # datasets/ref/ktruss/polbooks.csv, test_k_truss_subgraph.py:110
    import os

    import pytest
    import ray.data as rd

    src_csv = "/root/reference/datasets/polbooks.csv"
    gold_csv = "/root/reference/datasets/ref/ktruss/polbooks.csv"
    if not (os.path.exists(src_csv) and os.path.exists(gold_csv)):
        pytest.skip("reference golden files unavailable")
    from raygraph.algos.truss import k_truss
    from raygraph.graph import Graph

    df = pd.read_csv(src_csv, sep=" ", names=["src", "dst", "weight"])
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=4,
    )
    got = k_truss(g, 5).to_pandas()
    gold = pd.read_csv(gold_csv, sep=" ", names=["src", "dst", "weight"])
    gold_edges = {tuple(sorted((a, b))) for a, b in zip(gold["src"], gold["dst"])}
    assert set(zip(got["src"], got["dst"])) == gold_edges
    assert len(got) == len(gold_edges)


# ---------------------------------------------------------- similarity


def _sym_sets(df):
    """Symmetrized adjacency sets from an undirected edge frame."""
    adj = {}
    for a, b in zip(df["src"], df["dst"]):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def _sym_ds(df):
    both = pd.DataFrame(
        {
            "src": np.concatenate([df["src"], df["dst"]]),
            "dst": np.concatenate([df["dst"], df["src"]]),
        }
    )
    return rd.from_pandas(both.drop_duplicates())


def test_pair_similarity_matches_bruteforce():
    from raygraph.algos.similarity import pair_similarity

    df = fixtures.karate_df()
    adj = _sym_sets(df)
    pairs = pd.DataFrame({"a": [0, 0, 2, 13, 15], "b": [33, 1, 3, 19, 20]})
    got = (
        pair_similarity(_sym_ds(df), rd.from_pandas(pairs), kind="jaccard")
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    assert len(got) == len(pairs)  # zero-common pairs keep a row
    for r in got.itertuples():
        inter = len(adj[r.a] & adj[r.b])
        union = len(adj[r.a] | adj[r.b])
        assert r.common == inter
        assert abs(r.coeff - (inter / union if union else 0.0)) < 1e-12


def test_pair_similarity_keeps_pairs_of_absent_vertices():
    """A caller pair naming a vertex with no edges keeps its row, with
    common 0 and coefficient 0 (the brute-force tests' empty-union rule)."""
    from raygraph.algos.similarity import pair_similarity

    df = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
    pairs = pd.DataFrame({"a": [0, 0, 5], "b": [2, 7, 9]})
    got = (
        pair_similarity(_sym_ds(df), rd.from_pandas(pairs), kind="jaccard",
                        num_buckets=8)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    assert list(zip(got["a"], got["b"])) == [(0, 2), (0, 7), (5, 9)]
    assert got["common"].tolist() == [1, 0, 0]
    assert got["coeff"].tolist() == [1.0, 0.0, 0.0]


def test_weighted_pairwise_similarity_matches_bruteforce():
    """vertex_weights → wjaccard.py semantics: vol(S)=Σ_{v∈S} w(v);
    jaccard/sorensen/overlap all checked against a set brute force."""
    from raygraph.algos.similarity import pairwise_similarity

    df = fixtures.karate_df()
    adj = _sym_sets(df)
    w = {v: float(v % 5 + 1) for v in adj}
    wts = rd.from_pandas(pd.DataFrame(
        {"vertex": sorted(adj), "weight": [w[v] for v in sorted(adj)]}
    ))

    def vol(s):
        return sum(w[v] for v in s)

    for kind in ("jaccard", "sorensen", "overlap"):
        got = (
            pairwise_similarity(_sym_ds(df), kind=kind, vertex_weights=wts)
            .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
        )
        assert len(got) > 0
        for r in got.itertuples():
            inter = vol(adj[r.a] & adj[r.b])
            va, vb = vol(adj[r.a]), vol(adj[r.b])
            assert abs(r.common - inter) < 1e-9
            if kind == "jaccard":
                want = inter / (va + vb - inter)
            elif kind == "sorensen":
                want = 2.0 * inter / (va + vb)
            else:
                want = inter / min(va, vb)
            assert abs(r.coeff - want) < 1e-12
        # exactly the common>0 pairs are present
        verts = sorted(adj)
        want_pairs = {
            (a, b)
            for i, a in enumerate(verts) for b in verts[i + 1:]
            if adj[a] & adj[b]
        }
        assert set(zip(got["a"], got["b"])) == want_pairs


def test_weighted_pair_similarity_matches_bruteforce():
    from raygraph.algos.similarity import pair_similarity

    df = fixtures.karate_df()
    adj = _sym_sets(df)
    w = {v: float((v * 7) % 3 + 1) for v in adj}
    wts = rd.from_pandas(pd.DataFrame(
        {"vertex": sorted(adj), "weight": [w[v] for v in sorted(adj)]}
    ))
    pairs = pd.DataFrame({"a": [0, 0, 2, 13, 15], "b": [33, 1, 3, 19, 20]})
    got = (
        pair_similarity(_sym_ds(df), rd.from_pandas(pairs), kind="jaccard",
                        vertex_weights=wts)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    assert len(got) == len(pairs)  # zero-common pairs keep a row
    for r in got.itertuples():
        inter = sum(w[v] for v in adj[r.a] & adj[r.b])
        union = sum(w[v] for v in adj[r.a] | adj[r.b])
        assert abs(r.common - inter) < 1e-9
        assert abs(r.coeff - (inter / union if union else 0.0)) < 1e-12


def test_triangle_intersect_matches_wedge(karate_und):
    """Forced intersection path == wedge path == brute-force oracle."""
    a = (triangle_count(karate_und, method="wedge").to_pandas()
         .sort_values("vertex").reset_index(drop=True))
    b = (triangle_count(karate_und, method="intersect").to_pandas()
         .sort_values("vertex").reset_index(drop=True))
    assert a.equals(b)


def test_triangle_intersect_rmat(tmp_path):
    """Intersection path on a skewed RMAT graph vs the wedge path."""
    from raygraph.generators import rmat_dataset

    e = rmat_dataset(scale=10, edgefactor=8, seed=7)
    g = Graph.from_edges(
        e, src="src", dst="dst", weight="weight",
        directed=False, renumber=True, num_partitions=4,
        out_dir=str(tmp_path / "grmat"),
    )
    a = (triangle_count(g, method="wedge").to_pandas()
         .sort_values("vertex").reset_index(drop=True))
    b = (triangle_count(g, method="intersect").to_pandas()
         .sort_values("vertex").reset_index(drop=True))
    assert a.equals(b)
    assert a["counts"].sum() > 0


def test_k_truss_peel_to_empty_keeps_schema(ray_session):
    # a 4-cycle has no triangles at all, and a lone triangle peels to
    # empty through the support-filter loop — both must come back as an
    # EMPTY dataset that still carries the (src,dst,weight) schema.
    # (Dataset.schema() is the guarantee; Ray's to_pandas drops columns
    # on any all-empty dataset regardless of block schema.)
    import ray.data as rd

    from raygraph.algos.truss import k_truss
    from raygraph.graph import Graph

    df = pd.DataFrame(
        {"src": [0, 1, 2, 3], "dst": [1, 2, 3, 0],
         "weight": [1.0, 1.0, 1.0, 1.0]}
    )
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=2,
    )
    out = k_truss(g, 4)
    assert out.count() == 0
    assert list(out.schema().names) == ["src", "dst", "weight"]
    # single triangle peels to empty at k=4 via the support-filter path
    df2 = pd.DataFrame(
        {"src": [0, 0, 1], "dst": [1, 2, 2], "weight": [1.0, 1.0, 1.0]}
    )
    g2 = Graph.from_edges(
        rd.from_pandas(df2), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=2,
    )
    out2 = k_truss(g2, 4)
    assert out2.count() == 0
    assert list(out2.schema().names) == ["src", "dst", "weight"]


def test_weighted_similarity_join_fallback_matches_broadcast(ray_session):
    """broadcast_limit=0 forces pair_similarity's bucketed-join weight
    attach; results must equal the default broadcast path bit-for-bit
    (integer-valued weights make every sum exact)."""
    from raygraph.algos.similarity import pair_similarity

    df = fixtures.karate_df()
    adj = _sym_sets(df)
    wts = rd.from_pandas(pd.DataFrame(
        {"vertex": sorted(adj), "weight": [float(v % 5 + 1) for v in sorted(adj)]}
    ))
    some_pairs = rd.from_pandas(
        pd.DataFrame({"a": [0, 1, 2], "b": [33, 33, 33]})
    )
    bcp = (
        pair_similarity(_sym_ds(df), some_pairs, kind="overlap",
                        vertex_weights=wts)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    jnp = (
        pair_similarity(_sym_ds(df), some_pairs, kind="overlap",
                        vertex_weights=wts, broadcast_limit=0)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(bcp, jnp[bcp.columns])


@pytest.mark.parametrize(
    "keys,weighted,kind",
    list(itertools.product(("int", "str"), (False, True),
                           ("jaccard", "sorensen", "overlap"))),
    ids=lambda v: {False: "unweighted", True: "weighted"}.get(v, v),
)
def test_pairwise_similarity_executor_equivalence(keys, weighted, kind):
    """The driver executor (one kernel call on the whole table) and the
    Dataset executor (one call per apex bucket, then the (a,b) aggregate)
    return identical frames, dtypes included."""
    from raygraph.algos.similarity import pairwise_similarity

    df = fixtures.karate_df()[["src", "dst"]]
    wts_df = pd.DataFrame(
        {"vertex": np.arange(34), "weight": (np.arange(34) % 4 + 1.0)}
    )
    if keys == "str":
        def name(c):
            return "v::" + c.astype(str).str.zfill(3)

        df = df.assign(src=name(df["src"]), dst=name(df["dst"]))
        wts_df = wts_df.assign(vertex=name(wts_df["vertex"]))

    def run(**kw):
        wts = rd.from_pandas(wts_df) if weighted else None
        return (
            pairwise_similarity(_sym_ds(df), kind=kind, vertex_weights=wts,
                                **kw)
            .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
        )

    driver = run()
    dataset = run(local_edge_limit=0, num_buckets=8)
    pd.testing.assert_frame_equal(driver, dataset)
    assert len(driver) > 0 and (driver["a"] < driver["b"]).all()


@pytest.mark.parametrize("local_edge_limit", [500_000, 0],
                         ids=["driver", "dataset"])
def test_pairwise_similarity_hub_exact_without_cap(local_edge_limit):
    """A degree-200 hub is exact on both executors with no wedge cap —
    the expansion happens in bounded chunks from each apex's rows."""
    from raygraph.algos.similarity import pairwise_similarity

    hub = pd.DataFrame({"src": np.zeros(200, np.int64),
                        "dst": np.arange(1, 201, dtype=np.int64)})
    got = pairwise_similarity(
        _sym_ds(hub), kind="jaccard", num_buckets=8,
        local_edge_limit=local_edge_limit,
    ).to_pandas()
    # every leaf pair shares exactly the hub; hub pairs with no one
    assert len(got) == 200 * 199 // 2
    assert (got["common"] == 1).all()
    leaf = got[(got["a"] > 0) & (got["b"] > 0)]
    assert np.allclose(leaf["coeff"], 1.0)  # deg 1+1-1


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["unweighted", "weighted"])
@pytest.mark.parametrize("local_edge_limit", [500_000, 0],
                         ids=["driver", "dataset"])
def test_pairwise_similarity_no_wedge_keeps_schema(local_edge_limit,
                                                   weighted):
    """Two disjoint edges share no neighbor: an EMPTY result that still
    carries the typed (a, b, common, coeff) schema on both executors."""
    import pyarrow as pa

    from raygraph.algos.similarity import pairwise_similarity

    df = pd.DataFrame({"src": [0, 2], "dst": [1, 3]})
    wts = (rd.from_pandas(pd.DataFrame({"vertex": [0, 1, 2, 3],
                                        "weight": [1.0] * 4}))
           if weighted else None)
    out = pairwise_similarity(_sym_ds(df), vertex_weights=wts,
                              num_buckets=8,
                              local_edge_limit=local_edge_limit)
    assert out.count() == 0
    assert list(out.schema().names) == ["a", "b", "common", "coeff"]
    assert list(out.schema().types) == [
        pa.int64(), pa.int64(), pa.float64() if weighted else pa.int64(),
        pa.float64()]


def test_k_truss_local_matches_dataset_path(tmp_path):
    """Forced Dataset peel (local_edge_limit=0) equals the numpy local
    peel — the k-truss is the unique maximal subgraph."""
    from raygraph.algos.truss import k_truss
    from raygraph.graph import Graph

    g = Graph.from_edges(
        rd.from_pandas(fixtures.karate_df()),
        src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=4,
        out_dir=str(tmp_path / "ktl"),
    )
    for k in (3, 4, 5):
        a = (k_truss(g, k).to_pandas()
             .sort_values(["src", "dst"]).reset_index(drop=True))
        b = (k_truss(g, k, local_edge_limit=0).to_pandas()
             .sort_values(["src", "dst"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)


def test_two_hop_local_matches_join(tmp_path):
    """Random directed graph: the driver-local wedge enumeration and the
    forced self-join pipeline return the identical distinct pair set."""
    rng = np.random.RandomState(11)
    df = pd.DataFrame(
        {
            "src": rng.randint(0, 40, 300).astype(np.int64),
            "dst": rng.randint(0, 40, 300).astype(np.int64),
        }
    ).drop_duplicates()
    ds = rd.from_pandas(df)
    loc = ops.two_hop_pairs(ds).to_pandas().sort_values(
        ["first", "second"]).reset_index(drop=True)
    dist = ops.two_hop_pairs(ds, local_edge_limit=0).to_pandas().sort_values(
        ["first", "second"]).reset_index(drop=True)
    assert loc.equals(dist)
    assert (loc["first"] != loc["second"]).all()


def test_triangles_local_matches_wedge(karate_und):
    """auto picks the driver-local path for small graphs; it must match
    the wedge pipeline (and the numpy oracle) exactly."""
    loc = (
        triangle_count(karate_und, method="local")
        .to_pandas().sort_values("vertex")["counts"].to_numpy()
    )
    wedge = (
        triangle_count(karate_und, method="wedge")
        .to_pandas().sort_values("vertex")["counts"].to_numpy()
    )
    assert np.array_equal(loc, wedge)
