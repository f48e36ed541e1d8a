"""Tests: structural ops + triangle counting vs oracles."""

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from raygraph import hypergraph, ops
from raygraph.algos.triangles import _wedges, triangle_count
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


@pytest.fixture(scope="module", params=["karate", "two_components", "rmat10"])
def tri_case(request, tmp_path_factory):
    """(graph, oracle counts) for each triangle executor-equivalence input."""
    from raygraph.generators import rmat_dataset

    edges = {
        "karate": lambda: rd.from_pandas(fixtures.karate_df()),
        "two_components": lambda: rd.from_pandas(fixtures.two_components_df()),
        "rmat10": lambda: rmat_dataset(scale=10, edgefactor=8, seed=7),
    }[request.param]()
    g = Graph.from_edges(
        edges, src="src", dst="dst", weight="weight",
        directed=False, renumber=request.param == "rmat10", num_partitions=4,
        out_dir=str(tmp_path_factory.mktemp(request.param) / "g"),
    )
    e = g.edges_dataset().to_pandas()
    return g, oracles.ref_triangles(
        (e["src"].to_numpy(), e["dst"].to_numpy()), g.num_vertices)


@pytest.mark.parametrize("num_workers", [None, 1, 3],
                         ids=["driver", "engine1", "engine3"])
def test_triangle_executor_equivalence(tri_case, num_workers):
    """The driver wedge kernel and the engine's intersection kernel (at
    1 and 3 workers) each give exactly the oracle's per-vertex counts."""
    g, want = tri_case
    got = (triangle_count(g, num_workers=num_workers).to_pandas()
           .sort_values("vertex"))
    assert got["vertex"].tolist() == list(range(g.num_vertices))
    assert np.array_equal(got["counts"].to_numpy(), want)
    assert want.sum() > 0


def _karate_wedge_rows():
    src, dst, _ = fixtures.karate_sym_arrays()
    src, dst = src.astype(np.int64), dst.astype(np.int64)
    deg = np.bincount(src, minlength=fixtures.KARATE_V)
    return src, dst, deg, pa.table({"src": src, "dst": dst, "deg": deg[dst]})


def test_triangles_degree_join_path():
    """The (degree, id) orientation of the wedge kernel, in chunks far
    smaller than one apex's pairs: every triangle is closed exactly once,
    at its lowest-ranked corner, and wedges pair only higher-ranked
    neighbors."""
    src, dst, deg, rows = _karate_wedge_rows()
    edges = set(zip(src.tolist(), dst.tolist()))
    rank = {v: (deg[v], v) for v in range(fixtures.KARATE_V)}
    closed = []
    for w in _wedges(rows, chunk=5):
        assert w.num_rows <= 5
        for x, a, b in zip(*(w.column(c).to_pylist()
                             for c in ("apex", "src", "dst"))):
            assert a < b and rank[x] < rank[a] and rank[x] < rank[b]
            if (a, b) in edges:
                closed.append((x, a, b))
    tris = {tuple(sorted(t)) for t in closed}
    assert len(tris) == len(closed)
    want = oracles.ref_triangles((src, dst), fixtures.KARATE_V)
    assert 3 * len(tris) == want.sum()


def test_triangles_local_matches_wedge(karate_und):
    """The driver executor equals per-vertex counts from closing the wedge
    kernel's output directly against the edge set (and the oracle)."""
    src, dst, _, rows = _karate_wedge_rows()
    edges = set(zip(src.tolist(), dst.tolist()))
    wedge = np.zeros(fixtures.KARATE_V, np.int64)
    for w in _wedges(rows):
        for t in zip(*(w.column(c).to_pylist()
                       for c in ("apex", "src", "dst"))):
            if t[1:] in edges:
                wedge[list(t)] += 1
    loc = (triangle_count(karate_und).to_pandas()
           .sort_values("vertex")["counts"].to_numpy())
    assert np.array_equal(loc, wedge)
    assert np.array_equal(
        loc, oracles.ref_triangles((src, dst), fixtures.KARATE_V))


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


def _peel_df():
    """30 vertices: 110 random edges, among them self-loops and parallel
    edges of different weights, plus a hub (vertex 0 → every odd vertex)."""
    rng = np.random.RandomState(0)
    src = np.r_[rng.randint(0, 30, 110), np.zeros(15, np.int64)]
    dst = np.r_[rng.randint(0, 30, 110), np.arange(1, 30, 2)]
    return pd.DataFrame({"src": src, "dst": dst,
                         "weight": rng.randint(1, 100, len(src)) / 4.0})


@pytest.mark.parametrize("name,ks", [("karate", (3, 4, 5)), ("peel", (4,))],
                         ids=["karate", "peel"])
def test_k_truss_local_matches_dataset_path(tmp_path, name, ks):
    """Forced Dataset peel (local_edge_limit=0) and the driver peel both
    equal the brute-force peel's edges at their min input weight, dtypes
    included."""
    from raygraph.algos.truss import k_truss
    from raygraph.graph import Graph

    df = fixtures.karate_df() if name == "karate" else _peel_df()
    canon = df.assign(src=np.minimum(df["src"], df["dst"]),
                      dst=np.maximum(df["src"], df["dst"]))
    wmin = canon.groupby(["src", "dst"])["weight"].min()
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=4,
        out_dir=str(tmp_path / "ktl"),
    )
    if name == "peel":
        assert (df["src"] == df["dst"]).any()
        assert (canon.groupby(["src", "dst"])["weight"].nunique() > 1).any()
        with pytest.raises(RuntimeError):  # ≥ 3 rounds drop edges
            k_truss(g, 4, max_rounds=3)
    for k in ks:
        want = wmin.loc[sorted(_brute_ktruss(
            map(tuple, df[["src", "dst"]].to_numpy()), k))].reset_index()
        assert len(want) > 0
        for kw in ({}, {"local_edge_limit": 0}):
            got = (k_truss(g, k, **kw).to_pandas()
                   .sort_values(["src", "dst"]).reset_index(drop=True))
            pd.testing.assert_frame_equal(got, want)


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
