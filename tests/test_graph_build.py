"""M2 tests: normalize / symmetrize / renumber / partition / Graph persistence."""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from raygraph.graph import Graph, build_vertex_map, normalize_edges, symmetrize
from raygraph.hashing import hash_int64


def _edges_df():
    # string-keyed toy graph with a duplicate edge (different weights)
    return pd.DataFrame(
        {
            "s": ["a", "a", "b", "c", "d", "a"],
            "d": ["b", "c", "c", "d", "a", "b"],
            "w": [2.0, 1.0, 5.0, 1.0, 3.0, 7.0],
        }
    )


def test_build_vertex_map_bijection_dense_deterministic():
    ds = normalize_edges(rd.from_pandas(_edges_df()), src="s", dst="d", weight="w")
    vmap, V = build_vertex_map(ds, cols=("src", "dst"))
    df = vmap.to_pandas()
    assert V == 4
    assert sorted(df["vertex_key"]) == ["a", "b", "c", "d"]
    assert sorted(df["vid"]) == [0, 1, 2, 3]
    # deterministic across rebuilds
    vmap2, _ = build_vertex_map(ds, cols=("src", "dst"))
    df2 = vmap2.to_pandas()
    m1 = dict(zip(df["vertex_key"], df["vid"]))
    m2 = dict(zip(df2["vertex_key"], df2["vid"]))
    assert m1 == m2


@pytest.mark.parametrize("keys,want_keys,want_buckets,want_local", [
    ([92, 0, 71, 1, 32, 7, -5, 2**40],
     [1, 32, 2**40, 7, -5, 0, 71, 92],
     [1, 1, 9, 23, 34, 47, 47, 47], [0, 1, 0, 0, 0, 0, 1, 2]),
    (["v128", "v0", "v81", "alice", "", "Zürich", "node-17", "x" * 40],
     ["", "x" * 40, "Zürich", "v0", "v128", "v81", "node-17", "alice"],
     [6, 11, 30, 39, 39, 39, 51, 52], [0, 0, 0, 0, 1, 2, 0, 0]),
])
def test_bucket_rank_golden(keys, want_keys, want_buckets, want_local):
    """The dense-id rule at B=64, pinned: vertex maps and checkpoints on
    disk hold these buckets and ids (a key's dense id is its row), so a
    change to the bucket rule must not renumber them silently."""
    import pyarrow as pa

    from raygraph.graph import bucket_rank

    t = bucket_rank(pa.array(keys), 64)
    assert t.column("vertex_key").to_pylist() == want_keys
    assert t.column("__bk").to_pylist() == want_buckets
    assert t.column("__local").to_pylist() == want_local


def test_symmetrize_min_dedup():
    df = pd.DataFrame({"src": [0, 1, 0], "dst": [1, 0, 1], "weight": [5.0, 2.0, 9.0]})
    out = symmetrize(rd.from_pandas(df), dedup="min").to_pandas()
    out = out.sort_values(["src", "dst"]).reset_index(drop=True)
    # (0,1) appears as 5.0, 9.0 and reversed 2.0 → min over all = 2.0 both dirs
    assert list(out["src"]) == [0, 1]
    assert list(out["dst"]) == [1, 0]
    assert list(out["weight"]) == [2.0, 2.0]


@pytest.mark.parametrize("broadcast_limit", [20_000_000, 0])
def test_from_edges_roundtrip(tmp_path, broadcast_limit):
    g = Graph.from_edges(
        rd.from_pandas(_edges_df()),
        src="s",
        dst="d",
        weight="w",
        directed=True,
        dedup="min",
        num_partitions=4,
        out_dir=str(tmp_path / f"g{broadcast_limit}"),
        broadcast_limit=broadcast_limit,
        # 6 edges would take the driver build, which has no join fallback
        local_edge_limit=500_000 if broadcast_limit else 0,
    )
    assert g.num_vertices == 4
    # 6 input edges, (a,b) duplicated → 5 distinct directed edges
    assert g.num_edges == 5
    edges = g.edges_dataset().to_pandas()
    assert len(edges) == 5
    # duplicate (a,b) kept min weight 2.0
    vmap = g.vmap_dataset().to_pandas()
    key2vid = dict(zip(vmap["vertex_key"], vmap["vid"]))
    ab = edges[(edges["src"] == key2vid["a"]) & (edges["dst"] == key2vid["b"])]
    assert ab["weight"].iloc[0] == 2.0
    # partition placement: every edge in part hash(src)%P
    for p in range(4):
        pdir = g.part_dir(p)
        if not os.path.isdir(pdir):
            continue
        for f in glob.glob(os.path.join(pdir, "*.parquet")):
            t = pq.read_table(f)
            srcs = t.column("src").to_numpy()
            assert ((hash_int64(srcs) % np.uint64(4)).astype(int) == p).all()
            # sorted by (src, dst) within file
            d = t.to_pandas()
            assert d[["src", "dst"]].equals(
                d[["src", "dst"]].sort_values(["src", "dst"]).reset_index(drop=True)
            )
    # reload from disk
    g2 = Graph.load(g.base_dir)
    assert g2.num_vertices == 4 and g2.num_edges == 5


def test_from_edges_undirected_symmetrizes(tmp_path):
    df = pd.DataFrame({"s": ["x", "y"], "d": ["y", "z"], "w": [1.0, 1.0]})
    g = Graph.from_edges(
        rd.from_pandas(df),
        src="s", dst="d", weight="w",
        directed=False, num_partitions=2,
        out_dir=str(tmp_path / "und"),
    )
    e = g.edges_dataset().to_pandas()
    assert g.num_edges == 4  # both directions of both edges
    assert len(e) == 4
    pairs = set(zip(e["src"], e["dst"]))
    assert all((b, a) in pairs for a, b in pairs)


def test_unrenumber_roundtrip(tmp_path):
    g = Graph.from_edges(
        rd.from_pandas(_edges_df()),
        src="s", dst="d", weight="w",
        directed=True, dedup="min", num_partitions=2,
        out_dir=str(tmp_path / "ur"),
    )
    res = rd.from_pandas(pd.DataFrame({"vertex": [0, 1, 2, 3], "score": [0.1, 0.2, 0.3, 0.4]}))
    back = g.unrenumber(res, "vertex").to_pandas()
    assert sorted(back["vertex"]) == ["a", "b", "c", "d"]
    # forced join fallback (broadcast_limit=0) must match the broadcast path
    back2 = (
        g.unrenumber(res, "vertex", broadcast_limit=0)
        .to_pandas()
        .sort_values("vertex")
        .reset_index(drop=True)
    )
    assert back2.equals(back.sort_values("vertex").reset_index(drop=True))


def test_from_edges_int_keys_no_renumber(tmp_path):
    df = pd.DataFrame({"src": [0, 5, 3], "dst": [5, 3, 0], "weight": [1.0, 1.0, 1.0]})
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=True, renumber=False, num_partitions=2,
        out_dir=str(tmp_path / "int"),
    )
    assert g.num_vertices == 6
    assert g.num_edges == 3


def test_point_lookups(tmp_path):
    g = Graph.from_edges(
        rd.from_pandas(_edges_df()),
        src="s", dst="d", weight="w",
        directed=True, dedup="min", num_partitions=4,
        out_dir=str(tmp_path / "pl"),
    )
    vmap = g.vmap_dataset().to_pandas()
    k2v = dict(zip(vmap["vertex_key"], vmap["vid"]))
    assert g.has_node(k2v["a"]) and not g.has_node(99)
    assert g.has_edge(k2v["a"], k2v["b"])
    assert not g.has_edge(k2v["b"], k2v["a"])
    nb = g.neighbors(k2v["a"])
    assert set(nb) == {k2v["b"], k2v["c"]}
    assert g.nodes().count() == 4
    assert g.edges().count() == 5


def test_multi_column_vertex_keys(tmp_path):
    # reference NumberMap renumbers multi-column externals
    # (number_map.py:47-171); here (cat, id) tuples form each endpoint
    from raygraph.graph import split_key_column

    df = pd.DataFrame(
        {
            "sc": ["a", "a", "b"],
            "si": [1, 2, 1],
            "dc": ["b", "b", "a"],
            "di": [1, 2, 2],
            "w": [1.0, 2.0, 3.0],
        }
    )
    g = Graph.from_edges(
        rd.from_pandas(df), src=["sc", "si"], dst=["dc", "di"], weight="w",
        directed=True, num_partitions=2, out_dir=str(tmp_path / "mk"),
    )
    # distinct endpoint tuples: (a,1),(a,2),(b,1),(b,2) -> 4 vertices
    assert g.num_vertices == 4
    assert g.meta["src_key"] == ["sc", "si"]
    e = g.unrenumber(g.edges_dataset(), "src")
    e = split_key_column(e, "src", ["sc", "si"])
    out = e.to_pandas().sort_values(["sc", "si"]).reset_index(drop=True)
    assert list(out["sc"]) == ["a", "a", "b"]
    assert list(out["si"].astype(int)) == [1, 2, 1]


def test_undirected_build_matches_legacy_symmetrize(tmp_path):
    """The canonical-pair dedup + mirror-at-write undirected build must
    reproduce the legacy symmetrize(min) result exactly — reverse
    duplicates, parallel edges with differing weights, and self-loops."""
    df = pd.DataFrame(
        {
            "src": np.array([0, 1, 1, 2, 3, 3, 4, 0], np.int64),
            "dst": np.array([1, 0, 2, 1, 3, 3, 0, 1], np.int64),
            "weight": [5.0, 2.0, 1.0, 4.0, 9.0, 7.0, 3.0, 8.0],
        }
    )
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=2,
        out_dir=str(tmp_path / "canon"),
    )
    got = (
        g.edges_dataset()
        .to_pandas()[["src", "dst", "weight"]]
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )
    # legacy reference: append reversed copies, min over (src, dst)
    both = pd.concat(
        [df, df.rename(columns={"src": "dst", "dst": "src"})], ignore_index=True
    )
    want = (
        both.groupby(["src", "dst"], as_index=False)["weight"].min()
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)
    assert g.num_edges == len(want)
    # self-loop (3,3) appears exactly once with the min weight
    sl = got[(got["src"] == 3) & (got["dst"] == 3)]
    assert len(sl) == 1 and sl["weight"].iloc[0] == 7.0


def test_order_by_degree_renumber(tmp_path):
    """order_by_degree=True assigns degree-monotone vids (reference's
    degree-descending vertex ordering, renumber_edgelist_impl.cuh:384-392),
    deterministically, without changing algorithm results in key space."""
    from tests import fixtures
    from raygraph.algos.pagerank import pagerank

    kdf = fixtures.karate_df()
    kdf["s"] = "v" + kdf["src"].astype(str)
    kdf["d"] = "v" + kdf["dst"].astype(str)

    def build(out, **kw):
        return Graph.from_edges(
            rd.from_pandas(kdf), src="s", dst="d", weight="weight",
            directed=False, num_partitions=4, out_dir=str(tmp_path / out),
            **kw,
        )

    g = build("deg1", order_by_degree=True)
    g2 = build("deg2", order_by_degree=True)
    gplain = build("plain")

    vm = g.vmap_dataset().to_pandas()
    assert g.num_vertices == 34 and sorted(vm["vid"]) == list(range(34))
    # total degree (occurrence count in the input edge list) per key
    occ = pd.concat([kdf["s"], kdf["d"]]).value_counts()
    deg_by_vid = (
        vm.assign(deg=vm["vertex_key"].map(occ))
        .sort_values("vid")["deg"].to_numpy()
    )
    assert (np.diff(deg_by_vid) <= 0).all(), "vids not degree-descending"
    # deterministic across rebuilds
    assert dict(zip(vm["vertex_key"], vm["vid"])) == dict(
        zip(*g2.vmap_dataset().to_pandas()[["vertex_key", "vid"]].T.values)
    )
    # key-space results identical to the default ordering
    a = g.unrenumber(pagerank(g), "vertex").to_pandas()
    b = gplain.unrenumber(pagerank(gplain), "vertex").to_pandas()
    a = a.sort_values("vertex").reset_index(drop=True)
    b = b.sort_values("vertex").reset_index(drop=True)
    assert list(a["vertex"]) == list(b["vertex"])
    np.testing.assert_allclose(
        a["pagerank"].to_numpy(), b["pagerank"].to_numpy(), atol=1e-9
    )


def test_order_by_degree_requires_renumber(tmp_path):
    with pytest.raises(ValueError):
        Graph.from_edges(
            rd.from_pandas(_edges_df()), src="s", dst="d", weight="w",
            renumber=False, order_by_degree=True,
            out_dir=str(tmp_path / "x"),
        )


def _local_build_input(case):
    rng = np.random.RandomState(5)
    n = 300
    # "｡" (U+FF61) sorts before the emoji by code point but after it in
    # UTF-16, so a UTF-16 ordered sort would change the vids
    prefix = np.array(["｡", "\U0001f600", "é", "k"], dtype=object)

    def keys():
        if case == "int":
            return rng.randint(-(2**40), 2**40, 50)[rng.randint(0, 50, n)]
        if case == "ids":
            return rng.randint(0, 50, n).astype(np.int64)
        k = pd.Series(rng.randint(0, 50, n)).astype(str)
        if case == "ascii":
            return "k::" + k
        return prefix[rng.randint(0, len(prefix), n)] + k.to_numpy()

    if case == "empty":
        df = pd.DataFrame({"src": np.array([], np.int64),
                           "dst": np.array([], np.int64),
                           "weight": np.array([], np.float64)})
        return lambda: rd.from_pandas(df)
    df = pd.DataFrame({"src": keys(), "dst": keys(),
                       "weight": rng.uniform(0.5, 2.0, n).round(3)})
    if case != "pandas_empties":
        return lambda: rd.from_pandas(df)
    # the query layer's filtered edge shape: pandas blocks, some emptied
    blocks = [df.iloc[i:i + 50] for i in range(0, n, 50)]
    return lambda: rd.from_pandas(blocks).map_batches(
        lambda b: b[b["weight"] >= 1.0] if b.index[0] % 100 else b.iloc[:0],
        batch_format="pandas",
    )


def _stored(g):
    """The build's files as written: (src, dst, weight, part) rows and the
    vmap, each in a canonical row order."""
    def read(pattern):
        return [(f, pq.ParquetFile(f).read().to_pandas())
                for f in glob.glob(os.path.join(g.base_dir, pattern))]

    edges = [t.assign(part=int(f.split("part=")[1].split(os.sep)[0]))
             for f, t in read(os.path.join("edges", "part=*", "*.parquet"))]
    cols = ["src", "dst", "weight", "part"]
    e = (pd.concat(edges, ignore_index=True) if edges
         else pd.DataFrame({c: pd.Series([], dtype=t) for c, t in
                            zip(cols, ["int64", "int64", "float64", "int64"])}))
    e = e[cols].sort_values(cols).reset_index(drop=True)
    vm = [t for _f, t in read(os.path.join("vmap", "*.parquet"))]
    v = (pd.concat(vm, ignore_index=True)[["vertex_key", "vid"]]
         .sort_values("vid").reset_index(drop=True) if vm else None)
    return e, v


# input case, build options
_PARITY = {
    "ascii": ("ascii", dict(directed=False, dedup="sum")),
    "non_ascii": ("non_ascii", dict(directed=False, dedup="sum")),
    "int": ("int", dict(directed=False, dedup="sum")),
    "pandas_empties": ("pandas_empties", dict(directed=False, dedup="sum")),
    "directed_none": ("ascii", dict(directed=True, dedup=None)),
    "directed_min": ("non_ascii", dict(directed=True, dedup="min")),
    "directed_sum": ("int", dict(directed=True, dedup="sum")),
    "undirected_min_join": ("ascii", dict(directed=False, dedup="min",
                                          broadcast_limit=0)),
    "no_renumber": ("ids", dict(directed=False, dedup="sum",
                                renumber=False)),
    "empty_directed": ("empty", dict(directed=True, dedup="min")),
    "empty_undirected": ("empty", dict(directed=False)),
}


@pytest.mark.parametrize("case", list(_PARITY))
def test_local_build_matches_distributed(tmp_path, case):
    """The driver build and the Dataset build (forced with
    ``local_edge_limit=0``) run the same kernels, so they must write the
    same graph bit-for-bit: same meta (``renumbered`` drives
    unrenumbering), same vids (bucket rank), same (src, dst, weight) rows
    after symmetrize/dedup, same splitmix64 ``part`` placement."""
    data, opts = _PARITY[case]
    make = _local_build_input(data)
    kw = dict(src="src", dst="dst", weight="weight", num_partitions=4,
              **opts)
    ga = Graph.from_edges(make(), out_dir=str(tmp_path / "loc"), **kw)
    gb = Graph.from_edges(make(), local_edge_limit=0,
                          out_dir=str(tmp_path / "dist"), **kw)
    assert ga.meta == gb.meta
    ea, va = _stored(ga)
    eb, vb = _stored(gb)
    assert ea.equals(eb)
    assert len(ea) == ga.num_edges
    if ga.renumbered and ga.num_vertices:
        assert va.equals(vb)
        assert va["vid"].tolist() == list(range(ga.num_vertices))
