"""BFS / SSSP vs hand oracles."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from raygraph.algos.traversal import bfs, sssp
from raygraph.graph import Graph

from tests import fixtures


@pytest.fixture(scope="module")
def karate(tmp_path_factory):
    d = tmp_path_factory.mktemp("trav")
    return Graph.from_edges(
        rd.from_pandas(fixtures.karate_df()),
        src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=4,
        out_dir=str(d / "g"),
    )


def _oracle_bfs(V, edges, src):
    import collections

    adj = collections.defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
    dist = {src: 0}
    q = collections.deque([src])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return [dist.get(v, -1) for v in range(V)]


def test_bfs_karate(karate):
    out = bfs(karate, 0).to_pandas().sort_values("vertex")
    src, dst, _ = fixtures.karate_sym_arrays()
    want = _oracle_bfs(fixtures.KARATE_V, zip(src, dst), 0)
    assert list(out["distance"]) == want
    # predecessor of the source is -1; every other reached vertex's
    # predecessor is at distance d-1 and is the minimal such neighbor
    d = dict(zip(out["vertex"], out["distance"]))
    for _, r in out.iterrows():
        if r["distance"] <= 0:
            assert r["predecessor"] == -1
        else:
            assert d[r["predecessor"]] == r["distance"] - 1


def test_bfs_disconnected(tmp_path):
    df = fixtures.two_components_df()
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=2,
        out_dir=str(tmp_path / "b2"),
    )
    out = bfs(g, 0).to_pandas().set_index("vertex")
    assert out.loc[4, "distance"] == 4
    assert out.loc[12, "distance"] == -1  # other component unreached


def test_sssp_weighted_line(tmp_path):
    df = pd.DataFrame(
        {"src": [0, 1, 2, 0], "dst": [1, 2, 3, 3], "weight": [1.0, 1.0, 1.0, 10.0]}
    )
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=True, renumber=False, num_partitions=2,
        out_dir=str(tmp_path / "s1"),
    )
    out = sssp(g, 0).to_pandas().set_index("vertex")
    assert out.loc[3, "distance"] == 3.0  # via the path, not the direct 10.0
    assert out.loc[3, "predecessor"] == 2
    assert out.loc[0, "predecessor"] == -1


# --------------------------------------------------------- path extraction


def test_extract_bfs_paths_karate(karate):
    from raygraph.algos.traversal import extract_bfs_paths

    res = bfs(karate, 0)
    rdf = res.to_pandas().set_index("vertex")
    dests = [33, 16, 0]
    paths = (
        extract_bfs_paths(karate, res, dests)
        .to_pandas()
        .sort_values(["dest", "pos"])
    )
    eset = set(map(tuple, fixtures.karate_df()[["src", "dst"]].to_numpy()))
    eset |= {(b, a) for a, b in eset}
    for d in dests:
        p = paths[paths["dest"] == d]["vertex"].to_numpy()
        # path starts at the source, ends at the dest, length = dist+1
        assert p[0] == 0 and p[-1] == d
        assert len(p) == rdf.loc[d, "distance"] + 1
        # consecutive vertices are actual edges
        for a, b in zip(p[:-1], p[1:]):
            assert (a, b) in eset
    # positions are 0..dist
    g33 = paths[paths["dest"] == 33]
    assert list(g33["pos"]) == list(range(len(g33)))


def test_extract_bfs_paths_unreached(tmp_path):
    from raygraph.algos.traversal import extract_bfs_paths

    df = fixtures.two_components_df()
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=2,
        out_dir=str(tmp_path / "g2c"),
    )
    res = bfs(g, 0)
    # vertex 10 is in the other component -> no rows for it
    paths = extract_bfs_paths(g, res, [10, 1]).to_pandas()
    assert set(paths["dest"]) == {1}


def test_bfs_max_depth(karate):
    """max_depth caps expansion without raising; deeper vertices stay -1."""
    full = bfs(karate, 0).to_pandas().sort_values("vertex")
    capped = bfs(karate, 0, max_depth=1).to_pandas().sort_values("vertex")
    f = full.set_index("vertex")["distance"]
    c = capped.set_index("vertex")["distance"]
    assert (c[f <= 1] == f[f <= 1]).all()
    assert (c[f > 1] == -1).all()


def test_batched_ego_graphs(karate):
    """radius-1 egonets == seed's closed-neighborhood induced edges."""
    from raygraph.algos.egonet import batched_ego_graphs

    src, dst, _ = fixtures.karate_sym_arrays()
    eset = set(zip(src, dst))
    out = batched_ego_graphs(karate, [0, 33], radius=1).to_pandas()
    for seed in (0, 33):
        hood = {seed} | {v for u, v in eset if u == seed}
        want = {(u, v) for u, v in eset if u in hood and v in hood}
        got = {
            (r.src, r.dst)
            for r in out[out["seed"] == seed].itertuples()
        }
        assert got == want


def test_batched_ego_graphs_join_path(karate):
    """broadcast_limit=0 forces the semi-join path — identical edges."""
    from raygraph.algos.egonet import batched_ego_graphs

    key = ["seed", "src", "dst"]
    a = (batched_ego_graphs(karate, [0], radius=2)  # local gate
         .to_pandas()[key].sort_values(key).reset_index(drop=True))
    e = (batched_ego_graphs(karate, [0], radius=2, local_edge_limit=0)
         .to_pandas()[key].sort_values(key).reset_index(drop=True))
    b = (batched_ego_graphs(karate, [0], radius=2, local_edge_limit=0,
                            broadcast_limit=0)
         .to_pandas()[key].sort_values(key).reset_index(drop=True))
    assert a.equals(e)
    assert e.equals(b)


def test_multi_source_bfs_matches_per_source(karate):
    """Each distance_<s> column equals a single-source BFS distance."""
    from raygraph.algos.traversal import multi_source_bfs

    srcs = [0, 5, 33]
    out = multi_source_bfs(karate, srcs).to_pandas().sort_values("vertex")
    for s in srcs:
        single = bfs(karate, s).to_pandas().sort_values("vertex")
        np.testing.assert_array_equal(
            out[f"distance_{s}"].to_numpy(), single["distance"].to_numpy()
        )


def test_multi_source_bfs_depth_limit(karate):
    from raygraph.algos.traversal import multi_source_bfs

    out = (multi_source_bfs(karate, [0], depth_limit=1)
           .to_pandas().sort_values("vertex"))
    full = bfs(karate, 0).to_pandas().sort_values("vertex")
    f = full.set_index("vertex")["distance"]
    c = out.set_index("vertex")["distance_0"]
    assert (c[f <= 1] == f[f <= 1]).all()
    assert (c[f > 1] == -1).all()

