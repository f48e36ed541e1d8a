"""Louvain: modularity improvement + known community structure."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from raygraph.algos.louvain import louvain
from raygraph.graph import Graph

from tests import fixtures


def _modularity_check(df_part, edges_df, V):
    part = df_part.sort_values("vertex")["partition"].to_numpy()
    src = np.concatenate([edges_df["src"], edges_df["dst"]])
    dst = np.concatenate([edges_df["dst"], edges_df["src"]])
    w = np.ones(len(src))
    m2 = w.sum()
    k = np.bincount(src, weights=w, minlength=V)
    internal = w[part[src] == part[dst]].sum()
    sig = np.bincount(part, weights=k)
    return internal / m2 - float((sig / m2) @ (sig / m2))


def test_louvain_karate(tmp_path):
    g = Graph.from_edges(
        rd.from_pandas(fixtures.karate_df()),
        src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=4,
        out_dir=str(tmp_path / "lv"),
    )
    res, q = louvain(g)
    df = res.to_pandas()
    assert len(df) == fixtures.KARATE_V
    # karate's optimal modularity is ~0.42; any decent Louvain exceeds 0.35
    assert q > 0.35
    # reported modularity matches a recomputation from the partition
    q2 = _modularity_check(df, fixtures.karate_df(), fixtures.KARATE_V)
    assert abs(q - q2) < 1e-9
    ncomm = df["partition"].nunique()
    assert 2 <= ncomm <= 6


def test_louvain_two_cliques(tmp_path):
    # two 5-cliques joined by one edge → exactly two communities
    edges = []
    for base in (0, 5):
        for a in range(5):
            for b in range(a + 1, 5):
                edges.append((base + a, base + b))
    edges.append((0, 5))
    df = pd.DataFrame(
        {"src": [e[0] for e in edges], "dst": [e[1] for e in edges],
         "weight": np.ones(len(edges))}
    )
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=2,
        out_dir=str(tmp_path / "cl"),
    )
    res, q = louvain(g)
    p = res.to_pandas().sort_values("vertex")["partition"].to_numpy()
    assert len(set(p[:5])) == 1 and len(set(p[5:])) == 1
    assert p[0] != p[5]
    assert q > 0.4


def _count_handoffs(monkeypatch):
    """Calls of the one compose that follows a Dataset level → array loop
    handoff (the entry-level handoff needs no compose)."""
    from raygraph.algos import louvain as lv

    calls = []
    compose = lv._compose_assign_bcast

    def spy(*a):
        calls.append(1)
        return compose(*a)

    monkeypatch.setattr(lv, "_compose_assign_bcast", spy)
    return calls


# karate stores 156 edges and contracts to fewer than 60 after one level:
# 0 keeps every level on Datasets, 60 hands off to the array loop after
# the first contraction
DIST_LIMITS = [0, 60]


@pytest.mark.parametrize("limit", DIST_LIMITS)
def test_louvain_distributed_path_matches_local(tmp_path, monkeypatch, limit):
    # force the Dataset backend (scalars-only driver, state/moves/
    # modularity all distributed) for every level, or for the first only,
    # and require the exact partition the local numpy fast path produces;
    # num_buckets only changes exchange salting, never decisions
    g = Graph.from_edges(
        rd.from_pandas(fixtures.karate_df()),
        src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=4,
        out_dir=str(tmp_path / "lvd"),
    )
    res_local, q_local = louvain(g)
    handoffs = _count_handoffs(monkeypatch)
    res_dist, q_dist = louvain(g, local_edge_limit=limit, num_buckets=8)
    assert len(handoffs) == (limit > 0)
    a = res_local.to_pandas().sort_values("vertex").reset_index(drop=True)
    b = res_dist.to_pandas().sort_values("vertex").reset_index(drop=True)
    assert a.equals(b)
    assert abs(q_local - q_dist) < 1e-9


def test_louvain_requires_undirected(tmp_path):
    g = Graph.from_edges(
        rd.from_pandas(fixtures.line_df(5)),
        src="src", dst="dst", weight="weight",
        directed=True, renumber=False, num_partitions=2,
        out_dir=str(tmp_path / "ld"),
    )
    with pytest.raises(ValueError):
        louvain(g)


def test_ecg_karate(tmp_path):
    from raygraph.algos.louvain import ecg

    g = Graph.from_edges(
        rd.from_pandas(fixtures.karate_df()),
        src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=4,
        out_dir=str(tmp_path / "ecg"),
    )
    res, q = ecg(g, ensemble_size=6)
    df = res.to_pandas()
    assert len(df) == fixtures.KARATE_V
    # sane community structure on the reweighted graph
    assert 2 <= df["partition"].nunique() <= 8
    assert q > 0.3
    # deterministic
    res2, q2 = ecg(g, ensemble_size=6)
    assert df.sort_values("vertex").reset_index(drop=True).equals(
        res2.to_pandas().sort_values("vertex").reset_index(drop=True)
    )


def test_leiden_karate(tmp_path):
    from raygraph.algos.louvain import leiden

    g = Graph.from_edges(
        rd.from_pandas(fixtures.karate_df()),
        src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=4,
        out_dir=str(tmp_path / "ld"),
    )
    lres, lq = louvain(g)
    res, q = leiden(g)
    df = res.to_pandas()
    # (a) partition validity: every vertex labeled, compact labels
    assert len(df) == fixtures.KARATE_V
    parts = np.sort(df["partition"].unique())
    assert parts[0] == 0 and parts[-1] == len(parts) - 1
    # reported q matches a recomputation from the partition
    q2 = _modularity_check(df, fixtures.karate_df(), fixtures.KARATE_V)
    assert abs(q - q2) < 1e-9
    # (b) refinement never loses to Louvain
    assert q >= lq - 1e-12
    # (c) deterministic
    res2, qq = leiden(g)
    assert df.sort_values("vertex").reset_index(drop=True).equals(
        res2.to_pandas().sort_values("vertex").reset_index(drop=True)
    )
    assert q == qq


@pytest.mark.parametrize("limit", DIST_LIMITS)
def test_leiden_distributed_path_matches_local(tmp_path, monkeypatch, limit):
    from raygraph.algos.louvain import leiden

    g = Graph.from_edges(
        rd.from_pandas(fixtures.karate_df()),
        src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=4,
        out_dir=str(tmp_path / "ldd"),
    )
    a, qa = leiden(g)
    handoffs = _count_handoffs(monkeypatch)
    b, qb = leiden(g, local_edge_limit=limit, num_buckets=8)
    assert len(handoffs) == (limit > 0)
    assert abs(qa - qb) < 1e-9
    assert a.to_pandas().sort_values("vertex").reset_index(drop=True).equals(
        b.to_pandas().sort_values("vertex").reset_index(drop=True)
    )


def test_leiden_requires_undirected(tmp_path):
    from raygraph.algos.louvain import leiden

    g = Graph.from_edges(
        rd.from_pandas(fixtures.karate_df()),
        src="src", dst="dst", weight="weight",
        directed=True, renumber=False, num_partitions=2,
        out_dir=str(tmp_path / "ldu"),
    )
    with pytest.raises(ValueError):
        leiden(g)


def test_ecg_join_path_matches_broadcast(tmp_path):
    """Forced past broadcast_limit, co-membership comes from the bucketed
    label joins — same reweighted graph, same partition, and no V-sized
    driver/plasma array beyond one member's labels on the default path."""
    from raygraph.algos.louvain import ecg

    g = Graph.from_edges(
        rd.from_pandas(fixtures.karate_df()),
        src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=4,
        out_dir=str(tmp_path / "ecgj"),
    )
    a, qa = ecg(g, ensemble_size=4, seed=5)
    b, qb = ecg(g, ensemble_size=4, seed=5, broadcast_limit=0)
    assert abs(qa - qb) < 1e-9
    assert a.to_pandas().sort_values("vertex").reset_index(drop=True).equals(
        b.to_pandas().sort_values("vertex").reset_index(drop=True)
    )


def test_louvain_no_vertex_sized_driver_state(tmp_path):
    """Vertex ids near 4e12 (sparse, renumber=False): any V-sized
    allocation (np.zeros(V), bincount(minlength=max_id)) would need
    ~32 TB and MemoryError instantly — passing proves both backends hold
    only active-sized (local) / Dataset (distributed) vertex state."""
    BASE = 4_000_000_000_000
    edges = []
    for b in (0, 5):
        for a in range(5):
            for c in range(a + 1, 5):
                edges.append((BASE + b + a, BASE + b + c))
    edges.append((BASE, BASE + 5))
    df = pd.DataFrame(
        {"src": [e[0] for e in edges], "dst": [e[1] for e in edges],
         "weight": np.ones(len(edges))}
    )
    g = Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=2,
        out_dir=str(tmp_path / "huge"),
    )
    res_local, q_local = louvain(g)
    p = res_local.to_pandas().sort_values("vertex")["partition"].to_numpy()
    assert len(set(p[:5])) == 1 and len(set(p[5:])) == 1 and p[0] != p[5]
    assert q_local > 0.4
    # forced-distributed path: scalars-only driver, same result
    res_dist, q_dist = louvain(g, local_edge_limit=0, num_buckets=8)
    b = res_dist.to_pandas().sort_values("vertex").reset_index(drop=True)
    a = res_local.to_pandas().sort_values("vertex").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert abs(q_local - q_dist) < 1e-9


def test_dense_labels_local_matches_dataset(tmp_path):
    """_dense_labels_local is a pure-function replica of the bucketed
    Dataset ranking — identical dense ids on the same (vertex, cur)."""
    import ray.data as rd2

    from raygraph.algos.louvain import _dense_labels, _dense_labels_local

    rng = np.random.RandomState(7)
    labs = rng.choice(np.int64([3, 17, 99, 1048576, -5, 0, 42]), size=200)
    df = pd.DataFrame(
        {"vertex": np.arange(200, dtype=np.int64), "cur": labs}
    )
    a = _dense_labels_local(df, num_buckets=8).sort_values("vertex")
    b = (
        _dense_labels(rd2.from_pandas(df), num_buckets=8)
        .to_pandas()
        .sort_values("vertex")
    )
    assert np.array_equal(
        a["partition"].to_numpy(), b["partition"].to_numpy()
    )
