"""Spectral clustering + analyzeClustering metrics vs hand oracles.

Reference semantics: community/spectral_clustering.py (balanced cut,
modularity maximization, analyzeClustering_{modularity,edge_cut,ratio_cut}).
"""

import numpy as np
import pandas as pd
import ray.data as rd

from raygraph.graph import Graph
from raygraph.algos.spectral import (
    analyze_clustering,
    analyze_clustering_edge_cut,
    analyze_clustering_modularity,
    analyze_clustering_ratio_cut,
    spectral_balanced_cut_clustering,
    spectral_modularity_maximization_clustering,
)

from tests import fixtures


def build(df, tmp_path, name):
    return Graph.from_edges(
        rd.from_pandas(df), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=4,
        out_dir=str(tmp_path / name),
    )


def two_cliques_df(n=8):
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges += [(a, b) for a in range(n, 2 * n) for b in range(a + 1, 2 * n)]
    edges += [(0, n)]
    return pd.DataFrame(
        {"src": [u for u, _ in edges], "dst": [v for _, v in edges],
         "weight": np.ones(len(edges))}
    )


def _labels(ds, V):
    df = ds.to_pandas().sort_values("vertex")
    assert len(df) == V
    return df["cluster"].to_numpy()


def test_balanced_cut_recovers_cliques(tmp_path):
    g = build(two_cliques_df(), tmp_path, "bc")
    labs = _labels(
        spectral_balanced_cut_clustering(g, 2, 2), 16
    )
    assert len(set(labs[:8])) == 1
    assert len(set(labs[8:])) == 1
    assert labs[0] != labs[8]


def test_modularity_maximization_recovers_cliques(tmp_path):
    g = build(two_cliques_df(), tmp_path, "mm")
    labs = _labels(
        spectral_modularity_maximization_clustering(g, 2, 2, num_workers=4), 16
    )
    assert len(set(labs[:8])) == 1
    assert len(set(labs[8:])) == 1
    assert labs[0] != labs[8]


def test_balanced_cut_deterministic(tmp_path):
    g = build(fixtures.karate_df(), tmp_path, "det")
    a = _labels(spectral_balanced_cut_clustering(g, 3, 2), 34)
    b = _labels(spectral_balanced_cut_clustering(g, 3, 2), 34)
    assert np.array_equal(a, b)


def test_analyze_clustering_vs_numpy_oracle(tmp_path):
    # two 8-cliques + bridge, clustering = clique membership
    df = two_cliques_df()
    g = build(df, tmp_path, "met")
    c = (np.arange(16) >= 8).astype(np.int64)
    clus = rd.from_pandas(pd.DataFrame({"vertex": np.arange(16), "cluster": c}))

    # numpy oracle over the directed (both-ways) edge list
    src = np.concatenate([df["src"].to_numpy(), df["dst"].to_numpy()])
    dst = np.concatenate([df["dst"].to_numpy(), df["src"].to_numpy()])
    w = np.ones(len(src))
    m2 = w.sum()
    cut = float(w[c[src] != c[dst]].sum()) / 2.0
    q = 0.0
    rc = 0.0
    for k in (0, 1):
        vol = float(w[c[src] == k].sum())
        internal = float(w[(c[src] == k) & (c[dst] == k)].sum())
        cross = float(w[(c[src] == k) & (c[dst] != k)].sum())
        q += internal / m2 - (vol / m2) ** 2
        rc += cross / (c == k).sum()

    m = analyze_clustering(g, clus)
    assert np.isclose(m["edge_cut"], cut)
    assert np.isclose(m["ratio_cut"], rc)
    assert np.isclose(m["modularity"], q)
    # thin wrappers agree with the one-pass dict
    assert np.isclose(analyze_clustering_edge_cut(g, clus), cut)
    assert np.isclose(analyze_clustering_ratio_cut(g, clus), rc)
    assert np.isclose(analyze_clustering_modularity(g, clus), q)


def test_spectral_validates_args(tmp_path):
    import pytest

    g = build(two_cliques_df(), tmp_path, "val")
    with pytest.raises(ValueError):
        spectral_balanced_cut_clustering(g, 1)
    with pytest.raises(ValueError):
        spectral_balanced_cut_clustering(g, 2, num_eigen_vects=5)


def test_local_gate_matches_distributed(tmp_path):
    """The driver-local small-graph path replicates the engine path's
    math (hash init, Cholesky-QR, id-seeded Lloyd): same partition on
    the clique fixture, and the forced-engine run agrees."""
    g = build(two_cliques_df(), tmp_path, "lg")
    loc = _labels(spectral_balanced_cut_clustering(g, 2, 2), 16)
    dist = _labels(
        spectral_balanced_cut_clustering(g, 2, 2, num_workers=4,
                                         local_edge_limit=0), 16
    )
    # same partition up to label permutation
    import itertools
    ok = any(
        np.array_equal(loc, np.array(perm)[dist])
        for perm in itertools.permutations(range(2))
    )
    assert ok
    # modularity flavor: local path recovers the cliques too
    labs = _labels(spectral_modularity_maximization_clustering(g, 2, 2), 16)
    assert len(set(labs[:8])) == 1 and len(set(labs[8:])) == 1
    assert labs[0] != labs[8]
