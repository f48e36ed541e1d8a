"""Spectral clustering — balanced cut & modularity maximization — plus
the clustering-quality metrics (edge cut / ratio cut / modularity).

Reference semantics: ``python/cugraph/cugraph/community/spectral_clustering.py``
(spectralBalancedCutClustering / spectralModularityMaximizationClustering /
analyzeClustering_{modularity,edge_cut,ratio_cut}) backed by
``cpp/src/community/legacy/spectral_clustering.cu`` (raft Lanczos + kmeans).

Ray-native shape: the eigensolver is BLOCK POWER ITERATION on the superstep
engine — each of the k embedding columns is per-worker vertex state, one
spmv exchange per column per iteration, and the orthonormalization is a
k×k Gram reduction (worker partials → driver Cholesky → worker Y·R⁻¹), so
the driver never holds anything V-sized.  The embedding feeds the existing
distributed Lloyd k-means (``raygraph/data/kmeans.py``: broadcast k×d
centroids, one streaming pass per iteration).

- balanced cut: smallest eigenvectors of the symmetric normalized
  Laplacian L_sym = I − D^{-1/2} A D^{-1/2}, obtained as the LARGEST of
  M = (I + D^{-1/2} A D^{-1/2}) / 2  (spectrum in [0, 1]).
- modularity maximization: largest eigenvectors of the modularity matrix
  B = A − d dᵀ / (2m), power-iterated on B + 2·d_max·I (PSD shift); the
  rank-one term needs only the scalar d·f per column (a 1×1 Gram partial).

The metric functions take any (vertex, cluster) Dataset, so they are
checkable against a DuckDB oracle on a deterministic clustering — the
eigensolver itself is pinned by pytest (cluster recovery + determinism).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pandas as pd
import ray

from raygraph.superstep import SuperstepEngine


def _sum_grams(engine, names_a, names_b=None):
    parts = ray.get(
        [w.block_gram.remote(names_a, names_b) for w in engine.workers]
    )
    return np.sum(parts, axis=0)


def _orthonormalize(engine, names):
    """Y ← Y R⁻¹ with G = YᵀY = RᵀR (distributed Cholesky-QR)."""
    G = _sum_grams(engine, names)
    G = G + 1e-12 * np.eye(len(names))  # rank-deficiency jitter
    R = np.linalg.cholesky(G).T
    C = np.linalg.inv(R)
    ray.get([w.block_transform.remote(names, C) for w in engine.workers])


def _spectral_embedding(graph, k, mode: str, tol: float, max_iter: int,
                        num_workers: Optional[int] = None):
    """Top-k eigenvector embedding → (engine, column names).  The caller
    owns the engine (must read the result, then shut it down)."""
    engine = SuperstepEngine(graph, num_workers=num_workers)
    try:
        names = [f"spec{j}" for j in range(k)]
        stats = ray.get([w.set_degree_state.remote("sdeg") for w in engine.workers])
        dmax = max(s["local_max"] for s in stats)
        m2 = sum(s["local_sum"] for s in stats)  # Σ deg = 2m (both dirs stored)
        if m2 == 0:
            raise ValueError("spectral clustering on an empty graph")
        ray.get([w.pow_state.remote("dinv", "sdeg", -0.5) for w in engine.workers])
        ray.get(
            [w.set_state_hash.remote(n, j + 1) for j, n in enumerate(names)
             for w in engine.workers]
        )
        _orthonormalize(engine, names)
        theta = np.full(k, np.inf)
        for _ in range(max_iter):
            new_theta = np.zeros(k)
            for j, n in enumerate(names):
                if mode == "laplacian":
                    # z = M f = (f + D^{-1/2} A D^{-1/2} f) / 2
                    ray.get([w.mul_states.remote("_u", n, "dinv")
                             for w in engine.workers])
                    per_recv, _ = engine.spmv_round_refs("_u")
                    ray.get([engine.workers[q].gather_into.remote("_g", per_recv[q])
                             for q in range(engine.W)])
                    coef = 0.0
                else:  # modularity: z = (B + 2 d_max I) f
                    per_recv, _ = engine.spmv_round_refs(n)
                    ray.get([engine.workers[q].gather_into.remote("_g", per_recv[q])
                             for q in range(engine.W)])
                    df = float(_sum_grams(engine, ["sdeg"], [n])[0, 0])
                    coef = (df / m2, 2.0 * dmax)
                # fused post step: z, Rayleigh partial fᵀz (Y orthonormal
                # at loop entry so this estimates the eigenvalue), commit
                rqs = ray.get([w.spectral_post.remote(n, mode, coef)
                               for w in engine.workers])
                new_theta[j] = float(sum(rqs))
            _orthonormalize(engine, names)
            if np.all(np.abs(new_theta - theta) <= tol * np.maximum(1.0, np.abs(new_theta))):
                theta = new_theta
                break
            theta = new_theta
        return engine, names
    except Exception:
        engine.shutdown()
        raise


def _cluster_embedding(engine, names, num_clusters, kmean_tol, kmean_max_iter,
                       out_dir=None):
    """result_dataset(names) → list-column embedding → Lloyd k-means →
    (vertex, cluster)."""
    import pyarrow as pa

    from raygraph.data.kmeans import kmeans

    emb = engine.result_dataset(names, out_dir=out_dir)  # releases workers

    def to_list_col(t: pa.Table) -> pa.Table:
        cols = np.stack([t.column(n).to_numpy() for n in names], axis=1)
        return pa.table(
            {"vertex": t.column("vertex"),
             "embedding": pa.array(list(cols), pa.list_(pa.float64()))}
        )

    emb_ds = emb.map_batches(to_list_col, batch_format="pyarrow")
    assigns, _ = kmeans(
        emb_ds, k=num_clusters, emb_col="embedding", id_col="vertex",
        iters=kmean_max_iter,
    )
    return assigns


def _spectral_local(graph, num_clusters, k, mode, tol, max_iter,
                    kmean_max_iter, out_dir):
    """Driver-local replica of the distributed path for small graphs: the
    SAME math (hash init, Cholesky-QR, fused power step, id-seeded Lloyd
    k-means with lowest-cid tie-break) on in-memory numpy arrays — no
    engine spin-up, no per-iteration barriers.  Labels match the
    distributed path up to float summation order."""
    import ray.data as rd

    from raygraph.hashing import hash_int64

    V = graph.num_vertices
    t = graph.edge_table()
    src = t.column("src").to_numpy()
    dst = t.column("dst").to_numpy()
    w = t.column("weight").to_numpy()
    deg = np.bincount(src, weights=w, minlength=V)
    dmax = float(deg.max(initial=0.0))
    m2 = float(deg.sum())
    if m2 == 0:
        raise ValueError("spectral clustering on an empty graph")
    dinv = np.zeros(V)
    nz = deg != 0
    dinv[nz] = deg[nz] ** -0.5

    vids = np.arange(V, dtype=np.int64)

    def hash_col(salt: int) -> np.ndarray:
        mix = np.uint64((int(salt) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        h = hash_int64((vids.view(np.uint64) + mix).view(np.int64))
        return h.astype(np.float64) / np.float64(2 ** 64) - 0.5

    Y = np.stack([hash_col(j + 1) for j in range(k)], axis=1)

    def orth(Y):
        G = Y.T @ Y + 1e-12 * np.eye(k)
        return Y @ np.linalg.inv(np.linalg.cholesky(G).T)

    Y = orth(Y)
    theta = np.full(k, np.inf)
    for _ in range(max_iter):
        new_theta = np.zeros(k)
        for j in range(k):
            f = Y[:, j]
            if mode == "laplacian":
                g = np.bincount(dst, weights=w * (dinv * f)[src], minlength=V)
                z = 0.5 * f + 0.5 * dinv * g
            else:
                g = np.bincount(dst, weights=w * f[src], minlength=V)
                z = g - (float(deg @ f) / m2) * deg + 2.0 * dmax * f
            new_theta[j] = float(f @ z)
            Y[:, j] = z
        Y = orth(Y)
        if np.all(np.abs(new_theta - theta)
                  <= tol * np.maximum(1.0, np.abs(new_theta))):
            break
        theta = new_theta

    # Lloyd k-means, mirroring data/kmeans.py: centroids seeded from the
    # k smallest ids, argmin lowest-cid tie-break, empty clusters keep
    # their previous centroid
    C = Y[:num_clusters].copy()
    nc = len(C)  # fewer rows than k degrades gracefully (kmeans.py)
    for it in range(kmean_max_iter + 1):
        d2 = ((C * C).sum(axis=1)[None, :] - 2.0 * (Y @ C.T)
              + (Y * Y).sum(axis=1)[:, None])
        a = np.argmin(d2, axis=1)
        if it == kmean_max_iter:
            break
        n = np.bincount(a, minlength=nc)
        S = np.zeros((nc, k))
        np.add.at(S, a, Y)
        live = n > 0
        C[live] = S[live] / n[live, None]
    out = rd.from_pandas(
        pd.DataFrame({"vertex": vids, "cluster": a.astype(np.int64)})
    )
    if out_dir is not None:
        out.write_parquet(out_dir)
        out = rd.read_parquet(out_dir)
    return out


def _spectral_clustering(graph, num_clusters, num_eigen_vects, mode,
                         evs_tolerance, evs_max_iter, kmean_tolerance,
                         kmean_max_iter, num_workers, out_dir,
                         local_edge_limit):
    if num_clusters < 2:
        raise ValueError("num_clusters must be > 1")
    if num_eigen_vects > num_clusters:
        raise ValueError("num_eigen_vects must be <= num_clusters")
    if graph.directed:
        raise ValueError("spectral clustering requires an undirected graph")
    if (num_workers is None and graph.num_edges <= local_edge_limit
            and graph.num_vertices <= 2_000_000):
        return _spectral_local(graph, num_clusters, num_eigen_vects, mode,
                               evs_tolerance, evs_max_iter, kmean_max_iter,
                               out_dir)
    engine, names = _spectral_embedding(
        graph, num_eigen_vects, mode, evs_tolerance, evs_max_iter,
        num_workers=num_workers,
    )
    try:
        return _cluster_embedding(engine, names, num_clusters,
                                  kmean_tolerance, kmean_max_iter,
                                  out_dir=out_dir)
    finally:
        engine.shutdown()  # idempotent; result_dataset already released


def spectral_balanced_cut_clustering(
    graph, num_clusters: int, num_eigen_vects: int = 2,
    evs_tolerance: float = 1e-5, evs_max_iter: int = 100,
    kmean_tolerance: float = 1e-5, kmean_max_iter: int = 100,
    num_workers: Optional[int] = None, out_dir=None,
    local_edge_limit: int = 500_000,
):
    """Dataset (vertex, cluster) — k-means over the num_eigen_vects
    smallest eigenvectors of the normalized Laplacian
    (``spectral_clustering.py:20-101``).  Graphs under
    ``local_edge_limit`` edges run the identical math driver-local
    (pass 0, or ``num_workers=``, to force the distributed engine)."""
    return _spectral_clustering(
        graph, num_clusters, num_eigen_vects, "laplacian",
        evs_tolerance, evs_max_iter, kmean_tolerance, kmean_max_iter,
        num_workers, out_dir, local_edge_limit,
    )


def spectral_modularity_maximization_clustering(
    graph, num_clusters: int, num_eigen_vects: int = 2,
    evs_tolerance: float = 1e-5, evs_max_iter: int = 100,
    kmean_tolerance: float = 1e-5, kmean_max_iter: int = 100,
    num_workers: Optional[int] = None, out_dir=None,
    local_edge_limit: int = 500_000,
):
    """Dataset (vertex, cluster) — k-means over the top eigenvectors of
    the modularity matrix (``spectral_clustering.py:103-185``).  Graphs
    under ``local_edge_limit`` edges run the identical math driver-local
    (pass 0, or ``num_workers=``, to force the distributed engine)."""
    return _spectral_clustering(
        graph, num_clusters, num_eigen_vects, "modularity",
        evs_tolerance, evs_max_iter, kmean_tolerance, kmean_max_iter,
        num_workers, out_dir, local_edge_limit,
    )


# ---------------------------------------------------------------- metrics


def _cluster_edge_stats(graph, clustering, num_buckets: int = 32):
    """One distributed pass: per-cluster (volume, internal directed weight)
    plus the global cut.  ``clustering``: Dataset (vertex, cluster).

    Shape: two bucketed hash joins tag each directed edge with src/dst
    cluster, then a combiner aggregate by cluster — no V-sized driver state.
    """
    import pandas as pd

    from raygraph import joins
    from raygraph.agg import hash_aggregate

    edges = graph.edges_dataset(columns=["src", "dst", "weight"])
    lab_src = clustering.map_batches(
        lambda df: df.rename(columns={"vertex": "src", "cluster": "c_src"}),
        batch_format="pandas",
    )
    lab_dst = clustering.map_batches(
        lambda df: df.rename(columns={"vertex": "dst", "cluster": "c_dst"}),
        batch_format="pandas",
    )
    tagged = joins.hash_join(
        joins.hash_join(edges, lab_src, on="src", num_buckets=num_buckets),
        lab_dst, on="dst", num_buckets=num_buckets,
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        same = (df["c_src"] == df["c_dst"]).to_numpy()
        w = df["weight"].to_numpy(np.float64)
        return pd.DataFrame(
            {"cluster": df["c_src"].to_numpy(np.int64),
             "vol": w,
             "internal": np.where(same, w, 0.0),
             "cut": np.where(same, 0.0, w)}
        )

    per_cluster = hash_aggregate(
        tagged.map_batches(partial, batch_format="pandas"),
        ["cluster"],
        {"vol": ("vol", "sum"), "internal": ("internal", "sum"),
         "cut": ("cut", "sum")},
        num_buckets=num_buckets,
    ).to_pandas()  # one row per cluster — tiny by contract
    sizes = hash_aggregate(
        clustering, ["cluster"], {"n": (None, "count")}, num_buckets=num_buckets
    ).to_pandas()
    return per_cluster.merge(sizes, on="cluster", how="outer").fillna(0.0)


def analyze_clustering(graph, clustering) -> dict:
    """All three quality metrics from ONE distributed stats pass:
    {'edge_cut', 'ratio_cut', 'modularity'}."""
    st = _cluster_edge_stats(graph, clustering)
    n = st["n"].to_numpy(np.float64)
    cut = st["cut"].to_numpy(np.float64)  # per-cluster crossing weight
    ok = n > 0
    m2 = float(st["vol"].sum())
    internal = st["internal"].to_numpy(np.float64)
    vol = st["vol"].to_numpy(np.float64)
    return {
        # each undirected edge's crossing weight appears in both of its
        # endpoint clusters → global cut is half the sum
        "edge_cut": float(cut.sum()) / 2.0,
        # Σ_k cut(C_k, V∖C_k) / |C_k|
        "ratio_cut": float((cut[ok] / n[ok]).sum()),
        # Q = Σ_k [ internal_k/(2m) − (vol_k/(2m))² ]
        "modularity": (
            float((internal / m2 - (vol / m2) ** 2).sum()) if m2 else 0.0
        ),
    }


def analyze_clustering_edge_cut(graph, clustering) -> float:
    """Total weight of edges crossing clusters, each undirected edge once
    (``spectral_clustering.py:253-319``)."""
    return analyze_clustering(graph, clustering)["edge_cut"]


def analyze_clustering_ratio_cut(graph, clustering) -> float:
    """Σ_k cut(C_k, V∖C_k) / |C_k|  (``spectral_clustering.py:320-382``)."""
    return analyze_clustering(graph, clustering)["ratio_cut"]


def analyze_clustering_modularity(graph, clustering) -> float:
    """Q = Σ_k [ internal_k/(2m) − (vol_k/(2m))² ]
    (``spectral_clustering.py:186-252``)."""
    return analyze_clustering(graph, clustering)["modularity"]
