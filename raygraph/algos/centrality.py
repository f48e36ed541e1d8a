"""Katz / eigenvector centrality and HITS — linear-algebra supersteps.

Same skeleton as PageRank (SURVEY.md §2.4 "same superstep skeleton"):

* **Katz** (``cpp/src/centrality/katz_centrality_impl.cuh``):
  ``x' = α·Aᵀx + β`` from x=0, converge on L1 < tol, raise past max_iter;
  optional final L2 normalization.
* **Eigenvector** (``eigenvector_centrality_impl.cuh``): power iteration
  ``x' = Aᵀx / ‖Aᵀx‖₂`` from uniform x, converge on L1 of the normalized
  iterate.
* **HITS** (``link_analysis/hits_impl.cuh``): authorities ``a = Aᵀh``
  (scatter+gather), hubs ``h[u] = Σ_{(u,v)} a[v]`` computed locally after a
  dst-property exchange (the ``update_edge_dst_property`` analogue:
  authority values are served from their owners to every worker whose CSR
  block references them); both L1-normalized per iteration.
"""

from __future__ import annotations

import math
from typing import Optional

from raygraph.algos.pagerank import ConvergenceError, _engine
from raygraph.superstep import SuperstepEngine, gate_executor, get, ref_list


def _result(engine, src_name, out_name, out_dir=None):
    import pyarrow as pa

    ds = engine.result_dataset([src_name], out_dir=out_dir)
    return ds.map_batches(
        lambda t: pa.table({"vertex": t.column("vertex"), out_name: t.column(src_name)}),
        batch_format="pyarrow",
    )


def _spmv_round(engine, name):
    """Returns (per-receiver msg ref lists indexed by receiver, stats) —
    mode-aware (packed: every receiver shares the same W refs; sliced:
    receiver q gets only its own per-sender slices)."""
    return engine.spmv_round_refs(name)


def katz_centrality(graph, alpha: float = 0.1, beta: float = 1.0,
                    tol: float = 1e-6, max_iter: int = 100,
                    normalized: bool = True,
                    num_workers: Optional[int] = None, out_dir=None,
                    checkpoint_dir: Optional[str] = None,
                    checkpoint_every: int = 1, resume: bool = False,
                    fail_on_nonconvergence: bool = True):
    engine = _engine(graph, num_workers, checkpoint_dir, checkpoint_every,
                     resume)
    try:
        engine.wire_mirrors()
        get([w.set_state.remote("x", 0.0) for w in engine.workers])
        start_iter = 0
        if resume and checkpoint_dir:
            latest = engine.latest_complete_iteration("katz")
            if latest is not None:
                engine._restore("katz", latest, ["x"])
                start_iter = latest + 1
        for it in range(start_iter, max_iter):
            per_recv, _ = _spmv_round(engine, "x")
            upd = get(
                [
                    engine.workers[q].gather_into.remote(
                        "x", per_recv[q], alpha=alpha, beta=beta
                    )
                    for q in range(engine.W)
                ]
            )
            l1 = sum(u["l1"] for u in upd)
            if checkpoint_dir and (it % engine.checkpoint_every == 0 or l1 < tol):
                engine._checkpoint("katz", it, ["x"], {"l1": l1})
            if l1 < tol or (it == max_iter - 1 and not fail_on_nonconvergence):
                if normalized:
                    sq = sum(u["local_sq"] for u in upd)
                    inv = 1.0 / math.sqrt(sq) if sq > 0 else 1.0
                    get([w.scale_state.remote("x", inv) for w in engine.workers])
                return _result(engine, "x", "katz_centrality", out_dir)
        raise ConvergenceError(f"Katz failed to converge in {max_iter} iterations")
    finally:
        engine.shutdown()


def eigenvector_centrality(graph, tol: float = 1e-6, max_iter: int = 100,
                           num_workers: Optional[int] = None, out_dir=None,
                           checkpoint_dir: Optional[str] = None,
                           checkpoint_every: int = 1, resume: bool = False,
                           fail_on_nonconvergence: bool = True):
    engine = _engine(graph, num_workers, checkpoint_dir, checkpoint_every,
                     resume)
    V = graph.num_vertices
    try:
        engine.wire_mirrors()
        get([w.set_state.remote("x", 1.0 / math.sqrt(V)) for w in engine.workers])
        start_iter = 0
        if resume and checkpoint_dir:
            latest = engine.latest_complete_iteration("eigenvector")
            if latest is not None:
                engine._restore("eigenvector", latest, ["x"])
                start_iter = latest + 1
        for it in range(start_iter, max_iter):
            per_recv, _ = _spmv_round(engine, "x")
            upd = get(
                [
                    engine.workers[q].gather_into.remote("y", per_recv[q])
                    for q in range(engine.W)
                ]
            )
            sq = sum(u["local_sq"] for u in upd)
            if sq == 0:
                raise ConvergenceError("eigenvector: zero iterate (no edges?)")
            inv = 1.0 / math.sqrt(sq)
            # commit x ← ŷ and measure ‖ŷ − x_prev‖₁ (true normalized diff)
            diffs = get(
                [w.commit_scaled_diff.remote("y", "x", inv) for w in engine.workers]
            )
            l1 = sum(d["l1"] for d in diffs)
            if checkpoint_dir and (
                it % engine.checkpoint_every == 0 or l1 < tol * V
            ):
                engine._checkpoint("eigenvector", it, ["x"], {"l1": l1})
            if l1 < tol * V or (it == max_iter - 1 and not fail_on_nonconvergence):
                return _result(engine, "x", "eigenvector_centrality", out_dir)
        raise ConvergenceError(f"eigenvector failed to converge in {max_iter} iters")
    finally:
        engine.shutdown()


def hits(graph, tol: float = 1e-5, max_iter: int = 100,
         num_workers: Optional[int] = None, out_dir=None):
    """Returns Dataset (vertex, hubs, authorities), L1-normalized."""
    import pyarrow as pa

    engine = _engine(graph, num_workers)
    V = graph.num_vertices
    W = engine.W
    try:
        # one-time dst-property exchange wiring (update_edge_dst_property)
        needed = get([w.needed_dst_ids.remote() for w in engine.workers])
        get(
            [
                engine.workers[p].register_requests.remote(
                    [needed[q][p] for q in range(W)]
                )
                for p in range(W)
            ]
        )
        get([w.set_state.remote("h", 1.0 / V) for w in engine.workers])
        for it in range(max_iter):
            # authorities: a = Aᵀ h, L1-normalized
            per_recv, _ = _spmv_round(engine, "h")
            upd = get(
                [
                    engine.workers[q].gather_into.remote("a", per_recv[q])
                    for q in range(W)
                ]
            )
            s = sum(u["local_sum"] for u in upd)
            if s > 0:
                get([w.scale_state.remote("a", 1.0 / s) for w in engine.workers])
            # serve authority values to the workers whose blocks need them
            served = [
                ref_list(w.serve_dst_values.options(num_returns=W).remote("a"), W)
                for w in engine.workers
            ]
            get(
                [
                    engine.workers[q].apply_dst_values.remote(
                        "a", [served[p][q] for p in range(W)]
                    )
                    for q in range(W)
                ]
            )
            # hubs: h[u] = Σ w·a[v] over out-edges, L1-normalized
            upd2 = get(
                [w.out_accumulate.remote("h_raw", "a") for w in engine.workers]
            )
            s2 = sum(u["local_sum"] for u in upd2)
            diffs = get(
                [
                    w.commit_scaled_diff.remote("h_raw", "h", 1.0 / s2 if s2 > 0 else 1.0)
                    for w in engine.workers
                ]
            )
            l1 = sum(d["l1"] for d in diffs)
            if l1 < tol:
                break
        ds = engine.result_dataset(["h", "a"], out_dir=out_dir)
        return ds.map_batches(
            lambda t: pa.table(
                {
                    "vertex": t.column("vertex"),
                    "hubs": t.column("h"),
                    "authorities": t.column("a"),
                }
            ),
            batch_format="pyarrow",
        )
    finally:
        engine.shutdown()


def _bc_select_sources(V, k, sources, seed):
    """Deterministic Brandes source set: explicit > seeded k-sample > all."""
    import numpy as np

    from raygraph.hashing import splitmix64

    if sources is None:
        if k is None or k >= V:
            return np.arange(V, dtype=np.int64)
        # deterministic distinct sample: rank vertices by seeded hash
        h = splitmix64(
            np.arange(V, dtype=np.int64).astype(np.uint64)
            ^ np.uint64(seed * 0x9E3779B97F4A7C15 % 2**64)
        )
        return np.sort(np.argsort(h)[:k].astype(np.int64))
    return np.unique(np.asarray(list(sources), dtype=np.int64))


def _brandes_sweep(engine, sources, edge_acc: bool = False):
    """Per-source Brandes forward BFS + reverse-level dependency sweep.

    ``edge_acc`` additionally accumulates each DAG edge's contribution into
    the resident per-edge 'ebc' state (edge betweenness); the vertex path
    folds delta into 'bc' via ``bc_accumulate`` instead."""
    W = engine.W
    needed = get([w.needed_dst_ids.remote() for w in engine.workers])
    get(
        [
            engine.workers[p].register_requests.remote(
                [needed[q][p] for q in range(W)]
            )
            for p in range(W)
        ]
    )

    def fetch(name):
        served = [
            ref_list(w.serve_dst_values.options(num_returns=W).remote(name), W)
            for w in engine.workers
        ]
        get(
            [
                engine.workers[q].apply_dst_values.remote(
                    name, [served[p][q] for p in range(W)]
                )
                for q in range(W)
            ]
        )

    for s in sources.tolist():
        get([w.bc_source_init.remote(s) for w in engine.workers])
        level = 0
        while True:
            level += 1
            _, upd = engine._exchange(
                "bc_forward_scatter", "bc_forward_update",
                update_args=(level,),
            )
            if sum(u["changed"] for u in upd) == 0:
                break
        fetch("bc_dist")
        fetch("bc_sigma")
        maxd = max(
            get([w.bc_backward_init.remote() for w in engine.workers])
        )
        for lv in range(maxd, 0, -1):
            fetch("bc_delta")
            get(
                [w.bc_backward_level.remote(lv, edge_acc)
                 for w in engine.workers]
            )
        if not edge_acc:
            get([w.bc_accumulate.remote(s) for w in engine.workers])


def betweenness_centrality(graph, k: Optional[int] = None, sources=None,
                           normalized: bool = True, seed: int = 42,
                           num_workers: Optional[int] = None, out_dir=None,
                           local_edge_limit: int = 500_000):
    """Sampled Brandes betweenness (unweighted shortest paths) on the BSP
    engine — ``cpp/src/centrality/betweenness_centrality.cu`` /
    ``centrality/betweenness_centrality.py`` semantics.

    ``sources``: explicit sample; else ``k`` seeded-uniform distinct
    sources (all vertices when both are None).  Rescaling follows the
    reference's ``rescale()`` / ``rescale_by_total_sources_used``
    (``cpp/src/centrality/betweenness_centrality.cu``): the raw sum over
    the both-directions-stored undirected graph counts each (s,t) pair
    twice, so ``normalized`` divides by the FULL (V−1)(V−2) for both
    directed and undirected graphs; unnormalized undirected output is
    halved instead; the V/|S| sample-extrapolation factor applies whenever
    a rescale happened (normalized, or unnormalized-undirected).
    Graphs with ≤ ``local_edge_limit`` edges run the same engine in the
    driver (:func:`raygraph.superstep.gate_executor`).
    Output: Dataset (vertex, betweenness_centrality).
    """
    V = graph.num_vertices
    sources = _bc_select_sources(V, k, sources, seed)

    scale = 1.0
    rescaled = False
    if normalized:
        if V > 2:
            scale /= (V - 1) * (V - 2)
            rescaled = True
    elif not graph.directed:
        scale *= 0.5
        rescaled = True
    if rescaled and len(sources) < V:
        scale *= V / len(sources)

    engine = SuperstepEngine(
        graph, num_workers=num_workers,
        executor=gate_executor(graph, num_workers, None, False,
                               local_edge_limit),
    )
    try:
        get([w.bc_init.remote() for w in engine.workers])
        _brandes_sweep(engine, sources)

        if scale != 1.0:
            get([w.scale_state.remote("bc", scale) for w in engine.workers])
        ds = engine.result_dataset(["bc"], out_dir=out_dir)
        import pyarrow as pa

        return ds.map_batches(
            lambda t: pa.table(
                {"vertex": t.column("vertex"),
                 "betweenness_centrality": t.column("bc")}
            ),
            batch_format="pyarrow",
        )
    finally:
        engine.shutdown()


def edge_betweenness_centrality(graph, k: Optional[int] = None, sources=None,
                                normalized: bool = True, seed: int = 42,
                                num_workers: Optional[int] = None,
                                out_dir=None,
                                local_edge_limit: int = 500_000):
    """Edge betweenness on the BSP engine —
    ``cpp/src/centrality/betweenness_centrality.cu``
    ``edge_betweenness_centrality_impl`` /
    ``centrality/edge_betweenness_centrality_wrapper.pyx`` semantics.

    Same sampled-Brandes machinery as :func:`betweenness_centrality`; the
    reverse sweep's per-DAG-edge contribution σ[u]/σ[v]·(1+δ[v]) is
    accumulated into a resident per-edge slot instead of being folded into
    the src vertex.  Rescale follows the reference: ``normalized`` divides
    by V·(V−1); unnormalized undirected output is halved; and — matching
    the reference's NetworkX-compatibility note — NO V/|S| sample
    extrapolation is applied for edges.  Output: (src, dst,
    betweenness_centrality) over the stored edge list (both directions for
    undirected graphs, as the reference returns)."""
    V = graph.num_vertices
    sources = _bc_select_sources(V, k, sources, seed)

    scale = 1.0
    if normalized:
        if V > 1:
            scale /= V * (V - 1)
    elif not graph.directed:
        scale *= 0.5

    engine = SuperstepEngine(
        graph, num_workers=num_workers,
        executor=gate_executor(graph, num_workers, None, False,
                               local_edge_limit),
    )
    try:
        get([w.ebc_init.remote() for w in engine.workers])
        _brandes_sweep(engine, sources, edge_acc=True)
        if scale != 1.0:
            get([w.scale_state.remote("ebc", scale) for w in engine.workers])
        ds = engine.edge_result_dataset(["ebc"], out_dir=out_dir)
        import pyarrow as pa

        return ds.map_batches(
            lambda t: pa.table(
                {"src": t.column("src"), "dst": t.column("dst"),
                 "betweenness_centrality": t.column("ebc")}
            ),
            batch_format="pyarrow",
        )
    finally:
        engine.shutdown()


def degree_centrality(graph, normalized: bool = True, out_dir=None):
    """Degree centrality: total degree, divided by (V-1) when normalized —
    ``python/cugraph/cugraph/centrality/degree_centrality.py:62-67`` (the
    degree is over the stored edge list, so an undirected edge contributes
    to both endpoints' in and out degrees, matching ``G.degree()``).
    Map-only over :func:`raygraph.ops.degrees` — no extra shuffle."""
    import numpy as np
    import pandas as pd

    from raygraph import ops

    scale = 1.0 / max(graph.num_vertices - 1, 1) if normalized else 1.0

    ds = ops.degrees(graph).map_batches(
        lambda df, s=scale: pd.DataFrame(
            {
                "vertex": df["vertex"],
                "degree_centrality": df["degree"].to_numpy(np.float64) * s,
            }
        ),
        batch_format="pandas",
    )
    if out_dir is not None:
        ds.write_parquet(out_dir)
    return ds
