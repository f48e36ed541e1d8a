"""Weakly connected components — min-label propagation to fixpoint.

Semantics: the reference's legacy WCC fixpoint
(``cpp/src/components/legacy/weak_cc.cuh:60-130``): init ``label[v]=v``,
iterate ``label[v] = min(label[v], min_{u∈N(v)} label[u])`` until no label
changes.  Output contract (``components/connectivity.py:152-159``;
exactness up to bijection per
``cpp/tests/components/weakly_connected_components_test.cpp:178-190``):
Dataset ``(vertex:int64, labels:int64)``.  Our labels are canonical — the
minimum vertex id in each component — so output is bitwise deterministic
(stronger than the reference, SURVEY.md §5.2.4).

The frontier optimization of the modern impl
(``weakly_connected_components_impl.cuh:520`` "iterate till every vertex
gets visited") appears here as the ``active`` mask: only vertices whose
label changed last superstep re-emit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import ray

from raygraph.superstep import SuperstepEngine, ref_list


def weakly_connected_components(
    graph,
    max_iter: Optional[int] = None,
    num_workers: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    out_dir: Optional[str] = None,
    engine: Optional[SuperstepEngine] = None,
    local_edge_limit: int = 500_000,
):
    """Min-label propagation; requires a symmetrized (undirected) graph.

    Weak connectivity is defined on the underlying undirected graph; build
    with ``directed=False`` (the reference symmetrizes on construction,
    ``simpleGraph.py:215-229``).

    ``max_iter``: superstep bound of the engine path; None means V + 1,
    which the min-label fixpoint never needs more than (one superstep per
    hop of the longest shortest path, plus the one that sees no change).

    ``engine=``: reuse a caller-held engine over the same graph (one
    actor-pool spin-up for several algorithms); the caller owns shutdown.
    """
    if graph.directed:
        raise ValueError(
            "weakly_connected_components requires a symmetrized graph; "
            "build with directed=False"
        )
    # labels are canonical (min vid per component) — a pure function of
    # the partition — so the local relax gives identical output.  It is a
    # different algorithm from the engine's, kept on purpose: pointer
    # jumping settles a 3,000-vertex path in 0.12 s, where the engine's
    # fixpoint needs one superstep per hop
    if (engine is None and num_workers is None and checkpoint_dir is None
            and not resume and graph.num_edges <= local_edge_limit
            and graph.num_vertices <= 2_000_000):
        import ray.data as rd

        V = graph.num_vertices
        t = graph.edge_table(["src", "dst"])
        src = t.column("src").to_numpy()
        dst = t.column("dst").to_numpy()
        labels = np.arange(V, dtype=np.int64)
        while True:
            prev = labels
            m = np.minimum(labels, labels[labels])  # pointer-jump compress
            np.minimum.at(m, dst, m[src])  # edge relax (sym edges)
            labels = np.minimum(m, m[m])
            if np.array_equal(labels, prev):
                break
        out = rd.from_pandas(
            pd.DataFrame(
                {"vertex": np.arange(V, dtype=np.int64), "labels": labels}
            )
        )
        if out_dir is not None:
            out.write_parquet(out_dir)
            out = rd.read_parquet(out_dir)
        return out
    own_engine = engine is None
    if own_engine:
        engine = SuperstepEngine(
            graph, num_workers=num_workers,
            checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
        )
    else:
        if engine.graph is not graph and engine.graph.base_dir != graph.base_dir:
            raise ValueError("engine= was built over a different graph")
        engine._keep_alive = True  # result is a lazy handle; caller shuts down
        engine.reset()
    if max_iter is None:
        max_iter = graph.num_vertices + 1
    try:
        return _run(engine, max_iter, checkpoint_dir, resume, out_dir)
    finally:
        if own_engine:
            engine.shutdown()


def _scc_local(V: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Iterative Tarjan over a CSR of the edge arrays → canonical labels
    (min vertex id per SCC) for vertices 0..V-1.  Exact — identical to
    the engine's forward-backward labels by the canonical-label
    contract."""
    order = np.argsort(src, kind="stable")
    ss, dd = src[order], dst[order]
    indptr = np.searchsorted(ss, np.arange(V + 1))
    index = np.full(V, -1, np.int64)
    low = np.zeros(V, np.int64)
    onstk = np.zeros(V, bool)
    comp_id = np.full(V, -1, np.int64)
    stk: list = []
    counter = 0
    ncomp = 0
    for root in range(V):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stk.append(v)
                onstk[v] = True
            advanced = False
            for i in range(indptr[v] + pi, indptr[v + 1]):
                u = int(dd[i])
                if index[u] == -1:
                    work[-1] = (v, i - indptr[v] + 1)
                    work.append((u, 0))
                    advanced = True
                    break
                elif onstk[u]:
                    if index[u] < low[v]:
                        low[v] = index[u]
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]
            if low[v] == index[v]:
                while True:
                    u = stk.pop()
                    onstk[u] = False
                    comp_id[u] = ncomp
                    if u == v:
                        break
                ncomp += 1
    lab = np.full(ncomp, np.iinfo(np.int64).max)
    np.minimum.at(lab, comp_id, np.arange(V, dtype=np.int64))
    return lab[comp_id]


def strongly_connected_components(
    graph,
    max_outer: int = 200,
    max_iter: int = 10_000,
    num_workers: Optional[int] = None,
    out_dir: Optional[str] = None,
    local_edge_limit: int = 500_000,
):
    """SCC on a directed graph via forward-backward coloring with trim.

    Reference export: ``pylibcugraph.strongly_connected_components``
    (``cpp/src/components/legacy/connectivity.cu``).  Scheme per outer
    round: (1) trim — active vertices with zero active in- or out-degree
    are singleton SCCs (peels DAG regions in diameter rounds); (2) forward
    min-color fixpoint within the active subgraph; (3) backward root-mark
    fixpoint (marks = vertices reaching their color's root within the
    color class) via the dst-property fetch; (4) assign marked vertices
    ``scc = color`` and deactivate.  Labels are canonical: the minimum
    vertex id in each SCC.  Output: Dataset ``(vertex, labels)``.

    Graphs under ``local_edge_limit`` edges (and ≤2M vertices) run an
    iterative Tarjan on the driver — identical canonical labels (the
    label is a function of the partition, not the algorithm), no engine
    spin-up.  Pass 0, or ``num_workers=``, to force the distributed path.
    """
    if not graph.directed:
        raise ValueError(
            "strongly_connected_components requires a directed graph; "
            "for undirected graphs use weakly_connected_components"
        )
    V = graph.num_vertices
    # Tarjan is a different algorithm from the engine's forward-backward
    # coloring (one DFS instead of trim/color/mark fixpoints), so it stays
    # a driver-side replica rather than an in-driver engine run
    if (num_workers is None and graph.num_edges <= local_edge_limit
            and V <= 2_000_000):
        import ray.data as rd

        t = graph.edge_table(["src", "dst"])
        labels = _scc_local(
            V, t.column("src").to_numpy(), t.column("dst").to_numpy())
        out = rd.from_pandas(
            pd.DataFrame(
                {"vertex": np.arange(V, dtype=np.int64), "labels": labels}
            )
        )
        if out_dir is not None:
            out.write_parquet(out_dir)
        return out
    engine = SuperstepEngine(graph, num_workers=num_workers)
    W = engine.W
    try:
        # one-time dst-property fetch wiring (same as HITS)
        needed = ray.get([w.needed_dst_ids.remote() for w in engine.workers])
        ray.get(
            [
                engine.workers[p].register_requests.remote(
                    [needed[q][p] for q in range(W)]
                )
                for p in range(W)
            ]
        )
        ray.get([w.scc_init.remote() for w in engine.workers])

        def fetch(name):
            served = [
                ref_list(w.serve_dst_values.options(num_returns=W).remote(name), W)
                for w in engine.workers
            ]
            ray.get(
                [
                    engine.workers[q].apply_dst_values.remote(
                        name, [served[p][q] for p in range(W)]
                    )
                    for q in range(W)
                ]
            )

        active = graph.num_vertices
        for outer in range(max_outer):
            # trim loop: each pass peels current sources/sinks
            while active:
                engine._exchange("scc_trim_scatter", "scc_trim_update")
                fetch("scc_active")
                ray.get([w.scc_outdeg_apply.remote() for w in engine.workers])
                stats = ray.get([w.scc_trim_apply.remote() for w in engine.workers])
                trimmed = sum(s["trimmed"] for s in stats)
                active = sum(s["active"] for s in stats)
                if trimmed == 0:
                    break
            if active == 0:
                break
            # forward color fixpoint over the active subgraph
            ray.get([w.scc_color_init.remote() for w in engine.workers])
            for _ in range(max_iter):
                _, upd = engine._exchange("scc_color_scatter", "scc_color_update")
                if sum(u["changed"] for u in upd) == 0:
                    break
            # backward mark fixpoint from the color roots
            ray.get([w.scc_mark_init.remote() for w in engine.workers])
            for _ in range(max_iter):
                fetch("scc_bw")
                upd = ray.get([w.scc_mark_round.remote() for w in engine.workers])
                if sum(u["changed"] for u in upd) == 0:
                    break
            stats = ray.get([w.scc_assign.remote() for w in engine.workers])
            active = sum(s["active"] for s in stats)
            if active == 0:
                break
        if active:
            raise RuntimeError(
                f"SCC did not converge within {max_outer} outer rounds"
            )

        import pyarrow as pa

        ds = engine.result_dataset(["scc"], out_dir=out_dir)
        return ds.map_batches(
            lambda t: pa.table(
                {"vertex": t.column("vertex"), "labels": t.column("scc")}
            ),
            batch_format="pyarrow",
        )
    finally:
        engine.shutdown()


def _run(engine, max_iter, checkpoint_dir, resume, out_dir):
    engine.wire_mirrors()
    ray.get([w.cc_init.remote() for w in engine.workers])

    start_iter = 0
    if resume and checkpoint_dir:
        latest = engine.latest_complete_iteration("wcc")
        if latest is not None:
            engine._restore("wcc", latest, ["labels", "active"])
            start_iter = latest + 1

    import time

    done = False
    for it in range(start_iter, max_iter):
        t0 = time.perf_counter()
        scatter_stats, update_stats = engine._exchange(
            "cc_scatter", "cc_update", mirror_names=("labels", "active")
        )
        changed = sum(s["changed"] for s in update_stats)
        wall = time.perf_counter() - t0
        if checkpoint_dir and (it % engine.checkpoint_every == 0 or changed == 0):
            engine._checkpoint(
                "wcc", it, ["labels", "active"],
                {
                    "changed": changed,
                    "wall_sec": wall,
                    "rows_out": sum(s["rows_out"] for s in scatter_stats),
                    "rows_in": sum(s["rows_in"] for s in update_stats),
                    "shuffle_bytes": sum(s["bytes_out"] for s in scatter_stats),
                },
            )
        if changed == 0:
            done = True
            break
    if not done:
        raise RuntimeError(f"WCC did not reach fixpoint in {max_iter} supersteps")

    import pyarrow as pa

    ds = engine.result_dataset(["labels"], out_dir=out_dir)
    return ds.map_batches(
        lambda t: pa.table({"vertex": t.column("vertex"), "labels": t.column("labels")}),
        batch_format="pyarrow",
    )
