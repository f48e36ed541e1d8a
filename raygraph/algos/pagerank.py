"""PageRank — pull-model power iteration with dangling redistribution.

Semantics mirror ``cpp/src/link_analysis/pagerank_impl.cuh:48-293`` exactly:

* init ``pr = 1/V`` or a caller-provided normalized ``nstart`` (:166-183)
* per iteration:
  - ``dangling_sum = Σ pr[v] over out_wsum[v]==0``            (:218-227)
  - no personalization: ``unvarying = (α·dangling_sum + (1-α)) / V``
    with personalization p: ``unvarying_v = (α·dangling_sum + (1-α))·p_v``
    (:243-276, personalization values normalized to sum 1)
  - ``pr'[v] = unvarying_v + α · Σ_{(u,v)∈E} pr[u]·w(u,v)/out_wsum[u]``
* converge when ``Σ_v |pr' - pr| < tol`` (L1)                 (:278-287)
* **raise** if max_iter is hit without convergence            (:289-290)

Output: Dataset ``(vertex:int64, pagerank:float64)``
(``link_analysis/pagerank.py:150-153``).

Checkpoint/resume (beyond the reference): every ``checkpoint_every``
supersteps the per-partition ``pr`` state is written with lineage metadata;
``resume=True`` restarts from the latest complete superstep.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from raygraph.superstep import SuperstepEngine, gate_executor, get


class ConvergenceError(RuntimeError):
    """Raised when max_iter is exceeded (pagerank_impl.cuh:289-290)."""


def _engine(graph, num_workers, checkpoint_dir=None, checkpoint_every=1,
            resume=False) -> SuperstepEngine:
    """The engine of PageRank and the spmv centralities: in the driver for
    graphs of up to 500k stored edges (``num_workers=``, a checkpoint or
    resume pin the actor pool)."""
    return SuperstepEngine(
        graph, num_workers=num_workers,
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
        executor=gate_executor(graph, num_workers, checkpoint_dir, resume,
                               500_000),
    )


def pagerank(
    graph,
    alpha: float = 0.85,
    tol: float = 1e-6,
    max_iter: int = 100,
    nstart=None,
    personalization=None,
    num_workers: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    out_dir: Optional[str] = None,
    fail_on_nonconvergence: bool = True,
    engine: Optional[SuperstepEngine] = None,
):
    """Run PageRank on a built Graph; returns Dataset (vertex, pagerank).

    ``nstart`` / ``personalization``: dicts or (vids, values) pairs over
    internal vertex ids; values are normalized here (pagerank.py:175-203
    renumbers+normalizes the aux frames the same way).

    ``fail_on_nonconvergence=False`` (reference
    ``link_analysis/pagerank.py:229``) returns the max_iter-th iterate
    instead of raising — with ``tol=0`` this runs exactly ``max_iter``
    power iterations (used by the SQL-checkable fixed-iteration query).

    Graphs of up to 500k stored edges run the engine in the driver
    (``num_workers=``, a checkpoint or resume pin the actor pool).
    """
    # ``engine=``: reuse a caller-held engine over the same graph (one
    # actor-pool spin-up for several algorithms); the caller owns shutdown.
    own_engine = engine is None
    if own_engine:
        engine = _engine(graph, num_workers, checkpoint_dir,
                         checkpoint_every, resume)
    else:
        if engine.graph is not graph and engine.graph.base_dir != graph.base_dir:
            raise ValueError("engine= was built over a different graph")
        engine._keep_alive = True  # result is a lazy handle; caller shuts down
        engine.reset()
    V = graph.num_vertices

    def _pair(d):
        if d is None:
            return None
        if isinstance(d, dict):
            vids = np.fromiter(d.keys(), dtype=np.int64, count=len(d))
            vals = np.fromiter(d.values(), dtype=np.float64, count=len(d))
        else:
            vids, vals = np.asarray(d[0], np.int64), np.asarray(d[1], np.float64)
        s = vals.sum()
        return (vids, vals / s if s != 0 else vals)

    try:
        return _run(engine, graph, alpha, tol, max_iter, _pair(nstart),
                    _pair(personalization), personalization is not None,
                    checkpoint_dir, resume, out_dir, fail_on_nonconvergence)
    finally:
        if own_engine:
            engine.shutdown()


def _run(engine, graph, alpha, tol, max_iter, nstart, personalization,
         has_pers, checkpoint_dir, resume, out_dir,
         fail_on_nonconvergence=True):
    V = graph.num_vertices
    if engine.wire_mirrors():
        # split high-degree graph: 3-step init — extended out-weight
        # partials → owner collect → fetch complete out_wsum for mirrors
        engine._exchange(
            "pagerank_init_partial", "pagerank_init_collect",
            update_args=(nstart, personalization),
        )
        engine.fetch_mirror("out_wsum")
        get([w.pagerank_finish_init.remote() for w in engine.workers])
    else:
        get([
            w.pagerank_init.remote(nstart=nstart, personalization=personalization)
            for w in engine.workers
        ])

    start_iter = 0
    if resume and checkpoint_dir:
        latest = engine.latest_complete_iteration("pagerank")
        if latest is not None:
            engine._restore("pagerank", latest, ["pr"])
            start_iter = latest + 1

    converged = False
    # Pipelined (lag-1) loop: dispatch round k+1 before joining round k's
    # stats — actor task ordering guarantees round k's update committed
    # before round k+1's scatter reads the state, so the per-round driver
    # dispatch+join latency (measured ~35 ms at W=32) is hidden behind
    # worker compute.  Convergence is then detected one round late: the
    # returned state is the first-below-tol iterate PLUS one extra power
    # iteration — still converged (L1 is decreasing), and deterministic
    # across worker counts.  Checkpointing needs per-round joins, so the
    # checkpointed path stays synchronous.
    #
    # Only worth it when per-worker compute can cover the dispatch work:
    # measured A/B at W=32 on this class of host — 134M edges (4.2M/worker,
    # ~200 ms/iter): pipelined 8-13% faster; 33.5M (1M/worker): 20% slower;
    # 5M (160k/worker): 1.8× slower (the overlapped driver dispatch
    # contends with saturated workers for cores).  Gate at 2M edges/worker.
    import os

    env = os.environ.get("RAYGRAPH_PIPELINE")  # force on/off (tests)
    pipelined = (
        not checkpoint_dir
        and not getattr(engine, "has_mirrors", False)
        and (
            bool(int(env)) if env is not None
            else graph.num_edges >= 2_000_000 * engine.W
        )
    )
    if pipelined:
        prev_refs = None
        for it in range(start_iter, max_iter):
            refs = engine.pagerank_round_async(alpha, has_pers)
            if prev_refs is not None:
                l1 = sum(s["l1"] for s in get(prev_refs))
                if l1 < tol:
                    get(refs)  # join the in-flight extra round
                    converged = True
                    break
            prev_refs = refs
        if not converged and prev_refs is not None:
            l1 = sum(s["l1"] for s in get(prev_refs))
            converged = l1 < tol
    else:
        for it in range(start_iter, max_iter):
            import time

            t0 = time.perf_counter()
            scatter_stats, update_stats = _iteration(engine, alpha, has_pers, V)
            l1 = sum(s["l1"] for s in update_stats)
            wall = time.perf_counter() - t0
            if checkpoint_dir and (it % engine.checkpoint_every == 0 or l1 < tol):
                engine._checkpoint(
                    "pagerank", it, ["pr"],
                    {
                        "l1": l1,
                        "wall_sec": wall,
                        "rows_out": sum(s["rows_out"] for s in scatter_stats),
                        "rows_in": sum(s["rows_in"] for s in update_stats),
                        "shuffle_bytes": sum(s["bytes_out"] for s in scatter_stats),
                    },
                )
            if l1 < tol:
                converged = True
                break
    if not converged and fail_on_nonconvergence:
        raise ConvergenceError(
            f"PageRank failed to converge in {max_iter} iterations (L1 tol {tol})"
        )

    ds = engine.result_dataset(["pr"], out_dir=out_dir)
    import pyarrow as pa

    return ds.map_batches(
        lambda t: pa.table(
            {"vertex": t.column("vertex"), "pagerank": t.column("pr")}
        ),
        batch_format="pyarrow",
    )


def _iteration(engine, alpha, has_personalization, V):
    """Single-barrier superstep: updates consume the scatter message refs
    directly (Ray resolves them when ready); the driver only joins on the
    update stats — no scatter-side barrier, no driver-held scalar.
    Exchange layout (packed vs per-receiver sliced) follows the engine's
    ``exchange_mode``."""
    update_stats = engine.pagerank_round(alpha, has_personalization)
    return update_stats, update_stats
