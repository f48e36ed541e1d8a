"""Benchmark harness — headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line on stdout:
  {"metric": ..., "value": <total sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N, ...extras}

Headline = the north-star pipeline: deterministic synthetic source-code
corpus (FIXTURES.md F1, sized by sf) → ingest (sha256) → edge derivation →
graph build (symmetrize/renumber/partition) → PageRank to 1e-6, reporting
iterations/sec and edges/sec (BASELINE.md target metric).  Plus WCC, LPA,
triangle counting (lineitem hypergraph) and representative data-pipeline
operators over the sf dir tables.

``--scaling``: runs the same bench twice in fresh processes at
num_cpus=8 and num_cpus=32 on the same input and reports both throughputs
plus scaling efficiency (sandbox stand-in for the N vs 4N cluster rule).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def corpus_rows_for(sf_dir: str) -> int:
    base = os.path.basename(os.path.normpath(sf_dir))
    try:
        sf = float(base.replace("sf", ""))
        return max(2000, int(6_000_000 * sf))
    except ValueError:
        return 600_000


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import ray.data as rd

    from raygraph import corpus, derive, ingest
    from raygraph.algos import label_propagation, pagerank, weakly_connected_components
    from raygraph.algos.triangles import triangle_count
    from raygraph.data import dedup, knn, text as textmod, windows
    from raygraph.graph import Graph
    from raygraph.pipelines import _build_graph_from_keys, hyper_edges

    times: dict[str, float] = {}
    extras: dict = {}

    def timed(name):
        class _T:
            def __enter__(self):
                self.t0 = time.perf_counter()
                return self

            def __exit__(self, *a):
                times[name] = round(time.perf_counter() - self.t0, 3)

        return _T()

    n_rows = corpus_rows_for(SF_DIR)
    corpus_dir = f"/tmp/raygraph-bench/corpus-{n_rows}"
    if not os.path.isdir(corpus_dir) or not os.listdir(corpus_dir):
        os.makedirs(corpus_dir, exist_ok=True)
        with timed("corpus_synth"):
            corpus.write_corpus(corpus_dir, n_rows, seed=42)
    # warm page cache so scaling runs measure compute+shuffle, not cold disk
    rd.read_parquet(corpus_dir).count()

    with timed("ingest_sha256"):
        n_ingest = ingest.ingest(rd.read_parquet(corpus_dir)).count()
    extras["ingest_rows"] = n_ingest

    with timed("graph_build"):
        edges = derive.derive_edges(rd.read_parquet(corpus_dir))
        g = Graph.from_edges(
            edges, directed=False, num_partitions=32,
            out_dir=f"/tmp/raygraph-bench/graph-{n_rows}-{NUM_CPUS}-{time.time_ns()}",
        )
    extras["graph_vertices"] = g.num_vertices
    extras["graph_edges"] = g.num_edges

    # instrumented PageRank: one run, loop timed separately from the
    # engine spin-up and the result write (iters/sec + edges/sec are the
    # BASELINE.md target metrics)
    from raygraph.superstep import SuperstepEngine

    # one engine serves pagerank → wcc → lpa over the same graph (reset
    # between algorithms): one actor-pool spin-up + CSR build, not three.
    # The pool reserves every CPU, so the lazy result handles are consumed
    # only after shutdown (one cheap parquet-read stage at the end).
    # Spin-up is its own stage: the first engine after the build lands in
    # the build's async-cleanup window (BASELINE.md: init bodies contend
    # 0.3→5.6s with the background frees; idle ctor ≈2-3s) — timing it
    # separately keeps `pagerank` purely algorithmic while the total still
    # counts every second.
    with timed("engine_spinup"):
        eng = SuperstepEngine(g, num_workers=None)
        eng._keep_alive = True
    try:
        with timed("pagerank"):
            import ray as _ray

            _ray.get([w.pagerank_init.remote() for w in eng.workers])

            # lag-1 pipelined loop only when per-worker compute covers the
            # dispatch latency (same 2M-edges/worker gate as algos.pagerank;
            # the sf0.1 corpus graph is below it → synchronous loop)
            pipe = g.num_edges >= 2_000_000 * eng.W
            iters = 0
            t_pr = time.perf_counter()
            if pipe:
                prev = None
                for it in range(500):
                    refs = eng.pagerank_round_async(0.85, False)
                    iters += 1
                    if prev is not None and sum(
                        s["l1"] for s in _ray.get(prev)
                    ) < 1e-6:
                        _ray.get(refs)
                        break
                    prev = refs
                else:
                    _ray.get(prev)
            else:
                for it in range(500):
                    upd = eng.pagerank_round(0.85, False)
                    iters += 1
                    if sum(s["l1"] for s in upd) < 1e-6:
                        break
            pr_loop_sec = time.perf_counter() - t_pr
        with timed("pagerank_write"):
            ds_pr = eng.result_dataset(["pr"])  # workers write; lazy handle
        extras["pagerank_iters"] = iters
        extras["pagerank_iters_per_sec"] = round(iters / pr_loop_sec, 3)
        extras["pagerank_edges_per_sec"] = round(
            g.num_edges * iters / pr_loop_sec, 1)
        times["pagerank_loop"] = round(pr_loop_sec, 3)

        with timed("wcc"):
            ds_cc = weakly_connected_components(g, engine=eng)
        with timed("lpa"):
            ds_lpa = label_propagation(g, max_iter=10, engine=eng)
    finally:
        eng.shutdown()
    with timed("graph_results_read"):
        ds_pr.count(); ds_cc.count(); ds_lpa.count()

    with timed("tri_build"):
        hg = _build_graph_from_keys(hyper_edges(SF_DIR), directed=False,
                                    tag="bench-tri", num_partitions=32)
    with timed("triangles"):
        triangle_count(hg).count()

    docs = os.path.join(SF_DIR, "documents.parquet")
    with timed("exact_dedup"):
        dedup.exact_dedup(rd.read_parquet(docs)).count()
    with timed("minhash_dedup"):
        dedup.near_dedup_minhash(rd.read_parquet(docs), threshold=0.7)
    with timed("simhash"):
        dedup.simhash_signatures(rd.read_parquet(docs)).count()
    with timed("dup_spans"):
        dedup.duplicate_ngram_spans(
            rd.read_parquet(docs, columns=["doc_id", "text"]), n=8
        ).count()
    with timed("text_quality"):
        textmod.quality_scores(rd.read_parquet(docs)).count()
    with timed("knn"):
        import numpy as np
        import pyarrow.parquet as pq

        emb = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet")).to_pandas()
        emb = emb.sort_values("vec_id").head(8)
        Q = np.stack([np.asarray(v, np.float64) for v in emb["embedding"]])
        knn.knn_bruteforce(
            rd.read_parquet(os.path.join(SF_DIR, "embeddings.parquet")),
            Q, emb["vec_id"].to_numpy(np.int64), k=10,
        )
    with timed("tumbling"):
        windows.tumbling_window(
            rd.read_parquet(os.path.join(SF_DIR, "events.parquet")), width_sec=300
        ).count()

    ray.shutdown()

    total = round(
        sum(times.values())
        - times.get("corpus_synth", 0.0)
        - times.get("pagerank_loop", 0.0),  # subset of "pagerank"
        3,
    )
    return {
        "metric": "raygraph headline pipelines (corpus→graph→pagerank@1e-6 + wcc/lpa/triangles + datapipes) wall sec",
        "value": total,
        "unit": "sec",
        "queries": times,
        "sf": os.path.basename(os.path.normpath(SF_DIR)),
        "num_cpus": NUM_CPUS,
        **extras,
    }


def run_rmat_pagerank() -> dict:
    """Scaling workload: PageRank iterations over a Graph500 RMAT graph.

    The reference's own nightly benchmark methodology (RMAT scales 23–30,
    edgefactor 16, a=.57 b=.19 c=.19, seed 42 —
    ``benchmarks/python_e2e/run_all_nightly_benches.sh``); scale chosen so
    per-worker compute dominates the per-superstep exchange overhead, which
    is what a 100 TB deployment looks like.  Graph built once, cached, and
    shared by both parallelism levels.
    """
    import ray

    scale = int(os.environ.get("GRAFT_RMAT_SCALE", "23"))
    edgefactor = int(os.environ.get("GRAFT_RMAT_EDGEFACTOR", "16"))
    iters = int(os.environ.get("GRAFT_RMAT_ITERS", "15"))
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from raygraph import generators
    from raygraph.graph import Graph
    from raygraph.superstep import SuperstepEngine
    from raygraph.algos.pagerank import _iteration

    gdir = f"/tmp/raygraph-bench/rmat{scale}x{edgefactor}"
    if not os.path.exists(os.path.join(gdir, "meta.json")):
        # build into a unique dir and rename atomically: two concurrent
        # bench processes must not interleave writes into one cache dir
        tmp = f"{gdir}.tmp-{os.getpid()}"
        edges = generators.rmat_dataset(scale=scale, edgefactor=edgefactor, seed=42)
        Graph.from_edges(
            edges, src="src", dst="dst", weight="weight",
            directed=True, renumber=False, num_partitions=32, out_dir=tmp,
        )
        try:
            os.rename(tmp, gdir)
        except OSError:
            pass  # another process won the race; use theirs
    g = Graph.load(gdir)
    eng = SuperstepEngine(g, num_workers=None)
    bytes_in_total = 0
    try:
        ray.get([w.pagerank_init.remote() for w in eng.workers])
        for _ in range(3):  # warm caches / routing tables
            _iteration(eng, 0.85, False, g.num_vertices)
        if eng.exchange_mode == "tree":  # zero combiner counters post-warmup
            ray.get([w.tree_bytes.remote(reset=True) for w in eng.workers])
        # pipelined (lag-1) rounds when per-worker compute covers the
        # dispatch latency (2M edges/worker gate, same as algos.pagerank)
        pipe = g.num_edges >= 2_000_000 * eng.W
        t0 = time.perf_counter()
        if pipe:
            prev = None
            for _ in range(iters):
                refs = eng.pagerank_round_async(0.85, False)
                if prev is not None:
                    bytes_in_total += sum(
                        u.get("bytes_in", 0) for u in ray.get(prev)
                    )
                prev = refs
            if prev is not None:
                bytes_in_total += sum(
                    u.get("bytes_in", 0) for u in ray.get(prev)
                )
        else:
            for _ in range(iters):
                upd = eng.pagerank_round(0.85, False)
                bytes_in_total += sum(u.get("bytes_in", 0) for u in upd)
        dt = time.perf_counter() - t0
        W = eng.W
        mode = eng.exchange_mode
        tree_stats = None
        if mode == "tree":
            tbs = ray.get([w.tree_bytes.remote() for w in eng.workers])
            tree_stats = {
                # intra-group = on-node plasma traffic on a real cluster;
                # inter_out = what actually crosses the network post-merge
                "tree_group_sizes": [len(m) for m in eng.groups],
                "tree_intra_bytes_per_worker_per_iter": round(
                    sum(t["intra_in"] for t in tbs) / iters / W),
                "tree_inter_bytes_per_worker_per_iter": round(
                    sum(t["inter_out"] for t in tbs) / iters / W),
            }
    finally:
        eng.shutdown()
    ray.shutdown()
    out_extra = tree_stats or {}
    return {
        **out_extra,
        "metric": "RMAT pagerank superstep throughput",
        "value": round(dt, 3),
        "unit": "sec",
        "rmat_scale": scale,
        "edgefactor": edgefactor,
        "iters": iters,
        "num_cpus": NUM_CPUS,
        "edges": g.num_edges,
        "iters_per_sec": round(iters / dt, 3),
        "edges_per_sec": round(g.num_edges * iters / dt, 1),
        "exchange_mode": mode,
        "workers": W,
        # bytes one worker deserializes per superstep — the cross-node
        # inbound volume a real cluster would pay per node (÷ workers/node)
        "bytes_in_per_worker_per_iter": round(bytes_in_total / iters / W),
    }


def _one_subproc(ncpu: int, extra_args=(), extra_env=None) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SF_DIR=SF_DIR)
    if extra_env:
        env.update(extra_env)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *extra_args],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_scaling():
    """Run the headline PageRank scaling workload at num_cpus=8 and 32 in
    fresh processes on the same cached input, plus the full sf pipeline at
    both levels for context; print ONE JSON line with the efficiencies.

    Methodology: this single VM has up to 4× run-to-run throughput variance
    (noisy neighbor), so the RMAT measurement runs REPEATS interleaved
    (8,32,8,32,…) and reports medians — one pair of runs is noise."""
    one = _one_subproc
    repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "3"))

    lo_cpus = int(os.environ.get("GRAFT_SCALING_LO", "8"))
    hi_cpus = int(os.environ.get("GRAFT_SCALING_HI", "32"))
    # warm the graph cache (untimed) so both levels measure compute+exchange
    one(hi_cpus, ["--rmat-pagerank"])
    lo_runs, hi_runs = [], []
    for _ in range(repeats):
        lo_runs.append(one(lo_cpus, ["--rmat-pagerank"]))
        hi_runs.append(one(hi_cpus, ["--rmat-pagerank"]))

    def median(xs):
        xs = sorted(xs)
        n = len(xs)
        return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])

    lo_med = median([r["edges_per_sec"] for r in lo_runs])
    hi_med = median([r["edges_per_sec"] for r in hi_runs])
    pr_eff = (hi_med / lo_med) / (hi_cpus / lo_cpus)

    lo = one(lo_cpus)
    hi = one(hi_cpus)
    pipe_eff = (lo["value"] / hi["value"]) / (hi_cpus / lo_cpus)
    print(
        json.dumps(
            {
                "metric": "scaling efficiency (same input, fresh ray.init at "
                          f"{lo_cpus} vs {hi_cpus} cpus; interleaved medians "
                          f"of {repeats} pairs)",
                "pagerank_rmat_scale": lo_runs[0]["rmat_scale"],
                "lo_cpus": lo_cpus,
                "hi_cpus": hi_cpus,
                f"pagerank_edges_per_sec_{lo_cpus}": lo_med,
                f"pagerank_edges_per_sec_{hi_cpus}": hi_med,
                f"pagerank_edges_per_sec_{lo_cpus}_runs": [r["edges_per_sec"] for r in lo_runs],
                f"pagerank_edges_per_sec_{hi_cpus}_runs": [r["edges_per_sec"] for r in hi_runs],
                "pagerank_scaling_efficiency": round(pr_eff, 3),
                f"pipeline_sec_{lo_cpus}": lo["value"],
                f"pipeline_sec_{hi_cpus}": hi["value"],
                "pipeline_scaling_efficiency": round(pipe_eff, 3),
                "scaling_efficiency": round(pr_eff, 3),
                "sf": os.path.basename(os.path.normpath(SF_DIR)),
            }
        )
    )


def run_exchange_bytes():
    """Packed vs sliced exchange: per-worker deserialized bytes per
    superstep on the RMAT workload — evidences the ~W× cross-node message
    volume reduction of the per-receiver layout (single-node wall times are
    reported for the overhead trade-off)."""
    one = _one_subproc
    one(NUM_CPUS, ["--rmat-pagerank"])  # warm graph cache
    packed = one(NUM_CPUS, ["--rmat-pagerank"], {"RAYGRAPH_EXCHANGE": "packed"})
    sliced = one(NUM_CPUS, ["--rmat-pagerank"], {"RAYGRAPH_EXCHANGE": "sliced"})
    tree = one(NUM_CPUS, ["--rmat-pagerank"], {"RAYGRAPH_EXCHANGE": "tree"})
    print(
        json.dumps(
            {
                "metric": "exchange layout: per-worker deserialized bytes per superstep",
                "rmat_scale": packed["rmat_scale"],
                "workers": packed["workers"],
                "packed_bytes_in_per_worker_per_iter": packed["bytes_in_per_worker_per_iter"],
                "sliced_bytes_in_per_worker_per_iter": sliced["bytes_in_per_worker_per_iter"],
                "reduction_factor": round(
                    packed["bytes_in_per_worker_per_iter"]
                    / max(1, sliced["bytes_in_per_worker_per_iter"]), 2,
                ),
                # tree = sliced scatter + per-group (≈per-node) combine:
                # receiver inbound drops further by the within-group
                # duplicate-dst factor; intra bytes stay on-node
                "tree_bytes_in_per_worker_per_iter": tree["bytes_in_per_worker_per_iter"],
                "tree_group_sizes": tree.get("tree_group_sizes"),
                "tree_intra_bytes_per_worker_per_iter": tree.get(
                    "tree_intra_bytes_per_worker_per_iter"),
                "tree_vs_sliced_reduction": round(
                    sliced["bytes_in_per_worker_per_iter"]
                    / max(1, tree["bytes_in_per_worker_per_iter"]), 2,
                ),
                "packed_edges_per_sec": packed["edges_per_sec"],
                "sliced_edges_per_sec": sliced["edges_per_sec"],
                "tree_edges_per_sec": tree["edges_per_sec"],
            }
        )
    )


def run_walk_bench():
    """10⁵ uniform walkers on two RMAT graphs 4× apart in |E|: with the
    walker-routing engine the per-step cost tracks the walker count, not
    the edge count (the r2 design re-shuffled the full edge list per hop,
    so its per-step cost scaled with E)."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import numpy as np

    from raygraph import generators
    from raygraph.graph import Graph
    from raygraph.algos.sampling import random_walks

    walkers = int(os.environ.get("GRAFT_WALKERS", "100000"))
    steps = int(os.environ.get("GRAFT_WALK_STEPS", "20"))
    out = {"metric": "random-walk per-step cost vs |E| (100k walkers)",
           "walkers": walkers, "steps": steps, "num_cpus": NUM_CPUS}
    for scale in (18, 20):
        gdir = f"/tmp/raygraph-bench/rmat{scale}x16"
        if not os.path.exists(os.path.join(gdir, "meta.json")):
            tmp = f"{gdir}.tmp-{os.getpid()}"
            edges = generators.rmat_dataset(scale=scale, edgefactor=16, seed=42)
            Graph.from_edges(edges, src="src", dst="dst", weight="weight",
                             directed=True, renumber=False,
                             num_partitions=32, out_dir=tmp)
            try:
                os.rename(tmp, gdir)
            except OSError:
                pass
        g = Graph.load(gdir)
        starts = np.arange(walkers, dtype=np.int64) % g.num_vertices
        ids = np.arange(walkers, dtype=np.int64)
        # drive the engine directly so setup (partition read + CSR sort —
        # a legitimate one-time O(E) cost) is reported separately from the
        # per-step walker-routing cost the claim is about
        from raygraph.superstep import SuperstepEngine

        eng = SuperstepEngine(g)
        try:
            t0 = time.perf_counter()
            ray.get([w.walk_build.remote() for w in eng.workers])
            ray.get([w.walk_init.remote(ids, starts, 42, None, None)
                     for w in eng.workers])
            setup = time.perf_counter() - t0
            for step in (1, 2):  # warm routing/caches
                eng._exchange("walk_step_scatter", "walk_step_update",
                              scatter_args=(step,))
            t0 = time.perf_counter()
            for step in range(3, 3 + steps):
                eng._exchange("walk_step_scatter", "walk_step_update",
                              scatter_args=(step,))
            dt = time.perf_counter() - t0
        finally:
            eng.shutdown()
        out[f"rmat{scale}_edges"] = g.num_edges
        out[f"rmat{scale}_setup_sec"] = round(setup, 3)
        out[f"rmat{scale}_step_loop_sec"] = round(dt, 3)
        out[f"rmat{scale}_sec_per_step"] = round(dt / steps, 4)
    out["per_step_ratio_4x_edges"] = round(
        out["rmat20_sec_per_step"] / out["rmat18_sec_per_step"], 3
    )
    ray.shutdown()
    print(json.dumps(out))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    elif "--exchange-bytes" in sys.argv:
        run_exchange_bytes()
    elif "--walk-bench" in sys.argv:
        run_walk_bench()
    elif "--rmat-pagerank" in sys.argv:
        print(json.dumps(run_rmat_pagerank()))
    else:
        print(json.dumps(run_bench()))
