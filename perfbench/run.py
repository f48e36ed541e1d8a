"""Benchmark entry point.

    python3 perfbench/run.py --workload corpus-e2e --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  One run: wait until no Ray daemon is left,
set up ``SETUP_REPS`` times (Ray start, seeded inputs, a warm-up Ray Data
job; every set-up but the last is torn down again), then issue passes of the
workload's timed calls until ``--seconds`` of timed work is used, checking
every result.  The last stdout line is one JSON object: end-to-end metrics
with ``--trace 0``; with ``--trace 1``, per-layer metrics from one traced
pass that follows the workload's minimum number of untraced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

# derive.derive_edges hangs at num_cpus=1 (its import-extractor actor pool
# holds the only CPU), so the logical CPU count is fixed at 2.
NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 2**20
SETUP_REPS = 2
RUN_BUDGET_S = 165  # the run must end well inside 180 s
CALL_TIMEOUT_S = 100


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def unit_of(name: str) -> str:
    if name == "peak_mem_mb":
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")) or ".step_s." in name:
        return "s"
    return "bytes" if "bytes" in name else "count"


def patch_program(tracer, runner, traced: bool):
    """Time every PageRank superstep (``SuperstepEngine.pagerank_round``),
    also where ``algos.pagerank`` drives it.  Traced runs also wrap a few
    more entry points that the timed calls reach, as child spans."""
    from raygraph.graph import Graph
    from raygraph.superstep import SuperstepEngine

    def spanned(fn, name, after=None):
        def wrapper(*a, **k):
            with tracer.span(name) as sp:
                out = fn(*a, **k)
                if after is not None:
                    sp.set(**after(out))
            return out
        return wrapper

    round_ = spanned(SuperstepEngine.pagerank_round, "superstep.step")

    def pagerank_round(engine, *a, **k):
        t0 = time.perf_counter()
        stats = round_(engine, *a, **k)
        runner.steps.append((engine.graph.num_edges, time.perf_counter() - t0,
                             sum(s["rows_out"] for s in stats),
                             sum(s["bytes_in"] for s in stats)))
        return stats

    SuperstepEngine.pagerank_round = pagerank_round
    if not traced:
        return
    SuperstepEngine.__init__ = spanned(SuperstepEngine.__init__, "superstep.spinup")
    SuperstepEngine.result_dataset = spanned(
        SuperstepEngine.result_dataset, "superstep.result_write")
    Graph.from_edges = staticmethod(spanned(
        Graph.from_edges, "graph.from_edges",
        lambda g: {"vertices": g.num_vertices, "edges": g.num_edges}))


def warmup():
    import ray.data as rd

    rd.range(4096, override_num_blocks=4).map_batches(
        lambda t: t, batch_format="pyarrow").sum("id")


def step_counts(steps) -> dict:
    from perfbench.harness import median

    return {
        "superstep.steps": len(steps),
        "superstep.rows_out_per_step": median([s[2] for s in steps]),
        "superstep.bytes_in_per_step": median([s[3] for s in steps]),
    }


def layer_metrics(spans, first_pass_span, res, overhead, queries) -> dict:
    """Per-layer figures of the traced pass (set-up figures: median over
    the set-ups).  Layers a workload does not reach read 0."""
    from perfbench.harness import median

    setup, spans = spans[:first_pass_span], spans[first_pass_span:]

    def dur(s):
        return s["end"] - s["start"]

    def each(name, pool):
        return [s for s in pool if s["name"] == name]

    def total(name):
        return sum(dur(s) for s in each(name, spans))

    def setup_self(name):
        return median([dur(s) - sum(dur(c) for c in setup if c["parent"] == s["id"])
                       for s in each(name, setup)])

    built = each("graph.from_edges", spans)
    if each("graph.build", spans):
        build_s = total("graph.build")
    elif built:
        build_s = total("graph.from_edges")
    else:
        build_s = median([dur(s) for s in each("graph.build", setup)])
    step_s = [s[1] for s in res["steps"]]
    m = {
        "ray.init_s": setup_self("ray.init"),
        "input.gen_s": setup_self("input.gen"),
        "ingest.s": total("ingest.ingest"),
        "ingest.rows": res.get("ingest.rows", 0),
        "graph.build_s": build_s,
        "graph.vertices": res.get("graph.vertices",
                                  sum(s["vertices"] for s in built)),
        "graph.edges": res.get("graph.edges", sum(s["edges"] for s in built)),
        "superstep.spinup_s": total("superstep.spinup"),
        "superstep.step_s.p50": median(step_s),
        "superstep.step_s.max": max(step_s, default=0.0),
        "superstep.steps": res["superstep.steps"],
        "superstep.rows_out_per_step": res["superstep.rows_out_per_step"],
        "superstep.bytes_in_per_step": res["superstep.bytes_in_per_step"],
        "superstep.result_write_s": total("superstep.result_write"),
        "algos.pagerank_s": total("algos.pagerank"),
        "algos.pagerank_iters": res.get("algos.pagerank_iters", 0),
        # graph edges over the median PageRank superstep time
        "algos.pagerank_edges_per_s": median([e / t for e, t, _, _ in res["steps"]]),
        "algos.wcc_s": total("algos.wcc"),
        "algos.lpa_s": total("algos.lpa"),
        "algos.triangles_s": total("algos.triangles"),
        "lineage.checkpoint_bytes": res.get("lineage.checkpoint_bytes", 0),
        "lineage.records": res.get("lineage.records", 0),
        "trace.overhead_s": overhead,
    }
    for q in queries:
        m[f"pipelines.{q}_s"] = total(f"pipelines.{q}")
    return m


def check_counts(path: str, passes: list[dict]) -> list[str]:
    """Exact counts must repeat across the passes of this run and across
    runs with the same workload and seed (remembered in ``path``)."""
    merged: dict = {}
    flags = []
    for res in passes:
        for k, v in res.items():
            if k == "steps":
                continue
            if k in merged and merged[k] != v:
                flags.append(f"{k}: {merged[k]} then {v} within the run")
            merged.setdefault(k, v)
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        flags += [f"{k}: {before[k]} in an earlier run, now {v}"
                  for k, v in merged.items() if k in before and before[k] != v]
        merged = {**before, **merged}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
    return flags


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.monotonic()
    # a terminated run still shuts Ray down and removes its run directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)  # Ray workers import the program from the driver's cwd
    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns() % 10**9}"
    run_dir = os.path.join(WORK, "runs", run_id)
    # everything the program writes through tempfile lands in the run dir
    os.makedirs(os.path.join(run_dir, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(run_dir, "tmp")
    tempfile.tempdir = None

    sys.path.insert(0, ROOT)
    try:
        from perfbench import harness
        from perfbench.workloads import QUERY_MIX, WORKLOADS, ensure_importable

        ensure_importable(ROOT)
    except ImportError as e:
        print(f"perfbench: the program is not importable here: {e}", file=sys.stderr)
        shutil.rmtree(WORK, ignore_errors=True)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    median = harness.median

    tracer = harness.Tracer(run_id)
    tracer.enabled = bool(args.trace)
    mem = harness.MemSampler()
    runner = harness.Runner(tracer, mem, t_start + RUN_BUDGET_S, CALL_TIMEOUT_S)
    wl = WORKLOADS[args.workload](runner, tracer, args.seed)
    patch_program(tracer, runner, bool(args.trace))
    ray_tmp = harness.ray_temp_dir(WORK)

    setup_s, walls, passes = [], [], []
    first_pass_span = 0
    try:
        harness.wait_ray_gone()
        print(f"perfbench: started after {time.monotonic() - t_start:.1f}s", file=sys.stderr)
        for rep in range(SETUP_REPS):
            data_dir = os.path.join(run_dir, f"data{rep}")
            if rep:
                harness.stop_ray(ray_tmp)
                shutil.rmtree(os.path.join(run_dir, f"data{rep - 1}"))
            t0 = time.perf_counter()
            with tracer.span("setup"):
                with tracer.span("ray.init"):
                    harness.start_ray(NUM_CPUS, OBJECT_STORE_BYTES, ray_tmp)
                with tracer.span("input.gen"):
                    wl.setup(data_dir)
                with tracer.span("warmup"):
                    warmup()
            setup_s.append(time.perf_counter() - t0)
            print(f"perfbench: set-up {rep} {setup_s[-1]:.1f}s "
                  f"at {time.monotonic() - t_start:.1f}s", file=sys.stderr)

        traced = False  # set for the one traced pass of a --trace 1 run
        while True:
            k = len(passes)
            tracer.enabled = traced
            first_pass_span = len(tracer.spans)
            runner.new_pass()
            t_pass = time.monotonic()
            pass_dir = os.path.join(run_dir, f"pass{k}")
            try:
                with tracer.span("pass"):
                    res = wl.run_pass(pass_dir)
            finally:
                walls.append(runner.pass_wall)
                shutil.rmtree(pass_dir, ignore_errors=True)
            passes.append({**res, **step_counts(runner.steps), "steps": runner.steps})
            real = time.monotonic() - t_pass
            print(f"perfbench: pass {k} timed {walls[-1]:.3f}s of {real:.1f}s: "
                  + " ".join(f"{n}={t:.3f}" for n, t in runner.calls.items()),
                  file=sys.stderr)
            if traced or runner.remaining() < 1.5 * real + 10:
                break
            if len(passes) < wl.MIN_PASSES:
                continue
            if args.trace:
                traced = True  # one traced pass follows the untraced ones
            elif sum(walls) + walls[-1] > args.seconds:
                break
    except harness.CallFailed:
        pass
    finally:
        tracer.enabled = False
        t_stop = time.monotonic()
        harness.stop_ray(ray_tmp)
        mem.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        print(f"perfbench: teardown {time.monotonic() - t_stop:.1f}s, "
              f"run {time.monotonic() - t_start:.1f}s", file=sys.stderr)

    for f in runner.failures:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    flags = check_counts(
        os.path.join(WORK, "counts", f"{args.workload}-seed{args.seed}.json"),
        passes)
    for f in flags:
        print(f"perfbench: COUNT NOT EXACT {f}", file=sys.stderr)

    if args.trace:
        tracer.write_jsonl(os.path.join(WORK, "traces", f"{run_id}.jsonl"))
        done = traced and len(passes) == len(walls)
        values = layer_metrics(
            tracer.spans, first_pass_span if done else len(tracer.spans),
            passes[-1] if passes else step_counts([]) | {"steps": []},
            walls[-1] - median(walls[:-1]) if done else 0.0, QUERY_MIX)
    else:
        values = {
            "setup_s": median(setup_s),
            "wall_s": median(walls),
            "peak_mem_mb": mem.peak / 2**20,
        }
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    print(f"perfbench {args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={runner.attempted} failed={runner.failed} "
          f"failed_frac={runner.failed / max(1, runner.attempted):.4f} "
          f"count_flags={len(flags)} "
          + " ".join(f"{k}={m['value']:.6g}{m['unit']}" for k, m in metrics.items()))
    print(json.dumps({
        "correct": runner.failed == 0 and bool(passes),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
