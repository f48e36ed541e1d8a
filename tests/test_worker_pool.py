"""Warm PartitionWorker pool: engines reuse idle worker processes.

``SuperstepEngine.shutdown`` returns its workers to a per-session idle
pool and the next engine reloads them in place.  These tests pin the
contract: reuse never changes a result, a worker that died while idle is
replaced without caller action, and pooled workers reserve no CPUs.
"""

import time

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from raygraph import superstep
from raygraph.algos import (
    label_propagation,
    pagerank,
    weakly_connected_components,
)
from raygraph.algos.traversal import bfs
from raygraph.graph import Graph
from raygraph.superstep import SuperstepEngine

from tests import fixtures, oracles


def build(df, directed, tmp_path, name, num_partitions=4):
    return Graph.from_edges(
        rd.from_pandas(df),
        src="src", dst="dst", weight="weight",
        directed=directed, renumber=False,
        num_partitions=num_partitions,
        out_dir=str(tmp_path / name),
    )


def sorted_df(ds):
    return ds.to_pandas().sort_values("vertex").reset_index(drop=True)


def random_df(V, E, seed):
    rng = np.random.RandomState(seed)
    src = rng.randint(0, V, E)
    dst = rng.randint(0, V, E)
    keep = src != dst
    df = pd.DataFrame({"src": src[keep], "dst": dst[keep],
                       "weight": np.ones(keep.sum())})
    return df.drop_duplicates(["src", "dst"]).reset_index(drop=True)


def cluster_cpus() -> int:
    return int(ray.cluster_resources()["CPU"])


def test_pool_reuse_does_not_change_results(tmp_path, monkeypatch):
    actors = []  # one entry per engine: the actor ids it runs on
    init = SuperstepEngine.__init__

    def spy(self, *a, **kw):
        init(self, *a, **kw)
        actors.append({w._actor_id for w in self.workers})

    monkeypatch.setattr(SuperstepEngine, "__init__", spy)
    pool_sizes = []

    def on_a():
        out = (
            sorted_df(pagerank(ga, tol=1e-10, max_iter=500, num_workers=4)),
            sorted_df(weakly_connected_components(ga, num_workers=4)),
            sorted_df(label_propagation(ga, max_iter=10, num_workers=4)),
        )
        pool_sizes.append(len(superstep._idle_workers()))
        return out

    ga = build(fixtures.karate_df(), False, tmp_path, "a")
    df_b = random_df(50, 150, 3)
    gb = build(df_b, True, tmp_path, "b", num_partitions=3)
    assert (gb.num_vertices, gb.num_partitions) != (
        ga.num_vertices, ga.num_partitions)

    first = on_a()
    n_first = len(actors)

    monkeypatch.setenv("RAYGRAPH_WIDE_KEYS", "1")
    b_engine = sorted_df(bfs(gb, 0, num_workers=2))
    monkeypatch.delenv("RAYGRAPH_WIDE_KEYS")
    pool_sizes.append(len(superstep._idle_workers()))
    b_local = sorted_df(bfs(gb, 0))
    # a worker last loaded with A must not carry A's scatter layout to B
    pr_b = sorted_df(pagerank(gb, tol=1e-10, max_iter=500, num_workers=2))
    # more workers than CPUs: the surplus must not stay idle
    SuperstepEngine(gb, num_workers=cluster_cpus() + 2).shutdown()
    pool_sizes.append(len(superstep._idle_workers()))
    seen = set().union(*actors)
    n_before = len(actors)

    second = on_a()

    for x, y in zip(first, second):
        pd.testing.assert_frame_equal(x, y)
    pd.testing.assert_frame_equal(b_engine, b_local)
    want_b = oracles.ref_pagerank(
        (df_b["src"].to_numpy(), df_b["dst"].to_numpy(),
         df_b["weight"].to_numpy()),
        gb.num_vertices, tol=1e-10, max_iter=500,
    )
    assert np.allclose(pr_b["pagerank"].to_numpy(), want_b, atol=1e-8)
    # the second round on A spawned no process
    assert len(actors) == n_before + n_first
    assert all(a <= seen for a in actors[n_before:])
    assert max(pool_sizes) <= cluster_cpus()


def test_dead_idle_worker_is_replaced(tmp_path):
    g = build(fixtures.karate_df(), False, tmp_path, "k")
    SuperstepEngine(g, num_workers=2).shutdown()
    idle = superstep._idle_workers()
    victim = idle[-1]  # the next engine takes it first
    ray.kill(victim)

    got = sorted_df(pagerank(g, tol=1e-8, max_iter=300, num_workers=4))
    want = oracles.ref_pagerank(
        fixtures.karate_sym_arrays(), fixtures.KARATE_V,
        tol=1e-8, max_iter=300,
    )
    assert np.allclose(got["pagerank"].to_numpy(), want, atol=1e-6)
    assert victim._actor_id not in {
        w._actor_id for w in superstep._idle_workers()}


def test_pool_holds_no_cpus(tmp_path):
    g = build(fixtures.karate_df(), False, tmp_path, "k")
    cpus = cluster_cpus()
    eng = SuperstepEngine(g, num_workers=cpus)
    eng._keep_alive = True
    try:
        # resource reports are eventually consistent: give finished tasks
        # of earlier tests a moment to hand their CPUs back
        deadline = time.monotonic() + 30
        while (ray.available_resources().get("CPU", 0) < cpus
               and time.monotonic() < deadline):
            time.sleep(0.2)
        assert ray.available_resources().get("CPU", 0) == cpus
        # a Dataset job runs while a pool of W = cluster CPUs is alive
        ds = rd.range(1000, override_num_blocks=4).map_batches(
            lambda b: {"id": b["id"] * 2}).materialize()
        assert ds.sum("id") == 999 * 1000
    finally:
        eng._keep_alive = False
        eng.shutdown()
