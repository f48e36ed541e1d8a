"""Stats-lineage cutting for loop-carried Datasets (raygraph/lineage.py).

Regression cover for the k-truss driver hang: Ray Data recursively walks
a dataset's stats-parent DAG on every execution with no memoization, so
join/union diamonds compounding across peel rounds made the walk
O(2^rounds).  ``cut_stats_lineage`` truncates the chain after each
round's ``materialize()``.
"""

import numpy as np
import pandas as pd
import pytest


def _stats_depth(stats, limit=10_000):
    """Number of stats nodes reachable by the same unmemoized walk Ray's
    ``to_summary`` does (capped so a regression can't hang the test)."""
    n = 0
    stack = [stats]
    while stack:
        node = stack.pop()
        n += 1
        if n > limit:
            return n
        stack.extend(getattr(node, "parents", None) or [])
    return n


def test_cut_stats_lineage_truncates_parents(ray_session):
    import ray.data as rd

    from raygraph.lineage import cut_stats_lineage

    ds = rd.from_pandas(pd.DataFrame({"x": np.arange(32)})).materialize()
    # build a few union diamonds: both branches derive from the same ds
    for _ in range(3):
        a = ds.map_batches(lambda df: df, batch_format="pandas")
        b = ds.map_batches(lambda df: df, batch_format="pandas")
        ds = a.union(b).materialize()
    assert _stats_depth(ds._plan.stats()) > 1
    out = cut_stats_lineage(ds)
    assert out is ds  # returns its argument for inline wrapping
    assert _stats_depth(ds._plan.stats()) == 1
    # idempotent and harmless on a freshly-cut dataset
    cut_stats_lineage(ds)
    assert ds.count() == 32 * 2 ** 3  # blocks untouched


def test_cut_stats_lineage_bounds_iterative_walk(ray_session):
    """A materialize-per-round loop with a self-join diamond stays cheap:
    with the cut each round's stats walk is O(1); without it the walk
    grows geometrically (this is the k-truss hang shape)."""
    import ray.data as rd

    from raygraph.lineage import cut_stats_lineage

    ds = rd.from_pandas(pd.DataFrame({"x": np.arange(16)})).materialize()
    for _ in range(12):
        a = ds.map_batches(lambda df: df, batch_format="pandas")
        b = ds.map_batches(lambda df: df.head(0), batch_format="pandas")
        ds = cut_stats_lineage(a.union(b).materialize())
    assert _stats_depth(ds._plan.stats()) <= 2
    assert ds.count() == 16


def test_cut_stats_lineage_best_effort_on_non_dataset():
    from raygraph.lineage import cut_stats_lineage

    sentinel = object()
    assert cut_stats_lineage(sentinel) is sentinel  # never raises


def test_engine_start_checks_ray_internals_once(monkeypatch, tmp_path):
    """SuperstepEngine checks, once per process and without a Ray Data
    execution, that Ray's plan still carries the attributes
    cut_stats_lineage empties, and warns at construction if one moved."""
    import warnings

    import pyarrow as pa
    import ray.data as rd
    from ray.data._internal.plan import ExecutionPlan

    from raygraph import lineage
    from raygraph.graph import Graph
    from raygraph.superstep import SuperstepEngine

    g = Graph.from_edges(
        rd.from_arrow(pa.table({"src_key": ["a", "b"], "dst_key": ["b", "c"],
                                "weight": [1.0, 1.0]})),
        num_partitions=2, out_dir=str(tmp_path / "g"))

    def no_execution(*a, **k):
        raise AssertionError("the start-up check ran a Ray Data execution")

    monkeypatch.setattr(ExecutionPlan, "execute", no_execution)
    monkeypatch.setattr(ExecutionPlan, "execute_to_iterator", no_execution)
    monkeypatch.setattr(lineage, "_WARNED", False)
    monkeypatch.setattr(lineage, "_CHECKED", False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lineage.check_ray_internals()  # the real Ray: silent

    init = ExecutionPlan.__init__

    def init_without_snapshot_stats(self, *a, **k):
        init(self, *a, **k)
        del self._snapshot_stats

    monkeypatch.setattr(ExecutionPlan, "__init__", init_without_snapshot_stats)
    monkeypatch.setattr(lineage, "_CHECKED", False)
    with pytest.warns(RuntimeWarning, match="_snapshot_stats"):
        SuperstepEngine(g, executor="driver").shutdown()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        SuperstepEngine(g, executor="driver").shutdown()  # once per process
