"""Stats-lineage control for loop-carried Datasets.

Ray Data walks a Dataset's stats-parent chain recursively on EVERY
execution: ``streaming_executor.py`` calls ``stats.to_summary()``
unconditionally when an execution finishes, and ``plan.py`` calls it
again for auto-log-stats.  ``DatasetStats.to_summary`` recurses over
``self.parents`` with no memoization, so a join/union diamond (two
inputs deriving from the same upstream dataset) doubles the walk.  An
iterative algorithm that materializes per round and feeds the result
into the next round's joins compounds one-or-more diamonds per round,
making the walk O(2^rounds) — observed as a driver-side hang (100% CPU
inside ``stats.py::to_summary``) around round ~25 of k-truss peeling on
a 105-vertex graph.

``cut_stats_lineage`` truncates the stats-parent chain of an
already-materialized Dataset so each round's stats walk starts fresh.
Only cross-round timing detail in ``ds.stats()`` is lost; blocks,
schema and data lineage (for fault-tolerant re-execution the blocks are
already pinned) are untouched.  Call it on every Dataset that is
carried across iterations of a driver loop, right after its
``materialize()``.
"""


_STATS_ATTRS = ("_in_stats", "_snapshot_stats")
_WARNED = False
_CHECKED = False


def _warn_internals_moved(detail: str):
    global _WARNED
    if _WARNED:
        return
    _WARNED = True
    import warnings

    warnings.warn(
        f"cut_stats_lineage: Ray Data internals changed ({detail}); "
        "stats-parent chains are no longer truncated — iterative pipelines "
        "may regress to an O(2^rounds) driver stats walk.",
        RuntimeWarning,
        stacklevel=3,  # the caller of check_ray_internals/cut_stats_lineage
    )


def check_ray_internals():
    """Warn at start-up, once per process, if Ray's execution plan no
    longer carries the attributes :func:`cut_stats_lineage` empties.

    Builds a bare plan: no Dataset, no execution, no cluster call, so
    ``SuperstepEngine`` construction pays nothing measurable for it."""
    global _CHECKED
    if _CHECKED:
        return
    _CHECKED = True
    try:
        from ray.data import DataContext
        from ray.data._internal.plan import ExecutionPlan

        plan = ExecutionPlan(None, DataContext.get_current())
        missing = [a for a in _STATS_ATTRS if not hasattr(plan, a)]
    except (ImportError, TypeError) as e:  # the plan class itself moved
        missing = [f"ExecutionPlan: {e!r}"]
    if missing:
        _warn_internals_moved(f"missing {', '.join(missing)}")


def cut_stats_lineage(ds):
    """Empty the stats-parent lists of ``ds`` (idempotent, best-effort).

    Returns ``ds`` so it can wrap a ``materialize()`` call inline.  If
    Ray's internals move, the worst case is the walk stays deep — never
    an error — but we warn ONCE so a Ray upgrade surfaces the regression
    (silent fail-open would quietly reintroduce the O(2^rounds) hang);
    :func:`check_ray_internals` warns already when an engine starts.
    """
    try:
        plan = ds._plan
        for stats in (getattr(plan, a) for a in _STATS_ATTRS):
            if stats is not None and getattr(stats, "parents", None):
                stats.parents = []
    except Exception:
        _warn_internals_moved("_plan._in_stats/_snapshot_stats missing")
    return ds
