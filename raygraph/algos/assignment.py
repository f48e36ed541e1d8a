"""Linear assignment (Hungarian) — dense solver, graph wrapper, and the
batched Ray-native scale path.

Reference semantics: ``python/cugraph/cugraph/linear_assignment/lap.py``
(``hungarian(G, workers)`` over a weighted bipartite edge list and
``dense_hungarian(costs, num_rows, num_columns)``), backed by raft's LAP.

A single assignment problem is inherently a dense small-side solve (the
reference holds the full n×m cost matrix on one GPU); the Ray-native
scale story is BATCHING — ``batched_dense_hungarian`` solves many
independent LAPs in parallel via a bucketed group shuffle, one in-task
dense solve per problem (the 100 TB shape: millions of small matching
problems, e.g. per-session or per-repo alignment)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd


def _lap_solve(C: np.ndarray):
    """O(n²m) shortest-augmenting-path LAP (Jonker-Volgenant style
    potentials) for an n×m cost matrix, n ≤ m.  Returns (cost, col_of_row:
    int64[n]).  Minimization; deterministic (ties resolve to the lowest
    column index via argmin)."""
    n, m = C.shape
    assert n <= m
    INF = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.int64)  # p[j]: row (1-based) matched to col j
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, INF)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            # vectorized relaxation of all unused columns from row i0
            cur = C[i0 - 1, :] - u[i0] - v[1:]
            unused = ~used[1:]
            better = unused & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            cols = np.flatnonzero(unused)
            j1 = int(cols[np.argmin(minv[1:][unused])]) + 1
            delta = minv[j1]
            # dual update over visited/unvisited columns
            uj = np.flatnonzero(used)
            u[p[uj]] += delta
            v[uj] -= delta
            minv[1:][unused] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:  # augment along the alternating path
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of_row = np.zeros(n, dtype=np.int64)
    for j in range(1, m + 1):
        if p[j] > 0:
            col_of_row[p[j] - 1] = j - 1
    cost = float(C[np.arange(n), col_of_row].sum())
    return cost, col_of_row


def dense_hungarian(costs, num_rows: int, num_columns: int,
                    epsilon: Optional[float] = None):
    """Minimum-cost assignment of a dense row-major cost array
    (``lap.py:90-140``).  Returns (cost, assignment int64[num_rows]) —
    assignment[i] = column assigned to row i."""
    C = np.asarray(costs, dtype=np.float64).reshape(num_rows, num_columns)
    if num_rows <= num_columns:
        return _lap_solve(C)
    # more workers than jobs: solve the transpose, invert the matching;
    # unassigned rows get -1
    cost, row_of_col = _lap_solve(C.T)
    assignment = np.full(num_rows, -1, dtype=np.int64)
    assignment[row_of_col] = np.arange(num_columns)
    return cost, assignment


def hungarian(graph, workers: Sequence[int], epsilon: Optional[float] = None,
              num_buckets: int = 32):
    """Minimum-cost matching of a weighted bipartite graph
    (``lap.py:18-88``): ``workers`` is one side's vertex ids; jobs are
    every vertex reachable from a worker.  Returns (cost, DataFrame
    (vertex, assignment)) with one job per worker.

    Scale shape: only edges INCIDENT TO WORKERS come to the driver (the
    worker set is small by contract — the dense matrix is n_workers ×
    n_jobs); the edge scan is a streaming broadcast-filter, never a
    materialization of the full edge list."""
    import ray

    wset = np.unique(np.asarray(list(workers), dtype=np.int64))
    wref = ray.put(wset)

    def incident(df: pd.DataFrame) -> pd.DataFrame:
        ws = ray.get(wref)
        m = np.isin(df["src"].to_numpy(np.int64), ws)
        return df.loc[m, ["src", "dst", "weight"]]

    edges = (
        graph.edges_dataset(columns=["src", "dst", "weight"])
        .map_batches(incident, batch_format="pandas")
        .to_pandas()  # bounded: Σ deg(workers)
    )
    edges = edges[~edges["dst"].isin(wset)]
    if not len(edges):
        raise ValueError("hungarian: no worker→job edges")
    jobs = np.unique(edges["dst"].to_numpy(np.int64))
    wi = {int(v): i for i, v in enumerate(wset)}
    ji = {int(v): i for i, v in enumerate(jobs)}
    big = float(edges["weight"].max()) * (len(wset) + len(jobs)) + 1.0
    C = np.full((len(wset), len(jobs)), big)
    C[
        edges["src"].map(wi).to_numpy(np.int64),
        edges["dst"].map(ji).to_numpy(np.int64),
    ] = edges["weight"].to_numpy(np.float64)
    cost, assign = dense_hungarian(C, len(wset), len(jobs))
    out = pd.DataFrame(
        {"vertex": wset,
         "assignment": np.where(assign >= 0, jobs[np.maximum(assign, 0)], -1)}
    )
    return cost, out


def batched_dense_hungarian(ds, group_col: str = "problem",
                            row_col: str = "row", col_col: str = "col",
                            cost_col: str = "cost",
                            num_buckets: int = 32):
    """Solve MANY independent assignment problems in one bucketed group
    shuffle: ``ds`` rows are (problem, row, col, cost) triplets; returns
    Dataset (problem, row, col, cost) — the chosen matching per problem.

    Partitioning assumption: one problem's rows fit one task (the dense
    per-problem solve); problems are distributed by hash bucket."""
    from raygraph.joins import bucket_exchange

    def solve_bucket(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for gid, gdf in df.groupby(group_col, sort=True):
            rows = np.unique(gdf[row_col].to_numpy(np.int64))
            cols = np.unique(gdf[col_col].to_numpy(np.int64))
            ri = {int(v): i for i, v in enumerate(rows)}
            ci = {int(v): i for i, v in enumerate(cols)}
            big = float(gdf[cost_col].max()) * (len(rows) + len(cols)) + 1.0
            C = np.full((len(rows), len(cols)), big)
            C[gdf[row_col].map(ri).to_numpy(np.int64),
              gdf[col_col].map(ci).to_numpy(np.int64)] = (
                gdf[cost_col].to_numpy(np.float64)
            )
            _, assign = dense_hungarian(C, len(rows), len(cols))
            ok = assign >= 0
            outs.append(pd.DataFrame(
                {group_col: gid, row_col: rows[ok],
                 col_col: cols[assign[ok]],
                 cost_col: C[np.flatnonzero(ok), assign[ok]]}
            ))
        if not outs:
            return pd.DataFrame(
                {group_col: pd.Series(dtype=np.int64),
                 row_col: pd.Series(dtype=np.int64),
                 col_col: pd.Series(dtype=np.int64),
                 cost_col: pd.Series(dtype=np.float64)}
            )
        return pd.concat(outs, ignore_index=True)

    return bucket_exchange(ds, [group_col], solve_bucket, num_buckets,
                           batch_format="pandas")
