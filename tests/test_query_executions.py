"""Per-call Ray Data executions of the warm small-graph queries.

Under the local gates a query's graph work runs on driver tables cached
on the Graph handle and on the in-driver engine, so a warm call should
run one Ray Data execution: the caller's own ``to_pandas()``."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

QUERY_MIX = ("pagerank", "katz", "core_number", "bfs", "sssp", "egonet",
             "triangles")


def _write_tables(out_dir, seed):
    """Seeded lineitem/events tables, a tenth of the sf0.01 shape."""
    rng = np.random.default_rng(seed)
    n = 6_000
    pq.write_table(pa.table({
        "l_orderkey": rng.integers(0, 1_500, n),
        "l_partkey": rng.integers(0, 200, n),
        "l_suppkey": rng.integers(0, 10, n),
    }), os.path.join(out_dir, "lineitem.parquet"))
    etypes = np.array(["click", "view", "purchase", "signup", "error"])
    n = 1_000
    pq.write_table(pa.table({
        "user_id": rng.integers(0, 15, n),
        "event_type": etypes[rng.integers(0, len(etypes), n)],
    }), os.path.join(out_dir, "events.parquet"))


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].round(9)
    return df


def test_warm_queries_run_one_execution(tmp_path, monkeypatch):
    """Each query-mix query, run twice: every warm call runs at most one
    Ray Data execution, and every call equals its DuckDB oracle."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from raygraph.pipelines import ORACLES, QUERIES

    _write_tables(str(tmp_path), seed=5)
    con = duckdb.connect()
    for t in ("lineitem", "events"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{tmp_path}/{t}.parquet')")

    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *a, **kw):
        runs.append(1)
        return execute(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    warm = {}
    for rep in range(2):
        for q in QUERY_MIX:
            runs.clear()
            got = _canon(QUERIES[q](str(tmp_path)).to_pandas())
            if rep:
                warm[q] = len(runs)
            want = _canon(con.sql(ORACLES[q]).df())
            pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                          check_exact=False, rtol=0,
                                          atol=1e-9, obj=q)
    assert all(n <= 1 for n in warm.values()), warm
