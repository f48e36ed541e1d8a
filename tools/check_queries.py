"""Local stand-in for the driver's correctness harness.

Runs every ``queries()`` entry at the given sf dir, compares row count,
column names and order-insensitive values against ``oracle_sql()`` via
DuckDB.  Usage: python tools/check_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np
import pandas as pd


TABLES = (
    "region nation customer supplier part orders lineitem events documents "
    "embeddings"
).split()


def to_pandas(res):
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(res, rd.Dataset):
            return res.to_pandas()
    except Exception:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].round(9)
    return df


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    # the workers import raygraph too, from whatever directory this runs in
    pypath = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH"))
                             if p)
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR",
             runtime_env={"env_vars": {"PYTHONPATH": pypath}})
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = []
    results = {}  # name -> record ($CHECK_OUT json artifact)
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            failures.append(name)
            results[name] = {"status": "fail",
                             "err": f"{type(e).__name__}: {e}"}
            print(f"[FAIL] {name}: query raised {type(e).__name__}: {e}")
            continue
        dt = time.perf_counter() - t0
        if name not in oracles:
            results[name] = {"status": "rows_only", "rows": len(got),
                             "sec": round(dt, 1)}
            print(f"[rows-only] {name}: {len(got)} rows in {dt:.1f}s")
            continue
        want = canon(con.sql(oracles[name]).df())
        ok_rows = len(got) == len(want)
        ok_cols = list(got.columns) == list(want.columns)
        ok_vals = False
        if ok_rows and ok_cols:
            try:
                pd.testing.assert_frame_equal(
                    got, want, check_dtype=False, check_exact=False, rtol=0, atol=1e-9
                )
                ok_vals = True
            except AssertionError as e:
                msg = str(e).splitlines()[0]
        if ok_rows and ok_cols and ok_vals:
            results[name] = {"status": "ok", "rows": len(got),
                             "sec": round(dt, 1)}
            print(f"[OK]   {name}: {len(got)} rows in {dt:.1f}s")
        else:
            failures.append(name)
            results[name] = {"status": "fail", "rows": len(got),
                             "oracle_rows": len(want)}
            print(
                f"[FAIL] {name}: rows {len(got)} vs {len(want)}; "
                f"cols {list(got.columns)} vs {list(want.columns)}"
            )
            if ok_rows and ok_cols:
                print("       value mismatch:", msg)
                merged = got.compare(want) if got.shape == want.shape else None
                if merged is not None and len(merged):
                    print(merged.head(5))
    ray.shutdown()
    out_path = os.environ.get("CHECK_OUT")
    if out_path:
        import json

        with open(out_path, "w") as f:
            json.dump({"sf_dir": sf_dir,
                       "n_ok": sum(r.get("status") == "ok"
                                   for r in results.values()),
                       "n_rows_only": sum(r.get("status") == "rows_only"
                                          for r in results.values()),
                       "n_fail": len(failures),
                       "queries": results}, f, indent=1, sort_keys=True)
    if failures:
        print("FAILURES:", failures)
        sys.exit(1)
    print("all checked queries OK")


if __name__ == "__main__":
    main()
