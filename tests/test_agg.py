"""hash_aggregate / distinct / bucketed_map_groups vs pandas ground truth."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from raygraph.agg import (
    bucketed_map_groups,
    distinct,
    grouped_topk,
    hash_aggregate,
    hash_argmin,
)


def _df(n=10_000, seed=3, nulls=False):
    rng = np.random.RandomState(seed)
    df = pd.DataFrame(
        {
            "k1": rng.randint(0, 50, n),
            "k2": rng.choice(["a", "b", "c", "d"], n),
            "v": rng.uniform(0, 10, n),
        }
    )
    if nulls:
        # null keys in both key columns: every 7th k1, every 11th k2
        df["k1"] = df["k1"].astype("float64")
        df.loc[::7, "k1"] = np.nan
        df.loc[::11, "k2"] = None
    return df


def test_hash_aggregate_matches_pandas():
    for nulls in (False, True):
        _check_hash_aggregate(_df(nulls=nulls))


def _check_hash_aggregate(df):
    # pandas groupby drops rows with a null key; so does hash_aggregate
    out = (
        hash_aggregate(
            rd.from_pandas(df),
            ["k1", "k2"],
            {"n": (None, "count"), "s": ("v", "sum"), "mn": ("v", "min"),
             "mx": ("v", "max")},
        )
        .to_pandas()
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    want = (
        df.groupby(["k1", "k2"], as_index=False)
        .agg(n=("v", "size"), s=("v", "sum"), mn=("v", "min"), mx=("v", "max"))
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    assert np.array_equal(out["n"].to_numpy(), want["n"].to_numpy())
    assert np.allclose(out["s"].to_numpy(), want["s"].to_numpy())
    assert np.allclose(out["mn"].to_numpy(), want["mn"].to_numpy())
    assert np.allclose(out["mx"].to_numpy(), want["mx"].to_numpy())


def test_distinct():
    for nulls in (False, True):
        df = _df(5000, nulls=nulls)
        out = distinct(rd.from_pandas(df), ["k1"]).to_pandas()
        assert sorted(out["k1"]) == sorted(df["k1"].dropna().unique())


def test_min_on_strings():
    df = pd.DataFrame({"g": [1, 1, 2], "s": ["zebra", "apple", "kiwi"]})
    out = hash_aggregate(rd.from_pandas(df), ["g"], {"m": ("s", "min")}).to_pandas()
    m = out.set_index("g")["m"]
    assert m[1] == "apple" and m[2] == "kiwi"


def test_bucketed_map_groups_sees_complete_groups():
    df = _df(4000)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k1": [g["k1"].iloc[0]], "total": [g["v"].sum()]})

    out = bucketed_map_groups(rd.from_pandas(df), ["k1"], fn).to_pandas()
    want = df.groupby("k1")["v"].sum()
    assert len(out) == len(want)
    m = out.set_index("k1")["total"]
    for k, v in want.items():
        assert abs(m[k] - v) < 1e-9


def test_grouped_topk_matches_pandas():
    for nulls in (False, True):
        _check_grouped_topk(_df(6000, nulls=nulls))


def _check_grouped_topk(df):
    # pandas groupby().head() drops rows with a null key; so does topk
    df["rid"] = np.arange(len(df))  # total-order tiebreak
    out = grouped_topk(
        rd.from_pandas(df), ["k1"], ["v", "rid"], k=3
    ).to_pandas()
    want = (
        df.sort_values(["k1", "v", "rid"], ascending=[True, False, False])
        .groupby("k1", sort=False)
        .head(3)
    )
    key = ["k1", "rid"]
    a = out.sort_values(key).reset_index(drop=True)
    b = want.sort_values(key).reset_index(drop=True)[a.columns]
    assert a.equals(b)


def test_grouped_topk_ascending_bottom_k():
    df = _df(2000)
    df["rid"] = np.arange(len(df))
    out = grouped_topk(
        rd.from_pandas(df), ["k2"], ["v", "rid"], k=2, ascending=True
    ).to_pandas()
    want = (
        df.sort_values(["k2", "v", "rid"], ascending=[True, True, True])
        .groupby("k2", sort=False)
        .head(2)
    )
    assert len(out) == len(want)
    assert set(map(tuple, out[["k2", "rid"]].to_numpy())) == set(
        map(tuple, want[["k2", "rid"]].to_numpy())
    )


def test_hash_argmin_matches_pandas():
    # pandas drop_duplicates keeps one row of the null key; so does argmin
    df = _df(3000, nulls=True)
    df["rid"] = np.arange(len(df))
    out = hash_argmin(rd.from_pandas(df), ["k1"], ["v", "rid"]).to_pandas()
    want = df.sort_values(["v", "rid"]).drop_duplicates(["k1"])
    assert out["k1"].isna().sum() == 1
    assert sorted(out["rid"]) == sorted(want["rid"])


_EMPTY_CASES = {
    "hash_aggregate": (
        lambda ds, b: hash_aggregate(
            ds, ["k1", "k2"], {"n": (None, "count"), "s": ("v", "sum"),
                               "mn": ("k2", "min")}, num_buckets=b),
        {"k1": pa.int64(), "k2": pa.string(), "n": pa.int64(),
         "s": pa.float64(), "mn": pa.string()}),
    "distinct": (
        lambda ds, b: distinct(ds, ["k2"], num_buckets=b),
        {"k2": pa.string()}),
    "hash_argmin": (
        lambda ds, b: hash_argmin(ds, ["k1"], ["v"], num_buckets=b),
        {"k1": pa.int64(), "k2": pa.string(), "v": pa.float64()}),
    "grouped_topk": (
        lambda ds, b: grouped_topk(ds, ["k2"], ["v"], 2, num_buckets=b),
        {"k1": pa.int64(), "k2": pa.string(), "v": pa.float64()}),
}


def _kt(rows):
    return pa.table({"k1": pa.array(range(rows), pa.int64()),
                     "k2": pa.array(["a", "b", "c"][:rows], pa.string()),
                     "v": pa.array([1.0, 2.0, 3.0][:rows], pa.float64())})


@pytest.mark.parametrize("op", sorted(_EMPTY_CASES))
@pytest.mark.parametrize("rows", [0, 3])
def test_empty_input_and_sparse_buckets(op, rows):
    """Empty input, and fewer distinct keys than buckets (most buckets
    empty), give the right rows, and every bucket that ran gives the
    typed schema.  Ray never calls a ``map_batches`` function on an
    empty block (it passes on a columnless empty block), so an all-empty
    input leaves no schema; the kernels' own typed empty output is
    pinned by test_kernels_type_empty_input."""
    run, want = _EMPTY_CASES[op]
    out = run(rd.from_arrow(_kt(rows)), 64)
    assert out.count() == rows
    if rows:
        sch = out.schema()
        assert dict(zip(sch.names, sch.types)) == want


def test_kernels_type_empty_input():
    from raygraph.agg import _first_k, _group

    t = _kt(0)
    g = _group(t, ["k1", "k2"], {"n": (None, "count"), "s": ("v", "sum"),
                                 "mn": ("k2", "min")})
    assert dict(zip(g.schema.names, g.schema.types)) == (
        _EMPTY_CASES["hash_aggregate"][1])
    assert _group(t, ["k2"], {}).schema == pa.schema({"k2": pa.string()})
    assert _first_k(t, ["k1"], [("v", "ascending")], 1).schema == t.schema
