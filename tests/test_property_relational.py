"""Property-based tests: relational primitives vs pandas oracles.

Hypothesis drives randomized small frames (duplicate keys, empty sides,
int AND string key domains, NaN payloads) through the shared primitives
on BOTH execution paths — Arrow-typed inputs exercise the Acero join /
pyarrow group_by internals, pandas-object inputs the pandas fallback —
and compares against the straightforward pandas computation.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raygraph import joins
from raygraph.agg import grouped_topk, hash_aggregate

SETTINGS = dict(
    max_examples=6,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
        HealthCheck.data_too_large,
    ],
)


@st.composite
def key_frames(draw, max_rows=30):
    str_keys = draw(st.booleans())
    domain = draw(st.integers(min_value=1, max_value=6))
    n_l = draw(st.integers(min_value=0, max_value=max_rows))
    n_r = draw(st.integers(min_value=0, max_value=max_rows))
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))

    def keys(n):
        k = rng.randint(0, domain, n)
        return np.array([f"k{v:02d}" for v in k]) if str_keys else k.astype(
            np.int64
        )

    left = pd.DataFrame(
        {
            "k": keys(n_l),
            "v": np.where(rng.rand(n_l) < 0.15, np.nan, rng.randn(n_l)),
            "s": np.array([f"L{i}" for i in range(n_l)], dtype=object),
        }
    )
    right = pd.DataFrame(
        {
            "k": keys(n_r),
            "w": rng.randn(n_r),
        }
    )
    return left, right, str_keys


def _mk(df: pd.DataFrame, arrow: bool):
    if arrow:
        return rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    return rd.from_pandas(df)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].reset_index(drop=True)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _assert_same(got: pd.DataFrame, want: pd.DataFrame):
    if len(got) == 0 and len(want) == 0:
        # all-empty Datasets drop columns in to_pandas (known Ray
        # limitation — see memory pitfall #4); rows-empty equality only
        return
    pd.testing.assert_frame_equal(_canon(got), _canon(want),
                                  check_dtype=False)


@settings(**SETTINGS)
@given(data=key_frames(), arrow=st.booleans(), how=st.sampled_from(
    ["inner", "left"]))
def test_hash_join_matches_pandas(ray_session, data, arrow, how):
    left, right, _ = data
    got = joins.hash_join(
        _mk(left, arrow), _mk(right, arrow), on="k", how=how, num_buckets=8
    ).to_pandas()
    want = left.merge(right, on="k", how=how, suffixes=("", "_r"))
    _assert_same(got, want)


def test_hash_join_pins_lazy_inputs_instead_of_probing(ray_session,
                                                       monkeypatch):
    """A lazy map-only input is pinned before the join reads its schema:
    building the join runs no ``limit(1)`` schema probe over a plan that
    has not executed (each probe cancels in-flight map tasks)."""
    from ray.data._internal.plan import ExecutionPlan

    schema = ExecutionPlan.schema
    probes = []

    def no_probe(self, fetch_if_missing=False):
        if (fetch_if_missing and self._schema is None
                and not self.has_computed_output()
                and self._logical_plan.dag.infer_schema() is None):
            probes.append(self)
            raise AssertionError("schema probe executes an unrun plan")
        return schema(self, fetch_if_missing)

    left = rd.from_pandas(
        pd.DataFrame({"k": np.arange(30, dtype=np.int64)})
    ).map_batches(lambda df: df.assign(v=df["k"] * 10), batch_format="pandas")
    right = pd.DataFrame({"k": np.arange(0, 40, 3, dtype=np.int64),
                          "w": np.arange(14, dtype=np.float64)})
    monkeypatch.setattr(ExecutionPlan, "schema", no_probe)
    joined = joins.hash_join(left, rd.from_pandas(right), on="k",
                             num_buckets=4)
    monkeypatch.undo()
    assert probes == []
    want = pd.DataFrame({"k": np.arange(30, dtype=np.int64)}).assign(
        v=lambda df: df["k"] * 10).merge(right, on="k")
    _assert_same(joined.to_pandas(), want)


@settings(**SETTINGS)
@given(data=key_frames(), arrow=st.booleans())
def test_hash_aggregate_matches_pandas(ray_session, data, arrow):
    left, _right, _ = data
    got = hash_aggregate(
        _mk(left, arrow), ["k"],
        {"n": (None, "count"), "sv": ("v", "sum"),
         "mn": ("v", "min"), "mx": ("v", "max")},
        num_buckets=8,
    ).to_pandas()
    g = left.groupby("k", as_index=False, sort=False)
    want = g.size().rename(columns={"size": "n"}).merge(
        g.agg(sv=("v", "sum"), mn=("v", "min"), mx=("v", "max")), on="k"
    )[["k", "n", "sv", "mn", "mx"]]
    _assert_same(got, want)


@settings(**SETTINGS)
@given(data=key_frames(), forced_dist=st.booleans(), anti=st.booleans())
def test_semi_anti_join_matches_pandas(ray_session, data, forced_dist, anti):
    left, right, _ = data
    kw = dict(broadcast_limit=0) if forced_dist else {}
    got = joins.semi_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k", anti=anti,
        num_buckets=8, **kw
    ).to_pandas()
    m = left["k"].isin(set(right["k"]))
    want = left[~m] if anti else left[m]
    _assert_same(got, want)


@settings(**SETTINGS)
@given(data=key_frames(), k=st.integers(min_value=1, max_value=4))
def test_grouped_topk_matches_pandas(ray_session, data, k):
    left, _right, _ = data
    left = left.dropna(subset=["v"])  # NaN ordering is not a total order
    got = grouped_topk(
        rd.from_pandas(left), ["k"], ["v", "s"], k, num_buckets=8
    ).to_pandas()
    want = (
        left.sort_values(["v", "s"], ascending=False)
        .groupby("k", sort=False)
        .head(k)
    )
    _assert_same(got, want)


@st.composite
def asof_frames(draw, max_rows=25):
    domain = draw(st.integers(min_value=1, max_value=4))
    n_l = draw(st.integers(min_value=0, max_value=max_rows))
    n_r = draw(st.integers(min_value=0, max_value=max_rows))
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    left = pd.DataFrame(
        {
            "u": rng.randint(0, domain, n_l).astype(np.int64),
            "t": rng.randint(0, 50, n_l).astype(np.int64),
            "x": rng.randn(n_l),
        }
    )
    # right unique per (u, t): the asof contract (duplicate right
    # timestamps make the picked row order-dependent)
    right = pd.DataFrame(
        {
            "u": rng.randint(0, domain, n_r).astype(np.int64),
            "t": rng.randint(0, 50, n_r).astype(np.int64),
            "y": rng.randn(n_r),
        }
    ).drop_duplicates(["u", "t"])
    return left, right


@settings(**SETTINGS)
@given(data=asof_frames())
def test_asof_join_matches_pandas(ray_session, data):
    left, right = data
    got = joins.asof_join(
        rd.from_pandas(left), rd.from_pandas(right), on="t", by="u",
        num_buckets=8,
    ).to_pandas()
    if len(left) and len(right):
        want = pd.merge_asof(
            left.sort_values("t", kind="mergesort"),
            right.sort_values("t", kind="mergesort"),
            on="t", by="u", direction="backward", suffixes=("", "_r"),
        )
        want = want[want["y"].notna()]
    else:
        want = left.head(0).assign(y=np.nan)
    _assert_same(got, want)
