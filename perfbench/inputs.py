"""Seeded input generation.  The program only ever sees the files written
here; the seed never reaches it."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CHUNK = 8192


def write_corpus(out_dir: str, rows: int, seed: int) -> str:
    """``rows`` synthetic source files (``corpus.corpus_batch``) as parquet."""
    from raygraph.corpus import corpus_batch

    os.makedirs(out_dir, exist_ok=True)
    for k, lo in enumerate(range(0, rows, CHUNK)):
        idx = np.arange(lo, min(rows, lo + CHUNK), dtype=np.int64)
        pq.write_table(corpus_batch(idx, rows, seed),
                       os.path.join(out_dir, f"part-{k:05d}.parquet"))
    return out_dir


def write_tables(out_dir: str, seed: int) -> str:
    """The two tables the query mix reads, with the sf0.01 shape: 60,000
    lineitems over 15,000 orders, 2,000 parts and 100 suppliers, and 10,000
    events over 150 users and five event types, all drawn uniformly."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    n = 60_000
    pq.write_table(pa.table({
        "l_orderkey": rng.integers(0, 15_000, n),
        "l_partkey": rng.integers(0, 2_000, n),
        "l_suppkey": rng.integers(0, 100, n),
    }), os.path.join(out_dir, "lineitem.parquet"))
    n = 10_000
    etypes = np.array(["click", "view", "purchase", "signup", "error"])
    pq.write_table(pa.table({
        "user_id": rng.integers(0, 150, n),
        "event_type": etypes[rng.integers(0, len(etypes), n)],
    }), os.path.join(out_dir, "events.parquet"))
    return out_dir
