"""Edge-list sources and sinks.

Reference surface (SURVEY.md §2.1): CSV edge reader
(``experimental/datasets/dataset.py:93-123`` get_edgelist → read_csv;
space-delimited headerless ``src dst [weight]`` per ``README.md:17-20``),
Parquet reader (our canonical input), pandas/numpy conversions
(``simpleGraph.py:246-307``, ``structure/convert_matrix.py``), Parquet
result sink.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa


def _rd():
    import ray.data as rd

    return rd


def driver_meta_provider(max_driver_files: int = 512):
    """Parquet meta provider that reads footers on the DRIVER for small dirs.

    ``read_parquet``'s default provider launches 0.5-CPU Ray tasks for
    >24 files; right after a large build — with a superstep actor pool
    reserving all-but-one CPU — those tasks wait out a fresh
    worker-process startup inside the build's async-cleanup window
    (measured 12–21s to open a 32-file engine-result dir whose footers
    take <0.1s to read locally).  Engine artifacts are exactly
    ``num_partitions`` small files, so the driver reads the footers
    itself; dirs past ``max_driver_files`` defer to the stock parallel
    path.  Returns None if the Ray internals moved (callers fall back to
    the default provider).
    """
    try:
        from ray.data.datasource.parquet_meta_provider import (
            ParquetMetadataProvider,
            _fetch_metadata,
        )
    except ImportError:  # Ray internals moved; use the default path
        return None

    class _DriverFooterMetaProvider(ParquetMetadataProvider):
        def prefetch_file_metadata(self, fragments, **ray_remote_args):
            if len(fragments) <= max_driver_files:
                return _fetch_metadata(fragments)
            return super().prefetch_file_metadata(fragments, **ray_remote_args)

    return _DriverFooterMetaProvider()


def read_parquet_dir(paths, max_driver_files: int = 512, **kwargs):
    """``read_parquet`` for engine-written dirs (≤ num_partitions files)
    without launching ANY remote task at handle-creation time.

    ``read_parquet`` launches remote tasks twice while constructing the
    datasource — footer metadata prefetch (>24 files) and encoding-ratio
    sampling (always) — and right after a large build, with a superstep
    actor pool reserving all-but-one CPU, those tasks wait out a cold
    worker-process startup inside the build's async-cleanup window
    (measured 12–21s to open a 32-file result dir whose footers read in
    <0.1s locally).  For small FLAT dirs this lists the files on the
    driver and uses ``read_parquet_bulk`` (FileBasedDatasource: one
    file = one block, no sampling, no footer tasks).  Hive-partitioned
    layouts (``key=value`` path segments re-added as columns) and big
    dirs keep the stock ``read_parquet``, with driver-side footer fetch
    when the file count allows.
    """
    rd = _rd()
    if isinstance(paths, str) and "://" not in paths:
        import glob as _glob
        import os as _os

        files = sorted(
            _glob.glob(_os.path.join(paths, "**", "*.parquet"), recursive=True)
        )
        flat = files and all(
            "=" not in _os.path.relpath(f, paths) for f in files
        )
        if flat and len(files) <= max_driver_files:
            return rd.read_parquet_bulk(files, **kwargs)
    mp = driver_meta_provider(max_driver_files)
    if mp is not None:
        kwargs.setdefault("meta_provider", mp)
    return rd.read_parquet(paths, **kwargs)


def read_edges_csv(paths, src="src", dst="dst", weight: Optional[str] = None,
                   delimiter: str = " ", column_names: Optional[Sequence[str]] = None):
    """CSV → canonical (src, dst, weight) edge Dataset.

    ``column_names`` for headerless files (the reference's test corpus
    style: space-delimited ``src dst weight``).
    """
    from pyarrow import csv as pacsv

    read_options = None
    if column_names is not None:
        read_options = pacsv.ReadOptions(column_names=list(column_names))
    parse_options = pacsv.ParseOptions(delimiter=delimiter)
    ds = _rd().read_csv(
        paths, read_options=read_options, parse_options=parse_options
    )
    from raygraph.graph import normalize_edges

    return normalize_edges(ds, src=src, dst=dst, weight=weight)


def read_edges_parquet(paths, src="src", dst="dst", weight: Optional[str] = None):
    cols = [src, dst] + ([weight] if weight else [])
    ds = _rd().read_parquet(paths, columns=cols)
    from raygraph.graph import normalize_edges

    return normalize_edges(ds, src=src, dst=dst, weight=weight)


def from_pandas_edgelist(df: pd.DataFrame, src="src", dst="dst",
                         weight: Optional[str] = None):
    from raygraph.graph import normalize_edges

    return normalize_edges(_rd().from_pandas(df), src=src, dst=dst, weight=weight)


def read_edges_mtx(path: str):
    """MatrixMarket coordinate file → canonical (src_key, dst_key, weight)
    edge Dataset, 0-indexed.

    Reference: the datasets utilities read ``.mtx`` via scipy ``mmread``
    into a COO edge list (``utilities/utils.py`` / benchmark harnesses).
    Ray shape: the small header is read driver-side; the body streams
    through ``read_text`` + vectorized batch parsing (one pass, no
    driver-side row loop).  ``pattern`` matrices get weight 1.0;
    ``symmetric`` matrices emit both directions (general emits as-is).
    Returns (edges_ds, meta dict with rows/cols/nnz/symmetric).
    """
    # header: first non-comment line after the %%MatrixMarket banner
    with open(path, "r") as f:
        banner = f.readline()
        if not banner.startswith("%%MatrixMarket"):
            raise ValueError("not a MatrixMarket file")
        parts = banner.split()
        field = parts[3] if len(parts) > 3 else "real"
        sym = (parts[4].lower() == "symmetric") if len(parts) > 4 else False
        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        dims_line = line.strip()
        nr, nc, nnz = (int(x) for x in dims_line.split())
    pattern = field.lower() == "pattern"

    ds = _rd().read_text(path)

    def parse(df: pd.DataFrame) -> pd.DataFrame:
        lines = df["text"].str.strip()
        # drop comments and the (textually unique) dimensions line
        body = lines[~lines.str.startswith("%") & (lines != dims_line)
                     & (lines != "")]
        tok = body.str.split(expand=True)
        if tok.shape[1] < 2:
            return pd.DataFrame(
                {"src_key": pd.Series(dtype=np.int64),
                 "dst_key": pd.Series(dtype=np.int64),
                 "weight": pd.Series(dtype=np.float64)}
            )
        i = pd.to_numeric(tok[0]).to_numpy(np.int64)
        j = pd.to_numeric(tok[1]).to_numpy(np.int64)
        if pattern or tok.shape[1] < 3:
            w = np.ones(len(i))
        else:
            w = pd.to_numeric(tok[2]).to_numpy(np.float64)
        return pd.DataFrame({"src_key": i - 1, "dst_key": j - 1, "weight": w})

    edges = ds.map_batches(parse, batch_format="pandas")
    if sym:
        def both(df: pd.DataFrame) -> pd.DataFrame:
            off = df[df["src_key"] != df["dst_key"]]
            rev = off.rename(columns={"src_key": "dst_key", "dst_key": "src_key"})
            return pd.concat([df, rev[["src_key", "dst_key", "weight"]]],
                             ignore_index=True)

        edges = edges.map_batches(both, batch_format="pandas")
    return edges, {"rows": nr, "cols": nc, "nnz": nnz, "symmetric": sym,
                   "pattern": pattern}


def to_pandas_edgelist(graph) -> pd.DataFrame:
    """``simpleGraph.py:246`` to_pandas_edgelist — small graphs only."""
    t = graph.edge_table()
    if graph.renumbered:
        keys = graph.vertex_keys()
        t = t.set_column(0, "src", keys.take(t.column("src")))
        t = t.set_column(1, "dst", keys.take(t.column("dst")))
    return t.to_pandas()


def to_numpy_array(graph) -> np.ndarray:
    """Dense adjacency matrix — ``convert_matrix.py:312-425``; test-scale only."""
    V = graph.num_vertices
    if V > 20_000:
        raise ValueError("to_numpy_array is for small graphs (V ≤ 20k)")
    A = np.zeros((V, V))
    e = graph.edge_table()
    np.add.at(A, (e.column("src").to_numpy(), e.column("dst").to_numpy()),
              e.column("weight").to_numpy())
    return A


def write_result_parquet(ds, out_dir: str, partition_cols=None):
    """Canonical result sink: partitioned parquet directory (resumable)."""
    kwargs = {}
    if partition_cols:
        kwargs["partition_cols"] = partition_cols
    ds.write_parquet(out_dir, **kwargs)
    return out_dir
