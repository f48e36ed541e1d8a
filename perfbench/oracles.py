"""Reference results the benchmark checks every timed call against.

Written independently of the program: numpy only, no raygraph imports.
PageRank and the label canonicalization come from ``tests/oracles.py``; the
rest are vectorized here because the pure-Python references there would take
minutes on graphs of this size.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

import numpy as np
import pandas as pd

# import-line grammar of the synthetic corpus, per language
IMPORT_LINE = {
    "py": re.compile(r"^import (\S+)$", re.M),
    "js": re.compile(r"^import \S+ from '([^']+)';$", re.M),
    "go": re.compile(r'^import "([^"]+)"$', re.M),
}


def corpus_sha256(corpus: pd.DataFrame) -> dict:
    """path -> sha256 hex of its content (paths are unique in the corpus)."""
    return {
        p: hashlib.sha256(c.encode("utf-8")).hexdigest()
        for p, c in zip(corpus["path"], corpus["content"])
    }


def corpus_edges(corpus: pd.DataFrame) -> pd.DataFrame:
    """Undirected key-space edge set of the corpus graph: repo–file
    membership (weight 1) and file–module imports (weight = repeat count),
    one row per unordered pair (a < b).  Paths are unique, so no pair
    repeats."""
    a, b, w = [], [], []
    for repo, path, lang, content in zip(corpus["repo"], corpus["path"],
                                         corpus["lang"], corpus["content"]):
        fkey = f"path::{repo}/{path}"
        a.append(f"repo::{repo}")
        b.append(fkey)
        w.append(1.0)
        for mod, n in Counter(IMPORT_LINE[lang].findall(content)).items():
            a.append(fkey)
            b.append(f"mod::{lang}::{mod}")
            w.append(float(n))
    return undirected_pairs(np.array(a, object), np.array(b, object),
                            np.array(w, np.float64))


def undirected_pairs(a, b, w) -> pd.DataFrame:
    """Unique unordered pairs as (a < b, w) rows, sorted."""
    lo = np.where(a < b, a, b)
    hi = np.where(a < b, b, a)
    return pd.DataFrame({"a": lo, "b": hi, "w": w}).sort_values(
        ["a", "b"], ignore_index=True)


def graph_pairs(edges: pd.DataFrame, vmap: pd.DataFrame) -> pd.DataFrame:
    """A built undirected graph's stored edges in external keys, one row
    per (a < b) direction, sorted."""
    keys = np.empty(len(vmap), object)
    keys[vmap["vid"].to_numpy(np.int64)] = vmap["vertex_key"].to_numpy(object)
    a = keys[edges["src"].to_numpy(np.int64)]
    b = keys[edges["dst"].to_numpy(np.int64)]
    keep = a < b
    return pd.DataFrame({"a": a[keep], "b": b[keep],
                         "w": edges["weight"].to_numpy(np.float64)[keep]}
                        ).sort_values(["a", "b"], ignore_index=True)


def wcc(src, dst, V: int) -> np.ndarray:
    """Min-vertex-id component labels by hooking + pointer jumping."""
    lab = np.arange(V, dtype=np.int64)
    while True:
        nxt = lab.copy()
        np.minimum.at(nxt, dst, lab[src])
        while True:  # compress: follow labels to their roots
            jumped = nxt[nxt]
            if np.array_equal(jumped, nxt):
                break
            nxt = jumped
        if np.array_equal(nxt, lab):
            return lab
        lab = nxt


def lpa(src, dst, w, V: int, max_iter: int) -> np.ndarray:
    """Synchronous LPA: each vertex takes the neighbour label with the
    largest summed edge weight, ties to the smallest label; stops when no
    label changes or after ``max_iter`` rounds."""
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    w = np.asarray(w, np.float64)
    lab = np.arange(V, dtype=np.int64)
    for _ in range(max_iter):
        # one group per (vertex, neighbour label), sorted by vertex then label
        key, inv = np.unique(dst * V + lab[src], return_inverse=True)
        sums = np.bincount(inv, weights=w)
        d = key // V
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        best = np.repeat(np.maximum.reduceat(sums, starts), np.diff(np.r_[starts, len(d)]))
        # the first maximal group of a vertex has its smallest label
        hit = np.flatnonzero(sums == best)
        first = hit[np.r_[True, d[hit][1:] != d[hit][:-1]]]
        new = lab.copy()
        new[d[first]] = key[first] % V
        if np.array_equal(new, lab):
            break
        lab = new
    return lab


def triangles(src, dst, V: int, chunk: int = 4_000_000) -> np.ndarray:
    """Exact per-vertex triangle counts of an undirected simple graph given
    as both directions of each edge.  Edges are oriented from lower to
    higher (degree, id) rank; every closed wedge of an out-list is one
    triangle."""
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    deg = np.bincount(src, minlength=V)
    rank = np.empty(V, np.int64)
    rank[np.lexsort((np.arange(V), deg))] = np.arange(V)
    rs, rd = rank[src], rank[dst]
    keep = rs < rd
    a, b = rs[keep], rd[keep]
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keys = a * V + b  # sorted
    ends = np.searchsorted(a, np.arange(V), side="right")
    # element i of vertex a's out-list pairs with every later element
    n_pairs = ends[a] - np.arange(len(a)) - 1
    counts = np.zeros(V, np.int64)
    cum = np.cumsum(n_pairs)
    lo = 0
    while lo < len(a):
        hi = int(np.searchsorted(cum, (cum[lo - 1] if lo else 0) + chunk,
                                 side="right"))
        hi = max(hi, lo + 1)
        k = n_pairs[lo:hi]
        first = np.repeat(np.arange(lo, hi), k)
        base = np.repeat(np.cumsum(k) - k, k)
        second = first + 1 + (np.arange(len(first)) - base)
        x, y = b[first], b[second]
        pos = np.searchsorted(keys, x * V + y)
        pos = np.minimum(pos, len(keys) - 1)
        closed = keys[pos] == x * V + y
        for ends_of in (a[first][closed], x[closed], y[closed]):
            counts += np.bincount(ends_of, minlength=V)
        lo = hi
    return counts[rank]


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Order-insensitive form of a query result (as tools/check_queries.py)."""
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].round(9)
    return df


def frames_differ(got: pd.DataFrame, want: pd.DataFrame):
    """None when equal under :func:`canon`; else a one-line reason."""
    if len(got) != len(want):
        return f"{len(got)} rows, oracle {len(want)}"
    if list(got.columns) != list(want.columns):
        return f"columns {list(got.columns)}, oracle {list(want.columns)}"
    try:
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=False, rtol=0, atol=1e-9)
    except AssertionError as e:
        return str(e).splitlines()[0]
    return None
