"""Edge derivation: corpus rows → string-keyed edge table.

M1 of the build plan.  Edges are formed by grouping rows on shared keys —
the reference's hypergraph pattern (``structure/hypergraph.py:42-177``:
one node per row-entity, one node per column value, edges connect them).
Two extractors:

* **membership**: ``repo::<repo>  →  path::<repo>/<path>`` (weight 1.0) —
  the bipartite row↔value edge of ``hypergraph.py:358`` (_create_hyper_edges).
* **imports**: ``path::<repo>/<path>  →  mod::<lang>::<module>`` parsed from
  ``content`` per ``lang``; weight = multiplicity of the import in the file.

Key strings use the ``::`` delimiter, the reference's category-qualified
node-key convention (``hypergraph.py:53`` DELIM).

Both extractors are stateless map-only task stages; the regex table is
compiled once at module import, so the hot path is findall + Counter per
row.  (An actor-pool stage holds a CPU per actor for the whole stage;
with one free CPU the read tasks that feed it were never scheduled.)
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pyarrow as pa

EDGE_SCHEMA = pa.schema(
    [
        ("src_key", pa.string()),
        ("dst_key", pa.string()),
        ("weight", pa.float64()),
    ]
)

_IMPORT_RE = {
    "py": re.compile(r"^import\s+([A-Za-z_][\w.]*)", re.M),
    "js": re.compile(r"^import\s+[\w$]+\s+from\s+'([^']+)';?", re.M),
    "go": re.compile(r'^import\s+"([^"]+)"', re.M),
}


def membership_edges(batch: pa.Table) -> pa.Table:
    """repo → path bipartite membership edges (vectorized string concat)."""
    import pyarrow.compute as pc

    repo = batch.column("repo")
    path = batch.column("path")
    src = pc.binary_join_element_wise(pa.scalar("repo::"), repo, pa.scalar(""))
    dst = pc.binary_join_element_wise(
        pa.scalar("path::"), repo, pa.scalar("/"), path, pa.scalar("")
    )
    w = np.ones(len(batch), dtype=np.float64)
    return pa.table({"src_key": src, "dst_key": dst, "weight": w})


def import_edges(batch: pa.Table) -> pa.Table:
    """path → module edges: import targets parsed out of ``content`` per
    ``lang``; weight = the import's multiplicity in the file."""
    repos = batch.column("repo").to_pylist()
    paths = batch.column("path").to_pylist()
    langs = batch.column("lang").to_pylist()
    contents = batch.column("content").to_pylist()
    src, dst, wt = [], [], []
    for repo, path, lang, content in zip(repos, paths, langs, contents):
        rex = _IMPORT_RE.get(lang)
        if rex is None:
            continue
        counts = Counter(rex.findall(content))
        pkey = f"path::{repo}/{path}"
        for mod, n in counts.items():
            src.append(pkey)
            dst.append(f"mod::{lang}::{mod}")
            wt.append(float(n))
    return pa.table(
        {
            "src_key": pa.array(src, pa.string()),
            "dst_key": pa.array(dst, pa.string()),
            "weight": pa.array(wt, pa.float64()),
        }
    )


# -- extractor registry ----------------------------------------------------
# The reference's loadable graph-creation extensions
# (cugraph_service_server/cugraph_handler.py:161-244: user modules
# registered by name, invoked by the server) — here a plain name→stage
# registry.  A stage is either a batch FUNCTION (pa.Table -> pa.Table of
# EDGE_SCHEMA) or a callable CLASS (actor-pool stage for stateful
# extractors); register_extractor decides by inspect.isclass.
_EXTRACTORS: dict = {}


def register_extractor(name: str, stage, concurrency=None):
    """Register an edge-derivation stage under ``name`` for use in
    ``derive_edges(kinds=(..., name, ...))``.  Classes become actor-pool
    ``map_batches`` stages (state built once per actor in ``__init__``);
    functions become stateless task stages.  Re-registering a name
    replaces it (latest wins, like the reference's extension reload)."""
    import inspect

    _EXTRACTORS[name] = (stage, inspect.isclass(stage), concurrency)


def extractor_names():
    return sorted(_EXTRACTORS)


register_extractor("membership", membership_edges)
register_extractor("imports", import_edges)


def derive_edges(corpus_ds, kinds=("membership", "imports"), concurrency=None):
    """All requested extractors (built-in or :func:`register_extractor`-ed),
    unioned into one string-keyed edge Dataset."""
    unknown = [k for k in kinds if k not in _EXTRACTORS]
    if unknown:
        raise KeyError(
            f"unknown extractor(s) {unknown}; registered: {extractor_names()}"
        )
    parts = []
    for k in kinds:
        stage, is_cls, default_cc = _EXTRACTORS[k]
        kw = {"batch_format": "pyarrow", "zero_copy_batch": True}
        if is_cls:
            kw["concurrency"] = concurrency or default_cc or (1, 4)
        parts.append(corpus_ds.map_batches(stage, **kw))
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.union(p)
    return ds
