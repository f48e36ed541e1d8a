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

Both are Arrow kernels (imports: RE2 per line, once per ``lang``), and
:func:`derive_edges` runs them in ONE task stage, so the corpus is read
once and ``graph.normalize_edges`` fuses into the same task.  (An actor-pool
stage holds a CPU per actor for the whole stage; with one free CPU the read
tasks that feed it were never scheduled.)
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

EDGE_SCHEMA = pa.schema(
    [
        ("src_key", pa.string()),
        ("dst_key", pa.string()),
        ("weight", pa.float64()),
    ]
)

# The import grammar per lang, over a whole file; _IMPORT_LINE_RE is the
# same for RE2 per line, its group named.  Python's ``\w`` and ``\s`` are Unicode, RE2's are
# ASCII: _W and _S spell Python's out (equal on every BMP code point, which
# tests/test_corpus_ingest.py sweeps).  RE2's ``\s`` stays in the line
# patterns: a subset of Python's, it can only reject a line, which is redone.
_IMPORT_RE = {
    "py": re.compile(r"^import\s+([A-Za-z_][\w.]*)", re.M),
    "js": re.compile(r"^import\s+[\w$]+\s+from\s+'([^']+)';?", re.M),
    "go": re.compile(r'^import\s+"([^"]+)"', re.M),
}
_W, _S = r"\p{L}\p{N}_", r"[\t-\r\x1c-\x1f\x85\p{Z}]"
_IMPORT_LINE_RE = {
    lang: rex.pattern.replace(r"\w", _W).replace("(", "(?P<mod>", 1)
    for lang, rex in _IMPORT_RE.items()
}


def membership_edges(batch: pa.Table) -> pa.Table:
    """repo → path bipartite membership edges (vectorized string concat)."""
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
    ``lang``; weight = the import's multiplicity in the file.

    A match can only start on a line that is ``import`` alone or followed
    by whitespace, and where the per-line pattern accepts such a line the
    whole-file match from it is the same.  Only from a line it rejects can
    a whole-file match cross a newline (whitespace only after ``import``, a
    js/go quote left open): the rows holding one run through _IMPORT_RE."""
    lines = pc.split_pattern(batch.column("content").combine_chunks(), "\n")
    row, lines = pc.list_parent_indices(lines), pc.list_flatten(lines)
    head = pc.starts_with(lines, "import")  # cheap prefilter for the regex
    lines, row = lines.filter(head), row.filter(head)
    head = pc.match_substring_regex(lines, rf"^import({_S}|$)")
    lines, row = lines.filter(head), row.filter(head)
    line_lang = batch.column("lang").combine_chunks().take(row)
    rows, mods = [], []
    for lang, pattern in _IMPORT_LINE_RE.items():
        mine = pc.equal(line_lang, lang)
        rows.append(row.filter(mine))
        mods.append(pc.struct_field(
            pc.extract_regex(lines.filter(mine), pattern), [0]))
    row, mod = pa.concat_arrays(rows), pa.concat_arrays(mods)
    redo = pc.unique(row.filter(mod.is_null()))
    keep = pc.invert(pc.is_in(row, value_set=redo))
    counts = pa.table({"row": row, "mod": mod}).filter(keep).group_by(
        ["row", "mod"], use_threads=False).aggregate([([], "count_all")])
    row = counts.column("row")
    repo, path, lang = (batch.column(c).take(row) for c in ("repo", "path", "lang"))
    src = pc.binary_join_element_wise("path::", repo, "/", path, "")
    dst = pc.binary_join_element_wise("mod::", lang, "::", counts.column("mod"), "")
    out = pa.table([src, dst, counts.column("count_all").cast(pa.float64())],
                   schema=EDGE_SCHEMA)
    return pa.concat_tables([out, _findall_edges(batch.take(redo))])


def _findall_edges(batch: pa.Table) -> pa.Table:
    """``import_edges`` row by row with the whole-file Python patterns."""
    src, dst, wt = [], [], []
    for repo, path, lang, content in zip(
        *(batch.column(c).to_pylist() for c in ("repo", "path", "lang", "content"))
    ):
        for mod, n in Counter(_IMPORT_RE[lang].findall(content)).items():
            src.append(f"path::{repo}/{path}")
            dst.append(f"mod::{lang}::{mod}")
            wt.append(float(n))
    return pa.table([src, dst, wt], schema=EDGE_SCHEMA)


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
    functions run together in one stateless task stage.  Re-registering a
    name replaces it (latest wins, like the reference's extension reload)."""
    import inspect

    _EXTRACTORS[name] = (stage, inspect.isclass(stage), concurrency)


def extractor_names():
    return sorted(_EXTRACTORS)


register_extractor("membership", membership_edges)
register_extractor("imports", import_edges)


def derive_edges(corpus_ds, kinds=("membership", "imports"), concurrency=None):
    """All requested extractors (built-in or :func:`register_extractor`-ed)
    as one string-keyed edge Dataset: the function extractors in ONE task
    stage that concatenates their outputs, each class extractor unioned in
    as its own actor-pool stage.  Only row order differs from running every
    extractor on its own."""
    unknown = [k for k in kinds if k not in _EXTRACTORS]
    if unknown:
        raise KeyError(
            f"unknown extractor(s) {unknown}; registered: {extractor_names()}"
        )
    kw = {"batch_format": "pyarrow", "zero_copy_batch": True}
    fns = [_EXTRACTORS[k][0] for k in kinds if not _EXTRACTORS[k][1]]

    def extract_edges(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([fn(batch) for fn in fns])

    parts = [corpus_ds.map_batches(extract_edges, **kw)] if fns else []
    for k in kinds:
        stage, is_cls, default_cc = _EXTRACTORS[k]
        if is_cls:
            parts.append(corpus_ds.map_batches(
                stage, concurrency=concurrency or default_cc or (1, 4), **kw))
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
