"""M0/M1 tests: corpus determinism, sha256 invariant, edge derivation."""

import collections
import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raygraph import corpus, derive, ingest

# The per-row loop that derive.import_edges replaced, kept as its oracle:
# whole-file Python regexes, findall + Counter per row.
_ORACLE_RE = {
    "py": re.compile(r"^import\s+([A-Za-z_][\w.]*)", re.M),
    "js": re.compile(r"^import\s+[\w$]+\s+from\s+'([^']+)';?", re.M),
    "go": re.compile(r'^import\s+"([^"]+)"', re.M),
}


def oracle_import_edges(batch: pa.Table) -> pa.Table:
    repos = batch.column("repo").to_pylist()
    paths = batch.column("path").to_pylist()
    langs = batch.column("lang").to_pylist()
    contents = batch.column("content").to_pylist()
    src, dst, wt = [], [], []
    for repo, path, lang, content in zip(repos, paths, langs, contents):
        rex = _ORACLE_RE.get(lang)
        if rex is None:
            continue
        counts = collections.Counter(rex.findall(content))
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


def _multiset(t):
    """Edge rows as a multiset; ``t`` is a pa.Table or a DataFrame."""
    cols = derive.EDGE_SCHEMA.names
    if isinstance(t, pa.Table):
        return collections.Counter(zip(*(t.column(c).to_pylist() for c in cols)))
    return collections.Counter(zip(*(t[c].tolist() for c in cols)))


def _files(rows):
    """One corpus-shaped row per (lang, content), each its own path."""
    return pa.table(
        {
            "repo": pa.array(["r"] * len(rows), pa.string()),
            "path": pa.array([f"f{i}" for i in range(len(rows))], pa.string()),
            "lang": pa.array([lang for lang, _ in rows], pa.string()),
            "content": pa.array([c for _, c in rows], pa.string()),
        }
    )


def test_corpus_deterministic_and_batch_invariant():
    n = 500
    a = corpus.corpus_batch(np.arange(n), n, seed=42)
    # batch boundaries must not change rows
    b1 = corpus.corpus_batch(np.arange(0, 200), n, seed=42)
    b2 = corpus.corpus_batch(np.arange(200, n), n, seed=42)
    import pyarrow as pa

    b = pa.concat_tables([b1, b2])
    assert a.equals(b)
    # different seed changes content
    c = corpus.corpus_batch(np.arange(n), n, seed=7)
    assert not a.equals(c)


def test_corpus_shape_and_skew():
    n = 2000
    t = corpus.corpus_batch(np.arange(n), n, seed=42)
    assert t.num_rows == n
    assert t.column_names == ["repo", "path", "commit", "lang", "content"]
    # commit = sha1(repo/path)
    r0, p0, c0 = (
        t.column("repo")[0].as_py(),
        t.column("path")[0].as_py(),
        t.column("commit")[0].as_py(),
    )
    assert c0 == hashlib.sha1(f"{r0}/{p0}".encode()).hexdigest()
    # paths unique within (repo, path)
    keys = set(zip(t.column("repo").to_pylist(), t.column("path").to_pylist()))
    assert len(keys) == n
    # Zipf skew: top repo owns much more than uniform share
    import collections

    counts = collections.Counter(t.column("repo").to_pylist())
    assert counts.most_common(1)[0][1] > 3 * (n / corpus.num_repos(n))


def test_corpus_dataset_matches_local():
    n = 300
    ds = corpus.corpus_dataset(n, seed=42)
    got = ds.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    want = (
        corpus.corpus_batch(np.arange(n), n, seed=42)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    assert got.equals(want)


def test_ingest_sha256_invariant():
    n = 400
    ds = corpus.corpus_dataset(n, seed=42)
    out = ingest.ingest(ds).to_pandas()
    assert len(out) == n
    assert "content" not in out.columns
    t = corpus.corpus_batch(np.arange(n), n, seed=42).to_pandas()
    t["content_sha256"] = t["content"].map(
        lambda s: hashlib.sha256(s.encode()).hexdigest()
    )
    merged = out.merge(t[["repo", "path", "content_sha256"]], on=["repo", "path"])
    assert len(merged) == n
    assert (merged["content_sha256_x"] == merged["content_sha256_y"]).all()


def test_membership_edges():
    n = 200
    t = corpus.corpus_batch(np.arange(n), n, seed=42)
    e = derive.membership_edges(t)
    assert e.num_rows == n
    assert e.column("src_key")[0].as_py().startswith("repo::")
    assert e.column("dst_key")[0].as_py().startswith("path::")


def test_import_edges_parse():
    import pyarrow as pa

    t = pa.table(
        {
            "repo": ["r1", "r1", "r1"],
            "path": ["a.py", "b.js", "c.go"],
            "lang": ["py", "js", "go"],
            "content": [
                "# h\nimport foo\nimport bar.baz\nimport foo\nx = 1",
                "// h\nimport jsmod1 from 'jsmod1';\nlet x = 2;",
                '// h\nimport "gomod7"\n',
            ],
        }
    )
    e = derive.import_edges(t).to_pandas()
    e = e.sort_values(["src_key", "dst_key"]).reset_index(drop=True)
    assert list(e["dst_key"]) == [
        "mod::py::bar.baz",
        "mod::py::foo",
        "mod::js::jsmod1",
        "mod::go::gomod7",
    ] or set(e["dst_key"]) == {
        "mod::py::bar.baz",
        "mod::py::foo",
        "mod::js::jsmod1",
        "mod::go::gomod7",
    }
    foo = e[e["dst_key"] == "mod::py::foo"]
    assert foo["weight"].iloc[0] == 2.0


def test_derive_edges_end_to_end():
    n = 300
    ds = corpus.corpus_dataset(n, seed=42)
    e = derive.derive_edges(ds)
    df = e.to_pandas()
    assert (df["weight"] >= 1.0).all()
    n_membership = (df["src_key"].str.startswith("repo::")).sum()
    assert n_membership == n
    assert (df["src_key"].str.startswith("path::")).sum() > 0


def test_derive_edges_completes_with_one_free_cpu():
    """The built-in extractors run as task stages, so derivation finishes
    when a single CPU is free (an actor-pool stage held that CPU and the
    read tasks feeding it never ran)."""
    import threading

    import ray
    from ray.util.placement_group import (placement_group,
                                          remove_placement_group)

    n = 200
    # reserve every CPU but one
    pg = placement_group([{"CPU": int(ray.cluster_resources()["CPU"]) - 1}])
    ray.get(pg.ready(), timeout=60)
    out = {}

    def run():
        out["df"] = derive.derive_edges(
            corpus.corpus_dataset(n, seed=3)).to_pandas()

    th = threading.Thread(target=run, daemon=True)
    try:
        th.start()
        th.join(timeout=60)
        finished = not th.is_alive()
    finally:
        remove_placement_group(pg)
        th.join(timeout=120)  # a hung run drains once the CPUs are back
    assert finished, "derive_edges did not finish within 60 s on one CPU"
    df = out["df"]
    assert (df["src_key"].str.startswith("repo::")).sum() == n
    assert (df["src_key"].str.startswith("path::")).sum() > 0


def test_extractor_registry_custom_stage():
    """register_extractor: a user stage participates in derive_edges by
    name (the reference's loadable-extension surface, cugraph_handler.py
    style); unknown names raise with the registered list."""
    import pyarrow as pa
    import pytest

    def lang_edges(t: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        src = pc.binary_join_element_wise(
            pa.scalar("repo::"), t.column("repo"), pa.scalar("")
        )
        dst = pc.binary_join_element_wise(
            pa.scalar("lang::"), t.column("lang"), pa.scalar("")
        )
        return pa.table(
            {"src_key": src, "dst_key": dst,
             "weight": np.ones(len(t), dtype=np.float64)}
        )

    derive.register_extractor("langs", lang_edges)
    try:
        assert "langs" in derive.extractor_names()
        ds = corpus.corpus_dataset(50, seed=1)
        df = derive.derive_edges(ds, kinds=("membership", "langs")).to_pandas()
        assert (df["dst_key"].str.startswith("lang::")).sum() == 50
        assert (df["src_key"].str.startswith("repo::")).sum() == 100
        with pytest.raises(KeyError, match="registered"):
            derive.derive_edges(ds, kinds=("nope",))
    finally:
        derive._EXTRACTORS.pop("langs", None)


# Hand-written rows where a per-line match and the whole-file Python match
# could part ways, by trap.
IMPORT_TRAPS = {
    "bare_import_then_newline": [
        ("py", "import\n"), ("py", "import\nx = 1"), ("py", "import  \t\n  foo"),
        ("js", "import\nx from 'm';"), ("js", "import x\nfrom 'm';"),
        ("go", 'import\n"m"'),
    ],
    "import_then_import": [
        ("py", "import\nimport foo"), ("js", "import\nimport x from 'a';"),
        ("go", 'import\nimport "a"'),
    ],
    "quote_open_across_lines": [
        ("js", "import x from 'a\nb';\nimport y from 'c';"),
        ("js", "import x from 'a\nimport y from 'c';"),
        ("go", 'import "a\nb"\nimport "c"'), ("go", 'import "a\n'),
    ],
    "crlf": [
        ("py", "import foo\r\nimport bar.baz\r\n"), ("py", "import\r\nfoo"),
        ("js", "import x from 'm';\r\n"), ("go", 'import "m"\r\nimport "n"\r\n'),
    ],
    "last_line_without_newline": [
        ("py", "x = 1\nimport foo"), ("js", "import x from 'm'"),
        ("go", 'import "m"'), ("py", "x = 1\nimport"),
    ],
    "repeated": [
        ("py", "import foo\nimport foo\nimport foo.bar\nimport foo"),
        ("go", 'import "x"\nimport "x"'),
        ("js", "import a from 'm';\nimport b from 'm';"),
    ],
    "non_ascii": [
        ("py", "import модуль\nimport a_é1\nimport é\nimport x٣"),
        ("js", "import ñ from 'módulo';"), ("go", 'import "日本"'),
        ("py", "import\u3000foo"), ("py", "import\u2028\nfoo"),
        ("py", "import\x85\nfoo"),
        ("js", "import x\xa0from 'm'"),
    ],
    "not_an_import_line": [
        ("py", "importlib.reload(m)\nimport foo"), ("py", "  import foo"),
        ("js", "important = 1\nimport x from 'm';"),
    ],
    "unknown_lang": [("rs", "import foo"), ("", "import foo"), ("PY", "import foo")],
    "empty_content": [("py", ""), ("js", ""), ("go", "\n")],
}


@pytest.mark.parametrize("trap", sorted(IMPORT_TRAPS))
def test_import_edges_matches_row_loop(trap):
    t = _files(IMPORT_TRAPS[trap])
    got = derive.import_edges(t)
    assert got.schema == derive.EDGE_SCHEMA
    assert _multiset(got) == _multiset(oracle_import_edges(t))


def test_import_edges_mixed_batch_and_empty_batch():
    t = _files([r for rows in IMPORT_TRAPS.values() for r in rows])
    assert _multiset(derive.import_edges(t)) == _multiset(oracle_import_edges(t))
    empty = derive.import_edges(t.slice(0, 0))
    assert empty.schema == derive.EDGE_SCHEMA and empty.num_rows == 0


def test_import_edges_codepoint_sweep():
    """Every BMP code point in each pattern position whose class differs
    between Python (Unicode ``\\w``/``\\s``) and RE2 (ASCII)."""
    chars = [chr(c) for c in range(0x10000) if not 0xD800 <= c <= 0xDFFF]
    forms = [
        ("py", "import a{}"),            # \w in the module
        ("py", "import{}\nfoo"),         # \s after import, across the newline
        ("js", "import a{} from 'm'"),   # [\w$] in the binding
        ("js", "import x from '{}'"),    # [^'] in the module
        ("go", 'import "{}"'),           # [^"] in the module
    ]
    t = _files([(lang, form.format(c)) for lang, form in forms for c in chars])
    want = _multiset(oracle_import_edges(t))
    assert len(want) > len(chars)
    assert _multiset(derive.import_edges(t)) == want


# -- derive_edges: one fused stage --------------------------------------------


def _plan_op_names(ds):
    """Operator class names of ``ds``'s logical plan, walked without a memo
    (a shared input is listed once per path to it).  ``_logical_plan`` is
    Ray-internal: if it moves, fail here rather than pass vacuously."""
    assert hasattr(ds, "_logical_plan"), "Ray moved Dataset._logical_plan"
    names, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        names.append(type(op).__name__)
        stack.extend(op.input_dependencies)
    return names


def test_derive_edges_default_kinds_read_once_without_union():
    names = _plan_op_names(derive.derive_edges(corpus.corpus_dataset(50, seed=1)))
    assert "Union" not in names, names
    assert names.count("Read") == 1, names


def test_derive_edges_is_the_union_of_its_extractors():
    """Function extractors (fused into one stage) and a class extractor
    (its own actor-pool stage, unioned in) give the multiset union of
    each extractor run on its own."""

    def lang_edges(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "src_key": pc.binary_join_element_wise("repo::", t.column("repo"), ""),
            "dst_key": pc.binary_join_element_wise("lang::", t.column("lang"), ""),
            "weight": np.ones(len(t), dtype=np.float64),
        })

    class CommitEdges:
        def __init__(self):
            self.prefix = "commit::"

        def __call__(self, t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return pa.table({
                "src_key": pc.binary_join_element_wise(
                    "path::", t.column("repo"), "/", t.column("path"), ""),
                "dst_key": pc.binary_join_element_wise(
                    self.prefix, t.column("commit"), ""),
                "weight": np.full(len(t), 2.0),
            })

    derive.register_extractor("langs", lang_edges)
    derive.register_extractor("commits", CommitEdges, concurrency=1)
    try:
        n, seed = 400, 9
        t = corpus.corpus_batch(np.arange(n), n, seed=seed)
        want = collections.Counter()
        for fn in (derive.membership_edges, oracle_import_edges, lang_edges,
                   CommitEdges()):
            want.update(_multiset(fn(t)))
        ds = derive.derive_edges(
            corpus.corpus_dataset(n, seed=seed),
            kinds=("membership", "commits", "imports", "langs"))
        assert "Union" in _plan_op_names(ds)
        assert _multiset(ds.to_pandas()) == want
    finally:
        derive._EXTRACTORS.pop("langs", None)
        derive._EXTRACTORS.pop("commits", None)


@pytest.mark.parametrize("seed", [21, 8080])
def test_corpus_graph_matches_row_loop_build(tmp_path, seed):
    """The corpus graph built from derive_edges equals, vmap and every
    ``edges/part=p`` table, the one built from the row-loop extractor run
    as its own stage and unioned in."""
    from raygraph.graph import Graph

    P = 8
    cds = corpus.corpus_dataset(3000, seed=seed)
    kw = {"batch_format": "pyarrow", "zero_copy_batch": True}
    oracle = cds.map_batches(derive.membership_edges, **kw).union(
        cds.map_batches(oracle_import_edges, **kw))
    for name, edges in (("oracle", oracle), ("derive", derive.derive_edges(cds))):
        Graph.from_edges(edges, directed=False, num_partitions=P,
                         out_dir=str(tmp_path / name))
    for sub in ["vmap"] + [f"edges/part={p}" for p in range(P)]:
        want = pq.read_table(tmp_path / "oracle" / sub)
        assert want.num_rows > 0, sub
        assert pq.read_table(tmp_path / "derive" / sub).equals(want), sub
