"""M0/M1 tests: corpus determinism, sha256 invariant, edge derivation."""

import hashlib

import numpy as np
import pytest

from raygraph import corpus, derive, ingest


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
