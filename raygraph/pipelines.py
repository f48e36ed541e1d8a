"""Query catalog: named pipelines over the testdata tables + DuckDB oracles.

Each entry pairs a Ray Data pipeline (callable taking ``sf_dir``) with an
equivalent ANSI-SQL string for the driver's DuckDB cross-check.  Column
names match exactly between both sides (the driver hash-compares values
after sorting columns by name).  Queries without SQL equivalents (iterative
algorithms, sketches) register with ``sql=None`` → rows-only check.

The graph queries derive edge tables from the TPC-H-ish tables:
* ``ps`` graph: lineitem → (l_partkey) → (l_suppkey+1_000_000) with
  multiplicity weights — the "edges by grouping rows on shared keys" shape.
* ``hyper`` graph: hypergraph ``direct=True`` over
  (l_partkey, l_suppkey, l_orderkey) — tripartite, rich in triangles.
* ``user–etype`` graph: events, for similarity coefficients.
"""

from __future__ import annotations

import os
import tempfile
import uuid
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

SUPP_OFFSET = 1_000_000


def _rd():
    import ray.data as rd

    return rd


def _scale_e6(x: np.ndarray) -> np.ndarray:
    """Scaled-integer gate column: round(x*1e6) half-away-from-zero, as
    DuckDB's ``ROUND(x*1e6, 0)`` does.  np.round is half-to-even on the
    binary value, which flaps the driver's bit-exact hash gate when a
    value lands on a representable 6th-decimal tie (ADVICE r3)."""
    y = np.asarray(x, dtype=np.float64) * 1e6
    t = np.trunc(y)
    # rint is half-to-even == half-away everywhere except exact .5 ties;
    # patch the ties (never add 0.5 in float — that itself rounds)
    return np.where(
        np.abs(y - t) == 0.5, t + np.copysign(1.0, y), np.rint(y)
    ).astype(np.int64)


def _tmpdir(tag: str) -> str:
    d = os.path.join(tempfile.gettempdir(), "raygraph", f"{tag}-{uuid.uuid4().hex[:10]}")
    os.makedirs(d, exist_ok=True)
    return d


# ---------------------------------------------------------------------------
# edge derivations


_PS_EDGES_CACHE: dict = {}


def ps_edges(sf_dir: str):
    """lineitem → deduped weighted edge table (src,dst,weight).  Built
    once per (process, sf_dir) — ~25 queries consume this immutable
    table, and a materialized Dataset is side-effect-free to share (a
    fresh process per query simply rebuilds once)."""
    cached = _PS_EDGES_CACHE.get(("int", sf_dir))
    if cached is not None:
        return cached
    rd = _rd()
    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=["l_partkey", "l_suppkey"]
    )

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": t.column("l_partkey"),
                "dst": pa.compute.add(t.column("l_suppkey"), SUPP_OFFSET),
            }
        )

    from raygraph.agg import hash_aggregate

    e = li.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)
    g = hash_aggregate(e, ["src", "dst"], {"n": (None, "count")})
    out = g.map_batches(
        lambda df: pd.DataFrame(
            {
                "src": df["src"].to_numpy(np.int64),
                "dst": df["dst"].to_numpy(np.int64),
                "weight": df["n"].to_numpy(np.float64),
            }
        ),
        batch_format="pandas",
    ).materialize()
    _PS_EDGES_CACHE[("int", sf_dir)] = out
    return out


PS_EDGES_SQL = (
    "SELECT l_partkey AS src, l_suppkey + 1000000 AS dst, "
    "CAST(COUNT(*) AS DOUBLE) AS weight FROM lineitem GROUP BY 1, 2"
)


def ps_edges_str(sf_dir: str):
    """Same edges with category-qualified string keys (for renumbered
    graphs).  Cached per (process, sf_dir) like :func:`ps_edges`."""
    cached = _PS_EDGES_CACHE.get(("str", sf_dir))
    if cached is not None:
        return cached
    rd = _rd()
    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=["l_partkey", "l_suppkey"]
    )

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src_key": "part::" + df["l_partkey"].astype(str),
                "dst_key": "supp::" + df["l_suppkey"].astype(str),
            }
        )

    from raygraph.agg import hash_aggregate

    e = li.map_batches(project, batch_format="pandas")
    g = hash_aggregate(e, ["src_key", "dst_key"], {"n": (None, "count")})
    out = g.map_batches(
        lambda df: pd.DataFrame(
            {
                "src_key": df["src_key"],
                "dst_key": df["dst_key"],
                "weight": df["n"].astype(np.float64),
            }
        ),
        batch_format="pandas",
    ).materialize()
    _PS_EDGES_CACHE[("str", sf_dir)] = out
    return out


def hyper_edges(sf_dir: str):
    """Hypergraph direct=True over (part, supp, order) — string-keyed."""
    from raygraph.hypergraph import hypergraph_edges

    rd = _rd()
    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_orderkey"],
    )

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "p": df["l_partkey"].astype(str),
                "s": df["l_suppkey"].astype(str),
                "o": df["l_orderkey"].astype(str),
            }
        )

    # no pre-dedup: the undirected graph build's symmetrize(min) collapses
    # parallel copies and all weights are 1.0 (saves one full shuffle)
    return hypergraph_edges(
        li.map_batches(keyed, batch_format="pandas"), ["p", "s", "o"], direct=True
    )


HYPER_EDGES_SQL_BODY = """
  SELECT 'p::' || l_partkey AS src_key, 's::' || l_suppkey AS dst_key
  FROM lineitem GROUP BY 1, 2
  UNION
  SELECT 'p::' || l_partkey, 'o::' || l_orderkey FROM lineitem GROUP BY 1, 2
  UNION
  SELECT 's::' || l_suppkey, 'o::' || l_orderkey FROM lineitem GROUP BY 1, 2
"""


def _build_graph_from_keys(edges, directed, tag, num_partitions=8):
    from raygraph.graph import Graph

    return Graph.from_edges(
        edges,
        src="src_key", dst="dst_key", weight="weight",
        directed=directed, renumber=True, num_partitions=num_partitions,
        out_dir=_tmpdir(tag),
    )


_PS_GRAPH_CACHE: dict = {}
_HYPER_GRAPH_CACHE: dict = {}


def _hyper_graph_und(sf_dir: str):
    """Undirected renumbered tripartite hyper graph — shared by the
    triangles / k_truss / eigenvector queries (identical immutable
    build; once per process+sf_dir)."""
    g = _HYPER_GRAPH_CACHE.get(sf_dir)
    if g is None:
        g = _build_graph_from_keys(
            hyper_edges(sf_dir), directed=False, tag="hyper-shared"
        )
        _HYPER_GRAPH_CACHE[sf_dir] = g
    return g


def _ps_graph_und(sf_dir: str, tag: str):
    """Undirected renumbered full-ps graph — 7 queries (pagerank, katz,
    hits, core_number, betweenness pair, degree_centrality, unrenumber
    tests) build this identical immutable graph; built once per
    (process, sf_dir) like :func:`_w3_subgraph` (the ``tag`` only ever
    named the scratch dir)."""
    g = _PS_GRAPH_CACHE.get(sf_dir)
    if g is None:
        g = _build_graph_from_keys(
            ps_edges_str(sf_dir), directed=False, tag="psund-shared"
        )
        _PS_GRAPH_CACHE[sf_dir] = g
    return g


# ---------------------------------------------------------------------------
# graph structural queries


def q_edge_table(sf_dir: str):
    return ps_edges(sf_dir)


def q_symmetrize(sf_dir: str):
    from raygraph.graph import symmetrize

    return symmetrize(ps_edges(sf_dir), dedup="min")


def q_degrees(sf_dir: str):
    """Degrees over the deduped directed ps edge table (endpoint vertices)."""
    e = ps_edges(sf_dir)

    def partials(t: pa.Table) -> pa.Table:
        src = t.column("src").to_numpy()
        dst = t.column("dst").to_numpy()
        sv, sc = np.unique(src, return_counts=True)
        dv, dc = np.unique(dst, return_counts=True)
        return pa.table(
            {
                "vertex": np.concatenate([sv, dv]),
                "out_degree": np.concatenate([sc, np.zeros(len(dv), np.int64)]),
                "in_degree": np.concatenate([np.zeros(len(sv), np.int64), dc]),
            }
        )

    from raygraph.agg import hash_aggregate

    p = e.map_batches(partials, batch_format="pyarrow")
    agg = hash_aggregate(
        p, ["vertex"],
        {"out_degree": ("out_degree", "sum"), "in_degree": ("in_degree", "sum")},
    )
    return agg.map_batches(
        lambda t: t.append_column(
            "degree", pa.compute.add(t.column("out_degree"), t.column("in_degree"))
        ),
        batch_format="pyarrow",
    )


def q_distinct_vertices(sf_dir: str):
    e = ps_edges_str(sf_dir)

    def proj(col):
        return lambda df: pd.DataFrame({"vertex_key": df[col]})

    from raygraph.agg import distinct

    s = e.map_batches(proj("src_key"), batch_format="pandas")
    d = e.map_batches(proj("dst_key"), batch_format="pandas")
    return distinct(s.union(d), ["vertex_key"])


def q_two_hop(sf_dir: str):
    """Two-hop pairs over the weight≥3 symmetrized ps subgraph."""
    from raygraph.graph import symmetrize
    from raygraph.ops import two_hop_pairs

    e = ps_edges(sf_dir).map_batches(
        lambda t: t.filter(pa.compute.greater_equal(t.column("weight"), 3.0)),
        batch_format="pyarrow",
    )
    sym = symmetrize(e, dedup="min").map_batches(
        lambda df: df[["src", "dst"]], batch_format="pandas"
    )
    return two_hop_pairs(sym)


def q_induced_subgraph(sf_dir: str):
    """ps edges restricted to parts with p_size > 25 (suppliers all kept)."""
    import pyarrow.parquet as pq
    import ray

    parts = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_size"]
    ).to_pandas()
    keep = parts.loc[parts["p_size"] > 25, "p_partkey"].to_numpy(np.int64)
    ref = ray.put(np.sort(keep))

    def fn(t: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        src = t.column("src").to_numpy()
        return t.filter(pa.array(np.isin(src, ks)))

    return ps_edges(sf_dir).map_batches(fn, batch_format="pyarrow")


def q_coarsen_brand(sf_dir: str):
    """Contract part vertices by p_brand: (brand, dst, weight-sum)."""
    import pyarrow.parquet as pq
    import ray

    from ray.data.aggregate import Sum

    parts = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_brand"]
    ).to_pandas().sort_values("p_partkey")
    ref = ray.put((parts["p_partkey"].to_numpy(), parts["p_brand"].to_numpy()))

    def relabel(df: pd.DataFrame) -> pd.DataFrame:
        karr, varr = ray.get(ref)
        pos = np.searchsorted(karr, df["src"].to_numpy())
        return pd.DataFrame(
            {
                "brand": varr[pos],
                "dst": df["dst"].to_numpy(),
                "weight": df["weight"].to_numpy(),
            }
        )

    from raygraph.agg import hash_aggregate

    r = ps_edges(sf_dir).map_batches(relabel, batch_format="pandas")
    return hash_aggregate(r, ["brand", "dst"], {"weight": ("weight", "sum")})


def q_hypergraph_events(sf_dir: str):
    """user↔event_type bipartite hypergraph edges with multiplicity weight."""
    rd = _rd()
    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_type"]
    )

    def key(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src_key": "user::" + df["user_id"].astype(str),
                "dst_key": "etype::" + df["event_type"].astype(str),
            }
        )

    from raygraph.agg import hash_aggregate

    e = ev.map_batches(key, batch_format="pandas")
    g = hash_aggregate(e, ["src_key", "dst_key"], {"n": (None, "count")})
    return g.map_batches(
        lambda df: pd.DataFrame(
            {
                "src_key": df["src_key"],
                "dst_key": df["dst_key"],
                "weight": df["n"].astype(np.float64),
            }
        ),
        batch_format="pandas",
    )


_USER_SYM_CACHE: dict = {}
_USER_SIM_CORE: dict = {}


def _user_etype_sym(sf_dir: str):
    """Symmetrized user–etype bipartite edge set, built ONCE per
    (process, sf_dir) and shared by the four similarity queries (the
    materialized Dataset is immutable, so reuse is side-effect free;
    a fresh process per query simply rebuilds once)."""
    sym = _USER_SYM_CACHE.get(sf_dir)
    if sym is not None:
        return sym
    from raygraph.agg import distinct
    from raygraph.graph import symmetrize

    rd = _rd()
    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_type"]
    )

    def key(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src_key": "user::" + df["user_id"].astype(str).str.zfill(6),
                "dst_key": "etype::" + df["event_type"].astype(str),
            }
        )

    e = ev.map_batches(key, batch_format="pandas")
    dedup = distinct(e, ["src_key", "dst_key"])
    dedup = dedup.map_batches(
        lambda df: df.assign(weight=1.0), batch_format="pandas"
    )
    sym = symmetrize(
        dedup.map_batches(
            lambda df: df.rename(columns={"src_key": "src", "dst_key": "dst"}),
            batch_format="pandas",
        ),
        dedup="min",
    ).map_batches(
        lambda df: df[["src", "dst"]], batch_format="pandas"
    ).materialize()
    _USER_SYM_CACHE[sf_dir] = sym
    return sym


def _user_similarity(sf_dir: str, kind: str, weighted: bool = False):
    """Shared pipeline for the jaccard/sorensen/overlap user queries:
    user–etype bipartite graph → pairwise coefficient over user pairs.

    ``weighted=True`` → reference ``wjaccard.py`` semantics with vertex
    weight w(v) = deg(v) (popularity-weighted; integer-valued doubles so
    every sum is exact and the coefficient is bit-reproducible in SQL)."""
    from raygraph.algos.similarity import pairwise_similarity

    sym = _user_etype_sym(sf_dir)
    if weighted:
        from raygraph.agg import hash_aggregate

        wts = hash_aggregate(sym, ["src"], {"deg": (None, "count")}).map_batches(
            lambda df: pd.DataFrame(
                {"vertex": df["src"],
                 "weight": df["deg"].to_numpy(np.float64)}
            ),
            batch_format="pandas",
        )
        sim = pairwise_similarity(
            sym, kind=kind, vertex_weights=wts,
            shared_state=_USER_SIM_CORE.setdefault(sf_dir, {}),
        )
    else:
        # the kind-independent core (pair common counts + endpoint
        # degrees) is shared across the jaccard/sorensen/overlap
        # queries in one process — only the finalize map differs
        sim = pairwise_similarity(
            sym, kind=kind,
            shared_state=_USER_SIM_CORE.setdefault(sf_dir, {}),
        )
    out = sim.map_batches(
        lambda df: df.loc[
            df["a"].str.startswith("user::") & df["b"].str.startswith("user::")
        ],
        batch_format="pandas",
    )
    ccol, kcol = ("wcommon", "w" + kind) if weighted else ("common", kind)
    return out.map_batches(
        lambda df, ccol=ccol, kcol=kcol, weighted=weighted: pd.DataFrame(
            {
                "a": df["a"],
                "b": df["b"],
                ccol: df["common"].astype(
                    np.float64 if weighted else np.int64
                ),
                kcol: df["coeff"].astype(np.float64),
            }
        ),
        batch_format="pandas",
    )


def q_jaccard_users(sf_dir: str):
    """Jaccard over user pairs in the user–etype bipartite graph."""
    return _user_similarity(sf_dir, "jaccard")


def q_sorensen_users(sf_dir: str):
    """Sørensen coefficient (2·common / (deg_a+deg_b)) over user pairs
    (``link_prediction/sorensen.py`` semantics)."""
    return _user_similarity(sf_dir, "sorensen")


def q_overlap_users(sf_dir: str):
    """Overlap coefficient (common / min(deg_a, deg_b)) over user pairs
    (``link_prediction/overlap.py`` semantics)."""
    return _user_similarity(sf_dir, "overlap")


def q_wjaccard_users(sf_dir: str):
    """Weighted Jaccard (``link_prediction/wjaccard.py`` jaccard_w) over
    user pairs with vertex weight w(v) = deg(v): wjaccard =
    vol(N(a)∩N(b)) / vol(N(a)∪N(b)) where vol(S) = Σ_{v∈S} deg(v)."""
    return _user_similarity(sf_dir, "jaccard", weighted=True)


# ---------------------------------------------------------------------------
# iterative algorithms (graph built from string-keyed edges, renumbered)


def q_wcc(sf_dir: str):
    """WCC over the weight≥3 ps subgraph; labels canonicalized to the min
    vertex_key string.  The subgraph keeps the SQL oracle tractable (a
    transitive-closure recursive CTE on the dense graph explodes) and gives
    a component structure that actually exercises label propagation."""
    from raygraph import joins
    from raygraph.agg import hash_aggregate
    from raygraph.algos import weakly_connected_components

    g = _w3_subgraph(sf_dir, "wcc")
    res = weakly_connected_components(g)
    keyed = g.unrenumber(res, "vertex")  # (vertex: str key, labels: vid)
    comp = hash_aggregate(keyed, ["labels"], {"component": ("vertex", "min")})
    out = joins.hash_join(keyed, comp, on="labels")
    return out.map_batches(
        lambda df: pd.DataFrame(
            {"vertex_key": df["vertex"], "component": df["component"]}
        ),
        batch_format="pandas",
    )


def q_pagerank(sf_dir: str):
    """PageRank (α=.85) on the undirected ps graph — exactly 20 power
    iterations (tol=0, ``fail_on_nonconvergence=False``) so the DuckDB
    oracle (the same 20 iterations unrolled as chained CTEs) is exact;
    both sides round to 6 decimals to absorb summation-order float noise.
    The converged tol-driven path stays pinned by tests/test_algorithms.py.
    No dangling vertices exist here (undirected, every vertex has an
    edge), so the oracle omits the dangling-mass term."""
    from raygraph.algos import pagerank

    g = _ps_graph_und(sf_dir, "pr")
    res = pagerank(g, alpha=0.85, tol=0.0, max_iter=20,
                   fail_on_nonconvergence=False)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {"vertex_key": df["vertex"],
             "pagerank": df["pagerank"].to_numpy(np.float64).round(6)}
        ),
        batch_format="pandas",
    )


def q_lpa(sf_dir: str):
    """Synchronous weighted-majority LPA, 20 rounds, on the UNRENUMBERED
    int-keyed ps graph — raw vertex ids make the min-label tie-break
    SQL-replicable, so this is hash-checked against the same 20 rounds
    unrolled as ROW_NUMBER CTEs in DuckDB (renumbered-graph LPA stays
    pinned by the pytest oracles in tests/test_algorithms.py)."""
    from raygraph import joins
    from raygraph.algos import label_propagation
    from raygraph.graph import Graph

    g = Graph.from_edges(
        ps_edges(sf_dir), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=8,
        out_dir=_tmpdir("lpa"),
    )
    res = label_propagation(g, max_iter=20)
    # keep only vertices that exist in the edge table (renumber=False
    # allocates dense state up to max id; isolated ids stay self-labeled)
    verts = g.edges_dataset(columns=["src"]).map_batches(
        lambda df: df.drop_duplicates("src").rename(columns={"src": "vertex"}),
        batch_format="pandas",
    )
    from raygraph.agg import distinct

    verts = distinct(verts, ["vertex"])
    out = joins.hash_join(res, verts, on="vertex")
    return out.map_batches(
        lambda df: pd.DataFrame(
            {"vertex": df["vertex"].to_numpy(np.int64),
             "label": df["label"].to_numpy(np.int64)}
        ),
        batch_format="pandas",
    )


def q_triangles(sf_dir: str):
    """Exact per-vertex triangle counts on the tripartite hyper graph."""
    from raygraph.algos.triangles import triangle_count

    g = _hyper_graph_und(sf_dir)
    res = triangle_count(g)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {"vertex_key": df["vertex"], "counts": df["counts"].astype(np.int64)}
        ),
        batch_format="pandas",
    )


def q_corpus_pagerank(sf_dir: str):
    """North-star corpus pipeline: synth corpus → ingest → derive → PageRank.

    Corpus is deterministic (seed 42) and sized by sf tier; rows-only check
    (the sha256 invariant and algorithm correctness are pinned in pytest).
    """
    from raygraph import corpus, derive
    from raygraph.algos import pagerank
    from raygraph.graph import Graph

    n = 2000
    cds = corpus.corpus_dataset(n, seed=42)
    edges = derive.derive_edges(cds)
    g = Graph.from_edges(
        edges, directed=False, num_partitions=8, out_dir=_tmpdir("corpus-pr")
    )
    res = pagerank(g, tol=1e-6, max_iter=200)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {"vertex_key": df["vertex"], "pagerank": df["pagerank"]}
        ),
        batch_format="pandas",
    )


# ---------------------------------------------------------------------------
# data-pipeline queries


def q_exact_dedup(sf_dir: str):
    from raygraph.data import dedup

    rd = _rd()
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    return dedup.exact_dedup(docs)


def q_ngram_jaccard(sf_dir: str):
    """Exact word-trigram Jaccard near-dup pairs (df-capped inverted-index
    blocking) over documents — hash-checked against the same set algebra
    in DuckDB."""
    from raygraph.data import dedup

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return dedup.ngram_jaccard_dedup(docs, n=3, threshold=0.3,
                                     max_doc_freq=50)


def q_token_count(sf_dir: str):
    from raygraph.data import text

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return text.token_count(docs)


def q_text_quality(sf_dir: str):
    from raygraph.data import text

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = text.quality_scores(docs)
    return out.map_batches(
        lambda df: df[["doc_id", "n_chars", "n_tokens", "punct_count"]],
        batch_format="pandas",
    )


def q_knn(sf_dir: str):
    """Top-10 cosine neighbors of the 3 lowest vec_ids (rank by rounded sim)."""
    import pyarrow.parquet as pq

    from raygraph.data import knn

    rd = _rd()
    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    emb = emb.sort_values("vec_id").head(3)
    Q = np.stack([np.asarray(v, np.float64) for v in emb["embedding"]])
    qids = emb["vec_id"].to_numpy(np.int64)
    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    top = knn.knn_bruteforce(ds, Q, qids, k=10)
    return top[["query_id", "neighbor_id", "rank"]]


def q_minhash_dedup(sf_dir: str):
    from raygraph.data import dedup

    rd = _rd()
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    return dedup.near_dedup_minhash(docs, threshold=0.7)


def q_simhash(sf_dir: str):
    from raygraph.data import dedup

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return dedup.simhash_signatures(docs)


def q_dup_spans(sf_dir: str):
    from raygraph.data import dedup

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return dedup.duplicate_ngram_spans(docs, n=8, min_docs=2)


def q_image_decode(sf_dir: str):
    """Multimodal decode round-trip over the documents table: each doc's
    first 64 codepoints (zero-padded) render a deterministic 8×8
    grayscale PNG (``multimodal.encode_png_gray``, stdlib zlib), which
    the actor-pool ``ImageDecodeStage`` decodes back for REAL
    (``multimodal.decode_png``) into dims + a 2×2 mean-pooled feature.
    Emitting the per-quadrant byte SUM (integer — f32·4080 recovers it
    exactly) makes the whole decode hash-checkable against SQL."""
    import pyarrow as pa

    from raygraph.data import multimodal

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def render(df: pd.DataFrame) -> "pa.Table":
        payloads = []
        for t in df["text"]:
            b = t[:64].encode("ascii")  # corpus contract: pure ASCII
            arr = np.zeros(64, np.uint8)
            arr[: len(b)] = np.frombuffer(b, np.uint8)
            payloads.append(multimodal.encode_png_gray(arr.reshape(8, 8)))
        return pa.table(
            {
                "item_id": pa.array(df["doc_id"].to_numpy(np.int64)),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    dec = multimodal.decode_images(
        docs.map_batches(render, batch_format="pandas"), feature_dim=4
    )

    def fin(t: "pa.Table") -> "pa.Table":
        f = np.asarray(t.column("feature").to_pylist(), dtype=np.float64)
        if f.size == 0:
            f = f.reshape(0, 4)
        sums = np.rint(f * 4080.0).astype(np.int64)  # mean/255 → byte sum
        return pa.table(
            {
                "doc_id": t.column("item_id"),
                "width": t.column("width").cast(pa.int64()),
                "height": t.column("height").cast(pa.int64()),
                "channels": t.column("channels").cast(pa.int64()),
                "f0": pa.array(sums[:, 0]),
                "f1": pa.array(sums[:, 1]),
                "f2": pa.array(sums[:, 2]),
                "f3": pa.array(sums[:, 3]),
            }
        )

    return dec.map_batches(fin, batch_format="pyarrow")


def q_json_extract(sf_dir: str):
    """Semi-structured extraction: events.props is a JSON payload; pull
    field ``k`` as int64 and aggregate per event_type."""
    from raygraph.agg import hash_aggregate
    from raygraph.data.semistructured import extract_json_field

    rd = _rd()
    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "props"]
    )
    ex = extract_json_field(ev, "k", col="props", as_type="int64")
    agg = hash_aggregate(
        ex, ["event_type"], {"sum_k": ("k", "sum"), "n": (None, "count")}
    )

    def cast(df):
        # nullable Int64 -> plain int64 for the driver's value hash
        df = df.copy()
        df["sum_k"] = df["sum_k"].astype("int64")
        return df

    return agg.map_batches(cast, batch_format="pandas")


def q_lang_id(sf_dir: str):
    from raygraph.data import text

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return text.language_id(docs)


def q_ivf_knn(sf_dir: str):
    """IVF ANN top-10 of the 3 lowest vec_ids (8 centroids, nprobe=4).
    Driver hash-checked vs a full DuckDB replay of the training loop
    (hash-stride sample → k-smallest-id init → 10 spherical-Lloyd
    iterations), list assignment, probe pruning and the exact rank-by-
    rounded-cosine top-k (``_ivf_knn_oracle_sql``)."""
    import pyarrow.parquet as pq

    from raygraph.data import knn

    rd = _rd()
    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    emb = emb.sort_values("vec_id").head(3)
    Q = np.stack([np.asarray(v, np.float64) for v in emb["embedding"]])
    qids = emb["vec_id"].to_numpy(np.int64)
    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    top = knn.knn_ivf(ds, Q, qids, k=10, nprobe=4, num_centroids=8)
    return top[["query_id", "neighbor_id", "rank"]]


def q_embed_dedup(sf_dir: str):
    """Embedding-cosine near-dup pairs (exact all-pairs ≥ 0.45, a < b) —
    hash-checked against a DuckDB cross-join oracle.  The LSH-bucketed
    variant is the scale path (pytest pins its recall)."""
    from raygraph.data import dedup

    rd = _rd()
    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    return dedup.embedding_near_dup_pairs(ds, threshold=0.45)


def q_tumbling(sf_dir: str):
    from raygraph.data import windows

    rd = _rd()
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"))
    out = windows.tumbling_window(ev, width_sec=300)
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "user_id": df["user_id"].astype(np.int64),
                "window_start": df["window_start"].astype(np.int64),
                "n_events": df["n_events"].astype(np.int64),
                "sum_value": df["sum_value"].round(6),
            }
        ),
        batch_format="pandas",
    )


def q_hopping(sf_dir: str):
    """Hopping (sliding) windows: 300 s width starting every 60 s — each
    event contributes to 5 overlapping windows."""
    from raygraph.data import windows

    rd = _rd()
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"))
    out = windows.hopping_window(ev, width_sec=300, slide_sec=60)
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "user_id": df["user_id"].astype(np.int64),
                "window_start": df["window_start"].astype(np.int64),
                "n_events": df["n_events"].astype(np.int64),
                "sum_value": df["sum_value"].round(6),
            }
        ),
        batch_format="pandas",
    )


def q_interval_join(sf_dir: str):
    """Point-in-interval join: attribute every event to its session
    (sessions from session_windows; intervals are non-overlapping per
    user by construction, so each event matches exactly one)."""
    from raygraph.data import windows
    from raygraph.joins import interval_join

    rd = _rd()
    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id"],
    )
    sess = windows.session_windows(ev, gap_sec=1800)

    def to_us(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype(np.int64),
                "event_id": df["event_id"].astype(np.int64),
                "us": df["ts"].astype("datetime64[us]").astype(np.int64),
            }
        )

    j = interval_join(
        ev.map_batches(to_us, batch_format="pandas"),
        sess,
        on="us", by="user_id",
        start_col="session_start", end_col="session_end",
    )
    return j.map_batches(
        lambda df: pd.DataFrame(
            {
                "user_id": df["user_id"].astype(np.int64),
                "event_id": df["event_id"].astype(np.int64),
                "session_start": df["session_start"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_tfidf(sf_dir: str):
    """Top-3 terms per document by tf·idf (idf = ln(N/df); rounded-then-
    ranked so ordering is SQL-exact; term-ascending tiebreak)."""
    from raygraph.data.text import tfidf_top_terms

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = tfidf_top_terms(docs, k=3)
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype(np.int64),
                "term": df["term"].astype(str),
                "tfidf": df["tfidf"].astype(np.float64),
            }
        ),
        batch_format="pandas",
    )


def q_quantiles(sf_dir: str):
    """Exact discrete quantiles of lineitem quantity (value-count
    aggregate → driver order statistics; bounded-distinct contract)."""
    from raygraph.data.stats import quantiles_disc

    rd = _rd()
    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=["l_quantity"]
    )
    out = quantiles_disc(li, "l_quantity", [0.25, 0.5, 0.75, 0.9])
    return pd.DataFrame(
        {"q": out["q"].astype(np.float64), "value": out["value"].astype(np.float64)}
    )


def q_repetition(sf_dir: str):
    """Gopher-style repetition quality signals per document."""
    from raygraph.data.quality import repetition_scores

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = repetition_scores(docs)
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype(np.int64),
                "n_lines": df["n_lines"].astype(np.int64),
                "dup_line_frac": df["dup_line_frac"].astype(np.float64),
                "top_bigram_frac": df["top_bigram_frac"].astype(np.float64),
            }
        ),
        batch_format="pandas",
    )


def q_hll_registers(sf_dir: str):
    """HyperLogLog register table (b=10) over lineitem part keys — the
    registers are a pure function of the value set (md5 item hash), so
    the approximate-distinct sketch itself is hash-exact vs SQL; the
    estimate accuracy is pinned by pytest."""
    from raygraph.data.sketch import hll_registers

    rd = _rd()
    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=["l_partkey"]
    )
    out = hll_registers(li, "l_partkey", b=10)
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "bucket": df["bucket"].astype(np.int64),
                "maxrank": df["maxrank"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_hash_sample(sf_dir: str):
    """Deterministic 25% document sample keyed on md5(doc_id) — stable
    under re-runs, resumes, and any parallelism."""
    from raygraph.data.sample import hash_sample

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    out = hash_sample(docs, "doc_id", rate=0.25)
    return out.map_batches(
        lambda df: pd.DataFrame({"doc_id": df["doc_id"].astype(np.int64)}),
        batch_format="pandas",
    )


def q_hash_split(sf_dir: str):
    """Stable 80/10/10 train/val/test assignment keyed on md5(doc_id)."""
    from raygraph.data.sample import hash_split

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    out = hash_split(
        docs, "doc_id", {"train": 0.8, "val": 0.1, "test": 0.1}
    )
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype(np.int64),
                "split": df["split"].astype(str),
            }
        ),
        batch_format="pandas",
    )


def q_stratified_sample(sf_dir: str):
    """Deterministic 25-docs-per-language sample: md5(doc_id)-ranked
    within each lang (combinable two-phase top-k — no skew blowup)."""
    from raygraph.data.sample import stratified_sample

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang"]
    )
    out = stratified_sample(docs, "lang", "doc_id", 25)
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype(np.int64),
                "lang": df["lang"].astype(str),
            }
        ),
        batch_format="pandas",
    )


def q_anti_join(sf_dir: str):
    """Exact distributed anti-join: orders whose customer is NOT in the
    BUILDING segment (right side reduced to distinct keys, broadcast
    once; the orders side filters map-only — no shuffle of the fact
    stream)."""
    from raygraph.joins import anti_join

    rd = _rd()
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    )
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    ).map_batches(
        lambda df: df[df["c_mktsegment"] == "BUILDING"][["c_custkey"]]
        .rename(columns={"c_custkey": "o_custkey"}),
        batch_format="pandas",
    )
    out = anti_join(orders, cust, on="o_custkey")
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].astype(np.int64),
                "o_custkey": df["o_custkey"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_quantiles_cont(sf_dir: str):
    """Exact quantiles of the continuous events.value column via the
    radix-refinement path (no bounded-cardinality contract; nothing
    globally sorted)."""
    from raygraph.data.stats import quantiles_cont

    rd = _rd()
    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["value"]
    )
    out = quantiles_cont(ev, "value", [0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
    return pd.DataFrame(
        {"q": out["q"].astype(np.float64), "value": out["value"].astype(np.float64)}
    )


def q_decontam(sf_dir: str):
    """Benchmark decontamination report: documents sharing any word
    3-gram with the benchmark slice (doc_id % 97 == 0) of the corpus.
    Benchmark grams broadcast once via ``ray.put``; the corpus side is a
    pure map — no shuffle.  (n=3 keeps planted overlap non-trivial in
    the synthetic corpus; production would use the GPT-3 n=13.)"""
    from raygraph.data import decontam

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    bench_texts = (
        docs.map_batches(
            lambda df: df[df["doc_id"] % 97 == 0], batch_format="pandas"
        )
        .to_pandas()["text"]
        .tolist()
    )
    ref = decontam.build_benchmark(bench_texts, n=3)
    rest = docs.map_batches(
        lambda df: df[df["doc_id"] % 97 != 0], batch_format="pandas"
    )
    out = decontam.contamination_report(rest, ref)
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype(np.int64),
                "n_hit_grams": df["n_hit_grams"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_seq_pack(sf_dir: str):
    """Sequence-packing offsets: global exclusive prefix sum of document
    token counts in doc_id order (distributed range-bucket scan), plus
    the first/last 512-token training-sequence index per document."""
    from raygraph.data import packing
    from raygraph.data.text import token_count

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    toks = token_count(docs)
    out = packing.sequence_offsets(toks, "n_tokens", "doc_id", seq_len=512)
    return out.map_batches(
        lambda df: pd.DataFrame(
            {c: df[c].astype(np.int64) for c in
             ["doc_id", "n_tokens", "start_offset", "first_seq", "last_seq"]}
        ),
        batch_format="pandas",
    )


def q_cms(sf_dir: str):
    """Count-Min sketch counter table (depth=4, width=512) over lineitem
    part keys — the counters are a pure function of the multiset (md5
    row-hash), so the sketch is hash-exact vs SQL; point-query accuracy
    is pinned by pytest."""
    from raygraph.data.cms import cms_table

    rd = _rd()
    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=["l_partkey"]
    )
    out = cms_table(li, "l_partkey", depth=4, width=512)
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "row_idx": df["row"].astype(np.int64),
                "col_idx": df["col"].astype(np.int64),
                "cnt": df["cnt"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_bloom_bits(sf_dir: str):
    """Bloom-filter bit table (m=8192, k=3) over BUILDING-segment
    customer keys — the set bits are a pure function of the key set (md5
    row-hashes), so the filter itself is hash-exact vs SQL."""
    from raygraph.data.bloom import bloom_bits

    rd = _rd()
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    ).map_batches(
        lambda df: df.loc[df["c_mktsegment"] == "BUILDING", ["c_custkey"]],
        batch_format="pandas",
    )
    out = bloom_bits(cust, "c_custkey", m_bits=8192, k=3)
    return out.map_batches(
        lambda df: pd.DataFrame({"bit": df["bit"].astype(np.int64)})
        if len(df) else pd.DataFrame({"bit": pd.Series(dtype=np.int64)}),
        batch_format="pandas",
    )


def q_bloom_semijoin(sf_dir: str):
    """Orders of BUILDING-segment customers via Bloom semi-join (map-only
    probe of the broadcast bitmap) + exact confirm join — exact inner
    semi-join semantics with no shuffle of the orders table beyond the
    (small) survivor set."""
    from raygraph.data.bloom import bloom_build, bloom_semi_join

    rd = _rd()
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    ).map_batches(
        lambda df: df.loc[df["c_mktsegment"] == "BUILDING", ["c_custkey"]]
        .rename(columns={"c_custkey": "o_custkey"}),
        batch_format="pandas",
    )
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    )
    bf = bloom_build(cust, "o_custkey", m_bits=1 << 16, k=4)
    out = bloom_semi_join(orders, bf, "o_custkey", exact_with=cust)
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].astype(np.int64),
                "o_custkey": df["o_custkey"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_topk_events(sf_dir: str):
    """Top-3 events per user by value (event_id tiebreak): per-key top-k
    with map-side combine (``agg.grouped_topk``)."""
    from raygraph.agg import grouped_topk

    rd = _rd()
    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_id", "value"],
    )
    out = grouped_topk(ev, ["user_id"], ["value", "event_id"], k=3)
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "user_id": df["user_id"].astype(np.int64),
                "event_id": df["event_id"].astype(np.int64),
                "value": df["value"].round(6),
            }
        ),
        batch_format="pandas",
    )


def q_sessionize(sf_dir: str):
    from raygraph.data import windows

    rd = _rd()
    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id"],
    )
    out = windows.session_windows(ev, gap_sec=1800)
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "user_id": df["user_id"].astype(np.int64),
                "session_start": df["session_start"].astype(np.int64),
                "session_end": df["session_end"].astype(np.int64),
                "n_events": df["n_events"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_ingest_sha256(sf_dir: str):
    """Ingest fingerprint stage over the documents table: text → sha256,
    content dropped in the same stage (``raygraph.ingest.ingest``).
    Hash-checked vs DuckDB ``sha256()``; the synthetic-corpus ingest
    invariant is pinned separately by pytest (`test_sources_prims.py`)."""
    from raygraph import ingest

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    renamed = docs.map_batches(
        lambda t: t.rename_columns(["doc_id", "content"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return ingest.ingest(renamed)




def q_louvain(sf_dir: str):
    """Louvain communities on the weight≥3 ps subgraph (rows-only check;
    deterministic: fixed tie-breaks + hash-parity half sweeps)."""
    from raygraph.algos.louvain import louvain

    g = _w3_subgraph(sf_dir, "louv")
    res, _q = louvain(g)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {"vertex_key": df["vertex"], "partition": df["partition"]}
        ),
        batch_format="pandas",
    )


def q_ecg(sf_dir: str):
    """ECG communities (ensemble of 8 salted single-level Louvain passes →
    co-membership reweight → final Louvain) on the weight≥3 subgraph
    (rows-only; determinism + structure pinned by pytest)."""
    from raygraph.algos.louvain import ecg

    g = _w3_subgraph(sf_dir, "ecg")
    res, _q = ecg(g, ensemble_size=8)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {"vertex_key": df["vertex"], "partition": df["partition"]}
        ),
        batch_format="pandas",
    )


def q_leiden(sf_dir: str):
    """Leiden communities (Louvain + constrained refinement before each
    contraction) on the weight≥3 subgraph (rows-only; partition validity,
    modularity ≥ Louvain's, and determinism pinned by pytest)."""
    from raygraph.algos.louvain import leiden

    g = _w3_subgraph(sf_dir, "leiden")
    res, _q = leiden(g)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {"vertex_key": df["vertex"], "partition": df["partition"]}
        ),
        batch_format="pandas",
    )


def q_spectral_cut(sf_dir: str):
    """Spectral balanced-cut clustering (4 clusters, 2 Laplacian
    eigenvectors via block power iteration) on the weight≥3 subgraph
    (rows-only; clique recovery + metric parity pinned by pytest)."""
    from raygraph.algos.spectral import spectral_balanced_cut_clustering

    g = _w3_subgraph(sf_dir, "speccut")
    res = spectral_balanced_cut_clustering(g, num_clusters=4,
                                           num_eigen_vects=2,
                                           evs_max_iter=40,
                                           kmean_max_iter=15)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {"vertex_key": df["vertex"], "cluster": df["cluster"]}
        ),
        batch_format="pandas",
    )


def q_clustering_metrics(sf_dir: str):
    """analyzeClustering_{edge_cut,ratio_cut,modularity} of a DETERMINISTIC
    4-way clustering (numeric id parity × key category) on the weight≥3
    subgraph — one row, hash-checked against the same formulas in DuckDB.
    Pins the distributed metric pass (two bucketed label joins + combiner
    aggregate) that the spectral clusterings also report through."""
    from raygraph.algos.spectral import analyze_clustering

    g = _w3_subgraph(sf_dir, "cmet")

    def rule(df: pd.DataFrame) -> pd.DataFrame:
        key = df["vertex_key"]
        num = key.str.split("::").str[1].astype(np.int64)
        cat = key.str.startswith("supp::").astype(np.int64)
        return pd.DataFrame(
            {"vertex": df["vid"].to_numpy(np.int64),
             "cluster": (num % 2 + 2 * cat).to_numpy(np.int64)}
        )

    clus = g.vmap_dataset().map_batches(rule, batch_format="pandas")
    m = analyze_clustering(g, clus)
    return pd.DataFrame(
        [{
            "edge_cut": round(m["edge_cut"], 6),
            "ratio_cut": round(m["ratio_cut"], 6),
            "modularity": round(m["modularity"], 6),
        }]
    )


def q_force_atlas2(sf_dir: str):
    """Force Atlas 2 layout (60 iterations) on the weight≥3 subgraph
    (rows-only; separation + determinism pinned by pytest)."""
    from raygraph.algos.layout import force_atlas2

    g = _w3_subgraph(sf_dir, "fa2")
    res = force_atlas2(g, max_iter=60)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {"vertex_key": df["vertex"],
             "x": df["x"].to_numpy(np.float64).round(4),
             "y": df["y"].to_numpy(np.float64).round(4)}
        ),
        batch_format="pandas",
    )


def q_assignment(sf_dir: str):
    """Batched Hungarian assignment: 50 independent 3×3 LAPs whose costs
    are lineitem quantity sums keyed by (orderkey%50, linenumber%3,
    suppkey%3); returns per-problem optimal cost — hash-checked against a
    DuckDB oracle that enumerates all 6 permutations."""
    from raygraph.algos.assignment import batched_dense_hungarian
    from raygraph.agg import hash_aggregate

    rd = _rd()
    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_suppkey", "l_quantity"],
    )

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"problem": (df["l_orderkey"].to_numpy(np.int64) % 50),
             "row": (df["l_linenumber"].to_numpy(np.int64) % 3),
             "col": (df["l_suppkey"].to_numpy(np.int64) % 3),
             "q": df["l_quantity"].to_numpy(np.float64)}
        )

    agg = hash_aggregate(
        li.map_batches(cells, batch_format="pandas"),
        ["problem", "row", "col"], {"cost": ("q", "sum")},
    ).to_pandas()  # ≤ 450 rows by construction
    # align missing cells with the oracle's COALESCE(…, 0); only problems
    # that appear in the data (the oracle's DISTINCT problem)
    probs = np.sort(agg["problem"].unique())
    full = pd.MultiIndex.from_product(
        [probs, range(3), range(3)], names=["problem", "row", "col"]
    ).to_frame(index=False)
    grid = full.merge(agg[["problem", "row", "col", "cost"]],
                      on=["problem", "row", "col"], how="left").fillna(0.0)
    out = batched_dense_hungarian(
        rd.from_pandas(grid), group_col="problem"
    )
    per = hash_aggregate(out, ["problem"], {"total_cost": ("cost", "sum")})
    return per.map_batches(
        lambda df: pd.DataFrame(
            {"problem": df["problem"].to_numpy(np.int64),
             "total_cost": df["total_cost"].to_numpy(np.float64).round(6)}
        ),
        batch_format="pandas",
    )


def q_katz(sf_dir: str):
    """Katz (α=.005, β=1) on the weighted ps graph — exactly 30
    iterations from x=0 with final L2 normalization (tol=0,
    ``fail_on_nonconvergence=False``), matched by the same 30 iterations
    unrolled as chained CTEs in DuckDB; both sides round to 6 decimals."""
    from raygraph.algos.centrality import katz_centrality

    g = _ps_graph_und(sf_dir, "katz")
    res = katz_centrality(g, alpha=0.005, beta=1.0, tol=0.0, max_iter=30,
                          fail_on_nonconvergence=False)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {"vertex_key": df["vertex"],
             "katz_centrality":
                 df["katz_centrality"].to_numpy(np.float64).round(6)}
        ),
        batch_format="pandas",
    )


def q_hits(sf_dir: str):
    """HITS on the weighted ps graph — exactly 30 hub/authority rounds
    (tol=0 never breaks early; ``hits`` returns the max_iter-th iterate
    without raising), matched by the unrolled chained-CTE oracle; both
    sides round to 6 decimals."""
    from raygraph.algos.centrality import hits

    g = _ps_graph_und(sf_dir, "hits")
    res = hits(g, tol=0.0, max_iter=30)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {
                "vertex_key": df["vertex"],
                "hubs": df["hubs"].to_numpy(np.float64).round(6),
                "authorities":
                    df["authorities"].to_numpy(np.float64).round(6),
            }
        ),
        batch_format="pandas",
    )


def _min_key_vid(g) -> int:
    """Internal vid of the globally-minimum external key."""
    return _min_key_vids(g, 1)[0]


def _min_key_vids(g, n: int, prefix: Optional[str] = None) -> list:
    """Internal vids of the n smallest external keys (of those starting
    with ``prefix``, if given), ascending by key.  Up to
    ``broadcast_limit`` vertices they come from the handle's key column
    (keys are distinct: no ties); past it, from per-batch partial top-n
    and a tiny driver merge, so the driver never holds the vmap."""
    from raygraph.graph import DEFAULT_BROADCAST_LIMIT

    if g.num_vertices <= DEFAULT_BROADCAST_LIMIT:
        keys = g.vertex_keys()
        vids = (np.arange(len(keys)) if prefix is None else
                np.flatnonzero(pc.starts_with(keys, prefix).to_numpy(
                    zero_copy_only=False)))
        order = pc.sort_indices(keys.take(vids)).to_numpy()[:n]
        return [int(v) for v in vids[order]]

    def top(df: pd.DataFrame) -> pd.DataFrame:
        if prefix is not None:
            df = df[df["vertex_key"].str.startswith(prefix)]
        return df.sort_values("vertex_key").head(n)

    part = g.vmap_dataset().map_batches(top, batch_format="pandas").to_pandas()
    return [int(v) for v in part.sort_values("vertex_key").head(n)["vid"]]


def _key_vids(g, keys: list) -> np.ndarray:
    """Internal vids of the external ``keys``: from the handle's key column
    up to ``broadcast_limit`` vertices, else by a filtered vmap scan."""
    from raygraph.graph import DEFAULT_BROADCAST_LIMIT

    if g.num_vertices <= DEFAULT_BROADCAST_LIMIT:
        col = g.vertex_keys()
        return np.flatnonzero(
            pc.is_in(col, pa.array(keys, col.type)).to_numpy(
                zero_copy_only=False))
    return g.vmap_dataset().map_batches(
        lambda df: df[df["vertex_key"].isin(keys)], batch_format="pandas",
    ).to_pandas()["vid"].to_numpy(np.int64)


_W3_CACHE: dict = {}


def _w3_subgraph(sf_dir: str, tag: str):
    """Undirected graph over the weight≥3 ps subgraph (the same sparse
    subgraph the wcc oracle uses — keeps recursive-CTE oracles tractable).

    17 queries consume this identical immutable graph; it is built ONCE
    per (process, sf_dir) and shared — a Graph handle is read-only after
    construction, so reuse is side-effect free (the per-query ``tag``
    only ever named the scratch dir).  Saves ~3s × 16 rebuilds in a
    same-process sweep; a fresh process per query (the driver's shape)
    simply rebuilds once."""
    g = _W3_CACHE.get(sf_dir)
    if g is None:
        edges = ps_edges_str(sf_dir).map_batches(
            lambda df: df[df["weight"] >= 3.0], batch_format="pandas"
        )
        g = _build_graph_from_keys(edges, directed=False, tag="w3shared")
        _W3_CACHE[sf_dir] = g
    return g


def q_bfs(sf_dir: str):
    """BFS distances from the min external key on the weight≥3 subgraph.

    Driver hash-checked vs a distance-bounded recursive-CTE frontier walk
    (unreached vertices report −1, the cuGraph convention)."""
    from raygraph.algos.traversal import bfs

    g = _w3_subgraph(sf_dir, "bfs")
    res = bfs(g, _min_key_vid(g))
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {
                "vertex_key": df["vertex"],
                "distance": df["distance"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_sssp(sf_dir: str):
    """Weighted SSSP from the min external key on the weight≥3 subgraph.

    Edge weights are the (integer) duplicate counts, so the recursive-CTE
    oracle's (vertex, dist) pair space stays finite; unreached → −1."""
    from raygraph.algos.traversal import sssp

    g = _w3_subgraph(sf_dir, "sssp")
    res = sssp(g, _min_key_vid(g))
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {
                "vertex_key": df["vertex"],
                "distance": np.where(
                    np.isinf(df["distance"].to_numpy()), -1.0,
                    df["distance"].to_numpy(),
                ),
            }
        ),
        batch_format="pandas",
    )


def q_asof_join(sf_dir: str):
    """As-of join on the events table: each click event picks the latest
    view event of the same user at-or-before its timestamp (hash-checked
    against DuckDB's native ASOF JOIN).  The right side is pre-aggregated
    unique per (user, ts) so tie-picking is deterministic on both sides."""
    from raygraph import joins
    from raygraph.agg import hash_aggregate

    rd = _rd()
    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )
    clicks = ev.map_batches(
        lambda df: df.loc[df["event_type"] == "click",
                          ["event_id", "user_id", "ts"]]
        .rename(columns={"event_id": "click_event"}),
        batch_format="pandas",
    )
    views = hash_aggregate(
        ev.map_batches(
            lambda df: df.loc[df["event_type"] == "view",
                              ["user_id", "ts", "event_id", "value"]],
            batch_format="pandas",
        ),
        ["user_id", "ts"],
        {"view_event": ("event_id", "max"), "view_value": ("value", "max")},
    )
    out = joins.asof_join(clicks, views, on="ts", by="user_id",
                          direction="backward")
    return out.map_batches(
        lambda df: pd.DataFrame(
            {"click_event": df["click_event"].to_numpy(np.int64),
             "view_event": df["view_event"].to_numpy(np.int64),
             "view_value": df["view_value"].to_numpy(np.float64)}
        ),
        batch_format="pandas",
    )


def q_kmeans(sf_dir: str):
    """Fixed-iteration Lloyd's k-means (k=8, 5 iterations, L2) over the
    embeddings table — integer cluster assignments, hash-checked against
    the same Lloyd iterations unrolled as chained CTEs in DuckDB.
    Deterministic: init = the 8 smallest vec_ids' embeddings, ties break
    to the lowest centroid id on both sides."""
    from raygraph.data.kmeans import kmeans

    rd = _rd()
    emb = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    assign, _ = kmeans(emb, k=8, iters=5)
    return assign


def q_fingerprint(sf_dir: str):
    from raygraph.data import text

    rd = _rd()
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return text.fingerprint(docs)



def q_core_number(sf_dir: str):
    """Core numbers of the undirected ps graph (rows-only; exact peeling)."""
    from raygraph.algos.cores import core_number

    g = _ps_graph_und(sf_dir, "core")
    res = core_number(g)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {"vertex_key": df["vertex"],
             "core_number": df["core_number"].astype(np.int64)}
        ),
        batch_format="pandas",
    )


def q_mst_int(sf_dir: str):
    """Minimum spanning forest of the UNRENUMBERED int-keyed ps graph —
    raw vertex ids make the strict (weight, a, b) tie-break SQL-visible,
    so the unique forest is hash-checked against a round-unrolled Borůvka
    replay in DuckDB (``_mst_oracle_sql``: per-component min crossing
    edge + min-label closure per round).  The string-keyed ``mst`` stays
    rows-only (its tie order rides on the SipHash renumbering)."""
    from raygraph.algos.mst import minimum_spanning_tree
    from raygraph.graph import Graph

    g = Graph.from_edges(
        ps_edges(sf_dir), src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=8,
        out_dir=_tmpdir("mstint"),
    )
    e = minimum_spanning_tree(g)
    return e.map_batches(
        lambda df: pd.DataFrame(
            {"src": df["src"].to_numpy(np.int64),
             "dst": df["dst"].to_numpy(np.int64),
             "weight": df["weight"].to_numpy(np.float64)}
        ),
        batch_format="pandas",
    )


def q_mst(sf_dir: str):
    """Minimum spanning forest of the weight≥3 ps subgraph (rows-only;
    ties broken by the strict (weight, internal-vid) total order, which
    makes the forest unique — pinned exactly vs a Kruskal union-find
    oracle under the same order in ``tests/test_mst.py``; the SipHash
    renumbering hides that order from SQL, so the int-keyed sibling
    ``mst_int`` carries the exact DuckDB oracle)."""
    from raygraph.algos.mst import minimum_spanning_tree

    g = _w3_subgraph(sf_dir, "mst")
    e = minimum_spanning_tree(g)
    e = g.unrenumber(e, "src")
    e = g.unrenumber(e, "dst")
    return e.map_batches(
        lambda df: pd.DataFrame(
            {"src_key": np.minimum(df["src"], df["dst"]),
             "dst_key": np.maximum(df["src"], df["dst"]),
             "weight": df["weight"].to_numpy(np.float64)}
        ),
        batch_format="pandas",
    )


def q_k_truss(sf_dir: str):
    """3-truss edges of the tripartite hyper graph, hash-checked against
    an unrolled chained-CTE DuckDB peel oracle (each stage recomputes
    per-edge triangle support and drops < k−2; converged stages are
    idempotent so extra stages are safe).  k=3 converges in one support
    round here — every hyper edge is born in a p–s–o triangle — which
    keeps the query inside the driver's per-query budget; the deep
    multi-round peel (k=4/k=5) is pinned by the pytest peel oracle and
    the reference polbooks golden-file replay in tests/."""
    from raygraph.algos.truss import k_truss

    g = _hyper_graph_und(sf_dir)
    e = k_truss(g, 3)
    e = g.unrenumber(e, "src")
    e = g.unrenumber(e, "dst")
    return e.map_batches(
        lambda df: pd.DataFrame(
            {
                "src_key": np.minimum(df["src"], df["dst"]),
                "dst_key": np.maximum(df["src"], df["dst"]),
            }
        ),
        batch_format="pandas",
    )


def q_betweenness(sf_dir: str):
    """Sampled Brandes betweenness on the weight≥3 subgraph from the 16
    lexicographically-smallest vertex keys (an explicit, SQL-expressible
    source set — the seeded-hash sampler stays pinned by pytest).  Driver
    hash-checked vs a level-unrolled Brandes replay in DuckDB
    (``_betweenness_oracle_sql``); the gate column is a scaled integer
    (half-away-from-zero ×1e6 on both sides — np.round's half-to-even
    vs DuckDB ROUND's half-away flapped the hash on representable
    ties)."""
    from raygraph.algos.centrality import betweenness_centrality

    g = _w3_subgraph(sf_dir, "bc")
    res = betweenness_centrality(g, sources=_min_key_vids(g, 16),
                                 normalized=True)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {
                "vertex_key": df["vertex"],
                "betweenness_e6": _scale_e6(
                    df["betweenness_centrality"].to_numpy(np.float64)),
            }
        ),
        batch_format="pandas",
    )


def q_node2vec(sf_dir: str):
    """node2vec biased walks (p=2, q=0.5) from the 5 lowest part keys on
    the weight≥3 subgraph (rows-only; bias semantics + determinism pinned
    by pytest)."""
    from raygraph.algos.sampling import node2vec_walks

    g = _w3_subgraph(sf_dir, "n2v")
    starts = np.array(_min_key_vids(g, 5, prefix="part::"), np.int64)
    walks = node2vec_walks(g, starts, max_length=5, p=2.0, q=0.5, seed=42)
    return g.unrenumber(walks, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {
                "walker": df["walker"].astype(np.int64),
                "step": df["step"].astype(np.int64),
                "vertex_key": df["vertex"],
            }
        ),
        batch_format="pandas",
    )


def q_bfs_paths(sf_dir: str):
    """Source→destination BFS path unwind (extract_bfs_paths) for the 5
    highest reached keys on the weight≥3 subgraph (rows-only: path choice
    follows the engine's min-internal-vid predecessor tie-break, which SQL
    cannot reproduce; validity pinned by pytest)."""
    from raygraph.algos.traversal import bfs, extract_bfs_paths

    g = _w3_subgraph(sf_dir, "bfsp")
    res = bfs(g, _min_key_vid(g)).materialize()
    reached = res.map_batches(
        lambda df: df.loc[df["distance"] >= 1, ["vertex"]],
        batch_format="pandas",
    )
    keyed = g.unrenumber(reached, "vertex").map_batches(
        lambda df: df.sort_values("vertex", ascending=False).head(5),
        batch_format="pandas",
    ).to_pandas().sort_values("vertex", ascending=False).head(5)
    paths = extract_bfs_paths(g, res, _key_vids(g, keyed["vertex"].tolist()))
    out = g.unrenumber(paths, "dest")
    out = g.unrenumber(out, "vertex")
    return out.map_batches(
        lambda df: pd.DataFrame(
            {
                "dest_key": df["dest"],
                "pos": df["pos"].astype(np.int64),
                "vertex_key": df["vertex"],
            }
        ),
        batch_format="pandas",
    )


def q_scc(sf_dir: str):
    """SCC on a directed graph with real cycles: part→supp where count≥3
    plus the reverse supp→part where count≥4 (2-cycles wherever count≥4).
    Labels canonicalized to the min vertex_key; hash-checked against a
    transitive-closure mutual-reach oracle."""
    from raygraph import joins
    from raygraph.agg import hash_aggregate
    from raygraph.algos import strongly_connected_components

    e = ps_edges_str(sf_dir)
    fwd = e.map_batches(
        lambda df: df.loc[df["weight"] >= 3.0, ["src_key", "dst_key"]],
        batch_format="pandas",
    )
    bwd = e.map_batches(
        lambda df: pd.DataFrame(
            {
                "src_key": df.loc[df["weight"] >= 4.0, "dst_key"],
                "dst_key": df.loc[df["weight"] >= 4.0, "src_key"],
            }
        ),
        batch_format="pandas",
    )
    edges = fwd.union(bwd).map_batches(
        lambda df: df.assign(weight=1.0), batch_format="pandas"
    )
    g = _build_graph_from_keys(edges, directed=True, tag="scc")
    res = strongly_connected_components(g)
    keyed = g.unrenumber(res, "vertex")  # (vertex: str key, labels: vid)
    comp = hash_aggregate(keyed, ["labels"], {"component": ("vertex", "min")})
    out = joins.hash_join(keyed, comp, on="labels")
    return out.map_batches(
        lambda df: pd.DataFrame(
            {"vertex_key": df["vertex"], "component": df["component"]}
        ),
        batch_format="pandas",
    )


def q_eigenvector(sf_dir: str):
    """Eigenvector centrality on the tripartite hyper graph — exactly 50
    normalized power iterations (tol=0, ``fail_on_nonconvergence=False``)
    matched by the unrolled chained-CTE oracle; both sides round to 6
    decimals.  The hyper graph is non-bipartite (p–s–o triangles), so
    power iteration converges — the bipartite ps graph oscillates between
    the ±λ eigenpair.  The tol-driven path stays pinned by pytest."""
    from raygraph.algos.centrality import eigenvector_centrality

    g = _hyper_graph_und(sf_dir)
    res = eigenvector_centrality(g, tol=0.0, max_iter=50,
                                 fail_on_nonconvergence=False)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {
                "vertex_key": df["vertex"],
                "eigenvector_centrality":
                    df["eigenvector_centrality"].to_numpy(np.float64).round(6),
            }
        ),
        batch_format="pandas",
    )


def q_random_walks(sf_dir: str):
    """Seeded uniform random walks from the 5 lowest part keys (rows-only;
    determinism pinned by pytest)."""
    from raygraph.algos.sampling import random_walks

    g = _w3_subgraph(sf_dir, "rw")
    starts = np.array(_min_key_vids(g, 5, prefix="part::"), np.int64)
    walks = random_walks(g, starts, max_length=4, seed=42)
    return g.unrenumber(walks, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {
                "walker": df["walker"].astype(np.int64),
                "step": df["step"].astype(np.int64),
                "vertex_key": df["vertex"],
            }
        ),
        batch_format="pandas",
    )


def q_walks_int(sf_dir: str):
    """Uniform random walks (max_length=4, seed=42) on the UNRENUMBERED
    int-keyed ps graph — raw vertex ids make the walk CSR's sorted-by-dst
    candidate order SQL-visible, so the whole (seed, walker, step)
    splitmix64 draw chain is hash-checked against a step-unrolled DuckDB
    replay (``_walks_oracle_sql``).  The renumbered/string-keyed walk
    queries stay rows-only + pytest-pinned."""
    from raygraph.algos.sampling import random_walks
    from raygraph.graph import Graph

    e = ps_edges(sf_dir)
    g = Graph.from_edges(
        e, src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=8,
        out_dir=_tmpdir("rwint"),
    )
    lows = e.map_batches(
        lambda df: df[["src"]].drop_duplicates().nsmallest(6, "src"),
        batch_format="pandas",
    ).to_pandas()
    starts = np.sort(lows["src"].unique())[:6]
    walks = random_walks(g, starts, max_length=4, seed=42)
    return walks.map_batches(
        lambda df: pd.DataFrame(
            {
                "walker": df["walker"].to_numpy(np.int64),
                "step": df["step"].to_numpy(np.int64),
                "vertex": df["vertex"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_bfs_paths_int(sf_dir: str):
    """BFS path unwind (extract_bfs_paths) on the UNRENUMBERED int-keyed
    ps graph: with raw ids the engine's min-internal-vid predecessor
    tie-break equals MIN(neighbor id at distance d−1), which SQL states
    directly — so the whole source→destination path set is hash-checked
    (the string-keyed ``bfs_paths`` stays rows-only)."""
    from raygraph.algos.traversal import bfs, extract_bfs_paths
    from raygraph.graph import Graph

    e = ps_edges(sf_dir)
    g = Graph.from_edges(
        e, src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=8,
        out_dir=_tmpdir("bfspint"),
    )
    src = int(
        e.map_batches(
            lambda df: df[["src"]].nsmallest(1, "src"), batch_format="pandas"
        ).to_pandas()["src"].min()
    )
    res = bfs(g, src).materialize()
    reached = res.map_batches(
        lambda df: df.loc[df["distance"] >= 1, ["vertex"]].nlargest(5, "vertex"),
        batch_format="pandas",
    ).to_pandas()
    dests = np.sort(reached["vertex"].unique())[-5:]
    paths = extract_bfs_paths(g, res, dests)
    return paths.map_batches(
        lambda df: pd.DataFrame(
            {
                "dest": df["dest"].to_numpy(np.int64),
                "pos": df["pos"].to_numpy(np.int64),
                "vertex": df["vertex"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_neighbor_sample_int(sf_dir: str):
    """Multi-hop uniform neighbor sampling (fanouts [3, 2], seed 42) on
    the UNRENUMBERED int-keyed ps graph — per-edge seeded uniforms +
    stable argsort become ROW_NUMBER ranks in SQL, so the sample is
    hash-checked (``_neighbor_sample_oracle_sql``); the string-keyed
    ``neighbor_sample`` stays rows-only + pytest-pinned."""
    from raygraph.algos.sampling import uniform_neighbor_sample
    from raygraph.graph import Graph

    e = ps_edges(sf_dir)
    g = Graph.from_edges(
        e, src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=8,
        out_dir=_tmpdir("nsint"),
    )
    lows = e.map_batches(
        lambda df: df[["src"]].drop_duplicates().nsmallest(6, "src"),
        batch_format="pandas",
    ).to_pandas()
    starts = np.sort(lows["src"].unique())[:6]
    samp = uniform_neighbor_sample(g, starts, fanouts=[3, 2], seed=42)
    return samp.map_batches(
        lambda df: pd.DataFrame(
            {
                "hop": df["hop"].to_numpy(np.int64),
                "src": df["src"].to_numpy(np.int64),
                "dst": df["dst"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_biased_walks(sf_dir: str):
    """Edge-weight-biased random walks from the 5 lowest part keys on the
    FULL weighted ps graph (weights = lineitem co-occurrence counts, so the
    bias is non-trivial).  Rows-only; weight-proportional draw pinned by
    pytest distribution/extreme-weight tests."""
    from raygraph.algos.sampling import biased_random_walks

    g = _ps_graph_und(sf_dir, "bw")
    starts = np.array(_min_key_vids(g, 5, prefix="part::"), np.int64)
    walks = biased_random_walks(g, starts, max_length=4, seed=42)
    return g.unrenumber(walks, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {
                "walker": df["walker"].astype(np.int64),
                "step": df["step"].astype(np.int64),
                "vertex_key": df["vertex"],
            }
        ),
        batch_format="pandas",
    )


def q_biased_walks_int(sf_dir: str):
    """Edge-weight-biased random walks (max_length=4, seed=42) on the
    UNRENUMBERED int-keyed weighted ps graph.  Weights are lineitem
    co-occurrence counts — exact integers — so the engine's row-local
    inverse-CDF draw (first dst-sorted neighbor whose running weight sum
    exceeds u·total, ``superstep.walk_step_scatter``) is exact float64
    arithmetic end-to-end and hash-checked against the step-unrolled
    DuckDB replay ``_biased_walks_oracle_sql``.  The renumbered
    string-keyed ``biased_walks`` stays rows-only + pytest-pinned."""
    from raygraph.algos.sampling import biased_random_walks
    from raygraph.graph import Graph

    e = ps_edges(sf_dir)
    g = Graph.from_edges(
        e, src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=8,
        out_dir=_tmpdir("bwint"),
    )
    lows = e.map_batches(
        lambda df: df[["src"]].drop_duplicates().nsmallest(6, "src"),
        batch_format="pandas",
    ).to_pandas()
    starts = np.sort(lows["src"].unique())[:6]
    walks = biased_random_walks(g, starts, max_length=4, seed=42)
    return walks.map_batches(
        lambda df: pd.DataFrame(
            {
                "walker": df["walker"].to_numpy(np.int64),
                "step": df["step"].to_numpy(np.int64),
                "vertex": df["vertex"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_node2vec_int(sf_dir: str):
    """node2vec walks (p=2, q=0.5, max_length=4, seed=42) on the
    UNRENUMBERED int-keyed weighted ps graph.  1/p and 1/q are powers of
    two and weights are co-occurrence counts, so every w·α term is an
    exact dyadic float64 — the engine's vectorized segmented draw
    (``superstep.n2v_move_scatter``) is exact arithmetic end-to-end and
    hash-checked against the step-unrolled DuckDB replay
    ``_node2vec_oracle_sql`` (the renumbered ``node2vec`` stays
    rows-only + pytest-pinned)."""
    from raygraph.algos.sampling import node2vec_walks
    from raygraph.graph import Graph

    e = ps_edges(sf_dir)
    g = Graph.from_edges(
        e, src="src", dst="dst", weight="weight",
        directed=False, renumber=False, num_partitions=8,
        out_dir=_tmpdir("n2vint"),
    )
    lows = e.map_batches(
        lambda df: df[["src"]].drop_duplicates().nsmallest(6, "src"),
        batch_format="pandas",
    ).to_pandas()
    starts = np.sort(lows["src"].unique())[:6]
    walks = node2vec_walks(g, starts, max_length=4, p=2.0, q=0.5, seed=42)
    return walks.map_batches(
        lambda df: pd.DataFrame(
            {
                "walker": df["walker"].to_numpy(np.int64),
                "step": df["step"].to_numpy(np.int64),
                "vertex": df["vertex"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_bigram_pmi(sf_dir: str):
    """Corpus-wide bigram collocation (PMI) over documents, c12 ≥ 5 —
    exact vs a DuckDB replay whose float expression mirrors the Ray
    kernel operation for operation (``_bigram_pmi_oracle_sql``)."""
    from raygraph.data.text import bigram_pmi

    docs = _rd().read_parquet(os.path.join(sf_dir, "documents.parquet"))
    return bigram_pmi(docs, min_count=5)


def q_k_core(sf_dir: str):
    """Edges of the 2-core of the weight≥3 subgraph (rows-only; exact
    peeling pinned by pytest)."""
    from raygraph.algos.cores import k_core

    g = _w3_subgraph(sf_dir, "kcore")
    e = k_core(g, k=2)
    e = g.unrenumber(e, "src")
    e = g.unrenumber(e, "dst")
    return e.map_batches(
        lambda df: pd.DataFrame(
            {
                "src_key": df["src"],
                "dst_key": df["dst"],
                "weight": df["weight"].astype(np.float64),
            }
        ),
        batch_format="pandas",
    )


def q_ms_bfs(sf_dir: str):
    """Concurrent multi-source BFS (one bit-packed wave) from the 3 min-key
    seeds of the weight≥3 subgraph, melted to (seed_key, vertex_key,
    distance) rows.  Hash-checked vs a per-seed distance-bounded
    recursive-CTE walk."""
    from raygraph.algos.traversal import multi_source_bfs

    g = _w3_subgraph(sf_dir, "msbfs")
    seeds = _min_key_vids(g, 3)
    out = multi_source_bfs(g, seeds)

    key_of = {}
    for s in seeds:
        kdf = g.unrenumber(
            _rd().from_pandas(pd.DataFrame({"vertex": [s]})), "vertex"
        ).to_pandas()
        key_of[s] = kdf["vertex"].iloc[0]

    def melt(df: pd.DataFrame) -> pd.DataFrame:
        frames = [
            pd.DataFrame(
                {
                    "seed_key": key_of[s],
                    "vertex": df["vertex"],
                    "distance": df[f"distance_{s}"].astype(np.int64),
                }
            )
            for s in seeds
        ]
        return pd.concat(frames, ignore_index=True)

    long = out.map_batches(melt, batch_format="pandas")
    return g.unrenumber(long, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {
                "seed_key": df["seed_key"],
                "vertex_key": df["vertex"],
                "distance": df["distance"],
            }
        ),
        batch_format="pandas",
    )


def q_edge_betweenness(sf_dir: str):
    """Sampled edge betweenness on the weight≥3 subgraph from the 16
    smallest vertex keys (explicit SQL-expressible sources — the seeded
    sampler stays pinned by pytest).  Driver hash-checked vs the
    level-unrolled Brandes replay (``_betweenness_oracle_sql(edges=True)``);
    scaled-int gate column (half-away ×1e6, see ``q_betweenness``)."""
    from raygraph.algos.centrality import edge_betweenness_centrality

    g = _w3_subgraph(sf_dir, "ebc")
    res = edge_betweenness_centrality(g, sources=_min_key_vids(g, 16),
                                      normalized=True)
    res = g.unrenumber(res, "src")
    res = g.unrenumber(res, "dst")
    return res.map_batches(
        lambda df: pd.DataFrame(
            {
                "src_key": df["src"],
                "dst_key": df["dst"],
                "betweenness_e6": _scale_e6(
                    df["betweenness_centrality"].to_numpy(np.float64)),
            }
        ),
        batch_format="pandas",
    )


def q_degree_centrality(sf_dir: str):
    """Degree centrality on the undirected string-keyed ps graph.
    Hash-checked: degree (both stored directions) / (V-1)."""
    from raygraph.algos.centrality import degree_centrality

    g = _ps_graph_und(sf_dir, "dc")
    res = degree_centrality(g)
    return g.unrenumber(res, "vertex").map_batches(
        lambda df: pd.DataFrame(
            {
                "vertex_key": df["vertex"],
                "degree_centrality": df["degree_centrality"].round(9),
            }
        ),
        batch_format="pandas",
    )


def q_egonet(sf_dir: str):
    """Batched 2-hop ego graphs around the 3 min-key seeds of the weight≥3
    subgraph.  Hash-checked vs a per-seed distance-bounded recursive-CTE
    frontier walk."""
    from raygraph.algos.egonet import batched_ego_graphs

    g = _w3_subgraph(sf_dir, "ego")
    e = batched_ego_graphs(g, _min_key_vids(g, 3), radius=2)
    for c in ("seed", "src", "dst"):
        e = g.unrenumber(e, c)
    return e.map_batches(
        lambda df: pd.DataFrame(
            {
                "seed_key": df["seed"],
                "src_key": df["src"],
                "dst_key": df["dst"],
                "weight": df["weight"].astype(np.float64),
            }
        ),
        batch_format="pandas",
    )


def q_property_extract(sf_dir: str):
    """PropertyGraph select+extract: two typed edge tables (orders
    cust→ord, lineitem ord→part) filtered by a per-type selector, projected
    to a Graph, edge table returned with external keys.  Hash-checked."""
    from raygraph.property_graph import PropertyGraph

    rd = _rd()
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    ).map_batches(
        lambda df: pd.DataFrame(
            {
                "cust": "cust::" + df["o_custkey"].astype(str),
                "ord": "ord::" + df["o_orderkey"].astype(str),
                "o_totalprice": df["o_totalprice"],
            }
        ),
        batch_format="pandas",
    )
    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey", "l_quantity"],
    ).map_batches(
        lambda df: pd.DataFrame(
            {
                "ord": "ord::" + df["l_orderkey"].astype(str),
                "prt": "part::" + df["l_partkey"].astype(str),
                "l_quantity": df["l_quantity"],
            }
        ),
        batch_format="pandas",
    )
    pg = PropertyGraph()
    pg.add_edge_data(orders, src_col="cust", dst_col="ord", type_name="placed")
    pg.add_edge_data(li, src_col="ord", dst_col="prt", type_name="contains")

    def sel(df: pd.DataFrame):
        if "l_quantity" in df.columns:
            return df["l_quantity"] >= 30
        return df["o_totalprice"] > 50_000

    g = pg.extract_subgraph(
        edge_selector=sel, directed=True, dedup="sum",
        num_partitions=8, out_dir=_tmpdir("pextract"),
    )
    e = g.unrenumber(g.edges_dataset(), "src")
    e = g.unrenumber(e, "dst")
    return e.map_batches(
        lambda df: pd.DataFrame(
            {
                "src_key": df["src"],
                "dst_key": df["dst"],
                "weight": df["weight"].astype(np.float64),
            }
        ),
        batch_format="pandas",
    )


def q_neighbor_sample(sf_dir: str):
    """Deterministic 2-hop uniform neighbor sample from the 5 lowest-id
    part vertices (rows-only; seeded counter-stream RNG)."""
    from raygraph.algos.sampling import uniform_neighbor_sample

    g = _ps_graph_und(sf_dir, "uns")
    starts = np.array(_min_key_vids(g, 5, prefix="part::"), np.int64)
    return uniform_neighbor_sample(g, starts, fanouts=[4, 2], seed=42)


# ---------------------------------------------------------------------------
# catalog

# Ordering contract: the driver's correctness harness hash-checks the
# FIRST 50 entries against their DuckDB oracles; entries past that window
# are covered by the identical local replay (tools/check_queries.py) and
# pytest.  So the window holds 50 oracle-backed queries spanning every
# operator family (graph build / algorithms / LLM-data ops); oracle-backed
# siblings (sorensen vs jaccard, hopping vs tumbling, the *_int RNG
# replays, …) and the 12 rows-only queries follow after it.
QUERIES = {
    # -- graph build / structure (all SQL-oracled) --
    "edge_table": q_edge_table,
    "symmetrize": q_symmetrize,
    "degrees": q_degrees,
    "distinct_vertices": q_distinct_vertices,
    "induced_subgraph": q_induced_subgraph,
    "egonet": q_egonet,
    "coarsen_brand": q_coarsen_brand,
    "hypergraph_events": q_hypergraph_events,
    "property_extract": q_property_extract,
    "jaccard_users": q_jaccard_users,
    # -- graph algorithms (all SQL-oracled) --
    "wcc": q_wcc,
    "triangles": q_triangles,
    "pagerank": q_pagerank,
    "lpa": q_lpa,
    "bfs": q_bfs,
    "sssp": q_sssp,
    "scc": q_scc,
    "katz": q_katz,
    "hits": q_hits,
    "k_truss": q_k_truss,
    "mst_int": q_mst_int,
    "core_number": q_core_number,
    "assignment": q_assignment,
    "ms_bfs": q_ms_bfs,
    # -- LLM-data ops (all SQL-oracled) --
    "ingest_sha256": q_ingest_sha256,
    "exact_dedup": q_exact_dedup,
    "ngram_jaccard": q_ngram_jaccard,
    "text_quality": q_text_quality,
    "knn": q_knn,
    "minhash_dedup": q_minhash_dedup,
    "simhash": q_simhash,
    "lang_id": q_lang_id,
    "ivf_knn": q_ivf_knn,
    "embed_dedup": q_embed_dedup,
    "tumbling": q_tumbling,
    "topk_events": q_topk_events,
    "hash_sample": q_hash_sample,
    "tfidf": q_tfidf,
    "hll_registers": q_hll_registers,
    "repetition": q_repetition,
    "quantiles": q_quantiles,
    "decontam": q_decontam,
    "seq_pack": q_seq_pack,
    "cms": q_cms,
    "bloom_semijoin": q_bloom_semijoin,
    "sessionize": q_sessionize,
    "interval_join": q_interval_join,
    "clustering_metrics": q_clustering_metrics,
    "bigram_pmi": q_bigram_pmi,
    "kmeans": q_kmeans,
    # ---- end of the driver's 50-entry hash window ----
    # oracle-backed siblings / variants (local gate + pytest)
    "two_hop": q_two_hop,
    "sorensen_users": q_sorensen_users,
    "overlap_users": q_overlap_users,
    "wjaccard_users": q_wjaccard_users,
    "token_count": q_token_count,
    "hopping": q_hopping,
    "hash_split": q_hash_split,
    "bloom_bits": q_bloom_bits,
    "fingerprint": q_fingerprint,
    "dup_spans": q_dup_spans,
    "json_extract": q_json_extract,
    "asof_join": q_asof_join,
    "anti_join": q_anti_join,
    "quantiles_cont": q_quantiles_cont,
    "stratified_sample": q_stratified_sample,
    "eigenvector": q_eigenvector,
    "degree_centrality": q_degree_centrality,
    "k_core": q_k_core,
    "betweenness": q_betweenness,
    "edge_betweenness": q_edge_betweenness,
    "walks_int": q_walks_int,
    "neighbor_sample_int": q_neighbor_sample_int,
    "bfs_paths_int": q_bfs_paths_int,
    "biased_walks_int": q_biased_walks_int,
    "node2vec_int": q_node2vec_int,
    # rows-only queries (no SQL equivalent; pytest numeric oracles)
    "corpus_pagerank": q_corpus_pagerank,
    "louvain": q_louvain,
    "ecg": q_ecg,
    "leiden": q_leiden,
    "spectral_cut": q_spectral_cut,
    "force_atlas2": q_force_atlas2,
    "neighbor_sample": q_neighbor_sample,
    "mst": q_mst,
    "node2vec": q_node2vec,
    "bfs_paths": q_bfs_paths,
    "random_walks": q_random_walks,
    "biased_walks": q_biased_walks,
    # -- round 5: multimodal decode round-trip (SQL-oracled) --
    "image_decode": q_image_decode,
}

# Coreness as a recursive fixpoint: iterate h_{i+1}(v) = H-operator over
# neighbours' h_i (max over desc-sorted positions p of min(h[p], p)), starting
# from h_0 = degree.  The fixpoint is exactly the core number (Lü et al. 2016,
# "The H-index of a network node and its relation to degree and coreness").
# Expects CTEs `sym(src, dst, ...)` (symmetric edges) and `deg(vertex, h)`
# (degrees) in scope; yields `hh(iter, vertex, h)` and `last(m)`.
_CORENESS_CTE = """
hh(iter, vertex, h) AS (
  SELECT 0, vertex, h FROM deg
  UNION
  SELECT iter + 1, vertex, hnew FROM (
    WITH ranked AS (
      SELECT s.src AS vertex, n.h AS nh, n.iter AS iter,
             ROW_NUMBER() OVER (PARTITION BY s.src ORDER BY n.h DESC) AS rn
      FROM sym s JOIN hh n ON n.vertex = s.dst)
    SELECT iter, vertex, MAX(LEAST(nh, CAST(rn AS BIGINT))) AS hnew
    FROM ranked GROUP BY 1, 2)
  WHERE iter < 200
    AND EXISTS (SELECT 1 FROM (
          WITH r2 AS (
            SELECT s.src AS v, n.h AS nh,
                   ROW_NUMBER() OVER (PARTITION BY s.src ORDER BY n.h DESC) AS rn
            FROM sym s JOIN hh n ON n.vertex = s.dst)
          SELECT v, MAX(LEAST(nh, CAST(rn AS BIGINT))) AS hn FROM r2 GROUP BY 1
        ) x JOIN hh cur ON cur.vertex = x.v WHERE x.hn <> cur.h)
),
last AS (SELECT MAX(iter) AS m FROM hh)
"""

def _k_truss_oracle_sql(k: int, rounds: int) -> str:
    """Unrolled k-truss peel as chained CTE stages.

    Recursive CTEs cannot express the peel (the triangle enumeration
    references the working edge set three times per round, but a recursive
    term may reference it only once), so the peel is unrolled: each stage
    recomputes per-edge triangle support over the surviving canonical
    (s < d) edge set and drops support < k−2.  A converged stage is
    idempotent, so ``rounds`` only needs to be ≥ the true round count
    (15 at sf0.01 for k=4; extra stages cost ~nothing on the small
    survivor set)."""
    parts = [
        f"WITH he AS ({HYPER_EDGES_SQL_BODY}),\n",
        "e0 AS MATERIALIZED (SELECT DISTINCT LEAST(src_key, dst_key) s,"
        " GREATEST(src_key, dst_key) d FROM he)",
    ]
    for i in range(rounds):
        parts.append(f""",
t{i} AS MATERIALIZED (SELECT e1.s a, e1.d b, e2.d c FROM e{i} e1
        JOIN e{i} e2 ON e2.s = e1.d
        JOIN e{i} e3 ON e3.s = e1.s AND e3.d = e2.d),
s{i} AS (SELECT s, d, COUNT(*) n FROM (
        SELECT a s, b d FROM t{i} UNION ALL
        SELECT a, c FROM t{i} UNION ALL
        SELECT b, c FROM t{i}) GROUP BY 1, 2),
e{i + 1} AS MATERIALIZED (SELECT e.s, e.d FROM e{i} e
        JOIN s{i} USING (s, d) WHERE s{i}.n >= {k - 2})""")
    parts.append(f"\nSELECT s AS src_key, d AS dst_key FROM e{rounds}")
    return "".join(parts)


def _pagerank_oracle_sql(alpha: float, iters: int, round_to: int) -> str:
    """Unrolled fixed-iteration PageRank as chained CTEs.

    Mirrors ``raygraph/algos/pagerank.py`` exactly for a graph with no
    dangling vertices: pr0 = 1/V, then per iteration
    pr'[v] = (1−α)/V + α · Σ_{(u,v)} pr[u]·w(u,v)/out_wsum[u] over the
    min-deduped symmetrized edge set.  Both sides round to ``round_to``
    decimals (distributed vs DuckDB summation order differs at ~1e-15)."""
    parts = [f"""WITH e AS (SELECT 'part::' || l_partkey AS src,
        'supp::' || l_suppkey AS dst,
        CAST(COUNT(*) AS DOUBLE) AS w FROM lineitem GROUP BY 1, 2),
sym AS MATERIALIZED (SELECT src, dst, MIN(w) AS w FROM
        (SELECT src, dst, w FROM e UNION ALL SELECT dst, src, w FROM e)
        GROUP BY 1, 2),
ow AS MATERIALIZED (SELECT src AS v, SUM(w) AS ow FROM sym GROUP BY 1),
n AS (SELECT CAST(COUNT(*) AS DOUBLE) AS nv FROM ow),
r0 AS (SELECT v, 1.0 / (SELECT nv FROM n) AS pr FROM ow)"""]
    for i in range(iters):
        parts.append(f""",
r{i + 1} AS MATERIALIZED (SELECT ow.v,
        (1.0 - {alpha}) / (SELECT nv FROM n)
        + {alpha} * COALESCE(SUM(r.pr * s.w / o2.ow), 0.0) AS pr
        FROM ow LEFT JOIN sym s ON s.dst = ow.v
                LEFT JOIN r{i} r ON r.v = s.src
                LEFT JOIN ow o2 ON o2.v = s.src
        GROUP BY ow.v)""")
    parts.append(
        f"\nSELECT v AS vertex_key, ROUND(pr, {round_to}) AS pagerank"
        f" FROM r{iters}"
    )
    return "".join(parts)


_PS_SYM_SQL = """WITH e AS (SELECT 'part::' || l_partkey AS src,
        'supp::' || l_suppkey AS dst,
        CAST(COUNT(*) AS DOUBLE) AS w FROM lineitem GROUP BY 1, 2),
sym AS MATERIALIZED (SELECT src, dst, MIN(w) AS w FROM
        (SELECT src, dst, w FROM e UNION ALL SELECT dst, src, w FROM e)
        GROUP BY 1, 2),
v AS MATERIALIZED (SELECT src AS v FROM sym GROUP BY 1)"""


def _lpa_oracle_sql(iters: int) -> str:
    """Unrolled synchronous LPA on the int-keyed ps graph: label0 = id;
    per round, label[v] = argmax_l Σ w(u,v)[label[u]=l], ties → min
    label; vertices with no votes keep their label.  Mirrors
    ``raygraph/superstep.py:lpa_scatter/lpa_update`` exactly (raw ids ⇒
    identical tie-break order)."""
    parts = [f"""WITH e AS ({PS_EDGES_SQL}),
sym AS MATERIALIZED (SELECT src, dst, MIN(weight) AS w FROM (
        SELECT src, dst, weight FROM e
        UNION ALL SELECT dst, src, weight FROM e) GROUP BY 1, 2),
v AS (SELECT DISTINCT src AS vertex FROM sym),
l0 AS (SELECT vertex, vertex AS label FROM v)"""]
    for i in range(iters):
        parts.append(f""",
vt{i} AS MATERIALIZED (SELECT s.dst AS vertex, p.label, SUM(s.w) AS ws
        FROM sym s JOIN l{i} p ON p.vertex = s.src GROUP BY 1, 2),
w{i} AS (SELECT vertex, label FROM (
        SELECT vertex, label, ROW_NUMBER() OVER (PARTITION BY vertex
                ORDER BY ws DESC, label ASC) AS rn FROM vt{i}) WHERE rn = 1),
l{i + 1} AS MATERIALIZED (SELECT v.vertex,
        COALESCE(w{i}.label, l{i}.label) AS label
        FROM v JOIN l{i} USING (vertex)
        LEFT JOIN w{i} ON w{i}.vertex = v.vertex)""")
    parts.append(f"\nSELECT vertex, label FROM l{iters}")
    return "".join(parts)


def _katz_oracle_sql(alpha: float, beta: float, iters: int,
                     round_to: int) -> str:
    """Unrolled Katz: x0=0; x'[v] = α·Σ w(u,v)·x[u] + β; final x/‖x‖₂.
    Mirrors ``raygraph/algos/centrality.py:katz_centrality``."""
    parts = [_PS_SYM_SQL, ",\nx0 AS (SELECT v, 0.0 AS x FROM v)"]
    for i in range(iters):
        parts.append(f""",
x{i + 1} AS MATERIALIZED (SELECT v.v,
        {alpha} * COALESCE(SUM(p.x * s.w), 0.0) + {beta} AS x
        FROM v LEFT JOIN sym s ON s.dst = v.v
               LEFT JOIN x{i} p ON p.v = s.src
        GROUP BY v.v)""")
    parts.append(f""",
nrm AS (SELECT SQRT(SUM(x * x)) AS s FROM x{iters})
SELECT v AS vertex_key,
       ROUND(x / (SELECT s FROM nrm), {round_to}) AS katz_centrality
FROM x{iters}""")
    return "".join(parts)


def _hits_oracle_sql(iters: int, round_to: int) -> str:
    """Unrolled HITS: h0=1/V; per round a = L1-normalized Σ w·h over
    in-edges, then h = L1-normalized Σ w·a over out-edges (symmetric
    graph — the same join).  Mirrors ``centrality.py:hits``."""
    parts = [_PS_SYM_SQL, """,
h0 AS (SELECT v, 1.0 / (SELECT COUNT(*) FROM v) AS x FROM v)"""]
    for i in range(iters):
        parts.append(f""",
ar{i} AS MATERIALIZED (SELECT v.v, COALESCE(SUM(p.x * s.w), 0.0) AS x
        FROM v LEFT JOIN sym s ON s.dst = v.v
               LEFT JOIN h{i} p ON p.v = s.src
        GROUP BY v.v),
a{i} AS MATERIALIZED (SELECT v, x / (SELECT SUM(x) FROM ar{i}) AS x
        FROM ar{i}),
hr{i} AS MATERIALIZED (SELECT v.v, COALESCE(SUM(p.x * s.w), 0.0) AS x
        FROM v LEFT JOIN sym s ON s.src = v.v
               LEFT JOIN a{i} p ON p.v = s.dst
        GROUP BY v.v),
h{i + 1} AS MATERIALIZED (SELECT v, x / (SELECT SUM(x) FROM hr{i}) AS x
        FROM hr{i})""")
    parts.append(f"""
SELECT h.v AS vertex_key, ROUND(h.x, {round_to}) AS hubs,
       ROUND(a.x, {round_to}) AS authorities
FROM h{iters} h JOIN a{iters - 1} a ON a.v = h.v""")
    return "".join(parts)


def _eigenvector_oracle_sql(iters: int, round_to: int) -> str:
    """Unrolled normalized power iteration on the (unweighted, w=1 after
    symmetrize-min) hyper graph: x0 = 1/√V; y = Ax; x = y/‖y‖₂.
    Mirrors ``centrality.py:eigenvector_centrality``."""
    parts = [f"""WITH he AS ({HYPER_EDGES_SQL_BODY}),
sym AS MATERIALIZED (SELECT src_key AS src, dst_key AS dst FROM he
        UNION SELECT dst_key, src_key FROM he),
v AS MATERIALIZED (SELECT src AS v FROM sym GROUP BY 1),
x0 AS (SELECT v, 1.0 / SQRT((SELECT COUNT(*) FROM v)) AS x FROM v)"""]
    for i in range(iters):
        parts.append(f""",
y{i} AS MATERIALIZED (SELECT v.v, COALESCE(SUM(p.x), 0.0) AS x
        FROM v LEFT JOIN sym s ON s.dst = v.v
               LEFT JOIN x{i} p ON p.v = s.src
        GROUP BY v.v),
x{i + 1} AS MATERIALIZED (SELECT v, x / (SELECT SQRT(SUM(x * x)) FROM y{i})
        AS x FROM y{i})""")
    parts.append(f"""
SELECT v AS vertex_key, ROUND(x, {round_to}) AS eigenvector_centrality
FROM x{iters}""")
    return "".join(parts)


def _kmeans_oracle_sql(k: int, iters: int, dim: int) -> str:
    """Unrolled Lloyd's k-means as chained CTEs (mirrors
    ``raygraph/data/kmeans.py``): init = k smallest vec_ids, assignment
    = min L2 distance with ties to the lowest cid, empty clusters keep
    their previous centroid.  Output is integer assignments — no float
    rounding needed in the compared columns."""
    parts = [f"""WITH dim AS (SELECT i FROM range(1, {dim + 1}) t(i)),
ev AS MATERIALIZED (SELECT vec_id, i, CAST(embedding[i] AS DOUBLE) AS x
        FROM embeddings, dim),
init AS (SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cid
         FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k})),
c0 AS MATERIALIZED (SELECT init.cid, ev.i, ev.x FROM init
        JOIN ev USING (vec_id))"""]
    for t in range(iters + 1):
        parts.append(f""",
d{t} AS (SELECT ev.vec_id, c.cid,
        SUM((ev.x - c.x) * (ev.x - c.x)) AS d2
        FROM ev JOIN c{t} c USING (i) GROUP BY 1, 2),
a{t} AS MATERIALIZED (SELECT vec_id, cid FROM (
        SELECT vec_id, cid,
               ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d2, cid) rn
        FROM d{t}) WHERE rn = 1)""")
        if t < iters:
            parts.append(f""",
u{t} AS (SELECT a.cid, ev.i, AVG(ev.x) AS x FROM a{t} a
        JOIN ev USING (vec_id) GROUP BY 1, 2),
c{t + 1} AS MATERIALIZED (SELECT * FROM u{t}
        UNION ALL SELECT c.cid, c.i, c.x FROM c{t} c
        WHERE c.cid NOT IN (SELECT DISTINCT cid FROM u{t}))""")
    parts.append(
        f"\nSELECT vec_id, CAST(cid AS BIGINT) AS cluster FROM a{iters}"
    )
    return "".join(parts)


ORACLES = {
    "edge_table": PS_EDGES_SQL,
    "kmeans": _kmeans_oracle_sql(k=8, iters=5, dim=64),
    "asof_join": """
WITH c AS (SELECT event_id AS click_event, user_id, ts FROM events
           WHERE event_type = 'click'),
v AS (SELECT user_id, ts, MAX(event_id) AS view_event,
             MAX(value) AS view_value
      FROM events WHERE event_type = 'view' GROUP BY 1, 2)
SELECT c.click_event, v.view_event, v.view_value
FROM c ASOF JOIN v ON c.user_id = v.user_id AND c.ts >= v.ts
""",
    "k_truss": _k_truss_oracle_sql(k=3, rounds=2),
    "pagerank": _pagerank_oracle_sql(alpha=0.85, iters=20, round_to=6),
    "lpa": _lpa_oracle_sql(iters=20),
    "katz": _katz_oracle_sql(alpha=0.005, beta=1.0, iters=30, round_to=6),
    "hits": _hits_oracle_sql(iters=30, round_to=6),
    "eigenvector": _eigenvector_oracle_sql(iters=50, round_to=6),
    "symmetrize": f"""
WITH e AS ({PS_EDGES_SQL}),
u AS (SELECT src, dst, weight FROM e
      UNION ALL SELECT dst, src, weight FROM e)
SELECT src, dst, MIN(weight) AS weight FROM u GROUP BY 1, 2
""",
    "degrees": f"""
WITH e AS ({PS_EDGES_SQL}),
v AS (SELECT src AS vertex FROM e UNION SELECT dst FROM e),
o AS (SELECT src AS vertex, COUNT(*) AS c FROM e GROUP BY 1),
i AS (SELECT dst AS vertex, COUNT(*) AS c FROM e GROUP BY 1)
SELECT v.vertex,
       CAST(COALESCE(o.c, 0) AS BIGINT) AS out_degree,
       CAST(COALESCE(i.c, 0) AS BIGINT) AS in_degree,
       CAST(COALESCE(o.c, 0) + COALESCE(i.c, 0) AS BIGINT) AS degree
FROM v LEFT JOIN o ON v.vertex = o.vertex LEFT JOIN i ON v.vertex = i.vertex
""",
    "distinct_vertices": """
SELECT 'part::' || l_partkey AS vertex_key FROM lineitem GROUP BY 1
UNION SELECT 'supp::' || l_suppkey FROM lineitem GROUP BY 1
""",
    "two_hop": f"""
WITH e0 AS ({PS_EDGES_SQL}),
e AS (SELECT * FROM e0 WHERE weight >= 3),
u AS (SELECT src, dst, weight FROM e UNION ALL SELECT dst, src, weight FROM e),
sym AS (SELECT src, dst FROM u GROUP BY 1, 2)
SELECT DISTINCT a.src AS "first", b.dst AS "second"
FROM sym a JOIN sym b ON a.dst = b.src WHERE a.src <> b.dst
""",
    "induced_subgraph": f"""
WITH e AS ({PS_EDGES_SQL})
SELECT e.* FROM e JOIN part p ON e.src = p.p_partkey WHERE p.p_size > 25
""",
    "coarsen_brand": f"""
WITH e AS ({PS_EDGES_SQL})
SELECT p.p_brand AS brand, e.dst, SUM(e.weight) AS weight
FROM e JOIN part p ON e.src = p.p_partkey GROUP BY 1, 2
""",
    "hypergraph_events": """
SELECT 'user::' || user_id AS src_key, 'etype::' || event_type AS dst_key,
       CAST(COUNT(*) AS DOUBLE) AS weight
FROM events GROUP BY 1, 2
""",
    "jaccard_users": """
WITH ue AS (SELECT DISTINCT 'user::' || lpad(CAST(user_id AS VARCHAR), 6, '0') AS u,
                            event_type AS t FROM events),
deg AS (SELECT u, COUNT(*) AS d FROM ue GROUP BY 1),
cn AS (SELECT x.u AS a, y.u AS b, COUNT(*) AS common
       FROM ue x JOIN ue y ON x.t = y.t AND x.u < y.u GROUP BY 1, 2)
SELECT cn.a, cn.b, CAST(cn.common AS BIGINT) AS common,
       CAST(cn.common AS DOUBLE) / (da.d + db.d - cn.common) AS jaccard
FROM cn JOIN deg da ON da.u = cn.a JOIN deg db ON db.u = cn.b
""",
    "sorensen_users": """
WITH ue AS (SELECT DISTINCT 'user::' || lpad(CAST(user_id AS VARCHAR), 6, '0') AS u,
                            event_type AS t FROM events),
deg AS (SELECT u, COUNT(*) AS d FROM ue GROUP BY 1),
cn AS (SELECT x.u AS a, y.u AS b, COUNT(*) AS common
       FROM ue x JOIN ue y ON x.t = y.t AND x.u < y.u GROUP BY 1, 2)
SELECT cn.a, cn.b, CAST(cn.common AS BIGINT) AS common,
       2.0 * CAST(cn.common AS DOUBLE) / (da.d + db.d) AS sorensen
FROM cn JOIN deg da ON da.u = cn.a JOIN deg db ON db.u = cn.b
""",
    "overlap_users": """
WITH ue AS (SELECT DISTINCT 'user::' || lpad(CAST(user_id AS VARCHAR), 6, '0') AS u,
                            event_type AS t FROM events),
deg AS (SELECT u, COUNT(*) AS d FROM ue GROUP BY 1),
cn AS (SELECT x.u AS a, y.u AS b, COUNT(*) AS common
       FROM ue x JOIN ue y ON x.t = y.t AND x.u < y.u GROUP BY 1, 2)
SELECT cn.a, cn.b, CAST(cn.common AS BIGINT) AS common,
       CAST(cn.common AS DOUBLE) / LEAST(da.d, db.d) AS overlap
FROM cn JOIN deg da ON da.u = cn.a JOIN deg db ON db.u = cn.b
""",
    "wjaccard_users": """
WITH ue AS (SELECT DISTINCT 'user::' || lpad(CAST(user_id AS VARCHAR), 6, '0') AS u,
                            event_type AS t FROM events),
tdeg AS (SELECT t, CAST(COUNT(*) AS DOUBLE) AS w FROM ue GROUP BY 1),
vol AS (SELECT ue.u, SUM(td.w) AS vol
        FROM ue JOIN tdeg td ON td.t = ue.t GROUP BY 1),
cn AS (SELECT x.u AS a, y.u AS b, SUM(td.w) AS wcommon
       FROM ue x JOIN ue y ON x.t = y.t AND x.u < y.u
       JOIN tdeg td ON td.t = x.t GROUP BY 1, 2)
SELECT cn.a, cn.b, cn.wcommon,
       cn.wcommon / (va.vol + vb.vol - cn.wcommon) AS wjaccard
FROM cn JOIN vol va ON va.u = cn.a JOIN vol vb ON vb.u = cn.b
""",
    # winnowing fingerprint: min over 16-byte windows of the polynomial
    # rolling hash Σ byte[p+i]·1000003^(15-i) mod 2^64, top bit cleared
    # (text.fingerprint kernel, bit-exact).  HUGEINT carries the sums;
    # valid because the corpus is pure ASCII (byte == codepoint) with no
    # doc under 16 bytes — both asserted by the kernel's contract.
    "fingerprint": """
WITH pos AS (
  SELECT doc_id, text, unnest(range(1, length(text) - 14)) AS p
  FROM documents
),
h AS (
  SELECT doc_id, ("""
    + " + ".join(
        f"ord(substr(text, p+{i}, 1)) * CAST({pow(1000003, 15 - i, 2**64)} AS HUGEINT)"
        for i in range(16)
    )
    + """) % CAST('18446744073709551616' AS HUGEINT) AS hv
  FROM pos
)
SELECT doc_id,
       CAST(MIN(hv) % CAST('9223372036854775808' AS HUGEINT) AS BIGINT) AS fp
FROM h GROUP BY 1
""",
    "ngram_jaccard": """
WITH toks AS (
    SELECT doc_id, regexp_extract_all(lower(text), '\\w+') AS ws
    FROM documents),
grams AS (
    SELECT DISTINCT doc_id,
           unnest(list_transform(range(1, len(ws) - 1),
               i -> ws[i] || ' ' || ws[i + 1] || ' ' || ws[i + 2])) AS gram
    FROM toks WHERE len(ws) >= 3),
kept AS (SELECT gram FROM grams GROUP BY 1 HAVING COUNT(*) <= 50),
fg AS (SELECT g.doc_id, g.gram FROM grams g JOIN kept USING (gram)),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM fg GROUP BY 1),
inter AS (SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS c
          FROM fg x JOIN fg y ON x.gram = y.gram AND x.doc_id < y.doc_id
          GROUP BY 1, 2)
SELECT * FROM (
    SELECT i.a, i.b,
           ROUND(CAST(i.c AS DOUBLE) / (sa.n + sb.n - i.c), 6) AS jaccard
    FROM inter i JOIN sizes sa ON sa.doc_id = i.a
                 JOIN sizes sb ON sb.doc_id = i.b)
WHERE jaccard >= 0.3
""",
    "lang_id": """
WITH toks AS (
    SELECT doc_id,
           list_slice(regexp_extract_all(lower(text), '\\w+'), 1, 200) AS ws
    FROM documents),
flat AS (SELECT doc_id, unnest(ws) AS w FROM toks),
votes AS (
    SELECT doc_id,
        SUM(CASE WHEN w IN ('the','and','of','a','to','in','is','that','it','for') THEN 1 ELSE 0 END) AS en,
        SUM(CASE WHEN w IN ('der','die','das','und','ist','nicht','ein','zu','mit','den') THEN 1 ELSE 0 END) AS de,
        SUM(CASE WHEN w IN ('le','la','les','et','est','un','une','de','que','pour') THEN 1 ELSE 0 END) AS fr,
        SUM(CASE WHEN w IN ('el','la','los','y','es','un','una','de','que','por') THEN 1 ELSE 0 END) AS es
    FROM flat GROUP BY 1),
base AS (
    SELECT t.doc_id, COALESCE(v.en, 0) AS en, COALESCE(v.de, 0) AS de,
           COALESCE(v.fr, 0) AS fr, COALESCE(v.es, 0) AS es,
           len(t.ws) AS nw
    FROM toks t LEFT JOIN votes v USING (doc_id))
SELECT doc_id,
       CASE WHEN GREATEST(en, de, fr, es) = 0 THEN 'unknown'
            WHEN en >= de AND en >= fr AND en >= es THEN 'en'
            WHEN de >= fr AND de >= es THEN 'de'
            WHEN fr >= es THEN 'fr' ELSE 'es' END AS lang_pred,
       ROUND(CAST(GREATEST(en, de, fr, es) AS DOUBLE)
             / GREATEST(nw, 1), 6) AS lang_score
FROM base
""",
    "assignment": """
WITH cells AS (
    SELECT l_orderkey % 50 AS problem, l_linenumber % 3 AS r,
           l_suppkey % 3 AS c, SUM(l_quantity) AS cost
    FROM lineitem GROUP BY 1, 2, 3),
grid AS (
    SELECT p.problem, r.r, c.c, COALESCE(cells.cost, 0) AS cost
    FROM (SELECT DISTINCT problem FROM cells) p
    CROSS JOIN (VALUES (0), (1), (2)) AS r(r)
    CROSS JOIN (VALUES (0), (1), (2)) AS c(c)
    LEFT JOIN cells ON cells.problem = p.problem
                   AND cells.r = r.r AND cells.c = c.c),
perms(i0, i1, i2) AS (
    VALUES (0,1,2), (0,2,1), (1,0,2), (1,2,0), (2,0,1), (2,1,0)),
totals AS (
    SELECT g0.problem,
           g0.cost + g1.cost + g2.cost AS tot
    FROM perms
    JOIN grid g0 ON g0.r = 0 AND g0.c = perms.i0
    JOIN grid g1 ON g1.r = 1 AND g1.c = perms.i1
                AND g1.problem = g0.problem
    JOIN grid g2 ON g2.r = 2 AND g2.c = perms.i2
                AND g2.problem = g0.problem)
SELECT problem, ROUND(MIN(tot), 6) AS total_cost
FROM totals GROUP BY 1
""",
    "clustering_metrics": """
WITH e AS (SELECT 'part::' || l_partkey AS src, 'supp::' || l_suppkey AS dst,
                  CAST(COUNT(*) AS DOUBLE) AS w
           FROM lineitem GROUP BY 1, 2 HAVING COUNT(*) >= 3),
sym AS (SELECT src, dst, w FROM e UNION ALL SELECT dst, src, w FROM e),
v AS (SELECT DISTINCT src AS vertex FROM sym),
c AS (SELECT vertex,
             (CAST(split_part(vertex, '::', 2) AS BIGINT) % 2)
             + CASE WHEN vertex LIKE 'supp::%' THEN 2 ELSE 0 END AS cluster
      FROM v),
tagged AS (SELECT s.w, cs.cluster AS c_src, cd.cluster AS c_dst
           FROM sym s JOIN c cs ON cs.vertex = s.src
                      JOIN c cd ON cd.vertex = s.dst),
per AS (SELECT c_src AS cluster, SUM(w) AS vol,
               SUM(CASE WHEN c_src = c_dst THEN w ELSE 0 END) AS internal,
               SUM(CASE WHEN c_src <> c_dst THEN w ELSE 0 END) AS cut
        FROM tagged GROUP BY 1),
sizes AS (SELECT cluster, COUNT(*) AS n FROM c GROUP BY 1),
tot AS (SELECT SUM(vol) AS m2 FROM per)
SELECT ROUND(SUM(p.cut) / 2.0, 6) AS edge_cut,
       ROUND(SUM(p.cut / s.n), 6) AS ratio_cut,
       ROUND(SUM(p.internal / t.m2 - (p.vol / t.m2) * (p.vol / t.m2)), 6)
           AS modularity
FROM per p JOIN sizes s USING (cluster) CROSS JOIN tot t
""",
    "wcc": """
WITH RECURSIVE
e AS (SELECT 'part::' || l_partkey AS src, 'supp::' || l_suppkey AS dst
      FROM lineitem GROUP BY 1, 2 HAVING COUNT(*) >= 3),
sym AS (SELECT src, dst FROM e UNION SELECT dst, src FROM e),
v AS (SELECT src AS vertex FROM sym GROUP BY 1),
reach(vertex, l) AS (
    SELECT vertex, vertex FROM v
    UNION
    SELECT s.dst, r.l FROM reach r JOIN sym s ON s.src = r.vertex
)
SELECT vertex AS vertex_key, MIN(l) AS component FROM reach GROUP BY 1
""",
    "triangles": f"""
WITH he AS ({HYPER_EDGES_SQL_BODY}),
sym AS MATERIALIZED (SELECT src_key AS src, dst_key AS dst FROM he
        UNION SELECT dst_key, src_key FROM he),
deg AS MATERIALIZED (SELECT src AS v, COUNT(*) AS d FROM sym GROUP BY 1),
ori AS MATERIALIZED (SELECT s.src AS u, s.dst AS v FROM sym s
        JOIN deg da ON da.v = s.src JOIN deg db ON db.v = s.dst
        WHERE (da.d < db.d) OR (da.d = db.d AND s.src < s.dst)),
tri AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
        FROM ori e1 JOIN ori e2 ON e2.u = e1.v
        JOIN ori e3 ON e3.u = e1.u AND e3.v = e2.v),
corners AS (SELECT a AS vertex_key FROM tri
            UNION ALL SELECT b FROM tri UNION ALL SELECT c FROM tri),
cnt AS (SELECT vertex_key, COUNT(*) AS counts FROM corners GROUP BY 1)
SELECT d.v AS vertex_key, CAST(COALESCE(cnt.counts, 0) AS BIGINT) AS counts
FROM deg d LEFT JOIN cnt ON cnt.vertex_key = d.v
""",
    "bfs": """
WITH RECURSIVE
e AS (SELECT 'part::' || l_partkey AS src, 'supp::' || l_suppkey AS dst
      FROM lineitem GROUP BY 1, 2 HAVING COUNT(*) >= 3),
sym AS MATERIALIZED (SELECT src, dst FROM e UNION SELECT dst, src FROM e),
v AS (SELECT src AS vertex FROM sym GROUP BY 1),
s AS (SELECT MIN(vertex) AS sv FROM v),
walk(vertex, dist) AS (
    SELECT sv, 0 FROM s
    UNION
    SELECT sy.dst, w.dist + 1 FROM walk w JOIN sym sy ON sy.src = w.vertex
    WHERE w.dist < 64
),
md AS (SELECT vertex, MIN(dist) AS d FROM walk GROUP BY 1)
SELECT v.vertex AS vertex_key,
       CAST(COALESCE(md.d, -1) AS BIGINT) AS distance
FROM v LEFT JOIN md ON md.vertex = v.vertex
""",
    "sssp": """
WITH RECURSIVE
e AS (SELECT 'part::' || l_partkey AS src, 'supp::' || l_suppkey AS dst,
             CAST(COUNT(*) AS BIGINT) AS w
      FROM lineitem GROUP BY 1, 2 HAVING COUNT(*) >= 3),
sym AS MATERIALIZED (SELECT src, dst, MIN(w) AS w FROM
        (SELECT src, dst, w FROM e UNION ALL SELECT dst, src, w FROM e)
        GROUP BY 1, 2),
v AS (SELECT src AS vertex FROM sym GROUP BY 1),
s AS (SELECT MIN(vertex) AS sv FROM v),
walk(vertex, dist) AS (
    SELECT sv, CAST(0 AS BIGINT) FROM s
    UNION
    SELECT sy.dst, w.dist + sy.w FROM walk w JOIN sym sy ON sy.src = w.vertex
    WHERE w.dist < 512
),
md AS (SELECT vertex, MIN(dist) AS d FROM walk GROUP BY 1)
SELECT v.vertex AS vertex_key,
       CAST(COALESCE(md.d, -1) AS DOUBLE) AS distance
FROM v LEFT JOIN md ON md.vertex = v.vertex
""",
    "scc": """
WITH RECURSIVE
e0 AS (SELECT 'part::' || l_partkey AS p, 'supp::' || l_suppkey AS s, COUNT(*) AS n
       FROM lineitem GROUP BY 1, 2),
e AS MATERIALIZED (SELECT p AS src, s AS dst FROM e0 WHERE n >= 3
     UNION SELECT s, p FROM e0 WHERE n >= 4),
v AS (SELECT src AS vertex FROM e UNION SELECT dst FROM e),
reach(a, b) AS (
    SELECT vertex, vertex FROM v
    UNION
    SELECT r.a, e.dst FROM reach r JOIN e ON e.src = r.b
),
mutual AS (SELECT r1.a AS vertex, MIN(r1.b) AS component
           FROM reach r1 JOIN reach r2 ON r2.a = r1.b AND r2.b = r1.a
           GROUP BY 1)
SELECT vertex AS vertex_key, component FROM mutual
""",
    "ingest_sha256": """
SELECT doc_id, sha256(text) AS content_sha256 FROM documents
""",
    "core_number": f"""
WITH RECURSIVE
e AS MATERIALIZED (SELECT 'part::' || l_partkey AS src, 'supp::' || l_suppkey AS dst
     FROM lineitem GROUP BY 1, 2),
sym AS MATERIALIZED (SELECT src, dst FROM e UNION SELECT dst, src FROM e),
deg AS (SELECT src AS vertex, CAST(COUNT(*) AS BIGINT) AS h FROM sym GROUP BY 1),
{_CORENESS_CTE}
SELECT vertex AS vertex_key, h AS core_number FROM hh, last WHERE iter = m
""",
    "k_core": f"""
WITH RECURSIVE
e0 AS MATERIALIZED (SELECT 'part::' || l_partkey AS src, 'supp::' || l_suppkey AS dst,
      CAST(COUNT(*) AS DOUBLE) AS weight FROM lineitem
      GROUP BY 1, 2 HAVING COUNT(*) >= 3),
sym AS MATERIALIZED (SELECT src, dst, MIN(weight) AS weight FROM
      (SELECT src, dst, weight FROM e0 UNION ALL SELECT dst, src, weight FROM e0)
      GROUP BY 1, 2),
deg AS (SELECT src AS vertex, CAST(COUNT(*) AS BIGINT) AS h FROM sym GROUP BY 1),
{_CORENESS_CTE}
SELECT s.src AS src_key, s.dst AS dst_key, s.weight
FROM sym s JOIN (SELECT vertex FROM hh, last WHERE iter = m AND h >= 2) a
       ON a.vertex = s.src
     JOIN (SELECT vertex FROM hh, last WHERE iter = m AND h >= 2) b
       ON b.vertex = s.dst
""",
    "ms_bfs": """
WITH RECURSIVE
e AS (SELECT 'part::' || l_partkey AS src, 'supp::' || l_suppkey AS dst
      FROM lineitem GROUP BY 1, 2 HAVING COUNT(*) >= 3),
sym AS MATERIALIZED (SELECT src, dst FROM e UNION SELECT dst, src FROM e),
v AS (SELECT src AS vertex FROM sym GROUP BY 1),
seeds AS (SELECT vertex FROM v ORDER BY vertex LIMIT 3),
walk(seed, vertex, dist) AS (
    SELECT vertex, vertex, 0 FROM seeds
    UNION
    SELECT w.seed, sy.dst, w.dist + 1 FROM walk w JOIN sym sy ON sy.src = w.vertex
    WHERE w.dist < 64
),
md AS (SELECT seed, vertex, MIN(dist) AS d FROM walk GROUP BY 1, 2)
SELECT s.vertex AS seed_key, v.vertex AS vertex_key,
       CAST(COALESCE(md.d, -1) AS BIGINT) AS distance
FROM seeds s CROSS JOIN v
LEFT JOIN md ON md.seed = s.vertex AND md.vertex = v.vertex
""",
    "degree_centrality": """
WITH e AS (SELECT 'part::' || l_partkey AS src, 'supp::' || l_suppkey AS dst
     FROM lineitem GROUP BY 1, 2),
sym AS (SELECT src, dst FROM e UNION SELECT dst, src FROM e),
deg AS (SELECT src AS vertex, COUNT(*) AS d FROM sym GROUP BY 1),
n AS (SELECT COUNT(*) AS v FROM deg)
SELECT vertex AS vertex_key,
       ROUND(CAST(2 * d AS DOUBLE) / (n.v - 1), 9) AS degree_centrality
FROM deg, n
""",
    "egonet": """
WITH RECURSIVE
e0 AS MATERIALIZED (SELECT 'part::' || l_partkey AS src, 'supp::' || l_suppkey AS dst,
      CAST(COUNT(*) AS DOUBLE) AS weight FROM lineitem
      GROUP BY 1, 2 HAVING COUNT(*) >= 3),
sym AS MATERIALIZED (SELECT src, dst, MIN(weight) AS weight FROM
      (SELECT src, dst, weight FROM e0 UNION ALL SELECT dst, src, weight FROM e0)
      GROUP BY 1, 2),
v AS (SELECT src AS vertex FROM sym GROUP BY 1),
seeds AS (SELECT vertex FROM v ORDER BY vertex LIMIT 3),
walk(seed, vertex, dist) AS (
  SELECT vertex, vertex, 0 FROM seeds
  UNION
  SELECT w.seed, sy.dst, w.dist + 1 FROM walk w JOIN sym sy ON sy.src = w.vertex
  WHERE w.dist < 2
),
reach AS (SELECT seed, vertex FROM walk GROUP BY 1, 2)
SELECT r1.seed AS seed_key, s.src AS src_key, s.dst AS dst_key, s.weight
FROM sym s JOIN reach r1 ON r1.vertex = s.src
     JOIN reach r2 ON r2.seed = r1.seed AND r2.vertex = s.dst
""",
    "property_extract": """
WITH e AS (
  SELECT 'cust::' || o_custkey AS src_key, 'ord::' || o_orderkey AS dst_key
  FROM orders WHERE o_totalprice > 50000
  UNION ALL
  SELECT 'ord::' || l_orderkey, 'part::' || l_partkey
  FROM lineitem WHERE l_quantity >= 30
)
SELECT src_key, dst_key, CAST(COUNT(*) AS DOUBLE) AS weight
FROM e GROUP BY 1, 2
""",
    "exact_dedup": """
SELECT MIN(doc_id) AS doc_id, CAST(COUNT(*) AS BIGINT) AS n_copies
FROM documents GROUP BY md5(text)
""",
    "token_count": """
SELECT doc_id, CAST(len(string_split_regex(trim(text), '\\s+')) AS BIGINT) AS n_tokens
FROM documents
""",
    "text_quality": """
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_chars,
       CAST(len(string_split_regex(trim(text), '\\s+')) AS BIGINT) AS n_tokens,
       CAST(length(text) - length(regexp_replace(text, '[.!?,;:]', '', 'g')) AS BIGINT)
           AS punct_count
FROM documents
""",
    "knn": """
WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
           FROM embeddings ORDER BY vec_id LIMIT 3),
sims AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) AS sim
         FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.query_id),
ranked AS (SELECT query_id, neighbor_id,
                  ROW_NUMBER() OVER (PARTITION BY query_id
                                     ORDER BY ROUND(sim, 6) DESC, neighbor_id) AS rank
           FROM sims)
SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank <= 10
""",
    "embed_dedup": """
WITH n AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings)
SELECT x.vec_id AS a, y.vec_id AS b,
       ROUND(list_cosine_similarity(x.e, y.e), 6) AS cosine
FROM n x JOIN n y ON x.vec_id < y.vec_id
WHERE list_cosine_similarity(x.e, y.e) >= 0.45
""",
    "tumbling": """
SELECT user_id,
       (epoch_us(ts) // 300000000) * 300000000 AS window_start,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(SUM(value), 6) AS sum_value
FROM events GROUP BY 1, 2
""",
    "topk_events": """
SELECT user_id, event_id, ROUND(value, 6) AS value
FROM events
QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                           ORDER BY value DESC, event_id DESC) <= 3
""",
    "tfidf": """
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\w+')) AS term
  FROM documents),
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY 1, 2),
dfc AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY 1),
n AS (SELECT COUNT(*) AS n FROM documents)
SELECT doc_id, term,
       ROUND(tf * ln(CAST(n.n AS DOUBLE) / dfc.df), 6) AS tfidf
FROM tf JOIN dfc USING (term), n
QUALIFY ROW_NUMBER() OVER (
    PARTITION BY doc_id
    ORDER BY ROUND(tf * ln(CAST(n.n AS DOUBLE) / dfc.df), 6) DESC,
             term ASC) <= 3
""",
    "quantiles": """
SELECT 0.25 AS q, quantile_disc(l_quantity, 0.25) AS value FROM lineitem
UNION ALL
SELECT 0.5, quantile_disc(l_quantity, 0.5) FROM lineitem
UNION ALL
SELECT 0.75, quantile_disc(l_quantity, 0.75) FROM lineitem
UNION ALL
SELECT 0.9, quantile_disc(l_quantity, 0.9) FROM lineitem
""",
    "repetition": """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\w+') AS ws
  FROM documents),
bg AS (SELECT doc_id,
              unnest(list_transform(range(1, len(ws)),
                                    i -> ws[i] || ' ' || ws[i + 1])) AS g
       FROM toks WHERE len(ws) >= 2),
cnt AS (SELECT doc_id, g, COUNT(*) AS c FROM bg GROUP BY 1, 2),
top AS (SELECT doc_id, MAX(c) AS mx, SUM(c) AS tot FROM cnt GROUP BY 1),
lf AS (SELECT doc_id,
              len(string_split(text, chr(10))) AS n_lines,
              1.0 - CAST(len(list_distinct(string_split(text, chr(10))))
                         AS DOUBLE) / len(string_split(text, chr(10))) AS dup
       FROM documents)
SELECT lf.doc_id, CAST(lf.n_lines AS BIGINT) AS n_lines,
       ROUND(lf.dup, 6) AS dup_line_frac,
       ROUND(COALESCE(CAST(top.mx AS DOUBLE) / top.tot, 0.0), 6)
           AS top_bigram_frac
FROM lf LEFT JOIN top USING (doc_id)
""",
    "decontam": """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\w+') AS ws
  FROM documents),
grams AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(ws) - 1),
                i -> array_to_string(list_slice(ws, i, i + 2), ' '))) AS g
  FROM toks WHERE len(ws) >= 3),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0),
hits AS (SELECT DISTINCT d.doc_id, d.g
         FROM grams d JOIN bench USING (g)
         WHERE d.doc_id % 97 <> 0)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_hit_grams
FROM hits GROUP BY 1
""",
    "seq_pack": """
WITH t AS (
  SELECT doc_id,
         CAST(len(string_split_regex(trim(text), '\\s+')) AS BIGINT)
           AS n_tokens
  FROM documents),
s AS (
  SELECT doc_id, n_tokens,
         CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS start_offset
  FROM t)
SELECT doc_id, n_tokens, start_offset,
       start_offset // 512 AS first_seq,
       (start_offset + n_tokens - 1) // 512 AS last_seq
FROM s
""",
    "bloom_bits": """
WITH keys AS (
  SELECT DISTINCT CAST(c_custkey AS VARCHAR) AS s
  FROM customer WHERE c_mktsegment = 'BUILDING'),
bits AS (
  SELECT DISTINCT
         CAST(('0x' || substr(md5(CAST(r.i AS VARCHAR) || ':' || s), 1, 8))
              AS UBIGINT) % 8192 AS b
  FROM keys CROSS JOIN range(3) r(i))
SELECT CAST(b AS BIGINT) AS bit FROM bits
""",
    "bloom_semijoin": """
SELECT o.o_orderkey, o.o_custkey
FROM orders o
JOIN (SELECT DISTINCT c_custkey FROM customer
      WHERE c_mktsegment = 'BUILDING') c
  ON o.o_custkey = c.c_custkey
""",
    "anti_join": """
SELECT o_orderkey, o_custkey FROM orders o
WHERE NOT EXISTS (SELECT 1 FROM customer c
                  WHERE c.c_custkey = o.o_custkey
                    AND c.c_mktsegment = 'BUILDING')
""",
    "quantiles_cont": """
SELECT 0.1 AS q, quantile_disc(value, 0.1) AS value FROM events
UNION ALL SELECT 0.25, quantile_disc(value, 0.25) FROM events
UNION ALL SELECT 0.5, quantile_disc(value, 0.5) FROM events
UNION ALL SELECT 0.75, quantile_disc(value, 0.75) FROM events
UNION ALL SELECT 0.9, quantile_disc(value, 0.9) FROM events
UNION ALL SELECT 0.99, quantile_disc(value, 0.99) FROM events
""",
    "stratified_sample": """
SELECT doc_id, lang FROM (
  SELECT doc_id, lang,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
              AS UBIGINT) AS h
  FROM documents)
QUALIFY ROW_NUMBER() OVER (PARTITION BY lang ORDER BY h, doc_id) <= 25
""",
    "cms": """
WITH h AS (
  SELECT r.j,
         CAST(('0x' || substr(md5(CAST(r.j AS VARCHAR) || ':' ||
                                  CAST(l_partkey AS VARCHAR)), 1, 8))
              AS UBIGINT) % 512 AS c
  FROM lineitem CROSS JOIN range(4) r(j))
SELECT CAST(j AS BIGINT) AS row_idx, CAST(c AS BIGINT) AS col_idx,
       CAST(COUNT(*) AS BIGINT) AS cnt
FROM h GROUP BY 1, 2
""",
    "hll_registers": """
WITH h AS (
  SELECT CAST(('0x' || substr(md5(CAST(l_partkey AS VARCHAR)), 1, 8))
              AS UBIGINT) AS hv
  FROM lineitem),
r AS (SELECT CAST(hv // 4194304 AS BIGINT) AS bucket,
             hv % 4194304 AS tail FROM h)
SELECT bucket,
       CAST(MAX(CASE WHEN tail = 0 THEN 23
                     ELSE 22 - CAST(floor(log2(CAST(tail AS DOUBLE)))
                               AS BIGINT) END) AS BIGINT) AS maxrank
FROM r GROUP BY 1
""",
    "hash_sample": """
SELECT doc_id FROM documents
WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
      < 1073741824
""",
    "hash_split": """
SELECT doc_id,
       CASE WHEN h < 3435973836 THEN 'train'
            WHEN h < 3865470566 THEN 'val'
            ELSE 'test' END AS split
FROM (SELECT doc_id,
             CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                  AS UBIGINT) AS h
      FROM documents)
""",
    "hopping": """
WITH par AS (SELECT user_id, epoch_us(ts) AS us, value FROM events),
w AS (SELECT user_id, value,
             (us // 60000000 - i) * 60000000 AS window_start
      FROM par, range(0, 5) r(i)
      WHERE (us // 60000000 - i) * 60000000 > us - 300000000)
SELECT user_id, window_start,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(SUM(value), 6) AS sum_value
FROM w GROUP BY 1, 2
""",
    "interval_join": """
WITH t AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         CASE WHEN epoch_us(ts) - LAG(epoch_us(ts)) OVER w > 1800000000
                   OR LAG(epoch_us(ts)) OVER w IS NULL
              THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (SELECT user_id, event_id, us,
             SUM(brk) OVER (PARTITION BY user_id ORDER BY us
                            ROWS UNBOUNDED PRECEDING) AS sid
      FROM t),
sess AS (SELECT user_id, sid, MIN(us) AS session_start, MAX(us) AS session_end
         FROM s GROUP BY user_id, sid)
SELECT e.user_id, e.event_id, sess.session_start
FROM s e JOIN sess ON sess.user_id = e.user_id
             AND e.us BETWEEN sess.session_start AND sess.session_end
""",
    "sessionize": """
WITH t AS (
  SELECT user_id, epoch_us(ts) AS us,
         CASE WHEN epoch_us(ts) - LAG(epoch_us(ts)) OVER w > 1800000000
                   OR LAG(epoch_us(ts)) OVER w IS NULL
              THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (SELECT user_id, us,
             SUM(brk) OVER (PARTITION BY user_id ORDER BY us
                            ROWS UNBOUNDED PRECEDING) AS sid
      FROM t)
SELECT user_id, MIN(us) AS session_start, MAX(us) AS session_end,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM s GROUP BY user_id, sid
""",
}


def _minhash_oracle_sql(threshold: float = 0.7, num_perm: int = 64,
                        bands: int = 16, seed: int = 42) -> str:
    """Generate the DuckDB replay of the FULL MinHash-LSH near-dedup
    pipeline (``dedup.near_dedup_minhash``), bit-exact:

    shingles (5-byte polynomial hash — < 2^41, exact in BIGINT; corpus is
    pure ASCII with no doc under 5 bytes) → 64 permutation minima
    ((a·x mod 2^64 + b) mod 2^64 mod 2^61-1 with the RandomState(seed)
    constants baked in; HUGEINT carries the products, ``& mask`` replaces
    the slow 128-bit ``% 2^64``) → per-band splitmix64 fold (the xor/shift
    steps run on UBIGINT, the wraparound multiply via 32-bit split) →
    bucket pairs with the MAX_BUCKET=64 adjacent-chain cap → exact shingle
    Jaccard ≥ threshold → min-label connected components (recursive CTE).
    """
    import numpy as _np

    P61 = 2305843009213693951
    MASK = "CAST(18446744073709551615 AS HUGEINT)"
    C1, C2, C3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    rng = _np.random.RandomState(seed)
    A = rng.randint(1, 2 ** 61 - 1, size=num_perm).astype(_np.uint64)
    B = rng.randint(0, 2 ** 61 - 1, size=num_perm).astype(_np.uint64)
    rows_per_band = num_perm // bands

    shingle = (
        "SELECT DISTINCT doc_id, ("
        + " + ".join(f"ord(substr(text, p+{i}, 1)) * {257 ** (4 - i)}"
                     for i in range(5))
        + ") AS shv FROM (SELECT doc_id, text, "
          "unnest(range(1, length(text) - 3)) AS p FROM documents)"
    )
    sig_cols = ", ".join(
        f"MIN(((((CAST(shv AS HUGEINT) * {int(A[j])}) & {MASK}) + {int(B[j])})"
        f" & {MASK}) % {P61}) AS mh{j}"
        for j in range(num_perm)
    )
    mhlist = ", ".join(f"mh{j}" for j in range(num_perm))
    parts = [
        f"sh AS MATERIALIZED ({shingle})",
        f"sigs AS MATERIALIZED (SELECT doc_id, {sig_cols} FROM sh GROUP BY doc_id)",
        f"sigl AS MATERIALIZED (SELECT doc_id, j, "
        f"CAST(list_extract([{mhlist}], j + 1) AS UBIGINT) AS mh "
        f"FROM sigs, range(0, {num_perm}) r(j))",
        f"b0 AS (SELECT DISTINCT doc_id, CAST(j // {rows_per_band} AS BIGINT)"
        f" AS band, CAST(0 AS UBIGINT) AS h FROM sigl)",
    ]

    def mulmod(t: str, c: int) -> str:
        # (t * c) mod 2^64 without INT128 overflow: 32-bit split of t
        return (f"(((({t}) & 4294967295) * {c} + "
                f"(((({t}) >> 32) * {c}) & 4294967295) * 4294967296) & {MASK})")

    prev = "b0"
    for c in range(rows_per_band):
        parts += [
            f"x{c} AS (SELECT p.doc_id, p.band, xor(p.h, s.mh) AS z FROM {prev} p "
            f"JOIN sigl s ON s.doc_id = p.doc_id AND s.j = p.band * {rows_per_band} + {c})",
            f"z{c}a AS (SELECT doc_id, band, "
            f"CAST((CAST(z AS HUGEINT) + {C1}) & {MASK} AS UBIGINT) AS z FROM x{c})",
            f"z{c}b AS (SELECT doc_id, band, "
            f"CAST({mulmod('CAST(xor(z, z >> 30) AS HUGEINT)', C2)} AS UBIGINT) AS z FROM z{c}a)",
            f"z{c}c AS (SELECT doc_id, band, "
            f"CAST({mulmod('CAST(xor(z, z >> 27) AS HUGEINT)', C3)} AS UBIGINT) AS z FROM z{c}b)",
            f"b{c + 1} AS (SELECT doc_id, band, xor(z, z >> 31) AS h FROM z{c}c)",
        ]
        prev = f"b{c + 1}"
    parts += [
        f"grp AS MATERIALIZED (SELECT band, h, doc_id, "
        f"COUNT(*) OVER (PARTITION BY band, h) AS n, "
        f"LEAD(doc_id) OVER (PARTITION BY band, h ORDER BY doc_id) AS nxt FROM {prev})",
        "candraw AS ("
        "SELECT x.doc_id AS a, y.doc_id AS b FROM grp x "
        "JOIN grp y ON x.band = y.band AND x.h = y.h "
        "WHERE x.n <= 64 AND x.doc_id < y.doc_id "
        "UNION ALL SELECT doc_id, nxt FROM grp WHERE n > 64 AND nxt IS NOT NULL)",
        "cand AS (SELECT DISTINCT a, b FROM candraw)",
        "scnt AS (SELECT doc_id, COUNT(*) AS c FROM sh GROUP BY 1)",
        "inter AS (SELECT c.a, c.b, COUNT(*) AS i FROM cand c "
        "JOIN sh sa ON sa.doc_id = c.a "
        "JOIN sh sb ON sb.doc_id = c.b AND sb.shv = sa.shv GROUP BY 1, 2)",
        f"ver AS (SELECT i.a, i.b FROM inter i "
        f"JOIN scnt ca ON ca.doc_id = i.a JOIN scnt cb ON cb.doc_id = i.b "
        f"WHERE CAST(i.i AS DOUBLE) / (ca.c + cb.c - i.i) >= {threshold})",
        "symp AS (SELECT a AS s, b AS d FROM ver UNION SELECT b, a FROM ver)",
        "reach(v, r) AS (SELECT s, s FROM symp UNION "
        "SELECT sy.d, w.r FROM reach w JOIN symp sy ON sy.s = w.v)",
    ]
    return (
        "WITH RECURSIVE " + ",\n".join(parts)
        + "\nSELECT v AS doc_id, MIN(r) AS dup_group FROM reach GROUP BY 1"
    )


ORACLES["minhash_dedup"] = _minhash_oracle_sql()


def _simhash_oracle_sql() -> str:
    """DuckDB replay of ``dedup.simhash_signatures`` (Charikar SimHash),
    bit-exact: tokens = ``\\w+`` over lowercased text (corpus is pure
    ASCII, so RE2 ``[a-z0-9_]+`` equals Python's ``\\w+`` after
    ``lower()``); token hash = base-257 polynomial over the token's bytes
    mod 2^64 (recursive CTE fold — HUGEINT carries ``h*257 + byte``,
    ``& mask`` replaces ``% 2^64``), xor ``len << 32``, splitmix64
    finalizer (same wraparound tricks as ``_minhash_oracle_sql``); bit
    votes weighted by occurrence count; bit j set iff the vote sum is
    strictly positive; the packed uint64 maps to the kernel's int64 view
    via two's complement.  Tokenless docs get signature 0."""
    MASK = "CAST(18446744073709551615 AS HUGEINT)"
    C1, C2, C3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(t: str, c: int) -> str:
        return (f"(((({t}) & 4294967295) * {c} + "
                f"(((({t}) >> 32) * {c}) & 4294967295) * 4294967296) & {MASK})")

    return f"""
WITH RECURSIVE
toksraw AS (SELECT doc_id,
        unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tok
        FROM documents),
toks AS MATERIALIZED (SELECT doc_id, tok, COUNT(*) AS cnt
        FROM toksraw GROUP BY 1, 2),
ut AS MATERIALIZED (SELECT DISTINCT tok FROM toks),
poly(tok, pos, h) AS (
    SELECT tok, 1, CAST(0 AS HUGEINT) FROM ut
    UNION ALL
    SELECT tok, pos + 1, ((h * 257) + ord(substr(tok, pos, 1))) & {MASK}
    FROM poly WHERE pos <= length(tok)),
ph AS (SELECT tok, CAST(xor(CAST(h AS UBIGINT),
        CAST(length(tok) AS UBIGINT) << 32) AS HUGEINT) AS z
        FROM poly WHERE pos = length(tok) + 1),
s1 AS (SELECT tok, CAST((z + {C1}) & {MASK} AS UBIGINT) AS z FROM ph),
s2 AS (SELECT tok,
        CAST({mulmod('CAST(xor(z, z >> 30) AS HUGEINT)', C2)} AS UBIGINT) AS z
        FROM s1),
s3 AS (SELECT tok,
        CAST({mulmod('CAST(xor(z, z >> 27) AS HUGEINT)', C3)} AS UBIGINT) AS z
        FROM s2),
th AS MATERIALIZED (SELECT tok, xor(z, z >> 31) AS thash FROM s3),
votes AS (SELECT t.doc_id, r.j,
        SUM(CASE WHEN (th.thash >> r.j) & 1 = 1 THEN t.cnt ELSE -t.cnt END)
            AS v
        FROM toks t JOIN th USING (tok), range(0, 64) r(j) GROUP BY 1, 2),
bits AS (SELECT doc_id,
        SUM(CASE WHEN v > 0
            THEN CAST(CAST(1 AS UBIGINT) << j AS HUGEINT)
            ELSE CAST(0 AS HUGEINT) END) AS u
        FROM votes GROUP BY 1)
SELECT d.doc_id,
       CAST(CASE WHEN COALESCE(b.u, 0) >= CAST(9223372036854775808 AS HUGEINT)
            THEN COALESCE(b.u, 0) - CAST(18446744073709551616 AS HUGEINT)
            ELSE COALESCE(b.u, 0) END AS BIGINT) AS simhash
FROM documents d LEFT JOIN bits b USING (doc_id)
"""


ORACLES["simhash"] = _simhash_oracle_sql()


def _betweenness_oracle_sql(edges: bool = False, num_sources: int = 16,
                            max_depth: int = 48) -> str:
    """DuckDB replay of Brandes betweenness on the weight≥3 subgraph from
    the ``num_sources`` smallest vertex keys (matching
    ``q_betweenness``/``q_edge_betweenness``):

    - forward: level-synchronous BFS unrolled to ``max_depth`` CTE levels
      (measured eccentricity from these sources is 22 at sf0.01), carrying
      σ(s,v) = Σ σ over level-(t−1) in-neighbors;
    - backward: δ levels unrolled descending — δ(v) = Σ over DAG edges
      (v@L → w@L+1) of σ(v)/σ(w)·(1+δ(w));
    - vertex mode folds δ into bc (source excluded) and applies the
      reference rescale 1/((V−1)(V−2)) · V/|S|; edge mode re-derives each
      DAG edge's contribution from the final δ table, accumulates per
      stored directed edge, and divides by V(V−1) (no sample
      extrapolation for edges, matching the reference's NetworkX note).
    Both sides round to 6 decimals."""
    D = max_depth
    parts = [f"""WITH
e AS (SELECT 'part::' || l_partkey AS src, 'supp::' || l_suppkey AS dst
      FROM lineitem GROUP BY 1, 2 HAVING COUNT(*) >= 3),
sym AS MATERIALIZED (SELECT src, dst FROM e UNION SELECT dst, src FROM e),
v AS MATERIALIZED (SELECT src AS vertex FROM sym GROUP BY 1),
nv AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM v),
srcs AS (SELECT vertex AS s FROM v ORDER BY vertex LIMIT {num_sources}),
ns AS (SELECT CAST(COUNT(*) AS DOUBLE) AS k FROM srcs),
f0 AS (SELECT s, s AS vx, CAST(1 AS DOUBLE) AS sigma FROM srcs),
vis0 AS (SELECT s, vx, 0 AS dist, sigma FROM f0)"""]
    for t in range(1, D + 1):
        parts.append(f""",
f{t} AS MATERIALIZED (SELECT f.s, sy.dst AS vx, SUM(f.sigma) AS sigma
        FROM f{t - 1} f JOIN sym sy ON sy.src = f.vx
        LEFT JOIN vis{t - 1} vi ON vi.s = f.s AND vi.vx = sy.dst
        WHERE vi.vx IS NULL GROUP BY 1, 2),
vis{t} AS MATERIALIZED (SELECT * FROM vis{t - 1}
        UNION ALL SELECT s, vx, {t}, sigma FROM f{t})""")
    parts.append(f""",
vis AS MATERIALIZED (SELECT * FROM vis{D}),
dl{D} AS MATERIALIZED (SELECT s, vx, CAST(0 AS DOUBLE) AS delta
        FROM vis WHERE dist = {D})""")
    for L in range(D - 1, -1, -1):
        parts.append(f""",
dl{L} AS MATERIALIZED (SELECT a.s, a.vx,
        COALESCE(SUM(a.sigma / b.sigma * (1 + d.delta)), 0) AS delta
        FROM (SELECT * FROM vis WHERE dist = {L}) a
        LEFT JOIN sym sy ON sy.src = a.vx
        LEFT JOIN (SELECT * FROM vis WHERE dist = {L + 1}) b
            ON b.s = a.s AND b.vx = sy.dst
        LEFT JOIN dl{L + 1} d ON d.s = b.s AND d.vx = b.vx
        GROUP BY 1, 2)""")
    alld = " UNION ALL ".join(f"SELECT * FROM dl{L}" for L in range(D + 1))
    parts.append(f""",
alld AS MATERIALIZED ({alld})""")
    if not edges:
        parts.append("""
, bcs AS (SELECT vx AS vertex,
        SUM(CASE WHEN vx = s THEN 0 ELSE delta END) AS raw
        FROM alld GROUP BY 1)
SELECT v.vertex AS vertex_key,
       CAST(ROUND(COALESCE(b.raw, 0) * (SELECT n FROM nv)
             / ((SELECT k FROM ns) * ((SELECT n FROM nv) - 1)
                * ((SELECT n FROM nv) - 2)) * 1e6, 0) AS BIGINT)
           AS betweenness_e6
FROM v LEFT JOIN bcs b ON b.vertex = v.vertex""")
    else:
        parts.append("""
, contrib AS (SELECT a.s, a.vx AS esrc, b.vx AS edst,
        a.sigma / b.sigma * (1 + d.delta) AS c
        FROM vis a JOIN sym sy ON sy.src = a.vx
        JOIN vis b ON b.s = a.s AND b.vx = sy.dst AND b.dist = a.dist + 1
        JOIN alld d ON d.s = b.s AND d.vx = b.vx),
ebc AS (SELECT esrc, edst, SUM(c) AS raw FROM contrib GROUP BY 1, 2)
SELECT sym.src AS src_key, sym.dst AS dst_key,
       CAST(ROUND(COALESCE(b.raw, 0)
             / ((SELECT n FROM nv) * ((SELECT n FROM nv) - 1)) * 1e6, 0)
            AS BIGINT)
           AS betweenness_e6
FROM sym LEFT JOIN ebc b ON b.esrc = sym.src AND b.edst = sym.dst""")
    return "".join(parts)




def _dup_spans_oracle_sql(n: int = 8, min_docs: int = 2) -> str:
    """DuckDB replay of ``dedup.duplicate_ngram_spans`` (exact-substring
    span dedup), bit-exact: token hashes are the SimHash scheme (base-257
    byte polynomial mod 2^64, xor ``len << 32``, splitmix64 — the same
    CTE chain as ``_simhash_oracle_sql``); the gram hash is the Horner
    fold ``g = g*1000003 + tok_hash`` mod 2^64 over the n per-position
    token hashes (LEAD window, HUGEINT with ``& mask`` per step — numpy
    uint64 wraparound on the kernel side); duplicate grams = distinct doc
    count >= min_docs; spans = classic gaps-and-islands interval merge
    (touching spans merge, matching the kernel's strict ``s > running
    max end`` island break)."""
    MASK = "CAST(18446744073709551615 AS HUGEINT)"
    C1, C2, C3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(t: str, c: int) -> str:
        return (f"(((({t}) & 4294967295) * {c} + "
                f"(((({t}) >> 32) * {c}) & 4294967295) * 4294967296) & {MASK})")

    leads = ",\n           ".join(
        f"LEAD(thash, {i}) OVER w AS h{i}" for i in range(1, n)
    )
    fold = "CAST(h0 AS HUGEINT)"
    for i in range(1, n):
        fold = f"((({fold}) * 1000003 + CAST(h{i} AS HUGEINT)) & {MASK})"

    return f"""
WITH RECURSIVE
toklist AS (SELECT doc_id,
        regexp_extract_all(lower(text), '[a-z0-9_]+') AS l FROM documents),
toks AS MATERIALIZED (SELECT doc_id, unnest(l) AS tok,
        generate_subscripts(l, 1) AS pos FROM toklist),
ut AS MATERIALIZED (SELECT DISTINCT tok FROM toks),
poly(tok, pos, h) AS (
    SELECT tok, 1, CAST(0 AS HUGEINT) FROM ut
    UNION ALL
    SELECT tok, pos + 1, ((h * 257) + ord(substr(tok, pos, 1))) & {{MASK}}
    FROM poly WHERE pos <= length(tok)),
ph AS (SELECT tok, CAST(xor(CAST(h AS UBIGINT),
        CAST(length(tok) AS UBIGINT) << 32) AS HUGEINT) AS z
        FROM poly WHERE pos = length(tok) + 1),
s1 AS (SELECT tok, CAST((z + {{C1}}) & {{MASK}} AS UBIGINT) AS z FROM ph),
s2 AS (SELECT tok,
        CAST({{m2}} AS UBIGINT) AS z
        FROM s1),
s3 AS (SELECT tok,
        CAST({{m3}} AS UBIGINT) AS z
        FROM s2),
th AS MATERIALIZED (SELECT tok, xor(z, z >> 31) AS thash FROM s3),
seq AS (SELECT t.doc_id, t.pos, th.thash FROM toks t JOIN th USING (tok)),
win AS (SELECT doc_id, pos, thash AS h0,
           {{leads}}
        FROM seq WINDOW w AS (PARTITION BY doc_id ORDER BY pos)),
gr AS MATERIALIZED (SELECT doc_id, pos, {{fold}} AS g
        FROM win WHERE h{{last}} IS NOT NULL),
dup AS (SELECT g FROM (SELECT g, COUNT(DISTINCT doc_id) AS nd
        FROM gr GROUP BY g) WHERE nd >= {{min_docs}}),
sp AS (SELECT gr.doc_id, gr.pos - 1 AS s, gr.pos - 1 + {{n}} AS e
        FROM gr JOIN dup USING (g)),
isl AS (SELECT doc_id, s, e,
        CASE WHEN s > COALESCE(MAX(e) OVER (PARTITION BY doc_id ORDER BY s
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), -1)
        THEN 1 ELSE 0 END AS brk FROM sp),
grp AS (SELECT doc_id, s, e, SUM(brk) OVER (PARTITION BY doc_id ORDER BY s
        ROWS UNBOUNDED PRECEDING) AS gid FROM isl)
SELECT doc_id, MIN(s) AS span_start, MAX(e) AS span_end,
       CAST(COUNT(*) AS BIGINT) AS n_grams
FROM grp GROUP BY doc_id, gid
""".replace("{MASK}", MASK).replace("{C1}", str(C1)).replace(
        "{m2}", mulmod("CAST(xor(z, z >> 30) AS HUGEINT)", C2)).replace(
        "{m3}", mulmod("CAST(xor(z, z >> 27) AS HUGEINT)", C3)).replace(
        "{leads}", leads).replace("{fold}", fold).replace(
        "{last}", str(n - 1)).replace("{min_docs}", str(min_docs)).replace(
        "{n}", str(n))


ORACLES["dup_spans"] = _dup_spans_oracle_sql()

ORACLES["json_extract"] = """
SELECT event_type,
       CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY event_type
"""


ORACLES["betweenness"] = _betweenness_oracle_sql()
ORACLES["edge_betweenness"] = _betweenness_oracle_sql(edges=True)


def _ivf_knn_oracle_sql(k: int = 10, nprobe: int = 4, num_centroids: int = 8,
                        iters: int = 10, dim: int = 64,
                        sample_rows: int = 10_000) -> str:
    """DuckDB replay of ``knn.knn_ivf`` end-to-end (mirrors
    ``q_ivf_knn``): hash-stride training sample (``splitmix64(vec_id) %
    stride == 0`` — the same wraparound replay as ``_minhash_oracle_sql``),
    init = the ``num_centroids`` smallest sampled ids' normalized vectors,
    ``iters`` spherical-Lloyd iterations (cosine argmax with ties to the
    lowest cid; empty/zero-norm clusters keep their previous centroid),
    full-table list assignment, per-query top-``nprobe`` probed lists
    (ties to the lowest cid — the kernel's stable argsort), then the exact
    brute-force rank over probed candidates by (round(cosine, 6) DESC,
    neighbor_id).  Output is integer ranks — no float columns."""
    MASK = "CAST(18446744073709551615 AS HUGEINT)"
    C1, C2, C3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(t: str, c: int) -> str:
        return (f"(((({t}) & 4294967295) * {c} + "
                f"(((({t}) >> 32) * {c}) & 4294967295) * 4294967296) & {MASK})")

    parts = [f"""WITH dim AS (SELECT i FROM range(1, {dim + 1}) t(i)),
ev AS MATERIALIZED (SELECT vec_id, i, CAST(embedding[i] AS DOUBLE) AS x
        FROM embeddings, dim),
nrm AS (SELECT vec_id, sqrt(SUM(x * x)) AS nn FROM ev GROUP BY 1),
evn AS MATERIALIZED (SELECT e.vec_id, e.i,
        CASE WHEN n.nn = 0 THEN e.x ELSE e.x / n.nn END AS x
        FROM ev e JOIN nrm n USING (vec_id)),
strd AS (SELECT CAST(GREATEST(1, COUNT(*) // {sample_rows}) AS UBIGINT) AS st
        FROM embeddings),
h0 AS (SELECT vec_id,
        CAST((CAST(vec_id AS HUGEINT) + {C1}) & {MASK} AS UBIGINT) AS z
        FROM embeddings),
h1 AS (SELECT vec_id,
        CAST({mulmod('CAST(xor(z, z >> 30) AS HUGEINT)', C2)} AS UBIGINT) AS z
        FROM h0),
h2 AS (SELECT vec_id,
        CAST({mulmod('CAST(xor(z, z >> 27) AS HUGEINT)', C3)} AS UBIGINT) AS z
        FROM h1),
smp AS MATERIALIZED (SELECT vec_id FROM
        (SELECT vec_id, xor(z, z >> 31) AS h FROM h2)
        WHERE h % (SELECT st FROM strd) = 0),
init AS (SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cid
        FROM (SELECT vec_id FROM smp ORDER BY vec_id LIMIT {num_centroids})),
c0 AS MATERIALIZED (SELECT i.cid, e.i, e.x FROM init i JOIN evn e USING (vec_id))"""]
    for t in range(iters):
        parts.append(f""",
s{t} AS (SELECT e.vec_id, c.cid, SUM(e.x * c.x) AS sim
        FROM evn e JOIN c{t} c USING (i)
        WHERE e.vec_id IN (SELECT vec_id FROM smp) GROUP BY 1, 2),
a{t} AS MATERIALIZED (SELECT vec_id, cid FROM (
        SELECT vec_id, cid,
               ROW_NUMBER() OVER (PARTITION BY vec_id
                                  ORDER BY ROUND(sim, 9) DESC, cid) rn
        FROM s{t}) WHERE rn = 1),
m{t} AS (SELECT a.cid, e.i, AVG(e.x) AS v FROM a{t} a
        JOIN evn e USING (vec_id) GROUP BY 1, 2),
mn{t} AS MATERIALIZED (SELECT cid, sqrt(SUM(v * v)) AS nn FROM m{t} GROUP BY 1),
c{t + 1} AS MATERIALIZED (
        SELECT m.cid, m.i, m.v / n.nn AS x FROM m{t} m
        JOIN mn{t} n USING (cid) WHERE n.nn > 0
        UNION ALL
        SELECT c.cid, c.i, c.x FROM c{t} c
        WHERE c.cid NOT IN (SELECT cid FROM mn{t} WHERE nn > 0))""")
    C = f"c{iters}"
    parts.append(f""",
sall AS (SELECT e.vec_id, c.cid, SUM(e.x * c.x) AS sim
        FROM evn e JOIN {C} c USING (i) GROUP BY 1, 2),
asg AS MATERIALIZED (SELECT vec_id, cid FROM (
        SELECT vec_id, cid,
               ROW_NUMBER() OVER (PARTITION BY vec_id
                                  ORDER BY ROUND(sim, 9) DESC, cid) rn
        FROM sall) WHERE rn = 1),
q AS (SELECT vec_id AS query_id FROM embeddings ORDER BY vec_id LIMIT 3),
qsim AS (SELECT q.query_id, c.cid, SUM(e.x * c.x) AS sim
        FROM q JOIN evn e ON e.vec_id = q.query_id
        JOIN {C} c USING (i) GROUP BY 1, 2),
probe AS (SELECT DISTINCT cid FROM (
        SELECT query_id, cid,
               ROW_NUMBER() OVER (PARTITION BY query_id
                                  ORDER BY ROUND(sim, 9) DESC, cid) rn
        FROM qsim) WHERE rn <= {nprobe}),
cand AS MATERIALIZED (SELECT vec_id FROM asg
        WHERE cid IN (SELECT cid FROM probe)),
sims AS (SELECT q.query_id, e.vec_id AS neighbor_id, SUM(qe.x * e.x) AS sim
        FROM q JOIN evn qe ON qe.vec_id = q.query_id
        JOIN evn e ON e.i = qe.i
        WHERE e.vec_id IN (SELECT vec_id FROM cand)
          AND e.vec_id <> q.query_id GROUP BY 1, 2),
ranked AS (SELECT query_id, neighbor_id,
        ROW_NUMBER() OVER (PARTITION BY query_id
                           ORDER BY ROUND(sim, 6) DESC, neighbor_id) AS rank
        FROM sims)
SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank <= {k}""")
    return "".join(parts)


ORACLES["ivf_knn"] = _ivf_knn_oracle_sql()


def _mst_oracle_sql(rounds: int = 12, doublings: int = 14) -> str:
    """DuckDB replay of the minimum spanning forest on the int-keyed ps
    graph (``q_mst_int``): Borůvka rounds unrolled as CTE chains — per
    round every component picks its minimum crossing edge under the
    strict total order (w, a, b) (the same order
    ``algos.mst.minimum_spanning_tree`` uses, which makes the forest
    unique — any correct MSF algorithm under that order returns the same
    edge set).  Components merge by the algorithm's own mechanism:
    2-cycle break (the round's pointer graph only has mutual-pair cycles
    under a strict order; the smaller comp id becomes the self-pointing
    root) followed by ``doublings`` unrolled pointer-doubling steps
    (p ← p[p], covering chains up to 2^doublings).  Everything is
    non-recursive materialized CTEs — a recursive closure inside this
    chain made DuckDB's planner spill unboundedly.  ``rounds`` ≥
    ⌈log₂ V⌉ guarantees convergence (components at least halve per
    round); empty late rounds are no-ops."""
    parts = [f"""WITH
e0 AS MATERIALIZED (SELECT l_partkey AS a, l_suppkey + {SUPP_OFFSET} AS b,
        CAST(COUNT(*) AS DOUBLE) AS w FROM lineitem GROUP BY 1, 2),
vtx AS (SELECT a AS v FROM e0 UNION SELECT b FROM e0),
c0 AS MATERIALIZED (SELECT v, v AS comp FROM vtx)"""]
    for r in range(rounds):
        parts.append(f""",
x{r} AS MATERIALIZED (SELECT e.a, e.b, e.w, ca.comp AS ca, cb.comp AS cb
        FROM e0 e JOIN c{r} ca ON ca.v = e.a JOIN c{r} cb ON cb.v = e.b
        WHERE ca.comp <> cb.comp),
psel{r} AS MATERIALIZED (SELECT comp, a, b, w, ca, cb FROM (
        SELECT comp, a, b, w, ca, cb,
               ROW_NUMBER() OVER (PARTITION BY comp ORDER BY w, a, b) rn
        FROM (SELECT ca AS comp, a, b, w, ca, cb FROM x{r}
              UNION ALL SELECT cb, a, b, w, ca, cb FROM x{r})
        ) WHERE rn = 1),
ptr{r} AS MATERIALIZED (SELECT comp,
        CASE WHEN comp = ca THEN cb ELSE ca END AS other FROM psel{r}),
p{r}_0 AS MATERIALIZED (SELECT t.comp,
        CASE WHEN t2.other = t.comp AND t.comp < t.other
             THEN t.comp ELSE t.other END AS p
        FROM ptr{r} t JOIN ptr{r} t2 ON t2.comp = t.other)""")
        for k in range(1, doublings + 1):
            parts.append(f""",
p{r}_{k} AS MATERIALIZED (SELECT a.comp, b.p
        FROM p{r}_{k - 1} a JOIN p{r}_{k - 1} b ON b.comp = a.p)""")
        parts.append(f""",
c{r + 1} AS MATERIALIZED (SELECT c.v, COALESCE(rt.p, c.comp) AS comp
        FROM c{r} c LEFT JOIN p{r}_{doublings} rt ON rt.comp = c.comp)""")
    allsel = " UNION ALL ".join(
        f"SELECT a, b, w FROM psel{r}" for r in range(rounds)
    )
    parts.append(f"""
SELECT DISTINCT a AS src, b AS dst, w AS weight FROM ({allsel})""")
    return "".join(parts)


ORACLES["mst_int"] = _mst_oracle_sql()


def _walks_oracle_sql(seed: int = 42, max_length: int = 4,
                      n_starts: int = 6) -> str:
    """DuckDB replay of uniform random walks on the int-keyed ps graph,
    bit-exact vs the superstep walk kernel (``superstep.walk_step_scatter``
    + ``sampling._seeded_uniform``): per step, u = splitmix64-counter
    uniform of (seed, walker, step), pick = trunc(u·deg) % deg, next =
    pick-th smallest out-neighbor (the CSR sorts rows by dst — with
    renumber=False that order is plain int order, which ROW_NUMBER
    reproduces).  Steps are unrolled as CTE chains; the splitmix64
    wraparound arithmetic uses the same HUGEINT &-mask / 32-bit-split
    tricks as ``_minhash_oracle_sql``."""
    MASK = "CAST(18446744073709551615 AS HUGEINT)"
    C1, C2, C3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(t: str, c: int) -> str:
        return (f"(((({t}) & 4294967295) * {c} + "
                f"(((({t}) >> 32) * {c}) & 4294967295) * 4294967296) & {MASK})")

    parts = [
        f"e AS (SELECT l_partkey AS src, l_suppkey + {SUPP_OFFSET} AS dst "
        f"FROM lineitem GROUP BY 1, 2)",
        "sym AS MATERIALIZED (SELECT DISTINCT src, dst FROM "
        "(SELECT src, dst FROM e UNION ALL SELECT dst, src FROM e))",
        "adj AS MATERIALIZED (SELECT src, dst, "
        "ROW_NUMBER() OVER (PARTITION BY src ORDER BY dst) - 1 AS rk FROM sym)",
        "degs AS (SELECT src, COUNT(*) AS deg FROM sym GROUP BY 1)",
        f"st AS (SELECT vertex, ROW_NUMBER() OVER (ORDER BY vertex) - 1 AS walker "
        f"FROM (SELECT DISTINCT l_partkey AS vertex FROM lineitem "
        f"ORDER BY 1 LIMIT {n_starts}))",
        "w0 AS (SELECT walker, vertex AS v FROM st)",
    ]
    for k in range(1, max_length):
        K = (seed * 0x9E3779B97F4A7C15 + k * 0xD1B54A32D192ED03) % 2 ** 64
        parts += [
            f"a{k} AS (SELECT w.walker, w.v, d.deg FROM w{k - 1} w "
            f"JOIN degs d ON d.src = w.v)",
            f"s{k}0 AS (SELECT walker, v, deg, "
            f"CAST((CAST(xor(CAST(walker AS UBIGINT), CAST('{K}' AS UBIGINT)) AS HUGEINT)"
            f" + {C1}) & {MASK} AS UBIGINT) AS z FROM a{k})",
            f"s{k}1 AS (SELECT walker, v, deg, "
            f"CAST({mulmod('CAST(xor(z, z >> 30) AS HUGEINT)', C2)} AS UBIGINT) AS z FROM s{k}0)",
            f"s{k}2 AS (SELECT walker, v, deg, "
            f"CAST({mulmod('CAST(xor(z, z >> 27) AS HUGEINT)', C3)} AS UBIGINT) AS z FROM s{k}1)",
            f"t{k}0 AS (SELECT walker, v, deg, "
            f"CAST((CAST(xor(z, z >> 31) AS HUGEINT) + 1 + {C1}) & {MASK} AS UBIGINT)"
            f" AS z FROM s{k}2)",
            f"t{k}1 AS (SELECT walker, v, deg, "
            f"CAST({mulmod('CAST(xor(z, z >> 30) AS HUGEINT)', C2)} AS UBIGINT) AS z FROM t{k}0)",
            f"t{k}2 AS (SELECT walker, v, deg, "
            f"CAST({mulmod('CAST(xor(z, z >> 27) AS HUGEINT)', C3)} AS UBIGINT) AS z FROM t{k}1)",
            f"p{k} AS (SELECT walker, v, "
            f"CAST(floor(CAST(xor(z, z >> 31) >> 11 AS DOUBLE) "
            f"* (1.0 / 9007199254740992.0) * CAST(deg AS DOUBLE)) AS BIGINT) % deg"
            f" AS pick FROM t{k}2)",
            f"w{k} AS (SELECT p.walker, a.dst AS v FROM p{k} p "
            f"JOIN adj a ON a.src = p.v AND a.rk = p.pick)",
        ]
    selects = ["SELECT walker, CAST(0 AS BIGINT) AS step, v AS vertex FROM w0"]
    selects += [
        f"SELECT walker, CAST({k} AS BIGINT), v FROM w{k}"
        for k in range(1, max_length)
    ]
    return "WITH " + ",\n".join(parts) + "\n" + "\nUNION ALL ".join(selects)


ORACLES["walks_int"] = _walks_oracle_sql()


def _biased_walks_oracle_sql(seed: int = 42, max_length: int = 4,
                             n_starts: int = 6) -> str:
    """DuckDB replay of edge-weight-biased walks on the int-keyed ps
    graph, bit-exact vs ``superstep.walk_step_scatter``'s row-local
    inverse-CDF draw: per step, u = splitmix64-counter uniform of
    (seed, walker, step); next = the smallest dst whose running weight
    sum (dst-sorted within the row) strictly exceeds u·total.  Weights
    are lineitem co-occurrence COUNTs — exact integers — so both sides
    compute the identical IEEE double comparison (the single rounded
    multiply u·total; every cumsum/total operand exact)."""
    MASK = "CAST(18446744073709551615 AS HUGEINT)"
    C1, C2, C3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(t: str, c: int) -> str:
        return (f"(((({t}) & 4294967295) * {c} + "
                f"(((({t}) >> 32) * {c}) & 4294967295) * 4294967296) & {MASK})")

    parts = [
        f"e AS (SELECT l_partkey AS src, l_suppkey + {SUPP_OFFSET} AS dst, "
        f"COUNT(*) AS w FROM lineitem GROUP BY 1, 2)",
        "sym AS MATERIALIZED (SELECT src, dst, w FROM e "
        "UNION ALL SELECT dst, src, w FROM e)",
        "adj AS MATERIALIZED (SELECT src, dst, "
        "SUM(w) OVER (PARTITION BY src ORDER BY dst) AS cumw FROM sym)",
        "degs AS (SELECT src, SUM(w) AS total FROM sym GROUP BY 1)",
        f"st AS (SELECT vertex, ROW_NUMBER() OVER (ORDER BY vertex) - 1 AS walker "
        f"FROM (SELECT DISTINCT l_partkey AS vertex FROM lineitem "
        f"ORDER BY 1 LIMIT {n_starts}))",
        "w0 AS (SELECT walker, vertex AS v FROM st)",
    ]
    for k in range(1, max_length):
        K = (seed * 0x9E3779B97F4A7C15 + k * 0xD1B54A32D192ED03) % 2 ** 64
        parts += [
            f"a{k} AS (SELECT w.walker, w.v, d.total FROM w{k - 1} w "
            f"JOIN degs d ON d.src = w.v)",
            f"s{k}0 AS (SELECT walker, v, total, "
            f"CAST((CAST(xor(CAST(walker AS UBIGINT), CAST('{K}' AS UBIGINT)) AS HUGEINT)"
            f" + {C1}) & {MASK} AS UBIGINT) AS z FROM a{k})",
            f"s{k}1 AS (SELECT walker, v, total, "
            f"CAST({mulmod('CAST(xor(z, z >> 30) AS HUGEINT)', C2)} AS UBIGINT) AS z FROM s{k}0)",
            f"s{k}2 AS (SELECT walker, v, total, "
            f"CAST({mulmod('CAST(xor(z, z >> 27) AS HUGEINT)', C3)} AS UBIGINT) AS z FROM s{k}1)",
            f"t{k}0 AS (SELECT walker, v, total, "
            f"CAST((CAST(xor(z, z >> 31) AS HUGEINT) + 1 + {C1}) & {MASK} AS UBIGINT)"
            f" AS z FROM s{k}2)",
            f"t{k}1 AS (SELECT walker, v, total, "
            f"CAST({mulmod('CAST(xor(z, z >> 30) AS HUGEINT)', C2)} AS UBIGINT) AS z FROM t{k}0)",
            f"t{k}2 AS (SELECT walker, v, total, "
            f"CAST({mulmod('CAST(xor(z, z >> 27) AS HUGEINT)', C3)} AS UBIGINT) AS z FROM t{k}1)",
            f"p{k} AS (SELECT walker, v, "
            f"CAST(xor(z, z >> 31) >> 11 AS DOUBLE) * (1.0 / 9007199254740992.0) "
            f"* CAST(total AS DOUBLE) AS tgt FROM t{k}2)",
            f"w{k} AS (SELECT p.walker, MIN(a.dst) AS v FROM p{k} p "
            f"JOIN adj a ON a.src = p.v AND CAST(a.cumw AS DOUBLE) > p.tgt "
            f"GROUP BY p.walker)",
        ]
    selects = ["SELECT walker, CAST(0 AS BIGINT) AS step, v AS vertex FROM w0"]
    selects += [
        f"SELECT walker, CAST({k} AS BIGINT), v FROM w{k}"
        for k in range(1, max_length)
    ]
    return "WITH " + ",\n".join(parts) + "\n" + "\nUNION ALL ".join(selects)


ORACLES["biased_walks_int"] = _biased_walks_oracle_sql()


def _node2vec_oracle_sql(seed: int = 42, max_length: int = 4,
                         n_starts: int = 6) -> str:
    """DuckDB replay of node2vec walks (p=2, q=0.5) on the int-keyed ps
    graph, bit-exact vs ``superstep.n2v_move_scatter``: per step, each
    candidate edge (v→d, weight w) gets α = 1/p if d is the previous
    vertex, 1 if edge(prev, d) exists, else 1/q (Grover & Leskovec 2016);
    next = the smallest d whose running w·α sum (dst-sorted) strictly
    exceeds u·total.  Integer counts × power-of-two α keep every cumsum
    operand an exact dyadic double, so SQL and numpy compute the identical
    IEEE comparison (single rounded multiply u·total on both sides).
    Step 1 has no prev: α = 1/q uniformly, mirroring the engine's
    flags-stay-False first step."""
    MASK = "CAST(18446744073709551615 AS HUGEINT)"
    C1, C2, C3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    INV_P, INV_Q = "0.5", "2.0"

    def mulmod(t: str, c: int) -> str:
        return (f"(((({t}) & 4294967295) * {c} + "
                f"(((({t}) >> 32) * {c}) & 4294967295) * 4294967296) & {MASK})")

    parts = [
        f"e AS (SELECT l_partkey AS src, l_suppkey + {SUPP_OFFSET} AS dst, "
        f"COUNT(*) AS w FROM lineitem GROUP BY 1, 2)",
        "sym AS MATERIALIZED (SELECT src, dst, w FROM e "
        "UNION ALL SELECT dst, src, w FROM e)",
        f"st AS (SELECT vertex, ROW_NUMBER() OVER (ORDER BY vertex) - 1 AS walker "
        f"FROM (SELECT DISTINCT l_partkey AS vertex FROM lineitem "
        f"ORDER BY 1 LIMIT {n_starts}))",
        "w0 AS (SELECT walker, CAST(-1 AS BIGINT) AS prev, vertex AS v FROM st)",
    ]
    for k in range(1, max_length):
        K = (seed * 0x9E3779B97F4A7C15 + k * 0xD1B54A32D192ED03) % 2 ** 64
        parts += [
            f"a{k} AS (SELECT pw.walker, pw.v, adj.dst, adj.w, "
            f"CASE WHEN adj.dst = pw.prev THEN {INV_P} "
            f"WHEN chk.src IS NOT NULL THEN 1.0 "
            f"ELSE {INV_Q} END AS alpha "
            f"FROM w{k - 1} pw JOIN sym adj ON adj.src = pw.v "
            f"LEFT JOIN sym chk ON chk.src = pw.prev AND chk.dst = adj.dst)",
            f"c{k} AS (SELECT walker, v, dst, "
            f"SUM(w * alpha) OVER (PARTITION BY walker ORDER BY dst) AS cumw, "
            f"SUM(w * alpha) OVER (PARTITION BY walker) AS total FROM a{k})",
            f"s{k}0 AS (SELECT walker, "
            f"CAST((CAST(xor(CAST(walker AS UBIGINT), CAST('{K}' AS UBIGINT)) AS HUGEINT)"
            f" + {C1}) & {MASK} AS UBIGINT) AS z FROM w{k - 1})",
            f"s{k}1 AS (SELECT walker, "
            f"CAST({mulmod('CAST(xor(z, z >> 30) AS HUGEINT)', C2)} AS UBIGINT) AS z FROM s{k}0)",
            f"s{k}2 AS (SELECT walker, "
            f"CAST({mulmod('CAST(xor(z, z >> 27) AS HUGEINT)', C3)} AS UBIGINT) AS z FROM s{k}1)",
            f"t{k}0 AS (SELECT walker, "
            f"CAST((CAST(xor(z, z >> 31) AS HUGEINT) + 1 + {C1}) & {MASK} AS UBIGINT)"
            f" AS z FROM s{k}2)",
            f"t{k}1 AS (SELECT walker, "
            f"CAST({mulmod('CAST(xor(z, z >> 30) AS HUGEINT)', C2)} AS UBIGINT) AS z FROM t{k}0)",
            f"t{k}2 AS (SELECT walker, "
            f"CAST({mulmod('CAST(xor(z, z >> 27) AS HUGEINT)', C3)} AS UBIGINT) AS z FROM t{k}1)",
            f"p{k} AS (SELECT walker, "
            f"CAST(xor(z, z >> 31) >> 11 AS DOUBLE) * (1.0 / 9007199254740992.0)"
            f" AS u FROM t{k}2)",
            f"w{k} AS (SELECT c.walker, c.v AS prev, MIN(c.dst) AS v "
            f"FROM c{k} c JOIN p{k} p ON p.walker = c.walker "
            f"AND c.cumw > p.u * c.total GROUP BY 1, 2)",
        ]
    selects = ["SELECT walker, CAST(0 AS BIGINT) AS step, v AS vertex FROM w0"]
    selects += [
        f"SELECT walker, CAST({k} AS BIGINT), v FROM w{k}"
        for k in range(1, max_length)
    ]
    return "WITH " + ",\n".join(parts) + "\n" + "\nUNION ALL ".join(selects)


ORACLES["node2vec_int"] = _node2vec_oracle_sql()

# bigram PMI: tokenization (split on ' ', empties dropped, re-ranked
# positions), counts, scalar totals and the PMI float expression all
# stated exactly as data.text.bigram_pmi computes them
ORACLES["bigram_pmi"] = """
WITH docs AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
toks0 AS (SELECT doc_id, unnest(l) AS w, generate_subscripts(l, 1) AS i
          FROM docs),
toks AS (SELECT doc_id, w,
                ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY i) AS j
         FROM toks0 WHERE w <> ''),
big AS (SELECT a.w AS w1, b.w AS w2 FROM toks a
        JOIN toks b ON b.doc_id = a.doc_id AND b.j = a.j + 1),
uni AS (SELECT w, COUNT(*) AS c FROM toks GROUP BY 1),
bc AS (SELECT w1, w2, COUNT(*) AS c12 FROM big GROUP BY 1, 2),
tot AS (SELECT (SELECT SUM(c) FROM uni) AS n_tok,
               (SELECT SUM(c12) FROM bc) AS n_big)
SELECT bc.w1, bc.w2, bc.c12,
       CAST(ROUND(LN((CAST(bc.c12 AS DOUBLE) / CAST(tot.n_big AS DOUBLE))
             / ((CAST(u1.c AS DOUBLE) / CAST(tot.n_tok AS DOUBLE))
              * (CAST(u2.c AS DOUBLE) / CAST(tot.n_tok AS DOUBLE))))
            * 1e6, 0) AS BIGINT)
       AS pmi_e6
FROM bc CROSS JOIN tot
JOIN uni u1 ON u1.w = bc.w1
JOIN uni u2 ON u2.w = bc.w2
WHERE bc.c12 >= 5
"""


def _neighbor_sample_oracle_sql(seed: int = 42, fanouts=(3, 2),
                                n_starts: int = 6) -> str:
    """DuckDB replay of ``uniform_neighbor_sample`` on the int-keyed ps
    graph: per hop, each frontier edge draws u = splitmix64-counter
    uniform of (seed, dst ^ 2·src, hop); the kernel keeps the fanout
    lowest u (stable argsort over dst-sorted candidates = ORDER BY u,
    dst), then the next frontier is the distinct sampled dst."""
    MASK = "CAST(18446744073709551615 AS HUGEINT)"
    C1, C2, C3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(t: str, c: int) -> str:
        return (f"(((({t}) & 4294967295) * {c} + "
                f"(((({t}) >> 32) * {c}) & 4294967295) * 4294967296) & {MASK})")

    parts = [
        f"e AS (SELECT l_partkey AS src, l_suppkey + {SUPP_OFFSET} AS dst "
        f"FROM lineitem GROUP BY 1, 2)",
        "sym AS MATERIALIZED (SELECT DISTINCT src, dst FROM "
        "(SELECT src, dst FROM e UNION ALL SELECT dst, src FROM e))",
        f"f0 AS (SELECT vertex AS v FROM (SELECT DISTINCT l_partkey AS vertex "
        f"FROM lineitem ORDER BY 1 LIMIT {n_starts}))",
    ]
    for k, fanout in enumerate(fanouts):
        K = (seed * 0x9E3779B97F4A7C15 + k * 0xD1B54A32D192ED03) % 2 ** 64
        parts += [
            f"c{k}0 AS (SELECT s.src, s.dst, "
            f"CAST((CAST(xor(CAST(xor(s.dst, s.src * 2) AS UBIGINT), "
            f"CAST('{K}' AS UBIGINT)) AS HUGEINT) + {C1}) & {MASK} AS UBIGINT)"
            f" AS z FROM sym s JOIN f{k} f ON f.v = s.src)",
            f"c{k}1 AS (SELECT src, dst, "
            f"CAST({mulmod('CAST(xor(z, z >> 30) AS HUGEINT)', C2)} AS UBIGINT) AS z FROM c{k}0)",
            f"c{k}2 AS (SELECT src, dst, "
            f"CAST({mulmod('CAST(xor(z, z >> 27) AS HUGEINT)', C3)} AS UBIGINT) AS z FROM c{k}1)",
            f"t{k}0 AS (SELECT src, dst, "
            f"CAST((CAST(xor(z, z >> 31) AS HUGEINT) + 1 + {C1}) & {MASK} AS UBIGINT)"
            f" AS z FROM c{k}2)",
            f"t{k}1 AS (SELECT src, dst, "
            f"CAST({mulmod('CAST(xor(z, z >> 30) AS HUGEINT)', C2)} AS UBIGINT) AS z FROM t{k}0)",
            f"t{k}2 AS (SELECT src, dst, "
            f"CAST({mulmod('CAST(xor(z, z >> 27) AS HUGEINT)', C3)} AS UBIGINT) AS z FROM t{k}1)",
            f"samp{k} AS (SELECT src, dst FROM ("
            f"SELECT src, dst, ROW_NUMBER() OVER (PARTITION BY src "
            f"ORDER BY CAST(xor(z, z >> 31) >> 11 AS DOUBLE)"
            f" * (1.0 / 9007199254740992.0), dst) AS rn FROM t{k}2)"
            f" WHERE rn <= {fanout})",
            f"f{k + 1} AS (SELECT DISTINCT dst AS v FROM samp{k})",
        ]
    selects = [
        f"SELECT CAST({k} AS BIGINT) AS hop, src, dst FROM samp{k}"
        for k in range(len(fanouts))
    ]
    return "WITH " + ",\n".join(parts) + "\n" + "\nUNION ALL ".join(selects)


ORACLES["neighbor_sample_int"] = _neighbor_sample_oracle_sql()

# BFS path unwind on the int ps graph: distances by recursive closure,
# predecessor(v) = MIN(u at distance d−1) — the engine's lexsort
# min-(dist, src) tie-break stated relationally — then the path set by
# recursive predecessor descent from the 5 highest reached ids.
ORACLES["bfs_paths_int"] = f"""
WITH RECURSIVE
e AS (SELECT l_partkey AS src, l_suppkey + {SUPP_OFFSET} AS dst
      FROM lineitem GROUP BY 1, 2),
sym AS MATERIALIZED (SELECT DISTINCT src, dst FROM
      (SELECT src, dst FROM e UNION ALL SELECT dst, src FROM e)),
s AS (SELECT MIN(l_partkey) AS sv FROM lineitem),
walk(vertex, dist) AS (
    SELECT sv, 0 FROM s
    UNION
    SELECT sy.dst, w.dist + 1 FROM walk w JOIN sym sy ON sy.src = w.vertex
    WHERE w.dist < 64
),
md AS MATERIALIZED (SELECT vertex, MIN(dist) AS d FROM walk GROUP BY 1),
pred AS MATERIALIZED (
    SELECT m.vertex AS v, MIN(sy.src) AS p
    FROM md m
    JOIN sym sy ON sy.dst = m.vertex
    JOIN md mu ON mu.vertex = sy.src AND mu.d = m.d - 1
    WHERE m.d >= 1 GROUP BY 1
),
dests AS (SELECT vertex FROM md WHERE d >= 1 ORDER BY vertex DESC LIMIT 5),
paths(dest, vtx) AS (
    SELECT vertex, vertex FROM dests
    UNION ALL
    SELECT p.dest, pr.p FROM paths p JOIN pred pr ON pr.v = p.vtx
)
SELECT p.dest, md.d AS pos, p.vtx AS vertex
FROM paths p JOIN md ON md.vertex = p.vtx
"""

ORACLES["image_decode"] = """
WITH pos AS (SELECT unnest(generate_series(0, 63)) AS p),
b AS (
  SELECT d.doc_id,
         ((pos.p // 8) // 4) * 2 + ((pos.p % 8) // 4) AS q,
         ascii(substr(d.text, pos.p + 1, 1)) AS v
  FROM documents d CROSS JOIN pos
)
SELECT doc_id,
       CAST(8 AS BIGINT) AS width, CAST(8 AS BIGINT) AS height,
       CAST(1 AS BIGINT) AS channels,
       CAST(SUM(CASE WHEN q = 0 THEN v ELSE 0 END) AS BIGINT) AS f0,
       CAST(SUM(CASE WHEN q = 1 THEN v ELSE 0 END) AS BIGINT) AS f1,
       CAST(SUM(CASE WHEN q = 2 THEN v ELSE 0 END) AS BIGINT) AS f2,
       CAST(SUM(CASE WHEN q = 3 THEN v ELSE 0 END) AS BIGINT) AS f3
FROM b GROUP BY doc_id
"""
