"""The three workloads.  Each is a closed loop: ``run_pass`` issues one
public call at a time through ``Runner.call`` and checks every result,
untimed, against ``oracles``.

* corpus-e2e   corpus -> ingest -> derive + build -> one checkpointed engine
               (PageRank to 1e-6, WCC, LPA) -> triangle count
* rmat-engine  engine spin-up, PageRank superstep by superstep, WCC, LPA on a
               symmetrized RMAT graph built during set-up
* query-mix    the fixed list of driver queries, seed-permuted, each checked
               against its DuckDB oracle
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pandas as pd

from perfbench import inputs, oracles
from perfbench.harness import dir_bytes

PR_TOL = 1e-6
NUM_PARTITIONS = 8


def _edges(g) -> pd.DataFrame:
    return g.edges_dataset(columns=["src", "dst", "weight"]).to_pandas()


def _vertex_values(ds, col: str, V: int) -> np.ndarray:
    df = ds.to_pandas()
    out = np.full(V, -1, dtype=df[col].dtype)
    out[df["vertex"].to_numpy(np.int64)] = df[col].to_numpy()
    return out


def _ref_pagerank(src, dst, w, V):
    from tests.oracles import ref_pagerank

    return ref_pagerank((src, dst, w), V, alpha=0.85, tol=PR_TOL, max_iter=500)


def _labels_differ(got, want):
    from tests.oracles import canonical_map_equal

    return None if canonical_map_equal(got, want) else "labels differ"


class GraphOracle:
    """Reference results for one built graph, reused while the graph's
    edges stay identical (every pass of a run builds the same graph)."""

    def __init__(self, lpa_rounds: int):
        self.lpa_rounds = lpa_rounds
        self._key = None
        self._memo: dict = {}

    def bind(self, edges: pd.DataFrame, V: int):
        src = edges["src"].to_numpy(np.int64)
        dst = edges["dst"].to_numpy(np.int64)
        w = edges["weight"].to_numpy(np.float64)
        order = np.lexsort((dst, src))
        key = (V, src[order].tobytes(), dst[order].tobytes(), w[order].tobytes())
        if key != self._key:
            self._key, self._memo = key, {}
        self.src, self.dst, self.w, self.V = src, dst, w, V

    def get(self, name: str):
        if name not in self._memo:
            s, d, w, V = self.src, self.dst, self.w, self.V
            self._memo[name] = {
                "pagerank": lambda: _ref_pagerank(s, d, w, V),
                "wcc": lambda: oracles.wcc(s, d, V),
                "lpa": lambda: oracles.lpa(s, d, w, V, self.lpa_rounds),
                "triangles": lambda: oracles.triangles(s, d, V),
            }[name]()
        return self._memo[name]

    def pagerank_differs(self, ds, col="pagerank"):
        got = _vertex_values(ds, col, self.V)
        want = self.get("pagerank")
        if not np.allclose(got, want, rtol=0, atol=PR_TOL):
            return f"max |diff| {np.abs(got - want).max():.3g}"

    def wcc_differs(self, ds):
        return _labels_differ(_vertex_values(ds, "labels", self.V), self.get("wcc"))

    def lpa_differs(self, ds):
        return _labels_differ(_vertex_values(ds, "label", self.V), self.get("lpa"))

    def triangles_differ(self, ds):
        got = _vertex_values(ds, "counts", self.V)
        if not np.array_equal(got, self.get("triangles")):
            return "per-vertex triangle counts differ"


class Workload:
    name = ""
    MIN_PASSES = 1

    def __init__(self, runner, tracer, seed: int):
        self.runner, self.tracer, self.seed = runner, tracer, seed

    def setup(self, data_dir: str):
        """Generate this run's inputs from the seed (inside set-up timing)."""
        raise NotImplementedError

    def run_pass(self, pass_dir: str) -> dict:
        """Issue one pass of timed calls; return the pass's exact counts.
        Raises CallFailed when a call failed."""
        raise NotImplementedError


class CorpusE2E(Workload):
    name = "corpus-e2e"
    ROWS = 100_000
    LPA_ROUNDS = 10

    def setup(self, data_dir):
        self.corpus_dir = inputs.write_corpus(
            os.path.join(data_dir, "corpus"), self.ROWS, self.seed % 2**31)
        self._expected = None
        self.oracle = GraphOracle(self.LPA_ROUNDS)

    def expected(self):
        if self._expected is None:
            import pyarrow.parquet as pq

            corpus = pq.read_table(self.corpus_dir).to_pandas()
            self._expected = (oracles.corpus_sha256(corpus),
                              oracles.corpus_edges(corpus))
        return self._expected

    def check_ingest(self, ds):
        df = ds.to_pandas()
        shas = self.expected()[0]
        if len(df) != len(shas):
            return f"{len(df)} rows, corpus has {len(shas)}"
        got = dict(zip(df["path"], df["content_sha256"]))
        if got != shas:
            return "content_sha256 differs from hashlib"

    def check_build(self, g, edges):
        want = self.expected()[1]
        got = oracles.graph_pairs(edges, g.vmap_dataset().to_pandas())
        if len(edges) != 2 * len(got) or not got.equals(want):
            return (f"{len(edges)} stored edges, {len(got)} pairs; "
                    f"the corpus gives {len(want)} pairs")

    def run_pass(self, d):
        import ray.data as rd

        from raygraph import derive, ingest
        from raygraph.algos import (label_propagation, pagerank,
                                    weakly_connected_components)
        from raygraph.algos.triangles import triangle_count
        from raygraph.graph import Graph
        from raygraph.superstep import SuperstepEngine

        call = self.runner.call
        ckpt = os.path.join(d, "ckpt")
        ing = call("ingest.ingest", lambda: ingest.ingest(
            rd.read_parquet(self.corpus_dir)).materialize())
        self.runner.check("ingest.ingest", self.check_ingest(ing))
        rows = ing.count()
        del ing

        g = call("graph.build", lambda: Graph.from_edges(
            derive.derive_edges(rd.read_parquet(self.corpus_dir)),
            directed=False, num_partitions=NUM_PARTITIONS,
            out_dir=os.path.join(d, "graph")))
        edges = _edges(g)
        self.runner.check("graph.build", self.check_build(g, edges))
        self.oracle.bind(edges, g.num_vertices)

        eng = call("superstep.SuperstepEngine", lambda: SuperstepEngine(
            g, checkpoint_dir=ckpt, checkpoint_every=1))
        kw = dict(engine=eng, checkpoint_dir=ckpt, checkpoint_every=1)
        try:
            pr = call("algos.pagerank", lambda: pagerank(g, tol=PR_TOL, **kw))
            cc = call("algos.wcc", lambda: weakly_connected_components(g, **kw))
            lp = call("algos.lpa", lambda: label_propagation(
                g, max_iter=self.LPA_ROUNDS, **kw))
        finally:
            call("superstep.shutdown", eng.shutdown)
        self.runner.check("algos.pagerank", self.oracle.pagerank_differs(pr))
        self.runner.check("algos.wcc", self.oracle.wcc_differs(cc))
        self.runner.check("algos.lpa", self.oracle.lpa_differs(lp))
        tri = call("algos.triangles", lambda: triangle_count(g).materialize())
        self.runner.check("algos.triangles", self.oracle.triangles_differ(tri))

        with open(os.path.join(ckpt, "lineage.jsonl")) as f:
            records = [json.loads(line) for line in f]
        return {
            "ingest.rows": rows,
            "graph.vertices": g.num_vertices,
            "graph.edges": g.num_edges,
            "algos.pagerank_iters": sum(r["algo"] == "pagerank" for r in records),
            "lineage.records": len(records),
            "lineage.checkpoint_bytes": dir_bytes(ckpt, skip=("lineage.jsonl",)),
        }


class RmatEngine(Workload):
    name = "rmat-engine"
    SCALE = 16
    EDGEFACTOR = 16
    LPA_ROUNDS = 3

    def setup(self, data_dir):
        from raygraph import generators
        from raygraph.graph import Graph

        with self.tracer.span("graph.build"):
            self.graph = Graph.from_edges(
                generators.rmat_dataset(self.SCALE, self.EDGEFACTOR,
                                        seed=self.seed, weighted=False),
                src="src", dst="dst", weight=None, directed=False,
                renumber=False, num_partitions=NUM_PARTITIONS,
                out_dir=os.path.join(data_dir, "graph"))
        self.oracle = GraphOracle(self.LPA_ROUNDS)
        self._bound = False

    def pagerank_loop(self, eng):
        import ray

        ray.get([w.pagerank_init.remote() for w in eng.workers])
        for it in range(1, 501):
            if sum(s["l1"] for s in eng.pagerank_round(0.85, False)) < PR_TOL:
                return it
        raise RuntimeError("PageRank did not reach 1e-6 in 500 supersteps")

    def run_pass(self, d):
        from raygraph.algos import label_propagation, weakly_connected_components
        from raygraph.superstep import SuperstepEngine

        call = self.runner.call
        g = self.graph
        if not self._bound:
            self.oracle.bind(_edges(g), g.num_vertices)
            self._bound = True

        def spinup():
            eng = SuperstepEngine(g)
            eng._keep_alive = True  # one pool serves all three algorithms
            return eng

        eng = call("superstep.SuperstepEngine", spinup)
        try:
            iters = call("algos.pagerank", lambda: self.pagerank_loop(eng))
            pr = call("superstep.result_write", lambda: eng.result_dataset(
                ["pr"], out_dir=os.path.join(d, "pr")))
            cc = call("algos.wcc", lambda: weakly_connected_components(g, engine=eng))
            lp = call("algos.lpa", lambda: label_propagation(
                g, max_iter=self.LPA_ROUNDS, engine=eng))
        finally:
            call("superstep.shutdown", eng.shutdown)
        self.runner.check("algos.pagerank", self.oracle.pagerank_differs(pr, "pr"))
        self.runner.check("algos.wcc", self.oracle.wcc_differs(cc))
        self.runner.check("algos.lpa", self.oracle.lpa_differs(lp))
        return {
            "graph.vertices": g.num_vertices,
            "graph.edges": g.num_edges,
            "algos.pagerank_iters": iters,
        }


QUERY_MIX = "pagerank katz core_number bfs sssp egonet triangles".split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


class QueryMix(Workload):
    """Every pass reads the same table directory.  The query layer caches
    edge tables and graphs per directory and process, so the first pass
    fills those caches and later passes time the calls a long-lived client
    makes; with ``MIN_PASSES`` = 3 the median pass is a warm one."""

    name = "query-mix"
    MIN_PASSES = 3

    def setup(self, data_dir):
        self.tables = inputs.write_tables(os.path.join(data_dir, "tables"),
                                          self.seed)
        rng = np.random.default_rng(self.seed)
        self.order = [QUERY_MIX[i] for i in rng.permutation(len(QUERY_MIX))]
        self._want: dict = {}
        self._con = None

    def want(self, q: str) -> pd.DataFrame:
        """The query's DuckDB oracle over the same parquet files."""
        if q not in self._want:
            if self._con is None:
                import duckdb

                self._con = duckdb.connect()
                for t in ("lineitem", "events"):
                    path = os.path.join(self.tables, f"{t}.parquet")
                    self._con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                                  f"read_parquet('{path}')")
            import __ray_entry__

            sql = __ray_entry__.oracle_sql()[q]
            self._want[q] = oracles.canon(self._con.sql(sql).df())
        return self._want[q]

    def run_pass(self, d):
        import __ray_entry__

        queries = __ray_entry__.queries()
        for q in self.order:
            got = self.runner.call(f"pipelines.{q}",
                                   lambda q=q: to_pandas(queries[q](self.tables)))
            self.runner.check(
                f"pipelines.{q}",
                oracles.frames_differ(oracles.canon(got), self.want(q)))
        return {}


WORKLOADS = {w.name: w for w in (CorpusE2E, RmatEngine, QueryMix)}


def ensure_importable(root: str):
    """Make the checkout's program importable; fail if it is not there."""
    if root not in sys.path:
        sys.path.insert(0, root)
    import __ray_entry__  # noqa: F401
    import raygraph  # noqa: F401
    import tests.oracles  # noqa: F401
