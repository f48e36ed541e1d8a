"""Deduplication operators: exact, MinHash-LSH, SimHash, n-gram Jaccard.

Exact dedup is the reference's edge-dedup shape (hash-partition +
per-group min, ``structure/symmetrize.py:92``) applied to content hashes.
Near-dup follows the standard MinHash-LSH construction (Broder 1997;
Leskovec-Rajaraman-Ullman ch.3): shingle → minhash signature → band →
bucket groupby → candidate pairs → Jaccard verify → connected components
via the same min-label propagation used for WCC.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from raygraph.hashing import splitmix64


def _md5_hex(values) -> list[str]:
    return [hashlib.md5(v.encode("utf-8")).hexdigest() for v in values]


def with_content_hash(ds, col: str = "text", out: str = "content_md5"):
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[out] = _md5_hex(df[col].astype(str).tolist())
        return df

    return ds.map_batches(fn, batch_format="pandas")


def exact_dedup(ds, col: str = "text", id_col: str = "doc_id"):
    """Keep the minimum-id row per distinct content hash.

    Returns (kept id, n_copies) — hash-partitioned bucketed aggregate.
    """
    from raygraph.agg import hash_aggregate

    hashed = with_content_hash(ds, col)
    out = hash_aggregate(
        hashed,
        ["content_md5"],
        {id_col: (id_col, "min"), "n_copies": (None, "count")},
    )
    return out.select_columns([id_col, "n_copies"])


# ---------------------------------------------------------------------------
# exact n-gram Jaccard (word n-grams, inverted-index blocking)


def ngram_jaccard_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                        n: int = 3, threshold: float = 0.3,
                        max_doc_freq: int = 50, num_buckets: int = 32,
                        broadcast_limit: int = 2_000_000):
    """EXACT word-n-gram Jaccard near-dup pairs → Dataset (a, b, jaccard).

    The complement of MinHash (approximate byte-shingle Jaccard): exact
    set Jaccard over lowercase ``\\w+`` word n-grams, blocked by the
    classic inverted index — candidate pairs are documents sharing at
    least one n-gram.  Hot-gram blowup is bounded by DOCUMENT-FREQUENCY
    filtering (grams appearing in more than ``max_doc_freq`` documents are
    dropped from blocking AND from the Jaccard sets — one upfront df
    pass), which keeps the per-gram pair fan-out ≤ max_doc_freq² and is
    exactly replicable in SQL (HAVING COUNT(*) <= F) — this query is
    driver hash-checked.

    Scale shape: explode (gram, doc) rows → df aggregate + filter join →
    one bucketed shuffle groups by gram → per-gram pair emission in-task
    → bucketed count aggregate per pair → size joins.
    """
    import re

    from raygraph import joins
    from raygraph.agg import hash_aggregate

    word = re.compile(r"\w+")

    def grams(df: pd.DataFrame) -> pd.DataFrame:
        ids, gs = [], []
        for i, t in zip(df[id_col].to_numpy(), df[text_col].astype(str)):
            ws = word.findall(t.lower())
            if len(ws) < n:
                continue
            uniq = {" ".join(ws[j:j + n]) for j in range(len(ws) - n + 1)}
            ids.extend([i] * len(uniq))
            gs.extend(uniq)
        return pd.DataFrame({id_col: np.asarray(ids, dtype=np.int64),
                             "gram": gs})

    import ray

    gram_rows = ds.map_batches(grams, batch_format="pandas").materialize()
    # document-frequency filter FIRST (applies to blocking and to the
    # Jaccard sets alike — mirrors the oracle's HAVING COUNT <= F).
    # The HOT side (df > cap) is the small one — a natural corpus has few
    # grams above any df cap — so broadcast the hot set and filter
    # map-side instead of joining the full gram table; an adversarial
    # corpus past ``broadcast_limit`` hot grams falls back to the join.
    df_tab = hash_aggregate(
        gram_rows, ["gram"], {"df": (None, "count")}, num_buckets=num_buckets
    )
    hot = df_tab.map_batches(
        lambda df, f=max_doc_freq: df.loc[df["df"] > f, ["gram"]],
        batch_format="pandas",
    ).materialize()
    n_hot = hot.count()
    if n_hot == 0:
        pass  # no gram exceeds the df cap — nothing to drop
    elif n_hot <= broadcast_limit:
        hot_idx = pd.Index(hot.to_pandas()["gram"])
        hotref = ray.put(hot_idx)

        def drop_hot(df: pd.DataFrame) -> pd.DataFrame:
            idx = ray.get(hotref)
            return df[idx.get_indexer(df["gram"]) < 0]

        gram_rows = gram_rows.map_batches(drop_hot, batch_format="pandas")
    else:
        keep_tab = df_tab.map_batches(
            lambda df, f=max_doc_freq: df.loc[df["df"] <= f, ["gram"]],
            batch_format="pandas",
        )
        gram_rows = joins.hash_join(
            gram_rows, keep_tab, on="gram", num_buckets=num_buckets
        )
    # per-doc distinct kept-gram counts (set sizes)
    sizes = hash_aggregate(
        gram_rows, [id_col], {"n_grams": (None, "count")},
        num_buckets=num_buckets,
    )
    # pair emission, grouped by gram
    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        """All (a<b) doc pairs per gram — fully vectorized ragged triu
        (no Python loop over grams; group fan-out bounded by the df cap)."""
        empty = pd.DataFrame({"a": pd.Series(dtype=np.int64),
                              "b": pd.Series(dtype=np.int64)})
        if not len(g):
            return empty
        codes, _ = pd.factorize(g["gram"], sort=False)
        ids = g[id_col].to_numpy(np.int64)
        order = np.lexsort((ids, codes))
        ids = ids[order]
        codes = codes[order]
        new = np.r_[True, codes[1:] != codes[:-1]]
        starts = np.flatnonzero(new)
        d = np.diff(np.r_[starts, len(codes)])  # group sizes
        pos = np.arange(len(codes)) - np.repeat(starts, d)
        rep = np.repeat(d, d) - 1 - pos  # per-row 'a' multiplicity
        tot = int(rep.sum())
        if tot == 0:
            return empty
        a_idx = np.repeat(np.arange(len(codes)), rep)
        off = np.arange(tot) - np.repeat(np.cumsum(rep) - rep, rep)
        b_idx = a_idx + off + 1
        return pd.DataFrame({"a": ids[a_idx], "b": ids[b_idx]})

    cand = joins.bucket_exchange(gram_rows, ["gram"], pairs, num_buckets,
                                 batch_format="pandas")
    inter = hash_aggregate(
        cand, ["a", "b"], {"common": (None, "count")}, num_buckets=num_buckets
    )

    def _finish_frame(df: pd.DataFrame, na, nb, thr=threshold) -> pd.DataFrame:
        c = df["common"].to_numpy(np.float64)
        union = na.astype(np.float64) + nb.astype(np.float64) - c
        jac = np.round(c / union, 6)
        out = pd.DataFrame({"a": df["a"].to_numpy(np.int64),
                            "b": df["b"].to_numpy(np.int64),
                            "jaccard": jac})
        return out[out["jaccard"] >= thr]

    # set sizes are one row per doc: broadcast once and look up map-side
    # (two bucketed joins saved); past the limit, the joins come back
    sizes = sizes.materialize()
    if sizes.count() <= broadcast_limit:
        szref = joins.broadcast_map_ref(sizes.to_pandas(), id_col, "n_grams")

        def finish_bcast(df: pd.DataFrame) -> pd.DataFrame:
            kv = ray.get(szref)
            na = joins.lookup_broadcast(df["a"].to_numpy(np.int64), kv)
            nb = joins.lookup_broadcast(df["b"].to_numpy(np.int64), kv)
            return _finish_frame(df, na, nb)

        return inter.map_batches(finish_bcast, batch_format="pandas")

    sz_a = sizes.map_batches(
        lambda df: df.rename(columns={id_col: "a", "n_grams": "na"}),
        batch_format="pandas",
    )
    sz_b = sizes.map_batches(
        lambda df: df.rename(columns={id_col: "b", "n_grams": "nb"}),
        batch_format="pandas",
    )
    joined = joins.hash_join(
        joins.hash_join(inter, sz_a, on="a", num_buckets=num_buckets),
        sz_b, on="b", num_buckets=num_buckets,
    )

    def finish_joined(df: pd.DataFrame) -> pd.DataFrame:
        return _finish_frame(
            df, df["na"].to_numpy(np.float64), df["nb"].to_numpy(np.float64)
        )

    return joined.map_batches(finish_joined, batch_format="pandas")


# ---------------------------------------------------------------------------
# MinHash + LSH


def _shingles(text: str, k: int) -> np.ndarray:
    t = text.encode("utf-8", "ignore")
    if len(t) < k:
        # stable (process-independent) hash of the whole short text
        h = int.from_bytes(hashlib.md5(t).digest()[:8], "little") & 0x7FFFFFFFFFFFFFFF
        return np.array([h], dtype=np.uint64)
    # rolling byte k-grams hashed via numpy view tricks
    arr = np.frombuffer(t, dtype=np.uint8)
    n = len(arr) - k + 1
    out = np.zeros(n, dtype=np.uint64)
    for i in range(k):  # k is small (default 5): vectorized over n
        out = out * np.uint64(257) + arr[i : i + n]
    return np.unique(out)


def _pair_intersect_counts(vals, offs, ia, ib):
    """Per-pair ``|A ∩ B|`` over packed sorted-unique segments, vectorized.

    Segment ``j`` is ``vals[offs[j]:offs[j+1]]`` (sorted, unique).  For
    each pair ``(ia[k], ib[k])`` returns ``(inter, la, lb)`` — intersection
    size and the two segment lengths — via one gather + one lexsort over
    the concatenated ``(pair, value)`` rows and an adjacent-duplicate
    count.  No Python loop over pairs: the whole batch is one
    O(N log N) C-level sort where N = sum of pair segment lengths.
    """
    npair = len(ia)
    la = (offs[ia + 1] - offs[ia]).astype(np.int64)
    lb = (offs[ib + 1] - offs[ib]).astype(np.int64)
    if npair == 0:
        return np.zeros(0, np.int64), la, lb
    starts = np.empty(2 * npair, dtype=np.int64)
    lens = np.empty(2 * npair, dtype=np.int64)
    starts[0::2], lens[0::2] = offs[ia], la
    starts[1::2], lens[1::2] = offs[ib], lb
    total = int(lens.sum())
    if total == 0:
        return np.zeros(npair, np.int64), la, lb
    ends = np.cumsum(lens)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - lens, lens)
    vc = vals[np.repeat(starts, lens) + within]
    grp = np.repeat(np.arange(npair, dtype=np.int64).repeat(2), lens)
    order = np.lexsort((vc, grp))
    vs, gs = vc[order], grp[order]
    dup = (gs[1:] == gs[:-1]) & (vs[1:] == vs[:-1])
    inter = np.bincount(gs[1:][dup], minlength=npair).astype(np.int64)
    return inter, la, lb


class MinHasher:
    """Actor-pool stage: text → minhash signature columns.

    Permutation parameters generated once per actor (deterministic seed).
    """

    def __init__(self, text_col="text", id_col="doc_id", num_perm=64,
                 shingle_k=5, seed=42):
        self.text_col = text_col
        self.id_col = id_col
        self.k = shingle_k
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, 2**61 - 1, size=num_perm).astype(np.uint64)
        self.b = rng.randint(0, 2**61 - 1, size=num_perm).astype(np.uint64)
        self.p = np.uint64(2**61 - 1)

    def signature(self, text: str) -> np.ndarray:
        sh = _shingles(text, self.k)
        # (a*x + b) mod p per permutation; min over shingles
        vals = (sh[None, :] * self.a[:, None] + self.b[:, None]) % self.p
        return vals.min(axis=1)

    # permutations are processed in blocks so the (block × total_shingles)
    # work matrix stays bounded (~128 MB at 2M shingles) regardless of
    # batch size — one reduceat per block instead of a Python loop per doc
    _PERM_BLOCK = 8

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        texts = df[self.text_col].astype(str)
        sh_list = [_shingles(t, self.k) for t in texts]
        counts = np.fromiter((len(s) for s in sh_list), np.int64, count=len(sh_list))
        allsh = (
            np.concatenate(sh_list) if sh_list else np.empty(0, np.uint64)
        )
        starts = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        num_perm = len(self.a)
        sigs = np.empty((len(counts), num_perm), dtype=np.uint64)
        for lo in range(0, num_perm, self._PERM_BLOCK):
            hi = min(lo + self._PERM_BLOCK, num_perm)
            vals = (
                allsh[None, :] * self.a[lo:hi, None] + self.b[lo:hi, None]
            ) % self.p
            # per-doc min over each doc's shingle segment (_shingles always
            # returns >= 1 shingle, so every segment is non-empty)
            sigs[:, lo:hi] = np.minimum.reduceat(vals, starts, axis=1).T
        out = pd.DataFrame({self.id_col: df[self.id_col].to_numpy()})
        # store the signature matrix as flat int64 columns (no ragged cols)
        for j in range(num_perm):
            out[f"mh{j}"] = sigs[:, j].astype(np.int64)
        return out


def minhash_signatures(ds, text_col="text", id_col="doc_id", num_perm=64,
                       shingle_k=5, seed=42, concurrency=(1, 4)):
    return ds.map_batches(
        MinHasher,
        fn_constructor_kwargs=dict(
            text_col=text_col, id_col=id_col, num_perm=num_perm,
            shingle_k=shingle_k, seed=seed,
        ),
        batch_format="pandas",
        concurrency=concurrency,
    )


def lsh_candidate_pairs(sig_ds, id_col="doc_id", num_perm=64, bands=16):
    """Band the signatures, bucket-group, emit candidate pairs (a < b).

    One (band_id, band_hash) groupby — the all-to-all step; everything else
    is map-side. Oversized buckets are truncated pairwise-adjacently to
    avoid quadratic blowup on degenerate buckets (documented cap).
    """
    rows_per_band = num_perm // bands

    def band_rows(df: pd.DataFrame) -> pa.Table:
        ids = df[id_col].to_numpy(np.int64)
        sig = np.stack(
            [df[f"mh{j}"].to_numpy(np.uint64) for j in range(num_perm)], axis=1
        )
        out_band, out_hash, out_id = [], [], []
        for b in range(bands):
            chunk = sig[:, b * rows_per_band : (b + 1) * rows_per_band]
            h = np.zeros(len(ids), dtype=np.uint64)
            for c in range(chunk.shape[1]):
                h = splitmix64(h ^ chunk[:, c])
            out_band.append(np.full(len(ids), b, dtype=np.int64))
            out_hash.append(h.view(np.int64))
            out_id.append(ids)
        return pa.table(
            {
                "band": np.concatenate(out_band),
                "bhash": np.concatenate(out_hash),
                id_col: np.concatenate(out_id),
            }
        )

    banded = sig_ds.map_batches(band_rows, batch_format="pandas")

    MAX_BUCKET = 64

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(g[id_col].to_numpy(np.int64))
        if len(ids) < 2:
            return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                 "b": pd.Series(dtype=np.int64)})
        if len(ids) > MAX_BUCKET:
            # degenerate bucket: chain adjacent ids (connectivity preserved
            # for dedup-component purposes, avoids |bucket|^2 pairs)
            a, b = ids[:-1], ids[1:]
        else:
            i, j = np.triu_indices(len(ids), k=1)
            a, b = ids[i], ids[j]
        return pd.DataFrame({"a": a, "b": b})

    from raygraph.agg import bucketed_map_groups, distinct

    # materialize once: the emptiness check and the distinct both consume
    # the LSH lineage — without this the shingle/band pipeline ran twice
    cand = bucketed_map_groups(banded, ["band", "bhash"], pairs).materialize()
    if cand.count() == 0:
        return cand
    return distinct(cand, ["a", "b"])


def verify_jaccard_pairs(ds, pairs_ds, text_col="text", id_col="doc_id",
                         shingle_k=5, threshold=0.8,
                         broadcast_limit: int = 2_000_000):
    """Exact shingle-Jaccard for candidate pairs → Dataset (a, b, jaccard).

    Small candidate sets (≤ ``broadcast_limit`` distinct docs) use the
    broadcast path: involved docs are shingled in the workers, the packed
    sorted-shingle arrays broadcast once via ``ray.put``, and the per-pair
    Jaccard runs distributed over the pairs Dataset (the driver never
    loops over pairs).  Larger sets use the scale path: two bucketed hash
    joins ship each pair's two texts into the same task and the Jaccard
    is computed per pair inside ``map_batches`` — nothing pair-shaped
    ever lands on the driver.
    """
    import ray
    import ray.data as rd

    from raygraph import joins

    # materialize before count: the incoming lineage ends in an exchange
    # (the cross-band distinct) — count() on the lazy handle would execute
    # it once for the emptiness check and again for the pair scan
    pairs_ds = pairs_ds.materialize()
    n_pairs = pairs_ds.count()
    if n_pairs == 0:
        return rd.from_pandas(
            pd.DataFrame({"a": pd.Series(dtype=np.int64),
                          "b": pd.Series(dtype=np.int64),
                          "jaccard": pd.Series(dtype=float)})
        )

    # 2 distinct docs per pair is the upper bound — cheap dispatch test
    if 2 * n_pairs <= broadcast_limit:
        pairs = pairs_ds
        needed = np.unique(
            np.concatenate(
                [
                    b["a"].to_numpy()
                    for b in pairs.iter_batches(batch_format="pandas")
                ]
                + [
                    b["b"].to_numpy()
                    for b in pairs.iter_batches(batch_format="pandas")
                ]
            )
        )
        nref = ray.put(np.sort(needed))

        # shingling runs in the workers; only each involved doc's
        # sorted-unique shingle array comes back, packed into three flat
        # numpy arrays the workers then read zero-copy from plasma
        def collect(df: pd.DataFrame) -> pd.DataFrame:
            ns = ray.get(nref)
            m = df[np.isin(df[id_col].to_numpy(), ns)]
            return pd.DataFrame(
                {
                    id_col: m[id_col].to_numpy(np.int64),
                    "__sh": [
                        np.unique(_shingles(str(t), shingle_k))
                        for t in m[text_col]
                    ],
                }
            )

        docs = ds.map_batches(collect, batch_format="pandas").to_pandas()
        order = np.argsort(docs[id_col].to_numpy(np.int64), kind="stable")
        sh_ids = docs[id_col].to_numpy(np.int64)[order]
        sh_list = [docs["__sh"].iloc[i] for i in order]
        sh_offs = np.zeros(len(sh_list) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in sh_list], out=sh_offs[1:])
        sh_vals = (
            np.concatenate(sh_list) if sh_list else np.empty(0, np.uint64)
        )
        shref = ray.put((sh_ids, sh_offs, sh_vals))

        # per-pair exact Jaccard distributed over the pairs Dataset — the
        # driver never loops over pairs
        def jac_batch(df: pd.DataFrame) -> pd.DataFrame:
            ids, offs, vals = ray.get(shref)
            a = df["a"].to_numpy(np.int64)
            b = df["b"].to_numpy(np.int64)
            pa_ = np.searchsorted(ids, a)
            pb_ = np.searchsorted(ids, b)
            last = max(len(ids) - 1, 0)
            ok = (
                (pa_ < len(ids)) & (pb_ < len(ids))
                & (len(ids) > 0)
                & (ids[np.minimum(pa_, last)] == a)
                & (ids[np.minimum(pb_, last)] == b)
            )
            jac = np.zeros(len(df), dtype=np.float64)
            if ok.any():
                inter, la, lb = _pair_intersect_counts(
                    vals, offs, pa_[ok], pb_[ok]
                )
                union = la + lb - inter
                jac[ok] = np.where(
                    union > 0, inter / np.maximum(union, 1), 0.0
                )
            out = pd.DataFrame({"a": a, "b": b, "jaccard": jac})
            return out[out["jaccard"] >= threshold]

        return pairs.map_batches(jac_batch, batch_format="pandas")

    # scale path: pairs ⋈ docs on a, then on b — texts move through two
    # bucketed shuffles, the driver never sees a pair
    docs_a = ds.map_batches(
        lambda df: pd.DataFrame(
            {"a": df[id_col].to_numpy(np.int64), "__text_a": df[text_col]}
        ),
        batch_format="pandas",
    )
    docs_b = ds.map_batches(
        lambda df: pd.DataFrame(
            {"b": df[id_col].to_numpy(np.int64), "__text_b": df[text_col]}
        ),
        batch_format="pandas",
    )
    p1 = joins.hash_join(pairs_ds, docs_a, on="a")
    p2 = joins.hash_join(p1, docs_b, on="b")

    def jaccard_rows(df: pd.DataFrame) -> pd.DataFrame:
        # shingling is inherently per-document text parsing; the pair math
        # (intersection/union) is one vectorized packed-segment pass
        segs = []
        for ta, tb in zip(df["__text_a"], df["__text_b"]):
            segs.append(np.unique(_shingles(str(ta), shingle_k)))
            segs.append(np.unique(_shingles(str(tb), shingle_k)))
        offs = np.zeros(len(segs) + 1, dtype=np.int64)
        if segs:
            np.cumsum([len(s) for s in segs], out=offs[1:])
        vals = np.concatenate(segs) if segs else np.empty(0, np.uint64)
        ia = np.arange(len(df), dtype=np.int64) * 2
        inter, la, lb = _pair_intersect_counts(vals, offs, ia, ia + 1)
        union = la + lb - inter
        jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        out = pd.DataFrame(
            {"a": df["a"].to_numpy(np.int64), "b": df["b"].to_numpy(np.int64),
             "jaccard": jac}
        )
        return out[out["jaccard"] >= threshold]

    return p2.map_batches(jaccard_rows, batch_format="pandas")


def _pair_components_engine(verified_ds):
    """Distributed connected components over the verified-pair graph via
    the WCC superstep engine (renumbered int-key graph); dup_group = min
    doc id per component.  The scale path: the verified-pair graph of a
    crawl corpus can exceed any driver."""
    from raygraph import joins
    from raygraph.agg import hash_aggregate
    from raygraph.algos import weakly_connected_components
    from raygraph.graph import Graph

    edges = verified_ds.map_batches(
        lambda df: pd.DataFrame(
            {"src_key": df["a"].to_numpy(np.int64),
             "dst_key": df["b"].to_numpy(np.int64),
             "weight": np.ones(len(df))}
        ),
        batch_format="pandas",
    )
    g = Graph.from_edges(
        edges, directed=False, renumber=True, num_partitions=8
    )
    res = weakly_connected_components(g)
    keyed = g.unrenumber(res, "vertex")  # (vertex: doc id, labels: vid)
    comp = hash_aggregate(keyed, ["labels"], {"dup_group": ("vertex", "min")})
    out = joins.hash_join(keyed, comp, on="labels")
    return out.map_batches(
        lambda df: pd.DataFrame(
            {"doc_id": df["vertex"].to_numpy(np.int64),
             "dup_group": df["dup_group"].to_numpy(np.int64)}
        ),
        batch_format="pandas",
    )


def near_dedup_minhash(ds, text_col="text", id_col="doc_id", num_perm=64,
                       bands=16, shingle_k=5, threshold=0.8, seed=42,
                       engine_pair_limit: int = 5_000_000):
    """Full near-dup pipeline → (doc_id, dup_group) for docs in dup groups.

    Verified pair counts ≤ ``engine_pair_limit`` use driver union-find
    (pairs ≪ corpus in the common case); larger pair graphs run the WCC
    superstep engine distributed (``engine_pair_limit=0`` forces it)."""
    sigs = minhash_signatures(ds, text_col, id_col, num_perm, shingle_k, seed)
    cand = lsh_candidate_pairs(sigs, id_col, num_perm, bands)
    verified_ds = verify_jaccard_pairs(
        ds, cand, text_col, id_col, shingle_k, threshold
    ).materialize()
    n_verified = verified_ds.count()
    if n_verified == 0:
        return pd.DataFrame(
            {"doc_id": pd.Series(dtype=np.int64),
             "dup_group": pd.Series(dtype=np.int64)}
        )
    if n_verified > engine_pair_limit:
        return (
            _pair_components_engine(verified_ds)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
    verified = verified_ds.to_pandas()
    parent: dict[int, int] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(verified["a"], verified["b"]):
        a, b = int(a), int(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    members = sorted({int(x) for x in verified[["a", "b"]].to_numpy().ravel()})
    return pd.DataFrame(
        {"doc_id": members, "dup_group": [find(m) for m in members]}
    )


# ---------------------------------------------------------------------------
# SimHash


def poly_token_hashes(tokens) -> np.ndarray:
    """Deterministic uint64 hash per token (SQL-replayable, shared by
    SimHash and duplicate-span dedup): base-257 polynomial over the
    token's utf-8 bytes mod 2^64, xor ``len << 32``, splitmix64
    finalizer.  Vectorized by bucketing tokens on byte length (each
    bucket is one (m, d)·powers dot under uint64 wraparound — O(total
    bytes) even with one pathological separator-free token)."""
    bts = [t.encode("utf-8", "ignore") for t in tokens]
    lens = np.fromiter((len(b) for b in bts), np.int64, count=len(bts))
    h = np.zeros(len(bts), dtype=np.uint64)
    if len(lens) and lens.max() > 0:
        pw = np.ones(int(lens.max()), dtype=np.uint64)
        if len(pw) > 1:
            pw[1:] = np.uint64(257)
            np.multiply.accumulate(pw, out=pw)
        idx = np.arange(len(bts), dtype=np.int64)
        for d in np.unique(lens):
            if d == 0:
                continue
            sel = idx[lens == d]
            mat = np.frombuffer(
                b"".join(bts[i] for i in sel), dtype=np.uint8
            ).reshape(len(sel), int(d)).astype(np.uint64)
            h[sel] = (mat * pw[int(d) - 1 :: -1][None, :]).sum(
                axis=1, dtype=np.uint64
            )
    return splitmix64(h ^ (lens.astype(np.uint64) << np.uint64(32)))


class SimHasher:
    """64-bit SimHash over word tokens (Charikar 2002).

    Batch-vectorized kernel: tokens of the whole batch are hashed through a
    per-actor vocab cache (hashed on cache misses only — no per-word md5),
    bit votes are one (tokens × 64) matrix, and per-doc sums are a single
    segmented ``reduceat``.  The token hash is deterministic across
    runs/processes (never builtin ``hash``) and SQL-replayable: a base-257
    polynomial over the token's utf-8 bytes mod 2^64 (the minhash shingle
    scheme, generalized to variable length), xor'd with ``len << 32`` and
    finalized by splitmix64 — ``pipelines._simhash_oracle_sql`` replays it
    bit-exactly in DuckDB."""

    def __init__(self, text_col="text", id_col="doc_id"):
        import re

        self.text_col = text_col
        self.id_col = id_col
        self.tok = re.compile(r"\w+")
        self._vocab: dict[str, int] = {}  # token → uint64 hash (per actor)

    def _token_hashes(self, uniq: np.ndarray) -> np.ndarray:
        out = np.empty(len(uniq), dtype=np.uint64)
        miss_idx = [i for i, t in enumerate(uniq) if t not in self._vocab]
        if miss_idx:
            miss = uniq[miss_idx]
            hv = poly_token_hashes(miss)
            for t, v in zip(miss, hv):
                self._vocab[t] = int(v)
        for i, t in enumerate(uniq):
            out[i] = self._vocab[t]
        return out

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        toks_per_doc = [
            self.tok.findall(t.lower()) for t in df[self.text_col].astype(str)
        ]
        counts = np.fromiter(
            (len(x) for x in toks_per_doc), np.int64, count=len(toks_per_doc)
        )
        sims = np.zeros(len(counts), dtype=np.int64)
        total = int(counts.sum())
        if total:
            all_toks = np.empty(total, dtype=object)
            pos = 0
            for toks in toks_per_doc:
                all_toks[pos : pos + len(toks)] = toks
                pos += len(toks)
            uniq, inv = np.unique(all_toks, return_inverse=True)
            th = self._token_hashes(uniq)
            hs = th[inv]
            shifts = np.arange(64, dtype=np.uint64)[None, :]
            pm = (
                ((hs[:, None] >> shifts) & np.uint64(1)).astype(np.int8) * 2 - 1
            )
            nz = counts > 0
            starts = np.zeros(len(counts), dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            votes = np.add.reduceat(pm.astype(np.int32), starts[nz], axis=0)
            pos_bits = (votes > 0).astype(np.uint64)
            sims[nz] = (
                (pos_bits << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1)
            ).view(np.int64)
        return pd.DataFrame(
            {self.id_col: df[self.id_col].to_numpy(), "simhash": sims}
        )


def simhash_signatures(ds, text_col="text", id_col="doc_id", concurrency=(1, 4)):
    return ds.map_batches(
        SimHasher,
        fn_constructor_kwargs=dict(text_col=text_col, id_col=id_col),
        batch_format="pandas",
        concurrency=concurrency,
    )


def ngram_jaccard_pairs(ds, pairs: pd.DataFrame, text_col="text",
                        id_col="doc_id", n: int = 3):
    """Exact character-n-gram Jaccard for explicit id pairs."""
    return verify_jaccard_pairs(ds, _as_ds(pairs), text_col, id_col,
                                shingle_k=n, threshold=0.0)


def _as_ds(df: pd.DataFrame):
    import ray.data as rd

    return rd.from_pandas(df)


# ---------------------------------------------------------------------------
# Embedding-cosine near-duplicates


def embedding_near_dup_pairs(ds, threshold: float, emb_col: str = "embedding",
                             id_col: str = "vec_id",
                             broadcast_limit: int = 2_000_000):
    """EXACT all-pairs cosine near-dup: Dataset (a, b, cosine) with a < b
    and cosine ≥ threshold.

    Baseline shape per the brief: the normalized matrix is broadcast once
    (``ray.put``) and every batch does one matmul against it, emitting
    each unordered pair exactly once (from the batch holding the smaller
    id).  Past ``broadcast_limit`` vectors use the LSH-bucketed variant
    (:func:`embedding_near_dup_lsh`) — the scale path."""
    import ray

    n = ds.count()
    if n > broadcast_limit:
        raise NotImplementedError(
            "matrix too large to broadcast; use embedding_near_dup_lsh"
        )
    full = ds.map_batches(
        lambda df: df[[id_col, emb_col]], batch_format="pandas"
    ).to_pandas()
    ids = full[id_col].to_numpy(np.int64)
    X = np.stack([np.asarray(v, np.float64) for v in full[emb_col]])
    Xn = X / np.where(
        np.linalg.norm(X, axis=1, keepdims=True) == 0, 1.0,
        np.linalg.norm(X, axis=1, keepdims=True),
    )
    ref = ray.put((ids, Xn))

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        all_ids, M = ray.get(ref)
        bx = np.stack([np.asarray(v, np.float64) for v in df[emb_col]])
        bn = np.linalg.norm(bx, axis=1, keepdims=True)
        bx = bx / np.where(bn == 0, 1.0, bn)
        bids = df[id_col].to_numpy(np.int64)
        sims = bx @ M.T  # (batch, N)
        bi, fj = np.nonzero((sims >= threshold) & (bids[:, None] < all_ids[None, :]))
        return pd.DataFrame(
            {
                "a": bids[bi],
                "b": all_ids[fj],
                "cosine": np.round(sims[bi, fj], 6),
            }
        )

    return ds.map_batches(pairs, batch_format="pandas")


def embedding_near_dup_lsh(ds, threshold: float, emb_col: str = "embedding",
                           id_col: str = "vec_id", num_planes: int = 32,
                           bands: int = 8, seed: int = 42,
                           num_buckets: int = 16):
    """Scale path: random-hyperplane LSH buckets → candidate pairs →
    exact cosine verify via two bucketed hash joins.  Approximate —
    recall < 1 by construction (more bands ⇒ higher recall); returns the
    same (a, b, cosine) schema as the exact variant."""
    import ray

    from raygraph import joins
    from raygraph.agg import bucketed_map_groups, distinct

    rng = np.random.RandomState(seed)
    # deterministic planes; dim inferred from the first row
    first = ds.limit(1).to_pandas()
    dim = len(np.asarray(first[emb_col].iloc[0]))
    planes = rng.normal(size=(dim, num_planes))
    pref = ray.put(planes)
    rows_per_band = num_planes // bands

    def band_rows(df: pd.DataFrame) -> pa.Table:
        P = ray.get(pref)
        X = np.stack([np.asarray(v, np.float64) for v in df[emb_col]])
        bits = (X @ P) > 0
        ids = df[id_col].to_numpy(np.int64)
        ob, oh, oi = [], [], []
        for b in range(bands):
            chunk = bits[:, b * rows_per_band : (b + 1) * rows_per_band]
            h = np.zeros(len(ids), dtype=np.uint64)
            for c in range(chunk.shape[1]):
                h = splitmix64((h << np.uint64(1)) ^ chunk[:, c].astype(np.uint64))
            ob.append(np.full(len(ids), b, dtype=np.int64))
            oh.append(h.view(np.int64))
            oi.append(ids)
        return pa.table(
            {"band": np.concatenate(ob), "bhash": np.concatenate(oh),
             id_col: np.concatenate(oi)}
        )

    banded = ds.map_batches(band_rows, batch_format="pandas")

    MAX_BUCKET = 256

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(g[id_col].to_numpy(np.int64))
        if len(ids) < 2:
            return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                 "b": pd.Series(dtype=np.int64)})
        if len(ids) > MAX_BUCKET:
            a, b = ids[:-1], ids[1:]  # degenerate bucket: chain
        else:
            i, j = np.triu_indices(len(ids), k=1)
            a, b = ids[i], ids[j]
        return pd.DataFrame({"a": a, "b": b})

    cand = bucketed_map_groups(banded, ["band", "bhash"], pairs).materialize()
    if cand.count() == 0:
        return _as_ds(pd.DataFrame(
            {"a": pd.Series(dtype=np.int64), "b": pd.Series(dtype=np.int64),
             "cosine": pd.Series(dtype=float)}
        ))
    cand = distinct(cand, ["a", "b"])
    # vectors as plain lists: arrow encodes list<double> through the
    # shuffle (object-dtype ndarray columns do not survive block codecs)
    ea = ds.map_batches(
        lambda df: pd.DataFrame(
            {"a": df[id_col].to_numpy(np.int64),
             "__ea": [list(map(float, v)) for v in df[emb_col]]}
        ),
        batch_format="pandas",
    )
    eb = ds.map_batches(
        lambda df: pd.DataFrame(
            {"b": df[id_col].to_numpy(np.int64),
             "__eb": [list(map(float, v)) for v in df[emb_col]]}
        ),
        batch_format="pandas",
    )
    p1 = joins.hash_join(cand, ea, on="a", num_buckets=num_buckets)
    p2 = joins.hash_join(p1, eb, on="b", num_buckets=num_buckets)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        cos = np.empty(len(df))
        for i, (va, vb) in enumerate(zip(df["__ea"], df["__eb"])):
            va = np.asarray(va, np.float64)
            vb = np.asarray(vb, np.float64)
            na, nb = np.linalg.norm(va), np.linalg.norm(vb)
            cos[i] = va @ vb / (na * nb) if na > 0 and nb > 0 else 0.0
        out = pd.DataFrame(
            {"a": df["a"].to_numpy(np.int64), "b": df["b"].to_numpy(np.int64),
             "cosine": np.round(cos, 6)}
        )
        return out[out["cosine"] >= threshold]

    return p2.map_batches(verify, batch_format="pandas")


# ---------------------------------------------------------------------------
# Exact-substring (duplicated token n-gram span) dedup — Lee et al. 2022
# ("Deduplicating Training Data Makes Language Models Better") re-expressed
# Ray-Data-first: the suffix-array pass becomes a token-n-gram hash
# fan-out + two bucketed aggregates + one join-back + a vectorized
# per-document interval merge.  No stage materializes the corpus; the
# gram rows stream through hash buckets.

GRAM_MULT = np.uint64(1_000_003)  # Horner multiplier over token hashes


def _gram_rows(df: pd.DataFrame, n: int, text_col: str, id_col: str,
               tok_re) -> pd.DataFrame:
    """(gram_hash:int64 two's-complement view, doc, pos) rows per batch.

    Gram hash = Horner fold ``g = g*GRAM_MULT + tok_hash`` over the n
    token hashes, mod 2^64 (numpy uint64 wraparound == the SQL
    ``& MASK`` after each step).  Vocab-free: token hashes are computed
    per batch over the batch's unique tokens."""
    toks_per_doc = [tok_re.findall(t.lower()) for t in df[text_col].astype(str)]
    counts = np.fromiter((len(x) for x in toks_per_doc), np.int64,
                         count=len(toks_per_doc))
    total = int(counts.sum())
    empty = pd.DataFrame({
        "g": pd.Series(dtype=np.int64),
        id_col: pd.Series(dtype=df[id_col].dtype),
        "pos": pd.Series(dtype=np.int64),
    })
    if total == 0:
        return empty
    all_toks = np.empty(total, dtype=object)
    o = 0
    for ts in toks_per_doc:
        all_toks[o:o + len(ts)] = ts
        o += len(ts)
    if total < n:
        return empty
    uniq, inv = np.unique(all_toks, return_inverse=True)
    th = poly_token_hashes(uniq)[inv]  # per-position token hash
    docs = df[id_col].to_numpy()
    # one Horner fold over the whole concatenated batch (n vectorized
    # passes), then keep only windows that do not cross a doc boundary
    # — bit-identical to the per-doc fold, no per-doc Python loop
    m_all = total - n + 1
    g = np.zeros(m_all, dtype=np.uint64)
    for j in range(n):
        g = g * GRAM_MULT + th[j:j + m_all]
    didx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.flatnonzero(didx[:m_all] == didx[n - 1:])
    if not len(starts):
        return empty
    offs = np.concatenate(([0], np.cumsum(counts)))
    sdoc = didx[starts]
    return pd.DataFrame({
        "g": g[starts].view(np.int64),
        id_col: docs[sdoc],
        "pos": starts - offs[sdoc],
    })


def duplicate_ngram_spans(ds, n: int = 8, min_docs: int = 2,
                          text_col: str = "text", id_col: str = "doc_id",
                          num_buckets: int = 64, concurrency=(1, 8)):
    """Token spans duplicated across ≥ ``min_docs`` documents.

    Returns ``(doc_id, span_start, span_end, n_grams)`` — 0-based token
    index intervals ``[span_start, span_end)`` after merging overlapping
    or touching duplicated n-grams; ``n_grams`` counts the duplicated
    grams merged into the span.  Tokens are lowercase ``\\w+`` (the
    SimHash scheme), so spans index into that token sequence.

    Stages (each streaming, shuffle volume = gram rows, never the text):
      1. map: tokenize + hash → (gram_hash, doc, pos) fan-out
         (~tokens-per-doc rows per doc);
      2. duplicate grams: distinct (g, doc) then per-g doc count — two
         bucketed hash aggregates with map-side combine;
      3. join the duplicate-gram set back to the (g, doc, pos) rows
         (bucketed hash join on g);
      4. per-doc overlapping-interval merge — one vectorized
         gaps-and-islands pass per doc-hash bucket (no per-doc Python).
    """
    import re

    from raygraph.joins import bucket_exchange

    tok_re = re.compile(r"\w+")
    grams = ds.map_batches(
        lambda df: _gram_rows(df, n, text_col, id_col, tok_re),
        batch_format="pandas",
    )

    # ONE g-bucketed exchange does dup detection AND survivor emission:
    # every occurrence of a gram hash lands in one bucket, so the bucket
    # task counts distinct docs per g and emits the surviving (doc, pos)
    # rows directly — gram rows cross the network once (previously:
    # distinct-(g,doc) aggregate + per-g count + join-back ≈ 3× the
    # exchange volume, plus a mid-pipeline materialize).
    def dup_hits(group: pd.DataFrame) -> pd.DataFrame:
        if not len(group):
            return pd.DataFrame({
                id_col: pd.Series(dtype=np.int64),
                "pos": pd.Series(dtype=np.int64),
            })
        g = group["g"].to_numpy(np.int64)
        doc = group[id_col].to_numpy()
        # distinct-doc count per g without pandas nunique: sort by
        # (g, doc), count (g, doc) boundary transitions per g run
        order = np.lexsort((doc, g))
        gs, ds_ = g[order], doc[order]
        new_pair = np.empty(len(gs), dtype=bool)
        new_pair[0] = True
        new_pair[1:] = (gs[1:] != gs[:-1]) | (ds_[1:] != ds_[:-1])
        new_g = np.empty(len(gs), dtype=bool)
        new_g[0] = True
        new_g[1:] = gs[1:] != gs[:-1]
        g_starts = np.flatnonzero(new_g)
        ndocs = np.add.reduceat(new_pair.astype(np.int64), g_starts)
        good = gs[g_starts[ndocs >= min_docs]]
        keep = np.isin(g, good, assume_unique=False)
        return pd.DataFrame({
            id_col: group[id_col].to_numpy()[keep],
            "pos": group["pos"].to_numpy(np.int64)[keep],
        })

    hits = bucket_exchange(grams, ["g"], dup_hits, num_buckets,
                           batch_format="pandas")

    def merge_spans(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            id_col: pd.Series(dtype=np.int64),
            "span_start": pd.Series(dtype=np.int64),
            "span_end": pd.Series(dtype=np.int64),
            "n_grams": pd.Series(dtype=np.int64),
        })
        if not len(group):
            return empty
        doc = group[id_col].to_numpy(np.int64)
        s = group["pos"].to_numpy(np.int64)
        e = s + n
        order = np.lexsort((s, doc))
        doc, s, e = doc[order], s[order], e[order]
        # vectorized gaps-and-islands across ALL docs at once: offset
        # ends by dense-doc-index × L (L > any end) so the running max
        # never leaks across doc boundaries
        _, gidx = np.unique(doc, return_inverse=True)
        L = np.int64(e.max() + 2)
        key_e = gidx.astype(np.int64) * L + e
        runmax = np.maximum.accumulate(key_e)
        brk = np.empty(len(s), dtype=bool)
        brk[0] = True
        # new island when this span starts after the running max end
        # (strictly: touching spans merge), or at a doc boundary (the
        # previous runmax is from a smaller gidx → compare < s always)
        brk[1:] = (gidx[1:] * L + s[1:]) > runmax[:-1]
        grp = np.cumsum(brk) - 1
        starts = np.flatnonzero(brk)
        ends = np.r_[starts[1:], len(s)] - 1
        return pd.DataFrame({
            id_col: doc[starts],
            "span_start": s[starts],
            "span_end": runmax[ends] - gidx[starts] * L,
            "n_grams": (ends - starts + 1).astype(np.int64),
        })

    return bucket_exchange(hits, [id_col], merge_spans, num_buckets,
                           batch_format="pandas")


def remove_duplicate_spans(ds, spans, text_col: str = "text",
                           id_col: str = "doc_id", num_buckets: int = 64):
    """Apply side of :func:`duplicate_ngram_spans`: cut the duplicated
    token spans out of each document's ORIGINAL text.

    ``spans``: Dataset or DataFrame ``(doc_id, span_start, span_end)``
    (token indices over the lowercase ``\\w+`` token stream).  Character
    ranges are recovered by re-tokenizing with ``finditer`` (same regex,
    deterministic), and the cut removes from the first span token's
    first character through the last span token's last character, so
    inter-token whitespace/punctuation inside the span goes with it.

    Returns ``(doc_id, text, n_removed_tokens)`` for every input doc
    (docs without spans pass through unchanged).  Scale shape: spans are
    packed per doc (one bucketed aggregate), then a bucketed LEFT join
    against the docs — text never moves except through that one join.
    """
    import re

    from raygraph import joins

    if isinstance(spans, pd.DataFrame):
        spans = _as_ds(spans)

    def pack(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            id_col: pd.Series(dtype=np.int64),
            "__starts": pd.Series(dtype=object),
            "__ends": pd.Series(dtype=object),
        })
        if not len(group):
            return empty
        g = group.sort_values([id_col, "span_start"])
        docs_arr = g[id_col].to_numpy(np.int64)
        brk = np.r_[True, docs_arr[1:] != docs_arr[:-1]]
        starts_idx = np.flatnonzero(brk)
        s = g["span_start"].to_numpy(np.int64)
        e = g["span_end"].to_numpy(np.int64)
        return pd.DataFrame({
            id_col: docs_arr[starts_idx],
            "__starts": [a.tolist() for a in
                         np.split(s, starts_idx[1:])],
            "__ends": [a.tolist() for a in np.split(e, starts_idx[1:])],
        })

    from raygraph.agg import bucketed_map_groups

    packed = bucketed_map_groups(spans, [id_col], pack,
                                 num_buckets=num_buckets)
    joined = joins.hash_join(ds, packed, on=id_col, how="left",
                             num_buckets=num_buckets)
    tok_re = re.compile(r"\w+")

    def apply(df: pd.DataFrame) -> pd.DataFrame:
        texts, removed = [], np.zeros(len(df), dtype=np.int64)
        for i, (t, ss, ee) in enumerate(
                zip(df[text_col].astype(str), df["__starts"], df["__ends"])):
            if not isinstance(ss, (list, np.ndarray)) or len(ss) == 0:
                texts.append(t)
                continue
            toks = list(tok_re.finditer(t.lower()))
            pieces, cur, cut = [], 0, 0
            for s0, e0 in zip(ss, ee):
                s0, e0 = int(s0), int(min(e0, len(toks)))
                if s0 >= len(toks) or e0 <= s0:
                    continue
                a = toks[s0].start()
                b = toks[e0 - 1].end()
                pieces.append(t[cur:a])
                cur = b
                cut += e0 - s0
            pieces.append(t[cur:])
            texts.append("".join(pieces))
            removed[i] = cut
        out = pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64),
            text_col: texts,
            "n_removed_tokens": removed,
        })
        return out

    return joined.map_batches(apply, batch_format="pandas")
