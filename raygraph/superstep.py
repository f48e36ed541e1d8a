"""Iterative superstep (BSP) engine: stateful workers over CSR-blocked partitions.

This is the engine behind PageRank / WCC / LPA — the Ray analogue of the
reference's prim layer:

* ``per_v_transform_reduce_incoming_e`` (``prims/per_v_transform_reduce_
  incoming_outgoing_e.cuh:1082``) — the gather–scatter superstep: each worker
  maps over its CSR block emitting (dst, partial) messages **pre-aggregated
  per block** (the combiner), the dst-owner reduces them, and vertex state is
  updated — exactly the NCCL reduce-scatter the reference pays per iteration
  (``SURVEY.md §3.2``), paid here as a direct worker→worker object exchange.
* ``update_edge_src_property`` (``prims/update_edge_src_dst_property.cuh``) —
  free here: edges are partitioned by owner(src), so the src-side vertex
  state is resident in the same worker (SURVEY.md §4.4's 1D placement).
* ``host_scalar_allreduce`` (used at ``pagerank_impl.cuh:77-80,193-196``) —
  driver-side sum of per-worker scalars between phases.

Why raw actors and not a per-iteration Dataset pipeline: the Dataset API has
no way to pin a block to an actor across iterations, so a Dataset-expressed
superstep re-ships the immutable CSR blocks through the object store every
iteration (SURVEY.md §7.3.1).  Workers here read their partitions once
(from the graph's hash-partitioned parquet), hold them as numpy columns, and
only the small message tables move per superstep.

Scale/skew notes:
* Messages are combined per worker before the exchange (block-local
  pre-aggregation), so per-iteration traffic is O(distinct dst per worker),
  not O(E) — the salted two-stage reduce of SURVEY.md §4.3.3 falls out of
  this: a hot dst receives ≤ W partials, one per worker, regardless of
  in-degree.
* dst→owner routing tables are precomputed once (dst ids never change), so
  the per-iteration cost is a bincount over edges + slicing.
* Every ``checkpoint_every`` supersteps each worker writes per-*graph-
  partition* vertex state parquet plus the driver appends lineage metadata
  (partition id, iteration, rows in/out, shuffle bytes) — resume works even
  with a different worker count, because state files are keyed by graph
  partition, not by worker (the reference has no mid-algorithm checkpoint
  at all: SURVEY.md §4.1 "Checkpoint / resume: none").
"""

from __future__ import annotations

import glob
import json
import os
import threading
import time
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from raygraph.hashing import group_pairs, owned_vertices, part_of_vertex


def ref_list(refs, n: int):
    """Normalize a ``num_returns=n`` remote call result to a list: Ray
    returns a bare ObjectRef when ``n == 1`` and a list of refs otherwise,
    so every ``served[p][q]`` fan-in indexing pattern breaks on a
    single-worker engine without this."""
    return [refs] if n == 1 else refs


def segmented_cumsum(w: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Per-segment prefix sums of ``w`` (segment i is
    ``w[offs[i]:offs[i+1]]``), bit-identical to running ``np.cumsum`` on
    each segment alone.

    A worker-global ``np.cumsum`` with base subtraction
    (``cum[i] - cum[seg0-1]``) only cancels the prefix exactly when every
    addend is exactly summable (integer weights, running sum < 2^53); for
    general float weights the draw's rounding would depend on which
    segments are co-resident in the worker — breaking the
    parallelism-independent-sampling contract (ADVICE r3).  Vectorized by
    bucketing segments on length and cumsum-ing each ``(m, d)`` reshape
    along axis=1 — the same sequential per-row add chain as a per-segment
    loop, without the Python-per-segment cost.
    """
    out = np.empty(len(w), dtype=np.float64)
    deg = np.diff(offs)
    seg0 = offs[:-1]
    for d in np.unique(deg):
        if d == 0:
            continue
        rows = seg0[deg == d]
        pos = rows[:, None] + np.arange(int(d), dtype=np.int64)[None, :]
        out[pos.reshape(-1)] = np.cumsum(w[pos], axis=1).reshape(-1)
    return out


@ray.remote
class PartitionWorker:
    """Holds a set of graph partitions (CSR blocks) + the vertex state they own.

    Worker ``wid`` of ``W`` owns graph partitions {p : p % W == wid} and the
    vertex ids v with part_of_vertex(v, P) in that set — so the src endpoint
    of every resident edge is locally owned (1D co-partitioning).
    """

    def __init__(self, graph_dir: str, wid: int, num_workers: int,
                 num_parts: int, num_vertices: int, part2worker=None,
                 wide_keys=None):
        self.wid = wid
        self.W = num_workers
        self.P = num_parts
        self.V = num_vertices
        # Wide-id mode: kernels that pack two ids into one int64 composite
        # key (BFS dist|pred, LPA dst|label, SCC color|flags, triangle
        # slice*V+vid, k-truss src|dst) switch to two-pass lexsort / dynamic
        # bit-width variants once V no longer fits 32 bits.  Auto past 2^32;
        # forceable for tests (forced-path equality on small graphs).
        self.wide = bool(wide_keys) if wide_keys is not None else (num_vertices >= 2 ** 32)
        # bit width of a vertex id (>= 32 keeps the packed layouts identical
        # to the historical ones for every graph below 2^32 vertices)
        self._vbits = max(32, int(max(num_vertices - 1, 1)).bit_length())
        self._vmask = np.int64((1 << self._vbits) - 1)
        # partition→worker assignment: edge-count-balanced (LPT) when the
        # engine provides it, else round-robin — bounds the load of hot
        # (high-degree-src) partitions without touching placement hashes
        if part2worker is None:
            part2worker = np.arange(num_parts, dtype=np.int64) % num_workers
        self.part2worker = np.asarray(part2worker, dtype=np.int64)
        self.parts = [p for p in range(num_parts) if self.part2worker[p] == wid]

        tables = []
        for p in self.parts:
            pdir = os.path.join(graph_dir, "edges", f"part={p}")
            if os.path.isdir(pdir):
                files = sorted(glob.glob(os.path.join(pdir, "*.parquet")))
                for f in files:
                    tables.append(pq.read_table(f, columns=["src", "dst", "weight"]))
        if tables:
            t = pa.concat_tables(tables)
            self.src = t.column("src").to_numpy()
            self.dst = t.column("dst").to_numpy()
            self.w = t.column("weight").to_numpy()
        else:
            self.src = np.empty(0, np.int64)
            self.dst = np.empty(0, np.int64)
            self.w = np.empty(0, np.float64)

        owned = [owned_vertices(num_vertices, p, num_parts) for p in self.parts]
        self.owned = (
            np.sort(np.concatenate(owned)) if owned else np.empty(0, np.int64)
        )
        self.n_owned = len(self.owned)
        # Mirror (foreign-src) edges: with high-degree src splitting a hot
        # vertex's edge rows are spread across partitions, so this worker
        # may hold edges whose src it does NOT own.  src_local indexes an
        # EXTENDED source-state vector [owned state ∥ mirror state]; the
        # mirror tail is synced from the owners (``apply_mirror_values``).
        # Unsplit graphs have n_mirror == 0 and pay nothing.
        owner_of_src = self.part2worker[part_of_vertex(self.src, self.P)]
        src_owned_edge = owner_of_src == wid
        if (~src_owned_edge).any():
            self.mirror_unique, mirror_inv = np.unique(
                self.src[~src_owned_edge], return_inverse=True
            )
        else:
            self.mirror_unique = np.empty(0, np.int64)
            mirror_inv = np.empty(0, np.int64)
        self.n_mirror = len(self.mirror_unique)
        self.src_local = np.empty(len(self.src), dtype=np.int64)
        self.src_local[src_owned_edge] = np.searchsorted(
            self.owned, self.src[src_owned_edge]
        )
        self.src_local[~src_owned_edge] = self.n_owned + mirror_inv
        mo = (
            self.part2worker[part_of_vertex(self.mirror_unique, self.P)]
            if self.n_mirror else np.empty(0, np.int64)
        )
        self.mirror_route = [np.flatnonzero(mo == q) for q in range(self.W)]
        self._mirror_vals: dict[str, np.ndarray] = {}
        # dst message routing, precomputed once: unique dsts, inverse index,
        # and per-destination-worker slices
        self.dst_unique, self.dst_inverse = np.unique(self.dst, return_inverse=True)
        ow = self.part2worker[part_of_vertex(self.dst_unique, self.P)]
        self.route = [np.flatnonzero(ow == q) for q in range(self.W)]
        # packed-message layout: one concatenated array + offsets instead of
        # W separate arrays per round (fewer plasma deserializes per receive)
        self.route_order = (
            np.concatenate(self.route) if len(self.dst_unique) else
            np.empty(0, np.int64)
        )
        self.route_offsets = np.zeros(self.W + 1, dtype=np.int64)
        np.cumsum([len(r) for r in self.route], out=self.route_offsets[1:])
        self.packed_vids = self.dst_unique[self.route_order]
        # graph partition id of each owned vertex (for per-partition checkpoints)
        self.owned_part = part_of_vertex(self.owned, self.P)
        self.state: dict[str, np.ndarray] = {}
        # receive-position cache: the dst routing tables are static, so the
        # searchsorted positions of each sender's vids are computed once
        self._pos_cache: dict[int, np.ndarray] = {}
        # tree-combine merge layouts (exchange_mode="tree"): keyed by
        # receiver id — the dst routing is a property of the graph, so one
        # layout serves both the pagerank and spmv message kinds
        self._comb_cache: dict[int, dict] = {}
        self._tree_bytes = {"intra_in": 0, "inter_out": 0, "combines": 0}

    def _recv_pos(self, sender: int, vids) -> np.ndarray:
        # Positions for the STATIC packed-layout paths (pagerank / spmv),
        # whose per-sender vid sets never change for the life of the worker.
        # ``vids is None`` means the sender shipped a vid-free message
        # (steady-state rounds re-ship only partials — half the bytes); the
        # cached positions from the mandatory vid-ful round 0 are used.
        # Vid-ful messages re-validate cheaply (length + ends) so a stale
        # entry can never be silently reused.
        pos = self._pos_cache.get(sender)
        if vids is None:
            if pos is None:
                raise RuntimeError(
                    f"vid-free message from sender {sender} before any "
                    "vid-ful round — engine must ship vids on round 0"
                )
            return pos
        if (
            pos is None
            or len(pos) != len(vids)
            or (len(vids) and (self.owned[pos[0]] != vids[0]
                               or self.owned[pos[-1]] != vids[-1]))
        ):
            pos = np.searchsorted(self.owned, vids)
            self._pos_cache[sender] = pos
        return pos

    def _take_mine(self, m):
        """Normalize a received message: packed mode ships each sender's
        full per-receiver list (slice out ours); sliced mode ships exactly
        our tuple."""
        return m[self.wid] if isinstance(m, list) else m

    # -- dense-iteration scatter layout ------------------------------------
    # Edges stable-sorted by PACKED destination position, built lazily on
    # the first pagerank/spmv scatter (frontier kernels never pay for it).
    # Per superstep the reduction becomes one multiply into a reused buffer
    # plus a bincount whose scatter writes are sequential in the packed
    # output — no per-iteration ``partial[route_order]`` gather — and the
    # source-gather index is int32 when the extended state vector fits,
    # halving the per-edge index bytes the loop streams.  The stable sort
    # preserves within-destination edge order, so partials stay
    # BIT-IDENTICAL to ``bincount(dst_inverse, …)[route_order]``.
    # Cost: one argsort + ~20 B/edge of per-worker arrays, paid once
    # (measured 1.4× at the W=32 shape, 1.56× at W=8 — BASELINE.md).
    def _packed_layout(self):
        lay = getattr(self, "_sp_lay", None)
        if lay is None:
            U = len(self.dst_unique)
            ppos = np.empty(U, np.int64)
            ppos[self.route_order] = np.arange(U)
            epos = ppos[self.dst_inverse]
            order = np.argsort(epos, kind="stable")
            idt = (np.int32 if self.n_owned + self.n_mirror < 2 ** 31
                   else np.int64)
            lay = {
                "order": order,
                "src_local": self.src_local[order].astype(idt),
                "epos": epos[order],
                "buf": np.empty(len(order)),
                "coef": {},
            }
            self._sp_lay = lay
        return lay

    def _packed_partials(self, src_vals, coef_name, coef_arr):
        """Per-destination partials already in packed (route_order) order."""
        lay = self._packed_layout()
        coef = lay["coef"].get(coef_name)
        if coef is None:
            coef = coef_arr[lay["order"]]
            lay["coef"][coef_name] = coef
        np.multiply(src_vals[lay["src_local"]], coef, out=lay["buf"])
        return np.bincount(lay["epos"], weights=lay["buf"],
                           minlength=len(self.dst_unique))

    # -- sliced (per-receiver) exchange variants --------------------------
    # One plasma object PER (sender, receiver) pair instead of one per
    # sender: O(W²) objects per round, but a receiver fetches only its own
    # slice — on a multi-node cluster this cuts per-node inbound bytes by
    # ~W× versus shipping every sender's full list to every node (the 1D
    # placement message-volume gap, SCALE.md item 1).
    def scatter_sliced(self, scatter_name: str, *args):
        """Generic wrapper: call with num_returns=W+1 — W per-receiver
        message objects followed by the stats dict."""
        out, stats = getattr(self, scatter_name)(*args)
        return (*out, stats)

    def pagerank_scatter_sliced(self, ship_vids: bool = True):
        """Per-receiver pagerank messages (num_returns=W):
        (vids_q | None, partials_q, dangling_partial).  The routing layout
        is static, so after a vid-ful round 0 the engine requests vid-free
        messages (``ship_vids=False``) — receivers index with their cached
        positions and the exchange ships half the bytes."""
        pr = self.state["pr"]
        pr_ext = self._src_vec("pr")
        pp = self._packed_partials(pr_ext, "pr", self._pr_edge_coef)
        dangling_sum = float(pr[self.state["dangling"]].sum())
        offs = self.route_offsets
        pv = self.packed_vids
        out = tuple(
            (pv[offs[q]:offs[q + 1]] if ship_vids else None,
             pp[offs[q]:offs[q + 1]], dangling_sum)
            for q in range(self.W)
        )
        # num_returns=W: bare payload at W==1 (see serve_dst_values)
        return out[0] if self.W == 1 else out

    def spmv_scatter_sliced(self, name: str, ship_vids: bool = True):
        """Per-receiver spmv messages (num_returns=W+1): W (vids | None,
        partials) tuples followed by the stats dict."""
        x = self.state[name]
        pp = self._packed_partials(self._src_vec(name), "w", self.w)
        offs = self.route_offsets
        pv = self.packed_vids
        msgs = tuple(
            (pv[offs[q]:offs[q + 1]] if ship_vids else None,
             pp[offs[q]:offs[q + 1]])
            for q in range(self.W)
        )
        bytes_out = pp.nbytes + (pv.nbytes if ship_vids else 0)
        return (*msgs, {"rows_out": len(pv), "bytes_out": bytes_out,
                        "local_sum": float(x.sum()),
                        "local_sq": float((x * x).sum())})

    # -- tree (hierarchical) combine tier ----------------------------------
    # exchange_mode="tree": workers are grouped (a group models the workers
    # of one physical node); per (group, receiver) a designated member
    # merges the group's sliced partials by destination BEFORE they cross
    # the network — a hot dst receives one partial per GROUP instead of one
    # per WORKER, cutting receiver fan-in from W to ceil(W/G).  This is the
    # Ray-native equivalent of the reference's 2D-partitioned reduce
    # (cugraph per_v_transform_reduce_incoming_e's column-communicator
    # reduction): intra-group traffic stays on-node (plasma, cheap), only
    # the merged slice is inter-node.  Per-dst summation order differs from
    # packed/sliced (group subtotals first), so scores agree to summation
    # ulps, not bits; the mode is opt-in and deterministic for a fixed
    # (W, G).
    def combine_slices(self, q: int, msg_refs, kind: str):
        """Merge this group's per-receiver slices for receiver ``q``.

        ``msg_refs``: the group members' slice objects in fixed member
        order — pagerank kind: (vids|None, partials, dangling); spmv kind:
        (vids|None, partials).  Returns one message of the same shape with
        group-merged (sorted-unique) vids.  The merge layout (unique +
        inverse) is static across supersteps and cached per receiver; the
        mandatory vid-ful round 0 builds it, vid-free rounds reuse it.
        """
        msgs = ray.get(list(msg_refs))
        vids_list = [m[0] for m in msgs]
        parts = [np.asarray(m[1], dtype=np.float64) for m in msgs]
        tb = self._tree_bytes
        tb["combines"] += 1
        tb["intra_in"] += sum(p.nbytes for p in parts)
        lay = self._comb_cache.get(q)
        if any(v is not None for v in vids_list):
            if not all(v is not None for v in vids_list):
                raise RuntimeError("mixed vid-ful/vid-free slices in one "
                                   "tree combine round")
            concat_vids = np.concatenate(
                [np.asarray(v) for v in vids_list])
            tb["intra_in"] += concat_vids.nbytes
            merged, inverse = np.unique(concat_vids, return_inverse=True)
            lay = {"merged": merged, "inverse": inverse,
                   "n_in": len(concat_vids)}
            self._comb_cache[q] = lay
            ship_vids = True
        else:
            if lay is None:
                raise RuntimeError(
                    f"vid-free slices for receiver {q} before any vid-ful "
                    "round — engine must ship vids on round 0")
            ship_vids = False
        concat = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if len(concat) != lay["n_in"]:
            raise RuntimeError("tree combine layout is stale: slice rows "
                               f"{len(concat)} != cached {lay['n_in']}")
        merged_p = np.bincount(lay["inverse"], weights=concat,
                               minlength=len(lay["merged"]))
        tb["inter_out"] += merged_p.nbytes + (
            lay["merged"].nbytes if ship_vids else 0)
        out_vids = lay["merged"] if ship_vids else None
        if kind == "pagerank":
            return (out_vids, merged_p, float(sum(m[2] for m in msgs)))
        return (out_vids, merged_p)

    def tree_bytes(self, reset: bool = False):
        """Combiner-tier byte counters (intra-group inbound vs merged
        inter-group outbound); ``reset=True`` zeroes them (bench warmup)."""
        out = dict(self._tree_bytes)
        if reset:
            self._tree_bytes = {"intra_in": 0, "inter_out": 0, "combines": 0}
        return out

    # -- mirror (foreign-src) state sync ----------------------------------
    # The src-property exchange for split high-degree vertices: owners
    # serve their state for the mirror ids each worker registered; workers
    # install the values as the tail of the extended source vector.
    def _require_unsplit(self, algo: str):
        if self.n_mirror:
            raise NotImplementedError(
                f"{algo} does not support split high-degree graphs yet "
                "(mirror edges present); rebuild without "
                "split_degree_threshold or use PageRank"
            )

    def mirror_count(self):
        return self.n_mirror

    def mirror_ids_by_owner(self):
        return [self.mirror_unique[self.mirror_route[q]] for q in range(self.W)]

    def register_mirror_requests(self, request_lists):
        self._mirror_serve_pos = [
            np.searchsorted(self.owned, np.asarray(ids, dtype=np.int64))
            for ids in request_lists
        ]
        return True

    def serve_mirror_values(self, name: str):
        # num_returns=W: bare payload at W==1 (see serve_dst_values)
        x = self.state[name]
        out = [x[pos] for pos in self._mirror_serve_pos]
        return out[0] if self.W == 1 else out

    def apply_mirror_values(self, name: str, value_refs):
        vals = ray.get(list(value_refs))
        dtype = next((v.dtype for v in vals if hasattr(v, "dtype")), np.float64)
        full = np.zeros(self.n_mirror, dtype=dtype)
        for q in range(self.W):
            full[self.mirror_route[q]] = vals[q]
        self._mirror_vals[name] = full
        return True

    def _src_vec(self, name: str) -> np.ndarray:
        """State vector indexed by src_local: [owned ∥ mirror tail]."""
        x = self.state[name]
        if not self.n_mirror:
            return x
        if name not in self._mirror_vals:
            raise NotImplementedError(
                f"split graph: mirror values for state {name!r} were never "
                "synced — the calling algorithm lacks split-graph support"
            )
        return np.concatenate([x, self._mirror_vals[name]])

    # -- bookkeeping ------------------------------------------------------
    def reload(self, *args, **kw):
        """Serve a new engine from this (pooled) process: drop every
        attribute, then construct afresh — no state of the previous engine
        (CSR, caches, algorithm state) can survive a reuse."""
        self.__dict__.clear()
        self.__init__(*args, **kw)
        return self.info()

    def release(self):
        """Free the graph and all state while the process waits idle."""
        self.__dict__.clear()

    def info(self):
        return {
            "wid": self.wid,
            "parts": self.parts,
            "edges": len(self.src),
            "owned": self.n_owned,
            "mirrors": self.n_mirror,
        }

    def set_state(self, name: str, arr_or_scalar):
        if np.isscalar(arr_or_scalar):
            self.state[name] = np.full(self.n_owned, arr_or_scalar)
        else:
            self.state[name] = np.asarray(arr_or_scalar)

    def get_state(self, names):
        out = {"vertex": self.owned}
        for n in names:
            out[n] = self.state[n]
        return pd.DataFrame(out)

    def reset_state(self):
        """Drop all per-algorithm state so the worker can serve another
        algorithm on the same graph (engine reuse).  Static structures —
        CSR arrays, routing tables, receive-position caches, the packed
        scatter layout — survive; only vertex/edge state and fetched
        property caches go."""
        self.state.clear()
        self._mirror_vals.clear()
        self._dst_vals = {}
        for attr in ("_ows_ext",):
            if hasattr(self, attr):
                delattr(self, attr)
        return True

    def write_state(self, out_dir: str, names, file_tag: Optional[str] = None):
        """Write owned vertex state, one parquet file per graph partition."""
        os.makedirs(out_dir, exist_ok=True)
        written = []
        for p in self.parts:
            mask = self.owned_part == p
            cols = {"vertex": self.owned[mask]}
            for n in names:
                cols[n] = self.state[n][mask]
            path = os.path.join(out_dir, f"part-{p:05d}.parquet")
            pq.write_table(pa.table(cols), path)
            written.append((p, int(mask.sum())))
        return written

    def write_edge_state(self, out_dir: str, names):
        """Write per-edge state keyed by global (src, dst), one parquet file
        per graph partition (an edge belongs to its src's partition — the
        1D layout, so the write is shuffle-free)."""
        os.makedirs(out_dir, exist_ok=True)
        src_g = self.owned[self.src_local]
        dst_g = self.dst_unique[self.dst_inverse]
        src_part = self.owned_part[self.src_local]
        written = []
        for p in self.parts:
            mask = src_part == p
            cols = {"src": src_g[mask], "dst": dst_g[mask]}
            for n in names:
                cols[n] = self.state[n][mask]
            path = os.path.join(out_dir, f"part-{p:05d}.parquet")
            pq.write_table(pa.table(cols), path)
            written.append((p, int(mask.sum())))
        return written

    def load_state(self, in_dir: str, names):
        frames = []
        for p in self.parts:
            path = os.path.join(in_dir, f"part-{p:05d}.parquet")
            frames.append(pq.read_table(path).to_pandas())
        df = pd.concat(frames).sort_values("vertex")
        assert np.array_equal(df["vertex"].to_numpy(), self.owned)
        for n in names:
            self.state[n] = df[n].to_numpy()

    # -- PageRank ---------------------------------------------------------
    # semantics: cpp/src/link_analysis/pagerank_impl.cuh:156-292
    def pagerank_init(self, nstart=None, personalization=None):
        # out-weight sums: complete locally because all out-edges of an owned
        # vertex live in this worker (graph_view.hpp:671-683 analogue).
        # Split graphs (mirror edges) use the 3-step init below instead.
        assert self.n_mirror == 0, "split graph: use pagerank_init_partial path"
        ows = np.zeros(self.n_owned)
        np.add.at(ows, self.src_local, self.w)
        self.state["out_wsum"] = ows
        self.state["dangling"] = ows == 0.0
        # per-edge coefficient w/out_wsum[src] is constant across supersteps
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = ows[self.src_local]
            self._pr_edge_coef = np.where(
                denom > 0, self.w / np.where(denom > 0, denom, 1.0), 0.0
            )
        if getattr(self, "_sp_lay", None) is not None:
            self._sp_lay["coef"].pop("pr", None)  # coef changed: drop cache
        self._pagerank_state_init(nstart, personalization)
        return float(self.state["pr"].sum())

    def _pagerank_state_init(self, nstart, personalization):
        if nstart is not None:
            vids, vals = nstart
            vids = np.asarray(vids, np.int64)
            vals = np.asarray(vals, np.float64)
            pr = np.zeros(self.n_owned)
            # keep only vids this worker owns (same filter as the
            # personalization branch below) — unfiltered searchsorted either
            # raises or silently warm-starts the wrong vertices
            sel = self.part2worker[part_of_vertex(vids, self.P)] == self.wid
            idx = np.searchsorted(self.owned, vids[sel])
            pr[idx] = vals[sel]
            self.state["pr"] = pr
        else:
            self.state["pr"] = np.full(self.n_owned, 1.0 / self.V)
        if personalization is not None:
            vids, vals = personalization
            pv = np.zeros(self.n_owned)
            sel = self.part2worker[part_of_vertex(np.asarray(vids, np.int64), self.P)] == self.wid
            idx = np.searchsorted(self.owned, np.asarray(vids, np.int64)[sel])
            pv[idx] = np.asarray(vals, np.float64)[sel]
            self.state["pers"] = pv

    def pagerank_init_partial(self):
        """Split-graph init 1/3: extended out-weight partials; foreign-src
        partials routed to their owners."""
        ows = np.zeros(self.n_owned + self.n_mirror)
        np.add.at(ows, self.src_local, self.w)
        self._ows_ext = ows
        tail = ows[self.n_owned:]
        out = []
        rows_out = 0
        for q in range(self.W):
            sel = self.mirror_route[q]
            out.append((self.mirror_unique[sel], tail[sel]))
            rows_out += len(sel)
        return out, {"rows_out": rows_out, "bytes_out": rows_out * 16}

    def pagerank_init_collect(self, nstart, personalization, msg_refs):
        """Split-graph init 2/3: owners sum foreign partials into their
        out_wsum, then init pr state."""
        all_msgs = ray.get(list(msg_refs))
        ows = self._ows_ext[: self.n_owned].copy()
        for msgs in all_msgs:
            vids, vals = self._take_mine(msgs)
            idx = np.searchsorted(self.owned, vids)
            ows[idx] += vals  # vids unique per sender
        self.state["out_wsum"] = ows
        self.state["dangling"] = ows == 0.0
        self._pagerank_state_init(nstart, personalization)
        return {"rows_in": sum(len(self._take_mine(m)[0]) for m in all_msgs)}

    def pagerank_finish_init(self):
        """Split-graph init 3/3 (after fetching out_wsum mirror values):
        constant per-edge coefficients over the extended vector."""
        ows_ext = self._src_vec("out_wsum")
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = ows_ext[self.src_local]
            self._pr_edge_coef = np.where(
                denom > 0, self.w / np.where(denom > 0, denom, 1.0), 0.0
            )
        if getattr(self, "_sp_lay", None) is not None:
            self._sp_lay["coef"].pop("pr", None)  # coef changed: drop cache
        return float(self.state["pr"].sum())

    def pagerank_scatter(self, ship_vids: bool = True):
        """One plasma object per sender per superstep:
        (packed vids | None, packed partials, offsets, dangling partial).

        Packed layout (receiver q reads [off[q]:off[q+1]]) keeps both the
        object count AND the per-receive deserialize count at O(W).  The
        dangling partial rides along so receivers can compute the global
        unvarying term themselves — the driver never sits between scatter
        and update (single barrier per superstep).  The vid/offset layout
        is static across supersteps, so after round 0 the engine requests
        ``ship_vids=False`` and only the float partials move — half the
        steady-state exchange bytes (offsets are O(W), kept for slicing)."""
        pr = self.state["pr"]
        pr_ext = self._src_vec("pr")
        pp = self._packed_partials(pr_ext, "pr", self._pr_edge_coef)
        dangling_sum = float(pr[self.state["dangling"]].sum())
        return (self.packed_vids if ship_vids else None,
                pp, self.route_offsets, dangling_sum)

    def pagerank_update(self, alpha: float, has_pers: bool, msg_refs):
        """Gather + state update; computes unvarying locally from the
        dangling partials carried in the message objects.  Accepts packed
        messages (4-tuple with offsets — slice ours out) or sliced ones
        (3-tuple already ours); ``bytes_in`` counts what this worker
        actually deserialized."""
        all_msgs = ray.get(list(msg_refs))
        gather = np.zeros(self.n_owned)
        rows_in = 0
        bytes_in = 0
        dangling = 0.0
        lo, hi = self.wid, self.wid + 1
        for sender, m in enumerate(all_msgs):
            if len(m) == 4:  # packed: full arrays shipped, slice ours
                vids_all, part_all, offs, d = m
                bytes_in += part_all.nbytes + offs.nbytes + (
                    vids_all.nbytes if vids_all is not None else 0)
                vids = (vids_all[offs[lo]:offs[hi]]
                        if vids_all is not None else None)
                partials = part_all[offs[lo]:offs[hi]]
            else:  # sliced: exactly our slice shipped
                vids, partials, d = m
                bytes_in += partials.nbytes + (
                    vids.nbytes if vids is not None else 0)
            dangling += d
            pos = self._recv_pos(sender, vids)
            gather[pos] += partials  # vids unique per sender → plain fancy add
            rows_in += len(partials)
        if has_pers:
            unvarying = alpha * dangling + (1.0 - alpha)
        else:
            unvarying = (alpha * dangling + (1.0 - alpha)) / self.V
        pr_old = self.state["pr"]
        if "pers" in self.state:
            pr_new = unvarying * self.state["pers"] + alpha * gather
        else:
            pr_new = unvarying + alpha * gather
        l1 = float(np.abs(pr_new - pr_old).sum())
        self.state["pr"] = pr_new
        return {"l1": l1, "pr_sum": float(pr_new.sum()), "rows_in": rows_in,
                "bytes_in": bytes_in, "rows_out": len(self.packed_vids),
                "bytes_out": self.packed_vids.nbytes * 2, "dangling": dangling}

    # -- generic SpMV scatter + dst-property exchange ---------------------
    # spmv: per_v_transform_reduce_incoming_e with e_op = x[src]*w
    # dst exchange: update_edge_dst_property (prims/update_edge_src_dst_
    # property.cuh) — the dst-side half that is not free under 1D placement.
    def spmv_scatter(self, name: str, ship_vids: bool = True):
        """num_returns=2: (packed msgs, stats); packed = (vids | None,
        partials, offs) — vid-free after round 0, same as pagerank_scatter."""
        x = self.state[name]
        pp = self._packed_partials(self._src_vec(name), "w", self.w)
        packed = (self.packed_vids if ship_vids else None,
                  pp, self.route_offsets)
        bytes_out = packed[1].nbytes + (
            self.packed_vids.nbytes if ship_vids else 0)
        return packed, {"rows_out": len(self.packed_vids),
                        "bytes_out": bytes_out,
                        "local_sum": float(x.sum()), "local_sq": float((x * x).sum())}

    def gather_into(self, name: str, msg_refs, alpha: float = 1.0, beta: float = 0.0,
                    scale: float = 1.0):
        """state[name] ← scale·(alpha·gather + beta); returns l1 vs old."""
        all_msgs = ray.get(list(msg_refs))
        gather = np.zeros(self.n_owned)
        rows_in = 0
        lo, hi = self.wid, self.wid + 1
        for sender, m in enumerate(all_msgs):
            if len(m) == 3:  # packed
                vids_all, part_all, offs = m
                vids = (vids_all[offs[lo]:offs[hi]]
                        if vids_all is not None else None)
                partials = part_all[offs[lo]:offs[hi]]
            else:  # sliced
                vids, partials = m
            pos = self._recv_pos(sender, vids)
            gather[pos] += partials
            rows_in += len(partials)
        old = self.state.get(name)
        new = scale * (alpha * gather + beta)
        l1 = float(np.abs(new - old).sum()) if old is not None else float("inf")
        self.state[name] = new
        return {"l1": l1, "rows_in": rows_in, "local_sum": float(new.sum()),
                "local_sq": float((new * new).sum())}

    def scale_state(self, name: str, factor: float):
        self.state[name] = self.state[name] * factor
        return True

    def commit_scaled_diff(self, src_name: str, dst_name: str, factor: float):
        """state[dst] ← factor·state[src]; returns L1 distance to the
        previous state[dst] (the correct convergence metric for normalized
        power iteration)."""
        new = self.state[src_name] * factor
        old = self.state.get(dst_name)
        l1 = float(np.abs(new - old).sum()) if old is not None else float("inf")
        self.state[dst_name] = new
        return {"l1": l1}

    # -- generic dense block-vector ops (spectral embedding) --------------
    # building blocks for block power iteration: deterministic init,
    # elementwise combine, and k×k Gram partials so the driver only ever
    # holds O(k²) — never a V-sized array.

    def set_state_hash(self, name: str, salt: int):
        """Deterministic pseudo-random init in [-0.5, 0.5): a pure function
        of (vid, salt) — placement- and worker-count-independent."""
        from raygraph.hashing import hash_int64

        # 64-bit wraparound intended — mask in Python ints to avoid the
        # numpy overflow warning
        mix = np.uint64((int(salt) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        h = hash_int64((self.owned.view(np.uint64) + mix).view(np.int64))
        self.state[name] = h.astype(np.float64) / np.float64(2 ** 64) - 0.5
        return True

    def set_degree_state(self, name: str):
        """state[name] = weighted degree of owned vertices (Σ incident w —
        on a symmetrized graph the src-side bincount IS the degree)."""
        self._require_unsplit("set_degree_state")
        self.state[name] = np.bincount(
            self.src_local, weights=self.w, minlength=self.n_owned
        )
        return {"local_max": float(self.state[name].max(initial=0.0)),
                "local_sum": float(self.state[name].sum())}

    def pow_state(self, dst: str, src: str, p: float):
        """state[dst] = state[src]**p with zeros kept at zero (the
        D^{-1/2} guard for isolated vertices)."""
        x = self.state[src]
        out = np.zeros_like(x, dtype=np.float64)
        nz = x != 0
        out[nz] = np.power(x[nz], p)
        self.state[dst] = out
        return True

    def mul_states(self, dst: str, a: str, b: str):
        self.state[dst] = self.state[a] * self.state[b]
        return True

    def axpby_states(self, dst: str, ca: float, a: str, cb: float, b: str):
        self.state[dst] = ca * self.state[a] + cb * self.state[b]
        return True

    def spectral_post(self, n: str, mode: str, coef: float):
        """Fused post-spmv step for one embedding column (single barrier
        instead of three):

        - laplacian:  z = (state[n] + dinv·state[_g]) / 2
        - modularity: z = state[_g] + coef·sdeg + 2·(-coef is df/m2 …)
          — caller passes the rank-one coefficient; shift handled below.

        Returns the Rayleigh partial state[n]·z, then commits state[n] ← z.
        """
        f = self.state[n]
        g = self.state["_g"]
        if mode == "laplacian":
            z = 0.5 * f + 0.5 * (self.state["dinv"] * g)
        else:  # modularity: z = g − (df/m2)·sdeg + 2·dmax·f ; coef packs
            df_over_m2, two_dmax = coef
            z = g - df_over_m2 * self.state["sdeg"] + two_dmax * f
        rq = float((f * z).sum())
        self.state[n] = z
        return rq

    # -- Force Atlas 2 (layout/force_atlas2.py semantics) ------------------
    # positions are two state columns ("fx","fy"); attraction comes from
    # the generic spmv (Σ_nbr w·pos); repulsion uses a particle-mesh grid:
    # workers bin owned vertices into a global G×G grid and the driver
    # broadcasts the tiny (mass, centroid) cell table — the same far-field
    # approximation role Barnes-Hut plays in the reference, with a
    # partition-friendly regular grid instead of a shared quadtree.

    def fa2_grid(self, x0: float, y0: float, inv_cell: float, n: int):
        """Partial (mass, Σ mass·x, Σ mass·y) per grid cell over owned
        vertices; mass = deg+1 (FA2's repulsion weight)."""
        gx = np.clip(((self.state["fx"] - x0) * inv_cell).astype(np.int64), 0, n - 1)
        gy = np.clip(((self.state["fy"] - y0) * inv_cell).astype(np.int64), 0, n - 1)
        cell = gx * n + gy
        mass = self.state["sdeg"] + 1.0
        ncell = n * n
        return (
            np.bincount(cell, weights=mass, minlength=ncell),
            np.bincount(cell, weights=mass * self.state["fx"], minlength=ncell),
            np.bincount(cell, weights=mass * self.state["fy"], minlength=ncell),
        )

    def fa2_apply(self, cell_mass, cell_cx, cell_cy, scaling_ratio: float,
                  gravity: float, strong_gravity: bool, speed: float,
                  outbound_attr: bool):
        """One FA2 position update over owned vertices.  Expects the
        attraction gathers in state['_ax'/'_ay'] (= Σ_nbr w·pos) and the
        weighted degree in state['swsum'].  Returns (total swing-ish
        displacement, traction, new position bounds) for the driver's
        adaptive speed + next grid."""
        fx, fy = self.state["fx"], self.state["fy"]
        deg1 = self.state["sdeg"] + 1.0
        sw = self.state["swsum"]
        # attraction: Σ w·(p_v − p_u); outbound distribution divides by deg+1
        ax = self.state["_ax"] - sw * fx
        ay = self.state["_ay"] - sw * fy
        if outbound_attr:
            ax = ax / deg1
            ay = ay / deg1
        # repulsion vs non-empty cell centroids: k_r·(deg_u+1)·Σ_c m_c·d/|d|²
        # chunked over owned rows so the (rows × cells) temp stays bounded
        nz = cell_mass > 0
        m = cell_mass[nz]
        cx = cell_cx[nz] / m
        cy = cell_cy[nz] / m
        rx = np.zeros(self.n_owned)
        ry = np.zeros(self.n_owned)
        step = max(1, 16_000_000 // max(len(m), 1))
        for lo in range(0, self.n_owned, step):
            hi = min(lo + step, self.n_owned)
            dx = fx[lo:hi, None] - cx[None, :]
            dy = fy[lo:hi, None] - cy[None, :]
            coef = m[None, :] / (dx * dx + dy * dy + 1e-9)
            rx[lo:hi] = (dx * coef).sum(axis=1)
            ry[lo:hi] = (dy * coef).sum(axis=1)
        rx *= scaling_ratio * deg1
        ry *= scaling_ratio * deg1
        # gravity toward the origin
        dist = np.sqrt(fx * fx + fy * fy) + 1e-9
        gcoef = gravity * deg1 * (1.0 if strong_gravity else 1.0 / dist)
        gx = -gcoef * fx
        gy = -gcoef * fy
        Fx = ax + rx + gx
        Fy = ay + ry + gy
        nfx = fx + speed * Fx / deg1
        nfy = fy + speed * Fy / deg1
        disp = float(np.sqrt((nfx - fx) ** 2 + (nfy - fy) ** 2).sum())
        self.state["fx"], self.state["fy"] = nfx, nfy
        if self.n_owned:
            bounds = (float(nfx.min()), float(nfx.max()),
                      float(nfy.min()), float(nfy.max()))
        else:
            bounds = (np.inf, -np.inf, np.inf, -np.inf)
        return disp, bounds

    def block_gram(self, names_a, names_b=None):
        """Partial Gram matrix [state[i]·state[j]] (len(a)×len(b)) over
        owned rows — the driver sums these k×k partials across workers."""
        names_b = names_a if names_b is None else names_b
        A = np.stack([self.state[n] for n in names_a])
        B = np.stack([self.state[n] for n in names_b])
        return A @ B.T

    def block_transform(self, names, C):
        """[state[n] for n in names] ← Yᵀ C columnwise: the local rows of
        Y @ C (C is k×k from the driver — Cholesky inverse etc.)."""
        Y = np.stack([self.state[n] for n in names], axis=1)
        Z = Y @ np.asarray(C, dtype=np.float64)
        for j, n in enumerate(names):
            self.state[n] = np.ascontiguousarray(Z[:, j])
        return True

    def register_requests(self, request_lists):
        """Store, per requesting worker, which owned vids it needs (the
        dst-side property exchange setup; ids arrive sorted)."""
        self._serve_pos = []
        for ids in request_lists:
            ids = np.asarray(ids, dtype=np.int64)
            self._serve_pos.append(np.searchsorted(self.owned, ids))
        return True

    def needed_dst_ids(self):
        """This worker's dst ids split by owner (route order)."""
        return [self.dst_unique[self.route[q]] for q in range(self.W)]

    def serve_dst_values(self, name: str):
        """Values of state[name] for each requester's registered ids.
        Called with ``num_returns=W``; at W==1 Ray does NOT unpack a
        returned 1-list (the single ref would point at the list itself),
        so the lone payload is returned bare — ``ref_list`` on the caller
        side restores the uniform served[p][q] indexing."""
        x = self.state[name]
        out = [x[pos] for pos in self._serve_pos]
        return out[0] if self.W == 1 else out

    def apply_dst_values(self, name: str, value_refs):
        """Install served dst values into a dense per-dst_unique array
        (dtype follows the served state — int64/bool survive the trip)."""
        vals = ray.get(list(value_refs))
        dtype = next((v.dtype for v in vals if hasattr(v, "dtype")), np.float64)
        full = np.zeros(len(self.dst_unique), dtype=dtype)
        for q in range(self.W):
            full[self.route[q]] = vals[q]
        self._dst_vals = {**getattr(self, "_dst_vals", {}), name: full}
        return True

    def out_accumulate(self, name_out: str, dst_name: str):
        """state[name_out][u] = Σ_{(u,v)∈E} w·dstvals[v] — local spmv with
        fetched dst properties (the HITS hub step)."""
        self._require_unsplit("hits")
        dv = self._dst_vals[dst_name]
        # bincount == add.at bit-exactly (same per-bin accumulation order),
        # measurably faster on the per-iteration path
        acc = np.bincount(
            self.src_local, weights=self.w * dv[self.dst_inverse],
            minlength=self.n_owned,
        )
        old = self.state.get(name_out)
        l1 = float(np.abs(acc - old).sum()) if old is not None else float("inf")
        self.state[name_out] = acc
        return {"l1": l1, "local_sum": float(acc.sum()),
                "local_sq": float((acc * acc).sum())}

    # -- WCC: min-label propagation to fixpoint ---------------------------
    # semantics: cpp/src/components/legacy/weak_cc.cuh:60-130 (atomicMin
    # fixpoint); output contract components/connectivity.py:152-159
    def cc_init(self):
        self.state["labels"] = self.owned.copy()
        self.state["active"] = np.ones(self.n_owned, dtype=bool)

    def cc_scatter(self):
        labels = self._src_vec("labels")
        emask = self._src_vec("active")[self.src_local]
        nmsg = len(self.dst_unique)
        best = np.full(nmsg, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, self.dst_inverse[emask], labels[self.src_local[emask]])
        live = best != np.iinfo(np.int64).max
        out = []
        rows_out = bytes_out = 0
        for q in range(self.W):
            idx = self.route[q]
            sel = idx[live[idx]]
            m = (self.dst_unique[sel], best[sel])
            rows_out += len(sel)
            bytes_out += m[0].nbytes + m[1].nbytes
            out.append(m)
        return out, {"rows_out": rows_out, "bytes_out": bytes_out}

    def cc_update(self, msg_refs):
        all_msgs = ray.get(list(msg_refs))
        labels = self.state["labels"]
        incoming = np.full(self.n_owned, np.iinfo(np.int64).max, dtype=np.int64)
        rows_in = 0
        for msgs in all_msgs:
            vids, best = self._take_mine(msgs)
            # frontier messages are sparse subsets → positions not cached
            idx = np.searchsorted(self.owned, vids)
            incoming[idx] = np.minimum(incoming[idx], best)
            rows_in += len(vids)
        new = np.minimum(labels, incoming)
        changed = new != labels
        self.state["labels"] = new
        self.state["active"] = changed
        return {"changed": int(changed.sum()), "rows_in": rows_in}

    # -- BFS / SSSP: frontier relaxation ---------------------------------
    # transform_reduce_v_frontier_outgoing_e_by_dst.cuh + update_v_frontier
    # semantics; BFS packs (dist << 32 | predecessor) so one int64 min gives
    # min-dist with min-predecessor tie-break (deterministic output).
    _UNREACHED = np.iinfo(np.int64).max

    def bfs_init(self, sources):
        # (dist << vbits | pred) in one int64 so a single min gives
        # min-dist with min-predecessor tie-break.  vbits grows with V
        # (32 below 2^32 — the historical layout), leaving 63 - vbits
        # bits of distance headroom: at V = 2^40 that is 8.4M hops, far
        # past any graph diameter; the pack itself guards the bound.
        if self._vbits > 56:
            raise NotImplementedError(
                "BFS packed distances need V < 2^56 (dist headroom)"
            )
        packed = np.full(self.n_owned, self._UNREACHED, dtype=np.int64)
        active = np.zeros(self.n_owned, dtype=bool)
        srcs = np.asarray(sources, dtype=np.int64)
        mine = srcs[self.part2worker[part_of_vertex(srcs, self.P)] == self.wid]
        idx = np.searchsorted(self.owned, mine)
        packed[idx] = (np.int64(0) << np.int64(self._vbits)) | mine  # dist 0
        active[idx] = True
        self.state["bfs"] = packed
        self.state["active"] = active

    def bfs_scatter(self):
        packed = self._src_vec("bfs")
        emask = self._src_vec("active")[self.src_local]
        nmsg = len(self.dst_unique)
        best = np.full(nmsg, self._UNREACHED, dtype=np.int64)
        if emask.any():
            sl = self.src_local[emask]
            vb = np.int64(self._vbits)
            dist = packed[sl] >> vb
            if int(dist.max()) + 1 >= (1 << (63 - self._vbits)):
                raise OverflowError("BFS distance exceeds packing headroom")
            cand = ((dist + 1) << vb) | self.src[emask]
            np.minimum.at(best, self.dst_inverse[emask], cand)
        live = best != self._UNREACHED
        out = []
        rows_out = bytes_out = 0
        for q in range(self.W):
            idx = self.route[q]
            sel = idx[live[idx]]
            m = (self.dst_unique[sel], best[sel])
            rows_out += len(sel)
            bytes_out += m[0].nbytes + m[1].nbytes
            out.append(m)
        return out, {"rows_out": rows_out, "bytes_out": bytes_out}

    def bfs_update(self, msg_refs):
        all_msgs = ray.get(list(msg_refs))
        packed = self.state["bfs"]
        incoming = np.full(self.n_owned, self._UNREACHED, dtype=np.int64)
        rows_in = 0
        for msgs in all_msgs:
            vids, best = self._take_mine(msgs)
            idx = np.searchsorted(self.owned, vids)
            incoming[idx] = np.minimum(incoming[idx], best)
            rows_in += len(vids)
        new = np.minimum(packed, incoming)
        changed = new != packed
        self.state["bfs"] = new
        self.state["active"] = changed
        return {"changed": int(changed.sum()), "rows_in": rows_in}

    def bfs_result(self):
        packed = self.state["bfs"]
        reached = packed != self._UNREACHED
        dist = np.where(reached, packed >> np.int64(self._vbits), -1)
        pred = np.where(reached, packed & self._vmask, -1)
        # source vertices report predecessor -1 (cuGraph convention)
        srcmask = reached & (dist == 0)
        pred[srcmask] = -1
        self.state["distance"] = dist
        self.state["predecessor"] = pred
        return True

    def sssp_init(self, sources):
        dist = np.full(self.n_owned, np.inf)
        pred = np.full(self.n_owned, -1, dtype=np.int64)
        active = np.zeros(self.n_owned, dtype=bool)
        srcs = np.asarray(sources, dtype=np.int64)
        mine = srcs[self.part2worker[part_of_vertex(srcs, self.P)] == self.wid]
        idx = np.searchsorted(self.owned, mine)
        dist[idx] = 0.0
        active[idx] = True
        self.state["dist"] = dist
        self.state["pred"] = pred
        self.state["active"] = active

    def sssp_scatter(self):
        dist = self._src_vec("dist")
        emask = self._src_vec("active")[self.src_local]
        out = []
        rows_out = bytes_out = 0
        if emask.any():
            sl = self.src_local[emask]
            nd = dist[sl] + self.w[emask]
            di = self.dst_inverse[emask]
            # per-dst min (dist, src) — lexsort keeps min src among equal dists
            order = np.lexsort((self.src[emask], nd, di))
            di_s = di[order]
            first = np.ones(len(di_s), dtype=bool)
            first[1:] = di_s[1:] != di_s[:-1]
            di_f = di_s[first]
            nd_f = nd[order][first]
            pr_f = self.src[emask][order][first]
            ow = self.part2worker[part_of_vertex(self.dst_unique[di_f], self.P)]
            for q in range(self.W):
                sel = np.flatnonzero(ow == q)
                m = (self.dst_unique[di_f[sel]], nd_f[sel], pr_f[sel])
                rows_out += len(sel)
                bytes_out += sum(x.nbytes for x in m)
                out.append(m)
        else:
            e = np.empty(0, np.int64)
            for q in range(self.W):
                out.append((e, np.empty(0), e))
        return out, {"rows_out": rows_out, "bytes_out": bytes_out}

    def sssp_update(self, msg_refs):
        all_msgs = ray.get(list(msg_refs))
        dist = self.state["dist"]
        pred = self.state["pred"]
        rows_in = 0
        best_d = np.full(self.n_owned, np.inf)
        best_p = np.full(self.n_owned, -1, dtype=np.int64)
        for msgs in all_msgs:
            vids, nds, prs = self._take_mine(msgs)
            if not len(vids):
                continue
            idx = np.searchsorted(self.owned, vids)
            rows_in += len(vids)
            better = (nds < best_d[idx]) | (
                (nds == best_d[idx]) & (prs < best_p[idx])
            )
            bi = idx[better]
            best_d[bi] = nds[better]
            best_p[bi] = prs[better]
        improved = best_d < dist
        dist[improved] = best_d[improved]
        pred[improved] = best_p[improved]
        self.state["active"] = improved
        return {"changed": int(improved.sum()), "rows_in": rows_in}

    # -- Label propagation (sync, weighted-majority, min-label ties) ------
    # contract: SURVEY.md §2.4 (absent in reference; kin weak_cc.cuh:60-130
    # and Louvain's assign step louvain_impl.cuh:119-139)
    def lpa_init(self):
        self.state["labels"] = self.owned.copy()

    def lpa_scatter(self):
        labels = self._src_vec("labels")
        lab_e = labels[self.src_local]
        # combine per (dst, label): packed composite key below 2^32
        # labels, two-pass lexsort (hashing.group_pairs wide) above
        di, lab, wsum = group_pairs(
            self.dst_inverse, lab_e, weights=self.w, wide=self.wide
        )
        ow = self.part2worker[part_of_vertex(self.dst_unique[di], self.P)]
        out = []
        rows_out = bytes_out = 0
        for q in range(self.W):
            sel = np.flatnonzero(ow == q)
            m = (self.dst_unique[di[sel]], lab[sel], wsum[sel])
            rows_out += len(sel)
            bytes_out += m[0].nbytes + m[1].nbytes + m[2].nbytes
            out.append(m)
        return out, {"rows_out": rows_out, "bytes_out": bytes_out}

    def lpa_update(self, msg_refs):
        all_msgs = ray.get(list(msg_refs))
        mine = [self._take_mine(m) for m in all_msgs]
        vids = np.concatenate([m[0] for m in mine]) if mine else np.empty(0, np.int64)
        labs = np.concatenate([m[1] for m in mine]) if mine else np.empty(0, np.int64)
        ws = np.concatenate([m[2] for m in mine]) if mine else np.empty(0)
        labels = self.state["labels"]
        rows_in = len(vids)
        if rows_in:
            idx = np.searchsorted(self.owned, vids)
            vi, lab, wsum = group_pairs(idx, labs, weights=ws, wide=self.wide)
            # per vertex: argmax weight, ties -> min label. group_pairs
            # returns (vi, lab) lexicographically sorted, so within a
            # vertex labels ascend; lexsort by (vi, -wsum) stable keeps
            # min label first among equal weights.
            order = np.lexsort((lab, -wsum, vi))
            vi_s, lab_s = vi[order], lab[order]
            first = np.ones(len(vi_s), dtype=bool)
            first[1:] = vi_s[1:] != vi_s[:-1]
            winner_v = vi_s[first]
            winner_l = lab_s[first]
            new = labels.copy()
            new[winner_v] = winner_l
        else:
            new = labels
        changed = int((new != labels).sum())
        self.state["labels"] = new
        return {"changed": changed, "rows_in": rows_in}


    # -- SCC: forward-backward coloring with trim -------------------------
    # semantics: cpp/src/components/legacy/connectivity.cu (exported as
    # pylibcugraph strongly_connected_components); realized here as the
    # label-coloring FW-BW scheme (Slota et al. style): trim singleton
    # sources/sinks, forward min-color fixpoint within the active subgraph,
    # backward root-mark fixpoint via the dst-property fetch, assign, repeat.
    def scc_init(self):
        self._require_unsplit("scc")
        # colors are vertex ids: the backward-sweep pack places the mark /
        # active flags ABOVE the color's bit width (bits 33/34 below 2^32
        # vertices — the historical layout — shifting up with V).
        self._scc_bits = max(33, self._vbits + 1)
        if self._scc_bits + 2 > 63:
            raise NotImplementedError(
                "SCC flag packing needs V < 2^61"
            )
        self.state["scc"] = np.full(self.n_owned, -1, dtype=np.int64)
        self.state["scc_active"] = np.ones(self.n_owned, dtype=bool)

    def scc_trim_scatter(self):
        """Partial in-degrees of the active subgraph (active-src edges per
        dst; dst-activeness filtered receiver-side)."""
        act = self.state["scc_active"]
        emask = act[self.src_local]
        cnt = np.bincount(self.dst_inverse[emask], minlength=len(self.dst_unique))
        live = cnt > 0
        out = []
        rows_out = bytes_out = 0
        for q in range(self.W):
            idx = self.route[q]
            sel = idx[live[idx]]
            m = (self.dst_unique[sel], cnt[sel])
            rows_out += len(sel)
            bytes_out += m[0].nbytes + m[1].nbytes
            out.append(m)
        return out, {"rows_out": rows_out, "bytes_out": bytes_out}

    def scc_trim_update(self, msg_refs):
        all_msgs = ray.get(list(msg_refs))
        indeg = np.zeros(self.n_owned, dtype=np.int64)
        rows_in = 0
        for msgs in all_msgs:
            vids, c = self._take_mine(msgs)
            idx = np.searchsorted(self.owned, vids)
            indeg[idx] += c
            rows_in += len(vids)
        self.state["scc_indeg"] = indeg
        return {"rows_in": rows_in}

    def scc_outdeg_apply(self):
        """Out-degree within the active subgraph — needs the dst
        'scc_active' flags installed via apply_dst_values first."""
        ad = self._dst_vals["scc_active"]
        act = self.state["scc_active"]
        emask = act[self.src_local] & ad[self.dst_inverse].astype(bool)
        self.state["scc_outdeg"] = np.bincount(
            self.src_local[emask], minlength=self.n_owned
        )
        return True

    def scc_trim_apply(self):
        """Active vertices with zero active in- or out-degree are singleton
        SCCs — assign and deactivate (FW-BW-Trim)."""
        act = self.state["scc_active"]
        trim = act & (
            (self.state["scc_indeg"] == 0) | (self.state["scc_outdeg"] == 0)
        )
        self.state["scc"][trim] = self.owned[trim]
        act[trim] = False
        return {"trimmed": int(trim.sum()), "active": int(act.sum())}

    def scc_color_init(self):
        self.state["scc_color"] = self.owned.copy()
        self.state["scc_frontier"] = self.state["scc_active"].copy()

    def scc_color_scatter(self):
        color = self.state["scc_color"]
        emask = self.state["scc_frontier"][self.src_local]
        nmsg = len(self.dst_unique)
        best = np.full(nmsg, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, self.dst_inverse[emask], color[self.src_local[emask]])
        live = best != np.iinfo(np.int64).max
        out = []
        rows_out = bytes_out = 0
        for q in range(self.W):
            idx = self.route[q]
            sel = idx[live[idx]]
            m = (self.dst_unique[sel], best[sel])
            rows_out += len(sel)
            bytes_out += m[0].nbytes + m[1].nbytes
            out.append(m)
        return out, {"rows_out": rows_out, "bytes_out": bytes_out}

    def scc_color_update(self, msg_refs):
        all_msgs = ray.get(list(msg_refs))
        act = self.state["scc_active"]
        color = self.state["scc_color"]
        incoming = np.full(self.n_owned, np.iinfo(np.int64).max, dtype=np.int64)
        rows_in = 0
        for msgs in all_msgs:
            vids, best = self._take_mine(msgs)
            idx = np.searchsorted(self.owned, vids)
            incoming[idx] = np.minimum(incoming[idx], best)
            rows_in += len(vids)
        new = np.where(act, np.minimum(color, incoming), color)
        changed = new != color
        self.state["scc_color"] = new
        # only still-active vertices re-emit (and senders mask by frontier,
        # so colors never conduct through assigned vertices)
        self.state["scc_frontier"] = changed & act
        return {"changed": int((changed & act).sum()), "rows_in": rows_in}

    def _scc_pack(self):
        """low bits color, then mark and active flags (bits 33/34 below
        2^32 vertices, higher for wide graphs) — one int64 per dst to
        fetch instead of three."""
        sb = np.int64(self._scc_bits)
        self.state["scc_bw"] = (
            self.state["scc_color"]
            | (self.state["scc_mark"].astype(np.int64) << sb)
            | (self.state["scc_active"].astype(np.int64) << (sb + np.int64(1)))
        )

    def scc_mark_init(self):
        act = self.state["scc_active"]
        self.state["scc_mark"] = act & (self.state["scc_color"] == self.owned)
        self._scc_pack()
        return int(self.state["scc_mark"].sum())

    def scc_mark_round(self):
        """One backward step: u becomes marked if some out-edge (u→w) has w
        active+marked with color[w]==color[u].  Needs 'scc_bw' dst values
        installed via apply_dst_values first."""
        bw = self._dst_vals["scc_bw"]
        sb = np.int64(self._scc_bits)
        color_d = bw & np.int64((1 << self._scc_bits) - 1)
        mark_d = (bw >> sb) & np.int64(1)
        act_d = (bw >> (sb + np.int64(1))) & np.int64(1)
        act = self.state["scc_active"]
        color = self.state["scc_color"]
        mark = self.state["scc_mark"]
        di = self.dst_inverse
        e_ok = (
            act[self.src_local]
            & (act_d[di] == 1)
            & (mark_d[di] == 1)
            & (color_d[di] == color[self.src_local])
        )
        upd = np.zeros(self.n_owned, dtype=bool)
        upd[self.src_local[e_ok]] = True
        newm = mark | (upd & act)
        changed = int((newm & ~mark).sum())
        self.state["scc_mark"] = newm
        self._scc_pack()
        return {"changed": changed}

    def scc_assign(self):
        act = self.state["scc_active"]
        sel = act & self.state["scc_mark"]
        self.state["scc"][sel] = self.state["scc_color"][sel]
        act[sel] = False
        return {"assigned": int(sel.sum()), "active": int(act.sum())}

    # -- betweenness centrality: sampled Brandes --------------------------
    # semantics: cpp/src/centrality/betweenness_centrality.cu — per sampled
    # source, a BFS forward pass accumulating shortest-path counts (sigma),
    # then a reverse-level sweep accumulating dependencies (delta) along
    # the BFS DAG.  The reverse sweep's dst-side (dist, sigma, delta)
    # values come through the dst-property fetch; dist/sigma are fetched
    # once per source, delta once per reverse level.
    def bc_init(self):
        self._require_unsplit("betweenness_centrality")
        self.state["bc"] = np.zeros(self.n_owned)

    def bc_source_init(self, source: int):
        dist = np.full(self.n_owned, -1, dtype=np.int64)
        sigma = np.zeros(self.n_owned)
        frontier = np.zeros(self.n_owned, dtype=bool)
        if self.part2worker[part_of_vertex(np.array([source]), self.P)][0] == self.wid:
            i = int(np.searchsorted(self.owned, source))
            dist[i] = 0
            sigma[i] = 1.0
            frontier[i] = True
        self.state["bc_dist"] = dist
        self.state["bc_sigma"] = sigma
        self.state["bc_frontier"] = frontier

    def bc_forward_scatter(self):
        """Emit per-dst sigma partials from the current frontier."""
        emask = self.state["bc_frontier"][self.src_local]
        sig = np.bincount(
            self.dst_inverse[emask],
            weights=self.state["bc_sigma"][self.src_local[emask]],
            minlength=len(self.dst_unique),
        )
        live = sig > 0
        out = []
        rows_out = bytes_out = 0
        for q in range(self.W):
            idx = self.route[q]
            sel = idx[live[idx]]
            m = (self.dst_unique[sel], sig[sel])
            rows_out += len(sel)
            bytes_out += m[0].nbytes + m[1].nbytes
            out.append(m)
        return out, {"rows_out": rows_out, "bytes_out": bytes_out}

    def bc_forward_update(self, level: int, msg_refs):
        """Vertices still unreached get dist=level, sigma=Σ partials."""
        all_msgs = ray.get(list(msg_refs))
        dist = self.state["bc_dist"]
        sigma = self.state["bc_sigma"]
        inc = np.zeros(self.n_owned)
        rows_in = 0
        for msgs in all_msgs:
            vids, sig = self._take_mine(msgs)
            idx = np.searchsorted(self.owned, vids)
            inc[idx] += sig
            rows_in += len(vids)
        newly = (dist == -1) & (inc > 0)
        dist[newly] = level
        sigma[newly] = inc[newly]
        self.state["bc_frontier"] = newly
        return {"changed": int(newly.sum()), "rows_in": rows_in}

    def bc_backward_init(self):
        """Reset delta; report local max distance (for the level count).
        Requires 'bc_dist'/'bc_sigma' dst values fetched beforehand."""
        self.state["bc_delta"] = np.zeros(self.n_owned)
        d = self.state["bc_dist"]
        return int(d.max()) if len(d) else -1

    def bc_backward_level(self, level: int, edge_acc: bool = False):
        """delta[src] += sigma[src]/sigma[dst]·(1+delta[dst]) over DAG
        edges src@level-1 → dst@level.  Needs the 'bc_delta' dst fetch for
        this level (plus the static dist/sigma fetches).  With ``edge_acc``
        the per-edge contribution is also accumulated into the resident
        per-edge 'ebc' state (edge betweenness,
        ``accumulate_edges_betweenness`` in betweenness_centrality.cu)."""
        dist_d = self._dst_vals["bc_dist"]
        sigma_d = self._dst_vals["bc_sigma"]
        delta_d = self._dst_vals["bc_delta"]
        dist = self.state["bc_dist"]
        sigma = self.state["bc_sigma"]
        delta = self.state["bc_delta"]
        di = self.dst_inverse
        sl = self.src_local
        e_ok = (dist[sl] == level - 1) & (dist_d[di] == level)
        if e_ok.any():
            contrib = (
                sigma[sl[e_ok]] / sigma_d[di[e_ok]]
                * (1.0 + delta_d[di[e_ok]])
            )
            if edge_acc:
                self.state["ebc"][e_ok] += contrib
            delta += np.bincount(sl[e_ok], weights=contrib,
                                 minlength=len(delta))
        return True

    def ebc_init(self):
        """Per-edge betweenness accumulator (one slot per resident edge)."""
        self._require_unsplit("edge_betweenness_centrality")
        self.state["ebc"] = np.zeros(len(self.src_local))

    # -- multi-source concurrent BFS --------------------------------------
    # contract: python/cugraph/cugraph/traversal/ms_bfs.py multi_source_bfs
    # (per-source ``distance_<source>`` columns).  The reference ships only
    # the feasibility estimator for this API, so the concurrent engine here
    # is original: frontier membership for ≤64 sources is bit-packed into
    # ONE uint64 per vertex, exchanged with per-dst OR-reduce partials — a
    # whole wave of sources costs the same message volume as one BFS.
    def msbfs_init(self, sources):
        self._require_unsplit("multi_source_bfs")
        S = len(sources)
        assert 0 < S <= 64, "one wave is at most 64 bit-packed sources"
        self._msbfs_sources = [int(s) for s in sources]
        self._msbfs_level = 0
        dist = np.full((self.n_owned, S), -1, dtype=np.int64)
        vis = np.zeros(self.n_owned, dtype=np.uint64)
        for i, s in enumerate(self._msbfs_sources):
            owner = self.part2worker[part_of_vertex(np.array([s]), self.P)][0]
            if owner == self.wid:
                j = int(np.searchsorted(self.owned, s))
                vis[j] |= np.uint64(1) << np.uint64(i)
                dist[j, i] = 0
        self.state["msbfs_dist"] = dist
        self.state["msbfs_vis"] = vis
        self.state["msbfs_frontier"] = vis.copy()

    def msbfs_scatter(self):
        bits = self.state["msbfs_frontier"]
        emask = bits[self.src_local] != 0
        acc = np.zeros(len(self.dst_unique), dtype=np.uint64)
        np.bitwise_or.at(
            acc, self.dst_inverse[emask], bits[self.src_local[emask]]
        )
        live = acc != 0
        out = []
        rows_out = bytes_out = 0
        for q in range(self.W):
            idx = self.route[q]
            sel = idx[live[idx]]
            m = (self.dst_unique[sel], acc[sel])
            rows_out += len(sel)
            bytes_out += m[0].nbytes + m[1].nbytes
            out.append(m)
        return out, {"rows_out": rows_out, "bytes_out": bytes_out}

    def msbfs_update(self, msg_refs):
        all_msgs = ray.get(list(msg_refs))
        self._msbfs_level += 1
        inc = np.zeros(self.n_owned, dtype=np.uint64)
        rows_in = 0
        for msgs in all_msgs:
            vids, bits = self._take_mine(msgs)
            idx = np.searchsorted(self.owned, vids)
            np.bitwise_or.at(inc, idx, bits)
            rows_in += len(vids)
        vis = self.state["msbfs_vis"]
        newly = inc & ~vis
        dist = self.state["msbfs_dist"]
        for i in range(dist.shape[1]):
            hit = (newly >> np.uint64(i)) & np.uint64(1)
            dist[hit.astype(bool), i] = self._msbfs_level
        self.state["msbfs_vis"] = vis | newly
        self.state["msbfs_frontier"] = newly
        return {"changed": int(np.count_nonzero(newly)), "rows_in": rows_in}

    # -- triangle counting: resident-adjacency intersection ---------------
    # semantics: cpp/src/community/triangle_count_impl.cuh via
    # transform_reduce_dst_nbr_intersection_of_e_endpoints_by_v.cuh — each
    # oriented edge (u,v) contributes |N+(u) ∩ N+(v)| triangles, counted
    # in-task against resident adjacency.  No wedge row ever crosses the
    # network: each worker fetches the oriented adjacency of its distinct
    # dst's ONCE (Σ d_out per worker, vs Σ d_out² shuffled wedge rows).
    def tri_init(self):
        self._require_unsplit("triangle_count")
        # local out-degree (undirected graph: every incident edge of an
        # owned vertex is resident as a src row) — any consistent total
        # order works for orientation; degree order bounds d_out at O(√E)
        self.state["odeg"] = np.bincount(
            self.src_local, minlength=self.n_owned
        ).astype(np.int64)
        self.state["tri"] = np.zeros(self.n_owned, dtype=np.int64)

    def tri_orient(self):
        """After the 'odeg' dst fetch: keep low→high (deg, id) oriented
        edges, build the local CSR, return needed dst ids per owner."""
        d_src = self.state["odeg"][self.src_local]
        d_dst = self._dst_vals["odeg"][self.dst_inverse]
        src_g = self.owned[self.src_local]
        dst_g = self.dst_unique[self.dst_inverse]
        keep = (src_g != dst_g) & (
            (d_src < d_dst) | ((d_src == d_dst) & (src_g < dst_g))
        )
        s, t = src_g[keep], dst_g[keep]
        order = np.lexsort((t, s))
        self._tri_src = s[order]
        self._tri_dst = t[order]
        need = np.unique(self._tri_dst)
        owner = self.part2worker[part_of_vertex(need, self.P)]
        return [need[owner == q] for q in range(self.W)]

    def tri_serve(self, ids):
        """Oriented adjacency slices for requested owned ids:
        (counts, flat) aligned with the request order."""
        ids = np.asarray(ids, dtype=np.int64)
        starts = np.searchsorted(self._tri_src, ids)
        ends = np.searchsorted(self._tri_src, ids, side="right")
        counts = ends - starts
        tot = int(counts.sum())
        base = np.repeat(starts, counts)
        local = np.arange(tot) - np.repeat(np.cumsum(counts) - counts, counts)
        return counts, self._tri_dst[base + local]

    def tri_apply_adj(self, ids_per_sender, served_refs):
        """Install fetched adjacency as (sorted ids, offsets, flat)."""
        served = ray.get(list(served_refs))
        ids = np.concatenate(ids_per_sender) if ids_per_sender else np.array([], np.int64)
        counts = np.concatenate([s[0] for s in served]) if served else np.array([], np.int64)
        flat = np.concatenate([s[1] for s in served]) if served else np.array([], np.int64)
        order = np.argsort(ids, kind="stable")
        self._adj_ids = ids[order]
        cnt = counts[order]
        self._adj_off = np.concatenate(([0], np.cumsum(cnt)))
        # permute flat blocks into the sorted-id order (ranges trick)
        tot = int(cnt.sum())
        starts_old = np.concatenate(([0], np.cumsum(counts)))[:-1][order]
        base = np.repeat(starts_old, cnt)
        local = np.arange(tot) - np.repeat(self._adj_off[:-1], cnt)
        self._adj_flat = flat[base + local]
        if self.wide:
            # rank-compress vertex ids through the fetched-adjacency
            # vocabulary so the (slice, vid) composite key fits int64 for
            # any V: key = slice * (|vocab|+1) + rank.  Candidates outside
            # the vocabulary get the sentinel rank |vocab| (never present).
            self._adj_vocab = np.unique(self._adj_flat)
            self._adj_rank = np.searchsorted(self._adj_vocab, self._adj_flat)
        return True

    def tri_count(self, chunk_candidates: int = 8_000_000):
        """Intersect each local oriented edge's src adjacency with its
        dst's fetched adjacency (composite-key searchsorted, chunked to
        bound the in-flight candidate array).  Returns per-owner partial
        (vid, count) messages for remote corners; owned corners are
        accumulated directly into state['tri']."""
        import sys as _sys
        import time as _time
        _t0 = _time.perf_counter()
        E = len(self._tri_src)
        tri = self.state["tri"]
        V = np.int64(self.V)
        # per-edge src block bounds (blocks are contiguous: sorted by src)
        blk_start = np.searchsorted(self._tri_src, self._tri_src)
        blk_end = np.searchsorted(self._tri_src, self._tri_src, side="right")
        d = blk_end - blk_start
        # fetched-adjacency slice per edge dst
        vidx = np.searchsorted(self._adj_ids, self._tri_dst)
        # composite-sorted key array over the fetched adjacency
        _t1 = _time.perf_counter()
        adj_slice = np.repeat(
            np.arange(len(self._adj_ids), dtype=np.int64),
            np.diff(self._adj_off),
        )
        if self.wide:
            K = np.int64(len(self._adj_vocab) + 1)
            if len(self._adj_ids) * int(K) >= 2 ** 63:
                raise OverflowError("triangle rank key exceeds int64")
            adj_key = adj_slice * K + self._adj_rank
        else:
            adj_key = adj_slice * V + self._adj_flat
        _t2 = _time.perf_counter()
        remote_v, remote_c = [], []
        pos0 = 0
        while pos0 < E:
            # take edges until the candidate budget is filled
            csum = np.cumsum(d[pos0:])
            take = int(np.searchsorted(csum, chunk_candidates) + 1)
            pos1 = min(pos0 + take, E)
            dd = d[pos0:pos1]
            tot = int(dd.sum())
            if tot == 0:
                pos0 = pos1
                continue
            eidx = np.repeat(np.arange(pos0, pos1, dtype=np.int64), dd)
            base = np.repeat(blk_start[pos0:pos1], dd)
            local = np.arange(tot) - np.repeat(
                np.cumsum(dd) - dd, dd
            )
            cand_a = self._tri_dst[base + local]
            if self.wide:
                nv = len(self._adj_vocab)
                if nv:
                    r = np.searchsorted(self._adj_vocab, cand_a)
                    safe = np.minimum(r, nv - 1)
                    rank = np.where(
                        (r < nv) & (self._adj_vocab[safe] == cand_a), r, nv
                    )
                else:  # empty adjacency: every membership test misses
                    rank = np.zeros(len(cand_a), dtype=np.int64)
                cand_key = vidx[eidx] * K + rank
            else:
                cand_key = vidx[eidx] * V + cand_a
            p = np.searchsorted(adj_key, cand_key)
            ok = p < len(adj_key)
            ok[ok] = adj_key[p[ok]] == cand_key[ok]
            # corner counts: w = cand_a; u,v = edge endpoints, m per edge
            m = np.bincount(eidx[ok] - pos0, minlength=pos1 - pos0)
            w_v = cand_a[ok]
            u_loc = np.searchsorted(self.owned, self._tri_src[pos0:pos1])
            np.add.at(tri, u_loc, m)
            # v and w corners may be remote — collect (vid, count) partials
            remote_v.append(np.concatenate([self._tri_dst[pos0:pos1], w_v]))
            remote_c.append(np.concatenate([m, np.ones(len(w_v), np.int64)]))
            pos0 = pos1
        _t3 = _time.perf_counter()
        if remote_v:
            rv = np.concatenate(remote_v)
            rc = np.concatenate(remote_c)
            uv, inv = np.unique(rv, return_inverse=True)
            uc = np.bincount(inv, weights=rc).astype(np.int64)
            nz = uc > 0
            uv, uc = uv[nz], uc[nz]
        else:
            uv = np.array([], np.int64)
            uc = np.array([], np.int64)
        owner = self.part2worker[part_of_vertex(uv, self.P)]
        # num_returns=W per-owner slices: partials travel worker→store→
        # worker as refs, never materializing on the driver (the packed
        # return added ~2× the corner-message bytes to the driver's wire)
        out = [(uv[owner == q], uc[owner == q]) for q in range(self.W)]
        if self.W == 1:
            out = out[0]  # bare payload at W==1 (see serve_dst_values)
        if os.environ.get("RAYGRAPH_TRI_DEBUG"):
            print(
                f"TRIW worker E={E} cand={int(d.sum())} "
                f"adjA={len(adj_key)} "
                f"setup={_t1 - _t0:.2f} key={_t2 - _t1:.2f} "
                f"loop={_t3 - _t2:.2f} tail={_time.perf_counter() - _t3:.2f} "
                f"sec={_time.perf_counter() - _t0:.2f}",
                file=_sys.stderr,
            )
        return out

    def tri_collect(self, *partials):
        """Fold per-owner (vid, count) partials into state['tri'].

        Called with one top-level ObjectRef argument per sender (Ray
        dereferences top-level args), so each receiver pulls only its own
        slice from the object store."""
        tri = self.state["tri"]
        for vids, cnts in partials:
            if len(vids):
                tri[np.searchsorted(self.owned, vids)] += cnts
        return True

    def msbfs_finalize(self):
        """Split the (n_owned, S) distance matrix into per-source 1D state
        columns (``distance_<source>``) for ``result_dataset``."""
        dist = self.state["msbfs_dist"]
        names = []
        for i, s in enumerate(self._msbfs_sources):
            n = f"distance_{s}"
            self.state[n] = dist[:, i].copy()
            names.append(n)
        return names

    def bc_accumulate(self, source: int):
        """bc += delta for every vertex except the source itself."""
        delta = self.state["bc_delta"]
        add = delta.copy()
        if self.part2worker[part_of_vertex(np.array([source]), self.P)][0] == self.wid:
            add[int(np.searchsorted(self.owned, source))] = 0.0
        self.state["bc"] += add
        return True

    # -- core number: distributed delta-peeling ---------------------------
    # semantics: cpp/src/cores/core_number_impl.cuh — parallel variant of
    # Batagelj–Zaveršnik: peel every vertex with remaining degree ≤ k in
    # synchronized sub-rounds, decrementing surviving neighbors' degrees.
    def core_init(self):
        self._require_unsplit("core_number")
        keep = self.src != self.dst  # self-loops don't count toward cores
        self._core_edge_keep = keep
        deg = np.bincount(self.src_local[keep], minlength=self.n_owned)
        self.state["core_alive"] = np.ones(self.n_owned, dtype=bool)
        self.state["core_deg"] = deg.astype(np.int64)
        self.state["core"] = np.zeros(self.n_owned, dtype=np.int64)
        return True

    def core_min_deg(self):
        alive = self.state["core_alive"]
        if not alive.any():
            return None
        return int(self.state["core_deg"][alive].min())

    def core_peel_scatter(self, k: int):
        """Peel alive vertices with deg ≤ k (core = k), emit per-dst
        decrement counts for their non-self-loop edges."""
        alive = self.state["core_alive"]
        deg = self.state["core_deg"]
        peel = alive & (deg <= k)
        self.state["core"][peel] = k
        alive[peel] = False
        emask = peel[self.src_local] & self._core_edge_keep
        cnt = np.bincount(self.dst_inverse[emask], minlength=len(self.dst_unique))
        live = cnt > 0
        out = []
        rows_out = bytes_out = 0
        for q in range(self.W):
            idx = self.route[q]
            sel = idx[live[idx]]
            m = (self.dst_unique[sel], cnt[sel])
            rows_out += len(sel)
            bytes_out += m[0].nbytes + m[1].nbytes
            out.append(m)
        return out, {"peeled": int(peel.sum()), "rows_out": rows_out,
                     "bytes_out": bytes_out}

    def core_peel_update(self, msg_refs):
        all_msgs = ray.get(list(msg_refs))
        alive = self.state["core_alive"]
        deg = self.state["core_deg"]
        dec = np.zeros(self.n_owned, dtype=np.int64)
        rows_in = 0
        for msgs in all_msgs:
            vids, cnt = self._take_mine(msgs)
            idx = np.searchsorted(self.owned, vids)
            dec[idx] += cnt
            rows_in += len(vids)
        sel = alive & (dec > 0)
        deg[sel] = np.maximum(deg[sel] - dec[sel], 0)
        return {"rows_in": rows_in}

    # -- random walks / node2vec: walker-routing supersteps ---------------
    # semantics: cpp/src/sampling/random_walks_impl.cuh (441) — the
    # reference keeps walker state device-resident and advances all walks
    # one hop per kernel launch; here the adjacency stays resident per
    # worker and only O(active walkers) rows cross the wire per step (the
    # r2 design shuffled the full edge list per hop through hash_join and
    # bounced walker state off the driver — VERDICT r2 finding #1).
    # Draws use the (seed, walker, step) counter stream, so outputs are
    # bit-identical at any worker count / placement.
    def walk_build(self, biased: bool = False):
        """One-time CSR over resident edges, rows sorted by dst (the same
        candidate ordering the draw contract requires).  ``biased`` also
        builds the per-row weight CDF for edge-weight-proportional draws
        (``biased_random_walks``) and rejects negative weights."""
        self._require_unsplit("random_walks")
        order = np.lexsort((self.dst, self.src_local))
        self._walk_dst = self.dst[order]
        self._walk_w = self.w[order]
        counts = np.bincount(self.src_local, minlength=self.n_owned)
        self._walk_indptr = np.zeros(self.n_owned + 1, dtype=np.int64)
        np.cumsum(counts, out=self._walk_indptr[1:])
        if biased:
            if len(self._walk_w) and (self._walk_w < 0).any():
                raise ValueError(
                    "biased_random_walks requires non-negative edge weights"
                )
            # ROW-LOCAL cumsum (prefix resets at each CSR row): the CDF of
            # row v is _walk_wcum[indptr[v]:indptr[v+1]] with base 0, so
            # the draw never rounds through a worker-global float offset —
            # bit-identical at any worker count for ANY weights, not just
            # exactly-summable ones (segmented_cumsum docstring)
            self._walk_wcum = segmented_cumsum(
                self._walk_w, self._walk_indptr)
        return True

    def walk_init(self, walker_ids, starts, seed: int,
                  p: Optional[float] = None, q: Optional[float] = None,
                  biased: bool = False):
        """Install the walkers whose start vertex this worker owns; emit
        their step-0 output rows."""
        ids = np.asarray(walker_ids, dtype=np.int64)
        curs = np.asarray(starts, dtype=np.int64)
        mine = self.part2worker[part_of_vertex(curs, self.P)] == self.wid
        self._wk_id = ids[mine]
        self._wk_cur = curs[mine]
        self._wk_prev = np.full(len(self._wk_id), -1, dtype=np.int64)
        self._walk_seed = seed
        self._walk_p = p
        self._walk_q = q
        self._walk_biased = biased
        self._wk_out = [
            (self._wk_id, np.zeros(len(self._wk_id), np.int32), self._wk_cur)
        ]
        return int(mine.sum())

    def _walk_rows(self):
        """(loc, start, deg) of each resident walker's adjacency row."""
        loc = np.searchsorted(self.owned, self._wk_cur)
        start = self._walk_indptr[loc]
        deg = self._walk_indptr[loc + 1] - start
        return start, deg

    @staticmethod
    def _walk_put(msg):
        """Force a walk message into plasma.  Small actor return values are
        inlined to the driver, and a just-under-threshold message re-ships
        W× through the driver when fanned out to every receiver (~0.2 s per
        step measured at 32 workers); an explicit ray.put keeps the data in
        the local object store and only the ref fans out."""
        return ray.put(msg)

    @staticmethod
    def _walk_get(msg_refs):
        """Resolve the double indirection of _walk_put messages."""
        return ray.get(ray.get(list(msg_refs)))

    def _walk_route(self, ids, prevs, nxt):
        """Pack moved walkers as ONE (ids, prevs, nxt, offsets) tuple sorted
        by receiver — 4 arrays per sender per step instead of 3·W per-pair
        arrays (the per-small-object overhead dominated the step cost)."""
        own = self.part2worker[part_of_vertex(nxt, self.P)]
        order = np.argsort(own, kind="stable")
        offs = np.zeros(self.W + 1, dtype=np.int64)
        np.cumsum(np.bincount(own, minlength=self.W), out=offs[1:])
        return (ids[order], prevs[order], nxt[order], offs)

    def walk_step_scatter(self, step: int):
        """One walk step: draw a neighbor for each resident walker from the
        resident CSR row (uniform, or edge-weight-proportional when the
        walk was initialised ``biased``; sinks stop), record the output
        row, route the walker to owner(next).  Packed-exchange layout
        only."""
        from raygraph.algos.sampling import _seeded_uniform

        start, deg = self._walk_rows()
        alive = deg > 0
        ids = self._wk_id[alive]
        start, deg = start[alive], deg[alive]
        if self._walk_biased and len(ids):
            # weight-proportional draw: inverse-CDF within the row's
            # ROW-LOCAL weight cumsum.  Zero-total rows are sinks.
            cum = self._walk_wcum
            total = cum[start + deg - 1]
            live = total > 0
            ids, start, deg = ids[live], start[live], deg[live]
            total = total[live]
        if len(ids):
            u = _seeded_uniform(self._walk_seed, ids, step)[:, 0]
            if self._walk_biased:
                # Row-local inverse-CDF: first in-row index with
                # cum[i] > u*total, via a vectorized binary search over
                # the ROW-LOCAL prefix sums (segmented_cumsum) — every
                # operand is the same float the per-walker sequential
                # cumsum would produce, so the draw is bit-identical at
                # any worker count / placement for any weights, and
                # SQL-replayable (pipelines._biased_walks_oracle_sql).
                target = u * total
                lo = start - 1                    # cond(lo) is False
                hi = start + deg - 1              # cond(hi) is True
                while True:
                    upd = (hi - lo) > 1
                    if not upd.any():
                        break
                    mid = np.where(upd, (lo + hi) >> 1, hi)
                    c = cum[mid] > target
                    hi = np.where(upd & c, mid, hi)
                    lo = np.where(upd & ~c, mid, lo)
                nxt = self._walk_dst[hi]
            else:
                pick = (u * deg).astype(np.int64) % deg
                nxt = self._walk_dst[start + pick]
            self._wk_out.append(
                (ids, np.full(len(ids), step, dtype=np.int32), nxt)
            )
        else:
            nxt = np.empty(0, np.int64)
        out = self._walk_route(ids, np.empty(len(ids), np.int64), nxt)
        return self._walk_put(out), {"rows_out": len(ids)}

    def walk_step_update(self, msg_refs):
        all_msgs = self._walk_get(msg_refs)
        ids, prevs, curs = [], [], []
        for i_c, p_c, n_c, offs in all_msgs:
            lo, hi = offs[self.wid], offs[self.wid + 1]
            ids.append(i_c[lo:hi])
            prevs.append(p_c[lo:hi])
            curs.append(n_c[lo:hi])
        ids = np.concatenate(ids)
        order = np.argsort(ids, kind="stable")
        self._wk_id = ids[order]
        self._wk_prev = np.concatenate(prevs)[order]
        self._wk_cur = np.concatenate(curs)[order]
        return {"active": len(ids)}

    # node2vec: three exchanges per step — (A) candidate membership queries
    # to owner(prev), (B) flags back, (C) biased draw + walker move.  All
    # messages use the packed layout (concatenated arrays + per-receiver
    # offsets — constant object count per sender per step).
    def n2v_query_scatter(self, step: int):
        start, deg = self._walk_rows()
        alive = deg > 0
        self._n2v_ids = self._wk_id[alive]
        self._n2v_cur = self._wk_cur[alive]
        self._n2v_prev = self._wk_prev[alive]
        self._n2v_start = start[alive]
        self._n2v_deg = deg[alive]
        total = int(self._n2v_deg.sum())
        self._n2v_flags = np.zeros(total, dtype=bool)
        self._n2v_offs = np.zeros(len(self._n2v_ids) + 1, dtype=np.int64)
        np.cumsum(self._n2v_deg, out=self._n2v_offs[1:])
        # first-step walkers (prev == -1) need no query: flags stay False,
        # so α = 1/q uniformly — the constant cancels in the draw
        need = np.flatnonzero(self._n2v_prev >= 0)
        own = self.part2worker[part_of_vertex(self._n2v_prev[need], self.P)]
        sel = need[np.argsort(own, kind="stable")]
        reps = self._n2v_deg[sel]
        total_c = int(reps.sum())
        seg0 = np.zeros(len(sel), dtype=np.int64)
        np.cumsum(reps[:-1], out=seg0[1:])
        gather = (
            np.repeat(self._n2v_start[sel], reps)
            + (np.arange(total_c, dtype=np.int64) - np.repeat(seg0, reps))
            if total_c else np.empty(0, np.int64)
        )
        cands_c = self._walk_dst[gather]
        w_offs = np.zeros(self.W + 1, dtype=np.int64)
        np.cumsum(np.bincount(own, minlength=self.W), out=w_offs[1:])
        c_offs = np.zeros(self.W + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(own, weights=self._n2v_deg[need].astype(np.float64),
                        minlength=self.W).astype(np.int64),
            out=c_offs[1:],
        )
        out = (self._n2v_ids[sel], self._n2v_prev[sel], reps, cands_c,
               w_offs, c_offs)
        return self._walk_put(out), {"rows_out": total_c}

    def n2v_query_receive(self, msg_refs):
        """Answer (prev, candidates) membership queries against the
        resident sorted adjacency rows; stash per-sender reply slices."""
        all_msgs = self._walk_get(msg_refs)
        self._n2v_replies = []
        rows_in = 0
        for i_c, p_c, deg_c, cands_c, w_offs, c_offs in all_msgs:
            lo, hi = w_offs[self.wid], w_offs[self.wid + 1]
            clo, chi = c_offs[self.wid], c_offs[self.wid + 1]
            ids = i_c[lo:hi]
            prevs = p_c[lo:hi]
            degs = deg_c[lo:hi]
            cands = cands_c[clo:chi]
            flags = np.zeros(len(cands), dtype=bool)
            if len(ids) and len(cands):
                # vectorized membership: one binary search per candidate
                # against its prev's resident sorted row window — no
                # per-walker Python loop
                loc = np.searchsorted(self.owned, prevs)
                rs_rep = np.repeat(self._walk_indptr[loc], degs)
                re_rep = np.repeat(self._walk_indptr[loc + 1], degs)
                dst = self._walk_dst
                lo = rs_rep - 1          # cond(lo) False sentinel
                hi = re_rep              # cond(hi) True sentinel
                while True:
                    upd = (hi - lo) > 1
                    if not upd.any():
                        break
                    mid = np.where(upd, (lo + hi) >> 1, 0)
                    c = dst[mid] >= cands
                    hi = np.where(upd & c, mid, hi)
                    lo = np.where(upd & ~c, mid, lo)
                fi = np.flatnonzero(hi < re_rep)
                flags[fi] = dst[hi[fi]] == cands[fi]
            self._n2v_replies.append((ids, flags))
            rows_in += len(cands)
        return {"rows_in": rows_in}

    def n2v_flag_scatter(self):
        """Ship stashed replies back, packed: reply j goes to sender j (the
        walker's owner), so the offsets are just the per-sender slice."""
        ids_c = np.concatenate([r[0] for r in self._n2v_replies])
        flags_c = np.concatenate([r[1] for r in self._n2v_replies])
        w_offs = np.zeros(self.W + 1, dtype=np.int64)
        np.cumsum([len(r[0]) for r in self._n2v_replies], out=w_offs[1:])
        f_offs = np.zeros(self.W + 1, dtype=np.int64)
        np.cumsum([len(r[1]) for r in self._n2v_replies], out=f_offs[1:])
        return self._walk_put((ids_c, flags_c, w_offs, f_offs)), {"rows_out": len(flags_c)}

    def n2v_flag_update(self, msg_refs):
        """Install returned flags into each pending walker's segment."""
        all_msgs = self._walk_get(msg_refs)
        for i_c, fl_c, w_offs, f_offs in all_msgs:
            ids = i_c[w_offs[self.wid]:w_offs[self.wid + 1]]
            flags = fl_c[f_offs[self.wid]:f_offs[self.wid + 1]]
            if not len(ids):
                continue
            # _n2v_ids is sorted (walk_step_update argsorts walker ids), so
            # each reply segment scatters via one searchsorted + repeat —
            # no per-walker dict loop
            idx = np.searchsorted(self._n2v_ids, ids)
            degs = self._n2v_deg[idx]
            seg0 = np.zeros(len(idx), dtype=np.int64)
            np.cumsum(degs[:-1], out=seg0[1:])
            total = int(degs.sum())
            dest = (
                np.repeat(self._n2v_offs[idx], degs)
                + (np.arange(total, dtype=np.int64) - np.repeat(seg0, degs))
            )
            self._n2v_flags[dest] = flags
        return True

    def n2v_move_scatter(self, step: int):
        """Biased draw per pending walker (α = 1/p return, 1 adjacent,
        1/q exploration — Grover & Leskovec 2016), exactly the per-walker
        cumsum/searchsorted contract of the r2 implementation."""
        from raygraph.algos.sampling import _seeded_uniform

        n = len(self._n2v_ids)
        nxt = np.empty(n, np.int64)
        if n:
            u = _seeded_uniform(self._walk_seed, self._n2v_ids, step)[:, 0]
            inv_p = 1.0 / self._walk_p
            inv_q = 1.0 / self._walk_q
            deg, offs = self._n2v_deg, self._n2v_offs
            seg0 = offs[:-1]
            total_c = int(offs[-1])
            gather = (
                np.repeat(self._n2v_start, deg)
                + (np.arange(total_c, dtype=np.int64) - np.repeat(seg0, deg))
            )
            cands = self._walk_dst[gather]
            alpha = np.where(
                cands == np.repeat(self._n2v_prev, deg), inv_p,
                np.where(self._n2v_flags, 1.0, inv_q),
            )
            # SEGMENTED cumsum (prefix resets per walker): bit-exact vs
            # the per-walker sequential cumsum for ANY float w·α — a
            # worker-global cumsum with base subtraction made the draw
            # depend on which walkers were co-resident (ADVICE r3)
            cum = segmented_cumsum(self._walk_w[gather] * alpha, offs)
            total = cum[offs[1:] - 1]
            # first in-segment index with cum[i] > u*total — the same
            # row-local exact binary search as the biased walk draw,
            # fully vectorized across the worker's pending walkers
            target = u * total
            lo = seg0 - 1
            hi = offs[1:] - 1
            while True:
                upd = (hi - lo) > 1
                if not upd.any():
                    break
                mid = np.where(upd, (lo + hi) >> 1, hi)
                c = cum[mid] > target
                hi = np.where(upd & c, mid, hi)
                lo = np.where(upd & ~c, mid, lo)
            nxt = cands[hi]
            self._wk_out.append(
                (self._n2v_ids, np.full(n, step, dtype=np.int32), nxt)
            )
        out = self._walk_route(self._n2v_ids, self._n2v_cur, nxt)
        return self._walk_put(out), {"rows_out": n}

    def walk_write(self, out_dir: str):
        """Write this worker's walk rows as one parquet file (no driver
        concat of O(walkers × length) output)."""
        os.makedirs(out_dir, exist_ok=True)
        ids = np.concatenate([o[0] for o in self._wk_out])
        steps = np.concatenate([o[1] for o in self._wk_out])
        verts = np.concatenate([o[2] for o in self._wk_out])
        if len(ids) == 0:
            # an empty file would surface as a schemaless zero-row block
            # downstream (Ray RefBundle schema warnings); some worker always
            # owns at least one start vertex, so the directory is never empty
            return 0
        order = np.lexsort((steps, ids))
        t = pa.table(
            {
                "walker": pa.array(ids[order], pa.int64()),
                "step": pa.array(steps[order].astype(np.int32), pa.int32()),
                "vertex": pa.array(verts[order], pa.int64()),
            }
        )
        pq.write_table(t, os.path.join(out_dir, f"walks-w{self.wid:05d}.parquet"))
        return len(ids)


# Idle PartitionWorker processes kept warm across engines, per Ray session.
# Keyed by (job id, driver node id): a fresh local cluster reuses job id 1,
# but not the node id, so handles from an earlier ``ray.init`` are dropped.
_IDLE: dict = {}
_IDLE_LOCK = threading.Lock()


def _idle_workers() -> list:
    """This session's idle list; take ``_IDLE_LOCK`` to change it."""
    ctx = ray.get_runtime_context()
    key = (ctx.get_job_id(), ctx.get_node_id())
    if key not in _IDLE:
        _IDLE.clear()
        _IDLE[key] = []
    return _IDLE[key]


class SuperstepEngine:
    """Driver-side BSP loop + checkpoint/lineage/resume over PartitionWorkers."""

    @staticmethod
    def _alive_nodes() -> int:
        try:
            return max(1, sum(1 for n in ray.nodes() if n.get("Alive")))
        except Exception:
            return 1

    def _auto_exchange_mode(self) -> str:
        """Topology-gated default (measured — see BASELINE.md exchange
        A/B): on ONE node every packed read is a zero-copy plasma map, so
        packed wins at every W (sliced/tree only add object count and a
        combine hop with no network to save).  Across nodes the wire is
        the cost: tree's per-group combine collapses duplicate (dst,
        partial) messages before they cross the network (measured 78×
        fewer inter-group bytes/worker/iter than packed) and needs ≥2
        workers per node to have anything to combine; otherwise sliced
        at least bounds per-node inbound to its own slice."""
        nodes = self._alive_nodes()
        if nodes <= 1:
            return "packed"
        return "tree" if self.W >= 2 * nodes else "sliced"

    def _auto_tree_group(self) -> int:
        """Tree combine-group size: one group ≈ one node's workers when
        the cluster shape is known (combines exactly what shares a plasma
        store), else ~√W (balances combine fan-in vs residual receiver
        fan-in)."""
        nodes = self._alive_nodes()
        if nodes > 1 and self.W >= nodes:
            return max(1, self.W // nodes)
        return max(1, int(round(self.W ** 0.5)))

    def __init__(self, graph, num_workers: Optional[int] = None,
                 checkpoint_dir: Optional[str] = None, checkpoint_every: int = 1,
                 exchange_mode: Optional[str] = None,
                 wide_keys: Optional[bool] = None):
        self.graph = graph
        P = graph.num_partitions
        if num_workers is None:
            # cluster_resources (total), NOT available_resources: the latter
            # fluctuates with concurrent load and can collapse W to 1
            # mid-suite; actor tasks queue fine if CPUs are busy.
            cpus = int(ray.cluster_resources().get("CPU", 4))
            num_workers = max(1, min(P, cpus))
        self.W = num_workers
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = max(1, checkpoint_every)
        # "packed": one object per sender per round (O(W) objects; every
        # receiver reads every sender's full list — cheapest single-node,
        # zero-copy within the node).  "sliced": one object per
        # (sender, receiver) pair (O(W²) objects; each receiver fetches only
        # its own bytes — the multi-node shape: per-node inbound volume
        # drops ~W×).  Default: $RAYGRAPH_EXCHANGE if set, else
        # self-gating by topology (see _auto_exchange_mode).
        if exchange_mode is None:
            exchange_mode = os.environ.get("RAYGRAPH_EXCHANGE") or (
                self._auto_exchange_mode()
            )
        if exchange_mode not in ("packed", "sliced", "tree"):
            raise ValueError(f"unknown exchange_mode {exchange_mode!r}")
        self.exchange_mode = exchange_mode
        # "tree": sliced scatter + a per-group combine tier (one group ≈ one
        # node's workers) that merges the group's partials by dst before
        # they cross the network — receiver fan-in drops W → ceil(W/G) and
        # a hot dst's duplicate partials collapse on the sending node.
        # Static-layout paths only (pagerank/spmv); the frontier kernels'
        # per-round message shapes fall back to sliced.  Group size from
        # $RAYGRAPH_TREE_GROUP, default ~√W (balances combine fan-in against
        # residual receiver fan-in).
        if exchange_mode == "tree":
            G = (
                int(os.environ.get("RAYGRAPH_TREE_GROUP", "0"))
                or self._auto_tree_group()
            )
            self.groups = [list(range(g, min(g + G, self.W)))
                           for g in range(0, self.W, G)]
        else:
            self.groups = None
        # pagerank/spmv message layout is static across supersteps, so vids
        # need shipping only once per worker lifetime: the first static
        # round is vid-ful (receivers cache positions), every later one
        # ships float partials only — half the steady-state exchange bytes.
        self._static_vids_shipped = False
        # engine reuse: when True, result_dataset keeps the workers with
        # this engine (caller owns shutdown; see result_dataset docstring)
        self._keep_alive = False
        # wide-id kernels: auto past 2^32 vertices; forceable for the
        # forced-path equality tests ($RAYGRAPH_WIDE_KEYS=1 or the arg).
        if wide_keys is None:
            env = os.environ.get("RAYGRAPH_WIDE_KEYS")
            wide_keys = bool(int(env)) if env is not None else None
        self.wide_keys = wide_keys
        self.part2worker = self._balanced_assignment(graph, P, self.W)

        def load(wid, worker=None):
            # pooled processes reload in place; only the shortfall spawns
            args = (graph.base_dir, wid, self.W, P, graph.num_vertices)
            kw = dict(part2worker=self.part2worker, wide_keys=wide_keys)
            if worker is not None:
                return worker, worker.reload.remote(*args, **kw)
            # zero-CPU reservation: idle pooled workers hold no CPUs, and a
            # live pool never starves Dataset tasks of scheduling slots
            worker = PartitionWorker.options(
                num_cpus=0, scheduling_strategy="SPREAD"
            ).remote(*args, **kw)
            return worker, worker.info.remote()

        with _IDLE_LOCK:
            idle = _idle_workers()
            pooled = [idle.pop() for _ in range(min(self.W, len(idle)))]
        started = [
            load(wid, pooled[wid] if wid < len(pooled) else None)
            for wid in range(self.W)
        ]
        self.workers = [w for w, _ in started]
        for wid, (_, ready) in enumerate(started):
            try:
                ray.get(ready)
            except ray.exceptions.RayActorError:
                if wid >= len(pooled):
                    raise
                # a pooled process that died while idle: replace it once
                self.workers[wid], ready = load(wid)
                ray.get(ready)

    @staticmethod
    def _balanced_assignment(graph, P: int, W: int) -> np.ndarray:
        """LPT partition→worker assignment by edge count (parquet metadata
        only — no data read).  Mirrors the intent of the reference's
        degree-segment balancing (``graph_view.hpp:258-263``): a hot
        partition (skewed high-out-degree src) lands alone on a worker
        instead of stacking with P/W round-robin siblings.  Deterministic;
        checkpoints stay partition-keyed so resume is unaffected."""
        import pyarrow.dataset as pads

        sizes = np.zeros(P, dtype=np.int64)
        for p in range(P):
            pdir = os.path.join(graph.base_dir, "edges", f"part={p}")
            if os.path.isdir(pdir):
                sizes[p] = pads.dataset(pdir).count_rows()
        order = np.argsort(-sizes, kind="stable")
        load = np.zeros(W, dtype=np.int64)
        assign = np.zeros(P, dtype=np.int64)
        for p in order:
            w = int(np.argmin(load))
            assign[p] = w
            load[w] += sizes[p]
        return assign

    # -- checkpoint plumbing ---------------------------------------------
    def _lineage_path(self):
        return os.path.join(self.checkpoint_dir, "lineage.jsonl")

    def latest_complete_iteration(self, algo: str) -> Optional[int]:
        """Largest iteration with a lineage entry marked complete."""
        if not self.checkpoint_dir or not os.path.exists(self._lineage_path()):
            return None
        best = None
        with open(self._lineage_path()) as f:
            for line in f:
                rec = json.loads(line)
                if rec.get("algo") == algo and rec.get("complete"):
                    best = max(best or -1, rec["iteration"])
        return best

    def _checkpoint(self, algo: str, iteration: int, names, stats: dict):
        if not self.checkpoint_dir:
            return
        it_dir = os.path.join(self.checkpoint_dir, algo, f"iter={iteration:06d}")
        written = ray.get(
            [w.write_state.remote(it_dir, names) for w in self.workers]
        )
        per_part = {p: n for wlist in written for p, n in wlist}
        rec = {
            "algo": algo,
            "iteration": iteration,
            "complete": True,
            "partitions": [
                {"partition_id": p, "rows": n} for p, n in sorted(per_part.items())
            ],
            **stats,
        }
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        with open(self._lineage_path(), "a") as f:
            f.write(json.dumps(rec) + "\n")

    def _restore(self, algo: str, iteration: int, names):
        it_dir = os.path.join(self.checkpoint_dir, algo, f"iter={iteration:06d}")
        ray.get([w.load_state.remote(it_dir, names) for w in self.workers])

    # -- generic BSP round ------------------------------------------------
    def _exchange(self, scatter_name: str, update_name: str, update_args=(),
                  scatter_args=(), mirror_names=()):
        """One superstep: scatter on all workers, share the W message-list
        refs with every worker (each slices its own entry), update on all.

        packed mode: two plasma objects per worker per round — O(W), not
        O(W²); reads of peer message lists are zero-copy within a node, but
        every node deserializes every sender's full list (W× the necessary
        cross-node bytes).  sliced mode: one object per (sender, receiver)
        pair — O(W²) small objects, each receiver fetches exactly its own
        slice; the multi-node default once inter-node bandwidth dominates.
        """
        if getattr(self, "has_mirrors", False):
            for n in mirror_names:
                self.fetch_mirror(n)
        # tree mode applies to the static-layout paths (pagerank/spmv);
        # the frontier kernels' vid sets change every round, so a combine
        # layout can't be cached — they use the sliced shape under tree.
        if self.exchange_mode in ("sliced", "tree"):
            W = self.W
            outs = [
                w.scatter_sliced.options(num_returns=W + 1).remote(
                    scatter_name, *scatter_args
                )
                for w in self.workers
            ]
            scatter_stats = ray.get([o[W] for o in outs])
            upd = [
                getattr(self.workers[q], update_name).remote(
                    *update_args, [outs[s][q] for s in range(W)]
                )
                for q in range(W)
            ]
        else:
            outs = [
                getattr(w, scatter_name).options(num_returns=2).remote(*scatter_args)
                for w in self.workers
            ]
            msg_refs = [o[0] for o in outs]
            scatter_stats = ray.get([o[1] for o in outs])
            upd = [
                getattr(self.workers[q], update_name).remote(*update_args, msg_refs)
                for q in range(self.W)
            ]
        update_stats = ray.get(upd)
        return scatter_stats, update_stats

    # -- mirror wiring (split high-degree graphs) ------------------------
    def wire_mirrors(self) -> bool:
        """Register the mirror-src fetch routes; returns True if any worker
        holds foreign-src (split) edges."""
        counts = ray.get([w.mirror_count.remote() for w in self.workers])
        self.has_mirrors = any(counts)
        if not self.has_mirrors:
            return False
        needed = ray.get([w.mirror_ids_by_owner.remote() for w in self.workers])
        ray.get(
            [
                self.workers[p].register_mirror_requests.remote(
                    [needed[q][p] for q in range(self.W)]
                )
                for p in range(self.W)
            ]
        )
        return True

    def fetch_mirror(self, name: str):
        """One src-property exchange: owners serve ``state[name]`` for each
        worker's registered mirror ids."""
        served = [
            ref_list(
                w.serve_mirror_values.options(num_returns=self.W).remote(name),
                self.W,
            )
            for w in self.workers
        ]
        ray.get(
            [
                self.workers[q].apply_mirror_values.remote(
                    name, [served[p][q] for p in range(self.W)]
                )
                for q in range(self.W)
            ]
        )

    def pagerank_round_async(self, alpha: float, has_pers: bool):
        """Dispatch one pagerank superstep WITHOUT joining; returns the
        update-stat refs.  Safe to dispatch the next round before joining
        this one: Ray actor tasks execute in submission order per worker,
        so round k's update commits before round k+1's scatter reads the
        state — the driver barrier exists only to read convergence stats,
        and a lag-1 (pipelined) reader hides the whole dispatch+join
        latency behind the workers' compute."""
        if getattr(self, "has_mirrors", False):
            self.fetch_mirror("pr")
        W = self.W
        ship_vids = not self._static_vids_shipped
        self._static_vids_shipped = True
        if self.exchange_mode == "sliced" or (
                self.exchange_mode == "tree" and W > 1):
            outs = [
                ref_list(
                    w.pagerank_scatter_sliced.options(num_returns=W).remote(
                        ship_vids
                    ),
                    W,
                )
                for w in self.workers
            ]
            if self.exchange_mode == "tree":
                # per (group, receiver) combine on a rotating group member;
                # receiver q then gathers ceil(W/G) merged slices.  Submit
                # EVERY combine before ANY update: updates block their
                # actor's thread in ray.get, so an update queued ahead of a
                # combine another update needs would serialize the whole
                # round into waves.
                comb = [
                    [
                        self.workers[mem[q % len(mem)]].combine_slices.remote(
                            q, [outs[s][q] for s in mem], "pagerank")
                        for mem in self.groups
                    ]
                    for q in range(W)
                ]
                upd = [
                    self.workers[q].pagerank_update.remote(
                        alpha, has_pers, comb[q])
                    for q in range(W)
                ]
            else:
                upd = [
                    self.workers[q].pagerank_update.remote(
                        alpha, has_pers, [outs[s][q] for s in range(W)]
                    )
                    for q in range(W)
                ]
        else:
            msg_refs = [w.pagerank_scatter.remote(ship_vids) for w in self.workers]
            upd = [
                self.workers[q].pagerank_update.remote(alpha, has_pers, msg_refs)
                for q in range(W)
            ]
        return upd

    def pagerank_round(self, alpha: float, has_pers: bool):
        """Single-barrier pagerank superstep in the engine's exchange mode.
        Split graphs pay one extra mirror-sync round for the pr values of
        foreign srcs."""
        return ray.get(self.pagerank_round_async(alpha, has_pers))

    def spmv_round_refs(self, name: str):
        """Scatter for one spmv round; returns (per-receiver msg ref lists
        indexed by receiver, scatter stats).  Split graphs sync the mirror
        copies of ``name`` first."""
        if getattr(self, "has_mirrors", False):
            self.fetch_mirror(name)
        W = self.W
        ship_vids = not self._static_vids_shipped
        self._static_vids_shipped = True
        if self.exchange_mode == "sliced" or (
                self.exchange_mode == "tree" and W > 1):
            outs = [
                w.spmv_scatter_sliced.options(num_returns=W + 1).remote(
                    name, ship_vids)
                for w in self.workers
            ]
            stats = ray.get([o[W] for o in outs])
            if self.exchange_mode == "tree":
                per_receiver = [
                    [
                        self.workers[mem[q % len(mem)]]
                        .combine_slices.remote(
                            q, [outs[s][q] for s in mem], "spmv")
                        for mem in self.groups
                    ]
                    for q in range(W)
                ]
            else:
                per_receiver = [[outs[s][q] for s in range(W)]
                                for q in range(W)]
            return per_receiver, stats
        outs = [
            w.spmv_scatter.options(num_returns=2).remote(name, ship_vids)
            for w in self.workers
        ]
        msg_refs = [o[0] for o in outs]
        stats = ray.get([o[1] for o in outs])
        return [msg_refs] * W, stats

    def reset(self):
        """Clear per-algorithm worker state for engine reuse: one engine
        (actor pool + resident CSR + routing layout) can run several
        algorithms over the same graph back-to-back — pagerank → wcc → lpa
        pays one spin-up instead of three.  Static caches (receive
        positions, packed scatter layout, mirror wiring) stay valid because
        the routing is a property of the graph, not the algorithm."""
        ray.get([w.reset_state.remote() for w in self.workers])
        return self

    def shutdown(self):
        """Return the worker processes to this Ray session's idle pool, so
        the next engine reloads them instead of paying process start-up
        and imports again.  ``release`` frees each worker's graph and state;
        actor task order runs it after everything already submitted.  At
        most the cluster's CPU count of processes stay idle; extras are
        killed.
        """
        cap = int(ray.cluster_resources().get("CPU", 0))
        with _IDLE_LOCK:
            idle = _idle_workers()
            for w in self.workers:
                if len(idle) < cap:
                    # submitted before another engine can take the worker,
                    # so it runs before that engine's ``reload``
                    w.release.remote()
                    idle.append(w)
                else:
                    ray.kill(w)
        self.workers = []

    def result_dataset(self, names, out_dir: Optional[str] = None):
        """Final vertex state as a Dataset (per-partition parquet on disk).

        Writes through the workers, then shuts the engine down.  With
        ``_keep_alive`` set (engine reuse across algorithms) the workers
        stay with the engine and the caller owns ``shutdown()``; the
        returned Dataset is a lazy read handle either way.
        """
        import tempfile
        import uuid

        if out_dir is None:
            out_dir = os.path.join(
                tempfile.gettempdir(), "raygraph", f"result-{uuid.uuid4().hex[:12]}"
            )
        ray.get([w.write_state.remote(out_dir, names) for w in self.workers])
        if not getattr(self, "_keep_alive", False):
            self.shutdown()
        # driver-side footer fetch: the default provider's remote metadata
        # tasks can stall behind the build's cleanup window (see
        # sources.driver_meta_provider)
        from raygraph.sources import read_parquet_dir

        return read_parquet_dir(out_dir)

    def edge_result_dataset(self, names, out_dir: Optional[str] = None):
        """Final per-edge state as a Dataset keyed by (src, dst)."""
        import tempfile
        import uuid

        if out_dir is None:
            out_dir = os.path.join(
                tempfile.gettempdir(), "raygraph", f"eresult-{uuid.uuid4().hex[:12]}"
            )
        ray.get([w.write_edge_state.remote(out_dir, names) for w in self.workers])
        if not getattr(self, "_keep_alive", False):
            self.shutdown()
        from raygraph.sources import read_parquet_dir

        return read_parquet_dir(out_dir)
