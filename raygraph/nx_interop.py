"""NetworkX interop shims — the reference's nx-input convenience layer.

Reference: ``python/cugraph/cugraph/utilities/nx_factory.py:31-186``
(``convert_from_nx`` / ``cugraph_to_nx`` / ``df_score_to_dictionary`` /
``df_edge_score_to_dictionary``) — every reference algorithm accepts a
NetworkX graph and returns dict-shaped results for nx callers.

These shims are TEST/NOTEBOOK convenience, not a scale path: an nx graph
is driver-resident by definition, so ``from_networkx`` materializes its
edge list once into a Dataset and hands off to ``Graph.from_edges`` (the
distributed build), and ``to_networkx`` is gated by an edge-count limit
(pulling a 100 TB graph into nx is a caller error, not a capability).
NetworkX is imported lazily so the library works without it installed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd


def _nx():
    try:
        import networkx
    except ImportError as e:  # pragma: no cover - nx is test-optional
        raise RuntimeError(
            "networkx is required for raygraph.nx_interop functions"
        ) from e
    return networkx


def from_networkx(nxG, weight: Optional[str] = None, renumber: bool = True,
                  num_partitions: int = 8, out_dir: Optional[str] = None,
                  **graph_kwargs):
    """NetworkX (Di)Graph → :class:`raygraph.graph.Graph`
    (``nx_factory.py:76`` convert_from_nx).

    ``weight``: edge-attribute name for weights; None with a weighted
    graph uses the conventional ``"weight"`` attribute; missing
    attributes default to 1.0 (nx semantics).
    """
    import ray.data as rd

    from raygraph.graph import Graph

    nx = _nx()
    if isinstance(nxG, nx.DiGraph):
        directed = True
    elif isinstance(nxG, nx.Graph):
        directed = False
    else:
        raise TypeError(
            f"nxG must be either a NetworkX Graph or DiGraph, got {type(nxG)}"
        )
    wname = weight or "weight"
    rows = nxG.edges(data=True)
    src, dst, w = [], [], []
    for s, d, attrs in rows:
        src.append(s)
        dst.append(d)
        w.append(float(attrs.get(wname, 1.0)))
    df = pd.DataFrame({"src": src, "dst": dst, "weight": np.asarray(w)})
    # string keys force the renumber path like the reference's auto-detect
    return Graph.from_edges(
        rd.from_pandas(df) if len(df) else rd.from_pandas(
            pd.DataFrame({"src": pd.Series(dtype=np.int64),
                          "dst": pd.Series(dtype=np.int64),
                          "weight": pd.Series(dtype=np.float64)})
        ),
        src="src", dst="dst", weight="weight",
        directed=directed, renumber=renumber,
        num_partitions=num_partitions, out_dir=out_dir, **graph_kwargs,
    )


def to_networkx(graph, edge_limit: int = 5_000_000):
    """:class:`raygraph.graph.Graph` → NetworkX graph
    (``nx_factory.py:179`` cugraph_to_nx).  Driver-resident by nature —
    gated by ``edge_limit`` so a distributed-scale graph cannot be
    pulled into nx by accident."""
    nx = _nx()
    if graph.num_edges > edge_limit:
        raise ValueError(
            f"graph has {graph.num_edges} edges > edge_limit={edge_limit}; "
            "to_networkx is a driver-side convenience, not a scale path"
        )
    from raygraph.sources import to_pandas_edgelist

    pdf = to_pandas_edgelist(graph)
    return nx.from_pandas_edgelist(
        pdf, source="src", target="dst", edge_attr="weight",
        create_using=nx.DiGraph if graph.directed else nx.Graph,
    )


def df_score_to_dictionary(df, k: str, v: str = "vertex") -> dict:
    """(vertex, score) frame/Dataset → {vertex: score}
    (``nx_factory.py:109``)."""
    df = _to_pandas(df)
    return df.sort_values(by=v).set_index(v).to_dict()[k]


def df_edge_score_to_dictionary(df, k: str, src: str = "src",
                                dst: str = "dst") -> dict:
    """(src, dst, score) frame/Dataset → {(src, dst): score}
    (``nx_factory.py:141``) — vectorized, no per-row loop."""
    pdf = _to_pandas(df).sort_values(by=[src, dst])
    return dict(zip(zip(pdf[src], pdf[dst]), pdf[k]))


def _to_pandas(obj) -> pd.DataFrame:
    if isinstance(obj, pd.DataFrame):
        return obj
    return obj.to_pandas()
