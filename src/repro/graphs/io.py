"""Edge-list IO: the formats the paper's datasets ship in.

Supports the whitespace-separated edge-list format used by SNAP / KONECT /
LAW (one ``u v`` pair per line, ``#`` or ``%`` comments). The binary
on-disk graph format is the RPDC disk CSR of :mod:`repro.graphs.disk_csr`.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph

PathLike = Union[str, Path]


def read_edge_list(path: PathLike, name: str = "") -> Graph:
    """Read a whitespace-separated edge list.

    Vertex ids may be arbitrary non-negative integers; they are compacted
    to ``0..n-1`` preserving order of first appearance of the sorted id
    set (i.e. by numeric id), the usual convention for SNAP files.
    """
    path = Path(path)
    heads: List[int] = []
    tails: List[int] = []
    with path.open() as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped[0] in "#%":
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise GraphError(f"{path}:{line_no}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphError(f"{path}:{line_no}: non-integer vertex id") from exc
            if u < 0 or v < 0:
                raise GraphError(f"{path}:{line_no}: negative vertex id")
            heads.append(u)
            tails.append(v)
    if not heads:
        return Graph(0, [], name=name or path.stem)
    raw = np.asarray([heads, tails], dtype=np.int64).T
    ids = np.unique(raw)
    compact = np.searchsorted(ids, raw)
    return Graph.from_edge_array(len(ids), compact, name=name or path.stem)


def write_edge_list(graph: Graph, path: PathLike, header: bool = True) -> None:
    """Write each undirected edge once as ``u v`` per line."""
    path = Path(path)
    with path.open("w") as handle:
        if header:
            handle.write(f"# {graph.name}: n={graph.num_vertices} m={graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")
