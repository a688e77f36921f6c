"""Immutable undirected graphs, edge-list parsing, connected components.

A parsed graph never changes; dismantling state lives in a boolean node
mask next to it.  Components of the masked graph are computed on demand
and identified by their smallest member id, which keeps every downstream
tie-break deterministic.  A bisection reads one component's Subgraph, in
local ids, and splits it into pieces without scanning the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse.csgraph import connected_components as _sp_components

from .errors import ParseError

# boolean vector over node ids; True means the node is still present
NodeMask = np.ndarray


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with 0-based contiguous node ids.

    edges holds each undirected edge once as (u, v) with u < v, sorted
    lexicographically.  indptr/indices form a CSR adjacency over both
    directions.  labels maps id back to the token the node had in the
    input file; graphs built directly from integer edges get string
    digits as labels.
    """

    n: int
    edges: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    labels: tuple[str, ...]

    @cached_property
    def id_map(self) -> dict[str, int]:
        """Node id of every label, built on first read."""
        return dict(zip(self.labels, range(self.n)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def subgraph(self, nodes: np.ndarray) -> "Subgraph":
        """The subgraph induced on a nonempty node set."""
        labels = np.full(self.n, -1, dtype=np.int64)
        labels[nodes] = 0
        return Subgraph(np.arange(self.n), self.indptr, self.indices).split(labels, 0)[0]

    def stats(self) -> dict:
        deg = self.degree
        return {
            "n": int(self.n),
            "m": int(self.m),
            "degree_min": int(deg.min()) if self.n else 0,
            "degree_max": int(deg.max()) if self.n else 0,
        }

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        n: int | None = None,
        labels: Iterable[str] | None = None,
    ) -> "Graph":
        """Build from integer pairs; drops self-loops and duplicates."""
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        arr = arr.reshape(-1, 2)
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        if len(lo) and lo.min() < 0:
            raise ValueError("node ids must be nonnegative")
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        n_seen = int(hi.max()) + 1 if len(hi) else 0
        if n is None:
            n = n_seen
        elif n < n_seen:
            raise ValueError(f"n={n} too small for edge ids up to {n_seen - 1}")
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels length must equal n")
        # one int64 key per pair, lo * base + hi, sorts as (lo, hi) does;
        # the keys of both directions, sorted, are the CSR rows in order
        base = max(n_seen, 1)
        key = np.sort(lo * base + hi)
        key = key[_run_starts(key)]
        lo, hi = np.divmod(key, base)
        both = np.concatenate([key, hi * base + lo])
        both.sort()
        indices = both % base
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n), out=indptr[1:])
        edges = np.stack([lo, hi], axis=1)
        return cls(n=n, edges=edges, indptr=indptr, indices=indices, labels=labels)


def full_mask(n: int) -> NodeMask:
    return np.ones(n, dtype=bool)


def _is_break(char: str) -> bool:
    return ("x" + char + "x").splitlines() == ["x", "x"]


# indexed by code point: what str.split() and str.splitlines() split on
_ASCII_SPACE = np.array([chr(c).isspace() for c in range(128)])
_ASCII_BREAK = np.array([_is_break(chr(c)) for c in range(128)])


def _char_classes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(is whitespace, is line break) for every code point of a text."""
    if codes.dtype == np.uint8:
        return _ASCII_SPACE[codes], _ASCII_BREAK[codes]
    present = np.unique(codes)
    chars = [chr(c) for c in present.tolist()]
    space = present[[c.isspace() for c in chars]]
    breaks = present[[_is_break(c) for c in chars]]
    return np.isin(codes, space), np.isin(codes, breaks)


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from their predecessor."""
    starts = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def _intern(codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids in order of first appearance for the tokens codes[s : s + l].

    Returns (the id of every token, the index of each id's first token).
    Tokens are compared one length at a time, so zero-padding a short
    token to an 8-byte key cannot make "a" equal "a\x00".  Equal keys
    are grouped by an unstable argsort; each group's first token is its
    smallest index.
    """
    by_length = np.argsort(lengths)
    code = np.empty(len(starts), dtype=np.int64)
    firsts = []
    count = 0
    for group in np.split(by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1):
        width = int(lengths[group[0]])
        rows = sliding_window_view(codes, width)[starts[group]]
        if width * codes.itemsize <= 8:
            keys = np.zeros((len(group), 8 // codes.itemsize), dtype=codes.dtype)
            keys[:, :width] = rows
            keys = keys.view(np.uint64).ravel()
        else:
            keys = rows.view(f"S{width * codes.itemsize}").ravel()
        perm = np.argsort(keys)
        group = group[perm]
        new = _run_starts(keys[perm])
        code[group] = np.cumsum(new) + (count - 1)
        firsts.append(np.minimum.reduceat(group, np.flatnonzero(new)))
        count += len(firsts[-1])
    first = np.concatenate(firsts)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[code], first[order]


def _edge_tokens(codes: np.ndarray, breaks: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of the first two tokens of every line that is
    neither blank nor a comment, in text order.  breaks holds the line
    break positions, or None to find them as str.splitlines() would."""
    space, is_break = _char_classes(codes)
    if breaks is None:
        # "\r\n" is one break
        is_break[1:] &= (codes[1:] != 10) | (codes[:-1] != 13)
        breaks = np.flatnonzero(is_break)
    word = np.zeros(len(codes) + 2, dtype=bool)
    np.logical_not(space, out=word[1:-1])
    # with a blank on both sides, word runs begin and end alternately
    bounds = np.flatnonzero(word[1:] != word[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    line = np.searchsorted(breaks, starts)
    first = np.ones(len(line) + 1, dtype=bool)
    np.not_equal(line[1:], line[:-1], out=first[1:-1])
    heads = np.flatnonzero(first[:-1])
    comment = np.isin(codes[starts[heads]], [ord("%"), ord("#")])
    short = heads[~comment & first[heads + 1]]
    if len(short):
        raise ParseError("expected at least two tokens", line_number=int(line[short[0]]) + 1)
    kept = np.repeat(heads[~comment], 2)
    kept[1::2] += 1
    return starts[kept], ends[kept] - starts[kept]


def parse_edge_list(text: str | Iterable[str]) -> Graph:
    """Parse whitespace-separated edge pairs into a Graph.

    Lines starting with '%' or '#' are comments.  Tokens may be arbitrary
    strings; they are assigned 0-based ids in order of first appearance.
    Self-loops and repeated edges are dropped silently.  A line with fewer
    than two tokens, or an input with no surviving edges, is an error.
    Extra tokens after the first two (weights, timestamps) are ignored.

    Tokens split as str.split() does.  A string breaks into lines as
    str.splitlines() does; a sequence of strings is one line per element.
    The text is scanned as one array of code points, one byte each when
    it is ASCII; only per-token arrays are int64.
    """
    breaks = None
    if not isinstance(text, str):
        lines = list(text)
        text = "\n".join(lines)
        # only the joining newlines break lines; a newline inside an
        # element is plain whitespace
        lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
        breaks = np.cumsum(lengths[:-1] + 1) - 1
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    starts, lengths = _edge_tokens(codes, breaks)
    if not len(starts):
        raise ParseError("no edges in input")
    ids, first = _intern(codes, starts, lengths)
    pairs = ids.reshape(-1, 2)
    if not (pairs[:, 0] != pairs[:, 1]).any():
        raise ParseError("no edges in input")
    label_starts = starts[first]
    spans = zip(label_starts.tolist(), (label_starts + lengths[first]).tolist())
    labels = [text[s:e] for s, e in spans]
    return Graph.from_edges(pairs, n=len(labels), labels=labels)


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components of the masked graph.

    component_id[v] is the smallest node id inside v's component, or -1
    for masked-out nodes.  sizes maps component id to member count.
    gcc_id is the id of the largest component, ties broken by smaller id;
    it is -1 (with gcc_size 0) when no node is active.
    """

    component_id: np.ndarray
    sizes: dict[int, int]
    gcc_id: int
    gcc_size: int

    def members(self, comp_id: int) -> np.ndarray:
        return np.flatnonzero(self.component_id == comp_id)


@dataclass(frozen=True)
class Subgraph:
    """The subgraph a Graph induces on a sorted node set, in local ids.

    Local id i stands for nodes[i], so local order is global order, and
    indptr/indices form its CSR adjacency.  A component of the masked
    graph has no active neighbour outside itself, so needs no mask.
    """

    nodes: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of every CSR entry."""
        return np.repeat(np.arange(self.size, dtype=self.indices.dtype), np.diff(self.indptr))

    def pieces(self, kept: np.ndarray, c: int) -> list["Subgraph"]:
        """The connected pieces of more than c nodes among the kept local ids."""
        return self.split(_component_labels(self.indptr, self.indices, kept), c)

    def split(self, labels: np.ndarray, c: int) -> list["Subgraph"]:
        """The subgraphs on the groups of more than c local ids sharing a
        label >= 0.  A node's neighbours must share its label or carry
        -1, as they do for component labels."""
        kept = np.flatnonzero(labels >= 0)
        members = kept[np.bincount(labels[kept])[labels[kept]] > c]
        if not len(members):
            return []
        members = members[np.argsort(labels[members], kind="stable")]
        starts = np.flatnonzero(_run_starts(labels[members]))
        # each member's rank within its group, int32 as scipy stores indices
        local = np.full(self.size, -1, dtype=np.int32)
        local[members] = np.arange(len(members)) - np.repeat(starts, np.diff(starts, append=len(members)))
        out = []
        for group in np.split(members, starts[1:]):
            rows, nbrs = _adjacency_flat(self.indptr, self.indices, group)
            cols = local[nbrs]
            keep = cols >= 0
            indptr = np.zeros(len(group) + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows[keep], minlength=len(group)), out=indptr[1:])
            out.append(Subgraph(self.nodes[group], indptr, cols[keep]))
        return out


def _adjacency_flat(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray):
    """Flattened CSR rows of an id subset: (position in nodes per entry,
    neighbor per entry)."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    idx = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(int(counts.sum()))
    return np.repeat(np.arange(len(nodes)), counts), indices[idx]


def _component_labels(indptr: np.ndarray, indices: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Component labels of the kept ids of a CSR graph, -1 for the rest."""
    k = len(kept)
    rows = np.repeat(np.arange(k, dtype=np.int32), np.diff(indptr))
    # one direction of each kept edge is enough for undirected labels
    entries = (rows < indices) & kept[rows] & kept[indices]
    rows = rows[entries]
    sub_indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=k), out=sub_indptr[1:])
    adj = sp.csr_matrix((np.ones(len(rows), dtype=np.int8), indices[entries], sub_indptr), shape=(k, k))
    labels = _sp_components(adj, directed=False)[1]
    labels[~kept] = -1
    return labels


def components(graph: Graph, mask: NodeMask) -> ComponentDecomposition:
    """Decompose the masked graph into connected components."""
    active = np.asarray(mask, dtype=bool)
    if active.shape != (graph.n,):
        raise ValueError("mask length must equal graph.n")
    act_idx = np.flatnonzero(active)
    # act_idx ascends, so the first occurrence of each label is its
    # smallest member, which becomes the canonical component id
    labels = _component_labels(graph.indptr, graph.indices, active)[act_idx]
    _, first, inverse, counts = np.unique(labels, return_index=True, return_inverse=True, return_counts=True)
    canon = act_idx[first]
    component_id = np.full(graph.n, -1, dtype=np.int64)
    component_id[act_idx] = canon[inverse]
    top = int(counts.max(initial=0))
    return ComponentDecomposition(
        component_id=component_id,
        sizes=dict(zip(canon.tolist(), counts.tolist())),
        gcc_id=int(canon[counts == top].min()) if top else -1,
        gcc_size=top,
    )


def gcc_size(graph: Graph, mask: NodeMask) -> int:
    """Size of the largest connected component of the masked graph."""
    return components(graph, mask).gcc_size
