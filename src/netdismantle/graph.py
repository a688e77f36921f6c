"""Immutable undirected graphs, edge-list parsing, connected components.

A parsed graph never changes; dismantling state lives in a boolean node
mask next to it.  Components of the masked graph are computed on demand
and identified by their smallest member id, which keeps every downstream
tie-break deterministic.  A bisection reads one component's Subgraph, in
local ids, and splits it into pieces without scanning the whole graph.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParseError

# boolean vector over node ids; True means the node is still present
NodeMask = np.ndarray


class Labels(Sequence):
    """Read-only node labels kept as one UTF-8 buffer, lone surrogates
    passed, and each label's end offset in it, not as n str objects.

    A label is decoded when it is read; a slice reads as a tuple, and the
    whole equals the tuple of its labels.
    """

    def __init__(self, data: bytes, ends: np.ndarray):
        self.data = data
        self.ends = ends

    @classmethod
    def of(cls, labels: Iterable[str]) -> "Labels":
        labels = list(labels)
        data = "".join(labels)
        if data.isascii():
            # one character is one byte, so the str lengths give the ends
            data = data.encode("ascii")
        else:
            labels = [label.encode("utf-8", "surrogatepass") for label in labels]
            data = b"".join(labels)
        ends = np.fromiter(map(len, labels), dtype=_index_dtype(len(data)), count=len(labels))
        return cls(data, np.cumsum(ends, out=ends))

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        i = range(len(self))[i]
        start = int(self.ends[i - 1]) if i else 0
        return self.data[start : int(self.ends[i])].decode("utf-8", "surrogatepass")

    def __iter__(self):
        # an ASCII buffer is decoded once: its byte offsets index the str
        is_ascii = self.data.isascii()
        data = self.data.decode("ascii") if is_ascii else self.data
        start = 0
        for end in self.ends.tolist():
            label = data[start:end]
            yield label if is_ascii else label.decode("utf-8", "surrogatepass")
            start = end

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, (tuple, Labels)) else NotImplemented

    def __repr__(self) -> str:
        return f"Labels({tuple(self)!r})"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with 0-based contiguous node ids.

    indptr/indices form a CSR adjacency over both directions, each row
    sorted; indices is int32 while the ids fit.  labels maps id back to
    the token the node had in the input file, as Labels; graphs built
    directly from integer edges get string digits as labels.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    labels: Sequence[str]

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    @property
    def degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

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
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if arr.dtype != np.int32:
            arr = arr.astype(np.int64)
        arr = arr.reshape(-1, 2)
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        del arr
        if len(lo) and lo.min() < 0:
            raise ValueError("node ids must be nonnegative")
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        n_seen = int(hi.max()) + 1 if len(hi) else 0
        if n is None:
            n = n_seen
        elif n < n_seen:
            raise ValueError(f"n={n} too small for edge ids up to {n_seen - 1}")
        if not isinstance(labels, Labels):
            labels = Labels.of(map(str, range(n)) if labels is None else labels)
        if len(labels) != n:
            raise ValueError("labels length must equal n")
        # one int64 key per pair, lo over the bits of hi, sorts as (lo, hi)
        # does; the keys of both directions, sorted, are the CSR rows in
        # order, and row r starts at the first key >= r << bits.  The ids
        # may be int32, so the keys start int64
        bits = (n_seen - 1).bit_length()
        key = lo.astype(np.int64)
        key <<= bits
        key |= hi
        del lo, hi
        key.sort()
        key = key[_run_starts(key)]
        both = np.empty(2 * len(key), dtype=np.int64)
        both[: len(key)] = key
        # (hi, lo) in place: lo into the second half, then hi over it
        np.right_shift(key, bits, out=both[len(key) :])
        key &= (1 << bits) - 1
        key <<= bits
        both[len(key) :] |= key
        del key
        both.sort()
        indptr = np.searchsorted(both, np.arange(n + 1, dtype=np.int64) << bits)
        both &= (1 << bits) - 1
        return cls(n=n, indptr=indptr, indices=both.astype(_index_dtype(n)), labels=labels)


def full_mask(n: int) -> NodeMask:
    return np.ones(n, dtype=bool)


# what str.split() and str.splitlines() split on, all in the Basic
# Multilingual Plane; as keys, their UTF-8 bytes read as little-endian
_SPACES = [c for c in map(chr, range(0x10000)) if c.isspace()]
_BREAKS = [c for c in _SPACES if f"x{c}x".splitlines() == ["x", "x"]]
_SPACE_KEYS = np.array([int.from_bytes(c.encode(), "little") for c in _SPACES], dtype=np.uint64)
_BREAK_KEYS = _SPACE_KEYS[[c in _BREAKS for c in _SPACES]]
# indexed by byte: whether it occurs in a whitespace character, whether
# it breaks lines alone, and the width of the whitespace it leads
_SPACE = np.isin(np.arange(256), list("".join(_SPACES).encode()))
_BREAK = np.isin(np.arange(256), [ord(c) for c in _BREAKS if c.isascii()])
_SPAN = np.zeros(256, dtype=np.uint8)
_SPAN[[c.encode()[0] for c in _SPACES]] = [len(c.encode()) for c in _SPACES]
# indexed by a byte width w < 8: the mask of w bytes in a little-endian uint64
_LOW_BYTES = np.array([(1 << 8 * w) - 1 for w in range(8)], dtype=np.uint64)


def _index_dtype(size: int) -> type:
    """The narrowest of int32 and int64 that indexes size entries."""
    return np.int32 if size < 2**31 else np.int64


def _whitespace(codes: np.ndarray, ascii: bool) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the whitespace bytes of UTF-8 text, as str.split()
    finds whitespace, and which of them break lines, as str.splitlines()
    breaks them."""
    near, wide = codes <= 32, []
    if not ascii:
        # multi-byte whitespace leads with 0xC2 or 0xE1 to 0xE3, the bytes
        # _SPAN gives a width above 1; where a whole sequence is
        # whitespace, each of its bytes is
        lead = np.flatnonzero((codes == 0xC2) | (codes - np.uint8(0xE1) <= 2))
        width = _SPAN[codes[lead]]
        keys = _words(codes, lead) & _LOW_BYTES[width]
        hit = np.isin(keys, _SPACE_KEYS, kind="sort")
        for offset in range(_SPAN.max()):
            near[lead[hit & (width > offset)] + offset] = True
        wide = lead[np.isin(keys, _BREAK_KEYS, kind="sort")]
    at = np.flatnonzero(near)
    del near
    chars = codes[at]
    space = _SPACE[chars]
    if not space.all():
        at, chars = at[space], chars[space]
    is_break = _BREAK[chars]
    # "\r\n" is one break, at the "\r"
    cr = np.flatnonzero(chars[:-1] == 13)
    lf = cr + 1
    is_break[lf[(chars[lf] == 10) & (at[lf] == at[cr] + 1)]] = False
    is_break[np.searchsorted(at, wide)] = True
    return at, is_break


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from their predecessor."""
    starts = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def _words(data: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The 8 bytes from each ascending offset of a byte array, read as a
    little-endian uint64; bytes past the end read as zero."""
    if len(data) < 8:
        data = np.concatenate([data, np.zeros(8 - len(data), dtype=np.uint8)])
    last = len(data) - 8
    windows = np.ndarray((last + 1,), dtype=np.uint64, buffer=data, strides=(1,))
    # np.take would copy the overlapping windows first
    out = windows[np.minimum(at, last)]
    k = int(np.searchsorted(at, at.dtype.type(last), side="right"))
    out[k:] >>= (8 * (at[k:] - last)).astype(np.uint64)
    return out


def _intern(codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids in order of first appearance for the tokens codes[s : s + l].

    Returns (the id of every token, the index of each id's first token).
    A token of w bytes packs into one uint64 key, its bytes over its
    3-bit width over its index, when 8w + 3 + bit_length(T - 1) <= 64
    for T tokens; one sort of the keys groups equal tokens, and each
    group's first key holds its first index.  Wider tokens are compared one
    width at a time, so zero-padding "a" cannot make it equal "a\\x00".
    """
    count = len(starts)
    index = _index_dtype(count)
    bits = (count - 1).bit_length()
    packs = lengths <= (61 - bits) // 8
    # every token's group of equal tokens, and each group's first token
    group = np.empty(count, dtype=index)
    firsts = []
    packed = None if packs.all() else np.flatnonzero(packs)
    if packed is None or len(packed):
        keys = _words(codes, starts if packed is None else starts[packed])
        width = (lengths if packed is None else lengths[packed]).astype(np.uint8)
        # shifting the bytes to the top and back down keeps only them;
        # the way down leaves 3 bits below them for the width
        shift = width << 3
        np.subtract(64, shift, out=shift)
        keys <<= shift
        shift -= 3
        keys >>= shift
        del shift
        keys |= width
        del width
        keys <<= np.uint64(bits)
        if packed is None:
            for lo in range(0, count, 1 << 16):
                keys[lo : lo + (1 << 16)] |= np.arange(lo, min(lo + (1 << 16), count), dtype=np.uint64)
        else:
            # flatnonzero's offsets are nonnegative, so read as uint64 as is
            keys |= packed.view(np.uint64)
        keys.sort()
        tokens = np.empty(len(keys), dtype=index)
        np.bitwise_and(keys, np.uint64((1 << bits) - 1), out=tokens, casting="unsafe")
        keys >>= np.uint64(bits)
        new = _run_starts(keys)
        del keys
        firsts.append(tokens[new])
        ids = np.cumsum(new, dtype=index)
        ids -= 1
        group[tokens] = ids
        del tokens, new, ids
    if packed is not None:
        wide = np.flatnonzero(~packs)
        wide = wide[np.argsort(lengths[wide], kind="stable")]
        for same in np.split(wide, np.flatnonzero(np.diff(lengths[wide])) + 1):
            width = int(lengths[same[0]])
            if width <= 8:
                keys = _words(codes, starts[same]) & np.uint64((1 << 8 * width) - 1)
            else:
                keys = sliding_window_view(codes, width)[starts[same]].view(f"S{width}").ravel()
            perm = np.argsort(keys)
            same = same[perm]
            new = _run_starts(keys[perm])
            group[same] = np.cumsum(new, dtype=index) + (sum(map(len, firsts)) - 1)
            firsts.append(np.minimum.reduceat(same, np.flatnonzero(new)))
    firsts = np.concatenate(firsts)
    is_first = np.zeros(count, dtype=bool)
    is_first[firsts] = True
    rank = np.cumsum(is_first, dtype=index)
    rank -= 1
    return rank[firsts][group], np.flatnonzero(is_first)


def _edge_tokens(codes: np.ndarray, ascii: bool) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of the first two tokens of every line that is
    neither blank nor a comment, in text order."""
    at, is_break = _whitespace(codes, ascii)
    # wide enough for the tokens' byte offsets too
    index = _index_dtype(len(codes) + 1)
    # -1 and len(codes) stand for the blanks around the text; a token
    # fills each gap between consecutive blanks
    edge = np.empty(len(at) + 2, dtype=index)
    edge[0], edge[-1] = -1, len(codes)
    edge[1:-1] = at
    del at
    span = np.diff(edge)
    gap = span > 1
    lengths = span[gap]
    del span
    lengths -= 1
    starts = edge[:-1][gap]
    del edge
    starts += 1
    # lines[i] counts the breaks up to edge[i]
    lines = np.zeros(len(gap), dtype=index)
    np.cumsum(is_break, out=lines[1:])
    del is_break
    line = lines[gap]
    del lines, gap
    first = np.ones(len(line) + 1, dtype=bool)
    np.not_equal(line[1:], line[:-1], out=first[1:-1])
    heads = np.flatnonzero(first[:-1])
    lead = codes[starts[heads]]
    comment = (lead == ord("%")) | (lead == ord("#"))
    short = heads[~comment & first[1:][heads]]
    if len(short):
        raise ParseError("expected at least two tokens", line_number=int(line[short[0]]) + 1)
    del line
    # the first two tokens of each line, but none of a comment's
    keep = first[:-1].copy()
    keep[1:] |= first[:-2]
    dropped = heads[comment]
    keep[dropped] = False
    dropped += 1
    keep[dropped[~first[dropped]]] = False
    return starts[keep], lengths[keep]


def _labels(codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> Labels:
    """The tokens codes[s : s + l], gathered into one buffer."""
    ends = np.cumsum(lengths, dtype=_index_dtype(int(lengths.sum())))
    # each output position's offset from its text position
    shift = np.repeat(starts - (ends - lengths), lengths)
    shift += np.arange(len(shift), dtype=shift.dtype)
    return Labels(codes[shift].tobytes(), ends)


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated edge pairs into a Graph.

    Lines starting with '%' or '#' are comments.  Tokens may be arbitrary
    strings; they are assigned 0-based ids in order of first appearance.
    Self-loops and repeated edges are dropped silently.  A line with fewer
    than two tokens, or an input with no surviving edges, is an error.
    Extra tokens after the first two (weights, timestamps) are ignored.

    Tokens split as str.split() does, and lines break as str.splitlines()
    breaks them.  One leading U+FEFF, a byte-order mark, is dropped.
    Tokens are the gaps between the whitespace of the text's UTF-8 bytes.
    """
    if not isinstance(text, str):
        raise TypeError(f"parse_edge_list takes a str, not {type(text).__name__}")
    data = text.encode("utf-8", "surrogatepass").removeprefix("\ufeff".encode())
    codes = np.frombuffer(data, dtype=np.uint8)
    starts, lengths = _edge_tokens(codes, data.isascii())
    if not len(starts):
        raise ParseError("no edges in input")
    ids, first = _intern(codes, starts, lengths)
    pairs = ids.reshape(-1, 2)
    if not (pairs[:, 0] != pairs[:, 1]).any():
        raise ParseError("no edges in input")
    starts, lengths = starts[first], lengths[first]
    del first
    labels = _labels(codes, starts, lengths)
    # the text's arrays go before the build allocates its own
    del data, codes, starts, lengths
    return Graph.from_edges(pairs, n=len(labels), labels=labels)


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components of the masked graph.

    component_id[v] is the smallest node id inside v's component, or -1
    for masked-out nodes.  gcc_size is the node count of the largest
    component, 0 when no node is active.
    """

    component_id: np.ndarray
    gcc_size: int


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
        return self.split(_component_labels(self.rows, self.indices, kept), c)

    def split(self, labels: np.ndarray, c: int) -> list["Subgraph"]:
        """The subgraphs on the groups of more than c local ids sharing a
        label >= 0.  A node's neighbours must share its label or carry
        -1, as they do for component labels."""
        kept = np.flatnonzero(labels >= 0)
        members = kept[np.bincount(labels[kept])[labels[kept]] > c]
        if not len(members):
            return []
        if len(members) == self.size and labels.min() == labels.max():
            # one group holds every id: the view is its own piece
            return [self]
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


def _gather_rows(indptr: np.ndarray, rows: np.ndarray, lengths: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The indptr, of the given dtype, of a CSR whose row j takes
    lengths[j] entries from row rows[j] of the CSR with the given indptr,
    and the source position of each of its entries; a row may read past
    its source row's end, by at most one past the source's last entry.
    The positions are int32 while the source's entries and the new CSR's
    fit, so gathering with them copies nothing to intp."""
    out = np.zeros(len(rows) + 1, dtype=dtype)
    np.cumsum(lengths, out=out[1:])
    index = _index_dtype(max(int(indptr[-1]), int(out[-1])))
    src = np.repeat((indptr[rows] - out[:-1]).astype(index), lengths)
    src += np.arange(len(src), dtype=index)
    return out, src


def _adjacency_flat(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray):
    """Flattened CSR rows of an id subset: (position in nodes per entry,
    neighbor per entry)."""
    counts = indptr[nodes + 1] - indptr[nodes]
    src = _gather_rows(indptr, nodes, counts, indptr.dtype)[1]
    return np.repeat(np.arange(len(nodes), dtype=_index_dtype(len(nodes))), counts), indices[src]


def _component_labels(rows: np.ndarray, indices: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Component labels of the kept ids of a CSR graph, given as the row
    and the column of each entry, -1 for the rest; a kept id's label is
    the smallest id in its component."""
    # one direction of each kept edge is enough for undirected labels
    entries = (rows < indices) & kept[rows] & kept[indices]
    a, b = rows[entries], indices[entries]
    # each round, every root takes the least root across its edges and
    # every id jumps to its root; an edge between equal roots is done
    labels = np.arange(len(kept))
    while len(a):
        la, lb = labels[a], labels[b]
        apart = la != lb
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(labels, la, lb)
        np.minimum.at(labels, lb, la)
        while not np.array_equal(up := labels[labels], labels):
            labels = up
    labels[~kept] = -1
    return labels


def components(graph: Graph, mask: NodeMask) -> ComponentDecomposition:
    """Decompose the masked graph into connected components."""
    active = np.asarray(mask, dtype=bool)
    if active.shape != (graph.n,):
        raise ValueError("mask length must equal graph.n")
    rows = np.repeat(np.arange(graph.n, dtype=graph.indices.dtype), graph.degree)
    component_id = _component_labels(rows, graph.indices, active)
    sizes = np.bincount(component_id[active])
    return ComponentDecomposition(component_id=component_id, gcc_size=int(sizes.max(initial=0)))
