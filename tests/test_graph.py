"""Parsing, component decomposition, and mask bookkeeping."""

import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netdismantle
from netdismantle import (
    ComponentDecomposition,
    Graph,
    ParseError,
    Subgraph,
    components,
    full_mask,
    parse_edge_list,
)
from netdismantle.graph import _SPAN, _adjacency_flat, _component_labels, _gather_rows

from conftest import BUNDLED, DATA_DIR, random_connected_graph, random_graph
from oracles import bfs_components, component_sizes, edges, gcc_size, id_map, largest_component, members


class TestParsing:
    def test_basic_two_column(self):
        g = parse_edge_list("1 2\n2 3\n")
        assert g.n == 3
        assert g.m == 2
        assert g.labels == ("1", "2", "3")

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("% a comment\n# another\n\na b\nb c\n")
        assert g.n == 3
        assert g.m == 2

    def test_first_appearance_ids(self):
        g = parse_edge_list("z y\ny x\n")
        assert id_map(g) == {"z": 0, "y": 1, "x": 2}

    def test_duplicate_edges_and_orientation_collapse(self):
        g = parse_edge_list("a b\nb a\na b\n")
        assert g.m == 1

    def test_self_loops_dropped(self):
        g = parse_edge_list("a a\na b\n")
        assert g.m == 1
        assert g.n == 2

    def test_extra_tokens_ignored(self):
        g = parse_edge_list("1 2 1.5 2009-01-01\n2 3 0.2\n")
        assert g.m == 2

    def test_short_line_rejected_with_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("1 2\nxyz\n")
        assert "line 2" in str(err.value)

    def test_no_edges_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_list("% only comments\n")
        with pytest.raises(ParseError):
            parse_edge_list("a a\n")

    def test_byte_order_mark_dropped(self):
        text = "1 2\n1 3\n2 3\n"
        assert_same_graph(parse_edge_list("\ufeff" + text), parse_edge_list(text))
        assert_same_graph(parse_edge_list("\ufeff% header\n" + text), parse_edge_list(text))
        # only one, and only at the start
        assert parse_edge_list("\ufeff\ufeff1 2\n").labels == ("\ufeff1", "2")
        assert parse_edge_list("1 2\n\ufeff1 3\n").labels == ("1", "2", "\ufeff1", "3")

    @pytest.mark.parametrize(
        "text", [["1 2\n"], (line for line in ["1 2\n"]), b"1 2\n"], ids=["list", "generator", "bytes"]
    )
    def test_only_a_str_parses(self, text):
        with pytest.raises(TypeError):
            parse_edge_list(text)

    def test_edges_lexicographically_sorted_and_canonical(self):
        g = parse_edge_list("5 1\n3 2\n5 2\n")
        e = edges(g)
        assert (e[:, 0] < e[:, 1]).all()
        assert (np.diff(e[:, 0]) >= 0).all()


def reference_from_edges(edges, n=None, labels=None):
    """The per-pair Graph.from_edges body the single-key build replaced."""
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    arr = arr.reshape(-1, 2)
    if len(arr) and arr.min() < 0:
        raise ValueError("node ids must be nonnegative")
    if len(arr):
        lo = arr.min(axis=1)
        hi = arr.max(axis=1)
        keep = lo != hi
        arr = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    n_seen = int(arr.max()) + 1 if len(arr) else 0
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
    src = np.concatenate([arr[:, 0], arr[:, 1]]) if len(arr) else np.empty(0, np.int64)
    dst = np.concatenate([arr[:, 1], arr[:, 0]]) if len(arr) else np.empty(0, np.int64)
    order = np.lexsort((dst, src))
    indices = dst[order]
    counts = np.bincount(src, minlength=n) if len(arr) else np.zeros(n, np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return Graph(n=n, indptr=indptr, indices=indices.astype(np.int32), labels=labels)


def reference_parse(text):
    """The per-line parser the vectorized pass replaced."""
    id_map: dict[str, int] = {}
    labels: list[str] = []
    edge_set: set[tuple[int, int]] = set()

    def intern(token: str) -> int:
        i = id_map.get(token)
        if i is None:
            i = len(labels)
            id_map[token] = i
            labels.append(token)
        return i

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError("expected at least two tokens", line_number=line_number)
        u = intern(tokens[0])
        v = intern(tokens[1])
        if u == v:
            continue
        edge_set.add((u, v) if u < v else (v, u))
    if not edge_set:
        raise ParseError("no edges in input")
    edges = np.array(sorted(edge_set), dtype=np.int64)
    return reference_from_edges(edges, n=len(labels), labels=labels)


def assert_same_graph(mine, ref):
    assert mine.n == ref.n
    assert mine.labels == ref.labels
    assert id_map(mine) == id_map(ref)
    arrays = {"edges": (edges(mine), edges(ref))}
    arrays.update((name, (getattr(mine, name), getattr(ref, name))) for name in ("indptr", "indices"))
    for name, (a, b) in arrays.items():
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name


def outcome(parse, text):
    """The parsed graph, or the ParseError's (message, line number)."""
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.line_number


def assert_same_outcome(text):
    mine, ref = outcome(parse_edge_list, text), outcome(reference_parse, text)
    if isinstance(ref, Graph):
        assert isinstance(mine, Graph), mine
        assert_same_graph(mine, ref)
    else:
        assert mine == ref


TOKENS = [
    "a", "b", "c", "0", "1", "10", "01", "a\x00", "\x00", "\x00a", "%c", "#d",
    "abcdefg1", "abcdefg2", "é", "ü1", "ü2", "𝔘", "x" * 9, "y" * 12 + "é",
    "node_with_a_long_label",
]
BLANKS = [" ", "\t", "  ", " \t", "\x1f", "\xa0", "\u3000"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def edge_lines(draw):
    """Lines of an edge list: mostly edges, some with extra tokens, some
    comments (also indented), blank or one-token lines."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19))
        low, high = (0, 1) if kind == 0 else (2, 4)
        tokens = draw(st.lists(st.sampled_from(TOKENS), min_size=low, max_size=high))
        if kind == 1 and len(tokens) > 1:
            tokens[1] = tokens[0]
        blank = draw(st.sampled_from(BLANKS))
        line = blank.join(tokens)
        if kind == 2:
            line = draw(st.sampled_from(["%", "#", "% ", "#\t"])) + line
        if draw(st.booleans()):
            line = draw(st.sampled_from(BLANKS)) + line
        if draw(st.booleans()):
            line += draw(st.sampled_from(BLANKS))
        line += draw(st.sampled_from(BREAKS))
        lines.append(line)
    return lines


def test_only_four_bytes_lead_multibyte_whitespace():
    # the scan selects 0xC2 and 0xE1 to 0xE3 by value before reading widths
    assert np.flatnonzero(_SPAN > 1).tolist() == [0xC2, 0xE1, 0xE2, 0xE3]


class TestParserReference:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_files(self, name):
        text = (DATA_DIR / name).read_text()
        assert_same_graph(parse_edge_list(text), reference_parse(text))

    @settings(max_examples=300, deadline=None)
    @given(lines=edge_lines())
    def test_drawn_texts(self, lines):
        assert_same_outcome("".join(lines))

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(alphabet="ab01%# \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000\x00é", max_size=60))
    def test_drawn_characters(self, text):
        assert_same_outcome(text)

    def test_every_whitespace_character_between_multibyte_labels(self):
        spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
        breaks = [c for c in spaces if len(f"x{c}x".splitlines()) == 2] + ["\r\n"]
        blanks = [c for c in spaces if c not in breaks]
        # 2-, 3- and 4-byte labels; "Š", "ą", "…" and U+2027, U+202A,
        # U+1681, U+3001 share bytes with multi-byte whitespace; a lone
        # surrogate encodes to a lead byte no whitespace starts with
        labels = ["é", "Š", "ą", "€", "…", "a…", "ąŠ1", "\u2027", "\u202a", "\u1681", "\u3001", "𝔘", "\ud800"]
        lines = [
            blanks[i % len(blanks)].join(["", labels[i % len(labels)], labels[i // 2 % len(labels)], "x", ""])
            + breaks[i % len(breaks)]
            for i in range(3 * len(spaces))
        ]
        text = "".join(lines)
        graph = parse_edge_list(text)
        assert set(labels) <= set(graph.labels)
        assert_same_graph(graph, reference_parse(text))

    def test_nul_suffix_tokens_stay_apart(self):
        g = parse_edge_list("a a\x00\na\x00\x00 a\n")
        assert g.labels == ("a", "a\x00", "a\x00\x00")
        assert g.m == 2

    def test_crlf_is_one_break(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("a b\r\nc d\r\r\ne\n")
        assert err.value.line_number == 4

    @pytest.mark.parametrize("extra", [["ab\x00", "\x00\x00"], ["ab\x00", "é", "ü", "éé", "𝔘"]])
    def test_packed_and_wide_tokens_past_two_to_the_seventeen(self, extra):
        # 2^17 < tokens <= 2^18 leaves 64 - 3 - 18 bits for a token's
        # bytes: 5-byte ids pack into one key, 6- to 9-byte ids do not;
        # a non-ASCII code point takes 2 to 4 of them
        pool = [f"{i:05d}" for i in range(40_000)] + [f"{i:0{6 + i % 4}d}" for i in range(5_000)]
        pairs = np.random.default_rng(17).integers(0, len(pool), size=(70_000, 2)).tolist()
        lines = ["% header\r\n"]
        lines += [
            f"{pool[u]} {pool[v]} 1.5\r\n" if i % 3 else f"{pool[u]}\t{pool[v]}\n" for i, (u, v) in enumerate(pairs)
        ]
        lines += [f"{token} {pool[i]}\r\n" for i, token in enumerate(extra)]
        assert 2 * len(pairs) > 2**17
        text = "".join(lines)
        assert_same_graph(parse_edge_list(text), reference_parse(text))

    @pytest.mark.parametrize(
        "edges",
        [[], [(3, 3)], [(0, 1)], [(2, 1), (1, 2), (0, 0), (4, 2)], np.zeros((0, 2), np.int64)],
    )
    def test_from_edges_small(self, edges):
        assert_same_graph(Graph.from_edges(edges), reference_from_edges(edges))
        assert_same_graph(Graph.from_edges(edges, n=6), reference_from_edges(edges, n=6))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 60), m=st.integers(0, 200))
    def test_from_edges_drawn(self, seed, n, m):
        pairs = np.random.default_rng(seed).integers(0, n, size=(m, 2))
        assert_same_graph(Graph.from_edges(pairs), reference_from_edges(pairs))
        assert_same_graph(Graph.from_edges(pairs, n=n), reference_from_edges(pairs, n=n))


def _traced_peak(parse, text):
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_stores_int32_indices_and_derives_edges_on_read():
    pairs = np.random.default_rng(9).integers(0, 3_000, size=(20_000, 2))
    g = parse_edge_list("".join(f"{u} {v}\n" for u, v in pairs.tolist()))
    assert g.indices.dtype == np.int32
    assert g.indptr.dtype == np.int64
    assert not hasattr(g, "edges")
    # each drawn pair once, as ids, (lo, hi) in lexicographic order
    ids_of = id_map(g)
    ids = np.array([ids_of[str(v)] for v in pairs.ravel().tolist()], dtype=np.int64).reshape(-1, 2)
    lo, hi = ids.min(axis=1), ids.max(axis=1)
    expected = np.unique(np.stack([lo, hi], axis=1)[lo != hi], axis=0)
    assert g.m == len(expected)
    derived = edges(g)
    assert derived.dtype == np.int64
    assert np.array_equal(derived, expected)


def test_parse_peak_memory_no_larger_than_reference():
    # about 100k edges over 20k nodes, as a benchmark input file is written
    pairs = np.random.default_rng(5).integers(0, 20_000, size=(100_000, 2))
    text = "% drawn\n" + "".join(f"{u} {v}\n" for u, v in pairs.tolist())
    assert _traced_peak(parse_edge_list, text) <= _traced_peak(reference_parse, text)


def test_parse_peak_memory_of_non_ascii_labels():
    # 50k edges whose labels start with a 2-, 3- or 4-byte character,
    # against ASCII labels of the same byte widths
    pairs = np.random.default_rng(3).integers(0, 20_000, size=(50_000, 2)).tolist()

    def text(heads):
        return "".join(f"{heads[u % 3]}{u} {heads[v % 3]}{v}\n" for u, v in pairs)

    wide, narrow = text(["é", "€", "𝔘"]), text(["ee", "eee", "eeee"])
    assert len(wide.encode()) == len(narrow)
    assert _traced_peak(parse_edge_list, wide) <= 1.15 * _traced_peak(parse_edge_list, narrow)


# the tracemalloc peak per character of the text below, 5.85 bytes under
# numpy 2.4, plus 4%; the parser that let np.take copy its int32 and
# uint8 indices to intp peaked at 7.80 bytes, and the per-line reference
# parser peaks higher still, so comparing with it would miss such a rise
PARSE_PEAK_BYTES_PER_CHAR = 6.10


def _drawn_text():
    """100k uniform pairs over 20k nodes, as a benchmark input is written."""
    pairs = np.random.default_rng(5).integers(0, 20_000, size=(100_000, 2))
    return "% drawn\n" + "".join(f"{u} {v}\n" for u, v in pairs.tolist())


def test_parse_peak_memory_per_character():
    text = _drawn_text()
    assert _traced_peak(parse_edge_list, text) <= PARSE_PEAK_BYTES_PER_CHAR * len(text)


# the traced bytes a graph parsed from the text above holds per node,
# 56.81 under numpy 2.4, plus 4%: 8 of indptr, 40 of int32 indices and
# 9 of labels in one UTF-8 buffer with int32 end offsets.  Labels held as
# a tuple of str objects took the graph to 109.8
GRAPH_BYTES_PER_NODE = 59.1


def test_parsed_graph_bytes_per_node():
    text = _drawn_text()
    tracemalloc.start()
    try:
        graph = parse_edge_list(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= GRAPH_BYTES_PER_NODE * graph.n


class TestLabels:
    """Labels read back as the str tokens they were given, from one buffer."""

    ODD = ("a b", "", "é", "𝔘", "\ud800")

    def graph(self):
        return Graph.from_edges([(i, i + 1) for i in range(len(self.ODD) - 1)], labels=iter(self.ODD))

    def test_odd_labels_round_trip(self):
        labels = self.graph().labels
        assert len(labels) == len(self.ODD)
        assert [labels[i] for i in range(len(labels))] == list(self.ODD)
        assert list(labels) == list(self.ODD)

    def test_equal_to_the_tuple_both_ways(self):
        labels = self.graph().labels
        assert labels == self.ODD and self.ODD == labels
        assert labels != self.ODD[:-1] and self.ODD[::-1] != labels

    def test_negative_index_and_one_past_the_end(self):
        labels = self.graph().labels
        assert labels[-1] == "\ud800" and labels[-len(self.ODD)] == "a b"
        with pytest.raises(IndexError):
            labels[len(self.ODD)]

    def test_slice_and_pickle(self):
        g = self.graph()
        assert g.labels[1:4] == self.ODD[1:4]
        assert g.labels[::-2] == self.ODD[::-2]
        back = pickle.loads(pickle.dumps(g))
        assert back.labels == self.ODD and back.labels == g.labels

    def test_labels_are_one_buffer(self):
        labels = parse_edge_list("é x\n𝔘 x\n").labels
        assert labels.data == "éx𝔘".encode()
        assert labels.ends.tolist() == [2, 3, 7] and labels.ends.dtype == np.int32

    def test_digits_when_none_are_given(self):
        assert Graph.from_edges([(0, 2)], n=4).labels == ("0", "1", "2", "3")

    def test_a_graph_built_with_a_tuple_keeps_it(self):
        g = Graph(n=2, indptr=np.array([0, 1, 2]), indices=np.array([1, 0], dtype=np.int32), labels=("u", "v"))
        assert g.labels == ("u", "v") and id_map(g) == {"u": 0, "v": 1}

    @pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.txt")), ids=lambda path: path.name)
    def test_bundled_labels_are_split_tokens_by_first_appearance(self, path):
        text = path.read_text()
        rows = [line.split() for line in text.splitlines()]
        tokens = [token for row in rows if row and row[0][0] not in "%#" for token in row[:2]]
        assert parse_edge_list(text).labels == tuple(dict.fromkeys(tokens))


class TestGatherRows:
    """Positions come out int32 while the source CSR's entries fit, so
    gathering with them copies nothing to intp."""

    def test_int32_positions_when_the_source_fits(self):
        g = random_graph(4, 60, 0.1)
        rows = np.array([5, 0, 59, 5, 17])
        lengths = np.diff(g.indptr)[rows] + 1  # each reads one past its row
        indptr, src = _gather_rows(g.indptr, rows, lengths, np.int64)
        assert src.dtype == np.int32
        assert indptr.tolist() == [0, *np.cumsum(lengths).tolist()]
        want = np.concatenate([np.arange(g.indptr[r], g.indptr[r] + k) for r, k in zip(rows, lengths)])
        assert src.tolist() == want.tolist()

    def test_one_past_the_last_int32_entry_stays_int32(self):
        indptr = np.array([0, 2**31 - 3, 2**31 - 1])
        src = _gather_rows(indptr, np.array([1]), np.array([3]), np.int64)[1]
        assert src.dtype == np.int32
        assert src.tolist() == [2**31 - 3, 2**31 - 2, 2**31 - 1]

    def test_int64_positions_past_int32(self):
        # a fake two-row indptr: nothing of its size is allocated
        indptr = np.array([0, 2**31 + 5, 2**31 + 9])
        out, src = _gather_rows(indptr, np.array([1, 0]), np.array([4, 2]), np.int32)
        assert src.dtype == np.int64
        assert out.dtype == np.int32
        assert src.tolist() == [2**31 + 5, 2**31 + 6, 2**31 + 7, 2**31 + 8, 0, 1]

    def test_adjacency_flat_rows_are_int32(self):
        g = random_graph(8, 40, 0.2)
        nodes = np.array([3, 39, 0])
        rows, nbrs = _adjacency_flat(g.indptr, g.indices, nodes)
        assert rows.dtype == np.int32
        assert rows.tolist() == np.repeat(np.arange(3), np.diff(g.indptr)[nodes]).tolist()
        assert nbrs.tolist() == [u for v in nodes for u in g.neighbors(v).tolist()]


class TestGraphShape:
    def test_degree_and_neighbors(self):
        g = Graph.from_edges([(0, 1), (1, 2), (1, 3)])
        assert g.degree.tolist() == [1, 3, 1, 1]
        assert sorted(g.neighbors(1).tolist()) == [0, 2, 3]

    def test_stats(self):
        g = Graph.from_edges([(0, 1), (1, 2)], n=4)
        assert g.stats() == {"n": 4, "m": 2, "degree_min": 0, "degree_max": 2}

    def test_explicit_n_too_small(self):
        with pytest.raises(ValueError):
            Graph.from_edges([(0, 5)], n=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges([(-1, 2)])


class TestComponents:
    def test_path_all_active(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        dec = components(g, full_mask(3))
        assert largest_component(dec) == 0
        assert dec.gcc_size == 3
        assert component_sizes(dec) == {0: 3}

    def test_component_ids_are_min_member(self):
        g = Graph.from_edges([(0, 1), (2, 3), (4, 5)], n=6)
        dec = components(g, full_mask(6))
        assert dec.component_id.tolist() == [0, 0, 2, 2, 4, 4]
        # three size-2 components tie; smallest id wins
        assert largest_component(dec) == 0

    def test_mask_removal_splits(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        mask = full_mask(4)
        mask[1] = False
        dec = components(g, mask)
        assert component_sizes(dec) == {0: 1, 2: 2}
        assert largest_component(dec) == 2
        assert dec.gcc_size == 2
        assert dec.component_id[1] == -1

    def test_empty_mask(self):
        g = Graph.from_edges([(0, 1)])
        dec = components(g, np.zeros(2, dtype=bool))
        assert largest_component(dec) == -1
        assert dec.gcc_size == 0
        assert component_sizes(dec) == {}

    def test_star_hub_inactive_gcc_is_one(self):
        # star S5: removing the hub isolates every leaf
        g = Graph.from_edges([(0, i) for i in range(1, 6)])
        mask = full_mask(6)
        mask[0] = False
        assert gcc_size(g, mask) == 1

    def test_members_sorted(self):
        g = Graph.from_edges([(3, 5), (5, 9)], n=10)
        dec = components(g, full_mask(10))
        assert members(dec, 3).tolist() == [3, 5, 9]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40), drop=st.integers(0, 30))
    def test_matches_bfs_oracle(self, seed, n, drop):
        g = random_graph(seed, n, 0.12)
        rng = np.random.default_rng(seed + 1)
        mask = full_mask(n)
        if drop and n > 1:
            mask[rng.choice(n, size=min(drop, n - 1), replace=False)] = False
        dec = components(g, mask)
        oracle = {frozenset(c) for c in bfs_components(g, mask)}
        mine = {
            frozenset(int(v) for v in members(dec, c)) for c in component_sizes(dec)
        }
        assert mine == oracle
        if oracle:
            assert dec.gcc_size == max(len(c) for c in oracle)
        for comp_id, size in component_sizes(dec).items():
            assert comp_id == min(int(v) for v in members(dec, comp_id))
            assert size == len(members(dec, comp_id))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
    def test_gcc_monotone_under_removal(self, seed, n):
        g = random_graph(seed, n, 0.15)
        rng = np.random.default_rng(seed)
        mask = full_mask(n)
        previous = gcc_size(g, mask)
        for v in rng.permutation(n):
            mask[v] = False
            current = gcc_size(g, mask)
            assert current <= previous
            previous = current

    @staticmethod
    def assert_matches_bfs(g, mask):
        expected = min_member_labels(g, mask)
        dec = components(g, mask)
        assert np.array_equal(dec.component_id, expected)
        assert dec.gcc_size == np.bincount(expected[expected >= 0]).max(initial=0)

    def test_long_path_with_shuffled_ids(self):
        # a long chain whose ids follow no order along it: labels must
        # travel the whole path, not just between neighbouring ids
        n = 200_000
        perm = np.random.default_rng(3).permutation(n)
        g = Graph.from_edges(np.stack([perm[:-1], perm[1:]], axis=1), n=n)
        self.assert_matches_bfs(g, full_mask(n))
        mask = full_mask(n)
        mask[perm[::10_000][1:]] = False
        self.assert_matches_bfs(g, mask)

    def test_grid_with_shuffled_ids(self):
        side = 450
        perm = np.random.default_rng(4).permutation(side * side)
        ids = perm.reshape(side, side)
        pairs = np.concatenate([
            np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
            np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1),
        ])
        g = Graph.from_edges(pairs, n=side * side)
        self.assert_matches_bfs(g, full_mask(g.n))
        # removing two crossing lines of the grid leaves four blocks
        mask = full_mask(g.n)
        mask[ids[side // 3, :]] = False
        mask[ids[:, side // 2]] = False
        self.assert_matches_bfs(g, mask)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_masked_graphs(self, seed):
        # mean degrees of 0.8 to 3 straddle the percolation threshold:
        # many components, and long thin trees
        rng = np.random.default_rng(seed)
        n = int(rng.integers(500, 3_000))
        g = Graph.from_edges(rng.integers(0, n, size=(int(n * rng.uniform(0.4, 1.5)), 2)), n=n)
        self.assert_matches_bfs(g, rng.random(n) < rng.uniform(0.5, 1.0))

    @pytest.mark.parametrize("seed", range(6))
    def test_pieces_label_by_smallest_local_id(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(seed, 300, 0.008)
        # global ids differ from local ones, so a label must be local
        view = Subgraph(3 * np.arange(g.n) + 1, g.indptr, g.indices)
        kept = rng.random(g.n) < 0.8
        expected = min_member_labels(g, kept)
        labels = _component_labels(view.rows, view.indices, kept)
        assert np.array_equal(labels, expected)
        roots, sizes = np.unique(expected[kept], return_counts=True)
        pieces = view.pieces(kept, 1)
        local = [np.searchsorted(view.nodes, piece.nodes) for piece in pieces]
        assert [int(ids[0]) for ids in local] == roots[sizes > 1].tolist()
        for ids in local:
            assert (labels[ids] == ids[0]).all()


class TestSplit:
    def test_one_group_of_every_id_is_the_view_itself(self):
        g = random_connected_graph(4, 60)
        view = Subgraph(np.arange(g.n), g.indptr, g.indices)
        (piece,) = view.split(np.zeros(g.n, dtype=np.int64), 10)
        assert piece is view
        # a copied piece: every id but the last
        labels = np.zeros(g.n, dtype=np.int64)
        labels[-1] = -1
        (copied,) = view.split(labels, 10)
        assert copied is not view
        assert (piece.indptr.dtype, piece.indices.dtype) == (copied.indptr.dtype, copied.indices.dtype)

    def test_two_groups_of_every_id_are_copied(self):
        # two components of 7 and 5 nodes, their ids interleaved; with c = 4
        # both groups are kept and together hold every id
        rng = np.random.default_rng(8)
        ids = rng.permutation(12)
        groups = [np.sort(ids[:7]), np.sort(ids[7:])]
        pairs = [(int(a[i]), int(a[i + 1])) for a in (ids[:7], ids[7:]) for i in range(len(a) - 1)]
        g = Graph.from_edges(pairs + [(int(ids[0]), int(ids[6])), (int(ids[7]), int(ids[9]))], n=12)
        view = Subgraph(np.arange(g.n), g.indptr, g.indices)
        labels = np.zeros(g.n, dtype=np.int64)
        labels[groups[1]] = groups[1][0]
        labels[groups[0]] = groups[0][0]
        pieces = view.split(labels, 4)
        assert len(pieces) == 2 and all(piece is not view for piece in pieces)
        for piece, group in zip(pieces, sorted(groups, key=lambda a: a[0])):
            assert np.array_equal(piece.nodes, group)
            # the induced subgraph in local ids, as the copying path builds it
            local = np.searchsorted(group, edges(g))
            inside = np.isin(edges(g), group).all(axis=1)
            expected = Graph.from_edges(local[inside], n=len(group))
            assert np.array_equal(piece.indptr, expected.indptr) and piece.indptr.dtype == np.int64
            assert np.array_equal(piece.indices, expected.indices) and piece.indices.dtype == np.int32


def min_member_labels(g, mask):
    """Each active node's smallest fellow member by BFS, -1 for the rest."""
    labels = np.full(g.n, -1)
    for comp in bfs_components(g, mask):
        labels[list(comp)] = min(comp)
    return labels


def test_import_leaves_csgraph_unloaded():
    # a fresh process: the tests themselves may have imported csgraph
    src = str(Path(netdismantle.__file__).resolve().parents[1])
    code = "import sys, netdismantle; print('scipy.sparse.csgraph' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
