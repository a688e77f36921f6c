"""Parsing, component decomposition, and mask bookkeeping."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdismantle import (
    ComponentDecomposition,
    Graph,
    ParseError,
    components,
    full_mask,
    parse_edge_list,
)
from netdismantle.graph import _SPAN

from conftest import BUNDLED, DATA_DIR, random_graph
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


# the tracemalloc peak per character of the text below that the parser
# with a per-character scan and per-width argsorts reached (16.03 bytes
# under numpy 2.4); the per-line reference parser peaks about 1.7 times
# higher, so comparing with it would miss a rise of that size
PARSE_PEAK_BYTES_PER_CHAR = 16.04


def test_parse_peak_memory_per_character():
    pairs = np.random.default_rng(5).integers(0, 20_000, size=(100_000, 2))
    text = "% drawn\n" + "".join(f"{u} {v}\n" for u, v in pairs.tolist())
    assert _traced_peak(parse_edge_list, text) <= PARSE_PEAK_BYTES_PER_CHAR * len(text)


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
