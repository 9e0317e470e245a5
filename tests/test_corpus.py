"""Loader, embedding, and splitting contracts."""

import base64
import re
from dataclasses import replace
from decimal import Context, Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectcite import (
    TokenizedDocument,
    WordVectorTable,
    build_graph,
    embed_text,
    load_edge_list,
    load_node_features,
    load_node_text,
    load_word_vectors,
    split_edges,
)
from aspectcite import corpus
from aspectcite.corpus import SPLIT_NAMES, CorpusFormatError
from aspectcite.seeding import substream


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadEdgeList:
    def test_direct_parse(self, tmp_path):
        res = load_edge_list(write(tmp_path, "e.tsv", "A\tB\nB\tC\n"))
        assert res.edges == [("A", "B"), ("B", "C")]
        assert res.duplicate_count == 0 and res.self_loop_count == 0

    def test_duplicates_dropped_and_counted(self, tmp_path):
        res = load_edge_list(write(tmp_path, "e.tsv", "A\tB\nA\tB\n"))
        assert res.edges == [("A", "B")]
        assert res.duplicate_count == 1

    def test_duplicates_keep_first_appearance_order(self, tmp_path):
        res = load_edge_list(write(tmp_path, "e.tsv", "A\tB\nB\tC\nA\tB\nB\tA\nB\tC\nC\tA\n"))
        assert res.edges == [("A", "B"), ("B", "C"), ("B", "A"), ("C", "A")]  # a reversed pair is its own edge
        assert res.duplicate_count == 2 and res.self_loop_count == 0

    def test_self_loops_dropped_and_counted(self, tmp_path):
        res = load_edge_list(write(tmp_path, "e.tsv", "A\tA\n"))
        assert res.edges == []
        assert res.self_loop_count == 1

    def test_comments_and_blank_lines(self, tmp_path):
        res = load_edge_list(write(tmp_path, "e.tsv", "# header\nA\tB\n\nB\tC\n"))
        assert res.edges == [("A", "B"), ("B", "C")]

    def test_malformed_line_names_line_number(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_edge_list(write(tmp_path, "e.tsv", "A\tB\nA\tB\tx\ty\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="empty"):
            load_edge_list(write(tmp_path, "e.tsv", ""))

    def test_single_field_line_rejected(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="line 3: expected 2 tab-separated fields, got 1$"):
            load_edge_list(write(tmp_path, "e.tsv", "A\tB\n# c\nC\n"))

    @pytest.mark.parametrize("third", ["1999", "never", ""])
    def test_third_field_rejected(self, tmp_path, third):
        with pytest.raises(CorpusFormatError, match="line 2: expected 2 tab-separated fields, got 3$"):
            load_edge_list(write(tmp_path, "e.tsv", f"A\tB\nB\tC\t{third}\n"))


class TestLoadWordVectors:
    def test_direct_parse(self, tmp_path):
        table = load_word_vectors(write(tmp_path, "v.txt", "a 1.0 0.0\nb 0.0 1.0\n"))
        assert table.dimension == 2
        assert np.allclose(table.vectors["a"], [1, 0])
        assert np.allclose(table.vectors["b"], [0, 1])

    def test_dimension_mismatch_names_line(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_word_vectors(write(tmp_path, "v.txt", "a 1.0\nb 2.0 3.0\n"))

    def test_hash_row_is_a_token_not_a_comment(self, tmp_path):
        table = load_word_vectors(write(tmp_path, "v.txt", "# 1 2\nthe 3 4\n"))
        assert table.dimension == 2
        assert table.vectors["#"].tolist() == [1.0, 2.0]
        assert table.vectors["the"].tolist() == [3.0, 4.0]

    def test_first_occurrence_wins(self, tmp_path):
        table = load_word_vectors(write(tmp_path, "v.txt", "a 1.0 0.0\na 9.0 9.0\n"))
        assert len(table) == 1
        assert np.allclose(table.vectors["a"], [1, 0])

    def test_non_numeric_rejected(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="non-numeric"):
            load_word_vectors(write(tmp_path, "v.txt", "a 1.0 oops\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity", "-NaN"])
    def test_non_finite_rejected_naming_line(self, tmp_path, value):
        # the bad row is a later duplicate token, which the table would not keep
        path = write(tmp_path, "v.txt", f"a 1.0 0.0\n\nb 0.5 2.0\na {value} 1.0\nc 1.0 1.0\n")
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: line 4: non-finite vector component")):
            load_word_vectors(path)

    @pytest.mark.parametrize("content, message", [
        ("a 1.0 0.0\n\nb 0.5 2.0\nc 1.0 oops\n", "line 4: non-numeric vector component"),
        ("a 1.0 0.0\n\nb 0.5 2.0\nc 1.0 2.0 3.0\n", "line 4: expected 2 components, got 3"),
        ("a 1.0 0.0\n\nb 0.5 2.0\nc\n", "line 4: expected 2 components, got 0"),
        ("a 1.0 0.0\n\nb 0.5 2.0\na oops 1.0\n", "line 4: non-numeric vector component"),
        ("\na\nb 1.0\n", "line 2: no vector components"),
    ])
    def test_malformed_later_line_named(self, tmp_path, content, message):
        path = write(tmp_path, "v.txt", content)
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: {message}")):
            load_word_vectors(path)


class TestLoadNodeText:
    def test_multiple_rows_per_node(self, tmp_path):
        docs = load_node_text(write(tmp_path, "t.tsv", "p1\ttitle\tdeep nets\np1\tabstract\twe study nets\n"))
        assert docs["p1"].channels["title"] == ("deep", "nets")
        assert docs["p1"].channels["abstract"] == ("we", "study", "nets")

    def test_unknown_channel_rejected(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="unknown channel"):
            load_node_text(write(tmp_path, "t.tsv", "p1\tbody\twords\n"))

    def test_duplicate_channel_rejected(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="duplicate channel"):
            load_node_text(write(tmp_path, "t.tsv", "p1\ttitle\ta\np1\ttitle\tb\n"))

    def test_node_subset_is_the_full_load_restricted(self, tmp_path):
        path = write(tmp_path, "t.tsv", "p1\ttitle\ta b\np2\ttitle\tc\np3\tclaim\t\np1\tabstract\td  e\np2\tclaim\tf\n")
        full = load_node_text(path)
        for nodes in ([], ["p1"], ["p3", "p1"], ["p2", "ghost"], ["p1", "p2", "p3"]):
            assert load_node_text(path, nodes=nodes) == {n: doc for n, doc in full.items() if n in nodes}

    @pytest.mark.parametrize("line,message", [
        ("p9\ttitle", "expected 3 tab-separated fields"),
        ("p9\tbody\twords", "unknown channel"),
        ("p2\ttitle\tagain", "duplicate channel"),
        ("\ttitle\twords", "empty node id"),
    ])
    def test_node_subset_still_checks_every_line(self, tmp_path, line, message):
        path = write(tmp_path, "t.tsv", f"p1\ttitle\ta\np2\ttitle\tb\n{line}\n")
        with pytest.raises(CorpusFormatError, match=f"line 3: {message}"):
            load_node_text(path, nodes=["p1"])


class TestLoadNodeFeatures:
    def test_parse(self, tmp_path):
        feats = load_node_features(write(tmp_path, "f.tsv", "p1\t1 0 1\np2\t0 1 0\n"))
        assert np.allclose(feats["p1"], [1, 0, 1])

    def test_inconsistent_dimension_rejected(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_node_features(write(tmp_path, "f.tsv", "p1\t1 0\np2\t1 2 3\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity", "-NaN"])
    def test_non_finite_rejected_naming_line(self, tmp_path, value):
        path = write(tmp_path, "f.tsv", f"# header\np1\t1 0 1\np2\t0 {value} 0\np3\t{value} 1 1\n")
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: line 3: non-finite feature component")):
            load_node_features(path)

    def test_largest_finite_values_accepted(self, tmp_path):
        feats = load_node_features(write(tmp_path, "f.tsv", "p1\t1.7976931348623157e308 -5e-324\n"))
        assert feats["p1"].tolist() == [np.finfo(float).max, -5e-324]

    @pytest.mark.parametrize("content, message", [
        ("# header\np1\t1 0 1\n\np2\t0 x 1\n", "line 4: non-numeric feature component"),
        ("# header\np1\t1 0 1\n\np2\t0 1\n", "line 4: expected 3 components, got 2"),
        ("# header\np1\t1 0 1\n\np2\t   \n", "line 4: expected 3 components, got 0"),
        ("# header\np1\t1 0 1\n\np1\t0 1 0\n", "line 4: duplicate node id 'p1'"),
        ("# header\np1\t1 0 1\n\np2\t0 1 0\tx\n", "line 4: expected `node_id<TAB>values`, got 3 fields"),
        # the first bad line is named, as when each line was parsed in turn
        ("# header\np1\t1 x 1\n\np1\t0 1 0\n", "line 2: non-numeric feature component"),
        ("# header\np1\t1 0 1\np2\t1\n\np1\t0 1 0\n", "line 3: expected 3 components, got 1"),
    ])
    def test_malformed_later_line_named(self, tmp_path, content, message):
        path = write(tmp_path, "f.tsv", content)
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: {message}")):
            load_node_features(path)

    @pytest.mark.parametrize("content, line", [("p1\t\np2\t\n", 1), ("# header\n\np1\t   \np2\t1 2\n", 3)])
    def test_row_without_components_rejected(self, tmp_path, content, line):
        path = write(tmp_path, "f.tsv", content)
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: line {line}: no feature components")):
            load_node_features(path)

    def test_rows_share_one_matrix(self, tmp_path):
        feats = load_node_features(write(tmp_path, "f.tsv", "p1\t1 2\np2\t3 4\n"))
        assert feats["p1"].base is not None and feats["p1"].base is feats["p2"].base


def _midpoint(x: float) -> Decimal:
    """The exact decimal midpoint between x and its neighbouring double toward zero."""
    ctx = Context(prec=2000)
    return ctx.divide(ctx.add(Decimal(x), Decimal(float(np.nextafter(x, 0.0)))), 2)


# Spellings of one double: shortest repr, 17 significant digits, a 41-digit
# mantissa, the exact decimal expansion, an exact halfway case (rounds half to
# even) and a near-halfway one, which a parse through 80-bit long double
# would round twice and get wrong about half the time.
TOKEN_FORMATS = (
    repr, lambda x: "%.17g" % x, lambda x: "%.40e" % x, lambda x: str(Decimal(x)),
    lambda x: str(_midpoint(x)), lambda x: format(_midpoint(x), ".25g"),
)
TOKENS = st.builds(lambda x, spell: spell(x), st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(TOKEN_FORMATS))
TOKEN_ROWS = st.integers(1, 4).flatmap(
    lambda dim: st.lists(st.lists(TOKENS, min_size=dim, max_size=dim), min_size=1, max_size=6)
)


class TestNumericParse:
    """Both numeric loaders: values bit-for-bit `float(token)`, each row under its own id."""

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.int64).tolist()

    @given(rows=TOKEN_ROWS, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_node_features_bit_exact_and_aligned(self, tmp_path_factory, rows, data):
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        filler = st.lists(st.sampled_from(["", "   ", "\t", "# 1 2 comment", "  # indented"]), max_size=2)
        spaces = st.text(alphabet=" \x0b\x0c\u3000", min_size=1, max_size=3)
        lines = []
        for i, tokens in enumerate(rows):
            lines += data.draw(filler)
            sep = data.draw(spaces)
            lines.append(f"p{i}\t{data.draw(st.sampled_from(['', sep]))}{sep.join(tokens)}{data.draw(st.sampled_from(['', sep]))}")
        path = tmp_path_factory.mktemp("features") / "f.tsv"
        path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
        feats = load_node_features(path)
        assert list(feats) == [f"p{i}" for i in range(len(rows))]
        for i, tokens in enumerate(rows):
            assert self.bits(feats[f"p{i}"]) == self.bits([float(t) for t in tokens])

    @given(rows=TOKEN_ROWS, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_word_vectors_bit_exact_and_aligned(self, tmp_path_factory, rows, data):
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        filler = st.lists(st.sampled_from(["", "   ", "\t \x0c"]), max_size=2)
        spaces = st.text(alphabet=" \t\x0b\u3000", min_size=1, max_size=3)
        lines = []
        for i, tokens in enumerate(rows):
            lines += data.draw(filler)
            sep = data.draw(spaces)
            lines.append(f"{data.draw(st.sampled_from(['', sep]))}w{i}{sep}{sep.join(tokens)}{data.draw(st.sampled_from(['', sep]))}")
        path = tmp_path_factory.mktemp("vectors") / "v.txt"
        path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
        table = load_word_vectors(path)
        assert list(table.vectors) == [f"w{i}" for i in range(len(rows))]
        for i, tokens in enumerate(rows):
            assert self.bits(table.vectors[f"w{i}"]) == self.bits([float(t) for t in tokens])

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11"])
    def test_tokens_only_float_accepts_are_non_numeric(self, tmp_path, token):
        # float() takes underscore digit groups and non-ASCII digits; the C parser does not
        float(token)
        path = write(tmp_path, "f.tsv", f"p1\t1 2\np2\t3 {token}\n")
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: line 2: non-numeric feature component")):
            load_node_features(path)
        path = write(tmp_path, "v.txt", f"a 1 2\nb {token} 3\n")
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: line 2: non-numeric vector component")):
            load_word_vectors(path)


def spy_loadtxt(monkeypatch):
    """Record the dtype of every `np.loadtxt` call the loaders make."""
    dtypes, loadtxt = [], np.loadtxt

    def spy(rows, dtype, **kwargs):
        dtypes.append(np.dtype(dtype).name)
        return loadtxt(rows, dtype=dtype, **kwargs)

    monkeypatch.setattr(corpus.np, "loadtxt", spy)
    return dtypes


class TestIntegerRows:
    """Rows of single digits joined by single spaces are read as bytes, and
    any other rows take numpy's float reader; every value is bit-for-bit
    `float(token)`."""

    bits = staticmethod(TestNumericParse.bits)

    @pytest.mark.parametrize("rows, dtypes", [
        (["1 0 1", "0 9 0"], []),  # single digits: no loadtxt call at all
        (["7"], []),
        (["1  0 1", "0 1 0"], ["float64"]),  # two spaces
        (["1 0 1 ", "0 1 0 "], ["float64"]),
        (["1 0 1\x0b", "0 1 0"], ["float64"]),
        (["1 10 1"], ["float64"]),
        (["1\u30000"], ["float64"]),  # a non-ASCII space
        (["-0 1", "0 -0"], ["float64"]),  # float("-0") carries a sign bit
        (["-5 3"], ["float64"]),
        (["+7 007", "0 +0"], ["float64"]),
        ([f"{2**53 + 1} 1"], ["float64"]),  # rounds to even, 2**53
        ([f"{2**63 - 1} {2**63 - 1025}"], ["float64"]),
        ([f"1 {2**63}"], ["float64"]),
        (["1 0", "0 1", "1 1", "0.5 1"], ["float64"]),
        (["1.5 2"], ["float64"]),
        (["1e3 2"], ["float64"]),
    ])
    def test_features_bit_exact_on_the_expected_reader(self, tmp_path, monkeypatch, rows, dtypes):
        path = write(tmp_path, "f.tsv", "".join(f"p{i}\t{row}\n" for i, row in enumerate(rows)))
        seen = spy_loadtxt(monkeypatch)
        feats = load_node_features(path)
        assert seen == dtypes
        for i, row in enumerate(rows):
            assert self.bits(feats[f"p{i}"]) == self.bits([float(t) for t in row.split()])

    def test_word_vectors_take_the_float_reader(self, tmp_path, monkeypatch):
        # a word-vector row keeps its line end, so even single digits take the float reader
        path = write(tmp_path, "v.txt", "a 1 2 3\nb 0 +40 007\n# 9 9 9\n")
        seen = spy_loadtxt(monkeypatch)
        table = load_word_vectors(path)
        assert seen == ["float64"]
        assert {t: v.tolist() for t, v in table.vectors.items()} == {"a": [1, 2, 3], "b": [0, 40, 7], "#": [9, 9, 9]}
        assert all(v.dtype == np.float64 for v in table.vectors.values())

    @pytest.mark.parametrize("row", ["0 1_0 1", "0 \u0661 1", "0 x 1", "0 \u0661"])
    def test_malformed_integer_row_named_as_before(self, tmp_path, row):
        path = write(tmp_path, "f.tsv", f"p1\t1 0 1\np2\t{row}\n")
        message = "expected 3 components, got 2" if row.count(" ") == 1 else "non-numeric feature component"
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: line 2: {message}")):
            load_node_features(path)

    def test_cora_shaped_file_equals_its_other_spellings(self, tmp_path, monkeypatch):
        """A 2708 x 1433 0/1 file gives the same matrix on both readers: as
        written, with double spaces, and with every value as `v.0`."""
        values = (np.random.default_rng(3).random((2708, 1433)) < 0.0127).astype(int).tolist()
        spellings = {"": [], "  ": ["float64"], ".0": ["float64"]}
        matrices = []
        for spelling, dtypes in spellings.items():
            sep, suffix = (spelling, "") if spelling.isspace() else (" ", spelling)
            path = write(tmp_path, f"f{len(matrices)}.tsv",
                         "".join(f"p{i}\t{sep.join(f'{v}{suffix}' for v in row)}\n" for i, row in enumerate(values)))
            seen = spy_loadtxt(monkeypatch)
            feats = load_node_features(path)
            assert seen == dtypes and list(feats) == [f"p{i}" for i in range(2708)]
            matrices.append(np.stack(list(feats.values())))
        assert all(m.dtype == np.float64 and m.tobytes() == matrices[0].tobytes() for m in matrices)
        assert matrices[0].sum() == sum(map(sum, values))

    @given(rows=st.integers(1, 4).flatmap(lambda dim: st.lists(
        st.lists(st.tuples(st.one_of(st.integers(0, 9), st.integers(0, 2**64)), st.sampled_from(["{}", "+{}", "00{}"])),
                 min_size=dim, max_size=dim),
        min_size=1, max_size=5,
    )), sep=st.sampled_from([" ", " ", "  ", "\x0b", "\u3000"]))
    @settings(max_examples=200, deadline=None)
    def test_integer_tokens_bit_exact(self, tmp_path_factory, rows, sep):
        tokens = [[spell.format(v) for v, spell in row] for row in rows]
        path = tmp_path_factory.mktemp("ints") / "f.tsv"
        path.write_text("".join(f"p{i}\t{sep.join(row)}\n" for i, row in enumerate(tokens)), encoding="utf-8")
        feats = load_node_features(path)
        for i, row in enumerate(tokens):
            assert self.bits(feats[f"p{i}"]) == self.bits([float(t) for t in row])


TABLE = WordVectorTable(dimension=2, vectors={"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})


class TestEmbedText:
    def test_empty_tokens_give_zero_vector(self):
        doc = TokenizedDocument("p", {"title": ()})
        vec, oov = embed_text(doc, ("title",), TABLE)
        assert np.array_equal(vec, np.zeros(2)) and oov == 0.0

    def test_single_token_mean(self):
        doc = TokenizedDocument("p", {"title": ("a",)})
        vec, oov = embed_text(doc, ("title",), TABLE)
        assert np.allclose(vec, [1, 0]) and oov == 0.0

    def test_two_token_mean(self):
        doc = TokenizedDocument("p", {"title": ("a", "b")})
        vec, _ = embed_text(doc, ("title",), TABLE)
        assert np.allclose(vec, [0.5, 0.5])

    def test_oov_skipped_not_zero_padded(self):
        doc = TokenizedDocument("p", {"title": ("a", "zzz")})
        vec, oov = embed_text(doc, ("title",), TABLE)
        assert np.allclose(vec, [1, 0])
        assert oov == pytest.approx(0.5)

    def test_all_oov_gives_zero_vector(self):
        doc = TokenizedDocument("p", {"title": ("x", "y")})
        vec, oov = embed_text(doc, ("title",), TABLE)
        assert np.array_equal(vec, np.zeros(2)) and oov == 1.0

    def test_channels_concatenated_before_mean(self):
        doc = TokenizedDocument("p", {"title": ("a",), "abstract": ("b", "b")})
        vec, _ = embed_text(doc, ("title", "abstract"), TABLE)
        assert np.allclose(vec, [1 / 3, 2 / 3])

    def test_absent_channel_allowed(self):
        doc = TokenizedDocument("p", {"title": ("a",)})
        vec, _ = embed_text(doc, ("title", "abstract"), TABLE)
        assert np.allclose(vec, [1, 0])

    def test_empty_channel_selection_rejected(self):
        doc = TokenizedDocument("p", {"title": ("a",)})
        with pytest.raises(ValueError):
            embed_text(doc, (), TABLE)

    @given(st.lists(st.sampled_from(["a", "b", "zzz"]), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_mean_norm_bounded_by_max_token_norm(self, tokens):
        doc = TokenizedDocument("p", {"title": tuple(tokens)})
        vec, _ = embed_text(doc, ("title",), TABLE)
        max_norm = max((np.linalg.norm(v) for v in TABLE.vectors.values()), default=0.0)
        assert np.linalg.norm(vec) <= max_norm + 1e-12


class TestSplitEdges:
    def test_largest_remainder_sizes(self, small_graph):
        # 40 edges at (0.8, 0.1, 0.1) -> (32, 4, 4)
        split = split_edges(small_graph, (0.8, 0.1, 0.1), 1, seed=0)
        assert (len(split.train_edges), len(split.validation_edges), len(split.test_edges)) == (32, 4, 4)

    def test_ten_edges_example(self):
        edges = [(f"s{i}", f"t{i}") for i in range(10)]
        graph = build_graph(edges)
        split = split_edges(graph, (0.8, 0.1, 0.1), 1, seed=3)
        assert (len(split.train_edges), len(split.validation_edges), len(split.test_edges)) == (8, 1, 1)

    def test_determinism_bit_for_bit(self, small_graph):
        a = split_edges(small_graph, (0.8, 0.1, 0.1), 2, seed=42)
        b = split_edges(small_graph, (0.8, 0.1, 0.1), 2, seed=42)
        assert a == b

    def test_different_seed_changes_split(self, small_graph):
        a = split_edges(small_graph, (0.8, 0.1, 0.1), 1, seed=1)
        b = split_edges(small_graph, (0.8, 0.1, 0.1), 1, seed=2)
        assert a != b

    def test_partition_is_exact_and_disjoint(self, small_graph):
        split = split_edges(small_graph, (0.6, 0.2, 0.2), 1, seed=9)
        parts = [set(map(tuple, split.edges_of(name).tolist())) for name in ("train", "validation", "test")]
        assert parts[0] | parts[1] | parts[2] == set(map(tuple, small_graph.edge_array.tolist()))
        assert sum(len(p) for p in parts) == small_graph.num_edges

    def test_negatives_never_edges_nor_self_loops(self, small_graph):
        split = split_edges(small_graph, (0.8, 0.1, 0.1), 3, seed=11)
        for part in split.negatives.values():
            for i, j in part:
                assert i != j
                assert not small_graph.has_edge(i, j)

    def test_ratio_sum_violation_rejected(self, small_graph):
        with pytest.raises(ValueError, match="sum to 1"):
            split_edges(small_graph, (0.8, 0.1, 0.2), 1, seed=0)

    @pytest.mark.parametrize("ratios, message", [
        # NaN once passed every comparison and failed later, as "cannot convert float NaN to integer"
        ((float("nan"), 0.5, 0.5), "three nonnegative reals"),
        ((0.5, 0.5, float("nan")), "three nonnegative reals"),
        ((float("inf"), 0.0, 0.0), "sum to 1"),
        ((0.5, -0.1, 0.6), "three nonnegative reals"),
        ((0.8, 0.2), "three nonnegative reals"),
        ((0.4, 0.2, 0.2, 0.2), "three nonnegative reals"),
    ])
    def test_bad_ratios_rejected(self, small_graph, ratios, message):
        with pytest.raises(ValueError, match=message):
            split_edges(small_graph, ratios, 1, seed=0)
        with pytest.raises(ValueError, match=message):
            corpus.check_split_options(ratios, 1)

    @pytest.mark.parametrize("negatives, message", [
        (1.5, "must be an integer, got 1.5"),  # once a TypeError from the sampler
        (2.0, "must be an integer, got 2.0"),
        (True, "must be an integer, got True"),
        ("2", "must be an integer, got '2'"),
        (0, "must be a positive integer, got 0"),
        (-1, "must be a positive integer, got -1"),
    ])
    def test_bad_negatives_per_positive_rejected(self, small_graph, negatives, message):
        with pytest.raises(ValueError, match=re.escape(f"negatives_per_positive {message}")):
            split_edges(small_graph, (0.8, 0.1, 0.1), negatives, seed=0)

    def test_options_checked_and_ratios_returned_as_floats(self, small_graph):
        assert corpus.check_split_options([1, 0, "0"], np.int64(2)) == (1.0, 0.0, 0.0)
        assert split_edges(small_graph, (0.8, 0.1, 0.1), np.int64(2), seed=0) == split_edges(
            small_graph, (0.8, 0.1, 0.1), 2, seed=0)

    def test_too_few_edges_rejected(self):
        graph = build_graph([("a", "b"), ("b", "c")])
        with pytest.raises(ValueError, match="at least 10"):
            split_edges(graph, (0.8, 0.1, 0.1), 1, seed=0)

    def test_negatives_exhausted_rejected(self):
        # complete digraph on 4 nodes: no non-edges at all
        nodes = ["a", "b", "c", "d"]
        edges = [(x, y) for x in nodes for y in nodes if x != y]
        graph = build_graph(edges)
        with pytest.raises(ValueError, match="non-edges"):
            split_edges(graph, (0.8, 0.1, 0.1), 1, seed=0)

    def test_manifest_round_trip(self, small_graph):
        split = split_edges(small_graph, (0.8, 0.1, 0.1), 1, seed=5)
        from aspectcite.corpus import DatasetSplit

        assert DatasetSplit.from_dict(split.to_dict(), small_graph) == split

    def test_parts_are_read_only_int64_pair_arrays_before_and_after_round_trip(self, small_graph):
        from aspectcite.corpus import DatasetSplit

        split = split_edges(small_graph, (0.8, 0.1, 0.1), 2, seed=5)
        loaded = DatasetSplit.from_dict(split.to_dict(), small_graph)
        for s in (split, loaded):
            arrays = [s.train_edges, s.validation_edges, s.test_edges, *s.negatives.values()]
            for array in arrays:
                assert array.dtype == np.int64 and array.ndim == 2 and array.shape[1] == 2
                assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            split.train_edges[0, 0] = 0

    def test_empty_part_round_trips(self, small_graph):
        from aspectcite.corpus import DatasetSplit

        split = split_edges(small_graph, (1.0, 0.0, 0.0), 1, seed=5)
        assert split.validation_edges.shape == (0, 2) and split.negatives["test"].shape == (0, 2)
        payload = split.to_dict()
        assert payload["validation"] == "" and payload["negatives"]["test"] == ""
        assert DatasetSplit.from_dict(payload, small_graph) == split

    def test_parts_pack_as_base64_of_little_endian_int64_pairs(self, small_graph):
        split = split_edges(small_graph, (0.8, 0.1, 0.1), 1, seed=5)
        payload = split.to_dict()
        for name in ("train", "validation", "test"):
            assert base64.b64decode(payload[name]) == split.edges_of(name).astype("<i8").tobytes()
        for name, negatives in split.negatives.items():
            assert base64.b64decode(payload["negatives"][name]) == negatives.astype("<i8").tobytes()

    @pytest.mark.parametrize("seed", [1.5, "1", True])
    def test_non_int_seed_rejected(self, small_graph, seed):
        from aspectcite.corpus import DatasetSplit

        payload = split_edges(small_graph, (0.8, 0.1, 0.1), 1, seed=1).to_dict()
        with pytest.raises(ValueError, match="seed must be an integer"):
            DatasetSplit.from_dict({**payload, "seed": seed}, small_graph)

    PART_DAMAGE = {
        "list": (lambda part, n: [[0, 1]], "must be a base64 string"),
        "bytes": (lambda part, n: part.encode("ascii"), "must be a base64 string"),
        "non_base64": (lambda part, n: part[:8] + "!" + part[8:], "not base64"),
        "non_ascii": (lambda part, n: part[:8] + "\u00e9" + part[8:], "not base64"),
        "cut_by_8_bytes": (lambda part, n: _repack(part, lambda raw: raw[:-8]), "whole number of int64 pairs"),
        "negative_index": (lambda part, n: _repack(part, lambda raw: (-1).to_bytes(8, "little", signed=True)
                                                    + raw[8:]), "outside"),
        "index_num_nodes": (lambda part, n: _repack(part, lambda raw: raw[:-8] + n.to_bytes(8, "little")),
                            "outside"),
    }

    @pytest.mark.parametrize("damage", list(PART_DAMAGE))
    def test_malformed_part_rejected(self, small_graph, damage):
        from aspectcite.corpus import DatasetSplit

        edit, message = self.PART_DAMAGE[damage]
        payload = split_edges(small_graph, (0.8, 0.1, 0.1), 1, seed=1).to_dict()
        for damaged in (
            {**payload, "test": edit(payload["test"], small_graph.num_nodes)},
            {**payload, "negatives": {**payload["negatives"], "train": edit(payload["negatives"]["train"],
                                                                            small_graph.num_nodes)}},
        ):
            with pytest.raises(ValueError, match=message):
                DatasetSplit.from_dict(damaged, small_graph)

    def test_negatives_not_an_object_rejected(self, small_graph):
        from aspectcite.corpus import DatasetSplit

        payload = split_edges(small_graph, (0.8, 0.1, 0.1), 1, seed=1).to_dict()
        with pytest.raises(ValueError, match="negatives must be an object"):
            DatasetSplit.from_dict({**payload, "negatives": list(payload["negatives"].values())}, small_graph)


def _repack(part: str, edit) -> str:
    """Edit the raw bytes behind a packed split part and encode them again."""
    return base64.b64encode(edit(base64.b64decode(part))).decode("ascii")


class TestSplitValidate:
    """Each way a split can break names its fault, checked in the same order."""

    @staticmethod
    def corrupt(split, graph, kind):
        train, val = split.train_edges.copy(), split.validation_edges
        negatives = dict(split.negatives)
        if kind == "missing edge":
            train = train[1:]
        elif kind == "non-edge in a part":
            train[0] = split.negatives["train"][0]
        elif kind == "out-of-range pair":
            train[0] = (0, graph.num_nodes)  # its key would alias edge (1, 0) without the range check
        elif kind == "edge in two parts":
            val = np.vstack([val, train[:1]])
        elif kind == "edge twice in one part":
            train = np.vstack([train, train[:1]])
        elif kind == "negative self-loop":
            negatives["validation"] = np.vstack([negatives["validation"], (3, 3), train[0]])
        elif kind == "negative is an edge":
            negatives["test"] = np.vstack([negatives["test"], train[0], (2, 2)])
        return replace(split, train_edges=train, validation_edges=val, negatives=negatives)

    def test_edge_reused_as_negative_message_prints_plain_ints(self):
        graph = build_graph([("A", "B"), ("B", "A")] + [(f"n{k}", f"n{k + 1}") for k in range(20)])
        split = split_edges(graph, (0.8, 0.1, 0.1), 1, seed=4)
        assert split.train_edges[0].tolist() == [15, 16]
        broken = replace(split, negatives={**split.negatives, "test": np.vstack([split.negatives["test"], split.train_edges[:1]])})
        with pytest.raises(ValueError, match=re.escape("negative pair (15, 16) is an actual edge (split 'test')") + "$"):
            broken.validate(graph)

    @pytest.mark.parametrize("kind, message", [
        ("missing edge", "split parts do not reassemble the full edge set"),
        ("non-edge in a part", "split parts do not reassemble the full edge set"),
        ("out-of-range pair", "split parts do not reassemble the full edge set"),
        ("edge in two parts", "split parts overlap"),
        ("edge twice in one part", "split parts overlap"),
        ("negative self-loop", "negative self-loop in split 'validation'"),
        ("negative is an edge", "negative pair {pair} is an actual edge (split 'test')"),
    ])
    def test_rejections(self, kind, message):
        graph = build_graph([("A", "B"), ("B", "A")] + [(f"n{k}", f"n{k + 1}") for k in range(20)])
        split = split_edges(graph, (0.8, 0.1, 0.1), 1, seed=4)
        split.validate(graph)
        broken = self.corrupt(split, graph, kind)
        pair = tuple(map(int, broken.train_edges[0]))
        with pytest.raises(ValueError, match=re.escape(message.format(pair=pair)) + "$"):
            broken.validate(graph)


def split_negatives_reference(graph, sizes, negatives_per_positive, neg_rng):
    """The negatives `split_edges` drew one (i, j) candidate at a time before its
    rounds were batched, verbatim; sizes are the (train, validation, test) part sizes."""
    n = graph.num_nodes
    negatives = {}
    for name, size in zip(SPLIT_NAMES, sizes):
        want = negatives_per_positive * size
        chosen: dict[int, None] = {}  # insertion-ordered set of keys i * n + j
        while len(chosen) < want:
            i = int(neg_rng.integers(n))
            j = int(neg_rng.integers(n))
            if i != j and not graph.has_edge(i, j):
                chosen[i * n + j] = None
        negatives[name] = np.column_stack(np.divmod(np.fromiter(chosen, dtype=np.int64, count=len(chosen)), n))
    return negatives


def random_graph(num_nodes, num_edges, seed):
    """num_edges distinct off-diagonal pairs on num_nodes nodes, drawn uniformly."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(num_nodes * (num_nodes - 1), size=num_edges, replace=False)
    src, rest = np.divmod(keys, num_nodes - 1)
    dst = rest + (rest >= src)  # skip the diagonal
    return build_graph([(f"v{a}", f"v{b}") for a, b in zip(src.tolist(), dst.tolist())])


class TestBatchedSplitNegatives:
    @pytest.mark.parametrize("shape,ratios,negatives_per_positive,seed", [
        ((2708, 5429), (0.8, 0.1, 0.1), 1, 1),  # Cora-shaped
        ((2708, 5429), (0.8, 0.1, 0.1), 1, 2),
        ((2708, 5429), (0.8, 0.1, 0.1), 1, 3),
        ((30, 500), (0.2, 0.4, 0.4), 1, 4),  # 57% dense: most candidates are rejected
        ((30, 500), (0.2, 0.4, 0.4), 1, 5),
        ((5, 10), (0.8, 0.1, 0.1), 1, 6),  # 8 of the 10 non-edges wanted for train
        ((40, 60), (0.6, 0.2, 0.2), 3, 7),
    ])
    def test_same_negatives_and_next_draw_as_one_at_a_time(self, monkeypatch, shape, ratios,
                                                          negatives_per_positive, seed):
        graph = random_graph(*shape, seed=seed)
        streams = {}

        def keep_stream(root, name):
            streams[name] = substream(root, name)
            return streams[name]

        monkeypatch.setattr(corpus, "substream", keep_stream)
        split = split_edges(graph, ratios, negatives_per_positive, seed=seed)
        reference_rng = substream(seed, "negatives")
        sizes = [len(split.edges_of(name)) for name in SPLIT_NAMES]
        reference = split_negatives_reference(graph, sizes, negatives_per_positive, reference_rng)
        for name in SPLIT_NAMES:
            assert np.array_equal(split.negatives[name], reference[name]), name
        assert streams["negatives"].integers(2**62) == reference_rng.integers(2**62)
