"""Dataset loading, text embedding composition, and train/val/test splitting.

File formats (all UTF-8):
  edges:        TSV `source<TAB>target[<TAB>timestamp]`, `#` comment lines skipped
  node text:    TSV `node_id<TAB>channel<TAB>space-separated tokens`
  word vectors: text `token v1 v2 ... vL` per line, no comments (`#` is a token)
  features:     TSV `node_id<TAB>v1 v2 ... vL` (dense per-node vectors used
                directly as the text embedding, e.g. bag-of-words datasets)

Vector components are ASCII decimal floats, rounded exactly as `float()` does;
`float()`'s underscore digit groups (`1_0`) and non-ASCII digits are rejected.
"""

from __future__ import annotations

import base64
import numbers
from dataclasses import dataclass, field
from operator import countOf

import numpy as np

from .graph import CitationGraph
from .seeding import substream

__all__ = [
    "ALLOWED_CHANNELS",
    "TokenizedDocument",
    "WordVectorTable",
    "EdgeList",
    "DatasetSplit",
    "load_edge_list",
    "load_node_text",
    "load_word_vectors",
    "load_node_features",
    "check_channels",
    "embed_text",
    "embed_documents",
    "check_split_options",
    "split_edges",
]

ALLOWED_CHANNELS = ("title", "abstract", "claim")

SPLIT_NAMES = ("train", "validation", "test")


class CorpusFormatError(ValueError):
    """A dataset file violates its declared format."""


@dataclass(frozen=True)
class TokenizedDocument:
    """Pre-tokenized node text, one ordered token list per channel."""

    node_id: str
    channels: dict[str, tuple[str, ...]]

    def __post_init__(self):
        if not self.node_id:
            raise ValueError("node_id must be nonempty")
        for name in self.channels:
            if name not in ALLOWED_CHANNELS:
                raise CorpusFormatError(
                    f"unknown text channel {name!r} for node {self.node_id!r}; allowed: {ALLOWED_CHANNELS}"
                )

    def tokens(self, channels) -> list[str]:
        """Concatenated token stream over the selected channels, in channel order."""
        out: list[str] = []
        for name in channels:
            if name not in ALLOWED_CHANNELS:
                raise CorpusFormatError(f"unknown text channel {name!r}; allowed: {ALLOWED_CHANNELS}")
            out.extend(self.channels.get(name, ()))
        return out


@dataclass(frozen=True)
class WordVectorTable:
    """Pretrained token vectors of a single fixed dimension."""

    dimension: int
    vectors: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        if self.dimension <= 0:
            raise ValueError("word vector dimension must be positive")

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class EdgeList:
    """Parsed edge file plus the counts of rows dropped during cleaning."""

    edges: list[tuple]
    duplicate_count: int
    self_loop_count: int


def tab_rows(path):
    """Yield (line number, tab-separated fields) for each line of a UTF-8 file
    that is neither blank nor a `#` comment."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.strip() and not line.lstrip().startswith("#"):
                yield lineno, line.split("\t")


def load_edge_list(path) -> EdgeList:
    """Parse a TSV edge list; dedup and drop self-loops, reporting counts.

    Edges come back in file order; direction is source-cites-target.
    """
    edges: list[tuple] = []
    seen: set[tuple] = set()
    duplicates = 0
    self_loops = 0
    for lineno, fields in tab_rows(path):
        if len(fields) not in (2, 3):
            raise CorpusFormatError(f"{path}: line {lineno}: expected 2 or 3 tab-separated fields, got {len(fields)}")
        src, dst = fields[0], fields[1]
        if not src or not dst:
            raise CorpusFormatError(f"{path}: line {lineno}: empty node id")
        if len(fields) == 3:
            try:
                time = int(fields[2])
            except ValueError:
                raise CorpusFormatError(f"{path}: line {lineno}: timestamp {fields[2]!r} is not an integer") from None
            edge = (src, dst, time)
        else:
            edge = (src, dst)
        if src == dst:
            self_loops += 1
            continue
        key = (src, dst)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        edges.append(edge)
    if not edges and duplicates == 0 and self_loops == 0:
        raise CorpusFormatError(f"{path}: empty edge file")
    return EdgeList(edges=edges, duplicate_count=duplicates, self_loop_count=self_loops)


def load_node_text(path, nodes=None) -> dict[str, TokenizedDocument]:
    """Parse the node-text TSV into one TokenizedDocument per node, in file order.

    Every line is checked (field count, node id, channel, duplicate channel),
    so a malformed line anywhere raises. Given `nodes`, only those nodes'
    documents are tokenized and returned: the full load restricted to them.
    """
    texts_by_node: dict[str, dict[str, str]] = {}
    for lineno, fields in tab_rows(path):
        if len(fields) != 3:
            raise CorpusFormatError(f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
        node_id, channel, text = fields
        if not node_id:
            raise CorpusFormatError(f"{path}: line {lineno}: empty node id")
        if channel not in ALLOWED_CHANNELS:
            raise CorpusFormatError(f"{path}: line {lineno}: unknown channel {channel!r}; allowed: {ALLOWED_CHANNELS}")
        per_node = texts_by_node.setdefault(node_id, {})
        if channel in per_node:
            raise CorpusFormatError(f"{path}: line {lineno}: duplicate channel {channel!r} for node {node_id!r}")
        per_node[channel] = text
    wanted = texts_by_node.keys() if nodes is None else set(nodes)
    return {
        nid: TokenizedDocument(node_id=nid, channels={c: tuple(text.split()) for c, text in chans.items()})
        for nid, chans in texts_by_node.items()
        if nid in wanted
    }


def load_word_vectors(path) -> WordVectorTable:
    """Parse whitespace-separated pretrained vectors; dimension inferred from line 1, components finite."""
    tokens: list[str] = []
    rows: list[str] = []
    linenos: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split(None, 1)
            if parts:
                tokens.append(parts[0])
                rows.append(parts[1] if len(parts) == 2 else "")
                linenos.append(lineno)
    if not rows:
        raise CorpusFormatError(f"{path}: empty word vector file")
    matrix = _parse_rows(path, rows, linenos, "vector")
    vectors: dict[str, np.ndarray] = {}
    for token, vec in zip(tokens, matrix):
        vectors.setdefault(token, vec)  # first occurrence wins
    return WordVectorTable(dimension=matrix.shape[1], vectors=vectors)


def load_node_features(path) -> dict[str, np.ndarray]:
    """Parse dense per-node feature vectors (`node_id<TAB>v1 v2 ...` rows, components finite) as rows of one matrix."""
    ids: dict[str, None] = {}  # an insertion-ordered set
    rows: list[str] = []
    linenos: list[int] = []
    problem = None
    for lineno, fields in tab_rows(path):
        if len(fields) != 2:
            problem = f"line {lineno}: expected `node_id<TAB>values`, got {len(fields)} fields"
        elif fields[0] in ids:
            problem = f"line {lineno}: duplicate node id {fields[0]!r}"
        if problem:
            break
        ids[fields[0]] = None
        rows.append(fields[1])
        linenos.append(lineno)
    if rows:
        matrix = _parse_rows(path, rows, linenos, "feature")  # a malformed row above `problem` is named first
    if problem or not rows:
        raise CorpusFormatError(f"{path}: {problem or 'empty feature file'}")
    return dict(zip(ids, matrix))


def _parse_rows(path, rows: list, linenos: list, what: str) -> np.ndarray:
    """Parse rows of whitespace-separated finite numbers into one float64 matrix.

    Each value is bit-for-bit `float(token)`. Rows of single digits joined by
    single spaces (the 0/1 rows of a bag-of-words file) are read as bytes by
    `_digit_rows`, with no token parse, and are finite by construction; any
    other rows go through numpy's float64 reader, which is CPython's own
    string-to-double routine, and its matrix is checked for NaN and infinity.
    Only after that reader fails are the rows read one by one, to name the
    first bad line.
    """
    if all(row and not row.isspace() for row in rows):  # loadtxt would skip a blank row
        matrix = _digit_rows(rows)
        if matrix is not None:
            return matrix
        try:
            matrix = np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            _require_finite(path, matrix, linenos, what)
            return matrix
    dimension = len(rows[0].split())
    if not dimension:
        raise CorpusFormatError(f"{path}: line {linenos[0]}: no {what} components")
    for row, lineno in zip(rows, linenos):
        count = len(row.split())
        if count != dimension:
            raise CorpusFormatError(f"{path}: line {lineno}: expected {dimension} components, got {count}")
        try:
            np.loadtxt([row], dtype=np.float64, comments=None)
        except ValueError:
            raise CorpusFormatError(f"{path}: line {lineno}: non-numeric {what} component") from None
    raise AssertionError("np.loadtxt failed on rows that each parse")


def _digit_rows(rows: list) -> np.ndarray | None:
    """The matrix of rows that are each single ASCII digits joined by single
    spaces (the 0/1 rows of a bag-of-words file), read as bytes; else None."""
    width = len(rows[0])
    if width % 2 == 0 or countOf(map(len, rows), width) != len(rows):
        return None
    try:
        raw = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8).reshape(len(rows), width)
    except UnicodeEncodeError:
        return None
    digits = raw[:, ::2] - ord("0")  # uint8: a byte below "0" wraps past 9
    if (digits > 9).any() or (raw[:, 1::2] != ord(" ")).any():
        return None
    return digits.astype(np.float64)


def _require_finite(path, matrix: np.ndarray, linenos: list, what: str) -> None:
    """One vectorized check over the parsed matrix; NaN or infinity fails naming its line."""
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise CorpusFormatError(f"{path}: line {linenos[bad[0]]}: non-finite {what} component")


def check_channels(channels) -> tuple[str, ...]:
    """A channel selection as a tuple; it must be a nonempty list or tuple of ALLOWED_CHANNELS names."""
    if not isinstance(channels, (list, tuple)) or not channels or not all(c in ALLOWED_CHANNELS for c in channels):
        raise ValueError(f"channels must be a nonempty list of {', '.join(ALLOWED_CHANNELS)}, got {channels!r}")
    return tuple(channels)


def embed_text(doc: TokenizedDocument, channels, table: WordVectorTable):
    """Mean word vector over the selected channels' concatenated token stream.

    Out-of-vocabulary tokens are skipped (they do not enter the denominator);
    a document with no in-vocabulary tokens embeds to the all-zero vector.
    Returns (vector, oov_ratio).
    """
    channels = tuple(channels)
    if not channels:
        raise ValueError("channel selection must be nonempty")
    tokens = doc.tokens(channels)
    if not tokens:
        return np.zeros(table.dimension), 0.0
    hits = [table.vectors[t] for t in tokens if t in table.vectors]
    oov_ratio = 1.0 - len(hits) / len(tokens)
    if not hits:
        return np.zeros(table.dimension), 1.0
    return np.mean(hits, axis=0), oov_ratio


def embed_documents(docs, node_ids, channels, table):
    """Stack per-node text embeddings into an (N, L_t) matrix, in node order.

    Nodes without a document embed to zero. Returns (matrix, stats) where
    stats reports mean OOV ratio and how many nodes had no usable text.
    """
    matrix = np.zeros((len(node_ids), table.dimension))
    oov_ratios = []
    missing = 0
    for row, nid in enumerate(node_ids):
        doc = docs.get(nid)
        if doc is None:
            missing += 1
            continue
        vec, oov = embed_text(doc, channels, table)
        matrix[row] = vec
        oov_ratios.append(oov)
    stats = {
        "nodes_without_text": missing,
        "mean_oov_ratio": float(np.mean(oov_ratios)) if oov_ratios else 0.0,
    }
    return matrix, stats


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """Disjoint train/validation/test edge partition plus sampled non-edges.

    Each edge part and each split's negatives is a read-only (k, 2) int64
    array of dense-index pairs, laid out like `graph.edge_array`; the
    constructor converts the pairs it is given. Equal splits have equal
    seeds, split names and arrays.
    """

    train_edges: np.ndarray
    validation_edges: np.ndarray
    test_edges: np.ndarray
    negatives: dict[str, np.ndarray]
    seed: int

    def __post_init__(self):
        def pair_array(pairs):
            array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            array.setflags(write=False)
            return array

        for name in SPLIT_NAMES:
            object.__setattr__(self, f"{name}_edges", pair_array(self.edges_of(name)))
        object.__setattr__(self, "negatives", {name: pair_array(p) for name, p in self.negatives.items()})

    def __eq__(self, other):
        if not isinstance(other, DatasetSplit):
            return NotImplemented
        same_edges = all(np.array_equal(self.edges_of(n), other.edges_of(n)) for n in SPLIT_NAMES)
        same_negatives = self.negatives.keys() == other.negatives.keys() and all(
            np.array_equal(p, other.negatives[n]) for n, p in self.negatives.items()
        )
        return self.seed == other.seed and same_edges and same_negatives

    def edges_of(self, name: str) -> np.ndarray:
        if name not in SPLIT_NAMES:
            raise KeyError(f"unknown split {name!r}")
        return getattr(self, f"{name}_edges")

    def validate(self, graph: CitationGraph) -> None:
        pairs = np.concatenate([self.train_edges, self.validation_edges, self.test_edges])
        positions, found = graph.lookup(pairs)
        if not found.all() or not np.bincount(positions, minlength=graph.num_edges).all():
            raise ValueError("split parts do not reassemble the full edge set")
        if len(pairs) != graph.num_edges:
            raise ValueError("split parts overlap")
        for name, negs in self.negatives.items():
            bad = np.flatnonzero((negs[:, 0] == negs[:, 1]) | graph.contains(negs))
            if bad.size:
                i, j = negs[bad[0]].tolist()
                if i == j:
                    raise ValueError(f"negative self-loop in split {name!r}")
                raise ValueError(f"negative pair {(i, j)} is an actual edge (split {name!r})")

    def to_dict(self) -> dict:
        """The manifest form: the seed, and each part packed by `_pack_pairs`.

        The packed indices point into the node order of the split's graph;
        `from_dict` reads them back against the same graph.
        """
        return {
            "seed": self.seed,
            **{name: _pack_pairs(self.edges_of(name)) for name in SPLIT_NAMES},
            "negatives": {name: _pack_pairs(p) for name, p in self.negatives.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict, graph: CitationGraph) -> "DatasetSplit":
        """Rebuild a split from `to_dict`'s form, checked against `graph`.

        Raises ValueError unless the seed is an int, `negatives` is an object
        and every part is a base64 string of whole int64 pairs whose indices
        name nodes of `graph`. Whether the parts partition the edges is
        `validate`'s check.
        """
        seed, negatives = payload["seed"], payload["negatives"]
        if type(seed) is not int:
            raise ValueError(f"split seed must be an integer, got {seed!r}")
        if not isinstance(negatives, dict):
            raise ValueError(f"split negatives must be an object, got {type(negatives).__name__}")
        return cls(
            **{f"{name}_edges": _unpack_pairs(payload[name], graph.num_nodes, name) for name in SPLIT_NAMES},
            negatives={name: _unpack_pairs(p, graph.num_nodes, f"{name} negatives") for name, p in negatives.items()},
            seed=seed,
        )


def _pack_pairs(pairs: np.ndarray) -> str:
    """Base64 of the C-order little-endian int64 bytes of a (k, 2) pair array; "" when k = 0."""
    return base64.b64encode(np.ascontiguousarray(pairs, dtype="<i8").tobytes()).decode("ascii")


def _unpack_pairs(text, num_nodes: int, part: str) -> np.ndarray:
    """Invert `_pack_pairs`, checking that every index lies in [0, num_nodes)."""
    if type(text) is not str:
        raise ValueError(f"split part {part!r} must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"split part {part!r} is not base64: {exc}") from None
    if len(raw) % 16:
        raise ValueError(f"split part {part!r} holds {len(raw)} bytes, not a whole number of int64 pairs")
    pairs = np.frombuffer(raw, dtype="<i8").reshape(-1, 2)
    if pairs.size and not (0 <= pairs.min() and pairs.max() < num_nodes):
        raise ValueError(f"split part {part!r} has a node index outside [0, {num_nodes})")
    return pairs


def _largest_remainder_counts(total: int, ratios) -> list[int]:
    quotas = [r * total for r in ratios]
    counts = [int(np.floor(q)) for q in quotas]
    remainder = total - sum(counts)
    by_fraction = sorted(range(len(ratios)), key=lambda idx: (-(quotas[idx] - counts[idx]), idx))
    for idx in by_fraction[:remainder]:
        counts[idx] += 1
    return counts


def check_split_options(ratios, negatives_per_positive) -> tuple[float, ...]:
    """`split_edges`' checks of its options, which need no graph; returns the ratios as floats.

    Each comparison is written so that NaN fails it.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or not all(r >= 0 for r in ratios):
        raise ValueError(f"ratios must be three nonnegative reals, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ValueError(f"ratios must sum to 1 (got {sum(ratios)})")
    if isinstance(negatives_per_positive, bool) or not isinstance(negatives_per_positive, numbers.Integral):
        raise ValueError(f"negatives_per_positive must be an integer, got {negatives_per_positive!r}")
    if negatives_per_positive < 1:
        raise ValueError(f"negatives_per_positive must be a positive integer, got {negatives_per_positive}")
    return ratios


def split_edges(graph: CitationGraph, ratios, negatives_per_positive: int, seed: int) -> DatasetSplit:
    """Uniform random edge partition plus uniform non-edge negatives, seeded.

    Split sizes follow the largest-remainder rule; each part is the rows of
    `graph.edge_array` at its share of one seeded permutation. Negatives are
    rejection-sampled without replacement within each split and never collide
    with any edge of the full graph or with the diagonal.
    """
    ratios = check_split_options(ratios, negatives_per_positive)
    if graph.num_edges < 10:
        raise ValueError(f"graph has {graph.num_edges} edges; need at least 10 to split")

    m = graph.num_edges
    counts = _largest_remainder_counts(m, ratios)

    rng = substream(seed, "split")
    order = rng.permutation(m)
    parts = [graph.edge_array[chunk] for chunk in np.split(order, np.cumsum(counts)[:2])]

    n = graph.num_nodes
    available_non_edges = n * (n - 1) - m
    neg_rng = substream(seed, "negatives")
    negatives: dict[str, np.ndarray] = {}
    for name, part in zip(SPLIT_NAMES, parts):
        want = negatives_per_positive * len(part)
        if want > available_non_edges:
            raise ValueError(
                f"requested {want} negatives for split {name!r} but only {available_non_edges} non-edges exist"
            )
        chosen: dict[int, None] = {}  # insertion-ordered set of keys i * n + j
        while len(chosen) < want:
            # one (i, j) per missing negative: each adds at most one key, so a
            # round never overshoots and draws what one-at-a-time draws would
            cand = neg_rng.integers(n, size=(want - len(chosen), 2))
            keep = (cand[:, 0] != cand[:, 1]) & ~graph.contains(cand)
            chosen.update(dict.fromkeys((cand[keep, 0] * n + cand[keep, 1]).tolist()))
        negatives[name] = np.column_stack(np.divmod(np.fromiter(chosen, dtype=np.int64, count=len(chosen)), n))

    split = DatasetSplit(
        train_edges=parts[0],
        validation_edges=parts[1],
        test_edges=parts[2],
        negatives=negatives,
        seed=seed,
    )
    split.validate(graph)
    return split
