"""Command-line pipeline: ingest -> train -> evaluate / predict / explain.

Every command resolves its configuration before any compute starts
(defaults < `--config key=value file` < explicit flags; the root seed may
also come from $ASPECTCITE_SEED; a config-file key the command does not
take is a usage error), echoes the resolved configuration next to its
outputs, and writes all artifacts atomically (temp file + rename) under
`--out-dir`, which it creates only once its options and inputs have been
checked, just before the first write. Outputs are byte-reproducible for a
fixed seed; wall-clock readings live only under the report's `timing` key.

`ingest` writes the dataset manifest as compact JSON with sorted keys, the
one output a program reads back on every query; the reports and echoes meant
for people are indented. Each artifact goes to disk in one pass; arrays
stream there with no in-memory copy of their bytes. The manifest
(`aspectcite-manifest-v2`) packs each part of the split into one base64
string of int64 index pairs, so a query that never reads the split parses
little of it; a v1 manifest exits 2 and needs a re-run of `ingest`.

Exit codes: 0 success, 1 usage, 2 data/schema, 3 domain (e.g. unknown node),
4 numeric abort. `main` is the one place an exception becomes an exit code
and a stderr line: the commands raise, and any ValueError from the library
(a malformed input file included) is a data error. An `--out-dir` that
cannot be created is a usage error, and nothing is written.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from itertools import chain

import numpy as np

from . import corpus
from .codec import write_atomically as _write_atomically, write_json as _write_json
from .explain import explain_target, export_explanation
from .graph import build_graph
from .metrics import check_ks, evaluate
from .model import load_checkpoint, save_checkpoint, scores_for_pairs
from .propagation import load_state, save_state
from .training import TrainConfig, TrainingAbort, fit

__all__ = ["main", "entrypoint"]

SEED_ENV_VAR = "ASPECTCITE_SEED"
VARIANTS = ("dp", "ndp")
SPLITS = ("train", "validation", "test")
FORMATS = ("json", "csv")
MANIFEST_FORMAT = "aspectcite-manifest-v2"


class UsageError(Exception):
    """A bad option or flag: exit 1."""


class DataError(Exception):
    """A missing or malformed input: exit 2."""


class DomainError(Exception):
    """A well-formed request the data cannot answer, such as an unknown node: exit 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are exit 1 here
        raise UsageError(message)


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise DataError(f"{what} not found: {path}")
    return path


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(_require_file(path, "config file"), encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"{path}: line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


class _Resolver:
    """Defaults < config file < explicit CLI flag, with typed parsing."""

    def __init__(self, args: argparse.Namespace):
        self.file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
        self.args = args
        self.resolved: dict = {}

    def get(self, key: str, default, parse=None, choices: tuple | None = None):
        flag_value = getattr(self.args, key.replace("-", "_"), None)
        if flag_value is not None:
            value = flag_value
        elif key in self.file_values:
            raw = self.file_values[key]
            try:
                value = parse(raw) if parse else raw
            except ValueError as exc:
                raise DataError(f"config key {key!r}: {exc}") from exc
        else:
            value = default
        if choices is not None and value not in choices:  # argparse checks only the flag, not the config file
            raise UsageError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
        self.resolved[key] = value
        return value

    def check_unread(self) -> None:
        """Reject config-file keys the command never read; called once its options are resolved."""
        # a seeded command may resolve its seed only after loading the manifest, which holds the default
        read = self.resolved.keys() | ({"seed"} if hasattr(self.args, "seed") else set())
        unread = sorted(self.file_values.keys() - read)
        if unread:
            raise UsageError(f"{self.args.command} does not take config key(s): {', '.join(unread)}")

    def seed(self, default: int = 0) -> int:
        """--seed, else the config file's seed=, else $ASPECTCITE_SEED, else default."""
        env = os.environ.get(SEED_ENV_VAR)
        if env and getattr(self.args, "seed", None) is None and "seed" not in self.file_values:
            try:
                default = int(env)
            except ValueError as exc:
                raise DataError(f"${SEED_ENV_VAR}: {exc}") from exc
        return self.get("seed", default, parse=int)


def _parse_int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _parse_float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _out_dir(args) -> str:
    """Create --out-dir; called just before a command's first write."""
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create --out-dir {args.out_dir}: {exc.strerror}") from exc
    return args.out_dir


def _echo_config(out_dir: str, command: str, resolved: dict) -> None:
    _write_json(os.path.join(out_dir, f"{command}_config.json"), {"command": command, **resolved})


def _degree_histogram(degrees: np.ndarray) -> list:
    values, counts = np.unique(degrees, return_counts=True)
    return [[int(v), int(c)] for v, c in zip(values, counts)]


# ----------------------------------------------------------------- ingest

def cmd_ingest(args) -> int:
    res = _Resolver(args)
    seed = res.seed()
    ratios = res.get("ratios", (0.8, 0.1, 0.1), parse=_parse_float_list)
    negatives = res.get("negatives_per_positive", 1, parse=int)
    channels = res.get("channels", ("title",), parse=lambda s: tuple(v for v in s.split(",") if v))
    res.check_unread()
    try:
        corpus.check_split_options(ratios, negatives)
        corpus.check_channels(channels)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not (args.node_features or (args.node_text and args.word_vectors)):
        raise UsageError("provide either --node-features or both --node-text and --word-vectors")

    edge_file = _require_file(args.edges, "edge list")
    edge_list = corpus.load_edge_list(edge_file)
    graph = build_graph(edge_list.edges)

    text_stats: dict = {}
    if args.node_features:
        features = corpus.load_node_features(_require_file(args.node_features, "node features"))
        absent = np.zeros(len(next(iter(features.values()))))
        text_vectors = np.array([features.get(nid, absent) for nid in graph.node_ids])
        text_source = "features"
        text_stats = {"nodes_without_features": sum(nid not in features for nid in graph.node_ids)}
    else:
        docs = corpus.load_node_text(_require_file(args.node_text, "node text"))
        table = corpus.load_word_vectors(_require_file(args.word_vectors, "word vectors"))
        text_vectors, text_stats = corpus.embed_documents(docs, graph.node_ids, channels, table)
        text_source = "tokens"

    split = corpus.split_edges(graph, ratios, negatives, seed)

    out_dir = _out_dir(args)
    vectors_file = "text_vectors.npy"
    _write_atomically(os.path.join(out_dir, vectors_file), lambda tmp: _save_npy(tmp, text_vectors))

    manifest = {
        "format": MANIFEST_FORMAT,
        "seed": seed,
        "channels": list(channels),
        "text_source": text_source,
        "text_dim": int(text_vectors.shape[1]),
        "text_vectors_file": vectors_file,
        "nodes": list(graph.node_ids),
        "edges": list(map(list, edge_list.edges)),
        "cleaning": {
            "duplicates_dropped": edge_list.duplicate_count,
            "self_loops_dropped": edge_list.self_loop_count,
        },
        "split": split.to_dict(),
        "stats": {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "density": graph.density(),
            "in_degree_histogram": _degree_histogram(graph.in_degrees()),
            "out_degree_histogram": _degree_histogram(graph.out_degrees()),
            "text": text_stats,
        },
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest, indent=None)
    _echo_config(out_dir, "ingest", {**res.resolved, "edges": edge_file, "out_dir": out_dir})
    print(f"ingest: {graph.num_nodes} nodes, {graph.num_edges} edges -> {out_dir}/manifest.json")
    return 0


def _save_npy(tmp: str, array: np.ndarray) -> None:
    # np.save given a path would append ".npy" to the temp name; a handle writes where it is told
    with open(tmp, "wb") as fh:
        np.save(fh, np.asarray(array, dtype=np.float64))


def _load_manifest(path: str):
    """Read and check a manifest; return (payload, graph, text_vectors).

    Only the v2 format is read; a v1 manifest (the split as lists of id
    pairs) exits 2 and asks for a re-run of `ingest`. The format, node
    order, seed, edges and text matrix are checked here. The split stays in
    `payload`, one packed string per part, until `_load_split` decodes and
    checks it, so `predict` and `explain`, which never read it, skip both.
    """
    with open(_require_file(path, "manifest"), encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise DataError(f"{path}: malformed manifest: the top level is a {type(payload).__name__}, not an object")
    if payload.get("format") != MANIFEST_FORMAT:
        raise DataError(
            f"{path}: manifest format {payload.get('format')!r}, expected {MANIFEST_FORMAT!r}; re-run ingest to write one"
        )
    try:
        graph = build_graph(payload["edges"])
        vectors_path = os.path.join(os.path.dirname(os.path.abspath(path)), payload["text_vectors_file"])
        text_shape = (graph.num_nodes, payload["text_dim"])
        if list(graph.node_ids) != payload["nodes"]:
            raise ValueError("node order does not match its edge list")
        if type(payload["seed"]) is not int:
            raise ValueError(f"seed must be an integer, got {payload['seed']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    try:  # mapped read-only: a query gathers a few rows, so it need not read the whole file
        text_vectors = np.asarray(np.load(_require_file(vectors_path, "text vector matrix"), mmap_mode="r"))
    except ValueError as exc:
        raise DataError(f"{vectors_path}: unreadable text vector matrix: {exc}") from exc
    if text_vectors.dtype != np.float64 or text_vectors.shape != text_shape:
        raise DataError(
            f"{vectors_path}: text vector matrix is {text_vectors.dtype} {text_vectors.shape}, "
            f"expected float64 {text_shape} (nodes x text_dim)"
        )
    return payload, graph, text_vectors


def _load_split(path: str, payload: dict, graph):
    """The manifest's split, checked to be disjoint with non-edge negatives."""
    try:
        split = corpus.DatasetSplit.from_dict(payload["split"], graph)
        split.validate(graph)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    return split


# ------------------------------------------------------------------ train

# Every TrainConfig field is a `train` flag and config-file key of the same
# name with its dataclass default, except the two set otherwise: --variant
# gives dynamic_propagation, and the seed resolves through _Resolver.seed.
_TRAIN_OPTIONS = {
    f.name: (f.default, type(f.default))
    for f in dataclasses.fields(TrainConfig)
    if f.name not in ("dynamic_propagation", "seed")
}


def cmd_train(args) -> int:
    res = _Resolver(args)
    variant = res.get("variant", "dp", choices=VARIANTS)
    config = TrainConfig(
        **{name: res.get(name, default, parse=parse) for name, (default, parse) in _TRAIN_OPTIONS.items()},
        dynamic_propagation=variant == "dp",
    )
    res.check_unread()
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    manifest, graph, text_vectors = _load_manifest(args.manifest)
    split = _load_split(args.manifest, manifest, graph)
    config = dataclasses.replace(config, seed=res.seed(default=manifest["seed"]))
    result = fit(graph, split, config, text_vectors)
    out_dir = _out_dir(args)
    save_checkpoint(result.params, os.path.join(out_dir, "checkpoint.json"))
    save_state(result.state, os.path.join(out_dir, "state.json"))
    _write_json(os.path.join(out_dir, "report.json"), result.report)
    _echo_config(out_dir, "train", {**res.resolved, "manifest": args.manifest, "out_dir": out_dir})
    (stage,) = result.report["stages"]
    print(f"train: variant={variant} scoring-phases={len(stage['sy_phases'])} -> {out_dir}/checkpoint.json")
    for index, phase in enumerate(stage["sd_phases"]):
        if not phase["converged"]:
            print(
                f"train: warning: propagation phase {index} stopped unconverged "
                f"after {phase['phase_steps']} steps: residual {phase['residual']:.3e} "
                f">= epsilon {config.propagation_epsilon:.3e}",
                file=sys.stderr,
            )
    return 0


def _load_artifacts(args):
    manifest, graph, text_vectors = _load_manifest(args.manifest)
    params = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    state = load_state(_require_file(args.state, "state"))
    state.validate()
    if params.num_nodes != graph.num_nodes or state.num_nodes != graph.num_nodes:
        raise DataError("checkpoint/state node count does not match the manifest graph")
    if params.dims.text_dim != text_vectors.shape[1]:
        raise DataError("checkpoint text dimension does not match the manifest's text vectors")
    return manifest, graph, text_vectors, params, state


# --------------------------------------------------------------- evaluate

def cmd_evaluate(args) -> int:
    res = _Resolver(args)
    ks = res.get("ks", (1, 5, 10), parse=_parse_int_list)
    rank_negatives = res.get("rank_negatives", 50, parse=int)
    try:
        check_ks(ks)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if rank_negatives < 1:
        raise UsageError(f"--rank-negatives must be >= 1, got {rank_negatives}")
    split_name = res.get("split", "test", choices=SPLITS)
    res.check_unread()
    manifest, graph, text_vectors, params, state = _load_artifacts(args)
    split = _load_split(args.manifest, manifest, graph)
    seed = res.seed(default=manifest["seed"])
    report = evaluate(
        params, state, split, graph, text_vectors,
        split_name=split_name, ks=ks,
        rank_negatives_per_source=rank_negatives, seed=seed,
    )
    out_dir = _out_dir(args)
    if args.per_source_csv:  # before metrics.json, so a failed write leaves neither
        _write_atomically(os.path.join(out_dir, "per_source.csv"), lambda tmp: _save_csv(tmp, report.per_source))
    _write_json(os.path.join(out_dir, "metrics.json"), report.to_dict())
    _echo_config(out_dir, "evaluate", {**res.resolved, "manifest": args.manifest, "out_dir": out_dir})
    print(f"evaluate: auc={report.auc:.4f} recall={report.recall:.4f} -> {out_dir}/metrics.json")
    return 0


def _save_csv(tmp: str, rows: list) -> None:
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------- predict

def cmd_predict(args) -> int:
    res = _Resolver(args)
    res.check_unread()
    _, graph, text_vectors, params, state = _load_artifacts(args)

    pairs_file = _require_file(args.pairs, "pair list")
    pairs_ids: list[list[str]] = []
    for lineno, fields in corpus.tab_rows(pairs_file):
        if len(fields) != 2:  # the edge reader's two rules, with its messages
            raise DataError(f"{pairs_file}: line {lineno}: expected 2 tab-separated fields, got {len(fields)}")
        if not all(fields):
            raise DataError(f"{pairs_file}: line {lineno}: empty node id")
        pairs_ids.append(fields)
    if not pairs_ids:
        raise DataError(f"{pairs_file}: no pairs to score")
    try:
        index_pairs = graph.indices_of(chain.from_iterable(pairs_ids)).reshape(-1, 2)
    except KeyError as exc:
        raise DomainError(str(exc)) from exc
    if np.any(index_pairs[:, 0] == index_pairs[:, 1]):
        raise DomainError("cannot score self-pairs")

    scores = scores_for_pairs(index_pairs, state.matrix, params, text_vectors)
    payload = {"pairs": [[a, b, float(s)] for (a, b), s in zip(pairs_ids, scores)]}
    out_dir = _out_dir(args)
    _write_json(os.path.join(out_dir, "predictions.json"), payload)
    _echo_config(out_dir, "predict", {**res.resolved, "pairs": pairs_file, "out_dir": out_dir})
    print(f"predict: scored {len(pairs_ids)} pairs -> {out_dir}/predictions.json")
    return 0


# ---------------------------------------------------------------- explain

def cmd_explain(args) -> int:
    res = _Resolver(args)
    top_n = res.get("top_n", 5, parse=int)
    top_m = res.get("top_m", 10, parse=int)
    if top_n < 1 or top_m < 0:
        raise UsageError(f"--top-n must be >= 1 and --top-m >= 0, got {top_n} and {top_m}")
    fmt = res.get("format", "json", choices=FORMATS)
    res.check_unread()
    manifest, graph, text_vectors, params, state = _load_artifacts(args)

    try:
        target = graph.index_of(args.target)
    except KeyError as exc:
        raise DomainError(f"unknown target node: {args.target!r}") from exc
    texts = None
    if args.node_text:  # every line is checked, so a malformed one anywhere exits 2; explain_target reads citers only
        try:
            channels = corpus.check_channels(manifest["channels"])
        except (KeyError, ValueError) as exc:
            raise DataError(f"{args.manifest}: malformed manifest: {exc}") from exc
        citers = [graph.node_ids[i] for i in graph.in_neighbors(target)]
        docs = corpus.load_node_text(_require_file(args.node_text, "node text"), nodes=citers)
        texts = {nid: doc.tokens(channels) for nid, doc in docs.items()}
    explanation = explain_target(
        args.target, params, state, graph, text_vectors, texts=texts, top_n=top_n, top_m=top_m
    )
    out_dir = _out_dir(args)
    out_path = os.path.join(out_dir, f"explanation.{fmt}")
    export_explanation(explanation, out_path, format=fmt)
    _echo_config(out_dir, "explain", {**res.resolved, "target": args.target, "out_dir": out_dir})
    populated = sum(1 for group in explanation.aspects if group)
    print(f"explain: target={args.target} populated-aspects={populated} -> {out_path}")
    return 0


# ------------------------------------------------------------------ wiring

def _ingest_arguments(p) -> None:
    p.add_argument("--edges", required=True, help="TSV edge list: source<TAB>target")
    p.add_argument("--node-text", help="TSV node text: node_id<TAB>channel<TAB>tokens")
    p.add_argument("--word-vectors", help="pretrained word vector text file")
    p.add_argument("--node-features", help="TSV dense node features used directly as text embeddings")
    p.add_argument(
        "--channels", type=lambda s: tuple(v for v in s.split(",") if v),
        help="comma-separated channel subset (default: title)",
    )
    p.add_argument("--ratios", type=_parse_float_list, help="train,validation,test ratios (default 0.8,0.1,0.1)")
    p.add_argument("--negatives-per-positive", type=int)


def _train_arguments(p) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--variant", choices=VARIANTS)
    for name, (_, parse) in _TRAIN_OPTIONS.items():
        p.add_argument("--" + name.replace("_", "-"), type=parse)


def _artifact_arguments(p) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--state", required=True)


def _evaluate_arguments(p) -> None:
    _artifact_arguments(p)
    p.add_argument("--split", choices=SPLITS)
    p.add_argument("--ks", type=_parse_int_list)
    p.add_argument("--rank-negatives", type=int)
    p.add_argument("--per-source-csv", action="store_true", help="also write per-source ranking metrics as CSV")


def _predict_arguments(p) -> None:
    _artifact_arguments(p)
    p.add_argument("--pairs", required=True, help="TSV of source<TAB>target pairs")


def _explain_arguments(p) -> None:
    _artifact_arguments(p)
    p.add_argument("--target", required=True)
    p.add_argument("--top-n", type=int, help="citers per aspect (default 5)")
    p.add_argument("--top-m", type=int, help="summary terms per aspect (default 10)")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--node-text", help="optional node text TSV for term summaries")


# name: (handler, help line, takes --seed, adds the command's own arguments)
_COMMANDS = {
    "ingest": (cmd_ingest, "build graph, text embeddings, and split; write a dataset manifest", True, _ingest_arguments),
    "train": (cmd_train, "run the alternating optimization and write checkpoint/state/report", True, _train_arguments),
    "evaluate": (cmd_evaluate, "score a held-out split and write the metrics report", True, _evaluate_arguments),
    "predict": (cmd_predict, "score arbitrary node pairs from a TSV", False, _predict_arguments),
    "explain": (cmd_explain, "per-aspect citer ranking and term summary for a target node", False, _explain_arguments),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The CLI parser; given a command name, it registers only that command's subparser."""
    parser = _Parser(prog="aspectcite", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, seeded, add_arguments) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--out-dir", required=True, help="directory for all output artifacts")
        p.add_argument("--config", help="flat key=value config file (flags override it)")
        if seeded:  # predict and explain draw no random number
            p.add_argument("--seed", type=int, help=f"root seed (also ${SEED_ENV_VAR})")
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a named command needs only its own subparser; anything else (--help, a typo) gets all five
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except TrainingAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 4
    except (DataError, FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
