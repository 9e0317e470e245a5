"""In-memory span tracer that wraps aspectcite call sites from outside.

The tracer replaces a function's binding in the module that *calls* it
(`aspectcite.training.build_transition`, not the definition in
`aspectcite.propagation`), because a `from .x import f` copy is what the
caller looks up. Each wrapped call records a span (name, start, end, parent);
self time is a span's duration minus its direct children's. A binding that
no longer exists is listed in `missing` instead of failing the run, so the
benchmark survives renames in the package.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _rows(args, kwargs, result, counters):
    pairs = args[0] if args else kwargs["pairs"]
    counters["model.impacts_for_pairs.rows"] += len(pairs)


def _triplets(args, kwargs, result, counters):
    counters["training.sample_triplets.drawn"] += len(result)
    counters["training.sample_triplets.skipped"] += getattr(result, "skipped", 0)


def _transition(args, kwargs, result, counters):
    counters["_last_transition"] = result


def _phase(args, kwargs, result, counters):
    initial = args[1] if len(args) > 1 else kwargs["initial"]
    counters["propagation.phases"] += 1
    counters["propagation.steps"] += result.step - initial.step
    counters["propagation.unconverged"] += 0 if result.converged else 1
    counters["propagation.residual_max"] = max(counters["propagation.residual_max"], float(result.residual))


def _checkpoint_size(args, kwargs, result, counters):
    counters["model.checkpoint_bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# Span name -> every call-site binding ("module:attribute[.attribute]") that
# reaches it. Names are `<layer>.<function>`; the layer is the module that
# defines the function.
HOOKS = {
    "training.fit": (["aspectcite:fit", "aspectcite.cli:fit"], None),
    "training.sy_phase": (["aspectcite.training:train_sy_phase"], None),
    "training.sd_phase": (["aspectcite:train_sd_phase", "aspectcite.training:train_sd_phase"], None),
    "training.sample_triplets": (["aspectcite.training:sample_triplets"], _triplets),
    "training.forward": (["aspectcite.training:_forward"], None),
    "training.backward": (["aspectcite.training:batch_loss_and_grads"], None),
    "training.alphas": (["aspectcite.training:sample_batch_alphas"], None),
    "training.update": (["aspectcite.training:_apply_sgd"], None),
    "training.eval_loss": (["aspectcite.training:batch_loss"], None),
    "model.impacts_for_pairs": (
        ["aspectcite.model:impacts_for_pairs", "aspectcite.explain:impacts_for_pairs"], _rows),
    "model.save_checkpoint": (["aspectcite.cli:save_checkpoint"], _checkpoint_size),
    "model.load_checkpoint": (["aspectcite.cli:load_checkpoint"], None),
    "propagation.build_transition": (["aspectcite.training:build_transition"], _transition),
    "propagation.apply_projection": (["aspectcite.propagation:apply_projection"], None),
    "propagation.propagate": (["aspectcite.training:propagate"], _phase),
    "propagation.save_state": (["aspectcite.cli:save_state"], None),
    "propagation.load_state": (["aspectcite.cli:load_state"], None),
    "metrics.evaluate": (["aspectcite:evaluate", "aspectcite.cli:evaluate"], None),
    "metrics.scores_for_pairs": (["aspectcite.metrics:scores_for_pairs"], None),
    "metrics.sample_source_negatives": (["aspectcite.metrics:_sample_source_negatives"], None),
    "metrics.rank_metrics": (["aspectcite.metrics:average_precision_at_k", "aspectcite.metrics:ndcg_at_k"], None),
    "metrics.auc": (["aspectcite.metrics:auc"], None),
    "explain.explain_target": (["aspectcite.cli:explain_target"], None),
    "corpus.load_edge_list": (["aspectcite.corpus:load_edge_list"], None),
    "corpus.load_node_features": (["aspectcite.corpus:load_node_features"], None),
    "corpus.load_node_text": (["aspectcite.corpus:load_node_text"], None),
    "corpus.split_edges": (["aspectcite:split_edges", "aspectcite.corpus:split_edges"], None),
    "corpus.split_from_dict": (["aspectcite.corpus:DatasetSplit.from_dict"], None),
    "graph.build_graph": (["aspectcite:build_graph", "aspectcite.cli:build_graph"], None),
    "cli.load_manifest": (["aspectcite.cli:_load_manifest"], None),
    "cli.write_json": (["aspectcite.cli:_write_json"], None),
}


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: defaultdict = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._paused = False

    @contextmanager
    def span(self, name: str):
        if self._paused:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def paused(self):
        """Run benchmark-side checks without recording them as program work."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    def _wrap(self, name, func, on_return):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if on_return is not None and not self._paused:
                on_return(args, kwargs, result, self.counters)
            return result

        return traced

    def install(self) -> None:
        for name, (sites, on_return) in HOOKS.items():
            for site in sites:
                module_name, _, attr_path = site.partition(":")
                *owners, attr = attr_path.split(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in owners:
                        owner = getattr(owner, part)
                    current = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(site)
                    continue
                if isinstance(owner, type):
                    original = owner.__dict__[attr]  # keep the descriptor (classmethod) for restore
                    setattr(owner, attr, staticmethod(self._wrap(name, current, on_return)))
                else:
                    original = current
                    setattr(owner, attr, self._wrap(name, current, on_return))
                self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
