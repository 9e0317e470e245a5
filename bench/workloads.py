"""The three benchmark workloads, driven through aspectcite's public API.

Each workload takes a `Run`, generates its inputs from `run.seed`, times
set-up and the measured work into named samples, and records every output
check as one operation attempted (and failed, when a check does not hold).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import time
from collections import defaultdict

import numpy as np

import aspectcite as ac
from aspectcite import cli
from aspectcite.corpus import DatasetSplit
from aspectcite.metrics import MetricsReport

import gen

MIN_REPS = {"cora-train": 3, "prop-100k": 2}
MIN_QUERIES = 100
QUICK_QUERIES = 10  # per traced pass
QUERY_SET = 10  # distinct predict pair files and explain targets, cycled


class Run:
    """Samples, checks and per-layer extras of one pass over a workload.

    A full pass sets up several times and repeats the work while another
    repetition fits in `seconds` (but at least a minimum number of times); a
    quick pass, used for traced runs, sets up once and does the work once.
    """

    def __init__(self, seed: int, seconds: float, workdir: str, quick: bool = False, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.quick = quick
        self.tracer = tracer
        self.samples: defaultdict = defaultdict(list)
        self.values: dict = {}  # single-valued results (counts, bytes, digests)
        self.layer: dict = {}  # per-layer numbers the workload measures itself
        self.inputs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._work_started = None

    def begin_work(self) -> None:
        """Start the measured window; `more` starts it lazily otherwise."""
        self._work_started = time.perf_counter()

    @contextlib.contextmanager
    def timed(self, metric: str):
        gc.collect()  # no sample pays for garbage an earlier one left
        span = self.tracer.span(f"bench.{metric}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            yield
        self.samples[metric].append(time.perf_counter() - start)

    def checks(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def setups(self, count: int) -> range:
        return range(1 if self.quick else count)

    def more(self, done: int, minimum: int, quick_count: int = 1) -> bool:
        """Whether another repetition fits in the measured window."""
        if self.quick:
            return done < quick_count
        if self._work_started is None:
            self.begin_work()
        elapsed = time.perf_counter() - self._work_started
        return done < minimum or elapsed * (done + 1) / done <= self.seconds

    def record(self, operation: str, problems) -> None:
        problems = [p for p in problems if p]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{operation}: {'; '.join(problems)}")


def invalid(check, *args) -> str | None:
    """The message of the ValueError a validate() call raises, else None."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def same(label: str, value, reference) -> str | None:
    return None if value == reference else f"{label} differs between repetitions of one seed"


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


# ------------------------------------------------------------- cora-train

def cora_train(run: Run) -> None:
    """Cora-shaped `ac.fit` (DP variant, 1 epoch per phase) then `ac.evaluate`."""
    edges, text = gen.cora_like(run.seed)
    id_edges = gen.id_edges(edges)
    run.inputs = {"nodes": gen.CORA_NODES, "edges": len(edges), "text_dim": text.shape[1],
                  "edges_sha256": gen.digest(edges), "text_sha256": gen.digest(text)}

    for _ in run.setups(15):
        with run.timed("setup_s"):
            graph = ac.build_graph(id_edges)
            split = ac.split_edges(graph, (0.8, 0.1, 0.1), 1, run.seed)
            text_vectors = text[[int(nid[1:]) for nid in graph.node_ids]]
        with run.checks():
            run.record("setup", [
                invalid(split.validate, graph),
                None if (graph.num_nodes, graph.num_edges) == (len(text), len(edges)) else "graph size",
            ])

    config = ac.TrainConfig(epochs_per_phase=1, alternations=3, seed=run.seed)
    reference = None
    done = 0
    while run.more(done, MIN_REPS["cora-train"]):
        with run.timed("fit_s"):
            result = ac.fit(graph, split, config, text_vectors)
        with run.timed("evaluate_s"):
            report = ac.evaluate(result.params, result.state, split, graph, text_vectors, seed=run.seed)
        run.samples["work_s"].append(run.samples["fit_s"][-1] + run.samples["evaluate_s"][-1])
        done += 1

        phases = [p for stage in result.report["stages"] for p in stage["sd_phases"]]
        steps = [int(p["steps"]) for p in phases]  # AspectState.step is cumulative across phases
        outcome = {
            "auc": report.auc,
            "ap_at_10": report.ap_at_k[10],
            "steps_per_phase": [b - a for a, b in zip([0] + steps, steps)],
            "residuals": [float(p["residual"]) for p in phases],
            "unconverged_phases": sum(not p["converged"] for p in phases),
        }
        with run.checks():
            run.record("fit", [invalid(result.state.validate), None if len(phases) == 3 else "phase count"])
            run.record("evaluate", [invalid(report.validate)] + (
                [same(key, outcome[key], reference[key]) for key in outcome] if reference else []))
        reference = reference or outcome
        run.samples["auc"].append(report.auc)
        run.samples["ap_at_10"].append(report.ap_at_k[10])
    run.values.update(reference)


# -------------------------------------------------------------- prop-100k

PROP_DIMS = ac.Dims(aspects=5, text_dim=16, struct_dim=16)


def prop_100k(run: Run) -> None:
    """Three warm-started `ac.train_sd_phase` calls on a 10^5-node graph.

    Between phases the similarity weights get a seeded perturbation, as a
    scoring phase would move them; the scoring chain itself never runs.
    """
    edges = gen.skewed_graph(run.seed)
    id_edges = gen.id_edges(edges)
    text = np.random.default_rng([run.seed, 1]).normal(size=(gen.PROP_NODES, PROP_DIMS.text_dim))
    run.inputs = {"nodes": gen.PROP_NODES, "edges": len(edges), "edges_sha256": gen.digest(edges),
                  "text_sha256": gen.digest(text)}

    for _ in run.setups(3):
        graph = None  # the previous set-up's graph must not add to peak memory
        with run.timed("setup_s"):
            graph = ac.build_graph(id_edges)
            state0 = ac.initialize_state(graph.num_nodes, PROP_DIMS.aspects)
            params0 = ac.ModelParams.initialize(PROP_DIMS, graph.num_nodes, ac.substream(run.seed, "init"))
        with run.checks():
            dangling = len(ac.dangling_nodes(graph))
            run.record("setup", [None if (graph.num_nodes, graph.num_edges) == (gen.PROP_NODES, len(edges))
                                 else "graph size", invalid(state0.validate)])
    run.inputs["dangling_nodes"] = dangling
    text_vectors = text[[int(nid[1:]) for nid in graph.node_ids]]

    config = ac.TrainConfig(aspects=PROP_DIMS.aspects, struct_dim=PROP_DIMS.struct_dim, seed=run.seed)
    reference = None
    done = 0
    while run.more(done, MIN_REPS["prop-100k"]):
        params, state = params0.copy(), state0
        noise = np.random.default_rng([run.seed, 2])
        phases = []
        for _ in range(3):
            with run.timed("work_s"):
                new = ac.train_sd_phase(params, state, graph.edge_array, config, text_vectors)
            with run.checks():
                run.record("phase", [invalid(new.validate)])
            phases.append((new.step - state.step, float(new.residual), bool(new.converged)))
            state = new
            params.similarity_weights += noise.normal(scale=0.05, size=params.similarity_weights.shape)
        run.samples["propagation_s"].append(sum(run.samples["work_s"][-3:]))
        done += 1
        outcome = {
            "steps_per_phase": [p[0] for p in phases],
            "residuals": [p[1] for p in phases],
            "unconverged_phases": sum(not p[2] for p in phases),
            "state_sha256": gen.digest(state.matrix),
        }
        if reference:
            run.record("repeat", [same(key, outcome[key], reference[key]) for key in outcome])
        reference = reference or outcome
    run.values.update(reference)


# ---------------------------------------------------------- cli-roundtrip

def _cli(args) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in args])


def _exit(rc: int) -> str | None:
    return None if rc == 0 else f"exit code {rc}"


def cli_roundtrip(run: Run) -> None:
    """ingest -> train -> evaluate, then a one-client closed loop of queries.

    Queries alternate `predict` and `explain --node-text`; each reloads the
    manifest, checkpoint and state, as a CLI user pays on every call.
    """
    work = run.workdir
    paths, edges = gen.write_cli_files(run.seed, os.path.join(work, "inputs"))
    run.inputs = gen.file_digest(paths)

    rng = np.random.default_rng([run.seed, 3])
    cited = np.unique(edges[:, 1])
    targets = [f"p{t}" for t in rng.choice(cited, size=QUERY_SET, replace=False)]
    pair_files = []
    for q in range(QUERY_SET):
        src = rng.integers(gen.CORA_NODES, size=100)
        dst = (src + 1 + rng.integers(gen.CORA_NODES - 1, size=100)) % gen.CORA_NODES
        pair_files.append(os.path.join(work, "inputs", f"pairs{q}.tsv"))
        with open(pair_files[-1], "w", encoding="utf-8") as fh:
            fh.writelines(f"p{a}\tp{b}\n" for a, b in zip(src, dst))

    ingest_files = ("manifest.json", "text_vectors.npy")
    first = None
    for k in run.setups(15):
        out = os.path.join(work, f"ingest{k}")
        with run.timed("setup_s"):
            rc = _cli(["ingest", "--out-dir", out, "--edges", paths["edges"],
                       "--node-features", paths["features"], "--seed", run.seed])
        digests = [_sha(os.path.join(out, f)) for f in ingest_files] if rc == 0 else None
        run.record("ingest", [_exit(rc)] + ([same("ingest artifacts", digests, first)] if k else []))
        first = first or digests
        if k:
            shutil.rmtree(out)  # only ingest0 is used; each copy holds ~30 MB of text vectors
    dataset = os.path.join(work, "ingest0")
    manifest = os.path.join(dataset, "manifest.json")
    with open(manifest, encoding="utf-8") as fh:
        payload = json.load(fh)
    with run.checks():
        graph = ac.build_graph([tuple(e) for e in payload["edges"]])
        run.record("split", [invalid(DatasetSplit.from_dict(payload["split"], graph).validate, graph)])

    trained = os.path.join(work, "train0")
    artifacts = ["--manifest", manifest, "--checkpoint", os.path.join(trained, "checkpoint.json"),
                 "--state", os.path.join(trained, "state.json")]
    run.begin_work()
    trained_digests = evaluated = None
    for k in range(1 if run.quick else 2):
        out = os.path.join(work, f"train{k}")
        with run.timed("cli_train_s"):
            rc = _cli(["train", "--out-dir", out, "--manifest", manifest,
                       "--epochs-per-phase", 1, "--alternations", 1])
        problems = [_exit(rc)]
        if rc == 0:
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            report.pop("timing")
            digests = [_sha(os.path.join(out, f)) for f in ("checkpoint.json", "state.json")] + [report]
            with run.checks():
                problems.append(invalid(ac.propagation.load_state(os.path.join(out, "state.json")).validate))
            problems += [same("train artifacts", digests, trained_digests)] if k else []
            trained_digests = trained_digests or digests
            phases = [p for stage in report["stages"] for p in stage["sd_phases"]]
            run.values["unconverged_phases"] = sum(not p["converged"] for p in phases)
        run.record("train", problems)

    for k in range(1 if run.quick else 2):
        out = os.path.join(work, f"evaluate{k}")
        with run.timed("cli_evaluate_s"):
            rc = _cli(["evaluate", "--out-dir", out, *artifacts])
        problems = [_exit(rc)]
        if rc == 0:
            with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
                metrics = json.load(fh)
            report = MetricsReport(
                auc=metrics["auc"], recall=metrics["recall"],
                ap_at_k={int(k): v for k, v in metrics["ap_at_k"].items()},
                ndcg_at_k={int(k): v for k, v in metrics["ndcg_at_k"].items()},
                num_positives=metrics["num_positives"], num_negatives=metrics["num_negatives"],
                num_ranked_sources=metrics["num_ranked_sources"],
            )
            problems.append(invalid(report.validate))
            problems += [same("metrics.json", metrics, evaluated)] if k else []
            evaluated = evaluated or metrics
            run.samples["auc"].append(metrics["auc"])
        run.record("evaluate", problems)

    seen: dict = {}
    queries = 0
    while run.more(queries, MIN_QUERIES, QUICK_QUERIES):
        q = queries // 2 % QUERY_SET
        if queries % 2 == 0:
            kind, out, output = "predict", os.path.join(work, "predict"), "predictions.json"
            args = ["predict", "--out-dir", out, *artifacts, "--pairs", pair_files[q]]
        else:
            kind, out, output = "explain", os.path.join(work, "explain"), "explanation.json"
            args = ["explain", "--out-dir", out, *artifacts, "--target", targets[q], "--node-text", paths["node_text"]]
        with run.timed("work_s"):
            rc = _cli(args)
        run.samples[f"{kind}_s"].append(run.samples["work_s"][-1])
        queries += 1
        problems = [_exit(rc)]
        if rc == 0:
            digest = _sha(os.path.join(out, output))
            problems.append(same(f"{kind} output", digest, seen.setdefault((kind, q), digest)))
        run.record(kind, problems)

    # The files every query reloads; report.json is left out as its timing varies.
    query_inputs = [os.path.join(dataset, f) for f in ingest_files] + [artifacts[3], artifacts[5]]
    run.values["artifact_bytes"] = sum(os.path.getsize(f) for f in query_inputs)
    run.values["outputs_sha256"] = hashlib.sha256(
        json.dumps([first, trained_digests, evaluated, sorted(seen.items())], sort_keys=True).encode()).hexdigest()
    for command, directory in (("ingest", dataset), ("train", trained), ("evaluate", "evaluate0"),
                               ("predict", "predict"), ("explain", "explain")):
        run.layer[f"cli.{command}.bytes_written"] = _dir_bytes(os.path.join(work, directory))


WORKLOADS = {"cora-train": cora_train, "prop-100k": prop_100k, "cli-roundtrip": cli_roundtrip}


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
