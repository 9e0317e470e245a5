"""aspectcite benchmark: seeded workloads, correctness checks, per-layer trace.

Run from the repository root:

    python3 bench/run.py                                  # every workload, summary table
    python3 bench/run.py --workload prop-100k --seed 3 --trace 0

BENCHMARK.json is the one place that sets the run length (run_seconds, the
default of `--seconds`) and the names and units of the metrics in the result
line.

BENCHMARK.json lists the workloads a change is gated on: prop-100k and
cli-roundtrip. cora-train runs here too, but is not gated: on a shared
2-vCPU VM its work_s spread over ten seeds (quartile distance over median)
was 0.20 to 0.24, against 0.06 to 0.14 for prop-100k and 0.11 to 0.17
for cli-roundtrip.

Each workload runs in its own process. The last stdout line is one JSON
object {correct, attempted, failed, metrics}; the lines above it are a table
of every workload metric with its unit and sample count.

With `--trace 0` the metrics are the end-to-end ones:
  setup_s  median set-up time: build_graph + split_edges (cora-train, 15
           times), build_graph + initial state and parameters (prop-100k, 3
           times), the `ingest` command (cli-roundtrip, 15 times)
  work_s   mean time of the workload's unit of work over the measured
           window: one fit + evaluate (cora-train), one train_sd_phase call
           (prop-100k), one predict or explain query (cli-roundtrip)

With `--trace 1` the run makes a quick untraced pass, the same pass with
every call-site hook in `spans.HOOKS` installed, and another untraced pass,
and reports the per-layer metrics of the traced pass; a layer metric whose
hook never ran reads 0. trace.overhead_s (traced minus the faster untraced
pass) can read below 0 when run-to-run noise exceeds the cost of tracing.
Spans go to `.bench_out/spans-<workload>-seed<seed>.jsonl`, and every run
writes a full report to `.bench_out/<workload>-seed<seed>-trace<t>.json`.

Exit codes: 0 all checks passed, 1 a correctness check failed, 2 the
package source is not in `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
NPROC = len(os.sched_getaffinity(0))

# Cap BLAS threads at the cores this process may use; must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _wanted = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_wanted), NPROC) if _wanted.isdigit() and int(_wanted) > 0 else NPROC)

WORKLOAD_NAMES = ("cora-train", "prop-100k", "cli-roundtrip")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Metrics in the result line: name -> unit; end-to-end with `--trace 0`,
# per-layer with `--trace 1`. peak_rss_mb is only in the table: on a shared
# 2-vCPU VM, ru_maxrss after one cora-train fit of one seed read anywhere
# from 278 to 361 MB from run to run.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Workload-specific end-to-end metrics printed in the table: name -> unit.
DETAIL_UNITS = {
    "fit_s": "s", "evaluate_s": "s", "auc": "1", "ap_at_10": "1", "unconverged_phases": "count",
    "propagation_s": "s", "cli_train_s": "s", "cli_evaluate_s": "s",
    "query_p50_s": "s", "query_p90_s": "s", "predict_s": "s", "explain_s": "s", "artifact_bytes": "bytes",
}


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            threads = int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            pass
    return {
        "nproc": NPROC,
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "threads": threads, "threads_env": os.environ["OPENBLAS_NUM_THREADS"]},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def summarize(name: str, values) -> float:
    """work_s is a mean, the rest medians (query_p90_s its 90th percentile).

    A shared 2-vCPU VM alternated between a fast state and one up to 1.6x
    slower for seconds at a time, so short samples were bimodal and their
    median jumped between the modes from run to run; the mean, which is time
    per unit of work over the window (1 / closed-loop throughput), moves
    smoothly. Over ten cli-roundtrip runs there, the quartile spread of the
    median was 0.18 and of the mean 0.11.
    """
    import numpy as np

    values = np.asarray(values, dtype=float)
    if name == "work_s":
        return float(values.mean())
    return float(np.quantile(values, 0.9 if name == "query_p90_s" else 0.5))


def detail_metrics(run) -> dict:
    """Every workload-level metric with its unit and sample count."""
    out = {}
    samples = {k: v for k, v in run.samples.items() if v}
    if "work_s" in samples and "predict_s" in samples:
        samples["query_p50_s"] = samples["query_p90_s"] = samples["work_s"]
    for name, values in samples.items():
        if name not in DETAIL_UNITS and name not in END_TO_END:
            continue
        out[name] = {"value": summarize(name, values), "unit": DETAIL_UNITS.get(name) or END_TO_END[name],
                     "n": len(values)}
    for name in ("unconverged_phases", "artifact_bytes"):
        if name in run.values:
            out[name] = {"value": run.values[name], "unit": DETAIL_UNITS[name], "n": 1}
    out["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB", "n": 1}
    return out


def step_bytes(tensor) -> float:
    """Bytes one apply_projection step reads and writes, computed from array sizes.

    Per aspect: the CSR arrays, the state column read by the matvec and by
    the dangling-mass sum, the dangling mask column and the output column;
    plus one read of the whole state for the column sums.
    """
    n = tensor.num_nodes
    total = n * tensor.aspects * 8
    for matrix in tensor.matrices:
        total += matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes + 3 * n * 8 + n
    return float(total)


def layer_metrics(summary: dict, counters, extra: dict, overhead_s: float, missing: list) -> dict:
    """Per-layer metrics from span self times, hook counters and workload extras."""

    def get(name, key="self_s"):
        return float(summary.get(name, {}).get(key, 0.0))

    batches = get("training.backward", "calls")
    sy_time = get("training.sy_phase", "total_s")
    steps = get("propagation.apply_projection", "calls")
    phases = counters["propagation.phases"]
    transition = counters.get("_last_transition")
    metrics = {
        "training.sample_triplets.self_s": get("training.sample_triplets"),
        "training.sample_triplets.calls": get("training.sample_triplets", "calls"),
        "training.sample_triplets.skipped": counters["training.sample_triplets.skipped"],
        "training.forward.self_s": get("training.forward"),
        "training.forward.calls": get("training.forward", "calls"),
        "training.forward.calls_per_batch": get("training.forward", "calls") / batches if batches else 0.0,
        "training.backward.self_s": get("training.backward"),
        "training.alphas.self_s": get("training.alphas"),
        "training.update.self_s": get("training.update"),
        "training.eval_loss.self_s": get("training.eval_loss"),
        "training.triplets_per_s": counters["training.sample_triplets.drawn"] / sy_time if sy_time else 0.0,
        "model.impacts_for_pairs.self_s": get("model.impacts_for_pairs"),
        "model.impacts_for_pairs.rows": counters["model.impacts_for_pairs.rows"],
        "model.save_checkpoint.s": get("model.save_checkpoint", "total_s"),
        "model.load_checkpoint.s": get("model.load_checkpoint", "total_s"),
        "model.checkpoint_bytes": counters["model.checkpoint_bytes"],
        "propagation.build_transition.self_s": get("propagation.build_transition"),
        "propagation.apply_projection.self_s": get("propagation.apply_projection"),
        "propagation.apply_projection.calls": steps,
        "propagation.step_ms": 1000.0 * get("propagation.apply_projection", "total_s") / steps if steps else 0.0,
        "propagation.steps_per_phase": counters["propagation.steps"] / phases if phases else 0.0,
        "propagation.unconverged_phases": counters["propagation.unconverged"],
        "propagation.residual_max": counters["propagation.residual_max"],
        "propagation.propagate.self_s": get("propagation.propagate"),
        "propagation.step_bytes_computed": step_bytes(transition) if transition is not None else 0.0,
        "propagation.save_state.s": get("propagation.save_state", "total_s"),
        "propagation.load_state.s": get("propagation.load_state", "total_s"),
        "metrics.scores_for_pairs.calls": get("metrics.scores_for_pairs", "calls"),
        "metrics.scores_for_pairs.self_s": get("metrics.scores_for_pairs"),
        "metrics.sample_source_negatives.self_s": get("metrics.sample_source_negatives"),
        "metrics.rank_metrics.self_s": get("metrics.rank_metrics"),
        "metrics.auc.self_s": get("metrics.auc"),
        "metrics.evaluate.self_s": get("metrics.evaluate"),
        "explain.explain_target.s": get("explain.explain_target", "total_s"),
        "corpus.load_edge_list.s": get("corpus.load_edge_list", "total_s"),
        "corpus.load_node_features.s": get("corpus.load_node_features", "total_s"),
        "corpus.load_node_text.s": get("corpus.load_node_text", "total_s"),
        "corpus.split_edges.s": get("corpus.split_edges", "total_s"),
        "corpus.split_from_dict.s": get("corpus.split_from_dict", "total_s"),
        "graph.build_graph.s": get("graph.build_graph", "total_s"),
        "cli.load_manifest.self_s": get("cli.load_manifest"),
        "cli.write_json.s": get("cli.write_json", "total_s"),
    }
    for command in ("ingest", "train", "evaluate", "predict", "explain"):
        metrics[f"cli.{command}.bytes_written"] = float(extra.get(f"cli.{command}.bytes_written", 0))
    metrics["trace.overhead_s"] = overhead_s
    metrics["trace.missing_hooks"] = float(len(missing))
    return metrics


def largest_shares(summary: dict, top: int = 6) -> dict:
    """Hooks and layers by self time, as shares of the traced pass's wall time.

    The `bench` layer's self time is work inside the measured calls that no
    hook covers (argument parsing, file I/O, glue code).
    """
    wall = sum(v["total_s"] for k, v in summary.items() if k.startswith("bench."))
    layers: dict = {}
    for name, v in summary.items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + v["self_s"]

    def ranked(items):
        best = sorted(items, key=lambda kv: -kv[1])[:top]
        return [(name, seconds, seconds / wall if wall else 0.0) for name, seconds in best]

    return {"hooks": ranked((k, v["self_s"]) for k, v in summary.items()), "layers": ranked(layers.items())}


def guarded(body, run) -> None:
    """Run a workload; an exception from the program fails the run, not the benchmark."""
    try:
        body(run)
    except Exception as exc:  # any program error is a failed operation to report
        run.record("workload", [f"raised {type(exc).__name__}: {exc}"])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    import shutil

    import workloads
    from spans import Tracer

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{name}-seed{seed}-{os.getpid()}")
    body = workloads.WORKLOADS[name]
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "env": environment()}
    try:
        if not trace:
            run = workloads.Run(seed, seconds, workloads.fresh_dir(workdir))
            guarded(body, run)
            details = detail_metrics(run)
            metrics = {k: {"value": details[k]["value"], "unit": unit} for k, unit in END_TO_END.items() if k in details}
            report["metrics"] = details
        else:
            # Untraced passes before and after the traced one; the faster is the
            # reference for the tracing overhead and must give the same outputs.
            references = []
            reference = workloads.Run(seed, seconds, workloads.fresh_dir(workdir), quick=True)
            guarded(body, reference)
            references.append(reference)
            tracer = Tracer()
            run = workloads.Run(seed, seconds, workloads.fresh_dir(workdir), quick=True, tracer=tracer)
            tracer.install()
            try:
                guarded(body, run)
            finally:
                tracer.uninstall()
                tracer.write(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))
            reference = workloads.Run(seed, seconds, workloads.fresh_dir(workdir), quick=True)
            guarded(body, reference)
            references.append(reference)
            untraced_s = min(sum(r.samples["work_s"]) for r in references)
            overhead = sum(run.samples["work_s"]) - untraced_s
            summary = tracer.summary()
            layer = layer_metrics(summary, tracer.counters, run.layer, overhead, tracer.missing)
            metrics = {k: {"value": layer[k], "unit": unit} for k, unit in PER_LAYER.items()}
            for reference in references:
                same_outputs = (reference.values, reference.samples["auc"]) == (run.values, run.samples["auc"])
                run.record("traced pass", [None if same_outputs else "tracing changed the workload's outputs"])
                run.attempted += reference.attempted
                run.failed += reference.failed
                run.failures += reference.failures
            report.update(spans=summary, missing_hooks=tracer.missing, layer_metrics=layer,
                          largest_shares=largest_shares(summary), untraced=detail_metrics(reference),
                          traced=detail_metrics(run))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(inputs=run.inputs, values=run.values, samples=dict(run.samples), attempted=run.attempted,
                  failed=run.failed, failures=run.failures)
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    return report, metrics, run


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}  trace {report['trace']}")
    print(f"env {json.dumps(report['env'], sort_keys=True)}")
    print(f"inputs {json.dumps(report['inputs'], sort_keys=True)}")
    table = report.get("metrics") or report.get("traced")
    print(f"  {'metric':<22}{'value':>14}  {'unit':<6}{'n':>5}")
    for name, m in table.items():
        print(f"  {name:<22}{m['value']:>14.6g}  {m['unit']:<6}{m['n']:>5}")
    values = {k: v for k, v in report["values"].items() if k in ("steps_per_phase", "residuals")}
    if values:
        print(f"  per phase {json.dumps(values)}")
    if report["trace"]:
        for name, value in report["layer_metrics"].items():
            print(f"  {name:<42}{value:>14.6g}")
        if report["missing_hooks"]:
            print(f"  missing hooks (their metrics read 0): {', '.join(report['missing_hooks'])}")
        for kind, ranked in report["largest_shares"].items():
            print(f"  largest self time by {kind}: " + ", ".join(f"{n} {s:.3f}s ({100 * f:.0f}%)" for n, s, f in ranked))
        overhead = report["layer_metrics"]["trace.overhead_s"]
        print(f"  tracing overhead (traced minus untraced work_s, summed over the pass): {overhead:+.3f}s")
    print(f"correctness: {report['attempted'] - report['failed']}/{report['attempted']} operations passed")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def run_all(args) -> int:
    """Every workload in its own subprocess, then a summary table."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        totals["correct"] &= bool(result["correct"]) and proc.returncode == 0
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = m
        rows.append((name, proc.returncode, result))
    print("summary")
    for name, code, result in rows:
        print(f"  {name:<14} exit {code}  {result['attempted'] - result['failed']}/{result['attempted']} passed")
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    package = os.path.join(ROOT, "src", "aspectcite", "__init__.py")
    if not os.path.isfile(package):
        print(f"bench: aspectcite source not found at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.workload == "all":
        return run_all(args)
    started = time.perf_counter()
    report, metrics, run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(f"wall {time.perf_counter() - started:.1f}s")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
