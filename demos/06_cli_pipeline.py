#!/usr/bin/env python3
"""The full CLI pipeline on generated files: ingest -> train -> evaluate ->
predict -> explain, all under one output directory with a config echo per
command. Identical seeds reproduce every artifact byte for byte.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from aspectcite.cli import main

tempdir = tempfile.TemporaryDirectory(prefix="aspectcite-demo-")
workdir = Path(tempdir.name)
out = workdir / "run"
rng = np.random.default_rng(0)

edges = set()
while len(edges) < 80:
    a, b = rng.integers(30, size=2)
    if a != b:
        edges.add((f"p{a}", f"p{b}"))
(workdir / "edges.tsv").write_text("\n".join(f"{a}\t{b}" for a, b in sorted(edges)) + "\n")

words = [f"w{i}" for i in range(20)]
lines = []
for node in sorted({n for e in edges for n in e}):
    lines.append(f"{node}\ttitle\t{' '.join(rng.choice(words, size=3, replace=False))}")
(workdir / "text.tsv").write_text("\n".join(lines) + "\n")
(workdir / "vectors.txt").write_text(
    "\n".join(f"{w} " + " ".join(f"{v:.4f}" for v in rng.normal(size=8)) for w in words) + "\n"
)

steps = [
    ["ingest", "--edges", str(workdir / "edges.tsv"), "--node-text", str(workdir / "text.tsv"),
     "--word-vectors", str(workdir / "vectors.txt"), "--out-dir", str(out), "--seed", "7"],
    ["train", "--manifest", str(out / "manifest.json"), "--out-dir", str(out),
     "--variant", "dp", "--aspects", "3", "--struct-dim", "8",
     "--epochs-per-phase", "5", "--alternations", "2", "--batch-size", "32", "--seed", "7"],
    ["evaluate", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
     "--state", str(out / "state.json"), "--out-dir", str(out), "--rank-negatives", "10",
     "--per-source-csv", "--seed", "7"],
]
for argv in steps:
    print(f"\n$ aspectcite {' '.join(argv[:1] + ['...'])}")
    code = main(argv)
    assert code == 0, f"command failed with exit code {code}"

manifest = json.loads((out / "manifest.json").read_text())
some_pairs = workdir / "pairs.tsv"
a, b, c = manifest["nodes"][:3]
some_pairs.write_text(f"{a}\t{b}\n{b}\t{c}\n{c}\t{a}\n")
print("\n$ aspectcite predict ...")
assert main(["predict", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
             "--state", str(out / "state.json"), "--pairs", str(some_pairs), "--out-dir", str(out)]) == 0

target = manifest["edges"][0][1]
print("\n$ aspectcite explain ...")
assert main(["explain", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
             "--state", str(out / "state.json"), "--target", target, "--node-text", str(workdir / "text.tsv"),
             "--top-n", "5", "--out-dir", str(out)]) == 0

print(f"\nartifacts under {out}:")
for path in sorted(out.iterdir()):
    print(f"  {path.name}  ({path.stat().st_size} bytes)")

tempdir.cleanup()
