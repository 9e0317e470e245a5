"""CLI pipeline: exit codes, artifact schemas, reproducibility."""

import argparse
import base64
import csv
import io
import json
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import aspectcite
from aspectcite import cli, codec, corpus
from aspectcite.cli import _load_manifest, _write_atomically, main
from aspectcite.explain import explain_target, export_explanation
from aspectcite.graph import build_graph
from aspectcite.model import ModelParams, load_checkpoint
from aspectcite.propagation import load_state, save_state
from test_model import checkpoint_entries, write_v1_checkpoint, write_v2_checkpoint, write_v3_checkpoint
from test_propagation import ARTIFACT_CORRUPTIONS, corrupt_artifact, write_v1_state, write_v2_state

ARTIFACT_FILES = ("checkpoint.json", "checkpoint.bin", "state.json", "state.bin")


@pytest.fixture
def dataset(tmp_path):
    """Toy multi-channel dataset on disk, sparse enough to split and sample."""
    rng = np.random.default_rng(0)
    edges = set()
    while len(edges) < 60:
        a, b = rng.integers(25, size=2)
        if a != b:
            edges.add((f"p{a}", f"p{b}"))
    edge_file = tmp_path / "edges.tsv"
    edge_file.write_text(
        "# source\ttarget\n" + "\n".join(f"{a}\t{b}" for a, b in sorted(edges)) + "\n", encoding="utf-8"
    )

    words = [f"w{i}" for i in range(12)]
    text_file = tmp_path / "text.tsv"
    lines = []
    for node in sorted({n for e in edges for n in e}):
        chosen = rng.choice(words, size=3, replace=False)
        lines.append(f"{node}\ttitle\t{' '.join(chosen)}")
        lines.append(f"{node}\tabstract\t{' '.join(rng.choice(words, size=4))}")
    text_file.write_text("\n".join(lines) + "\n", encoding="utf-8")

    vec_file = tmp_path / "vectors.txt"
    vec_lines = [f"{w} " + " ".join(f"{v:.4f}" for v in rng.normal(size=5)) for w in words]
    vec_file.write_text("\n".join(vec_lines) + "\n", encoding="utf-8")
    return tmp_path, edge_file, text_file, vec_file


def run_pipeline(tmp_path, edge_file, text_file, vec_file, out, seed="7", variant="dp", extra_train=()):
    ingest = main([
        "ingest", "--edges", str(edge_file), "--node-text", str(text_file),
        "--word-vectors", str(vec_file), "--channels", "title,abstract",
        "--out-dir", str(out), "--seed", seed,
    ])
    assert ingest == 0
    train = main([
        "train", "--manifest", str(out / "manifest.json"), "--out-dir", str(out),
        "--variant", variant, "--aspects", "3", "--struct-dim", "4",
        "--epochs-per-phase", "2", "--alternations", "2", "--batch-size", "16",
        "--seed", seed, *extra_train,
    ])
    assert train == 0
    evaluate = main([
        "evaluate", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
        "--state", str(out / "state.json"), "--out-dir", str(out),
        "--rank-negatives", "5", "--seed", seed,
    ])
    assert evaluate == 0


class TestIngest:
    def test_writes_manifest_with_stats(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        assert main([
            "ingest", "--edges", str(edges), "--node-text", str(text),
            "--word-vectors", str(vecs), "--out-dir", str(out), "--seed", "1",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stats"]["num_edges"] == 60
        assert manifest["stats"]["num_nodes"] == len(manifest["nodes"])
        assert 0 < manifest["stats"]["density"] < 1
        assert manifest["split"]["seed"] == 1
        assert (out / "text_vectors.npy").exists()
        assert (out / "ingest_config.json").exists()

    def test_rerun_same_seed_identical_manifest(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main([
                "ingest", "--edges", str(edges), "--node-text", str(text),
                "--word-vectors", str(vecs), "--out-dir", str(out), "--seed", "9",
            ])
            outs.append((out / "manifest.json").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.tsv"
        code = main(["ingest", "--edges", str(missing), "--node-features", str(missing), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_features_mode(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        nodes = sorted({n for line in edges.read_text().splitlines()[1:] for n in line.split("\t")})
        feat_file = tmp_path / "features.tsv"
        rng = np.random.default_rng(0)
        feat_file.write_text(
            "\n".join(f"{n}\t" + " ".join(f"{v:.3f}" for v in rng.normal(size=6)) for n in nodes) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["ingest", "--edges", str(edges), "--node-features", str(feat_file), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["text_source"] == "features"
        assert manifest["text_dim"] == 6

    def test_usage_error_without_text_source(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        assert main(["ingest", "--edges", str(edges), "--out-dir", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_feature_exits_2_naming_line(self, dataset, tmp_path, capsys, value):
        root, edges, text, vecs = dataset
        nodes = sorted({n for line in edges.read_text().splitlines()[1:] for n in line.split("\t")})
        rows = [f"{n}\t1.0 0.5 {value if k == 3 else '0.25'}" for k, n in enumerate(nodes)]
        feat_file = tmp_path / "features.tsv"
        feat_file.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--edges", str(edges), "--node-features", str(feat_file), "--out-dir", str(out)]) == 2
        assert f"{feat_file}: line 4: non-finite feature component" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_features_gathered_in_node_order(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        nodes = sorted({n for line in edges.read_text().splitlines()[1:] for n in line.split("\t")})
        rng = np.random.default_rng(1)
        given = {n: rng.normal(size=4) for n in nodes[2:] + ["not-in-graph"]}
        feat_file = tmp_path / "features.tsv"
        feat_file.write_text("".join(f"{n}\t{' '.join(map(repr, v.tolist()))}\n" for n, v in given.items()), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--edges", str(edges), "--node-features", str(feat_file), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stats"]["text"] == {"nodes_without_features": 2}
        expected = np.array([given.get(n, np.zeros(4)) for n in manifest["nodes"]])
        assert np.load(out / "text_vectors.npy").tobytes() == expected.tobytes()

    def test_text_vectors_equal_the_in_memory_npy_bytes(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        nodes = sorted({n for line in edges.read_text().splitlines()[1:] for n in line.split("\t")})
        rng = np.random.default_rng(2)
        given = {n: rng.normal(size=5) for n in nodes[1:]}
        feat_file = tmp_path / "features.tsv"
        feat_file.write_text("".join(f"{n}\t{' '.join(map(repr, v.tolist()))}\n" for n, v in given.items()), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--edges", str(edges), "--node-features", str(feat_file), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        buffer = io.BytesIO()  # the earlier writer saved the matrix into memory, then wrote those bytes
        np.save(buffer, np.array([given.get(n, np.zeros(5)) for n in manifest["nodes"]]))
        assert (out / "text_vectors.npy").read_bytes() == buffer.getvalue()

    def test_manifest_is_compact_sorted_json_of_the_indented_payload(self, dataset, tmp_path, monkeypatch):
        root, edges, text, vecs = dataset
        written = {}

        def recording(path, payload, **kwargs):
            written[os.path.basename(path)] = payload
            return write_json(path, payload, **kwargs)

        write_json = cli._write_json
        monkeypatch.setattr(cli, "_write_json", recording)
        out = tmp_path / "out"
        assert main([
            "ingest", "--edges", str(edges), "--node-text", str(text),
            "--word-vectors", str(vecs), "--out-dir", str(out), "--seed", "3",
        ]) == 0
        payload = written["manifest.json"]
        text_out = (out / "manifest.json").read_text(encoding="utf-8")
        assert text_out == json.dumps(payload, sort_keys=True) + "\n"
        assert json.loads(text_out) == json.loads(json.dumps(payload, sort_keys=True, indent=1))  # the earlier file
        assert json.loads(text_out)["format"] == "aspectcite-manifest-v2"
        assert (out / "ingest_config.json").read_text(encoding="utf-8").startswith("{\n ")  # echoes stay indented

    def test_feature_rows_without_components_exit_2(self, dataset, tmp_path, capsys):
        root, edges, text, vecs = dataset
        nodes = sorted({n for line in edges.read_text().splitlines()[1:] for n in line.split("\t")})
        feat_file = tmp_path / "features.tsv"
        feat_file.write_text("".join(f"{n}\t\n" for n in nodes), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--edges", str(edges), "--node-features", str(feat_file), "--out-dir", str(out)]) == 2
        assert f"{feat_file}: line 1: no feature components" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestTrain:
    def test_ndp_report_has_zero_sd_phases(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out, variant="ndp")
        report = json.loads((out / "report.json").read_text())
        assert report["variant"] == "ndp"
        assert all(stage["sd_phases"] == [] for stage in report["stages"])

    def test_dp_alternations_counted(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out, variant="dp", extra_train=("--alternations", "3"))
        report = json.loads((out / "report.json").read_text())
        assert len(report["stages"][0]["sd_phases"]) == 3

    def test_unconverged_phases_warn_on_stderr(self, dataset, tmp_path, capsys):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out, extra_train=("--propagation-max-steps", "1"))
        err = capsys.readouterr().err
        phases = json.loads((out / "report.json").read_text())["stages"][0]["sd_phases"]
        assert [p["phase_steps"] for p in phases] == [1, 1]
        assert [p["steps"] for p in phases] == [1, 2]
        warnings = [line for line in err.splitlines() if "stopped unconverged" in line]
        assert len(warnings) == 2
        for index, (line, phase) in enumerate(zip(warnings, phases)):
            assert f"phase {index} " in line and "after 1 steps" in line
            assert f"residual {phase['residual']:.3e}" in line and "epsilon 1.000e-08" in line

    def test_converged_phases_do_not_warn(self, dataset, tmp_path, capsys):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out, extra_train=("--propagation-max-steps", "5000"))
        phases = json.loads((out / "report.json").read_text())["stages"][0]["sd_phases"]
        assert all(p["converged"] for p in phases)
        assert "unconverged" not in capsys.readouterr().err

    def test_train_config_echo_has_no_negatives_key(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        report = json.loads((out / "report.json").read_text())
        echo = json.loads((out / "train_config.json").read_text())
        for removed in ("negatives_per_positive", "gumbel_temperature", "snapshot_cutoffs"):
            assert removed not in report["config"]
            assert removed not in echo

    def test_gumbel_temperature_flag_is_a_usage_error(self, dataset, tmp_path, capsys):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        assert main([
            "ingest", "--edges", str(edges), "--node-text", str(text), "--word-vectors", str(vecs),
            "--out-dir", str(out), "--seed", "7",
        ]) == 0
        capsys.readouterr()
        assert main([
            "train", "--manifest", str(out / "manifest.json"), "--out-dir", str(out), "--gumbel-temperature", "1",
        ]) == 1
        assert "--gumbel-temperature" in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("train", "--snapshot-cutoffs", "1,2"),
        ("evaluate", "--scorer", "total_impact"),
        ("predict", "--scorer", "total_impact"),
        ("predict", "--seed", "1"),
        ("explain", "--seed", "1"),
    ])
    def test_removed_option_is_a_usage_error(self, dataset, tmp_path, capsys, command, flag, value):
        """The snapshot schedule, the scorer choice and the seed of the commands
        that draw no random number are gone; their flags exit 1 and write nothing."""
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("p0\tp1\n", encoding="utf-8")
        artifacts = ["--checkpoint", str(out / "checkpoint.json"), "--state", str(out / "state.json")]
        inputs = {"train": [], "evaluate": artifacts, "predict": [*artifacts, "--pairs", str(pairs)],
                  "explain": [*artifacts, "--target", "p0"]}[command]
        query = tmp_path / "query"
        capsys.readouterr()
        assert main([command, "--manifest", str(out / "manifest.json"), "--out-dir", str(query), *inputs, flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not query.exists()

    def test_empty_train_part_exits_2_and_writes_no_checkpoint(self, dataset, tmp_path, capsys):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        assert main([
            "ingest", "--edges", str(edges), "--node-text", str(text), "--word-vectors", str(vecs),
            "--ratios", "0,0.5,0.5", "--out-dir", str(out), "--seed", "7",
        ]) == 0
        capsys.readouterr()
        assert main(["train", "--manifest", str(out / "manifest.json"), "--out-dir", str(out)]) == 2
        assert "no train edges" in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists() and not (out / "report.json").exists()

    @pytest.mark.parametrize("flag,value", [("--propagation-epsilon", "0"), ("--propagation-max-steps", "-1")])
    def test_out_of_range_propagation_option_is_a_usage_error(self, dataset, tmp_path, capsys, flag, value):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        assert main([
            "ingest", "--edges", str(edges), "--node-text", str(text), "--word-vectors", str(vecs),
            "--out-dir", str(out), "--seed", "7",
        ]) == 0
        capsys.readouterr()
        assert main(["train", "--manifest", str(out / "manifest.json"), "--out-dir", str(out), flag, value]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()

    def test_fixed_seed_reruns_identical_checkpoints(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_pipeline(root, edges, text, vecs, out)
            digests.append([(out / artifact).read_bytes() for artifact in ARTIFACT_FILES])
        assert digests[0] == digests[1]


class TestEvaluate:
    def test_metrics_schema(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["ap_at_k"]) == {"1", "5", "10"}
        assert set(metrics["ndcg_at_k"]) == {"1", "5", "10"}
        assert 0.0 <= metrics["auc"] <= 1.0
        assert metrics["ap_at_k"]["1"] == metrics["ndcg_at_k"]["1"]

    def test_per_source_csv_rows_average_to_metrics(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        assert main([
            "evaluate", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--out-dir", str(out), "--rank-negatives", "5", "--per-source-csv",
        ]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        with open(out / "per_source.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == metrics["num_ranked_sources"] > 0
        assert len({row["source"] for row in rows}) == len(rows)
        for k in metrics["ap_at_k"]:
            for column, key in ((f"ap@{k}", "ap_at_k"), (f"ndcg@{k}", "ndcg_at_k")):
                mean = sum(float(row[column]) for row in rows) / len(rows)
                assert mean == pytest.approx(metrics[key][k], rel=1e-12, abs=1e-15)

    def test_failed_per_source_csv_write_leaves_no_file(self, dataset, tmp_path, monkeypatch):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)

        def failing(writer, rows):
            writer.writerow(rows[0])
            raise OSError("disk full")

        monkeypatch.setattr(csv.DictWriter, "writerows", failing)
        query = tmp_path / "query"
        with pytest.raises(OSError, match="disk full"):
            main([
                "evaluate", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
                "--state", str(out / "state.json"), "--out-dir", str(query), "--rank-negatives", "5",
                "--per-source-csv",
            ])
        assert list(query.iterdir()) == []  # no partial per_source.csv, no temp file, no metrics.json

    def test_malformed_checkpoint_exits_2(self, dataset, tmp_path, capsys):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        (out / "checkpoint.json").write_text('{"not": "a checkpoint"}', encoding="utf-8")
        code = main([
            "evaluate", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--out-dir", str(out),
        ])
        assert code == 2

    def test_missing_artifact_exits_2(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        code = main([
            "evaluate", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "gone.json"),
            "--state", str(out / "state.json"), "--out-dir", str(out),
        ])
        assert code == 2


class TestPredict:
    def test_scores_pairs(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        manifest = json.loads((out / "manifest.json").read_text())
        a, b, c = manifest["nodes"][:3]
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(f"{a}\t{b}\n{b}\t{c}\n", encoding="utf-8")
        assert main([
            "predict", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--pairs", str(pairs), "--out-dir", str(out),
        ]) == 0
        payload = json.loads((out / "predictions.json").read_text())
        assert len(payload["pairs"]) == 2
        assert all(isinstance(row[2], float) for row in payload["pairs"])

    def test_unnormalized_state_exits_2(self, dataset, tmp_path, capsys):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        manifest = json.loads((out / "manifest.json").read_text())
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(f"{manifest['nodes'][0]}\t{manifest['nodes'][1]}\n", encoding="utf-8")
        # NaN compares False both ways: a NaN column once passed validate and was written into predictions.json
        for name, damage, message in (("scaled", lambda m: m * 1.001, "sum to 1"),
                                      ("nan", lambda m: np.nan, r"lie in \[0, 1\]")):
            state = load_state(out / "state.json")
            state.matrix[:, 0] = damage(state.matrix[:, 0])
            save_state(state, out / f"{name}.json")
            assert main([
                "predict", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
                "--state", str(out / f"{name}.json"), "--pairs", str(pairs), "--out-dir", str(out),
            ]) == 2, name
            assert re.search(message, capsys.readouterr().err), name
        assert not (out / "predictions.json").exists()

    def test_unknown_node_exits_3(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("ghost\tphantom\n", encoding="utf-8")
        assert main([
            "predict", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--pairs", str(pairs), "--out-dir", str(out),
        ]) == 3

    def test_self_pair_exits_3(self, dataset, tmp_path, capsys):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        node = json.loads((out / "manifest.json").read_text())["nodes"][0]
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(f"{node}\t{node}\n", encoding="utf-8")
        capsys.readouterr()
        assert main([
            "predict", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--pairs", str(pairs), "--out-dir", str(out),
        ]) == 3
        assert "self-pairs" in capsys.readouterr().err


def query_exit_codes(out, pairs_file):
    """Exit codes of evaluate and of predict on pairs_file, both on the artifacts in out."""
    artifacts = [
        "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
        "--state", str(out / "state.json"), "--out-dir", str(out),
    ]
    return (
        main(["evaluate", *artifacts, "--rank-negatives", "5"]),
        main(["predict", *artifacts, "--pairs", str(pairs_file)]),
    )


def query_outputs(out, query_dir, pairs_file, text_file):
    """The bytes predict and explain write on the artifacts in out; both must exit 0."""
    artifacts = [
        "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
        "--state", str(out / "state.json"), "--out-dir", str(query_dir),
    ]
    target = json.loads((out / "manifest.json").read_text())["edges"][0][1]
    assert main(["predict", *artifacts, "--pairs", str(pairs_file)]) == 0
    assert main(["explain", *artifacts, "--target", target, "--node-text", str(text_file)]) == 0
    return [(query_dir / name).read_bytes() for name in ("predictions.json", "explanation.json")]


def unpack_pairs(text):
    """A manifest split part, base64 of little-endian int64 index pairs, as a (k, 2) array."""
    return np.frombuffer(base64.b64decode(text), dtype="<i8").reshape(-1, 2)


def pack_pairs(pairs):
    return base64.b64encode(np.asarray(pairs, dtype="<i8").tobytes()).decode("ascii")


def edit_split_part(manifest, name, edit, negatives=False):
    """Decode one packed part of the manifest's split, edit its (k, 2) index array, and pack it again."""
    parts = manifest["split"]["negatives"] if negatives else manifest["split"]
    parts[name] = pack_pairs(edit(unpack_pairs(parts[name])))


def last_node_pairs(out, tmp_path):
    """A pair file scoring the last node of the manifest, so every text row is in play."""
    nodes = json.loads((out / "manifest.json").read_text())["nodes"]
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"{nodes[-1]}\t{nodes[0]}\n", encoding="utf-8")
    return pairs


class TestArtifactFormat:
    # the header's tensor entries in sidecar order, and the one a defect goes into
    TENSORS_OF = {
        "checkpoint.json": (checkpoint_entries, ModelParams.TENSOR_FIELDS.index("node_embeddings")),
        "state.json": (lambda payload: [payload["matrix"]], 0),
    }

    def assert_queries_exit_2(self, out, tmp_path, capsys, message):
        pairs = last_node_pairs(out, tmp_path)
        capsys.readouterr()
        assert query_exit_codes(out, pairs) == (2, 2)
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and all(e.startswith("data error") and re.search(message, e) for e in errors)

    @pytest.mark.parametrize("how", ARTIFACT_CORRUPTIONS + ["v1_list_file", "v2_base64_file"])
    @pytest.mark.parametrize("artifact", ["checkpoint.json", "state.json"])
    def test_corrupt_artifact_exits_2(self, dataset, tmp_path, capsys, artifact, how):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        path = out / artifact
        kind = artifact.removesuffix(".json")
        old_writer = {
            ("checkpoint", "v1_list_file"): lambda: write_v1_checkpoint(load_checkpoint(path), path),
            ("checkpoint", "v2_base64_file"): lambda: write_v2_checkpoint(load_checkpoint(path), path),
            ("state", "v1_list_file"): lambda: write_v1_state(load_state(path), path),
            ("state", "v2_base64_file"): lambda: write_v2_state(load_state(path), path),
        }.get((kind, how))
        if old_writer is None:
            entries, tensor = self.TENSORS_OF[artifact]
            message = corrupt_artifact(path, how, entries=entries, tensor=tensor)
        else:
            old_writer()
            found = "None" if how == "v1_list_file" else f"'aspectcite-{kind}-v2'"
            current = {"checkpoint": "aspectcite-checkpoint-v4", "state": "aspectcite-state-v3"}[kind]
            message = f"format {found}, expected '{current}'; re-run train"
        self.assert_queries_exit_2(out, tmp_path, capsys, message)

    def test_v3_checkpoint_exits_2_without_an_output_dir(self, dataset, tmp_path, capsys):
        """A checkpoint from before the bias was deleted (five tensors, marked v3)
        stops evaluate, predict and explain with the advice to re-run train."""
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        write_v3_checkpoint(load_checkpoint(out / "checkpoint.json"), out / "checkpoint.json")
        artifacts = ["--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
                     "--state", str(out / "state.json")]
        target = json.loads((out / "manifest.json").read_text())["edges"][0][1]
        argv = {
            "evaluate": ["evaluate", *artifacts],
            "predict": ["predict", *artifacts, "--pairs", str(last_node_pairs(out, tmp_path))],
            "explain": ["explain", *artifacts, "--target", target],
        }
        message = "format 'aspectcite-checkpoint-v3', expected 'aspectcite-checkpoint-v4'; re-run train"
        for command, args in argv.items():
            capsys.readouterr()
            assert main([*args, "--out-dir", str(tmp_path / command)]) == 2, command
            assert message in capsys.readouterr().err
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("artifact", ["checkpoint.json", "state.json"])
    def test_crash_between_renames_exits_2(self, dataset, tmp_path, capsys, monkeypatch, artifact):
        # a second train dies after renaming artifact's new sidecar into
        # place and before renaming its header: the old header must not load
        # the new tensors
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        header = (out / artifact).read_bytes()
        write_json = codec.write_json

        def dies_before_header(path, payload, **kwargs):
            if os.path.basename(path) == artifact:
                raise OSError("killed")
            write_json(path, payload, **kwargs)

        monkeypatch.setattr(codec, "write_json", dies_before_header)
        with pytest.raises(OSError, match="killed"):
            main(["train", "--manifest", str(out / "manifest.json"), "--out-dir", str(out), "--aspects", "3",
                  "--struct-dim", "4", "--epochs-per-phase", "1", "--alternations", "1", "--seed", "8"])
        monkeypatch.undo()
        assert (out / artifact).read_bytes() == header
        self.assert_queries_exit_2(out, tmp_path, capsys, "does not match .*; re-run train")


class TestManifestChecks:
    def edit_manifest(self, out, edit):
        manifest = json.loads((out / "manifest.json").read_text())
        edit(manifest)
        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

    SPLIT_DAMAGE = {
        "test_edge_in_train": lambda m: edit_split_part(
            m, "train", lambda p: np.vstack([p, unpack_pairs(m["split"]["test"])[:1]])),
        "edge_as_test_negative": lambda m: edit_split_part(
            m, "test", lambda p: np.vstack([[m["nodes"].index(v) for v in m["edges"][0][:2]], p[1:]]), negatives=True),
        "one_id_pair": lambda m: m["split"].update(  # cut by 8 bytes: the last pair keeps one index
            test=base64.b64encode(base64.b64decode(m["split"]["test"])[:-8]).decode("ascii")),
        "list_part": lambda m: m["split"].update(test=unpack_pairs(m["split"]["test"]).tolist()),
        "non_base64_char": lambda m: m["split"].update(  # decoding without validate=True would skip it
            validation=m["split"]["validation"][:8] + "*" + m["split"]["validation"][8:]),
        "unknown_id": lambda m: edit_split_part(
            m, "train", lambda p: np.vstack([[p[0, 0], len(m["nodes"])], p[1:]]), negatives=True),
    }

    @pytest.mark.parametrize("damage", list(SPLIT_DAMAGE))
    def test_inconsistent_split_exits_2(self, dataset, tmp_path, capsys, damage):
        """train and evaluate, which read the split, exit 2 on it; predict and
        explain never read it, so they answer exactly as on the undamaged manifest."""
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        pairs = last_node_pairs(out, tmp_path)
        undamaged = query_outputs(out, tmp_path / "undamaged", pairs, text)
        self.edit_manifest(out, self.SPLIT_DAMAGE[damage])
        capsys.readouterr()
        manifest = ["--manifest", str(out / "manifest.json"), "--out-dir", str(tmp_path / "rerun")]
        assert main(["train", *manifest]) == 2
        assert main(["evaluate", *manifest, "--checkpoint", str(out / "checkpoint.json"),
                     "--state", str(out / "state.json"), "--rank-negatives", "5"]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and all("malformed manifest" in e for e in errors)
        assert not (tmp_path / "rerun").exists()
        assert query_outputs(out, tmp_path / "damaged", pairs, text) == undamaged

    MANIFEST_DAMAGE = {
        "not_an_object": lambda m: [],
        "no_nodes": lambda m: {k: v for k, v in m.items() if k != "nodes"},
        "no_seed": lambda m: {k: v for k, v in m.items() if k != "seed"},
        "string_seed": lambda m: {**m, "seed": "7"},
    }

    @pytest.mark.parametrize("damage", list(MANIFEST_DAMAGE))
    def test_malformed_manifest_exits_2(self, dataset, tmp_path, capsys, damage):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        pairs = last_node_pairs(out, tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        (out / "manifest.json").write_text(json.dumps(self.MANIFEST_DAMAGE[damage](manifest)), encoding="utf-8")
        capsys.readouterr()
        assert query_exit_codes(out, pairs) == (2, 2)
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and all("malformed manifest" in e for e in errors)

    def test_v1_manifest_exits_2_naming_ingest(self, dataset, tmp_path, capsys):
        """A v1 manifest, its split as lists of id pairs, is not read by any command: re-run ingest."""
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        pairs = last_node_pairs(out, tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        target = manifest["edges"][0][1]
        ids = np.array(manifest["nodes"], dtype=object)
        split = manifest["split"]
        manifest.update(format="aspectcite-manifest-v1", split={
            "seed": split["seed"],
            **{name: ids[unpack_pairs(split[name])].tolist() for name in ("train", "validation", "test")},
            "negatives": {name: ids[unpack_pairs(p)].tolist() for name, p in split["negatives"].items()},
        })
        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        artifacts = ["--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
                     "--state", str(out / "state.json")]
        commands = {
            "train": ["--manifest", str(out / "manifest.json")],
            "evaluate": artifacts,
            "predict": [*artifacts, "--pairs", str(pairs)],
            "explain": [*artifacts, "--target", target],
        }
        capsys.readouterr()
        for command, argv in commands.items():
            assert main([command, *argv, "--out-dir", str(tmp_path / command)]) == 2, command
            assert "re-run ingest" in capsys.readouterr().err, command
            assert not (tmp_path / command).exists(), command

    @pytest.mark.parametrize("damage", ["drop_last_row", "extra_column", "float32", "one_dimensional"])
    def test_mismatched_text_matrix_exits_2(self, dataset, tmp_path, capsys, damage):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        vectors = np.load(out / "text_vectors.npy")
        vectors = {
            "drop_last_row": lambda v: v[:-1],
            "extra_column": lambda v: np.hstack([v, v[:, :1]]),
            "float32": lambda v: v.astype(np.float32),
            "one_dimensional": lambda v: v.ravel(),
        }[damage](vectors)
        np.save(out / "text_vectors.npy", vectors)
        pairs = last_node_pairs(out, tmp_path)
        capsys.readouterr()
        assert query_exit_codes(out, pairs) == (2, 2)
        assert "text vector matrix" in capsys.readouterr().err

    def test_text_matrix_is_mapped_read_only(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)  # train ran on the mapped matrix, so it wrote nothing into it
        text_vectors = _load_manifest(str(out / "manifest.json"))[2]
        assert type(text_vectors) is np.ndarray and not text_vectors.flags.writeable
        assert text_vectors.tobytes() == np.load(out / "text_vectors.npy").tobytes()

    def test_truncated_text_matrix_exits_2(self, dataset, tmp_path, capsys):
        # the matrix is memory-mapped, so a short file must fail at open, not at a later row gather
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        path = out / "text_vectors.npy"
        path.write_bytes(path.read_bytes()[:-8])
        pairs = last_node_pairs(out, tmp_path)
        capsys.readouterr()
        assert query_exit_codes(out, pairs) == (2, 2)
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and all("unreadable text vector matrix" in e for e in errors)


class TestExplain:
    def test_schema_valid_json(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        manifest = json.loads((out / "manifest.json").read_text())
        graph_edges = manifest["edges"]
        target = graph_edges[0][1]
        assert main([
            "explain", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--target", target, "--node-text", str(text),
            "--top-n", "5", "--out-dir", str(out),
        ]) == 0
        payload = json.loads((out / "explanation.json").read_text())
        assert payload["target"] == target
        assert all(len(entry["citers"]) <= 5 for entry in payload["aspects"])

    def test_explanation_equals_tokenizing_every_document(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        manifest = json.loads((out / "manifest.json").read_text())
        for target in sorted({edge[1] for edge in manifest["edges"]})[:4]:
            assert main([
                "explain", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
                "--state", str(out / "state.json"), "--target", target, "--node-text", str(text),
                "--out-dir", str(out),
            ]) == 0
            docs = corpus.load_node_text(str(text))
            texts = {nid: doc.tokens([c for c in manifest["channels"] if c in doc.channels]) for nid, doc in docs.items()}
            explanation = explain_target(
                target, load_checkpoint(out / "checkpoint.json"), load_state(out / "state.json"),
                build_graph(manifest["edges"]), np.load(out / "text_vectors.npy"), texts=texts,
            )
            export_explanation(explanation, tmp_path / "reference.json")
            assert (out / "explanation.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
            assert any(entry["top_terms"] for entry in json.loads((out / "explanation.json").read_text())["aspects"])

    def test_malformed_text_line_of_a_non_citer_exits_2(self, dataset, tmp_path, capsys):
        """explain tokenizes only the target's citers but still checks every line."""
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        manifest = json.loads((out / "manifest.json").read_text())
        target = manifest["edges"][0][1]
        citers = {src for src, dst in manifest["edges"] if dst == target}
        node = next(n for n in manifest["nodes"] if n != target and n not in citers)
        bad = tmp_path / "bad_text.tsv"
        for line, message in ((f"{node}\tsummary\tw1 w2", "unknown channel 'summary'"),
                              (f"{node}\ttitle", "expected 3 tab-separated fields"),
                              (f"{node}\ttitle\tw1 w2", "duplicate channel 'title'"),
                              ("\ttitle\tw1 w2", "empty node id")):
            bad.write_text(text.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
            capsys.readouterr()
            assert main([
                "explain", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
                "--state", str(out / "state.json"), "--target", target, "--node-text", str(bad),
                "--out-dir", str(tmp_path / "query"),
            ]) == 2, line
            assert message in capsys.readouterr().err, line
            assert not (tmp_path / "query").exists()

    def test_malformed_manifest_channels_exit_2(self, dataset, tmp_path, capsys):
        """The manifest's channels must be a nonempty list of allowed names: a
        number once ended in a traceback, a string was read letter by letter."""
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        manifest = json.loads((out / "manifest.json").read_text())
        damaged = out / "damaged.json"  # beside the text matrix it names
        for channels in (5, "title", [], ["title", "summary"], [["title"]], None, "missing"):
            payload = {**manifest, "channels": channels}
            if channels == "missing":
                del payload["channels"]
            damaged.write_text(json.dumps(payload), encoding="utf-8")
            capsys.readouterr()
            assert main([
                "explain", "--manifest", str(damaged), "--checkpoint", str(out / "checkpoint.json"),
                "--state", str(out / "state.json"), "--target", manifest["edges"][0][1], "--node-text", str(text),
                "--out-dir", str(tmp_path / "query"),
            ]) == 2, channels
            assert "malformed manifest" in capsys.readouterr().err, channels
            assert not (tmp_path / "query").exists()

    def test_unknown_target_exits_3(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        assert main([
            "explain", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--target", "ghost", "--out-dir", str(out),
        ]) == 3


@pytest.mark.parametrize("command,flags", [
    ("evaluate", ["--ks", "0"]),
    ("evaluate", ["--rank-negatives", "0"]),
    ("explain", ["--top-n", "0"]),
    ("explain", ["--top-m", "-1"]),
    pytest.param("evaluate", {"split": "foo"}, id="evaluate-config-split"),
    pytest.param("explain", {"format": "xml"}, id="explain-config-format"),
])
def test_out_of_range_query_option_is_a_usage_error(dataset, tmp_path, capsys, command, flags):
    """`flags` is a flag list, or a dict of config-file keys, which argparse's `choices` never see."""
    root, edges, text, vecs = dataset
    out = tmp_path / "out"
    run_pipeline(root, edges, text, vecs, out)
    target = json.loads((out / "manifest.json").read_text())["edges"][0][1]
    if isinstance(flags, dict):
        config = tmp_path / "query.cfg"
        config.write_text("".join(f"{key}={value}\n" for key, value in flags.items()), encoding="utf-8")
        flags = ["--config", str(config)]
    query = tmp_path / "query"
    capsys.readouterr()
    assert main([
        command, "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
        "--state", str(out / "state.json"), "--out-dir", str(query), *(["--target", target] if command == "explain" else []),
        *flags,
    ]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not query.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,value,message", [
    ("ratios", "nan,0.5,0.5", "ratios must be three nonnegative reals"),
    ("ratios", "0.5,-0.1,0.6", "ratios must be three nonnegative reals"),
    ("ratios", "-0.1,0.6,0.5", "ratios must be three nonnegative reals"),
    ("ratios", "0.4,0.2,0.2,0.2", "ratios must be three nonnegative reals"),
    ("negatives_per_positive", "0", "negatives_per_positive must be a positive integer"),
    ("channels", "summary,x", "channels must be a nonempty list of title, abstract, claim"),
    ("channels", "title,x", "channels must be a nonempty list of title, abstract, claim"),
    ("channels", ",", "channels must be a nonempty list of title, abstract, claim"),
])
def test_bad_split_option_exits_1_before_reading_an_input(tmp_path, capsys, source, key, value, message):
    """A bad split option or channel selection is a usage error found before
    any input is read, so the missing inputs here are never reached. NaN
    ratios used to pass every check and exit 2 after the inputs were parsed;
    an unknown channel went into the manifest and left every term summary of
    a later explain empty."""
    missing = str(tmp_path / "missing.tsv")
    if source == "flag":
        option = [f"--{key.replace('_', '-')}={value}"]  # "=" keeps a leading "-" a value
    else:
        config = tmp_path / "ingest.cfg"
        config.write_text(f"{key}={value}\n", encoding="utf-8")
        option = ["--config", str(config)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["ingest", "--edges", missing, "--node-features", missing, *option, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("command,expected", [("ingest", 1), ("train", 1), ("evaluate", 2), ("predict", 2), ("explain", 2)])
def test_failed_command_leaves_no_out_dir(dataset, tmp_path, command, expected):
    """A usage error (ingest without a text source, train with variant=foo in
    its config file) or a missing checkpoint stops a command before --out-dir exists."""
    root, edges, text, vecs = dataset
    data = tmp_path / "data"
    assert main(["ingest", "--edges", str(edges), "--node-text", str(text), "--word-vectors", str(vecs),
                 "--out-dir", str(data)]) == 0
    config = tmp_path / "train.cfg"
    config.write_text("variant=foo\n", encoding="utf-8")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("p0\tp1\n", encoding="utf-8")
    target = json.loads((data / "manifest.json").read_text())["edges"][0][1]
    artifacts = ["--manifest", str(data / "manifest.json"), "--checkpoint", str(data / "missing.json"),
                 "--state", str(data / "state.json")]
    out = tmp_path / "out"
    argv = {
        "ingest": ["ingest", "--edges", str(edges)],
        "train": ["train", "--manifest", str(data / "manifest.json"), "--config", str(config)],
        "evaluate": ["evaluate", *artifacts],
        "predict": ["predict", *artifacts, "--pairs", str(pairs)],
        "explain": ["explain", *artifacts, "--target", target],
    }[command]
    assert main([*argv, "--out-dir", str(out)]) == expected
    assert not out.exists()


class TestOutDir:
    """An --out-dir that cannot be created is a usage error; it once ended in
    an uncaught FileExistsError or NotADirectoryError."""

    @pytest.mark.parametrize("below,reason", [(False, "File exists"), (True, "Not a directory")])
    def test_out_dir_helper_raises_a_usage_error(self, tmp_path, below, reason):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n", encoding="utf-8")
        path = blocker / "sub" if below else blocker
        with pytest.raises(cli.UsageError, match=re.escape(f"cannot create --out-dir {path}: {reason}")):
            cli._out_dir(argparse.Namespace(out_dir=str(path)))
        assert blocker.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("below,reason", [(False, "File exists"), (True, "Not a directory")])
    @pytest.mark.parametrize("command", ["ingest", "train", "evaluate", "predict", "explain"])
    def test_uncreatable_out_dir_exits_1_and_writes_nothing(self, dataset, tmp_path, capsys, command, below, reason):
        root, edges, text, vecs = dataset
        data = tmp_path / "data"
        run_pipeline(root, edges, text, vecs, data)
        artifacts = ["--manifest", str(data / "manifest.json"), "--checkpoint", str(data / "checkpoint.json"),
                     "--state", str(data / "state.json")]
        argv = {
            "ingest": ["ingest", "--edges", str(edges), "--node-text", str(text), "--word-vectors", str(vecs)],
            "train": ["train", "--manifest", str(data / "manifest.json"), "--aspects", "3", "--struct-dim", "4",
                      "--epochs-per-phase", "1", "--alternations", "1"],
            "evaluate": ["evaluate", *artifacts, "--rank-negatives", "5", "--per-source-csv"],
            "predict": ["predict", *artifacts, "--pairs", str(last_node_pairs(data, tmp_path))],
            "explain": ["explain", *artifacts, "--target", json.loads((data / "manifest.json").read_text())["edges"][0][1]],
        }[command]
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n", encoding="utf-8")
        path = blocker / "sub" if below else blocker
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(path)]) == 1
        assert capsys.readouterr().err == f"usage error: cannot create --out-dir {path}: {reason}\n"
        assert blocker.read_text(encoding="utf-8") == "kept\n"
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


class TestDataErrorLines:
    """Every ValueError reaches `main` unwrapped and prints one exact
    `data error: ...` line with exit 2, whichever command raised it."""

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda edges: edges.__setitem__(0, edges[0][:1]), "edge 0 has 1 items", id="one-item-first-edge"),
        pytest.param(lambda edges: edges.__setitem__(3, [*edges[3], 5, "x"]), "edge 3 has 4 items", id="four-item-edge"),
    ])
    def test_manifest_edge_of_wrong_length_exits_2(self, dataset, tmp_path, capsys, edit, message):
        """A one-item first edge once ended in a bare IndexError; a four-item
        edge was read as an untimed one and predict answered."""
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        manifest = json.loads((out / "manifest.json").read_text())
        edit(manifest["edges"])
        damaged = out / "damaged.json"  # beside the text matrix it names
        damaged.write_text(json.dumps(manifest), encoding="utf-8")
        query = tmp_path / "query"
        capsys.readouterr()
        assert main([
            "predict", "--manifest", str(damaged), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--pairs", str(last_node_pairs(out, tmp_path)), "--out-dir", str(query),
        ]) == 2
        assert capsys.readouterr().err == (
            f"data error: {damaged}: malformed manifest: {message}, expected 2 or 3 (source, target[, time])\n"
        )
        assert not query.exists()

    def test_ingest_edge_line_of_four_fields(self, dataset, tmp_path, capsys):
        root, edges, text, vecs = dataset
        bad = tmp_path / "bad_edges.tsv"
        bad.write_text("p0\tp1\np1\tp2\t3\tx\n", encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["ingest", "--edges", str(bad), "--node-text", str(text), "--word-vectors", str(vecs),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {bad}: line 2: expected 2 or 3 tab-separated fields, got 4\n"
        assert not out.exists()

    def test_truncated_state_sidecar(self, dataset, tmp_path, capsys):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        sidecar = out / "state.bin"
        sidecar.write_bytes(sidecar.read_bytes()[:-8])
        query = tmp_path / "query"
        capsys.readouterr()
        assert main([
            "predict", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--pairs", str(last_node_pairs(out, tmp_path)), "--out-dir", str(query),
        ]) == 2
        assert capsys.readouterr().err == (
            f"data error: malformed state file {out / 'state.json'}: tensor sidecar {sidecar} "
            f"({sidecar.stat().st_size} bytes) does not match the length and "
            f"sha256 its header records: a torn or edited write; re-run train\n"
        )
        assert not query.exists()

    def test_evaluate_on_an_empty_test_part(self, dataset, tmp_path, capsys):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        manifest = json.loads((out / "manifest.json").read_text())
        test_pairs = unpack_pairs(manifest["split"]["test"])
        edit_split_part(manifest, "train", lambda train: np.concatenate([train, test_pairs]))
        edit_split_part(manifest, "test", lambda test: test[:0])
        damaged = out / "damaged.json"
        damaged.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main([
            "evaluate", "--manifest", str(damaged), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--out-dir", str(tmp_path / "query"), "--rank-negatives", "5",
        ]) == 2
        assert capsys.readouterr().err == "data error: split 'test' has no positive edges to evaluate\n"
        assert not (tmp_path / "query" / "metrics.json").exists()

    def test_explain_on_an_unknown_node_text_channel(self, dataset, tmp_path, capsys):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        bad = tmp_path / "bad_text.tsv"
        lines = text.read_text(encoding="utf-8").splitlines()
        bad.write_text("\n".join([*lines, "p0\tsummary\tw1 w2"]) + "\n", encoding="utf-8")
        query = tmp_path / "query"
        capsys.readouterr()
        assert main([
            "explain", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--target", json.loads((out / "manifest.json").read_text())["edges"][0][1],
            "--node-text", str(bad), "--out-dir", str(query),
        ]) == 2
        assert capsys.readouterr().err == (
            f"data error: {bad}: line {len(lines) + 1}: unknown channel 'summary'; allowed: {corpus.ALLOWED_CHANNELS}\n"
        )
        assert not query.exists()


class TestAtomicWrite:
    def test_failed_writer_leaves_old_file_and_no_temp(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_text("old\n", encoding="utf-8")

        def failing(tmp):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _write_atomically(str(target), failing)
        assert target.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_pipeline_leaves_no_temp_files(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        target = json.loads((out / "manifest.json").read_text())["edges"][0][1]
        assert main([
            "explain", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--target", target, "--out-dir", str(out),
        ]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert not [n for n in names if n.startswith(".") or n.endswith(".tmp")]
        assert {*ARTIFACT_FILES, "explanation.json"} <= set(names)
        umask = os.umask(0)
        os.umask(umask)
        for name in ARTIFACT_FILES:
            assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask  # not mkstemp's 0600


class TestConfigResolution:
    def test_config_file_applies_and_flags_override(self, dataset, tmp_path):
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# run config\nratios=0.6,0.2,0.2\nseed=5\n", encoding="utf-8")
        assert main([
            "ingest", "--edges", str(edges), "--node-text", str(text), "--word-vectors", str(vecs),
            "--out-dir", str(out), "--config", str(cfg),
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert len(unpack_pairs(manifest["split"]["train"])) == 36  # 0.6 * 60

        out2 = tmp_path / "out2"
        assert main([
            "ingest", "--edges", str(edges), "--node-text", str(text), "--word-vectors", str(vecs),
            "--out-dir", str(out2), "--config", str(cfg), "--seed", "8",
        ]) == 0
        assert json.loads((out2 / "manifest.json").read_text())["seed"] == 8

    def test_seed_env_var(self, dataset, tmp_path, monkeypatch):
        root, edges, text, vecs = dataset
        monkeypatch.setenv("ASPECTCITE_SEED", "33")
        out = tmp_path / "out"
        assert main([
            "ingest", "--edges", str(edges), "--node-text", str(text), "--word-vectors", str(vecs),
            "--out-dir", str(out),
        ]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 33

    @pytest.mark.parametrize("command", ["ingest", "train", "evaluate"])
    def test_malformed_seed_names_its_source(self, dataset, tmp_path, capsys, monkeypatch, command):
        """A seed that is not an int, from a config file or $ASPECTCITE_SEED,
        exits 2 naming where it came from and creates no output directory;
        --seed still overrides both."""
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed=abc\n", encoding="utf-8")
        manifest = ["--manifest", str(out / "manifest.json")]
        argv = {
            "ingest": ["ingest", "--edges", str(edges), "--node-text", str(text), "--word-vectors", str(vecs)],
            "train": ["train", *manifest],
            "evaluate": ["evaluate", *manifest, "--checkpoint", str(out / "checkpoint.json"),
                         "--state", str(out / "state.json")],
        }[command]
        for env, extra, message in (
            (None, ["--config", str(cfg)], "config key 'seed': invalid literal for int() with base 10: 'abc'"),
            ("1.5", [], "$ASPECTCITE_SEED: invalid literal for int() with base 10: '1.5'"),
        ):
            if env is not None:
                monkeypatch.setenv("ASPECTCITE_SEED", env)
            capsys.readouterr()
            assert main([*argv, *extra, "--out-dir", str(tmp_path / "new")]) == 2
            assert capsys.readouterr().err.strip() == f"data error: {message}"
            assert not (tmp_path / "new").exists()
        assert main([*argv, "--seed", "3", "--out-dir", str(tmp_path / "flag")]) == 0  # the flag wins

    def test_queries_take_no_seed(self, dataset, tmp_path, monkeypatch):
        """predict and explain draw no random number: $ASPECTCITE_SEED does not
        reach their config echoes, and a seed= config key exits 1, as --seed does."""
        root, edges, text, vecs = dataset
        out = tmp_path / "out"
        run_pipeline(root, edges, text, vecs, out)
        monkeypatch.setenv("ASPECTCITE_SEED", "33")
        cfg = tmp_path / "query.cfg"
        cfg.write_text("seed=5\n", encoding="utf-8")
        pairs = last_node_pairs(out, tmp_path)
        artifacts = ["--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
                     "--state", str(out / "state.json"), "--out-dir", str(out)]
        query = {"predict": ["--pairs", str(pairs)],
                 "explain": ["--target", json.loads((out / "manifest.json").read_text())["edges"][0][1]]}
        for command, flags in query.items():
            assert main([command, *artifacts, *flags, "--config", str(cfg)]) == 1
            assert not (out / f"{command}_config.json").exists()
            assert main([command, *artifacts, *flags]) == 0
            assert "seed" not in json.loads((out / f"{command}_config.json").read_text())

    @pytest.mark.parametrize("command", ["ingest", "train", "evaluate", "predict", "explain"])
    def test_unread_config_key_exits_1_before_any_load(self, tmp_path, capsys, command):
        """A misspelt key (learning_rat for learning_rate) is named and stops the
        command before it reads an input, so missing inputs do not mask it."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# misspelt\nlearning_rat=0.1\naspects=2\n", encoding="utf-8")
        missing = str(tmp_path / "missing.json")
        artifacts = ["--manifest", missing, "--checkpoint", missing, "--state", missing]
        argv = {
            "ingest": ["ingest", "--edges", missing],
            "train": ["train", "--manifest", missing],
            "evaluate": ["evaluate", *artifacts],
            "predict": ["predict", *artifacts, "--pairs", missing],
            "explain": ["explain", *artifacts, "--target", "p0"],
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, "--config", str(cfg), "--out-dir", str(out)]) == 1
        unread = "learning_rat" if command == "train" else "aspects, learning_rat"
        assert f"does not take config key(s): {unread}" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_1(self):
        assert main(["train"]) == 1
        assert main(["frobnicate"]) == 1


def subparsers_of(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestParser:
    ARTIFACTS = ["--manifest", "m.json", "--checkpoint", "c.json", "--state", "s.json", "--out-dir", "o"]
    REPRESENTATIVE = {
        "ingest": ["ingest", "--edges", "e.tsv", "--node-features", "f.tsv", "--channels", "title,claim",
                   "--ratios", "0.6,0.2,0.2", "--negatives-per-positive", "2", "--seed", "3", "--out-dir", "o"],
        "train": ["train", "--manifest", "m.json", "--variant", "ndp", "--aspects", "3", "--learning-rate", "0.1",
                  "--config", "run.cfg", "--out-dir", "o"],
        "evaluate": ["evaluate", *ARTIFACTS, "--split", "validation", "--ks", "1,5", "--rank-negatives", "7",
                     "--per-source-csv"],
        "predict": ["predict", *ARTIFACTS, "--pairs", "p.tsv"],
        "explain": ["explain", *ARTIFACTS, "--target", "p0", "--top-n", "3", "--top-m", "0", "--format", "csv",
                    "--node-text", "t.tsv"],
    }

    @pytest.mark.parametrize("command", list(REPRESENTATIVE))
    def test_one_command_parser_matches_the_full_one(self, command):
        full, alone = cli._build_parser(), cli._build_parser(command)
        assert list(subparsers_of(alone)) == [command]
        assert subparsers_of(alone)[command].format_help() == subparsers_of(full)[command].format_help()
        argv = self.REPRESENTATIVE[command]
        assert alone.parse_args(argv) == full.parse_args(argv)

    def test_main_builds_only_the_named_command(self, monkeypatch):
        built = []

        def recording(command=None):
            built.append(command)
            return build(command)

        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", recording)
        assert main(["predict", "--out-dir", "o"]) == 1  # the required artifact flags are missing
        assert main(["bogus"]) == 1
        assert main(["--seed", "1", "train"]) == 1
        assert built == ["predict", None, None]

    def test_help_lists_every_command_and_an_unknown_one_exits_1(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        assert "{ingest,train,evaluate,predict,explain}" in capsys.readouterr().out
        assert main(["bogus"]) == 1
        err = capsys.readouterr().err
        assert "invalid choice" in err and all(command in err for command in cli._COMMANDS)


def test_cli_import_leaves_scipy_unloaded(dataset, tmp_path):
    """numpy is the only runtime dependency: with scipy made unimportable,
    the CLI imports, a DP fit runs its propagation phases and `train` succeeds."""
    root, edges, text, vecs = dataset
    src = os.path.dirname(os.path.dirname(os.path.abspath(aspectcite.__file__)))
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # every import of scipy now raises ImportError
        import aspectcite as ac
        from aspectcite import cli
        edges, text, vecs, out = sys.argv[1:]
        assert cli.main(["ingest", "--edges", edges, "--node-text", text, "--word-vectors", vecs, "--out-dir", out]) == 0
        payload, graph, text_vectors = cli._load_manifest(out + "/manifest.json")
        split = cli._load_split(out + "/manifest.json", payload, graph)
        config = ac.TrainConfig(aspects=2, struct_dim=3, epochs_per_phase=1, alternations=2, batch_size=16)
        result = ac.fit(graph, split, config, text_vectors)
        assert [len(stage["sd_phases"]) for stage in result.report["stages"]] == [2]
        assert cli.main([
            "train", "--manifest", out + "/manifest.json", "--out-dir", out, "--variant", "dp", "--aspects", "2",
            "--struct-dim", "3", "--epochs-per-phase", "1", "--alternations", "1", "--batch-size", "16",
        ]) == 0
        print(sorted(m for m, module in sys.modules.items() if m.split(".")[0] == "scipy" and module is not None))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [str(edges), str(text), str(vecs), str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]", done.stdout
    assert (tmp_path / "out" / "checkpoint.json").exists()
