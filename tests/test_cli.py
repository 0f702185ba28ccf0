import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from click.testing import CliRunner

import crowdrel
from crowdrel import cli, featurize, model, simulate
from crowdrel.data import LabelSet, feature_matrix, load_annotations, load_instances
from crowdrel.model import TrainConfig, load_model, pretrain


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path: Path, **items) -> Path:
    lines = ["# test pipeline config"]
    lines += [f"{key} = {value}" for key, value in items.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


ROOT = Path(__file__).resolve().parent.parent

BASE = dict(dataset="moon", n=400, panel="default", seed=3, mode="ce-jt",
            pretrain="ds", max_outer=8)


def read_metrics(out_dir: Path) -> dict[str, float]:
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: float(value) for name, value in rows[1:]}


class TestSimulateCommand:
    def test_writes_dataset_files(self, runner, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **BASE, out_dir=tmp_path / "out")
        result = runner.invoke(cli.main, ["simulate", "-c", str(cfg)])
        assert result.exit_code == 0, result.output
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert names == {"instances.csv", "gold.csv", "annotations.csv", "manifest_simulate.json"}
        instances = load_instances(tmp_path / "out" / "instances.csv", "dense-csv")
        assert len(instances) == 400
        ann = load_annotations(tmp_path / "out" / "annotations.csv", LabelSet(("0", "1")),
                               [inst.id for inst in instances])
        assert ann.n_annotators == 5

    def test_same_seed_gives_byte_identical_files(self, runner, tmp_path):
        for sub in ("a", "b"):
            cfg = write_config(tmp_path / f"{sub}.cfg", **BASE, out_dir=tmp_path / sub)
            assert runner.invoke(cli.main, ["simulate", "-c", str(cfg)]).exit_code == 0
        # the manifests too: out_dir is left out of the config hash
        for name in ("instances.csv", "gold.csv", "annotations.csv", "manifest_simulate.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_readme_walkthrough_config_runs(self, runner, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        body = re.search(r"cat > moon\.cfg <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
        body, swapped = re.subn(r"(?m)^out_dir = .*$", f"out_dir = {tmp_path / 'out'}", body)
        assert swapped == 1
        cfg = tmp_path / "moon.cfg"
        cfg.write_text(body + "\n")
        result = runner.invoke(cli.main, ["simulate", "-c", str(cfg)])
        assert result.exit_code == 0, result.output
        assert len(load_instances(tmp_path / "out" / "instances.csv", "dense-csv")) == 1000

    def test_missing_panel_is_a_validation_error(self, runner, tmp_path):
        items = {k: v for k, v in BASE.items() if k != "panel"}
        cfg = write_config(tmp_path / "run.cfg", **items, out_dir=tmp_path / "out")
        result = runner.invoke(cli.main, ["simulate", "-c", str(cfg)])
        assert result.exit_code == 1
        assert "panel" in result.output

    @pytest.mark.parametrize("key, value, message", [
        ("noise", "abc", "'noise'"),
        ("noise", "-0.5", "noise must be finite and >= 0"),
        ("n", "1", "n must be at least 2"),
        ("panel", "narrow:x", "panel entry 'narrow:x'"),
        ("panel", "narrow", "panel entry 'narrow': cannot parse '' as int"),
        ("panel", "graded:x", "panel entry 'graded:x': cannot parse 'x' as float"),
        ("panel", "graded,broad", "panel entry 'graded': cannot parse '' as float"),
        ("panel", "graded:1.5", "panel entry 'graded:1.5'"),
        ("panel", "narrow:0,narrow:7",
         "panel entry 'narrow:7': domain 7 is not one of the 2 labels"),
        ("keep_prob", "-1", "keep_prob must be in [0, 1]"),
        ("keep_prob", "1.5", "keep_prob must be in [0, 1]"),
        ("panel", "broad:3,random", "panel entry 'broad:3': broad takes no argument"),
        ("seed", "-1", "seed must be >= 0"),
    ])
    def test_out_of_range_input_names_the_key(self, runner, tmp_path, key, value, message):
        cfg = write_config(tmp_path / "run.cfg", **{**BASE, key: value}, out_dir=tmp_path / "out")
        result = runner.invoke(cli.main, ["simulate", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert message in result.output
        assert not (tmp_path / "out").exists()

    def test_manifest_carries_config_hash(self, runner, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **BASE, out_dir=tmp_path / "out")
        runner.invoke(cli.main, ["simulate", "-c", str(cfg)])
        manifest = json.loads((tmp_path / "out" / "manifest_simulate.json").read_text())
        assert manifest["command"] == "simulate"
        assert len(manifest["config_hash"]) == 16


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(out / "run.cfg", **BASE, out_dir=out)
    runner = CliRunner()
    assert runner.invoke(cli.main, ["simulate", "-c", str(cfg)]).exit_code == 0
    result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
    assert result.exit_code == 0, result.output
    return out, cfg


class TestTrainCommand:
    def test_artifacts_exist(self, pipeline_dir):
        out, _ = pipeline_dir
        for name in ("model.json", "trace.csv", "predictions.csv", "reliability.csv"):
            assert (out / name).exists()

    def test_trace_has_objective_columns(self, pipeline_dir):
        out, _ = pipeline_dir
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["outer", "objective_start", "objective_end", "log_likelihood", "f1"]
        assert 1 <= len(rows) - 1 <= 8
        assert float(rows[1][4]) > 0.5  # gold present, so the f1 column is filled

    def test_zero_outer_checkpoint_equals_pretrained(self, runner, tmp_path, pipeline_dir):
        src, cfg = pipeline_dir
        out = tmp_path / "zero"
        out.mkdir()
        for name in ("instances.csv", "gold.csv", "annotations.csv"):
            (out / name).write_bytes((src / name).read_bytes())
        result = runner.invoke(cli.main, ["train", "-c", str(cfg), "-o", str(out),
                                          "--max-outer", "0"])
        assert result.exit_code == 0, result.output
        state, label_set, cfg_back = load_model(out / "model.json")
        assert cfg_back.max_outer == 0
        instances = load_instances(out / "instances.csv", "dense-csv")
        ann = load_annotations(out / "annotations.csv", label_set,
                               instance_ids=[inst.id for inst in instances])
        x = feature_matrix(instances)
        reference = pretrain(x, ann, cfg_back)
        for a, b in zip(state.classifier.arrays(), reference.classifier.arrays()):
            np.testing.assert_array_equal(a, b)


    def test_summary_says_why_training_stopped(self, runner, tmp_path, pipeline_dir):
        src, cfg = pipeline_dir
        out = tmp_path / "one"
        out.mkdir()
        for name in ("instances.csv", "gold.csv", "annotations.csv"):
            (out / name).write_bytes((src / name).read_bytes())
        result = runner.invoke(cli.main, ["train", "-c", str(cfg), "-o", str(out),
                                          "--max-outer", "1"])
        assert result.exit_code == 0, result.output
        assert "trained ce-jt for 1 outer iterations (stopped: cap);" in result.output

    def test_gold_without_labels_leaves_f1_column_empty(self, runner, tmp_path, pipeline_dir):
        src, cfg = pipeline_dir
        out = tmp_path / "nogold"
        out.mkdir()
        for name in ("instances.csv", "annotations.csv"):
            (out / name).write_bytes((src / name).read_bytes())
        (out / "gold.csv").write_text("instance_id,label\n")
        result = runner.invoke(cli.main, ["train", "-c", str(cfg), "-o", str(out),
                                          "--max-outer", "2"])
        assert result.exit_code == 0, result.output
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[4] for row in rows[1:]] == ["", ""]


def dense_files_config(tmp_path: Path, inst_csv: str, ann_csv: str, **items) -> Path:
    """A files-dataset config over inst.csv and ann.csv, which hold ``inst_csv`` and
    ``ann_csv``; ``items`` add or replace keys."""
    (tmp_path / "inst.csv").write_text(inst_csv)
    (tmp_path / "ann.csv").write_text(ann_csv)
    return write_config(tmp_path / "files.cfg", **{
        "dataset": "files", "labels": "0,1", "instances": tmp_path / "inst.csv",
        "annotations": tmp_path / "ann.csv", "max_outer": 1, "pretrain_epochs": 5,
        "inner_iters": 2, "out_dir": tmp_path / "out", **items})


class TestFilesValidation:
    ANNOTATIONS = "instance_id,annotator_id,label\na,w1,0\na,w2,1\nb,w1,1\nb,w2,1\n"

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_uncovered_instance_exits_one(self, runner, tmp_path, command):
        cfg = dense_files_config(tmp_path, "id,x0,x1\na,0.1,0.2\nb,0.3,0.4\nlonely,0.5,0.6\n",
                                 self.ANNOTATIONS)
        result = runner.invoke(cli.main, [command, "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "'lonely' has no annotations" in result.output

    def test_instances_without_a_feature_column_exit_one(self, runner, tmp_path):
        cfg = dense_files_config(tmp_path, "id\na\nb\n", self.ANNOTATIONS)
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "inst.csv: header must be id,..." in result.output
        assert not (tmp_path / "out" / "model.json").exists()

    def test_empty_label_name_exits_one(self, runner, tmp_path):
        cfg = dense_files_config(tmp_path, "id,x0\na,0.1\nb,0.3\n", self.ANNOTATIONS,
                                 labels="0,1,")
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "label 2 of ['0', '1', ''] is an empty name" in result.output
        assert not (tmp_path / "out" / "model.json").exists()

    def test_non_finite_feature_exits_one(self, runner, tmp_path):
        cfg = dense_files_config(tmp_path, "id,x0,x1\na,0.1,nan\nb,0.3,0.4\n",
                                 self.ANNOTATIONS)
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "non-finite feature value in instance 'a'" in result.output

    @pytest.mark.parametrize("value", ["nan", "1e999", "-inf"])
    def test_non_finite_feature_names_file_and_line(self, runner, tmp_path, value):
        cfg = dense_files_config(tmp_path, f"id,x0,x1\na,0.1,0.2\nb,{value},0.4\n",
                                 self.ANNOTATIONS)
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "inst.csv:3: non-finite feature value in instance 'b'" in result.output

    def text_config(self, tmp_path: Path, **items) -> Path:
        """The two-document text dataset, featurized as ``items`` say."""
        docs = "".join(json.dumps({"id": i, "text": f"words about {i}"}) + "\n" for i in "ab")
        (tmp_path / "docs.jsonl").write_text(docs)
        return dense_files_config(tmp_path, "", self.ANNOTATIONS, instances=tmp_path / "docs.jsonl",
                                  instances_format="text-jsonl", **items)

    @pytest.mark.parametrize("content, message", [
        ("words 0.1 0.2\nabout 0.3 zz\n", "emb.txt:2: cannot parse 'zz' as float"),
        ("words 0.1 0.2\nabout 0.3\n", "emb.txt:2: expected 2 components, got 1"),
        ("words 0.1 0.2\nabout nan 0.3\n", "emb.txt:2: non-finite embedding value"),
        ("words\n", "emb.txt:1: no vector components"),
        ("", "emb.txt: empty embedding file"),
    ])
    def test_bad_embeddings_file_exits_one(self, runner, tmp_path, content, message):
        (tmp_path / "emb.txt").write_text(content)
        cfg = self.text_config(tmp_path, featurizer="avg-embed", embeddings=tmp_path / "emb.txt")
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert message in result.output

    @pytest.mark.parametrize("featurizer", ["tfidf", "avg-embed"])
    def test_text_featurizer_on_dense_instances_exits_one(self, runner, tmp_path, featurizer):
        (tmp_path / "emb.txt").write_text("words 0.1 0.2\n")
        cfg = dense_files_config(tmp_path, "id,x0,x1\na,0.1,0.2\nb,0.3,0.4\n", self.ANNOTATIONS,
                                 featurizer=featurizer, embeddings=tmp_path / "emb.txt")
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert f"featurizer {featurizer!r} needs text instances" in result.output

    def test_tfidf_on_a_corpus_without_tokens_exits_one(self, runner, tmp_path):
        cfg = self.text_config(tmp_path, featurizer="tfidf")
        (tmp_path / "docs.jsonl").write_text('{"id": "a", "text": "!?"}\n{"id": "b", "text": ""}\n')
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "featurizer 'tfidf': corpus contains no tokens" in result.output

    @pytest.mark.parametrize("featurizer, width, hidden", [
        ("tfidf", 3, (100, 100)), ("avg-embed", 2, (50, 25)), ("concat-avg-embed", 4, (100, 50)),
    ])
    def test_text_featurizer_trains_at_its_hidden_widths(self, runner, tmp_path, featurizer,
                                                         width, hidden):
        (tmp_path / "emb.txt").write_text("words 0.1 0.2\nabout 0.3 0.4\n")
        cfg = self.text_config(tmp_path, featurizer=featurizer, embeddings=tmp_path / "emb.txt")
        (tmp_path / "docs.jsonl").write_text(
            '{"id": "a", "text": "words about", "text2": "words"}\n'
            '{"id": "b", "text": "about about it", "text2": "about"}\n')
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 0, result.output
        checkpoint = json.loads((tmp_path / "out" / "model.json").read_text())
        config = checkpoint["config"]
        assert (config["classifier_hidden"], config["estimator_hidden"]) == hidden
        # the classifier's first layer reads the featurizer's width: the tf-idf vocabulary
        # (words, about, it), one embedding, or the concatenated embeddings of text and text2
        assert len(checkpoint["classifier"]["layers"][0]["weights"]) == width * hidden[0]

    def test_concat_featurizer_without_text2_exits_one(self, runner, tmp_path):
        (tmp_path / "emb.txt").write_text("words 0.1 0.2\n")
        cfg = self.text_config(tmp_path, featurizer="concat-avg-embed",
                               embeddings=tmp_path / "emb.txt")
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert ("featurizer 'concat-avg-embed' needs text pairs, but instance 'a' has no text2"
                in result.output)
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("featurizer", ["avg-embed", "concat-avg-embed"])
    def test_embedding_featurizer_without_embeddings_exits_one(self, runner, tmp_path,
                                                               featurizer):
        cfg = self.text_config(tmp_path, featurizer=featurizer)
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "missing config key 'embeddings'" in result.output
        assert not (tmp_path / "out" / "model.json").exists()

    def test_unknown_featurizer_is_named_before_embeddings_are_read(self, runner, tmp_path):
        cfg = self.text_config(tmp_path, featurizer="glove", embeddings=tmp_path / "absent.txt")
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "featurizer must be one of ('none', 'tfidf', " in result.output
        assert "got 'glove'" in result.output
        assert "absent.txt" not in result.output

    @pytest.mark.parametrize("line", ["5", '{"id": "b", "text": null}', '{"id": 5, "text": "x"}'])
    def test_malformed_text_line_exits_one(self, runner, tmp_path, line):
        cfg = self.text_config(tmp_path, featurizer="tfidf")
        (tmp_path / "docs.jsonl").write_text('{"id": "a", "text": "some words"}\n' + line + "\n")
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "docs.jsonl:2: " in result.output

    @pytest.mark.parametrize("fmt", ["dense-csv", "text-jsonl"])
    def test_repeated_instance_id_names_file_and_line(self, runner, tmp_path, fmt):
        if fmt == "dense-csv":
            cfg = dense_files_config(tmp_path, "id,x0,x1\na,0.1,0.2\na,0.3,0.4\nb,0.5,0.6\n",
                                     self.ANNOTATIONS)
            name, line = "inst.csv", 3
        else:
            docs = "".join(json.dumps({"id": i, "text": "some words"}) + "\n" for i in "aab")
            (tmp_path / "docs.jsonl").write_text(docs)
            cfg = dense_files_config(tmp_path, "", self.ANNOTATIONS,
                                     instances=tmp_path / "docs.jsonl",
                                     instances_format="text-jsonl", featurizer="tfidf")
            name, line = "docs.jsonl", 2
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert f"{name}:{line}: duplicate instance id 'a'" in result.output

    @pytest.mark.parametrize("instances_format", ["dense-csv", "text-jsonl"])
    def test_empty_dataset_exits_one(self, runner, tmp_path, instances_format):
        if instances_format == "dense-csv":
            cfg = dense_files_config(tmp_path, "id,x0,x1\n", "instance_id,annotator_id,label\n")
        else:
            (tmp_path / "emb.txt").write_text("words 0.1 0.2\n")
            cfg = self.text_config(tmp_path, featurizer="avg-embed", embeddings=tmp_path / "emb.txt")
            (tmp_path / "docs.jsonl").write_text("")
            (tmp_path / "ann.csv").write_text("instance_id,annotator_id,label\n")
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "dataset has no instances" in result.output

    @pytest.mark.parametrize("key", ["instances", "annotations", "gold"])
    def test_directory_as_input_path_exits_one(self, runner, tmp_path, key):
        cfg = dense_files_config(tmp_path, "id,x0,x1\na,0.1,0.2\nb,0.3,0.4\n", self.ANNOTATIONS,
                                 **{key: tmp_path / "somedir"})
        (tmp_path / "somedir").mkdir()
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "Is a directory" in result.output and "somedir" in result.output

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_missing_gold_file_names_the_path(self, runner, tmp_path, command):
        cfg = dense_files_config(tmp_path, "id,x0,x1\na,0.1,0.2\nb,0.3,0.4\n", self.ANNOTATIONS,
                                 gold=tmp_path / "gold_TYPO.csv")
        result = runner.invoke(cli.main, [command, "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "gold_TYPO.csv" in result.output

    @pytest.mark.parametrize("bad_file", ["ann.csv", "gold.csv", "out/predictions.csv"])
    def test_unknown_label_names_file_and_line(self, runner, tmp_path, bad_file):
        cfg = dense_files_config(tmp_path, "id,x0,x1\na,0.1,0.2\nb,0.3,0.4\n", self.ANNOTATIONS,
                                 gold=tmp_path / "gold.csv")
        (tmp_path / "out").mkdir()
        for name in ("gold.csv", "out/predictions.csv"):
            (tmp_path / name).write_text("instance_id,label\na,0\nb,1\n")
        path = tmp_path / bad_file
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-1] + "maybe"  # line 3 ends in its label
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(cli.main, ["eval", "-c", str(cfg), "--metrics", "iaa"])
        assert result.exit_code == 1, result.output
        assert f"{path.name}:3: unknown label 'maybe'" in result.output


class TestEvalCommand:
    def test_metrics_and_denoise(self, runner, pipeline_dir):
        out, cfg = pipeline_dir
        result = runner.invoke(cli.main, ["eval", "-c", str(cfg), "--metrics", "f1,iaa,baselines",
                                          "--denoise", "mv", "--report-reliability", "10"])
        assert result.exit_code == 0, result.output
        metrics = read_metrics(out)
        assert metrics["f1_micro"] >= 0.97
        assert "fleiss_kappa" in metrics  # complete panel routes to kappa
        assert {"denoise_mv_before", "denoise_mv_after", "denoise_mv_delta"} <= metrics.keys()
        assert "mv_f1_micro" in metrics and "ds_f1_micro" in metrics
        assert (out / "reliability_report.txt").exists()

    def test_incomplete_panel_routes_to_alpha(self, runner, tmp_path):
        out = tmp_path / "sparse"
        cfg = write_config(tmp_path / "sparse.cfg", **{**BASE, "n": 200, "max_outer": 1,
                                                       "keep_prob": 0.6},
                           out_dir=out)
        assert runner.invoke(cli.main, ["simulate", "-c", str(cfg)]).exit_code == 0
        assert runner.invoke(cli.main, ["train", "-c", str(cfg)]).exit_code == 0
        result = runner.invoke(cli.main, ["eval", "-c", str(cfg), "--metrics", "iaa"])
        assert result.exit_code == 0, result.output
        assert "krippendorff_alpha" in read_metrics(out)

    def test_report_emits_text_and_csv(self, runner, pipeline_dir):
        out, cfg = pipeline_dir
        result = runner.invoke(cli.main, ["eval", "-c", str(cfg), "--metrics", "f1",
                                          "--report-reliability", "5"])
        assert result.exit_code == 0, result.output
        assert (out / "reliability_report.txt").exists()
        with open(out / "reliability_report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "annotator"
        assert len(rows) > 10
        with open(out / "annotations.csv", newline="") as fh:
            pairs: dict[str, int] = {}
            for row in list(csv.reader(fh))[1:]:
                pairs[row[1]] = pairs.get(row[1], 0) + 1
        totals = [row for row in rows[1:] if row[2]]
        assert len(totals) == 2 * len(pairs)
        for row in totals:
            assert int(row[2]) == min(5, pairs[row[0]])

    def test_negative_report_k_exits_one(self, runner, pipeline_dir):
        out, cfg = pipeline_dir
        (out / "reliability_report.txt").unlink(missing_ok=True)
        result = runner.invoke(cli.main, ["eval", "-c", str(cfg), "--metrics", "iaa",
                                          "--report-reliability", "-3"])
        assert result.exit_code == 1, result.output
        assert "report_reliability" in result.output
        assert not (out / "reliability_report.txt").exists()


class TestFilesDataset:
    def test_text_jsonl_pipeline_with_tfidf(self, runner, tmp_path):
        from crowdrel.data import write_annotations, write_gold, write_instances_jsonl
        from crowdrel.simulate import default_panel, gen_text_fixture, simulate_annotations

        instances, gold = gen_text_fixture(120, 3, seed=2)
        labels = LabelSet(("0", "1", "2"))
        ann = simulate_annotations(gold, 3, default_panel(3), seed=2,
                                   instance_ids=[inst.id for inst in instances])
        write_instances_jsonl(tmp_path / "docs.jsonl", instances)
        write_annotations(tmp_path / "ann.csv", ann, labels)
        write_gold(tmp_path / "gold.csv", gold, labels, [inst.id for inst in instances])
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "text.cfg",
            dataset="files", labels="0,1,2",
            instances=tmp_path / "docs.jsonl", instances_format="text-jsonl",
            annotations=tmp_path / "ann.csv", gold=tmp_path / "gold.csv",
            featurizer="tfidf", classifier_hidden=16, estimator_hidden=16,
            mode="ce-jt", pretrain="mv", pretrain_epochs=100, max_outer=2, seed=1,
            out_dir=out,
        )
        assert runner.invoke(cli.main, ["train", "-c", str(cfg)]).exit_code == 0
        result = runner.invoke(cli.main, ["eval", "-c", str(cfg), "--metrics", "f1,iaa"])
        assert result.exit_code == 0, result.output
        metrics = read_metrics(out)
        assert metrics["f1_micro"] > 0.6
        assert "fleiss_kappa" in metrics

    def test_text_training_artifacts_are_reproducible(self, runner, tmp_path):
        from crowdrel.data import write_annotations, write_gold, write_instances_jsonl
        from crowdrel.simulate import default_panel, gen_text_fixture, simulate_annotations

        instances, gold = gen_text_fixture(60, 3, seed=1)
        labels = LabelSet(("0", "1", "2"))
        ann = simulate_annotations(gold, 3, default_panel(3), seed=1,
                                   instance_ids=[inst.id for inst in instances])
        write_instances_jsonl(tmp_path / "docs.jsonl", instances)
        write_annotations(tmp_path / "ann.csv", ann, labels)
        write_gold(tmp_path / "gold.csv", gold, labels, [inst.id for inst in instances])
        for sub in ("a", "b"):
            # the tf-idf defaults: hidden 100/100
            cfg = write_config(
                tmp_path / f"{sub}.cfg", dataset="files", labels="0,1,2",
                instances=tmp_path / "docs.jsonl", instances_format="text-jsonl",
                annotations=tmp_path / "ann.csv", gold=tmp_path / "gold.csv",
                featurizer="tfidf", max_outer=2, out_dir=tmp_path / sub)
            result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
            assert result.exit_code == 0, result.output
        assert load_model(tmp_path / "a" / "model.json")[2].classifier_hidden == 100
        for name in ("model.json", "trace.csv", "predictions.csv", "reliability.csv",
                     "manifest_train.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_tfidf_training_does_not_depend_on_hash_seed(self, tmp_path):
        from crowdrel.data import write_annotations, write_instances_jsonl
        from crowdrel.simulate import default_panel, gen_text_fixture, simulate_annotations

        instances, gold = gen_text_fixture(40, 3, seed=4)
        ann = simulate_annotations(gold, 3, default_panel(3), seed=4,
                                   instance_ids=[inst.id for inst in instances])
        write_instances_jsonl(tmp_path / "docs.jsonl", instances)
        write_annotations(tmp_path / "ann.csv", ann, LabelSet(("0", "1", "2")))
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "text.cfg",
            dataset="files", labels="0,1,2",
            instances=tmp_path / "docs.jsonl", instances_format="text-jsonl",
            annotations=tmp_path / "ann.csv",
            featurizer="tfidf", classifier_hidden=4, estimator_hidden=4,
            mode="em", pretrain="mv", pretrain_epochs=5, max_outer=1, inner_iters=2, seed=1,
            out_dir=out,
        )
        # set iteration order, and with it any order built from a set, follows the hash seed
        src = str(Path(crowdrel.__file__).resolve().parent.parent)
        models = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-m", "crowdrel.cli", "train", "-c", str(cfg)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            models.append((out / "model.json").read_bytes())
        assert models[0] == models[1]

    @pytest.mark.parametrize("bad_row, message", [
        ("bogus,a0,0.5", "unknown instance id 'bogus'"),
        ("i0,bogus,0.5", "unknown annotator id 'bogus'"),
        ("i0,a0,high", "cannot parse 'high' as float"),
        ("i1,a0,0.7", "duplicate score for instance 'i1' by 'a0'"),
        ("i0,a1,0.9", "no annotation for instance 'i0' by 'a1'"),
        ("i0,a0,nan", "score must be in [0, 1], got nan"),
        ("i0,a0,inf", "score must be in [0, 1], got inf"),
        ("i0,a0,-3", "score must be in [0, 1], got -3.0"),
        ("i0,a0,1.5", "score must be in [0, 1], got 1.5"),
    ])
    def test_bad_reliability_row_names_file_and_line(self, runner, tmp_path, bad_row, message):
        # a1 annotates i1 only, so (i0, a1) is a pair of known ids without an annotation
        cfg = dense_files_config(tmp_path, "id,x0\ni0,0.1\ni1,0.2\n",
                                 "instance_id,annotator_id,label\ni0,a0,0\ni1,a0,1\ni1,a1,1\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "predictions.csv").write_text("instance_id,label\ni0,0\ni1,1\n")
        (out / "reliability.csv").write_text(
            f"instance_id,annotator_id,score\ni1,a0,0.5\n{bad_row}\n")
        result = runner.invoke(cli.main, ["eval", "-c", str(cfg), "--metrics", "iaa"])
        assert result.exit_code == 1, result.output
        assert f"reliability.csv:3: {message}" in result.output

    def eval_config(self, tmp_path: Path, annotations: str, gold: str) -> Path:
        """Two instances with ``annotations`` and ``gold``, predictions and a score per pair."""
        cfg = dense_files_config(tmp_path, "id,x0\ni0,0.1\ni1,0.2\n",
                                 "instance_id,annotator_id,label\n" + annotations,
                                 gold=tmp_path / "gold.csv")
        (tmp_path / "gold.csv").write_text("instance_id,label\n" + gold)
        out = tmp_path / "out"
        out.mkdir()
        (out / "predictions.csv").write_text("instance_id,label\ni0,0\ni1,1\n")
        (out / "reliability.csv").write_text("instance_id,annotator_id,score\n" + "".join(
            row.rsplit(",", 1)[0] + ",0.5\n" for row in annotations.splitlines()))
        return cfg

    def test_instance_without_a_prediction_is_named(self, runner, tmp_path):
        cfg = self.eval_config(tmp_path, "i0,a0,0\ni0,a1,0\ni1,a0,1\ni1,a1,0\n", "i0,0\ni1,1\n")
        (tmp_path / "out" / "predictions.csv").write_text("instance_id,label\ni1,1\n")
        result = runner.invoke(cli.main, ["eval", "-c", str(cfg), "--metrics", "iaa"])
        assert result.exit_code == 1, result.output
        assert "predictions.csv: no prediction for instance 'i0'" in result.output
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_default_metrics_with_no_instance_annotated_twice_exits_one(self, runner, tmp_path):
        cfg = self.eval_config(tmp_path, "i0,a0,0\ni1,a1,1\n", "i0,0\ni1,1\n")
        result = runner.invoke(cli.main, ["eval", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "krippendorff_alpha needs at least one instance with >= 2 annotations" in result.output
        assert not (tmp_path / "out" / "metrics.csv").exists()

    @pytest.mark.parametrize("args, message", [
        (["--metrics", "f1"], "no gold labels to evaluate against"),
        (["--metrics", "baselines"], "no gold labels to evaluate against"),
        (["--metrics", "iaa", "--denoise", "mv"], "no gold labels to evaluate against"),
        (["--metrics", "iaa", "--report-reliability", "3"], "reliability report needs gold labels"),
    ], ids=["f1", "baselines", "denoise", "report"])
    def test_header_only_gold_file_exits_one(self, runner, tmp_path, args, message):
        cfg = self.eval_config(tmp_path, "i0,a0,0\ni0,a1,0\ni1,a0,1\ni1,a1,0\n", "")
        result = runner.invoke(cli.main, ["eval", "-c", str(cfg)] + args)
        assert result.exit_code == 1, result.output
        assert message in result.output
        assert not (tmp_path / "out" / "metrics.csv").exists()
        assert not (tmp_path / "out" / "reliability_report.txt").exists()

    def test_unknown_denoise_aggregator_exits_one(self, runner, tmp_path):
        cfg = self.eval_config(tmp_path, "i0,a0,0\ni0,a1,0\ni1,a0,1\ni1,a1,0\n", "i0,0\ni1,1\n")
        result = runner.invoke(cli.main, ["eval", "-c", str(cfg), "--metrics", "iaa",
                                          "--denoise", "median"])
        assert result.exit_code == 1, result.output
        assert ("flag --denoise: denoise must be one of ('mv', 'ds', 'off'), got 'median'"
                in result.output)

    def test_unknown_metric_fails_validation(self, runner, pipeline_dir):
        _, cfg = pipeline_dir
        result = runner.invoke(cli.main, ["eval", "-c", str(cfg), "--metrics", "f1,auc"])
        assert result.exit_code == 1
        assert ("flag --metrics: metrics must be a non-empty comma list from ('f1', 'iaa', "
                "'baselines'), got 'f1,auc'" in result.output)


class TestConfigHandling:
    def test_bad_mode_exits_one(self, runner, tmp_path):
        for mode in ("sgd", "ce-alt"):  # a removed mode is rejected, not remapped
            cfg = write_config(tmp_path / "bad.cfg", **{**BASE, "mode": mode},
                               out_dir=tmp_path / "out")
            runner.invoke(cli.main, ["simulate", "-c", str(cfg)])
            result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
            assert result.exit_code == 1
            assert f"mode must be one of ('em', 'ce-jt'), got '{mode}'" in result.output

    @pytest.mark.parametrize("command, option, choices", [
        ("simulate", "--dataset", tuple(simulate.DATASET_KINDS)),
        ("train", "--mode", model.MODES),
        ("train", "--pretrain", model.PRETRAIN_SOURCES),
        ("eval", "--denoise", model.PRETRAIN_SOURCES + ("off",)),
    ])
    def test_help_lists_the_validated_choices(self, runner, command, option, choices):
        result = runner.invoke(cli.main, [command, "--help"])
        assert result.exit_code == 0, result.output
        # the choices lead the help text, which a colon may continue
        listed = re.search(rf"{option} TEXT (.+?)(:| --)", " ".join(result.output.split())).group(1)
        assert tuple(listed.split(" | ")) == choices

    @pytest.mark.parametrize("key, value", [
        ("clip_norm", "-1"), ("max_outer", "-3"), ("pretrain_epochs", "-1"),
        ("classifier_hidden", "0"), ("estimator_hidden", "-2"), ("seed", "-1"),
        ("learning_rate", "nan"), ("weight_decay", "inf"), ("early_stop_tol", "nan"),
    ])
    def test_out_of_range_training_setting_exits_one(self, runner, tmp_path, pipeline_dir,
                                                      key, value):
        src, _ = pipeline_dir
        out = tmp_path / "out"
        out.mkdir()
        for name in ("instances.csv", "gold.csv", "annotations.csv"):
            (out / name).write_bytes((src / name).read_bytes())
        cfg = write_config(tmp_path / "bad.cfg", **{**BASE, key: value}, out_dir=out)
        result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert f"{key} must be" in result.output
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("field", dataclasses.fields(TrainConfig), ids=lambda f: f.name)
    def test_train_config_field_is_the_key_of_its_name(self, field):
        # a TrainConfig field that no config key sets is a setting no run can change; the
        # key takes the field's default and the very rule the field is checked by, and the
        # field's annotation is that rule's type
        assert cli.SETTINGS[field.name] == (field.default, model.TRAIN_RULES[field.name])
        assert cli.SETTINGS[field.name].rule is model.TRAIN_RULES[field.name]
        assert get_type_hints(TrainConfig)[field.name] is model.TRAIN_RULES[field.name].type

    def test_threads_option_is_gone(self, runner, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **BASE, out_dir=tmp_path / "out")
        result = runner.invoke(cli.main, ["--threads", "1", "simulate", "-c", str(cfg)])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--threads" in result.output

    def test_malformed_config_line(self, runner, tmp_path):
        path = tmp_path / "oops.cfg"
        path.write_text("this is not a key value pair\n")
        result = runner.invoke(cli.main, ["simulate", "-c", str(path)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("command", ["simulate", "train", "eval"])
    def test_misspelt_key_names_file_and_line(self, runner, tmp_path, command):
        cfg = write_config(tmp_path / "run.cfg", **BASE, out_dir=tmp_path / "out")
        with open(cfg, "a") as fh:
            fh.write("max_outter = 1\n")
        line = len(cfg.read_text().splitlines())
        result = runner.invoke(cli.main, [command, "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert f"run.cfg:{line}: unknown config key 'max_outter'" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_repeated_key_names_file_both_lines_and_key(self, runner, tmp_path, command):
        cfg = write_config(tmp_path / "run.cfg", **BASE, out_dir=tmp_path / "out")
        first = 2 + list(BASE).index("seed")  # line 1 is the comment
        with open(cfg, "a") as fh:
            fh.write("seed = 2\n")
        line = len(cfg.read_text().splitlines())
        result = runner.invoke(cli.main, [command, "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert f"run.cfg:{line}: config key 'seed' is already set on line {first}" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "train", "eval"])
    def test_unparseable_value_names_file_line_and_key(self, runner, tmp_path, command):
        # every key is converted when the file is read, also in a command that never uses it
        cfg = write_config(tmp_path / "run.cfg", **{**BASE, "max_outer": "abc"},
                           out_dir=tmp_path / "out")
        line = 2 + list(BASE).index("max_outer")  # line 1 is the comment
        result = runner.invoke(cli.main, [command, "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert (f"run.cfg:{line}: config key 'max_outer': cannot parse 'abc' as int"
                in result.output)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, value, kind", [
        ("simulate", "--n", "abc", "int"), ("simulate", "--noise", "x", "float"),
        ("train", "--max-outer", "1.5", "int"), ("eval", "--report-reliability", "k", "int"),
    ])
    def test_unparseable_flag_exits_one_naming_the_flag(self, runner, tmp_path, command, flag,
                                                         value, kind):
        cfg = write_config(tmp_path / "run.cfg", **BASE, out_dir=tmp_path / "out")
        result = runner.invoke(cli.main, [command, "-c", str(cfg), flag, value])
        assert result.exit_code == 1, result.output
        assert f"flag {flag}: cannot parse {value!r} as {kind}" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "train", "eval"])
    @pytest.mark.parametrize("key, value", [
        ("dataset", "moom"), ("mode", "sgd"), ("pretrain", "dss"), ("featurizer", "tfidff"),
        ("instances_format", "csv"), ("denoise", "dss"), ("report_reliability", "-2"),
        ("inner_iters", "0"), ("max_outer", "-1"), ("pretrain_epochs", "-1"),
        ("classifier_hidden", "0"), ("estimator_hidden", "0"), ("seed", "-1"),
        ("early_stop_tol", "0"), ("learning_rate", "nan"), ("weight_decay", "inf"),
        ("clip_norm", "-1"), ("keep_prob", "1.5"), ("noise", "-0.5"), ("metrics", "f1,auc"),
        ("n", "0"), ("metrics", ""), ("panel", ""), ("gold", ""), ("labels", ""),
    ])
    def test_value_outside_its_range_names_file_line_and_key(self, runner, tmp_path, command,
                                                              key, value):
        # every key is checked when the file is read, also in a command that never uses it
        items = {**BASE, key: value}
        cfg = write_config(tmp_path / "run.cfg", **items, out_dir=tmp_path / "out")
        line = 2 + list(items).index(key)  # line 1 is the comment
        result = runner.invoke(cli.main, [command, "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        got = cli.SETTINGS[key].rule.type(value)
        assert f"run.cfg:{line}: config key {key!r}: {key} must be " in result.output
        assert result.output.rstrip().endswith(f"got {got!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "train", "eval"])
    def test_empty_out_dir_exits_one_and_writes_nothing(self, runner, tmp_path, monkeypatch,
                                                        command):
        # an empty out_dir would be the current directory
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "run.cfg", **BASE, out_dir="")
        line = 2 + len(BASE)  # line 1 is the comment
        result = runner.invoke(cli.main, [command, "-c", str(cfg)])
        assert result.exit_code == 1, result.output
        assert (f"run.cfg:{line}: config key 'out_dir': out_dir must be non-empty, got ''"
                in result.output)
        assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command, flag, value", [
        ("simulate", "--dataset", "moom"), ("train", "--mode", "sgd"),
        ("train", "--pretrain", "dss"), ("eval", "--denoise", "dss"),
        ("eval", "--report-reliability", "-2"), ("train", "--max-outer", "-1"),
        ("simulate", "--keep-prob", "1.5"), ("eval", "--metrics", "auc"),
    ])
    def test_flag_outside_its_range_exits_one_naming_the_flag(self, runner, tmp_path, command,
                                                               flag, value):
        cfg = write_config(tmp_path / "run.cfg", **BASE, out_dir=tmp_path / "out")
        result = runner.invoke(cli.main, [command, "-c", str(cfg), flag, value])
        assert result.exit_code == 1, result.output
        assert f"flag {flag}: {flag[2:].replace('-', '_')} must be " in result.output
        assert not (tmp_path / "out").exists()

    def test_unset_dataset_and_seed_take_their_defaults(self, runner, tmp_path):
        unset = {k: v for k, v in BASE.items() if k not in ("dataset", "seed")}
        for sub, items in (("unset", unset), ("set", {**unset, "dataset": "moon", "seed": 0})):
            cfg = write_config(tmp_path / f"{sub}.cfg", **items, out_dir=tmp_path / sub)
            result = runner.invoke(cli.main, ["simulate", "-c", str(cfg)])
            assert result.exit_code == 0, result.output
        for name in ("instances.csv", "gold.csv", "annotations.csv"):
            assert (tmp_path / "unset" / name).read_bytes() == (tmp_path / "set" / name).read_bytes()
        manifests = [json.loads((tmp_path / sub / "manifest_simulate.json").read_text())
                     for sub in ("unset", "set")]
        assert manifests[0]["seed"] == manifests[1]["seed"] == "0"

    def test_flag_overrides_file(self, runner, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **BASE, out_dir=tmp_path / "out")
        result = runner.invoke(cli.main, ["simulate", "-c", str(cfg), "--n", "120"])
        assert result.exit_code == 0
        instances = load_instances(tmp_path / "out" / "instances.csv", "dense-csv")
        assert len(instances) == 120

    def test_config_hash_is_of_the_effective_values(self, tmp_path):
        def config_hash(**items):
            return cli.config_hash(cli.parse_config(write_config(tmp_path / "run.cfg", **items)))

        base = {"dataset": "moon", "panel": "default"}
        rate = cli.SETTINGS["learning_rate"].default
        omitted = config_hash(**base)
        assert config_hash(**base, learning_rate=rate) == omitted
        assert config_hash(**base, learning_rate=f"{rate:e}") == omitted
        assert config_hash(**base, learning_rate=2 * rate) != omitted
        # a hidden width's default is the featurizer's
        width = featurize.HIDDEN_DEFAULTS["tfidf"][0]
        tfidf = config_hash(**base, featurizer="tfidf")
        assert config_hash(**base, featurizer="tfidf", classifier_hidden=width) == tfidf
        assert config_hash(**base, featurizer="tfidf", classifier_hidden=width + 1) != tfidf
        # an input key that names no file, as a command that reads none may see it
        assert config_hash(**base, instances=tmp_path / "absent.csv") != omitted

    def test_config_hash_reads_input_files_by_their_contents(self, runner, tmp_path):
        rows = TestFilesValidation.ANNOTATIONS
        hashes = []
        for sub, annotations in (("a", rows), ("b", rows), ("c", rows.replace("b,w2,1", "b,w2,0"))):
            (tmp_path / sub).mkdir()
            cfg = dense_files_config(tmp_path / sub, "id,x0\na,0.1\nb,0.3\n", annotations)
            result = runner.invoke(cli.main, ["train", "-c", str(cfg)])
            assert result.exit_code == 0, result.output
            manifest = json.loads((tmp_path / sub / "out" / "manifest_train.json").read_text())
            hashes.append(manifest["config_hash"])
        assert hashes[0] == hashes[1] != hashes[2]

    def test_training_artifacts_are_reproducible(self, runner, tmp_path):
        small = {**BASE, "n": 150, "max_outer": 2, "pretrain_epochs": 50}
        for sub in ("a", "b"):
            cfg = write_config(tmp_path / f"{sub}.cfg", **small, out_dir=tmp_path / sub)
            assert runner.invoke(cli.main, ["simulate", "-c", str(cfg)]).exit_code == 0
            assert runner.invoke(cli.main, ["train", "-c", str(cfg)]).exit_code == 0
        for name in ("model.json", "predictions.csv", "reliability.csv", "trace.csv",
                     "manifest_simulate.json", "manifest_train.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
