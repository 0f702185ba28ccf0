"""Command-line pipelines: simulate -> train -> eval.

A run is driven by a declarative key=value config file; command-line
flags override file values. Every command writes a manifest carrying the
hash of the effective config so artifacts are traceable. Bad input,
whether a file row, a config value or an argument a library function
rejects, raises ``DataError`` where it is checked. Exit codes: 0
success; 1 for a DataError or an input path that is missing or a
directory; 2 for anything else, such as a FloatingPointError in training.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import astuple, fields
from pathlib import Path

import click
import numpy as np

from . import baselines, data, evaluate, featurize, model, simulate
from .data import DataError

OUT_DIR_ENV = "CROWDREL_OUT"

# (classifier_hidden, estimator_hidden) defaults per featurizer
HIDDEN_DEFAULTS = {
    "none": (5, 5),
    "tfidf": (100, 100),
    "avg-embed": (50, 25),
    "concat-avg-embed": (100, 50),
}

# config keys that set the TrainConfig field of the same name (pretrain sets
# pretrain_source), with their parsers; the defaults live in TrainConfig
TRAIN_KEYS = {
    "mode": str, "pretrain": str,
    "inner_iters": int, "max_outer": int, "pretrain_epochs": int,
    "classifier_hidden": int, "estimator_hidden": int, "seed": int,
    "early_stop_tol": float, "learning_rate": float, "weight_decay": float, "clip_norm": float,
}

# every key some command reads: one config file drives all three commands,
# so a key outside this table is a misspelling, not another command's key
CONFIG_KEYS = frozenset(TRAIN_KEYS) | {
    "out_dir", "dataset", "n", "noise", "panel", "keep_prob", "labels",
    "instances", "instances_format", "annotations", "gold", "featurizer", "embeddings",
    "metrics", "report_reliability", "denoise",
}


def parse_config(path: str | Path) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value
    return cfg


def config_hash(cfg: dict[str, str]) -> str:
    canonical = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _get(cfg: dict[str, str], key: str, default=None, cast=str):
    if key not in cfg:
        if default is None:
            raise DataError(f"missing config key {key!r}")
        return default
    try:
        return cast(cfg[key])
    except (TypeError, ValueError):
        raise DataError(f"config key {key!r}: cannot parse {cfg[key]!r} as {cast.__name__}") from None


def _resolve_out_dir(cfg: dict[str, str], flag: str | None) -> Path:
    out = flag or cfg.get("out_dir") or os.environ.get(OUT_DIR_ENV) or "crowdrel_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out_dir: Path, command: str, cfg: dict[str, str], files: list[str]) -> None:
    payload = {
        "command": command,
        "config_hash": config_hash(cfg),
        "seed": cfg.get("seed", "0"),
        "files": sorted(files),
    }
    (out_dir / f"manifest_{command}.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")


def _validate(instances: list[data.Instance], annotations: data.AnnotationSet,
              gold: data.GoldLabels | None = None) -> None:
    problems = data.validate(instances, annotations, gold)
    if problems:
        raise DataError("; ".join(problems))


def _parse_panel(value: str, n_labels: int) -> list[simulate.AnnotatorProfile]:
    if value == "default":
        return simulate.default_panel(n_labels)
    if value == "graded":
        return simulate.graded_panel()
    profiles = []
    for part in value.split(","):
        part = part.strip()
        kind, sep, arg = part.partition(":")
        try:
            if kind == "narrow":
                profiles.append(simulate.AnnotatorProfile("narrow", domain=int(arg)))
            elif kind == "graded":
                profiles.append(simulate.AnnotatorProfile("graded", error_prob=float(arg)))
            elif kind in ("broad", "random", "adversarial"):
                if sep:
                    raise DataError(f"{kind} takes no argument")
                profiles.append(simulate.AnnotatorProfile(kind))
            else:
                raise DataError("unknown annotator kind")
        except ValueError as exc:  # a DataError, or an argument that does not parse
            raise DataError(f"panel entry {part!r}: {exc}") from None
    return profiles


def _merge(cfg_path: str | None, overrides: dict[str, str | None]) -> dict[str, str]:
    cfg = parse_config(cfg_path) if cfg_path else {}
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = str(value)
    return cfg


def _label_set(cfg: dict[str, str]) -> data.LabelSet:
    kind = _get(cfg, "dataset", "moon")
    if kind in simulate.DATASET_KINDS:
        k, _ = simulate.DATASET_KINDS[kind]
        return data.LabelSet(tuple(str(c) for c in range(k)))
    return data.LabelSet(tuple(s.strip() for s in _get(cfg, "labels").split(",")))


def _load_dataset(cfg: dict[str, str], out_dir: Path):
    """Return (instances, annotations, gold, label_set) from files or a prior simulate run.

    ``gold`` is the gold label index of each instance, -1 where it has none
    (everywhere when no gold file is named).
    """
    label_set = _label_set(cfg)
    if _get(cfg, "dataset", "moon") in simulate.DATASET_KINDS:
        instances = data.load_instances(out_dir / "instances.csv", "dense-csv")
        ann_path, gold_path = out_dir / "annotations.csv", out_dir / "gold.csv"
    else:
        instances = data.load_instances(_get(cfg, "instances"),
                                        _get(cfg, "instances_format", "dense-csv"))
        ann_path, gold_path = _get(cfg, "annotations"), cfg.get("gold")
    ids = [inst.id for inst in instances]
    annotations = data.load_annotations(ann_path, label_set, instance_ids=ids)
    loaded = data.load_gold(gold_path, label_set, instance_ids=ids) if gold_path else None
    _validate(instances, annotations, loaded)
    n = len(instances)
    gold = np.full(n, -1, dtype=np.int64) if loaded is None else loaded.to_array(n)
    return instances, annotations, gold, label_set


def _features(cfg: dict[str, str], instances: list[data.Instance]) -> tuple[np.ndarray, str]:
    kind = _get(cfg, "featurizer", "none")
    if kind not in HIDDEN_DEFAULTS:
        raise DataError(f"unknown featurizer {kind!r}; expected one of {list(HIDDEN_DEFAULTS)}")
    if kind == "none":
        return data.feature_matrix(instances), kind
    dense = next((inst.id for inst in instances if inst.text is None), None)
    if dense is not None:
        raise DataError(f"featurizer {kind!r} needs text instances, but instance {dense!r} "
                        "has dense features (set instances_format = text-jsonl)")
    texts = [inst.text for inst in instances]
    if kind == "tfidf":
        try:
            vocab = featurize.fit_tfidf(texts)
        except DataError as exc:  # a corpus without a token
            raise DataError(f"featurizer 'tfidf': {exc}") from None
        return np.stack([featurize.transform_tfidf(vocab, t) for t in texts]), kind
    table = featurize.load_embeddings(_get(cfg, "embeddings"))
    if kind == "avg-embed":
        return np.stack([featurize.average_embed(table, t) for t in texts]), kind
    return np.stack([featurize.concat_average_embed(table, inst.text, inst.text2 or "")
                     for inst in instances]), kind


def _train_config(cfg: dict[str, str], featurizer: str) -> model.TrainConfig:
    settings = dict(zip(("classifier_hidden", "estimator_hidden"), HIDDEN_DEFAULTS[featurizer]))
    settings.update(("pretrain_source" if key == "pretrain" else key, _get(cfg, key, cast=cast))
                    for key, cast in TRAIN_KEYS.items() if key in cfg)
    return model.TrainConfig(**settings)


def _fail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    validation = (DataError, FileNotFoundError, IsADirectoryError)
    sys.exit(1 if isinstance(exc, validation) else 2)


@click.group()
def main() -> None:
    """Infer true labels and per-instance annotator reliability from noisy annotations."""


@main.command("simulate")
@click.option("-c", "--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("-o", "--out-dir", default=None)
@click.option("--dataset", default=None, help=" | ".join(simulate.DATASET_KINDS))
@click.option("--n", default=None, type=int)
@click.option("--noise", default=None, type=float)
@click.option("--panel", default=None, help='"default", "graded" or e.g. "narrow:0,broad,random"')
@click.option("--keep-prob", default=None, type=float)
@click.option("--seed", default=None, type=int)
def cmd_simulate(config_path, out_dir, dataset, n, noise, panel, keep_prob, seed):
    """Generate a 2-D dataset with simulated noisy annotators."""
    try:
        cfg = _merge(config_path, {"dataset": dataset, "n": n, "noise": noise,
                                   "panel": panel, "keep_prob": keep_prob, "seed": seed})
        seed_v = _get(cfg, "seed", 0, int)
        noise_v = _get(cfg, "noise", cast=float) if "noise" in cfg else None
        instances, gold = simulate.gen_2d(_get(cfg, "dataset", "moon"), _get(cfg, "n", 1000, int),
                                          noise_v, seed_v)
        label_set = _label_set(cfg)
        profiles = _parse_panel(_get(cfg, "panel"), len(label_set))
        annotations = simulate.simulate_annotations(
            gold, len(label_set), profiles, seed_v, instance_ids=[inst.id for inst in instances],
            keep_prob=_get(cfg, "keep_prob", 1.0, float))
        _validate(instances, annotations)
        out = _resolve_out_dir(cfg, out_dir)
        data.write_instances(out / "instances.csv", instances)
        data.write_gold(out / "gold.csv", gold, label_set, [i.id for i in instances])
        data.write_annotations(out / "annotations.csv", annotations, label_set)
        _write_manifest(out, "simulate", cfg, ["instances.csv", "gold.csv", "annotations.csv"])
        click.echo(f"wrote {len(instances)} instances, {annotations.n_pairs} annotations to {out}")
    except Exception as exc:  # noqa: BLE001 - single funnel to exit codes
        _fail(exc)


@main.command("train")
@click.option("-c", "--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("-o", "--out-dir", default=None)
@click.option("--mode", default=None, help=" | ".join(model.MODES))
@click.option("--pretrain", default=None, help=" | ".join(model.PRETRAIN_SOURCES))
@click.option("--max-outer", default=None, type=int)
@click.option("--seed", default=None, type=int)
def cmd_train(config_path, out_dir, mode, pretrain, max_outer, seed):
    """Pre-train and fit the reliability model; write checkpoint, trace and predictions."""
    try:
        cfg = _merge(config_path, {"mode": mode, "pretrain": pretrain, "max_outer": max_outer,
                                   "seed": seed})
        out = _resolve_out_dir(cfg, out_dir)
        instances, annotations, gold, label_set = _load_dataset(cfg, out)
        features, featurizer = _features(cfg, instances)
        train_cfg = _train_config(cfg, featurizer)
        result = model.train(features, annotations, train_cfg, gold=gold)

        model.save_model(out / "model.json", result.state, label_set, train_cfg)
        data.write_table(out / "trace.csv", [f.name for f in fields(model.TraceRow)],
                         (["" if value is None else repr(value) for value in astuple(row)]
                          for row in result.trace))
        # predictions.csv shares the gold file schema (instance_id,label)
        pred = result.posterior.label_posterior.argmax(axis=1)
        data.write_gold(out / "predictions.csv", pred, label_set, annotations.instance_ids)
        data.write_scores(out / "reliability.csv", annotations,
                          result.posterior.reliability_posterior)
        _write_manifest(out, "train", cfg,
                        ["model.json", "trace.csv", "predictions.csv", "reliability.csv"])
        click.echo(f"trained {train_cfg.mode} for {len(result.trace)} outer iterations "
                   f"(stopped: {result.stopped}); artifacts in {out}")
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


@main.command("eval")
@click.option("-c", "--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("-o", "--out-dir", default=None)
@click.option("--metrics", default=None, help="comma list from: f1, iaa, baselines")
@click.option("--report-reliability", "report_k", default=None, type=int,
              help="emit top/bottom-k reliability tables")
@click.option("--denoise", default=None, help=" | ".join(model.PRETRAIN_SOURCES + ("off",)))
def cmd_eval(config_path, out_dir, metrics, report_k, denoise):
    """Score predictions and reliability artifacts from a train run."""
    try:
        cfg = _merge(config_path, {"metrics": metrics, "report_reliability": report_k,
                                   "denoise": denoise})
        out = _resolve_out_dir(cfg, out_dir)
        instances, annotations, gold, label_set = _load_dataset(cfg, out)
        pred = data.load_gold(out / "predictions.csv", label_set,
                              instance_ids=annotations.instance_ids).to_array(len(instances))
        if np.any(pred < 0):
            raise DataError("predictions.csv does not cover every instance")
        scores = data.load_scores(out / "reliability.csv", annotations)

        rows: list[tuple[str, str]] = []
        wanted = [m.strip() for m in _get(cfg, "metrics", "f1,iaa").split(",") if m.strip()]
        for metric in wanted:
            if metric == "f1":
                s = evaluate.f1(pred, gold)
                rows += [("f1_micro", repr(s.micro)), ("f1_macro", repr(s.macro))]
            elif metric == "iaa":
                counts = annotations.counts_per_instance()
                if counts.min() >= 2 and counts.min() == counts.max():
                    rows.append(("fleiss_kappa", repr(evaluate.fleiss_kappa(annotations))))
                else:
                    rows.append(("krippendorff_alpha",
                                 repr(evaluate.krippendorff_alpha(annotations))))
            elif metric == "baselines":
                mv = evaluate.f1(baselines.majority_vote(annotations), gold)
                ds = evaluate.f1(baselines.dawid_skene(annotations).hard_labels, gold)
                rows += [("mv_f1_micro", repr(mv.micro)), ("ds_f1_micro", repr(ds.micro))]
            else:
                raise DataError(f"unknown metric {metric!r}")

        files = ["metrics.csv"]
        k = _get(cfg, "report_reliability", 0, int)
        if k < 0:
            raise DataError(f"report_reliability must be >= 0 (0 is off), got {k}")
        if k > 0:
            if not np.any(gold >= 0):
                raise DataError("reliability report needs gold labels")
            report = evaluate.reliability_report(scores, annotations, gold, k)
            (out / "reliability_report.txt").write_text(
                evaluate.report_to_text(report, label_set.labels), encoding="utf-8")
            data.write_table(out / "reliability_report.csv", evaluate.REPORT_CSV_HEADER,
                             evaluate.report_to_rows(report, label_set.labels))
            files += ["reliability_report.txt", "reliability_report.csv"]
        denoise_with = _get(cfg, "denoise", "off")
        if denoise_with != "off":
            res = evaluate.denoise_experiment(
                annotations, scores, lambda ann: model.pretrain_labels(ann, denoise_with), gold)
            rows += [(f"denoise_{denoise_with}_before", repr(res.f1_before.micro)),
                     (f"denoise_{denoise_with}_after", repr(res.f1_after.micro)),
                     (f"denoise_{denoise_with}_delta", repr(res.delta_micro))]

        data.write_table(out / "metrics.csv", ["metric", "value"], rows)
        _write_manifest(out, "eval", cfg, files)
        for name, value in rows:
            click.echo(f"{name} = {value}")
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


if __name__ == "__main__":
    main()
