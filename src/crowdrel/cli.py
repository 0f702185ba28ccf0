"""Command-line pipelines: simulate -> train -> eval.

A run is driven by a declarative key=value config file; command-line
flags override file values, and ``data.parse`` reads both by the key's
rule in ``SETTINGS``, each written by the module that takes the value.
The modules do the work (``featurize.features`` builds the features and
``evaluate.metric_rows`` the metrics); this one reads config and files and
writes artifacts. Every command writes a manifest carrying the hash of the
effective config. Bad input, whether a file row, a config or flag
value or an argument a library function rejects, raises ``DataError``
where it is checked. Exit codes: 0 success; 1 for a DataError or an input
path that is missing or a directory; 2 for anything else, such as a
FloatingPointError in training.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import NamedTuple

import click
import numpy as np

from . import data, evaluate, featurize, model, simulate
from .data import DataError, Rule, one_of

REQUIRED = object()  # the default of a key that a command must be given


class Setting(NamedTuple):
    """A config key's default and the rule its value must pass; the rule's type is the key's."""

    default: object
    rule: Rule


# config key -> Setting, the one place a key is typed, defaulted and checked; a key outside
# it is a misspelling. A training key is a TrainConfig field's name and takes its default
# and rule (the hidden widths default by featurizer, from featurize.HIDDEN_DEFAULTS); other
# rules are their owners', and a free-text key's is data.TEXT. noise None leaves each
# dataset kind its own noise; embeddings None is an error only to an embedding featurizer.
SETTINGS = {f.name: Setting(f.default, model.TRAIN_RULES[f.name])
            for f in fields(model.TrainConfig)} | {
    "out_dir": Setting("crowdrel_out", data.TEXT),
    "dataset": Setting("moon", one_of([*simulate.DATASET_KINDS, "files"])),
    "n": Setting(1000, data.AT_LEAST_1), "noise": Setting(None, simulate.NOISE),
    "panel": Setting(REQUIRED, data.TEXT), "keep_prob": Setting(1.0, data.PROBABILITY),
    "labels": Setting(REQUIRED, data.TEXT), "instances": Setting(REQUIRED, data.TEXT),
    "instances_format": Setting("dense-csv", data.INSTANCE_FORMAT),
    "annotations": Setting(REQUIRED, data.TEXT), "gold": Setting(None, data.TEXT),
    "featurizer": Setting("none", featurize.FEATURIZER), "embeddings": Setting(None, data.TEXT),
    "metrics": Setting("f1,iaa", evaluate.METRIC_LIST),
    "report_reliability": Setting(0, evaluate.REPORT_K),
    "denoise": Setting("off", one_of(model.PRETRAIN_SOURCES + ("off",))),
}

Config = dict[str, object]  # key -> value, of the key's type


def _setting(key: str, text: str, where: str) -> object:
    """``text``'s value under ``key``'s rule; else a DataError led by ``where``."""
    try:
        return data.parse(key, text, SETTINGS[key].rule)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def parse_config(path: str | Path) -> Config:
    cfg: Config = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in SETTINGS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in cfg:
            raise DataError(f"{path}:{lineno}: config key {key!r} is already set "
                            f"on line {first_line[key]}")
        cfg[key] = _setting(key, value, f"{path}:{lineno}: config key {key!r}")
        first_line[key] = lineno
    return cfg


INPUT_FILES = ("instances", "annotations", "gold", "embeddings")  # hashed by their contents


def _file_sha256(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def config_hash(cfg: Config) -> str:
    """Hash of the effective config: every key's value as the commands see it, given or
    default, but ``out_dir``'s, since where a run writes does not change what it writes.
    An input file key that names a file counts by the file's contents, not its path."""
    values = {key: None if default is REQUIRED else default
              for key, (default, _) in SETTINGS.items()}
    values.update(cfg)
    values.update(asdict(_train_config(cfg)))  # the hidden widths' defaults by featurizer
    del values["out_dir"]
    for key in INPUT_FILES:
        if values[key] is not None and Path(values[key]).is_file():
            values[key] = _file_sha256(values[key])
    canonical = json.dumps(values, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _get(cfg: Config, key: str):
    if key in cfg:
        return cfg[key]
    default = SETTINGS[key].default
    if default is REQUIRED:
        raise DataError(f"missing config key {key!r}")
    return default


def _resolve_out_dir(cfg: Config) -> Path:
    """The out_dir key's directory, made if need be."""
    path = Path(_get(cfg, "out_dir"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out_dir: Path, command: str, cfg: Config, files: list[str]) -> None:
    payload = {"command": command, "config_hash": config_hash(cfg),
               "seed": str(_get(cfg, "seed")), "files": sorted(files)}
    with data.whole_file(out_dir / f"manifest_{command}.json") as fh:
        json.dump(payload, fh, indent=2)


def _validate(instances: list[data.Instance], annotations: data.AnnotationSet,
              gold: data.GoldLabels | None = None) -> None:
    problems = data.validate(instances, annotations, gold)
    if problems:
        raise DataError("; ".join(problems))


def _label_set(cfg: Config) -> data.LabelSet:
    kind = _get(cfg, "dataset")
    if kind in simulate.DATASET_KINDS:
        k, _ = simulate.DATASET_KINDS[kind]
        return data.LabelSet(tuple(str(c) for c in range(k)))
    return data.LabelSet(tuple(s.strip() for s in _get(cfg, "labels").split(",")))


def _load_dataset(cfg: Config, out_dir: Path):
    """Return (instances, annotations, gold, label_set) from files or a prior simulate run.

    ``gold`` is the gold label index of each instance, -1 where it has none
    (everywhere when no gold file is named).
    """
    label_set = _label_set(cfg)
    if _get(cfg, "dataset") in simulate.DATASET_KINDS:
        instances = data.load_instances(out_dir / "instances.csv", "dense-csv")
        ann_path, gold_path = out_dir / "annotations.csv", out_dir / "gold.csv"
    else:
        instances = data.load_instances(_get(cfg, "instances"),
                                        _get(cfg, "instances_format"))
        ann_path, gold_path = _get(cfg, "annotations"), _get(cfg, "gold")
    ids = [inst.id for inst in instances]
    annotations = data.load_annotations(ann_path, label_set, instance_ids=ids)
    loaded = data.load_gold(gold_path, label_set, instance_ids=ids) if gold_path else None
    _validate(instances, annotations, loaded)
    n = len(instances)
    gold = np.full(n, -1, dtype=np.int64) if loaded is None else loaded.to_array(n)
    return instances, annotations, gold, label_set


def _train_config(cfg: Config) -> model.TrainConfig:
    hidden = featurize.HIDDEN_DEFAULTS.get(_get(cfg, "featurizer"), ())
    settings = dict(zip(("classifier_hidden", "estimator_hidden"), hidden))
    settings.update((key, cfg[key]) for key in model.TRAIN_RULES if key in cfg)
    return model.TrainConfig(**settings)


@click.group()
def main() -> None:
    """Infer true labels and per-instance annotator reliability from noisy annotations."""


def _command(name: str, *keys: str, **helps: str):
    """Register ``run(cfg)`` as command ``name``. ``cfg`` is the -c/--config file's, under a
    flag for out_dir (also -o) and each config key in ``keys``, named ``--`` and the key with
    ``-`` for ``_``. What ``run`` raises exits 1 when it is bad input, else 2."""
    flags = {key: "--" + key.replace("_", "-") for key in ("out_dir",) + keys}

    def register(run):
        def callback(config_path, **given):
            try:
                cfg = parse_config(config_path) if config_path else {}
                cfg.update((key, _setting(key, text, f"flag {flags[key]}"))
                           for key, text in given.items() if text is not None)
                run(cfg)
            except Exception as exc:  # noqa: BLE001 - single funnel to exit codes
                click.echo(f"error: {exc}", err=True)
                sys.exit(1 if isinstance(exc, (DataError, FileNotFoundError, IsADirectoryError))
                         else 2)

        for key, flag in reversed(flags.items()):
            short = ["-o"] if key == "out_dir" else []
            metavar = {str: "TEXT", int: "INTEGER", float: "FLOAT"}[SETTINGS[key].rule.type]
            callback = click.option(*short, flag, key, metavar=metavar,
                                    help=helps.get(key))(callback)
        callback = click.option("-c", "--config", "config_path",
                                type=click.Path(exists=True))(callback)
        return main.command(name, help=run.__doc__)(callback)
    return register


@_command("simulate", "dataset", "n", "noise", "panel", "keep_prob", "seed",
          dataset=" | ".join(simulate.DATASET_KINDS),
          panel=simulate.PANEL_HELP)
def cmd_simulate(cfg: Config) -> None:
    """Generate a 2-D dataset with simulated noisy annotators."""
    seed = _get(cfg, "seed")
    instances, gold = simulate.gen_2d(_get(cfg, "dataset"), _get(cfg, "n"),
                                      _get(cfg, "noise"), seed)
    label_set = _label_set(cfg)
    profiles = simulate.parse_panel(_get(cfg, "panel"), len(label_set))
    annotations = simulate.simulate_annotations(
        gold, len(label_set), profiles, seed, instance_ids=[inst.id for inst in instances],
        keep_prob=_get(cfg, "keep_prob"))
    _validate(instances, annotations)
    out = _resolve_out_dir(cfg)
    data.write_instances(out / "instances.csv", instances)
    data.write_gold(out / "gold.csv", gold, label_set, [i.id for i in instances])
    data.write_annotations(out / "annotations.csv", annotations, label_set)
    _write_manifest(out, "simulate", cfg, ["instances.csv", "gold.csv", "annotations.csv"])
    click.echo(f"wrote {len(instances)} instances, {annotations.n_pairs} annotations to {out}")


@_command("train", "mode", "pretrain", "max_outer", "seed",
          mode=" | ".join(model.MODES) + ": picks the normalizers of the joint refit",
          pretrain=" | ".join(model.PRETRAIN_SOURCES),
          max_outer=f"cap on outer iterations (default {SETTINGS['max_outer'].default}); "
                    "0 keeps the pretrained networks")
def cmd_train(cfg: Config) -> None:
    """Pre-train and fit the reliability model; write checkpoint, trace and predictions."""
    out = _resolve_out_dir(cfg)
    instances, annotations, gold, label_set = _load_dataset(cfg, out)
    features = featurize.features(_get(cfg, "featurizer"), instances, _get(cfg, "embeddings"))
    train_cfg = _train_config(cfg)
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


@_command("eval", "metrics", "report_reliability", "denoise",
          metrics="comma list from: " + ", ".join(evaluate.METRICS),
          report_reliability="emit top/bottom-k reliability tables (0, the default, is off)",
          denoise=" | ".join(model.PRETRAIN_SOURCES + ("off",)))
def cmd_eval(cfg: Config) -> None:
    """Score predictions and reliability artifacts from a train run."""
    out = _resolve_out_dir(cfg)
    instances, annotations, gold, label_set = _load_dataset(cfg, out)
    pred = data.load_gold(out / "predictions.csv", label_set,
                          instance_ids=annotations.instance_ids).to_array(len(instances))
    if np.any(pred < 0):
        raise DataError("predictions.csv does not cover every instance")
    scores = data.load_scores(out / "reliability.csv", annotations)

    rows = [row for metric in evaluate.metric_names(_get(cfg, "metrics"))
            for row in evaluate.metric_rows(metric, pred, gold, annotations)]

    files = ["metrics.csv"]
    k = _get(cfg, "report_reliability")
    if k > 0:
        if not np.any(gold >= 0):
            raise DataError("reliability report needs gold labels")
        report = evaluate.reliability_report(scores, annotations, gold, k)
        with data.whole_file(out / "reliability_report.txt") as fh:
            fh.write(evaluate.report_to_text(report, label_set.labels))
        data.write_table(out / "reliability_report.csv", evaluate.REPORT_CSV_HEADER,
                         evaluate.report_to_rows(report, label_set.labels))
        files += ["reliability_report.txt", "reliability_report.csv"]
    denoise_with = _get(cfg, "denoise")
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


if __name__ == "__main__":
    main()
