"""Command-line pipelines: simulate -> train -> eval.

A run is driven by a declarative key=value config file; command-line
flags override file values, and ``SETTINGS`` converts both and checks each
value that has a rule. Every command writes a manifest carrying the hash
of the effective config. Bad input, whether a file row, a config or flag
value or an argument a library function rejects, raises ``DataError``
where it is checked. Exit codes: 0 success; 1 for a DataError or an input
path that is missing or a directory; 2 for anything else, such as a
FloatingPointError in training.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import astuple, fields
from pathlib import Path
from typing import NamedTuple, get_type_hints

import click
import numpy as np

from . import baselines, data, evaluate, featurize, model, simulate
from .data import DataError, Rule, one_of

# (classifier_hidden, estimator_hidden) defaults per featurizer
HIDDEN_DEFAULTS = {"none": (5, 5), "tfidf": (100, 100), "avg-embed": (50, 25),
                   "concat-avg-embed": (100, 50)}
METRICS = ("f1", "iaa", "baselines")

REQUIRED = object()  # the default of a key that a command must be given


class Setting(NamedTuple):
    """A config key's type and default, and the rule its value must pass, if any."""

    type: type
    default: object
    rule: Rule | None = None


def _metric_names(text: str) -> list[str]:
    return [m.strip() for m in text.split(",") if m.strip()]


# config key -> Setting, the one place a key is typed, defaulted and checked; a key
# outside it is a misspelling. A training key is a TrainConfig field's name and takes
# its type, default and rule (the hidden widths default by featurizer); other rules
# are their owners'. noise None leaves each dataset kind its own noise.
SETTINGS = {f.name: Setting(get_type_hints(model.TrainConfig)[f.name], f.default,
                            model.TRAIN_RULES[f.name])
            for f in fields(model.TrainConfig)} | {
    "out_dir": Setting(str, "crowdrel_out"),
    "dataset": Setting(str, "moon", one_of([*simulate.DATASET_KINDS, "files"])),
    "n": Setting(int, 1000), "noise": Setting(float, None, simulate.NOISE),
    "panel": Setting(str, REQUIRED), "keep_prob": Setting(float, 1.0, simulate.KEEP_PROB),
    "labels": Setting(str, REQUIRED), "instances": Setting(str, REQUIRED),
    "instances_format": Setting(str, "dense-csv", data.INSTANCE_FORMAT),
    "annotations": Setting(str, REQUIRED), "gold": Setting(str, None),
    "featurizer": Setting(str, "none", one_of(HIDDEN_DEFAULTS)),
    "embeddings": Setting(str, REQUIRED),
    "metrics": Setting(str, "f1,iaa", (f"a comma list from {METRICS}",
                                       lambda text: set(_metric_names(text)) <= set(METRICS))),
    "report_reliability": Setting(int, 0, evaluate.REPORT_K),
    "denoise": Setting(str, "off", one_of(model.PRETRAIN_SOURCES + ("off",))),
}

Config = dict[str, tuple[str, object]]  # key -> (text as given, value of the key's type)


def _setting(key: str, text: str, where: str) -> tuple[str, object]:
    """``text`` and its value, of ``key``'s type and rule; else a DataError led by ``where``."""
    cast, _, rule = SETTINGS[key]
    try:
        value = cast(text)
        return text, data.check(key, value, rule) if rule else value
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None
    except ValueError:
        raise DataError(f"{where}: cannot parse {text!r} as {cast.__name__}") from None


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


def config_hash(cfg: Config) -> str:
    """Hash of every value's text but ``out_dir``'s: where a run writes does not change
    what it writes."""
    canonical = "\n".join(f"{k}={cfg[k][0]}" for k in sorted(cfg) if k != "out_dir")
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _get(cfg: Config, key: str):
    if key in cfg:
        return cfg[key][1]
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


def _features(cfg: Config, instances: list[data.Instance]) -> tuple[np.ndarray, str]:
    kind = _get(cfg, "featurizer")
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


def _train_config(cfg: Config, featurizer: str) -> model.TrainConfig:
    settings = dict(zip(("classifier_hidden", "estimator_hidden"), HIDDEN_DEFAULTS[featurizer]))
    settings.update((key, cfg[key][1]) for key in model.TRAIN_RULES if key in cfg)
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
            metavar = {str: "TEXT", int: "INTEGER", float: "FLOAT"}[SETTINGS[key].type]
            callback = click.option(*short, flag, key, metavar=metavar,
                                    help=helps.get(key))(callback)
        callback = click.option("-c", "--config", "config_path",
                                type=click.Path(exists=True))(callback)
        return main.command(name, help=run.__doc__)(callback)
    return register


@_command("simulate", "dataset", "n", "noise", "panel", "keep_prob", "seed",
          dataset=" | ".join(simulate.DATASET_KINDS),
          panel='"default", "graded" or e.g. "narrow:0,broad,random"')
def cmd_simulate(cfg: Config) -> None:
    """Generate a 2-D dataset with simulated noisy annotators."""
    seed = _get(cfg, "seed")
    instances, gold = simulate.gen_2d(_get(cfg, "dataset"), _get(cfg, "n"),
                                      _get(cfg, "noise"), seed)
    label_set = _label_set(cfg)
    profiles = _parse_panel(_get(cfg, "panel"), len(label_set))
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


@_command("eval", "metrics", "report_reliability", "denoise",
          metrics="comma list from: " + ", ".join(METRICS),
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

    rows: list[tuple[str, str]] = []
    for metric in _metric_names(_get(cfg, "metrics")):
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
        else:  # "baselines", the last of METRICS
            mv = evaluate.f1(baselines.majority_vote(annotations), gold)
            ds = evaluate.f1(baselines.dawid_skene(annotations).hard_labels, gold)
            rows += [("mv_f1_micro", repr(mv.micro)), ("ds_f1_micro", repr(ds.micro))]

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
