"""Benchmark of the crowdrel pipeline: simulate -> train -> eval.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0

Run from anywhere; the program under test is the ``src/`` tree next to
this directory. Every step is a fresh ``crowdrel`` child process (see
``child.py``) with the BLAS thread count pinned in its environment. A
run sets the inputs up ``SETUP_REPS`` times, checks them with
``crowdrel.data.validate``, then repeats ``crowdrel train`` and
``crowdrel eval`` on them until ``--seconds`` are used (at least
``MIN_ITERS`` times) and checks every output. With ``--trace 1`` every
other repetition is traced and the per-layer metrics come from the
spans. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# Set before numpy is imported here, and inherited by every child process.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "out"

SETUP_REPS = 5
MIN_ITERS = 2
CHILD_TIMEOUT_S = 150.0
EVAL_ARGS = ["--metrics", "f1,iaa,baselines", "--denoise", "mv", "--report-reliability", "100"]
ARTIFACTS = ("model.json", "trace.csv", "predictions.csv", "reliability.csv")

LAYERS = ("cli", "model", "neural", "baselines", "data", "featurize", "evaluate", "simulate",
          "bench")


def _graded(n_annotators: int, low: float, high: float) -> str:
    step = (high - low) / (n_annotators - 1)
    return ",".join(f"graded:{low + j * step:.6f}" for j in range(n_annotators))


def _workloads(smoke: bool) -> dict[str, dict[str, dict[str, str]]]:
    """Workload name -> dataset name -> crowdrel config (without seed and paths)."""
    def two_d(kind: str, n: int, **extra: str) -> dict[str, str]:
        return {"dataset": kind, "n": str(n), "panel": "default", "mode": "ce-jt",
                "pretrain": "ds", **extra}

    n_paper, n_wide, m_wide, n_text = (60, 60, 40, 30) if smoke else (1000, 1000, 200, 500)
    return {
        "paper": {kind: two_d(kind, n_paper) for kind in ("moon", "circle", "three-class")},
        "wide": {"moon": two_d("moon", n_wide, panel=_graded(m_wide, 0.05, 0.45),
                               keep_prob="0.1" if smoke else "0.04", max_outer="5")},
        "text-em": {"text": {"dataset": "files", "n": str(n_text),
                             "instances_format": "text-jsonl", "labels": "0,1,2",
                             "featurizer": "tfidf", "mode": "em", "pretrain": "ds",
                             "max_outer": "2"}},
    }


# ---------------------------------------------------------------- children

@dataclass
class ChildRun:
    code: int
    wall_s: float
    maxrss_mb: float
    log: Path
    spans: list | None = None


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str], log: Path, spans: Path | None = None) -> ChildRun:
    """Run child.py in a fresh process and reap it with wait4 for its own peak RSS."""
    cmd = [sys.executable, str(CHILD)] + (["--spans", str(spans)] if spans else []) + args
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    loaded = None
    if spans is not None and spans.exists():
        loaded = json.loads(spans.read_text(encoding="utf-8"))
    return ChildRun(code=code, wall_s=wall, maxrss_mb=usage.ru_maxrss * 1024 / 1e6,
                    log=log, spans=loaded)


# ---------------------------------------------------------------- datasets

@dataclass
class Dataset:
    """One dataset of a workload: its config file, inputs and reference outputs."""

    name: str
    cfg: dict[str, str]
    dir: Path
    instance_ids: list[str] = field(default_factory=list)
    labels: tuple[str, ...] = ()
    pairs: dict[tuple[str, str], bool] = field(default_factory=dict)  # -> label == gold
    gold: dict[str, str] = field(default_factory=dict)
    hashes: dict[str, str] | None = None

    @property
    def cfg_path(self) -> Path:
        return self.dir / "run.cfg"

    @property
    def is_text(self) -> bool:
        return self.cfg["dataset"] == "files"

    def write_cfg(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        cfg = dict(self.cfg, out_dir=str(self.dir))
        if self.is_text:
            cfg.update(instances=str(self.dir / "instances.jsonl"),
                       annotations=str(self.dir / "annotations.csv"),
                       gold=str(self.dir / "gold.csv"))
        self.cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()),
                                 encoding="utf-8")

    def input_files(self) -> list[Path]:
        first = "instances.jsonl" if self.is_text else "instances.csv"
        return [self.dir / name for name in (first, "annotations.csv", "gold.csv")]

    def setup(self, log: Path, spans: Path | None) -> ChildRun:
        if self.is_text:
            args = ["text-fixture", str(self.dir), self.cfg["n"], self.cfg["seed"]]
        else:
            args = ["cli", "simulate", "-c", str(self.cfg_path)]
        return run_child(args, log, spans)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def validate_inputs(ds: Dataset) -> list[str]:
    """Load the generated inputs with the program's readers and run data.validate."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from crowdrel import data

    if ds.is_text:
        labels = tuple(ds.cfg["labels"].split(","))
        instances = data.load_instances(ds.dir / "instances.jsonl", "text-jsonl")
    else:
        labels = tuple(str(c) for c in range(3 if ds.cfg["dataset"] == "three-class" else 2))
        instances = data.load_instances(ds.dir / "instances.csv", "dense-csv")
    label_set = data.LabelSet(labels)
    ids = [inst.id for inst in instances]
    annotations = data.load_annotations(ds.dir / "annotations.csv", label_set, instance_ids=ids)
    gold = data.load_gold(ds.dir / "gold.csv", label_set, instance_ids=ids)
    problems = data.validate(instances, annotations, gold)
    if len(gold) != len(ids):
        problems.append(f"gold covers {len(gold)} of {len(ids)} instances")
    ds.instance_ids, ds.labels = ids, labels
    ds.gold = {ids[i]: labels[t] for i, t in gold.by_index.items()}
    ds.pairs = {(annotations.instance_ids[i], annotations.annotator_ids[j]):
                labels[lab] == ds.gold[annotations.instance_ids[i]]
                for i, j, lab in annotations.triples()}
    return problems


# ---------------------------------------------------------------- output checks

def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header is not {','.join(header)}")
    return rows[1:]


def auc(scores: list[float], positive: list[bool]) -> float:
    """Probability that a positive outscores a negative; ties count half."""
    order = sorted(range(len(scores)), key=scores.__getitem__)
    rank_sum, pos = 0.0, 0
    start = 0
    while start < len(order):
        stop = start
        while stop < len(order) and scores[order[stop]] == scores[order[start]]:
            stop += 1
        mean_rank = (start + 1 + stop) / 2.0
        for k in range(start, stop):
            if positive[order[k]]:
                rank_sum += mean_rank
                pos += 1
        start = stop
    neg = len(scores) - pos
    if pos == 0 or neg == 0:
        return math.nan
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def check_outputs(ds: Dataset) -> tuple[list[str], float, float, dict[str, str]]:
    """Check one train + eval's artifacts; return (problems, f1_micro, rel_auc, hashes)."""
    problems: list[str] = []
    preds = {}
    for inst_id, label in _rows(ds.dir / "predictions.csv", ["instance_id", "label"]):
        if inst_id in preds:
            problems.append(f"predictions.csv: {inst_id} predicted twice")
        preds[inst_id] = label
    if set(preds) != set(ds.instance_ids):
        problems.append(f"predictions.csv covers {len(set(preds) & set(ds.instance_ids))} "
                        f"of {len(ds.instance_ids)} instances")
    if any(label not in ds.labels for label in preds.values()):
        problems.append("predictions.csv: label outside the label set")
    f1_micro = sum(preds.get(i) == g for i, g in ds.gold.items()) / len(ds.gold)

    scores: dict[tuple[str, str], float] = {}
    for inst_id, ann_id, value in _rows(ds.dir / "reliability.csv",
                                        ["instance_id", "annotator_id", "score"]):
        key = (inst_id, ann_id)
        score = float(value)
        if key in scores:
            problems.append(f"reliability.csv: two scores for {key}")
        if not (math.isfinite(score) and 0.0 <= score <= 1.0):
            problems.append(f"reliability.csv: score {value} for {key} is not in [0, 1]")
        scores[key] = score
    if set(scores) != set(ds.pairs):
        problems.append(f"reliability.csv scores {len(set(scores) & set(ds.pairs))} "
                        f"of {len(ds.pairs)} annotations")
    keys = [k for k in ds.pairs if k in scores]
    rel_auc = auc([scores[k] for k in keys], [ds.pairs[k] for k in keys])
    if not math.isfinite(rel_auc):
        problems.append("rel_auc undefined: annotations are all correct or all wrong")

    reported = dict(_rows(ds.dir / "metrics.csv", ["metric", "value"]))
    if abs(float(reported.get("f1_micro", "nan")) - f1_micro) > 1e-12:
        problems.append(f"metrics.csv f1_micro {reported.get('f1_micro')} != "
                        f"recomputed {f1_micro!r}")
    hashes = {name: _sha(ds.dir / name) for name in ARTIFACTS}
    return problems, f1_micro, rel_auc, hashes


# ---------------------------------------------------------------- spans

def span_stats(span_lists: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and summed/max info values."""
    stats: dict[str, dict[str, float]] = {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, _, info) in enumerate(spans):
            entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
            for key, value in (info or {}).items():
                entry[key] = entry.get(key, 0) + value
                entry["max_" + key] = max(entry.get("max_" + key, 0), value)
    return stats


def layer_metrics(stats: dict[str, dict[str, float]], wall_s: float) -> dict[str, tuple[float, str]]:
    def get(name: str, key: str = "s") -> float:
        return stats.get(name, {}).get(key, 0)

    def total(prefix: str, key: str = "s") -> float:
        return sum(v.get(key, 0) for n, v in stats.items() if n.startswith(prefix))

    backward_s = get("neural.backward.est") + get("neural.backward.clf")
    backward_calls = get("neural.backward.est", "calls") + get("neural.backward.clf", "calls")
    gflop = (get("neural.forward", "flop") + get("neural.backward.est", "flop")
             + get("neural.backward.clf", "flop")) / 1e9
    neural_s = backward_s + get("neural.forward")
    m: dict[str, tuple[float, str]] = {
        "neural.backward.est_s": (get("neural.backward.est"), "s"),
        "neural.backward.clf_s": (get("neural.backward.clf"), "s"),
        "neural.forward_s": (get("neural.forward"), "s"),
        "neural.adam_s": (get("neural.adam"), "s"),
        "neural.forward_calls": (get("neural.forward", "calls"), "count"),
        "neural.backward_calls": (backward_calls, "count"),
        "neural.adam_steps": (get("neural.adam", "calls"), "count"),
        "neural.backward_us_per_call": (1e6 * backward_s / backward_calls if backward_calls else 0.0,
                                        "us"),
        "neural.gflop": (gflop, "GFLOP"),
        "neural.gflops": (gflop / neural_s if neural_s else 0.0, "GFLOP/s"),
        "model.pretrain_s": (get("model.pretrain"), "s"),
        "model.outer_iters": (get("model.train", "outer"), "count"),
        "model.predict_s": (get("model.predict"), "s"),
        "model.e_step_s": (get("model.e_step"), "s"),
        "model.e_step_calls": (get("model.e_step", "calls"), "count"),
        "model.posterior_s": (get("model.posterior"), "s"),
        "model.posterior_table_mb": (get("model.posterior", "max_bytes") / 1e6, "MB"),
        "model.pair_inputs_s": (get("model.pair_inputs"), "s"),
        "model.pair_input_mb": (get("model.pair_inputs", "max_bytes") / 1e6, "MB"),
        "model.reliability_scores_s": (get("model.reliability_scores"), "s"),
        "baselines.ds_s": (get("baselines.ds"), "s"),
        "baselines.ds_iters": (get("baselines.ds", "iters"), "count"),
        "baselines.mv_s": (get("baselines.mv"), "s"),
        "data.load_s": (get("data.load"), "s"),
        "data.rows_loaded": (get("data.load", "rows"), "count"),
        "data.write_s": (get("data.write"), "s"),
        "featurize.s": (total("featurize."), "s"),
        "featurize.docs": (get("featurize.transform", "docs"), "count"),
        "evaluate.iaa_s": (get("evaluate.iaa"), "s"),
        "evaluate.report_s": (get("evaluate.report"), "s"),
        "evaluate.denoise_s": (get("evaluate.denoise"), "s"),
        "simulate.s": (total("simulate."), "s"),
        "cli.train_self_s": (get("cli.train", "self_s"), "s"),
        "cli.eval_self_s": (get("cli.eval", "self_s"), "s"),
    }
    self_sum = 0.0
    for layer in LAYERS:
        layer_self = total(layer + ".", "self_s")
        self_sum += layer_self
        m[f"{layer}.self_s"] = (layer_self, "s")
    m["trace_wall_s"] = (wall_s, "s")
    m["unattributed_s"] = (wall_s - self_sum, "s")
    return m


# ---------------------------------------------------------------- the run

@dataclass
class Sample:
    traced: bool
    wall_s: float
    spans: list = field(default_factory=list)


@dataclass
class Run:
    datasets: list[Dataset]
    trace: bool
    attempted: int = 0
    failed: int = 0
    setups: list[Sample] = field(default_factory=list)
    iters: list[Sample] = field(default_factory=list)
    train_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    f1: dict[str, float] = field(default_factory=dict)
    rel_auc: dict[str, float] = field(default_factory=dict)
    input_hashes: dict[str, list[str]] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", flush=True)

    def one_setup(self, rep: int) -> None:
        traced = self.trace and rep % 2 == 1
        sample = Sample(traced, 0.0)
        for ds in self.datasets:
            self.attempted += 1
            spans = ds.dir / f"setup{rep}.spans.json" if traced else None
            child = ds.setup(ds.dir / f"setup{rep}.log", spans)
            sample.wall_s += child.wall_s
            sample.spans.append(child.spans or [])
            if child.code != 0:
                self.fail(f"{ds.name} setup exited {child.code}; see {child.log}")
                continue
            hashes = [_sha(p) for p in ds.input_files()]
            reference = self.input_hashes.setdefault(ds.name, hashes)
            if hashes != reference:
                self.fail(f"{ds.name} setup rep {rep} wrote different inputs at the same seed")
        self.setups.append(sample)

    def one_iteration(self, it: int) -> None:
        traced = self.trace and it % 2 == 1
        sample = Sample(traced, 0.0)
        train_s, rss = 0.0, 0.0
        for ds in self.datasets:
            self.attempted += 1
            spans = (ds.dir / "train.spans.json", ds.dir / "eval.spans.json") if traced else (None, None)
            train = run_child(["cli", "train", "-c", str(ds.cfg_path)], ds.dir / f"train{it}.log",
                              spans[0])
            evaluate = run_child(["cli", "eval", "-c", str(ds.cfg_path), *EVAL_ARGS],
                                 ds.dir / f"eval{it}.log", spans[1])
            train_s += train.wall_s
            rss = max(rss, train.maxrss_mb)
            sample.wall_s += train.wall_s + evaluate.wall_s
            sample.spans += [train.spans or [], evaluate.spans or []]
            if train.code != 0 or evaluate.code != 0:
                self.fail(f"{ds.name} iteration {it}: train exited {train.code}, eval exited "
                          f"{evaluate.code}; see {train.log} and {evaluate.log}")
                continue
            try:
                problems, f1, rel_auc, hashes = check_outputs(ds)
            except (OSError, ValueError) as exc:
                problems, f1, rel_auc, hashes = [str(exc)], math.nan, math.nan, {}
            if ds.hashes is None:
                ds.hashes = hashes
            elif hashes != ds.hashes:
                changed = [n for n in ARTIFACTS if hashes.get(n) != ds.hashes.get(n)]
                problems.append(f"artifacts differ from the first run at the same seed: "
                                f"{', '.join(changed)}" + (" (traced run)" if traced else ""))
            if problems:
                self.fail(f"{ds.name} iteration {it}: " + "; ".join(problems))
            self.f1.setdefault(ds.name, f1)
            self.rel_auc.setdefault(ds.name, rel_auc)
        self.iters.append(sample)
        if not traced:
            self.train_s.append(train_s)
            self.rss_mb.append(rss)


def _lower_median(samples: list[Sample]) -> Sample:
    ordered = sorted(samples, key=lambda s: s.wall_s)
    return ordered[(len(ordered) - 1) // 2]


def end_to_end(run: Run) -> dict[str, tuple[float, str, list[float]]]:
    walls = [s.wall_s for s in run.iters if not s.traced]
    setups = [s.wall_s for s in run.setups if not s.traced]
    f1s, aucs = list(run.f1.values()), list(run.rel_auc.values())
    return {
        "setup_s": (statistics.median(setups), "s", setups),
        "train_s": (statistics.median(run.train_s), "s", run.train_s),
        "wall_s": (statistics.median(walls), "s", walls),
        "peak_rss_mb": (statistics.median(run.rss_mb), "MB", run.rss_mb),
        "f1_micro": (statistics.fmean(f1s) if f1s else math.nan, "fraction", f1s),
        "rel_auc": (statistics.fmean(aucs) if aucs else math.nan, "fraction", aucs),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str, list[float]]]:
    traced_setup = _lower_median([s for s in run.setups if s.traced])
    traced_iter = _lower_median([s for s in run.iters if s.traced])
    untraced_setup = _lower_median([s for s in run.setups if not s.traced])
    untraced_iter = _lower_median([s for s in run.iters if not s.traced])
    wall = traced_setup.wall_s + traced_iter.wall_s
    stats = span_stats(traced_setup.spans + traced_iter.spans)
    out = {name: (value, unit, []) for name, (value, unit) in layer_metrics(stats, wall).items()}
    overhead = wall - untraced_setup.wall_s - untraced_iter.wall_s
    out["trace_overhead_s"] = (overhead, "s", [])
    return out


def environment(args: argparse.Namespace) -> dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas_version, "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(_workloads(False)))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    # a terminated run raises SystemExit, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "crowdrel" / "cli.py").is_file():
        print(f"error: no crowdrel sources under {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    datasets = []
    for name, cfg in _workloads(args.size == "smoke")[args.workload].items():
        ds = Dataset(name=name, cfg=dict(cfg, seed=str(args.seed)), dir=work / name)
        ds.write_cfg()
        datasets.append(ds)
    run = Run(datasets=datasets, trace=bool(args.trace))
    env = environment(args)
    print("environment: " + json.dumps(env), flush=True)

    started = time.perf_counter()
    for rep in range(SETUP_REPS + (1 if args.trace else 0)):
        run.one_setup(rep)
    for ds in datasets:
        problems = validate_inputs(ds) if ds.name in run.input_hashes else ["no inputs"]
        if problems:
            run.fail(f"{ds.name} inputs fail data.validate: " + "; ".join(problems[:5]))
    if run.failed:
        print(json.dumps({"correct": False, "attempted": run.attempted, "failed": run.failed,
                          "metrics": {}}))
        return 1
    it = 0
    while True:
        run.one_iteration(it)
        it += 1
        elapsed = time.perf_counter() - started
        if it >= MIN_ITERS and elapsed + run.iters[-1].wall_s > args.seconds:
            break

    metrics = per_layer(run) if args.trace else end_to_end(run)
    fail_rate = run.failed / run.attempted
    print(f"attempted {run.attempted}  failed {run.failed}  fail_rate {fail_rate:.4f}  "
          f"pipeline runs {len(run.iters)}  measured {time.perf_counter() - started:.1f} s")
    for name, (value, unit, values) in metrics.items():
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            spread = f"  n={len(values)} q1={q1:.6g} q3={q3:.6g}"
        else:
            spread = ""
        print(f"{name:32s} {value:14.6g} {unit}{spread}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, environment=env, fail_rate=fail_rate,
                  samples={name: values for name, (_, _, values) in metrics.items()})
    (OUT / f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
