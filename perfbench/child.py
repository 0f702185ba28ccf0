"""One benchmark child process: run a crowdrel command, optionally traced.

    python3 perfbench/child.py [--spans PATH] cli <crowdrel arguments...>
    python3 perfbench/child.py [--spans PATH] text-fixture OUT_DIR N SEED

The parent pins the BLAS thread count in this process's environment, so
it is in place before numpy is first imported. ``cli`` runs the
``crowdrel`` command line exactly as a user would. ``text-fixture``
generates the text workload's input files (there is no CLI command for
that). With ``--spans`` the public functions of each crowdrel module are
wrapped, as the calling module sees them, and every call becomes a span
(name, start, end, parent, info); the spans stay in memory and are
written to PATH as JSON when the command ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, info]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name, info=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per call.

        ``name`` is a string or a function of the call's arguments;
        ``info`` maps (args, result) to a small JSON-ready dict and runs
        after the span has ended.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def _layer_flop(params, rows: int) -> int:
    """Multiply-add flop of one forward pass: 2 * rows * sum(fan_in * fan_out)."""
    return 2 * rows * sum(w.shape[0] * w.shape[1] for w in params.weights)


def _backward_flop(params, rows: int) -> int:
    """Forward pass, weight gradients of every layer, input gradients of all but the first."""
    dims = [(w.shape[0], w.shape[1]) for w in params.weights]
    return 2 * rows * (2 * sum(a * b for a, b in dims) + sum(a * b for a, b in dims[1:]))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the module where they are called."""
    from crowdrel import baselines, cli, data, evaluate, featurize, model, simulate

    # neural, as model calls it
    tracer.wrap(model, "forward", "neural.forward",
                lambda a, r: {"flop": _layer_flop(a[0], len(a[1]))})
    tracer.wrap(model, "backward",
                lambda a: "neural.backward.est" if a[0].head == "sigmoid" else "neural.backward.clf",
                lambda a, r: {"flop": _backward_flop(a[0], len(a[1]))})
    tracer.wrap(model, "adam_step", "neural.adam")
    # baselines, as model, cli and the eval aggregator call them
    for owner in (model, baselines):
        tracer.wrap(owner, "dawid_skene", "baselines.ds", lambda a, r: {"iters": r.n_iterations})
        tracer.wrap(owner, "majority_vote", "baselines.mv")
    # model, as cli and model itself call it
    tracer.wrap(model, "train", "model.train", lambda a, r: {"outer": len(r.trace)})
    tracer.wrap(model, "pretrain", "model.pretrain")
    tracer.wrap(model, "e_step", "model.e_step")
    tracer.wrap(model, "posterior_from_priors", "model.posterior",
                lambda a, r: {"bytes": a[2].n_pairs * a[0].shape[1] * 2 * 8})
    tracer.wrap(model, "estimator_pair_inputs", "model.pair_inputs",
                lambda a, r: {"bytes": a[1].n_pairs * (a[0].shape[1] + a[1].n_annotators) * 8})
    tracer.wrap(model, "predict_labels", "model.predict")
    tracer.wrap(model, "reliability_scores", "model.reliability_scores")
    # data, featurize, evaluate and simulate, as cli calls them
    for attr in ("load_instances", "load_gold"):
        tracer.wrap(data, attr, "data.load", lambda a, r: {"rows": len(r)})
    tracer.wrap(data, "load_annotations", "data.load", lambda a, r: {"rows": r.n_pairs})
    for attr in ("write_instances", "write_instances_jsonl", "write_gold", "write_annotations"):
        tracer.wrap(data, attr, "data.write")
    tracer.wrap(data, "validate", "data.validate")
    tracer.wrap(data, "feature_matrix", "data.feature_matrix")
    tracer.wrap(featurize, "fit_tfidf", "featurize.fit")
    tracer.wrap(featurize, "transform_tfidf", "featurize.transform", lambda a, r: {"docs": 1})
    tracer.wrap(evaluate, "f1", "evaluate.f1")
    for attr in ("fleiss_kappa", "krippendorff_alpha"):
        tracer.wrap(evaluate, attr, "evaluate.iaa")
    for attr in ("reliability_report", "report_to_text"):
        tracer.wrap(evaluate, attr, "evaluate.report")
    tracer.wrap(evaluate, "denoise_experiment", "evaluate.denoise")
    for attr in ("gen_2d", "gen_text_fixture", "simulate_annotations", "default_panel",
                 "graded_panel"):
        tracer.wrap(simulate, attr, "simulate." + attr)
    # one root span per command
    for command in ("simulate", "train", "eval"):
        tracer.wrap(cli.main.commands[command], "callback", "cli." + command)


def text_fixture(out_dir: str, n: str, seed: str) -> None:
    """Write the text workload's inputs: jsonl documents, annotations and gold."""
    from crowdrel import data, simulate

    out, n_docs, seed_v = Path(out_dir), int(n), int(seed)
    out.mkdir(parents=True, exist_ok=True)
    instances, gold = simulate.gen_text_fixture(n_docs, 3, seed_v)
    annotations = simulate.simulate_annotations(
        gold, 3, simulate.default_panel(3), seed_v, instance_ids=[i.id for i in instances])
    label_set = data.LabelSet(("0", "1", "2"))
    data.write_instances_jsonl(out / "instances.jsonl", instances)
    data.write_annotations(out / "annotations.csv", annotations, label_set)
    data.write_gold(out / "gold.csv", gold, label_set, [i.id for i in instances])


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = Path(argv[1]), argv[2:]
    tracer = Tracer()
    if spans_path is not None:
        install(tracer)
    command, args = argv[0], argv[1:]
    code = 0
    try:
        if command == "cli":
            from crowdrel import cli
            try:
                cli.main.main(args, prog_name="crowdrel")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        elif command == "text-fixture":
            if spans_path is not None:
                tracer.wrap(sys.modules[__name__], "text_fixture", "bench.text_fixture")
            text_fixture(*args)
        else:
            print(f"unknown child command {command!r}", file=sys.stderr)
            code = 2
    finally:
        if spans_path is not None:
            tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
