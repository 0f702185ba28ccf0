"""Joint inference of true labels and per-instance annotator reliability.

A classifier network provides a prior over each instance's label and a
reliability-estimator network provides, per (instance, annotator) pair,
the prior probability that the annotation is correct. A reliable
annotator emits the true label; an unreliable one emits a label drawn
uniformly over all categories. Exact per-pair posteriors over
(label, reliable) follow in closed form: given the label, an
annotation's reliability depends on no other annotation, so each
reliability posterior is the label posterior at the annotated label
times one factor of its own pair. The networks are refit
against those posteriors either by generalized EM (gradient steps on the
expected complete log likelihood) or by minimizing soft-target cross
entropies, alternating or jointly.

Every network update (pretraining, ``ce-alt``, the joint step of EM and
``ce-jt``) is one ``_fit`` loop of full-batch Adam steps under one optimizer
state. ``perfbench/child.py`` traces ``forward``, ``backward``, ``adam_step``
and ``estimator_pair_inputs`` by their names in this module, and
``predict_labels`` and ``reliability_scores`` are kept only for it.

The label posterior is accumulated in log space with priors floored at
1e-12, so large annotator counts cannot underflow.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .baselines import dawid_skene, majority_vote
from .data import AnnotationSet, LabelSet
from .evaluate import f1
from .neural import (
    PROB_FLOOR,
    AdamState,
    FnnParams,
    PairInput,
    adam_step,
    backward,
    fnn_from_dict,
    fnn_to_dict,
    forward,
    init_fnn,
    soft_ce_loss,
)

MODES = ("em", "ce-alt", "ce-jt")
PRETRAIN_SOURCES = ("mv", "ds")
ESTIMATOR_INPUTS = ("hidden", "feature")


@dataclass
class TrainConfig:
    """Training schedule and optimizer settings.

    ``max_outer`` defaults to 500 for EM and 20 for the cross-entropy
    modes when left as None. The inner loop always runs ``inner_iters``
    full-batch optimizer steps per outer iteration.
    """

    mode: str = "ce-jt"
    inner_iters: int = 50
    max_outer: int | None = None
    early_stop_tol: float = 1e-3
    pretrain_source: str = "ds"
    pretrain_epochs: int = 200
    classifier_hidden: int = 5
    estimator_hidden: int = 5
    estimator_input: str = "hidden"
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.001
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.pretrain_source not in PRETRAIN_SOURCES:
            raise ValueError(f"pretrain_source must be one of {PRETRAIN_SOURCES}")
        if self.estimator_input not in ESTIMATOR_INPUTS:
            raise ValueError(f"estimator_input must be one of {ESTIMATOR_INPUTS}")
        for name, ok, rule in (
                ("inner_iters", self.inner_iters >= 1, ">= 1"),
                ("max_outer", self.max_outer is None or self.max_outer >= 0, ">= 0"),
                ("pretrain_epochs", self.pretrain_epochs >= 0, ">= 0"),
                ("classifier_hidden", self.classifier_hidden >= 1, ">= 1"),
                ("estimator_hidden", self.estimator_hidden >= 1, ">= 1"),
                ("seed", self.seed >= 0, ">= 0"),
                ("early_stop_tol", self.early_stop_tol > 0, "positive"),
                ("learning_rate", 0 < self.learning_rate < np.inf, "finite and positive"),
                ("weight_decay", 0 <= self.weight_decay < np.inf, "finite and >= 0 (0 is off)"),
                ("clip_norm", 0 <= self.clip_norm < np.inf, "finite and >= 0 (0 is off)"),
                ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                ("beta2", 0 <= self.beta2 < 1, "in [0, 1)")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    def resolved_max_outer(self) -> int:
        if self.max_outer is not None:
            return self.max_outer
        return 500 if self.mode == "em" else 20


@dataclass
class ModelState:
    """Trained (or pre-trained) networks plus the wiring they assume."""

    classifier: FnnParams
    estimator: FnnParams
    n_labels: int
    n_annotators: int
    estimator_input: str
    outer_iteration: int = 0


@dataclass
class JointPosterior:
    """The two marginals of the exact per-pair posterior over (label, reliable).

    ``label_posterior`` is the (N, K) posterior over each instance's label
    and ``reliability_posterior`` the (n_pairs,) posterior that each
    annotation was produced reliably, which is the label posterior at the
    annotated label times the pair's own factor (see
    ``posterior_from_priors``). Together they fix the full joint: the
    reliable mass sits on the annotated label.
    """

    label_posterior: np.ndarray
    reliability_posterior: np.ndarray


def posterior_from_priors(label_prior: np.ndarray, reliability_prior: np.ndarray,
                          annotations: AnnotationSet) -> JointPosterior:
    """Exact label and reliability posteriors given label priors (N, K) and pair priors (P,).

    For pair p on instance i with annotation a_p, reliability prior p1 and
    p0 = 1 - p1, collapsing the reliability gives the emission
    gamma_p(t) = p0/K + p1 [t = a_p]. Then
        post[i, t] = softmax_t(log p(t|x_i) + sum_{p in i} log gamma_p(t))
        rel_p      = post[i, a_p] p1 / gamma_p(a_p).
    The terms log(p0/K) hold for every t and cancel in the softmax, so only
    the annotated labels' excess log(gamma_p(a_p)) - log(p0/K) is summed.
    """
    n, k = label_prior.shape
    ii, ll = annotations.instance_idx, annotations.label_idx

    p1 = np.asarray(reliability_prior, dtype=np.float64)
    if not (np.all(np.isfinite(label_prior)) and np.all(np.isfinite(p1))):
        raise FloatingPointError("posterior priors are not finite (NaN or infinite)")
    log_p1 = np.log(np.maximum(p1, PROB_FLOOR))
    log_r0 = np.log(np.maximum(1.0 - p1, PROB_FLOOR)) - np.log(k)
    log_gamma_a = np.logaddexp(log_r0, log_p1)

    scores = np.log(np.maximum(label_prior, PROB_FLOOR))
    scores += np.bincount(ii * k + ll, weights=log_gamma_a - log_r0,
                          minlength=n * k).reshape(n, k)
    scores -= scores.max(axis=1, keepdims=True)
    label_posterior = np.exp(scores)
    label_posterior /= label_posterior.sum(axis=1, keepdims=True)

    reliability_posterior = label_posterior[ii, ll] * np.exp(log_p1 - log_gamma_a)
    return JointPosterior(label_posterior=label_posterior,
                          reliability_posterior=reliability_posterior)


def estimator_pair_inputs(representation: np.ndarray, annotations: AnnotationSet) -> PairInput:
    """Each observed pair's instance representation and annotator, as the estimator sees them."""
    return PairInput(representation, annotations.instance_idx, annotations.annotator_idx,
                     annotations.n_annotators)


def _pair_input(estimator_input: str, features: np.ndarray, hidden: np.ndarray,
                annotations: AnnotationSet) -> PairInput:
    """The estimator's pair input: the raw features or the classifier's hidden output."""
    rep = np.asarray(features, dtype=np.float64) if estimator_input == "feature" else hidden
    return estimator_pair_inputs(rep, annotations)


def _priors(state: ModelState, features: np.ndarray, annotations: AnnotationSet):
    """One forward pass of each network: label prior (N, K), pair inputs, reliability prior (P,)."""
    label_prior, hidden = forward(state.classifier, features)
    pair_x = _pair_input(state.estimator_input, features, hidden, annotations)
    reliability_prior, _ = forward(state.estimator, pair_x)
    return label_prior, pair_x, reliability_prior


def e_step(state: ModelState, features: np.ndarray,
           annotations: AnnotationSet) -> JointPosterior:
    """Posteriors under the current networks (the fixed-parameter inference step)."""
    label_prior, _, reliability_prior = _priors(state, features, annotations)
    return posterior_from_priors(label_prior, reliability_prior, annotations)


def _adam_from_config(config: TrainConfig) -> AdamState:
    return AdamState(learning_rate=config.learning_rate, beta1=config.beta1, beta2=config.beta2,
                     weight_decay=config.weight_decay, clip_norm=config.clip_norm)


def _fit(groups: list[tuple[FnnParams, np.ndarray | PairInput, np.ndarray, float]],
         steps: int, opt: AdamState) -> None:
    """``steps`` full-batch Adam steps against fixed targets, under one optimizer state.

    Each group is (network, inputs, targets, normalizer). A step joins the
    groups' gradients in list order and updates all their arrays at once,
    so the groups share one clip norm.
    """
    arrays = [a for params, *_ in groups for a in params.arrays()]
    for _ in range(steps):
        adam_step(arrays, [g for params, inputs, targets, normalizer in groups
                           for g in backward(params, inputs, targets, normalizer)], opt)


def pretrain_labels(annotations: AnnotationSet, source: str) -> np.ndarray:
    if source == "mv":
        return majority_vote(annotations)
    if source == "ds":
        return dawid_skene(annotations).hard_labels
    raise ValueError(f"pretrain source must be one of {PRETRAIN_SOURCES}, got {source!r}")


def pretrain(features: np.ndarray, annotations: AnnotationSet,
             config: TrainConfig) -> ModelState:
    """Initialize both networks from an aggregation baseline.

    The classifier fits hard cross entropy against majority-vote or
    Dawid-Skene labels; the estimator then fits binary agreement targets
    (1 where the annotation matches the baseline label).
    """
    features = np.asarray(features, dtype=np.float64)
    k = annotations.n_labels
    clf_seed, est_seed = np.random.SeedSequence(config.seed).spawn(2)

    classifier = init_fnn(features.shape[1], config.classifier_hidden,
                          config.classifier_hidden, k, "softmax",
                          np.random.default_rng(clf_seed))
    labels = pretrain_labels(annotations, config.pretrain_source)
    _fit([(classifier, features, np.eye(k)[labels], float(len(features)))],
         config.pretrain_epochs, _adam_from_config(config))

    pair_x = _pair_input(config.estimator_input, features, forward(classifier, features)[1],
                         annotations)
    estimator = init_fnn(pair_x.shape[1], config.estimator_hidden,
                         config.estimator_hidden, 1, "sigmoid",
                         np.random.default_rng(est_seed))
    agreement = (annotations.label_idx == labels[annotations.instance_idx]).astype(np.float64)
    _fit([(estimator, pair_x, agreement, float(annotations.n_pairs))],
         config.pretrain_epochs, _adam_from_config(config))
    return ModelState(classifier=classifier, estimator=estimator, n_labels=k,
                      n_annotators=annotations.n_annotators,
                      estimator_input=config.estimator_input)


def q_objective(label_prior: np.ndarray, reliability_prior: np.ndarray,
                posteriors: JointPosterior) -> float:
    """Expected complete log likelihood of the priors under fixed posteriors.

    The annotation-emission term is constant in the parameters (emissions
    carry none) but is included so monotonicity checks see the full value.
    """
    rel = posteriors.reliability_posterior
    term_a = float(-np.log(label_prior.shape[1]) * (1.0 - rel).sum())
    return (-soft_ce_loss(label_prior, posteriors.label_posterior, 1.0)
            - soft_ce_loss(reliability_prior, rel, 1.0) + term_a)


def ce_losses(label_prior: np.ndarray, reliability_prior: np.ndarray,
              posteriors: JointPosterior) -> tuple[float, float]:
    """Per-network cross entropies between the priors and fixed posteriors.

    The classifier loss is normalized by the instance count and the
    estimator loss by the number of observed pairs.
    """
    loss_t = soft_ce_loss(label_prior, posteriors.label_posterior, float(len(label_prior)))
    loss_r = soft_ce_loss(reliability_prior, posteriors.reliability_posterior,
                          float(len(reliability_prior)))
    return loss_t, loss_r


@dataclass
class TraceRow:
    outer: int
    objective_start: float
    objective_end: float
    f1: float | None = None


@dataclass
class TrainResult:
    """The trained networks, the posterior under them and one trace row per outer iteration."""

    state: ModelState
    posterior: JointPosterior
    trace: list[TraceRow] = field(default_factory=list)


def train(features: np.ndarray, annotations: AnnotationSet, config: TrainConfig,
          gold: np.ndarray | None = None) -> TrainResult:
    """Pre-train, then alternate inference and network refitting.

    Each outer iteration freezes the posteriors under the current
    parameters (and, in hidden mode, the estimator's input
    representation) and runs ``inner_iters`` steps of ``_fit`` on the
    mode's objective. Training stops at the iteration cap or when the
    objective improves by less than ``early_stop_tol`` between outer
    iterations; EM's Q, a sum over instances and pairs, is divided by
    their count for that test, so the rule does not depend on dataset
    size. The priors are computed once per parameter update: the
    pass after an update gives the end objective's classifier term, the
    trace F1 and the next iteration's posteriors. ``gold`` (label index
    per instance, -1 for missing) only feeds the diagnostic F1 column of
    the trace, which stays empty when no instance has a gold label.
    """
    features = np.asarray(features, dtype=np.float64)
    state = pretrain(features, annotations, config)
    label_prior, pair_x, rel_prior = _priors(state, features, annotations)
    post = posterior_from_priors(label_prior, rel_prior, annotations)
    trace: list[TraceRow] = []
    has_gold = gold is not None and bool(np.any(np.asarray(gold) >= 0))

    n = float(len(features))
    n_pairs = float(annotations.n_pairs)
    # EM steps on Q per instance and annotation, so weight decay and
    # clipping act alike at every dataset size; CE steps on per-network means
    norm_t, norm_r = (n + n_pairs, n + n_pairs) if config.mode == "em" else (n, n_pairs)
    # ce-alt steps the estimator (1), then the classifier (0), each under its
    # own Adam state; EM and ce-jt step both under one state and one clip norm
    schedule = [[1], [0]] if config.mode == "ce-alt" else [[0, 1]]
    opts = [_adam_from_config(config) for _ in schedule]

    def objective(clf_probs: np.ndarray, est_probs: np.ndarray, post: JointPosterior) -> float:
        if config.mode == "em":
            return q_objective(clf_probs, est_probs, post)
        loss_t, loss_r = ce_losses(clf_probs, est_probs, post)
        return loss_t + loss_r

    previous_end: float | None = None
    for outer in range(1, config.resolved_max_outer() + 1):
        start = objective(label_prior, rel_prior, post)
        groups = [(state.classifier, features, post.label_posterior, norm_t),
                  (state.estimator, pair_x, post.reliability_posterior, norm_r)]
        for networks, opt in zip(schedule, opts):
            _fit([groups[g] for g in networks], config.inner_iters, opt)

        # the end objective scores the estimator on the frozen inputs; they and
        # the groups holding them are dropped before the next pass rebuilds them
        est_probs = forward(state.estimator, pair_x)[0]
        del pair_x, groups
        label_prior, pair_x, rel_prior = _priors(state, features, annotations)
        end = objective(label_prior, est_probs, post)
        post = posterior_from_priors(label_prior, rel_prior, annotations)

        score = f1(post.label_posterior.argmax(axis=1), gold).micro if has_gold else None
        trace.append(TraceRow(outer=outer, objective_start=start, objective_end=end, f1=score))
        state.outer_iteration = outer
        if previous_end is not None:
            if config.mode == "em":
                # Q sums over instances and pairs; the CE losses are already means
                improved = (end - previous_end) / (n + n_pairs)
            else:
                improved = previous_end - end
            if improved < config.early_stop_tol:
                break
        previous_end = end
    return TrainResult(state=state, posterior=post, trace=trace)


# kept only because perfbench/child.py traces it by name
def predict_labels(state: ModelState, features: np.ndarray,
                   annotations: AnnotationSet) -> tuple[np.ndarray, np.ndarray]:
    """Most probable label per instance under the annotation-informed posterior.

    Ties resolve to the lowest label index.
    """
    post = e_step(state, features, annotations)
    return post.label_posterior.argmax(axis=1), post.label_posterior


# kept only because perfbench/child.py traces it by name
def reliability_scores(state: ModelState, features: np.ndarray,
                       annotations: AnnotationSet) -> np.ndarray:
    """Posterior reliability per observed pair: ``e_step(...).reliability_posterior``."""
    return e_step(state, features, annotations).reliability_posterior


def save_model(path: str | Path, state: ModelState, label_set: LabelSet,
               config: TrainConfig) -> None:
    payload = {
        "format_version": 1,
        "labels": list(label_set.labels),
        "config": asdict(config),
        "n_labels": state.n_labels,
        "n_annotators": state.n_annotators,
        "estimator_input": state.estimator_input,
        "outer_iteration": state.outer_iteration,
        "classifier": fnn_to_dict(state.classifier),
        "estimator": fnn_to_dict(state.estimator),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_model(path: str | Path) -> tuple[ModelState, LabelSet, TrainConfig]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format_version") != 1:
        raise ValueError(f"unsupported model checkpoint version {payload.get('format_version')!r}")
    state = ModelState(
        classifier=fnn_from_dict(payload["classifier"]),
        estimator=fnn_from_dict(payload["estimator"]),
        n_labels=payload["n_labels"],
        n_annotators=payload["n_annotators"],
        estimator_input=payload["estimator_input"],
        outer_iteration=payload["outer_iteration"],
    )
    return state, LabelSet(tuple(payload["labels"])), TrainConfig(**payload["config"])
