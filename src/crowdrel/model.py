"""Joint inference of true labels and per-instance annotator reliability.

A classifier network provides a prior over each instance's label and a
reliability-estimator network provides, per (instance, annotator) pair,
the prior probability that the annotation is correct; it reads the
classifier's last hidden layer for the instance and a one-hot code of
the annotator (``estimator_pair_inputs``). A reliable
annotator emits the true label; an unreliable one emits a label drawn
uniformly over all categories. Exact per-pair posteriors over
(label, reliable) follow in closed form: given the label, an
annotation's reliability depends on no other annotation, so each
reliability posterior is the label posterior at the annotated label
times one factor of its own pair. Both networks are refit jointly
against those posteriors, either by generalized EM (gradient steps on the
expected complete log likelihood) or by minimizing soft-target cross
entropies (``ce-jt``).

Every network update (pretraining and the joint step of EM and ``ce-jt``)
is one ``_fit`` loop of full-batch Adam steps under one optimizer
state. ``perfbench/child.py`` traces ``forward``, ``backward``, ``adam_step``,
``train``, ``pretrain``, ``e_step``, ``posterior_from_priors``,
``estimator_pair_inputs``, ``predict_labels`` and ``reliability_scores`` by
their names in this module; the last two are kept only for it.

This module alone writes and reads the checkpoint, ``model.json``; one
format version covers the whole file, and ``load_model`` checks all of it.

The label posterior is accumulated in log space with priors floored at
1e-12, so large annotator counts cannot underflow.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .baselines import dawid_skene, majority_vote, vote_counts
from .data import (AT_LEAST_1, NON_NEGATIVE, AnnotationSet, DataError, LabelSet, Rule, check,
                   label_indices, one_of, whole_file)
from .evaluate import f1
from .neural import (
    PROB_FLOOR,
    AdamState,
    FnnParams,
    PairInput,
    adam_step,
    backward,
    forward,
    init_fnn,
    soft_ce_loss,
)

MODES = ("em", "ce-jt")
PRETRAIN_SOURCES = ("mv", "ds")
CHECKPOINT_VERSION = 4

_OFF_OR_FINITE = Rule(float, "finite and >= 0 (0 is off)", lambda value: 0 <= value < np.inf)
# TrainConfig field -> the rule its value must pass, type included, in field order
TRAIN_RULES = {"mode": one_of(MODES), "inner_iters": AT_LEAST_1, "max_outer": NON_NEGATIVE,
               "early_stop_tol": Rule(float, "positive", lambda value: value > 0),
               "pretrain": one_of(PRETRAIN_SOURCES), "pretrain_epochs": NON_NEGATIVE,
               "classifier_hidden": AT_LEAST_1, "estimator_hidden": AT_LEAST_1,
               "learning_rate": Rule(float, "finite and positive", lambda value: 0 < value < np.inf),
               "weight_decay": _OFF_OR_FINITE, "clip_norm": _OFF_OR_FINITE, "seed": NON_NEGATIVE}


@dataclass
class TrainConfig:
    """Training loop and optimizer settings.

    ``mode`` picks only the two normalizers (see ``train``). Training runs
    at most ``max_outer`` outer iterations in every mode, each of
    ``inner_iters`` full-batch optimizer steps. The config key of its name
    sets each field, which must pass its rule in ``TRAIN_RULES``; the rule's
    type is the field's annotation. Adam's moment decay rates are constants
    of ``neural``. README.md's "Key defaults" paragraph says how the default
    schedule was chosen.
    """

    mode: str = "ce-jt"
    inner_iters: int = 20
    max_outer: int = 500
    early_stop_tol: float = 1e-3
    pretrain: str = "ds"
    pretrain_epochs: int = 50
    classifier_hidden: int = 5
    estimator_hidden: int = 5
    learning_rate: float = 0.003
    weight_decay: float = 0.001
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, rule in TRAIN_RULES.items():
            check(name, getattr(self, name), rule)


@dataclass
class ModelState:
    """Trained (or pre-trained) networks; the estimator reads the classifier's last hidden layer."""

    classifier: FnnParams
    estimator: FnnParams


@dataclass
class JointPosterior:
    """The two marginals of the exact per-pair posterior over (label, reliable).

    ``label_posterior`` is the (N, K) posterior over each instance's label
    and ``reliability_posterior`` the (n_pairs,) posterior that each
    annotation was produced reliably, which is the label posterior at the
    annotated label times the pair's own factor (see
    ``posterior_from_priors``). Together they fix the full joint: the
    reliable mass sits on the annotated label. ``log_likelihood`` is the
    marginal log likelihood log p(A | X) under the priors that gave them.
    """

    label_posterior: np.ndarray
    reliability_posterior: np.ndarray
    log_likelihood: float


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
    With the softmax's per-instance max shift_i and shifted sum total_i, they
    return in log p(A | X) = sum_i (shift_i + log total_i) + sum_p log(p0_p / K).
    """
    k = label_prior.shape[1]
    ii, ll = annotations.instance_idx, annotations.label_idx

    p1 = np.asarray(reliability_prior, dtype=np.float64)
    if not (np.all(np.isfinite(label_prior)) and np.all(np.isfinite(p1))):
        raise FloatingPointError("posterior priors are not finite (NaN or infinite)")
    log_p1 = np.log(np.maximum(p1, PROB_FLOOR))
    log_r0 = np.log(np.maximum(1.0 - p1, PROB_FLOOR)) - np.log(k)
    log_gamma_a = np.logaddexp(log_r0, log_p1)

    scores = np.log(np.maximum(label_prior, PROB_FLOOR))
    scores += vote_counts(annotations, log_gamma_a - log_r0)
    shift = scores.max(axis=1, keepdims=True)
    label_posterior = np.exp(scores - shift)
    total = label_posterior.sum(axis=1, keepdims=True)
    label_posterior /= total

    reliability_posterior = label_posterior[ii, ll] * np.exp(log_p1 - log_gamma_a)
    return JointPosterior(label_posterior=label_posterior,
                          reliability_posterior=reliability_posterior,
                          log_likelihood=float((shift + np.log(total)).sum() + log_r0.sum()))


def estimator_pair_inputs(representation: np.ndarray, annotations: AnnotationSet) -> PairInput:
    """Each observed pair's instance representation and annotator, as the estimator sees them."""
    return PairInput(representation, annotations.instance_idx, annotations.annotator_idx,
                     annotations.n_annotators)


def _priors(state: ModelState, features: np.ndarray, annotations: AnnotationSet):
    """One forward pass of each network: label prior (N, K), pair inputs, reliability prior (P,)."""
    label_prior, hidden = forward(state.classifier, features)
    pair_x = estimator_pair_inputs(hidden, annotations)
    reliability_prior, _ = forward(state.estimator, pair_x)
    return label_prior, pair_x, reliability_prior


def _feature_rows(features: np.ndarray, annotations: AnnotationSet) -> np.ndarray:
    """``features`` as a float64 matrix with a column or more and one row per instance of
    ``annotations``; else DataError."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] == 0:
        raise DataError(f"features must be a 2-D array with at least one column, "
                        f"got shape {features.shape}")
    if len(features) != annotations.n_instances:
        raise DataError(f"the data has {len(features)} feature rows, "
                        f"but {annotations.n_instances} instances")
    return features


def e_step(state: ModelState, features: np.ndarray,
           annotations: AnnotationSet) -> JointPosterior:
    """Posteriors under the current networks; DataError for data they do not fit."""
    features = _feature_rows(features, annotations)
    clf, est = state.classifier.weights, state.estimator.weights
    for what, got, want in (("feature width", features.shape[1], len(clf[0])),
                            ("label count", annotations.n_labels, clf[-1].shape[1]),
                            ("estimator input width (representation + annotators)",
                             clf[1].shape[1] + annotations.n_annotators, len(est[0]))):
        if got != want:
            raise DataError(f"the data's {what} is {got}, but the model's is {want}")
    label_prior, _, reliability_prior = _priors(state, features, annotations)
    return posterior_from_priors(label_prior, reliability_prior, annotations)


def _adam_from_config(config: TrainConfig) -> AdamState:
    return AdamState(config.learning_rate, config.weight_decay, config.clip_norm)


def _fit(groups: list[tuple[FnnParams, np.ndarray | PairInput, np.ndarray, float]],
         steps: int, opt: AdamState) -> None:
    """``steps`` full-batch Adam steps against fixed targets, under one optimizer state.

    Each group is (network, inputs, targets, normalizer). A step joins the
    groups' gradients in list order and updates all their arrays at once,
    so the groups share one clip norm. Each group keeps one workspace for
    every step, so its pass allocates no (width, P) array after the first.
    """
    arrays = [a for params, *_ in groups for a in params.arrays()]
    works = [{} for _ in groups]
    for _ in range(steps):
        adam_step(arrays, [g for (params, inputs, targets, normalizer), work in zip(groups, works)
                           for g in backward(params, inputs, targets, normalizer, work)], opt)


def pretrain_labels(annotations: AnnotationSet, source: str) -> np.ndarray:
    check("aggregator", source, TRAIN_RULES["pretrain"])
    return majority_vote(annotations) if source == "mv" else dawid_skene(annotations).hard_labels


def pretrain(features: np.ndarray, annotations: AnnotationSet,
             config: TrainConfig) -> ModelState:
    """Initialize both networks from an aggregation baseline.

    The classifier fits hard cross entropy against majority-vote or
    Dawid-Skene labels; the estimator then fits binary agreement targets
    (1 where the annotation matches the baseline label).
    """
    features = _feature_rows(features, annotations)
    k = annotations.n_labels
    clf_seed, est_seed = np.random.SeedSequence(config.seed).spawn(2)

    classifier = init_fnn(features.shape[1], config.classifier_hidden,
                          config.classifier_hidden, k, "softmax",
                          np.random.default_rng(clf_seed))
    labels = pretrain_labels(annotations, config.pretrain)
    _fit([(classifier, features, np.eye(k)[labels], float(len(features)))],
         config.pretrain_epochs, _adam_from_config(config))

    pair_x = estimator_pair_inputs(forward(classifier, features)[1], annotations)
    estimator = init_fnn(pair_x.shape[1], config.estimator_hidden,
                         config.estimator_hidden, 1, "sigmoid",
                         np.random.default_rng(est_seed))
    agreement = (annotations.label_idx == labels[annotations.instance_idx]).astype(np.float64)
    _fit([(estimator, pair_x, agreement, float(annotations.n_pairs))],
         config.pretrain_epochs, _adam_from_config(config))
    return ModelState(classifier=classifier, estimator=estimator)


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


@dataclass
class TraceRow:
    """One outer iteration, one ``trace.csv`` row: Q before and after the refit, then log p(A | X)."""

    outer: int
    objective_start: float
    objective_end: float
    log_likelihood: float
    f1: float | None = None


@dataclass
class TrainResult:
    """The trained networks, the posterior under them, why training stopped
    (``"tol"`` or ``"cap"``) and one trace row per outer iteration."""

    state: ModelState
    posterior: JointPosterior
    stopped: str
    trace: list[TraceRow] = field(default_factory=list)


def train(features: np.ndarray, annotations: AnnotationSet, config: TrainConfig,
          gold: np.ndarray | None = None) -> TrainResult:
    """Pre-train, then repeat inference and a joint refit of both networks.

    Each outer iteration freezes the posteriors under the current
    parameters and the estimator's input (the classifier's hidden
    layer), then runs ``inner_iters`` steps of ``_fit`` on both
    networks under one Adam state. ``mode`` chooses only the normalizers,
    which act only through coupled weight decay and the global clip.
    Training stops at the iteration cap ``max_outer`` or,
    from the second outer iteration on, when the marginal log likelihood
    gains less than ``early_stop_tol`` per instance and annotation, so the
    rule does not depend on dataset size; the trace holds Q in every mode.
    The priors are computed once per parameter update: the pass after an
    update gives the end Q's classifier term, the trace F1, the log
    likelihood and the next iteration's posteriors. ``gold`` (label index
    per instance, -1 for missing) only feeds the diagnostic F1 column of
    the trace, which stays empty when no instance has a gold label. The
    features and ``gold`` are checked against ``annotations`` before
    pretraining.
    """
    features = _feature_rows(features, annotations)
    if gold is not None:
        gold = label_indices(gold, annotations.n_instances, annotations.n_labels)
    state = pretrain(features, annotations, config)
    label_prior, pair_x, rel_prior = _priors(state, features, annotations)
    post = posterior_from_priors(label_prior, rel_prior, annotations)
    trace: list[TraceRow] = []
    has_gold = gold is not None and bool(np.any(gold >= 0))

    n = float(len(features))
    n_pairs = float(annotations.n_pairs)
    # EM steps on Q per instance and annotation, so weight decay and
    # clipping act alike at every dataset size; ce-jt steps on per-network means
    norm_t, norm_r = (n + n_pairs, n + n_pairs) if config.mode == "em" else (n, n_pairs)
    opt = _adam_from_config(config)

    stopped = "cap"
    for outer in range(1, config.max_outer + 1):
        start = q_objective(label_prior, rel_prior, post)
        groups = [(state.classifier, features, post.label_posterior, norm_t),
                  (state.estimator, pair_x, post.reliability_posterior, norm_r)]
        _fit(groups, config.inner_iters, opt)

        # the end Q scores the estimator on the frozen inputs; they and the
        # groups holding them are dropped before the next pass rebuilds them
        est_probs = forward(state.estimator, pair_x)[0]
        del pair_x, groups
        label_prior, pair_x, rel_prior = _priors(state, features, annotations)
        end = q_objective(label_prior, est_probs, post)
        post = posterior_from_priors(label_prior, rel_prior, annotations)

        score = f1(post.label_posterior.argmax(axis=1), gold).micro if has_gold else None
        trace.append(TraceRow(outer=outer, objective_start=start, objective_end=end,
                              log_likelihood=post.log_likelihood, f1=score))
        gain = post.log_likelihood - trace[-2].log_likelihood if outer > 1 else np.inf
        if gain / (n + n_pairs) < config.early_stop_tol:
            stopped = "tol"
            break
    return TrainResult(state=state, posterior=post, stopped=stopped, trace=trace)


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
    """Write the checkpoint of ``state``, which ``config`` built; ``load_model`` reads it.

    The JSON is encoded straight into the file, so the document is never
    held in memory as one string.
    """
    payload = {"format_version": CHECKPOINT_VERSION, "labels": list(label_set.labels),
               "config": asdict(config)}
    for name, net in (("classifier", state.classifier), ("estimator", state.estimator)):
        layers = zip(net.weights, net.biases)
        payload[name] = {"head": net.head, "layers": [
            {"weights": w.ravel().tolist(), "biases": b.tolist()} for w, b in layers]}
    with whole_file(path) as fh:
        json.dump(payload, fh)


def _fields(obj, what: str, *keys: str) -> list:
    """The values of ``keys`` in a JSON object that has exactly those keys; else DataError."""
    if not isinstance(obj, dict) or set(obj) != set(keys):
        raise DataError(f"{what} must be a JSON object with the keys {sorted(keys)}")
    return [obj[key] for key in keys]


def _floats(values, what: str) -> np.ndarray:
    """A JSON list of finite numbers as a float64 vector; DataError for anything else."""
    array = np.array(values)  # a ragged list raises ValueError
    if array.ndim != 1 or array.dtype.kind not in "if" or not np.all(np.isfinite(array)):
        raise DataError(f"{what} must hold lists of finite numbers")
    return array.astype(np.float64)


def _network(payload, what: str, head: str, hidden: int, n_outputs: int) -> FnnParams:
    """``head`` over three chained finite layers, ``hidden``, ``hidden`` and ``n_outputs`` wide."""
    found, layers = _fields(payload, what, "head", "layers")
    if found != head or not isinstance(layers, list) or len(layers) != 3:
        raise DataError(f"{what} must have the head {head!r} and a list of three layers")
    weights, biases = [], []
    for number, (layer, width) in enumerate(zip(layers, (hidden, hidden, n_outputs)), start=1):
        where = f"{what} layer {number}"
        w, b = (_floats(v, where) for v in _fields(layer, where, "weights", "biases"))
        rows = len(biases[-1]) if biases else len(w) // width
        if len(b) != width or len(w) != rows * width:
            raise DataError(f"{where} must have {width} biases and {rows} x {width} weights, "
                            f"got {len(b)} and {len(w)}")
        weights.append(w.reshape(rows, width))
        biases.append(b)
    return FnnParams(weights=weights, biases=biases, head=head)


def load_model(path: str | Path) -> tuple[ModelState, LabelSet, TrainConfig]:
    """Read a checkpoint that ``save_model`` wrote: (state, label set, config).

    A network is its head and three layers, each its row-major weights and
    its biases. Anything malformed, another format version included, raises
    one DataError that names ``path``.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        version = payload.get("format_version") if isinstance(payload, dict) else None
        if version != CHECKPOINT_VERSION:
            raise DataError(f"unsupported model checkpoint version {version!r}, "
                            f"expected {CHECKPOINT_VERSION}")
        _, labels, config, classifier, estimator = _fields(
            payload, "checkpoint", "format_version", "labels", "config", "classifier", "estimator")
        if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
            raise DataError(f"labels must be a list of strings, got {labels!r}")
        label_set = LabelSet(tuple(labels))
        config = TrainConfig(*_fields(config, "config", *(f.name for f in fields(TrainConfig))))
        state = ModelState(
            _network(classifier, "classifier", "softmax", config.classifier_hidden, len(labels)),
            _network(estimator, "estimator", "sigmoid", config.estimator_hidden, 1))
    except (ValueError, RecursionError) as exc:  # a DataError, bad UTF-8 JSON, deep nests, ragged lists
        raise DataError(f"{path}: {exc}") from None
    return state, label_set, config
