"""Synthetic benchmark datasets and simulated noisy annotators.

Every generator is seeded and deterministic; annotators draw from
independent child streams of the given seed so adding an annotator never
reshuffles the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NON_NEGATIVE, AnnotationSet, DataError, Instance, check, label_indices, one_of

# generated dataset kind -> (label count, default noise)
DATASET_KINDS = {"moon": (2, 0.1), "circle": (2, 0.08), "three-class": (3, 0.5)}
NOISE = ("finite and >= 0", lambda sigma: 0.0 <= sigma < np.inf)
KEEP_PROB = ("in [0, 1]", lambda p: 0.0 <= p <= 1.0)

BROAD_ERROR = 0.05
GRADED_ERRORS = (0.1, 0.3, 0.5, 0.7, 0.9)
NARROW_OFF_DOMAIN_CORRECT = 0.65
ADVERSARIAL_ERROR = 0.8


@dataclass(frozen=True)
class AnnotatorProfile:
    """Simulated labeling behavior.

    kind:
      narrow      always correct on its domain class, correct with
                  probability 0.65 elsewhere (otherwise a uniformly
                  random incorrect label)
      broad       correct with probability 0.95 on everything
      random      uniform over all labels
      adversarial incorrect with probability 0.8
      graded      incorrect with the given error probability
    """

    kind: str
    domain: int | None = None
    error_prob: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("narrow", "broad", "random", "adversarial", "graded"):
            raise DataError(f"unknown annotator kind {self.kind!r}")
        if self.kind == "narrow" and (self.domain is None or self.domain < 0):
            raise DataError("narrow annotator needs a domain class")
        if self.kind == "graded":
            if self.error_prob is None or not 0.0 <= self.error_prob <= 1.0:
                raise DataError("graded annotator needs error_prob in [0, 1]")

    def short_name(self) -> str:
        if self.kind == "narrow":
            return f"N{self.domain}"
        if self.kind == "graded":
            return f"G{self.error_prob}"
        return {"broad": "B", "random": "R", "adversarial": "A"}[self.kind]


def default_panel(n_labels: int) -> list[AnnotatorProfile]:
    """One narrow expert per class, one broad, one random, one adversarial."""
    panel = [AnnotatorProfile("narrow", domain=c) for c in range(n_labels)]
    panel += [AnnotatorProfile("broad"), AnnotatorProfile("random"), AnnotatorProfile("adversarial")]
    return panel


def graded_panel() -> list[AnnotatorProfile]:
    return [AnnotatorProfile("graded", error_prob=p) for p in GRADED_ERRORS]


def _seed_sequence(seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(check("seed", seed, NON_NEGATIVE))


def _class_counts(n: int, k: int) -> list[int]:
    base, extra = divmod(n, k)
    return [base + (1 if c < extra else 0) for c in range(k)]


def _instance_ids(n: int) -> list[str]:
    width = max(4, len(str(n - 1)))
    return [f"i{idx:0{width}d}" for idx in range(n)]


def gen_2d(kind: str, n: int = 1000, noise: float | None = None,
           seed: int = 0) -> tuple[list[Instance], np.ndarray]:
    """Generate an interleaved half-circles, concentric-circles or
    three-blob dataset with balanced class counts (remainders go to the
    lowest class indices: 1000 points give 500/500 or 334/333/333).
    Returns the instances and their (N,) gold label indices.
    """
    k, default_noise = DATASET_KINDS[check("dataset kind", kind, one_of(DATASET_KINDS))]
    if n < k:
        raise DataError(f"n must be at least {k} for {kind}, got {n}")
    sigma = default_noise if noise is None else check("noise", noise, NOISE)
    rng = np.random.default_rng(_seed_sequence(seed))
    counts = _class_counts(n, k)

    points, labels = [], []
    if kind == "moon":
        theta0 = np.linspace(0.0, np.pi, counts[0])
        points.append(np.column_stack([np.cos(theta0), np.sin(theta0)]))
        theta1 = np.linspace(0.0, np.pi, counts[1])
        points.append(np.column_stack([1.0 - np.cos(theta1), 0.5 - np.sin(theta1)]))
    elif kind == "circle":
        for c, radius in enumerate((1.0, 0.5)):
            theta = np.linspace(0.0, 2.0 * np.pi, counts[c], endpoint=False)
            points.append(radius * np.column_stack([np.cos(theta), np.sin(theta)]))
    else:
        centers = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.5]])
        for c in range(k):
            points.append(np.tile(centers[c], (counts[c], 1)))
    for c in range(k):
        labels.append(np.full(counts[c], c, dtype=np.int64))

    coords = np.concatenate(points) + rng.normal(0.0, sigma, size=(n, 2))
    gold = np.concatenate(labels)
    order = rng.permutation(n)
    coords, gold = coords[order], gold[order]

    ids = _instance_ids(n)
    instances = [Instance(id=ids[i], features=coords[i]) for i in range(n)]
    return instances, gold


def _annotate_one(profile: AnnotatorProfile, truth: np.ndarray, n_labels: int,
                  rng: np.random.Generator) -> np.ndarray:
    n = len(truth)
    labels = truth.copy()
    if profile.kind == "random":
        return rng.integers(0, n_labels, size=n)
    if profile.kind == "narrow":
        off = truth != profile.domain
        wrong = off & (rng.random(n) >= NARROW_OFF_DOMAIN_CORRECT)
    elif profile.kind == "broad":
        wrong = rng.random(n) < BROAD_ERROR
    elif profile.kind == "adversarial":
        wrong = rng.random(n) < ADVERSARIAL_ERROR
    else:
        wrong = rng.random(n) < profile.error_prob
    # uniform draw over the n_labels - 1 incorrect labels
    shift = rng.integers(1, n_labels, size=int(wrong.sum()))
    labels[wrong] = (truth[wrong] + shift) % n_labels
    return labels


def simulate_annotations(gold: np.ndarray, n_labels: int,
                         profiles: list[AnnotatorProfile], seed: int = 0,
                         instance_ids: list[str] | None = None,
                         keep_prob: float = 1.0) -> AnnotationSet:
    """Label every instance with every profiled annotator, given the (N,) gold label indices.

    ``keep_prob`` < 1 uniformly subsamples annotations afterwards while
    guaranteeing each instance keeps at least one.
    """
    if not profiles:
        raise DataError("need at least one annotator profile")
    for j, profile in enumerate(profiles):
        if profile.kind == "narrow" and profile.domain >= n_labels:
            raise DataError(f"annotator {j} ({profile.short_name()}): domain {profile.domain} "
                            f"is not one of the {n_labels} labels")
    check("keep_prob", keep_prob, KEEP_PROB)
    truth = label_indices(gold, np.size(gold), n_labels)
    if np.any(truth < 0):
        raise DataError("simulation needs a gold label for every instance")
    n, m = len(truth), len(profiles)

    streams = _seed_sequence(seed).spawn(m + 1)
    columns = [
        _annotate_one(profile, truth, n_labels, np.random.default_rng(streams[j]))
        for j, profile in enumerate(profiles)
    ]
    ii = np.repeat(np.arange(n), m)
    jj = np.tile(np.arange(m), n)
    ll = np.stack(columns, axis=1).ravel()

    if keep_prob < 1.0:
        rng = np.random.default_rng(streams[m])
        keep = rng.random(n * m) < keep_prob
        forced = rng.integers(0, m, size=n)  # one guaranteed annotation per instance
        keep[np.arange(n) * m + forced] = True
        ii, jj, ll = ii[keep], jj[keep], ll[keep]

    ids = _instance_ids(n) if instance_ids is None else list(instance_ids)
    return AnnotationSet(
        n_instances=n, n_annotators=m, n_labels=n_labels,
        instance_idx=ii, annotator_idx=jj, label_idx=ll,
        instance_ids=tuple(ids),
        annotator_ids=tuple(f"a{j}_{profiles[j].short_name()}" for j in range(m)),
    )


def gen_text_fixture(n: int = 500, n_labels: int = 3,
                     seed: int = 0) -> tuple[list[Instance], np.ndarray]:
    """Keyword-based synthetic text corpus for exercising text pipelines.

    Each class owns a small keyword vocabulary; documents mix class
    keywords with shared filler tokens, so tf-idf features make the
    classes cleanly separable. Returns the documents and their (N,) gold
    label indices.
    """
    if n < n_labels:
        raise DataError("need at least one document per class")
    rng = np.random.default_rng(_seed_sequence(seed))
    keywords = [[f"topic{c}word{t}" for t in range(8)] for c in range(n_labels)]
    fillers = [f"the{t}" for t in range(15)]
    counts = _class_counts(n, n_labels)
    gold_arr = np.concatenate([np.full(c, lab, dtype=np.int64) for lab, c in enumerate(counts)])
    gold_arr = gold_arr[rng.permutation(n)]

    ids = _instance_ids(n)
    instances = []
    for i in range(n):
        c = int(gold_arr[i])
        toks = list(rng.choice(keywords[c], size=rng.integers(4, 9), replace=True))
        toks += list(rng.choice(fillers, size=rng.integers(2, 6), replace=True))
        rng.shuffle(toks)
        instances.append(Instance(id=ids[i], text=" ".join(toks)))
    return instances, gold_arr
