"""Synthetic benchmark datasets and simulated noisy annotators.

Every generator is seeded and deterministic; annotators draw from
independent child streams of the given seed so adding an annotator never
reshuffles the others.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import (LABEL_COUNT, NON_NEGATIVE, PROBABILITY, AnnotationSet, DataError, Instance,
                   Rule, check, label_indices, one_of, one_per, parse)

# generated dataset kind -> (label count, default noise)
DATASET_KINDS = {"moon": (2, 0.1), "circle": (2, 0.08), "three-class": (3, 0.5)}
NOISE = Rule(float, "finite and >= 0", lambda sigma: 0.0 <= sigma < np.inf)

BROAD_ERROR = 0.05
GRADED_ERRORS = (0.1, 0.3, 0.5, 0.7, 0.9)
NARROW_OFF_DOMAIN_CORRECT = 0.65
ADVERSARIAL_ERROR = 0.8


# annotator kind -> (id letter, then the profile field its argument sets and that field's
# rule, or two Nones): the one place a kind is named. _annotate_one does its labeling.
ANNOTATOR_KINDS = {
    "narrow": ("N", "domain", NON_NEGATIVE),  # always right on its domain class
    "broad": ("B", None, None),  # wrong with probability BROAD_ERROR
    "random": ("R", None, None),  # uniform over all labels
    "adversarial": ("A", None, None),  # wrong with probability ADVERSARIAL_ERROR
    "graded": ("G", "error_prob", PROBABILITY),  # wrong with probability error_prob
}
ANNOTATOR_KIND = one_of(ANNOTATOR_KINDS)
PANEL_HELP = '"default", "graded" or a comma list of ' + " | ".join(
    name + (f":<{field}>" if field else "") for name, (_, field, _) in ANNOTATOR_KINDS.items())


@dataclass(frozen=True)
class AnnotatorProfile:
    """One simulated annotator: a kind of ``ANNOTATOR_KINDS``, with its argument if it takes one."""

    kind: str
    domain: int | None = None
    error_prob: float | None = None

    def __post_init__(self) -> None:
        _, own, rule = ANNOTATOR_KINDS[check("annotator kind", self.kind, ANNOTATOR_KIND)]
        for f in fields(self)[1:]:  # the kind's own field is set, and no other
            value = getattr(self, f.name)
            if (f.name == own) != (value is not None):
                verb = "needs" if value is None else "takes no"
                raise DataError(f"{self.kind} {verb} {f.name}")
            if value is not None:
                check(f.name, value, rule)

    def short_name(self) -> str:
        letter, field, _ = ANNOTATOR_KINDS[self.kind]
        return letter + ("" if field is None else str(getattr(self, field)))


def default_panel(n_labels: int) -> list[AnnotatorProfile]:
    """One narrow expert per class, one broad, one random, one adversarial."""
    check("n_labels", n_labels, LABEL_COUNT)
    panel = [AnnotatorProfile("narrow", domain=c) for c in range(n_labels)]
    panel += [AnnotatorProfile("broad"), AnnotatorProfile("random"), AnnotatorProfile("adversarial")]
    return panel


def graded_panel() -> list[AnnotatorProfile]:
    return [AnnotatorProfile("graded", error_prob=p) for p in GRADED_ERRORS]


def parse_panel(spec: str, n_labels: int) -> list[AnnotatorProfile]:
    """The profiles of a panel in ``PANEL_HELP``'s grammar; a bad entry raises a DataError."""
    if spec in ("default", "graded"):
        return default_panel(n_labels) if spec == "default" else graded_panel()
    profiles = []
    for entry in map(str.strip, spec.split(",")):
        name, sep, text = entry.partition(":")
        try:
            _, field, rule = ANNOTATOR_KINDS[check("annotator kind", name, ANNOTATOR_KIND)]
            if sep and field is None:
                raise DataError(f"{name} takes no argument")
            args = {field: parse(field, text, rule)} if field else {}
            profiles.append(_in_labels(AnnotatorProfile(name, **args), n_labels))
        except DataError as exc:
            raise DataError(f"panel entry {entry!r}: {exc}") from None
    return profiles


def _in_labels(profile: AnnotatorProfile, n_labels: int) -> AnnotatorProfile:
    """``profile``, if its domain, when it has one, is one of ``n_labels`` labels."""
    if profile.domain is not None and profile.domain >= n_labels:
        raise DataError(f"domain {profile.domain} is not one of the {n_labels} labels")
    return profile


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
    check("n", n, Rule(int, f"at least {k} for {kind}", lambda value: value >= k))
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
    check("n_labels", n_labels, LABEL_COUNT)
    if not profiles:
        raise DataError("need at least one annotator profile")
    for j, profile in enumerate(profiles):
        try:
            _in_labels(profile, n_labels)
        except DataError as exc:
            raise DataError(f"annotator {j} ({profile.short_name()}): {exc}") from None
    check("keep_prob", keep_prob, PROBABILITY)
    truth = label_indices(gold, np.size(gold), n_labels)
    if np.any(truth < 0):
        raise DataError("simulation needs a gold label for every instance")
    n, m = len(truth), len(profiles)
    ids = _instance_ids(n) if instance_ids is None else one_per(
        instance_ids, n, "instance ids", "gold label", object)

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

    annotator_ids = [f"a{j}_{profile.short_name()}" for j, profile in enumerate(profiles)]
    return AnnotationSet(ids, annotator_ids, n_labels, ii, jj, ll)


def gen_text_fixture(n: int = 500, n_labels: int = 3,
                     seed: int = 0) -> tuple[list[Instance], np.ndarray]:
    """Keyword-based synthetic text corpus for exercising text pipelines.

    Each class owns a small keyword vocabulary; documents mix class
    keywords with shared filler tokens, so tf-idf features make the
    classes cleanly separable. Returns the documents and their (N,) gold
    label indices.
    """
    check("n_labels", n_labels, LABEL_COUNT)
    check("n", n, Rule(int, f"at least {n_labels}, one document per class",
                       lambda value: value >= n_labels))
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
