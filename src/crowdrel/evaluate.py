"""Metrics and analyses: F1, chance-corrected agreement, the reliability
report (one table of counts per annotator, ranking end and gold class,
rendered as text or as CSV rows) and the least-reliable-annotation removal
experiment. Both analyses rank pairs with one helper, ``_rank_within``."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import baselines
from .baselines import vote_counts
from .data import (NON_NEGATIVE, AnnotationSet, DataError, Rule, check, label_indices, one_of,
                   one_per)

METRICS = ("f1", "iaa", "baselines")
METRIC_LIST = Rule(str, f"a non-empty comma list from {METRICS}",
                   lambda text: bool(metric_names(text)) and set(metric_names(text)) <= set(METRICS))


def metric_names(text: str) -> list[str]:
    return [m.strip() for m in text.split(",") if m.strip()]


@dataclass(frozen=True)
class F1Scores:
    micro: float
    macro: float


def f1(pred: np.ndarray, gold: np.ndarray) -> F1Scores:
    """Micro and macro F1 over the instances that have a gold label (``gold`` >= 0).

    With one prediction per instance the micro average equals accuracy;
    the macro average is the unweighted mean of per-class F1.
    """
    pred = np.asarray(pred, dtype=np.int64)
    gold = label_indices(gold, len(pred), None, per="prediction")
    mask = gold >= 0
    if not mask.any():
        raise DataError("no gold labels to evaluate against")
    p, g = pred[mask], gold[mask]
    micro = float((p == g).mean())
    macros = []
    # a set: numpy 2 imports numpy.ma for its unique, and training calls this
    for c in sorted(set(p.tolist()) | set(g.tolist())):
        tp = float(((p == c) & (g == c)).sum())
        fp = float(((p == c) & (g != c)).sum())
        fn = float(((p != c) & (g == c)).sum())
        denom = 2 * tp + fp + fn
        macros.append(2 * tp / denom if denom else 0.0)
    return F1Scores(micro=micro, macro=float(np.mean(macros)))


def _complete(per_instance: np.ndarray) -> bool:
    """Whether every instance has the same number of annotations, at least 2."""
    return len(per_instance) > 0 and 2 <= per_instance.min() == per_instance.max()


def fleiss_kappa(annotations: AnnotationSet) -> float:
    """Chance-corrected agreement for complete panels (equal ratings per instance)."""
    counts = vote_counts(annotations)
    if not _complete(annotations.counts_per_instance()):
        raise DataError(
            "fleiss_kappa needs the same number of annotations on every instance "
            "(>= 2); use krippendorff_alpha for incomplete panels"
        )
    n_raters = counts[0].sum()
    p_i = ((counts * counts).sum(axis=1) - n_raters) / (n_raters * (n_raters - 1))
    p_bar = float(p_i.mean())
    p_j = counts.sum(axis=0) / counts.sum()
    p_e = float((p_j * p_j).sum())
    if 1.0 - p_e < 1e-12:
        return 1.0  # every rating in one category: agreement is trivially perfect
    return (p_bar - p_e) / (1.0 - p_e)


def krippendorff_alpha(annotations: AnnotationSet) -> float:
    """Nominal-distance alpha from the coincidence matrix; handles sparse panels."""
    counts = vote_counts(annotations)
    m_u = counts.sum(axis=1)
    usable = m_u >= 2
    if not usable.any():
        raise DataError("krippendorff_alpha needs at least one instance with >= 2 annotations")
    counts = counts[usable]
    m_u = m_u[usable]

    # sum over instances of (outer(c, c) - diag(c)) / (m_u - 1)
    weighted = counts / (m_u - 1.0)[:, None]
    coincidence = weighted.T @ counts - np.diag(weighted.sum(axis=0))
    totals = coincidence.sum(axis=1)
    n = totals.sum()
    observed_disagreement = n - np.trace(coincidence)
    expected_disagreement = (n * n - (totals * totals).sum()) / (n - 1.0)
    if expected_disagreement < 1e-12:
        return 1.0
    return float(1.0 - observed_disagreement / expected_disagreement)


def metric_rows(metric: str, pred: np.ndarray, gold: np.ndarray,
                annotations: AnnotationSet) -> list[tuple[str, str]]:
    """The (name, value) rows of one of ``METRICS``: the F1 of ``pred``, the agreement
    (Fleiss' kappa on a complete panel, else Krippendorff's alpha), or the MV and DS F1."""
    if check("metric", metric, one_of(METRICS)) == "f1":
        s = f1(pred, gold)
        return [("f1_micro", repr(s.micro)), ("f1_macro", repr(s.macro))]
    if metric == "iaa":
        if _complete(annotations.counts_per_instance()):
            return [("fleiss_kappa", repr(fleiss_kappa(annotations)))]
        return [("krippendorff_alpha", repr(krippendorff_alpha(annotations)))]
    mv = f1(baselines.majority_vote(annotations), gold)  # "baselines", the last of METRICS
    ds = f1(baselines.dawid_skene(annotations).hard_labels, gold)
    return [("mv_f1_micro", repr(mv.micro)), ("ds_f1_micro", repr(ds.micro))]


def _rank_within(groups: np.ndarray, key: np.ndarray, tiebreak: np.ndarray) -> np.ndarray:
    """Each pair's 0-based rank in its group by ``key`` (NaN last), then ``tiebreak``."""
    order = np.lexsort((tiebreak, key, groups))
    positions = np.arange(len(order))
    starts = np.where(np.diff(groups[order], prepend=-1) != 0, positions, 0)
    rank = np.empty_like(positions)
    rank[order] = positions - np.maximum.accumulate(starts)
    return rank


_SIDES = ("top", "bottom")
REPORT_K = NON_NEGATIVE  # the rule for the report's k


@dataclass(frozen=True, eq=False)
class ReliabilityReport:
    """The ``k`` highest-scored (side 0) and ``k`` lowest-scored (side 1) annotations
    of each annotator, all of them when it has fewer, as one table of counts.

    ``n``, ``n_correct`` and ``mean_reliability`` are (M, 2, K + 1) arrays
    indexed [annotator, side, column]. Column c < K covers the side's
    annotations of instances with gold label c; column K covers the whole
    side. An empty cell has count 0 and mean NaN.
    """

    k: int
    annotator_ids: tuple[str, ...]
    n: np.ndarray
    n_correct: np.ndarray
    mean_reliability: np.ndarray


def reliability_report(scores: np.ndarray, annotations: AnnotationSet,
                       gold: np.ndarray, k: int) -> ReliabilityReport:
    """Rank each annotator's annotations by reliability and profile both ends.

    Ordering ties break toward the lower instance index.
    """
    check("k", k, REPORT_K)
    scores = one_per(scores, annotations.n_pairs, "reliability scores", "annotation", np.float64)
    gold = label_indices(gold, annotations.n_instances, annotations.n_labels)
    m, width = annotations.n_annotators, annotations.n_labels + 1
    pair_gold = gold[annotations.instance_idx]
    cells, pairs = [], []
    for side, key in enumerate((-scores, scores)):
        chosen = np.flatnonzero(
            _rank_within(annotations.annotator_idx, key, annotations.instance_idx) < k)
        with_gold = chosen[pair_gold[chosen] >= 0]
        base = (annotations.annotator_idx * 2 + side) * width
        cells += [base[chosen] + width - 1, base[with_gold] + pair_gold[with_gold]]
        pairs += [chosen, with_gold]
    cell, pair = np.concatenate(cells), np.concatenate(pairs)
    correct = pair_gold[pair] == annotations.label_idx[pair]  # a missing gold (-1) never matches
    n, n_correct, total = (np.bincount(cell, w, m * 2 * width).reshape(m, 2, width)
                           for w in (None, correct, scores[pair]))
    return ReliabilityReport(k, annotations.annotator_ids, n, n_correct.astype(np.int64),
                             np.divide(total, n, out=np.full(n.shape, np.nan), where=n > 0))


@dataclass(frozen=True)
class DenoiseResult:
    f1_before: F1Scores
    f1_after: F1Scores
    n_removed: int
    n_skipped: int

    @property
    def delta_micro(self) -> float:
        # rounded to 12 decimals so subtraction noise does not show (0.925 - 0.846
        # is 0.07900000000000007); micro F1 moves in steps of 1/N, which survive
        return round(self.f1_after.micro - self.f1_before.micro, 12)


def drop_least_reliable(annotations: AnnotationSet, scores: np.ndarray) -> tuple[AnnotationSet, int, int]:
    """Remove each instance's lowest-scored annotation (ties: lowest annotator index).

    Instances with a single annotation are left untouched. Returns the
    reduced set plus (removed, skipped) counts.
    """
    scores = one_per(scores, annotations.n_pairs, "reliability scores", "annotation", np.float64)
    per_instance = annotations.counts_per_instance()
    lowest = _rank_within(annotations.instance_idx, scores, annotations.annotator_idx) == 0
    drop = lowest & (per_instance[annotations.instance_idx] >= 2)
    keep = ~drop
    reduced = AnnotationSet(annotations.instance_ids, annotations.annotator_ids,
                            annotations.n_labels, annotations.instance_idx[keep],
                            annotations.annotator_idx[keep], annotations.label_idx[keep])
    return reduced, int(drop.sum()), int((per_instance == 1).sum())


def denoise_experiment(annotations: AnnotationSet, scores: np.ndarray,
                       aggregator: Callable[[AnnotationSet], np.ndarray],
                       gold: np.ndarray) -> DenoiseResult:
    """Re-aggregate after removing each instance's least reliable annotation."""
    gold = label_indices(gold, annotations.n_instances, annotations.n_labels)
    reduced, n_removed, n_skipped = drop_least_reliable(annotations, scores)
    before = f1(aggregator(annotations), gold)
    if n_skipped:
        warnings.warn(f"{n_skipped} instances had a single annotation and were left untouched")
    after = f1(aggregator(reduced), gold)
    return DenoiseResult(f1_before=before, f1_after=after,
                         n_removed=n_removed, n_skipped=n_skipped)


def report_to_text(report: ReliabilityReport, class_names: Sequence[str]) -> str:
    """Fixed-width rendering of a reliability report, one block per ranking end."""
    lines = []
    for side, side_name in enumerate(_SIDES):
        lines.append(f"{side_name}-{report.k} instances by per-instance reliability")
        header = ["annotator", "n", "correct", "mean_rel"]
        header += [f"{name}(cor/mean)" for name in class_names]
        lines.append("  ".join(f"{h:>16}" for h in header))
        for j, annotator_id in enumerate(report.annotator_ids):
            n, n_correct, mean = (a[j, side] for a in
                                  (report.n, report.n_correct, report.mean_reliability))
            row = [annotator_id, str(n[-1]), str(n_correct[-1]), f"{mean[-1]:.3f}"]
            row += ["-" if n[c] == 0 else f"{n_correct[c]}/{mean[c]:.2f}"
                    for c in range(len(class_names))]
            lines.append("  ".join(f"{v:>16}" for v in row))
        lines.append("")
    return "\n".join(lines)


REPORT_CSV_HEADER = ("annotator", "side", "n", "n_correct", "mean_reliability",
                     "class", "class_n", "class_correct", "class_mean_reliability")


def report_to_rows(report: ReliabilityReport, class_names: Sequence[str]) -> list[list]:
    """Rows under ``REPORT_CSV_HEADER``: per annotator and side, one total row, then
    one row per gold class the side covers."""
    rows: list[list] = []
    for j, annotator_id in enumerate(report.annotator_ids):
        for side, side_name in enumerate(_SIDES):
            n, n_correct, mean = (a[j, side].tolist() for a in
                                  (report.n, report.n_correct, report.mean_reliability))
            rows.append([annotator_id, side_name, n[-1], n_correct[-1], repr(mean[-1]),
                         "", "", "", ""])
            rows += [[annotator_id, side_name, "", "", "", class_names[c], n[c], n_correct[c],
                      repr(mean[c])] for c in range(len(class_names)) if n[c]]
    return rows
