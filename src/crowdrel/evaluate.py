"""Metrics and analyses: F1, chance-corrected agreement, reliability
rankings, and the least-reliable-annotation removal experiment."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .baselines import vote_counts
from .data import AnnotationSet, GoldLabels


def _gold_array(gold: GoldLabels | np.ndarray, n: int) -> np.ndarray:
    if isinstance(gold, GoldLabels):
        return gold.to_array(n)
    return np.asarray(gold, dtype=np.int64)


@dataclass(frozen=True)
class F1Scores:
    micro: float
    macro: float


def f1(pred: np.ndarray, gold: GoldLabels | np.ndarray) -> F1Scores:
    """Micro and macro F1 over the instances that have a gold label.

    With one prediction per instance the micro average equals accuracy;
    the macro average is the unweighted mean of per-class F1.
    """
    pred = np.asarray(pred, dtype=np.int64)
    gold_arr = _gold_array(gold, len(pred))
    mask = gold_arr >= 0
    if not mask.any():
        raise ValueError("no gold labels to evaluate against")
    p, g = pred[mask], gold_arr[mask]
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


def fleiss_kappa(annotations: AnnotationSet) -> float:
    """Chance-corrected agreement for complete panels (equal ratings per instance)."""
    counts = vote_counts(annotations)
    per_instance = counts.sum(axis=1)
    n_raters = per_instance[0] if len(per_instance) else 0
    if n_raters < 2 or not np.all(per_instance == n_raters):
        raise ValueError(
            "fleiss_kappa needs the same number of annotations on every instance "
            "(>= 2); use krippendorff_alpha for incomplete panels"
        )
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
        raise ValueError("krippendorff_alpha needs at least one instance with >= 2 annotations")
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


@dataclass(frozen=True)
class ClassStats:
    n_instances: int
    n_correct: int
    mean_reliability: float


@dataclass(frozen=True)
class SideStats:
    """One end of an annotator's reliability ranking (top-k or bottom-k)."""

    instance_indices: tuple[int, ...]
    n_correct: int
    n_with_gold: int
    mean_reliability: float
    per_class: dict[int, ClassStats] = field(default_factory=dict)


@dataclass(frozen=True)
class AnnotatorReliability:
    annotator_index: int
    annotator_id: str
    n_annotations: int
    truncated: bool
    top: SideStats
    bottom: SideStats


@dataclass(frozen=True)
class ReliabilityReport:
    k: int
    annotators: tuple[AnnotatorReliability, ...]


def _side_stats(instance_idx: np.ndarray, labels: np.ndarray, scores: np.ndarray,
                gold_arr: np.ndarray) -> SideStats:
    has_gold = gold_arr[instance_idx] >= 0
    correct = has_gold & (labels == gold_arr[instance_idx])
    per_class: dict[int, ClassStats] = {}
    for c in sorted(set(gold_arr[instance_idx[has_gold]].tolist())):
        in_class = has_gold & (gold_arr[instance_idx] == c)
        per_class[c] = ClassStats(
            n_instances=int(in_class.sum()),
            n_correct=int((correct & in_class).sum()),
            mean_reliability=float(scores[in_class].mean()),
        )
    return SideStats(
        instance_indices=tuple(int(i) for i in instance_idx),
        n_correct=int(correct.sum()),
        n_with_gold=int(has_gold.sum()),
        mean_reliability=float(scores.mean()) if len(scores) else float("nan"),
        per_class=per_class,
    )


def reliability_report(scores: np.ndarray, annotations: AnnotationSet,
                       gold: GoldLabels | np.ndarray, k: int) -> ReliabilityReport:
    """Rank each annotator's annotations by reliability and profile both ends.

    Ordering ties break toward the lower instance index. When an
    annotator has fewer than ``k`` annotations, all of them are used and
    the entry is flagged as truncated.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) != annotations.n_pairs:
        raise ValueError("need one reliability score per annotation")
    gold_arr = _gold_array(gold, annotations.n_instances)
    entries = []
    for j in range(annotations.n_annotators):
        pair_pos = np.flatnonzero(annotations.annotator_idx == j)
        inst = annotations.instance_idx[pair_pos]
        take = min(k, len(pair_pos))
        top_sel = pair_pos[np.lexsort((inst, -scores[pair_pos]))[:take]]
        bottom_sel = pair_pos[np.lexsort((inst, scores[pair_pos]))[:take]]
        entries.append(AnnotatorReliability(
            annotator_index=j,
            annotator_id=annotations.annotator_ids[j] if annotations.annotator_ids else str(j),
            n_annotations=len(pair_pos),
            truncated=len(pair_pos) < k,
            top=_side_stats(annotations.instance_idx[top_sel],
                            annotations.label_idx[top_sel], scores[top_sel], gold_arr),
            bottom=_side_stats(annotations.instance_idx[bottom_sel],
                               annotations.label_idx[bottom_sel], scores[bottom_sel], gold_arr),
        ))
    return ReliabilityReport(k=k, annotators=tuple(entries))


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
    scores = np.asarray(scores, dtype=np.float64)
    per_instance = annotations.counts_per_instance()
    order = np.lexsort((annotations.annotator_idx, scores, annotations.instance_idx))
    # the first pair of each instance's run in the sorted order is its lowest-scored one
    sorted_instances = annotations.instance_idx[order]
    first = np.diff(sorted_instances, prepend=-1) != 0
    drop = np.zeros(annotations.n_pairs, dtype=bool)
    drop[order] = first & (per_instance[sorted_instances] >= 2)
    keep = ~drop
    reduced = AnnotationSet(
        n_instances=annotations.n_instances,
        n_annotators=annotations.n_annotators,
        n_labels=annotations.n_labels,
        instance_idx=annotations.instance_idx[keep],
        annotator_idx=annotations.annotator_idx[keep],
        label_idx=annotations.label_idx[keep],
        instance_ids=annotations.instance_ids,
        annotator_ids=annotations.annotator_ids,
    )
    return reduced, int(drop.sum()), int((per_instance == 1).sum())


def denoise_experiment(annotations: AnnotationSet, scores: np.ndarray,
                       aggregator: Callable[[AnnotationSet], np.ndarray],
                       gold: GoldLabels | np.ndarray) -> DenoiseResult:
    """Re-aggregate after removing each instance's least reliable annotation."""
    before = f1(aggregator(annotations), gold)
    reduced, n_removed, n_skipped = drop_least_reliable(annotations, scores)
    if n_skipped:
        warnings.warn(f"{n_skipped} instances had a single annotation and were left untouched")
    after = f1(aggregator(reduced), gold)
    return DenoiseResult(f1_before=before, f1_after=after,
                         n_removed=n_removed, n_skipped=n_skipped)


def report_to_text(report: ReliabilityReport, class_names: Sequence[str]) -> str:
    """Fixed-width rendering of a reliability report, one block per ranking end."""
    lines = []
    for side_name in ("top", "bottom"):
        lines.append(f"{side_name}-{report.k} instances by per-instance reliability")
        header = ["annotator", "n", "correct", "mean_rel"]
        header += [f"{name}(cor/mean)" for name in class_names]
        lines.append("  ".join(f"{h:>16}" for h in header))
        for entry in report.annotators:
            side: SideStats = getattr(entry, side_name)
            row = [entry.annotator_id, str(len(side.instance_indices)),
                   str(side.n_correct), f"{side.mean_reliability:.3f}"]
            for c in range(len(class_names)):
                stats = side.per_class.get(c)
                row.append("-" if stats is None
                           else f"{stats.n_correct}/{stats.mean_reliability:.2f}")
            lines.append("  ".join(f"{v:>16}" for v in row))
        lines.append("")
    return "\n".join(lines)
