"""Label aggregation baselines: majority voting and Dawid-Skene EM.

Both also serve as pre-training label sources for the reliability model.
Ties are always broken toward the lowest label index so results are
deterministic; Dawid-Skene uses additive smoothing 1e-2 in its M step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AnnotationSet

DS_SMOOTHING = 1e-2


def vote_counts(annotations: AnnotationSet, n_labels: int) -> np.ndarray:
    counts = np.zeros((annotations.n_instances, n_labels), dtype=np.float64)
    np.add.at(counts, (annotations.instance_idx, annotations.label_idx), 1.0)
    return counts


def majority_vote(annotations: AnnotationSet, n_labels: int) -> np.ndarray:
    """Per-instance plurality label; ties go to the lowest label index."""
    counts = vote_counts(annotations, n_labels)
    uncovered = np.flatnonzero(counts.sum(axis=1) == 0)
    if uncovered.size:
        raise ValueError(f"instance {int(uncovered[0])} has no annotations")
    return counts.argmax(axis=1)


def vote_fractions(annotations: AnnotationSet, n_labels: int) -> np.ndarray:
    """Per-instance label proportions (each row sums to 1)."""
    counts = vote_counts(annotations, n_labels)
    totals = counts.sum(axis=1, keepdims=True)
    if np.any(totals == 0):
        raise ValueError("every instance needs at least one annotation")
    return counts / totals


@dataclass
class DsModel:
    """Class priors and per-annotator confusion matrices [true, observed]."""

    class_priors: np.ndarray
    confusion: np.ndarray


@dataclass
class DsResult:
    model: DsModel
    soft_labels: np.ndarray
    hard_labels: np.ndarray
    log_likelihood: list[float]
    n_iterations: int


def _ds_m_step(annotations: AnnotationSet, n_labels: int, soft: np.ndarray) -> DsModel:
    n, m = annotations.n_instances, annotations.n_annotators
    priors = soft.sum(axis=0) + DS_SMOOTHING
    priors /= priors.sum()
    confusion = np.full((m, n_labels, n_labels), DS_SMOOTHING, dtype=np.float64)
    np.add.at(
        confusion,
        (annotations.annotator_idx, slice(None), annotations.label_idx),
        soft[annotations.instance_idx],
    )
    confusion /= confusion.sum(axis=2, keepdims=True)
    return DsModel(class_priors=priors, confusion=confusion)


def _ds_log_posterior(annotations: AnnotationSet, model: DsModel) -> np.ndarray:
    log_post = np.tile(np.log(model.class_priors), (annotations.n_instances, 1))
    contrib = np.log(model.confusion[annotations.annotator_idx, :, annotations.label_idx])
    np.add.at(log_post, annotations.instance_idx, contrib)
    return log_post


def _normalize_log(log_post: np.ndarray) -> tuple[np.ndarray, float]:
    shift = log_post.max(axis=1, keepdims=True)
    expd = np.exp(log_post - shift)
    totals = expd.sum(axis=1, keepdims=True)
    log_lik = float((np.log(totals) + shift).sum())
    return expd / totals, log_lik


def dawid_skene(annotations: AnnotationSet, n_labels: int,
                max_iters: int = 100, tol: float = 1e-6) -> DsResult:
    """Classic EM aggregation with per-annotator confusion matrices.

    Soft labels start from majority proportions; iteration stops when the
    largest soft-label change drops below ``tol``, the marginal log
    likelihood stops improving, or ``max_iters`` is hit. The smoothing
    makes this MAP-flavoured EM, so the likelihood plateau (rather than
    an exact fixed point) is the convergence signal; the recorded
    likelihood trace is non-decreasing by construction.
    """
    soft = vote_fractions(annotations, n_labels)
    trace: list[float] = []
    model = _ds_m_step(annotations, n_labels, soft)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        new_soft, log_lik = _normalize_log(_ds_log_posterior(annotations, model))
        if trace and log_lik <= trace[-1]:
            break  # plateau: the smoothing penalty now dominates the updates
        trace.append(log_lik)
        delta = float(np.abs(new_soft - soft).max())
        soft = new_soft
        model = _ds_m_step(annotations, n_labels, soft)
        if delta < tol:
            break
    hard = soft.argmax(axis=1)
    return DsResult(model=model, soft_labels=soft, hard_labels=hard,
                    log_likelihood=trace, n_iterations=iterations)

