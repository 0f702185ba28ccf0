"""Label aggregation baselines: majority voting and Dawid-Skene EM.

Both also serve as pre-training label sources for the reliability model.
N, M and K come from the ``AnnotationSet``, whose indices are in range, so
every per-instance or per-annotator sum is one ``np.bincount`` over (P,)
keys. Ties go to the lowest label index. Dawid-Skene smooths its M step by
``DS_SMOOTHING`` and stops after ``DS_MAX_ITERS`` iterations or earlier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AnnotationSet, DataError

DS_SMOOTHING = 1e-2
DS_MAX_ITERS = 100
DS_TOL = 1e-6


def vote_counts(annotations: AnnotationSet) -> np.ndarray:
    """(N, K) number of each instance's annotations that carry each label."""
    n, k = annotations.n_instances, annotations.n_labels
    keys = annotations.instance_idx * k + annotations.label_idx
    return np.bincount(keys, minlength=n * k).reshape(n, k).astype(np.float64)


def majority_vote(annotations: AnnotationSet) -> np.ndarray:
    """Per-instance plurality label; ties go to the lowest label index."""
    return vote_fractions(annotations).argmax(axis=1)


def vote_fractions(annotations: AnnotationSet) -> np.ndarray:
    """Per-instance label proportions (each row sums to 1); each instance needs an annotation."""
    counts = vote_counts(annotations)
    totals = counts.sum(axis=1, keepdims=True)
    uncovered = np.flatnonzero(totals == 0)
    if uncovered.size:
        i = int(uncovered[0])
        name = repr(annotations.instance_ids[i]) if annotations.instance_ids else i
        raise DataError(f"instance {name} has no annotations")
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


def _ds_m_step(annotations: AnnotationSet, cells: np.ndarray, soft: np.ndarray) -> DsModel:
    """Smoothed MAP priors and confusions; ``cells`` is each pair's annotator * K + label."""
    m, k = annotations.n_annotators, annotations.n_labels
    priors = soft.sum(axis=0) + DS_SMOOTHING
    priors /= priors.sum()
    confusion = np.stack([np.bincount(cells, weights=soft[annotations.instance_idx, t],
                                      minlength=m * k).reshape(m, k) for t in range(k)], axis=1)
    confusion += DS_SMOOTHING
    confusion /= confusion.sum(axis=2, keepdims=True)
    return DsModel(class_priors=priors, confusion=confusion)


def _ds_e_step(annotations: AnnotationSet, cells: np.ndarray,
               model: DsModel) -> tuple[np.ndarray, float]:
    """Soft labels (N, K) and marginal log likelihood under ``model``."""
    n, k = annotations.n_instances, annotations.n_labels
    log_conf = np.log(model.confusion.swapaxes(0, 1)).reshape(k, -1)  # [true, cell]
    log_post = np.stack([np.bincount(annotations.instance_idx, weights=log_conf[t, cells],
                                     minlength=n) for t in range(k)], axis=1)
    log_post += np.log(model.class_priors)
    shift = log_post.max(axis=1, keepdims=True)
    expd = np.exp(log_post - shift)
    totals = expd.sum(axis=1, keepdims=True)
    return expd / totals, float((np.log(totals) + shift).sum())


def dawid_skene(annotations: AnnotationSet) -> DsResult:
    """Classic EM aggregation with per-annotator confusion matrices.

    Soft labels start from majority proportions; iteration stops when the
    largest soft-label change drops below ``DS_TOL``, the marginal log
    likelihood stops improving, or ``DS_MAX_ITERS`` is hit. The smoothing
    makes this MAP-flavoured EM, so the likelihood plateau (rather than
    an exact fixed point) is the convergence signal; the recorded
    likelihood trace is non-decreasing by construction.
    """
    cells = annotations.annotator_idx * annotations.n_labels + annotations.label_idx
    soft = vote_fractions(annotations)
    trace: list[float] = []
    model = _ds_m_step(annotations, cells, soft)
    for iterations in range(1, DS_MAX_ITERS + 1):
        new_soft, log_lik = _ds_e_step(annotations, cells, model)
        if trace and log_lik <= trace[-1]:
            break  # plateau: the smoothing penalty now dominates the updates
        trace.append(log_lik)
        delta = float(np.abs(new_soft - soft).max())
        soft = new_soft
        model = _ds_m_step(annotations, cells, soft)
        if delta < DS_TOL:
            break
    return DsResult(model=model, soft_labels=soft, hard_labels=soft.argmax(axis=1),
                    log_likelihood=trace, n_iterations=iterations)
