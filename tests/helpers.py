"""Independent oracles shared by the unit and acceptance tests.

Everything here recomputes expected values by direct enumeration or
textbook formulas, deliberately avoiding the code paths under test. The
one exception, ``posterior_table``, spreads ``posterior_from_priors``'s
two marginals into the full (pair, label, reliable) joint, so that both
can be held against the enumerated joint and fed to the loop oracles.
"""

from __future__ import annotations

import numpy as np

from crowdrel.baselines import DS_MAX_ITERS, DS_SMOOTHING, DS_TOL
from crowdrel.data import AnnotationSet
from crowdrel.model import posterior_from_priors
from crowdrel.neural import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    PROB_FLOOR,
    AdamState,
    FnnParams,
    PairInput,
    forward,
    soft_ce_loss,
)


def ids(prefix: str, n: int) -> tuple[str, ...]:
    """``n`` distinct ids: ``prefix`` followed by 0, 1, ..."""
    return tuple(f"{prefix}{k}" for k in range(n))


def make_annotations(triples: list[tuple[int, int, int]], n_instances: int,
                     n_annotators: int, n_labels: int) -> AnnotationSet:
    """The set of ``triples`` (instance, annotator, label) over instances i0, i1, ... and
    annotators a0, a1, ..."""
    ii, jj, ll = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    return AnnotationSet(ids("i", n_instances), ids("a", n_annotators), n_labels, ii, jj, ll)


def random_annotation_setup(rng: np.random.Generator, max_n: int = 20, max_m: int = 5,
                            max_k: int = 4):
    """Random priors + sparse annotations (every instance covered)."""
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    k = int(rng.integers(2, max_k + 1))
    keep = rng.random((n, m)) < 0.7
    keep[np.arange(n), rng.integers(0, m, size=n)] = True
    ii, jj = np.nonzero(keep)
    triples = [(int(i), int(j), int(rng.integers(0, k))) for i, j in zip(ii, jj)]
    ann = make_annotations(triples, n, m, k)
    label_prior = rng.dirichlet(np.ones(k), size=n)
    rel_prior = rng.uniform(0.01, 0.99, size=ann.n_pairs)
    return label_prior, rel_prior, ann


def annotator_onehot(annotator_idx: np.ndarray, n_annotators: int) -> np.ndarray:
    """(P, M) indicator of each pair's annotator."""
    out = np.zeros((len(annotator_idx), n_annotators), dtype=np.float64)
    out[np.arange(len(annotator_idx)), annotator_idx] = 1.0
    return out


def dense_pair_input(pairs) -> np.ndarray:
    """The (P, h + M) matrix a ``PairInput`` stands for: each pair's instance row joined to a
    one-hot annotator id."""
    return np.concatenate([pairs.rep[pairs.instance_idx],
                           annotator_onehot(pairs.annotator_idx, pairs.n_annotators)], axis=1)


def _full_width_index(pairs, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of entry (c, p) of a (width, P) array in (width, N) and (width, M)."""
    rows = np.arange(width)[:, None]
    return ((rows * len(pairs.rep) + pairs.instance_idx).ravel(),
            (rows * pairs.n_annotators + pairs.annotator_idx).ravel())


def flat_index_first_layer(pairs, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``PairInput.first_layer`` as one gather per table over a full-width index."""
    h, width = pairs.rep.shape[1], w.shape[1]
    by_instance, by_annotator = _full_width_index(pairs, width)
    z = (w[:h].T @ pairs.rep.T).ravel()[by_instance]
    z += np.ascontiguousarray((w[h:] + b).T).ravel()[by_annotator]
    return z.reshape(width, len(pairs))


def flat_index_weight_grad(pairs, dz: np.ndarray) -> np.ndarray:
    """``PairInput.weight_grad`` as one bincount per table over a full-width index."""
    h, width = pairs.rep.shape[1], dz.shape[0]
    n, m = len(pairs.rep), pairs.n_annotators
    by_instance, by_annotator = _full_width_index(pairs, width)
    per_instance = np.bincount(by_instance, weights=dz.ravel(), minlength=width * n)
    per_annotator = np.bincount(by_annotator, weights=dz.ravel(), minlength=width * m)
    return np.concatenate([pairs.rep.T @ per_instance.reshape(width, n).T,
                           per_annotator.reshape(width, m).T])


def _reference_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, PROB_FLOOR, 1.0 - PROB_FLOOR)


def _reference_cache(params: FnnParams, x):
    x = dense_pair_input(x) if isinstance(x, PairInput) else np.asarray(x, dtype=np.float64)
    h1 = np.maximum(x @ params.weights[0] + params.biases[0], 0.0)
    h2 = np.maximum(h1 @ params.weights[1] + params.biases[1], 0.0)
    z3 = h2 @ params.weights[2] + params.biases[2]
    if params.head == "softmax":
        shifted = z3 - z3.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
    else:
        probs = _reference_sigmoid(z3[:, 0])
    return x, h1, h2, probs


def reference_forward(params: FnnParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (B, width) forward pass; a ``PairInput`` is expanded to its dense matrix."""
    _, _, h2, probs = _reference_cache(params, x)
    return probs, h2


def reference_backward(params: FnnParams, x, targets: np.ndarray,
                       normalizer: float) -> list[np.ndarray]:
    """Row-major backward pass of the soft cross entropy, in the order of ``params.arrays()``."""
    x, h1, h2, probs = _reference_cache(params, x)
    targets = np.asarray(targets, dtype=np.float64)
    dz3 = (probs - targets) if params.head == "softmax" else (probs - targets)[:, None]
    dz3 = dz3 / normalizer
    dz2 = (dz3 @ params.weights[2].T) * (h2 > 0.0)
    dz1 = (dz2 @ params.weights[1].T) * (h1 > 0.0)
    return [x.T @ dz1, dz1.sum(axis=0), h1.T @ dz2, dz2.sum(axis=0), h2.T @ dz3, dz3.sum(axis=0)]


def reference_adam_step(params: list[np.ndarray], grads: list[np.ndarray],
                        state: AdamState) -> list[np.ndarray]:
    """Adam array by array; ``state.m``/``state.v`` hold one moment array per parameter."""
    if state.weight_decay:
        grads = [g + state.weight_decay * p for g, p in zip(grads, params)]
    total = np.sqrt(sum(float((g * g).sum()) for g in grads))
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    if state.clip_norm and total > state.clip_norm:
        scale = state.clip_norm / total
        grads = [g * scale for g in grads]
    state.step_count += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step_count
    c2 = 1.0 - ADAM_BETA2 ** state.step_count
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params


def emission_prob(annotated: int, true: int, reliable: int, n_labels: int) -> float:
    """p(annotation | true label, reliability): uniform when unreliable, delta when reliable."""
    if reliable:
        return 1.0 if annotated == true else 0.0
    return 1.0 / n_labels


def _instance_joint(label_prior: np.ndarray, rel_prior: np.ndarray, ann: AnnotationSet,
                    i: int) -> tuple[list[int], dict[tuple[int, int], float]]:
    """Instance i's pairs and its joint p(t, r_1..r_m, a) keyed by (t, reliability bits)."""
    k = label_prior.shape[1]
    pairs = [p for p in range(ann.n_pairs) if ann.instance_idx[p] == i]
    weights: dict[tuple[int, int], float] = {}
    for t in range(k):
        for bits in range(2 ** len(pairs)):
            w = label_prior[i, t]
            for q, p in enumerate(pairs):
                r = (bits >> q) & 1
                w *= rel_prior[p] if r else (1.0 - rel_prior[p])
                w *= emission_prob(int(ann.label_idx[p]), t, r, k)
            weights[(t, bits)] = w
    return pairs, weights


def brute_force_posteriors(label_prior: np.ndarray, rel_prior: np.ndarray,
                           ann: AnnotationSet) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate the joint p(t, r_1..r_m, a) per instance and marginalize.

    Returns (tables (P, K, 2), label_posterior (N, K)).
    """
    n, k = label_prior.shape
    tables = np.zeros((ann.n_pairs, k, 2))
    label_post = np.zeros((n, k))
    for i in range(n):
        pairs, weights = _instance_joint(label_prior, rel_prior, ann, i)
        total = sum(weights.values())
        for (t, bits), w in weights.items():
            label_post[i, t] += w / total
            for q, p in enumerate(pairs):
                tables[p, t, (bits >> q) & 1] += w / total
    return tables, label_post


def log_likelihood_oracle(label_prior: np.ndarray, rel_prior: np.ndarray,
                          ann: AnnotationSet) -> float:
    """log p(A | X): each instance's enumerated joint summed over (t, r_1..r_m), logged, summed."""
    return sum(float(np.log(sum(_instance_joint(label_prior, rel_prior, ann, i)[1].values())))
               for i in range(label_prior.shape[0]))


def finite_diff_grads(params: FnnParams, x: np.ndarray, targets: np.ndarray,
                      normalizer: float, h: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of the soft cross entropy, coordinate by coordinate."""
    grads = []
    for arr in params.arrays():
        grad = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = grad.ravel()
        for pos in range(flat.size):
            keep = flat[pos]
            flat[pos] = keep + h
            up = soft_ce_loss(forward(params, x)[0], targets, normalizer)
            flat[pos] = keep - h
            down = soft_ce_loss(forward(params, x)[0], targets, normalizer)
            flat[pos] = keep
            gflat[pos] = (up - down) / (2.0 * h)
        grads.append(grad)
    return grads


def max_relative_error(analytic: list[np.ndarray], numeric: list[np.ndarray],
                       floor: float = 1e-4) -> float:
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / scale).max()))
    return worst


def fleiss_kappa_oracle(count_table: np.ndarray) -> float:
    """Direct evaluation of the published kappa formula on an N x K count table."""
    counts = np.asarray(count_table, dtype=np.float64)
    n_instances, _ = counts.shape
    n_raters = counts[0].sum()
    p_i = [(row @ row - n_raters) / (n_raters * (n_raters - 1)) for row in counts]
    p_bar = sum(p_i) / n_instances
    p_j = counts.sum(axis=0) / (n_instances * n_raters)
    p_e = float(p_j @ p_j)
    return (p_bar - p_e) / (1.0 - p_e)


def krippendorff_alpha_oracle(units: list[list[int]]) -> float:
    """Pairwise nominal-disagreement formulation (no coincidence matrix)."""
    units = [u for u in units if len(u) > 1]
    n = sum(len(u) for u in units)
    d_obs = 0.0
    for unit in units:
        du = sum(1.0 for a in unit for b in unit if a != b)
        d_obs += du / (len(unit) - 1)
    d_obs /= n
    pooled = [v for unit in units for v in unit]
    d_exp = sum(1.0 for a in pooled for b in pooled if a != b) / (n * (n - 1))
    if d_exp == 0.0:
        return 1.0
    return 1.0 - d_obs / d_exp


def dawid_skene_oracle(ann: AnnotationSet):
    """Dawid-Skene EM by loops over the pairs.

    Starts from majority proportions, smooths the M step by
    ``DS_SMOOTHING`` and stops at the first likelihood plateau, soft-label
    change below ``DS_TOL`` or ``DS_MAX_ITERS`` iterations. Each sum runs
    over the pairs in order from zero and adds the smoothing or log prior
    last, as ``dawid_skene`` does: on symmetric panels the exact label ties
    are broken by rounding, which EM then amplifies, so only the same
    order gives the same labels. Returns (soft labels (N, K),
    confusion (M, K, K), log-likelihood trace, iterations).
    """
    n, m, k = ann.n_instances, ann.n_annotators, ann.n_labels
    triples = ann.triples()

    def m_step(soft):
        priors = soft.sum(axis=0) + DS_SMOOTHING
        priors /= priors.sum()
        confusion = np.zeros((m, k, k))
        for i, j, a in triples:
            for t in range(k):
                confusion[j, t, a] += soft[i, t]
        confusion += DS_SMOOTHING
        confusion /= confusion.sum(axis=2, keepdims=True)
        return priors, confusion

    def e_step(priors, confusion):
        log_conf = np.log(confusion)
        log_post = np.zeros((n, k))
        for i, j, a in triples:
            for t in range(k):
                log_post[i, t] += log_conf[j, t, a]
        log_post += np.log(priors)
        shift = log_post.max(axis=1, keepdims=True)
        totals = np.exp(log_post - shift).sum(axis=1, keepdims=True)
        return np.exp(log_post - shift) / totals, float((np.log(totals) + shift).sum())

    soft = np.zeros((n, k))
    for i, _, a in triples:
        soft[i, a] += 1.0
    soft /= soft.sum(axis=1, keepdims=True)
    priors, confusion = m_step(soft)
    trace: list[float] = []
    for iterations in range(1, DS_MAX_ITERS + 1):
        new_soft, log_lik = e_step(priors, confusion)
        if trace and log_lik <= trace[-1]:
            break
        trace.append(log_lik)
        delta = np.abs(new_soft - soft).max()
        soft = new_soft
        priors, confusion = m_step(soft)
        if delta < DS_TOL:
            break
    return soft, confusion, trace, iterations


def posterior_table(label_prior: np.ndarray, reliability_prior: np.ndarray,
                    annotations: AnnotationSet) -> np.ndarray:
    """The (n_pairs, n_labels, 2) joint posterior, built from ``posterior_from_priors``'s marginals.

    Entry [p, t, r] is the posterior that pair p's instance has label t
    and the annotation was produced reliably (r=1) or not. Reliable mass
    sits only on the annotated label: [p, a_p, 1] = rel_p. Since
    (p0/K + p1) / gamma_p(a_p) = 1 and gamma_p(t) = p0/K elsewhere, the
    unreliable mass is [p, t, 0] = post[i, t] for t != a_p and
    post[i, a_p] - rel_p at the annotated label.
    """
    post = posterior_from_priors(label_prior, reliability_prior, annotations)
    rel = post.reliability_posterior
    pairs = np.arange(annotations.n_pairs)
    table = np.zeros((annotations.n_pairs, label_prior.shape[1], 2), dtype=np.float64)
    table[:, :, 0] = post.label_posterior[annotations.instance_idx]
    table[pairs, annotations.label_idx, 0] -= rel
    table[pairs, annotations.label_idx, 1] = rel
    return table


def q_objective_oracle(label_prior: np.ndarray, rel_prior: np.ndarray,
                       tables: np.ndarray, ann: AnnotationSet) -> float:
    """Quadruple loop over (pair, t, r) plus the instance-prior term."""
    n, k = label_prior.shape
    label_post = np.zeros((n, k))
    first_pair = {}
    for p in range(ann.n_pairs):
        i = int(ann.instance_idx[p])
        if i not in first_pair:
            first_pair[i] = p
    for i, p in first_pair.items():
        for t in range(k):
            label_post[i, t] = tables[p, t, 0] + tables[p, t, 1]
    total = 0.0
    for i in range(n):
        for t in range(k):
            total += label_post[i, t] * np.log(max(label_prior[i, t], 1e-12))
    for p in range(ann.n_pairs):
        i = int(ann.instance_idx[p])
        a = int(ann.label_idx[p])
        for t in range(k):
            for r in (0, 1):
                pi = tables[p, t, r]
                if pi == 0.0:
                    continue
                prior_r = rel_prior[p] if r else 1.0 - rel_prior[p]
                total += pi * np.log(max(prior_r, 1e-12))
                emission = (1.0 if a == t else 0.0) if r else 1.0 / k
                total += pi * np.log(max(emission, 1e-12))
    return total


def least_reliable_oracle(ann: AnnotationSet, scores: np.ndarray) -> set[int]:
    """Positions of the pairs drop_least_reliable removes, by a loop over instances.

    Each instance with at least two annotations loses its lowest-scored
    one, ties going to the lowest annotator index.
    """
    by_instance: dict[int, list[int]] = {}
    for p in range(ann.n_pairs):
        by_instance.setdefault(int(ann.instance_idx[p]), []).append(p)
    return {min(pairs, key=lambda p: (scores[p], ann.annotator_idx[p]))
            for pairs in by_instance.values() if len(pairs) >= 2}


def reliability_report_oracle(scores: np.ndarray, ann: AnnotationSet, gold: np.ndarray,
                              k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, n_correct, mean_reliability) of reliability_report, by a loop over annotators.

    Each annotator's pairs are sorted on their own, by descending score
    (top) or ascending score (bottom), ties to the lower instance index,
    and the first k of each order are profiled.
    """
    m, width = ann.n_annotators, ann.n_labels + 1
    n = np.zeros((m, 2, width), dtype=np.int64)
    n_correct = np.zeros((m, 2, width), dtype=np.int64)
    mean = np.full((m, 2, width), np.nan)
    for j in range(m):
        pair_pos = np.flatnonzero(ann.annotator_idx == j)
        inst = ann.instance_idx[pair_pos]
        for side, key in enumerate((-scores[pair_pos], scores[pair_pos])):
            sel = pair_pos[np.lexsort((inst, key))[:k]]
            sel_gold = gold[ann.instance_idx[sel]]
            correct = (sel_gold >= 0) & (ann.label_idx[sel] == sel_gold)
            columns = [(c, sel_gold == c) for c in range(ann.n_labels)]
            for c, in_cell in columns + [(ann.n_labels, np.ones(len(sel), dtype=bool))]:
                n[j, side, c] = in_cell.sum()
                n_correct[j, side, c] = (correct & in_cell).sum()
                if in_cell.any():
                    mean[j, side, c] = scores[sel][in_cell].mean()
    return n, n_correct, mean
