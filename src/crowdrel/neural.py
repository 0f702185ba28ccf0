"""Small feed-forward network engine with exact analytic gradients.

Fixed architecture: input -> hidden1 (ReLU) -> hidden2 (ReLU) -> output
head (softmax over the outputs, or a single sigmoid unit). Everything runs
in float64; the softmax is log-sum-exp stabilized. Losses are soft-target
cross entropies whose normalizer is supplied by the caller, so the same
kernels serve per-example means and unnormalized sums.

The layers are narrow (a handful of units) and the batches long, so the
kernels keep activations feature-major, as (width, B): every product is
``W.T @ Z`` or ``W @ dZ`` over long contiguous rows, and every bias
gradient sums a contiguous row. ``forward`` and ``backward`` still take
and return batch-major arrays; the outputs are transposed views.

A ``PairInput`` is the estimator's input for (instance, annotator) pairs,
a read-only value whose gathers and scatters read the two pair index
arrays directly, so memory is O(N * h + width * P). The training loop
owns the buffers of its pass: ``backward`` given a workspace dict takes
both hidden layers' (width, P) float buffers and their (width, P) bool
ReLU mask from it, making each on its first request, so a loop that keeps
one workspace per input allocates no (width, P) array after its first
step. ``forward``, and ``backward`` without a workspace, make fresh
arrays, so nothing they return is overwritten later. Threads may share a
``PairInput`` but not a workspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_FLOOR = 1e-12
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class FnnParams:
    """Layer weights/biases plus the output head ("softmax" or "sigmoid")."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: str

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def arrays(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


def init_fnn(input_dim: int, hidden1: int, hidden2: int, output_dim: int,
             head: str, rng: np.random.Generator) -> FnnParams:
    """Glorot-uniform weights, zero biases."""
    if head not in ("softmax", "sigmoid"):
        raise ValueError(f"unknown head {head!r}")
    if head == "sigmoid" and output_dim != 1:
        raise ValueError("sigmoid head requires a single output unit")
    sizes = [input_dim, hidden1, hidden2, output_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return FnnParams(weights=weights, biases=biases, head=head)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the rows of a feature-major (K, B) array, in place."""
    z -= z.max(axis=0)
    np.exp(z, out=z)
    z /= z.sum(axis=0)
    return z


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # with e = exp(-|z|) <= 1 nothing overflows, and both branches are exact:
    # 1/(1+e) for z >= 0 and e/(1+e) for z < 0
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0.0, 1.0, e)
    e += 1.0
    out /= e
    # keep strictly inside (0, 1): float64 saturates past |z| ~ 745
    return np.clip(out, PROB_FLOOR, 1.0 - PROB_FLOOR, out=out)


class PairInput:
    """Estimator input for (instance, annotator) pairs, without gathering or one-hot.

    Pair p stands for the row ``rep[instance_idx[p]]`` joined to the
    one-hot of ``annotator_idx[p]`` over ``n_annotators`` columns, so its
    width is ``rep.shape[1] + n_annotators``. ``rep`` is the (N, h)
    per-instance representation. The first layer multiplies ``rep`` once
    per instance, then gathers the product per pair and adds the
    annotator's row of the weights. Its outputs are feature-major,
    (width, P), like every activation in this module.

    It holds nothing but the three arrays and ``n_annotators``, and no
    pass writes to it: ``first_layer`` writes into the buffers it is
    given, so threads may share one input.
    """

    def __init__(self, rep: np.ndarray, instance_idx: np.ndarray, annotator_idx: np.ndarray,
                 n_annotators: int) -> None:
        rep = np.asarray(rep, dtype=np.float64)
        instance_idx = np.asarray(instance_idx, dtype=np.intp)
        annotator_idx = np.asarray(annotator_idx, dtype=np.intp)
        if rep.ndim != 2 or instance_idx.ndim != 1 or annotator_idx.shape != instance_idx.shape:
            raise ValueError(f"representation {rep.shape}, instance index {instance_idx.shape} "
                             f"and annotator index {annotator_idx.shape} do not pair up")
        for name, idx, bound in (("instance", instance_idx, len(rep)),
                                 ("annotator", annotator_idx, n_annotators)):
            if len(idx) and not (0 <= idx.min() and idx.max() < bound):
                raise ValueError(f"{name} index outside [0, {bound})")
        self.rep = rep
        self.instance_idx = instance_idx
        self.annotator_idx = annotator_idx
        self.n_annotators = n_annotators

    def __len__(self) -> int:
        return len(self.instance_idx)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.rep.shape[1] + self.n_annotators

    def first_layer(self, w: np.ndarray, b: np.ndarray, z: np.ndarray,
                    rows: np.ndarray) -> np.ndarray:
        """(x @ w + b).T into ``z``: the per-instance product gathered per pair, plus each
        annotator's row; ``rows`` (as wide as ``z``) is scratch for those rows."""
        h = self.rep.shape[1]
        # mode="clip" writes straight into out (the default buffers it); the
        # indices were range-checked in __init__, so nothing is clipped
        np.take(w[:h].T @ self.rep.T, self.instance_idx, axis=1, out=z, mode="clip")
        np.take((w[h:] + b).T, self.annotator_idx, axis=1, out=rows, mode="clip")
        z += rows
        return z

    def weight_grad(self, dz: np.ndarray) -> np.ndarray:
        """x.T @ dz.T for a (width, P) dz: sums of dz per instance and per annotator."""
        h, width = self.rep.shape[1], dz.shape[0]
        n, m = len(self.rep), self.n_annotators
        per_instance = np.empty((width, n), dtype=np.float64)
        grad = np.empty((h + m, width), dtype=np.float64)
        # every bin sums its pairs in increasing p; np.add.reduceat over a sorted
        # permutation was 1.1 to 3.7 times slower at every benchmark shape
        for row in range(width):
            per_instance[row] = np.bincount(self.instance_idx, weights=dz[row], minlength=n)
            grad[h:, row] = np.bincount(self.annotator_idx, weights=dz[row], minlength=m)
        grad[:h] = self.rep.T @ per_instance.T
        return grad


def _buffer(work: dict | None, name: str, shape: tuple[int, int], dtype=np.float64):
    """The array ``name`` of this shape in ``work``, made on its first request; fresh without one."""
    if work is None:
        return np.empty(shape, dtype=dtype)
    buf = work.get((name, shape))
    if buf is None:
        buf = work[name, shape] = np.empty(shape, dtype=dtype)
    return buf


def _forward_cache(params: FnnParams, x, work: dict | None = None):
    """Feature-major activations (width, B) of both hidden layers and the output probabilities.

    Softmax probabilities are (K, B); the sigmoid head gives (B,). Both
    hidden layers are buffers of ``work`` when one is given.
    """
    if not isinstance(x, PairInput):
        x = np.asarray(x, dtype=np.float64)
    if len(x.shape) != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"input shape {x.shape} does not match input_dim {params.input_dim}")
    (w1, w2, w3), (b1, b2, b3) = params.weights, params.biases
    if isinstance(x, PairInput):
        # the annotator rows, b1 folded in, go to layer 2's buffer as scratch
        # (its product's own when both layers are equally wide, as here)
        shape = (w1.shape[1], len(x))
        h1 = x.first_layer(w1, b1, _buffer(work, "layer1", shape), _buffer(work, "layer2", shape))
    else:
        h1 = w1.T @ x.T
        h1 += b1[:, None]
    # ReLU in place: the mask h > 0 equals z > 0, so z need not be kept
    np.maximum(h1, 0.0, out=h1)
    h2 = np.matmul(w2.T, h1, out=_buffer(work, "layer2", (w2.shape[1], h1.shape[1])))
    h2 += b2[:, None]
    np.maximum(h2, 0.0, out=h2)
    z3 = w3.T @ h2
    z3 += b3[:, None]
    probs = _softmax(z3) if params.head == "softmax" else _sigmoid(z3[0])
    return x, h1, h2, probs


def forward(params: FnnParams, x: np.ndarray | PairInput) -> tuple[np.ndarray, np.ndarray]:
    """Return (probabilities, second-hidden-layer activations).

    ``x`` is a (B, input_dim) array or a ``PairInput`` of that shape.

    Softmax probabilities have shape (B, K); the sigmoid head yields a
    (B,) vector of Bernoulli success probabilities. The hidden output is
    (B, width). Both 2-d outputs are transposed views of fresh
    feature-major arrays, which no later pass overwrites.
    """
    _, _, h2, probs = _forward_cache(params, x)
    return (probs.T if probs.ndim == 2 else probs), h2.T


def soft_ce_loss(probs: np.ndarray, targets: np.ndarray, normalizer: float) -> float:
    """Cross entropy against soft targets, divided by the caller's normalizer.

    2-d ``probs`` are categorical rows matched against target distributions;
    1-d ``probs`` are Bernoulli probabilities matched against target success
    probabilities. Probabilities are floored at 1e-12 inside the logs.
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if probs.ndim == 2:
        per_row = -(targets * np.log(np.maximum(probs, PROB_FLOOR))).sum(axis=1)
    else:
        per_row = -(targets * np.log(np.maximum(probs, PROB_FLOOR))
                    + (1.0 - targets) * np.log(np.maximum(1.0 - probs, PROB_FLOOR)))
    return float(per_row.sum() / normalizer)


def backward(params: FnnParams, x: np.ndarray | PairInput, targets: np.ndarray,
             normalizer: float, work: dict | None = None) -> list[np.ndarray]:
    """Exact gradients of soft_ce_loss(forward(params, x), targets, normalizer).

    Returned in the order of ``params.arrays()``: W1, b1, W2, b2, W3, b3.
    For the softmax head each target row must sum to 1 (the output-layer
    delta below relies on it). ``work`` is a dict that holds the pass's
    (width, B) buffers from one call to the next; without it every pass
    makes fresh ones.
    """
    x, h1, h2, probs = _forward_cache(params, x, work)
    targets = np.asarray(targets, dtype=np.float64)
    # each delta overwrites its layer's output once that is used up, so a pass
    # allocates no (width, B) float array beyond the forward's, and nothing of
    # that size past the first pass that shares ``work``
    dz3 = probs if params.head == "softmax" else probs[None, :]
    dz3 -= targets.T
    dz3 /= normalizer
    _, w2, w3 = params.weights
    dw3 = h2 @ dz3.T
    db3 = dz3.sum(axis=1)
    # one mask buffer per width serves both layers: the second's is used up
    # before the first's is written
    active = np.greater(h2, 0.0, out=_buffer(work, "mask", h2.shape, bool))
    # np.dot, not matmul: numpy's matmul leaves BLAS when the inner dimension is 1
    dz2 = np.dot(w3, dz3, out=h2)
    dz2 *= active
    dw2 = h1 @ dz2.T
    db2 = dz2.sum(axis=1)
    active = np.greater(h1, 0.0, out=_buffer(work, "mask", h1.shape, bool))
    dz1 = np.matmul(w2, dz2, out=h1)
    dz1 *= active
    dw1 = x.weight_grad(dz1) if isinstance(x, PairInput) else x.T @ dz1.T
    db1 = dz1.sum(axis=1)
    return [dw1, db1, dw2, db2, dw3, db3]


@dataclass
class AdamState:
    """Adam moments plus coupled L2 weight decay and global-norm clipping.

    One state drives one parameter list; joint updates over several
    networks share a single state (and therefore a single clip norm).
    ``m`` and ``v`` are flat vectors over the list's arrays, in order.
    The three settings come from ``TrainConfig``, which holds their defaults.
    """

    learning_rate: float
    weight_decay: float
    clip_norm: float
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> list[np.ndarray]:
    """One in-place update: decay, clip by global L2 norm, then biased-corrected Adam.

    The list's gradients are updated as one flat vector; each array only
    receives its slice of the final step.
    """
    if len(params) != len(grads):
        raise ValueError("parameter/gradient lists differ in length")
    g = np.concatenate([grad.ravel() for grad in grads])
    if state.weight_decay:
        g += state.weight_decay * np.concatenate([p.ravel() for p in params])
    total = np.sqrt(g @ g)
    if not np.isfinite(total):  # a non-finite entry, or squares that overflow
        raise FloatingPointError(f"non-finite gradient norm {total}")
    if state.m is None:
        state.m = np.zeros_like(g)
        state.v = np.zeros_like(g)
    if state.clip_norm and total > state.clip_norm:
        g *= state.clip_norm / total
    state.step_count += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step_count
    c2 = 1.0 - ADAM_BETA2 ** state.step_count
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    step = state.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    start = 0
    for p in params:
        p -= step[start:start + p.size].reshape(p.shape)
        start += p.size
    return params

