"""Small feed-forward network engine with exact analytic gradients.

Fixed architecture: input -> hidden1 (ReLU) -> hidden2 (ReLU) -> output
head (row-wise softmax, or a single sigmoid unit). Everything runs in
float64; the softmax is log-sum-exp stabilized. Losses are soft-target
cross entropies whose normalizer is supplied by the caller, so the same
kernels serve per-example means and unnormalized sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_FLOOR = 1e-12


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
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    # keep strictly inside (0, 1): float64 saturates past |z| ~ 745
    return np.clip(out, PROB_FLOOR, 1.0 - PROB_FLOOR)


class PairInput:
    """Estimator input for (instance, annotator) pairs, without the one-hot.

    Row p stands for ``rows[p]`` joined to the one-hot of
    ``annotator_idx[p]`` over ``n_annotators`` columns, so its width is
    ``rows.shape[1] + n_annotators``. The first layer applies the
    annotator part as a row lookup into its weights, and memory stays
    O(P * h).
    """

    def __init__(self, rows: np.ndarray, annotator_idx: np.ndarray, n_annotators: int) -> None:
        rows = np.asarray(rows, dtype=np.float64)
        annotator_idx = np.asarray(annotator_idx, dtype=np.intp)
        if rows.ndim != 2 or annotator_idx.shape != (len(rows),):
            raise ValueError(f"rows {rows.shape} and annotator index {annotator_idx.shape} "
                             "do not pair up")
        if len(annotator_idx) and not (0 <= annotator_idx.min()
                                       and annotator_idx.max() < n_annotators):
            raise ValueError(f"annotator index outside [0, {n_annotators})")
        self.rows = rows
        self.annotator_idx = annotator_idx
        self.n_annotators = n_annotators
        self._scatter: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.rows.shape[1] + self.n_annotators

    def first_layer(self, w: np.ndarray, b: np.ndarray) -> np.ndarray:
        """x @ w + b: the rows' product plus each pair's annotator row of w."""
        h = self.rows.shape[1]
        z = self.rows @ w[:h]
        # b folded into the looked-up rows: one (P, width) temporary, added in place
        z += (w[h:] + b)[self.annotator_idx]
        return z

    def weight_grad(self, dz: np.ndarray) -> np.ndarray:
        """x.T @ dz: the rows' product, then a per-annotator sum of dz."""
        h, width = self.rows.shape[1], dz.shape[1]
        # the flat bin index depends only on the annotator ids and the width,
        # so it is built once per object, not once per backward pass
        index = self._scatter.get(width)
        if index is None:
            index = (self.annotator_idx[:, None] * width + np.arange(width)).ravel()
            self._scatter[width] = index
        grad = np.empty((h + self.n_annotators, width), dtype=np.float64)
        grad[:h] = self.rows.T @ dz
        grad[h:] = np.bincount(index, weights=dz.ravel(),
                               minlength=self.n_annotators * width).reshape(-1, width)
        return grad


def _forward_cache(params: FnnParams, x):
    if not isinstance(x, PairInput):
        x = np.asarray(x, dtype=np.float64)
    if len(x.shape) != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"input shape {x.shape} does not match input_dim {params.input_dim}")
    w1, b1 = params.weights[0], params.biases[0]
    h1 = x.first_layer(w1, b1) if isinstance(x, PairInput) else x @ w1 + b1
    # ReLU in place: the mask h > 0 equals z > 0, so z need not be kept
    np.maximum(h1, 0.0, out=h1)
    h2 = h1 @ params.weights[1] + params.biases[1]
    np.maximum(h2, 0.0, out=h2)
    z3 = h2 @ params.weights[2] + params.biases[2]
    if params.head == "softmax":
        probs = _softmax(z3)
    else:
        probs = _sigmoid(z3[:, 0])
    return x, h1, h2, probs


def forward(params: FnnParams, x: np.ndarray | PairInput) -> tuple[np.ndarray, np.ndarray]:
    """Return (probabilities, second-hidden-layer activations).

    ``x`` is a (B, input_dim) array or a ``PairInput`` of that shape.

    Softmax probabilities have shape (B, K); the sigmoid head yields a
    (B,) vector of Bernoulli success probabilities.
    """
    _, _, h2, probs = _forward_cache(params, x)
    return probs, h2


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
             normalizer: float) -> list[np.ndarray]:
    """Exact gradients of soft_ce_loss(forward(params, x), targets, normalizer).

    Returned in the order of ``params.arrays()``: W1, b1, W2, b2, W3, b3.
    For the softmax head each target row must sum to 1 (the output-layer
    delta below relies on it).
    """
    x, h1, h2, probs = _forward_cache(params, x)
    targets = np.asarray(targets, dtype=np.float64)
    if params.head == "softmax":
        dz3 = probs - targets
    else:
        dz3 = (probs - targets)[:, None]
    dz3 = dz3 / normalizer
    dw3 = h2.T @ dz3
    db3 = dz3.sum(axis=0)
    dh2 = dz3 @ params.weights[2].T
    dz2 = dh2 * (h2 > 0.0)
    dw2 = h1.T @ dz2
    db2 = dz2.sum(axis=0)
    dh1 = dz2 @ params.weights[1].T
    dz1 = dh1 * (h1 > 0.0)
    dw1 = x.weight_grad(dz1) if isinstance(x, PairInput) else x.T @ dz1
    db1 = dz1.sum(axis=0)
    return [dw1, db1, dw2, db2, dw3, db3]


@dataclass
class AdamState:
    """Adam moments plus coupled L2 weight decay and global-norm clipping.

    One state drives one parameter list; joint updates over several
    networks share a single state (and therefore a single clip norm).
    """

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.001
    clip_norm: float = 5.0
    eps: float = 1e-8
    step_count: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> list[np.ndarray]:
    """One in-place update: decay, clip by global L2 norm, then biased-corrected Adam."""
    if len(params) != len(grads):
        raise ValueError("parameter/gradient lists differ in length")
    if state.weight_decay:
        grads = [g + state.weight_decay * p for g, p in zip(grads, params)]
    total = np.sqrt(sum(float((g * g).sum()) for g in grads))
    if not np.isfinite(total):  # a non-finite entry, or squares that overflow
        raise FloatingPointError(f"non-finite gradient norm {total}")
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    if state.clip_norm and total > state.clip_norm:
        scale = state.clip_norm / total
        grads = [g * scale for g in grads]
    state.step_count += 1
    c1 = 1.0 - state.beta1 ** state.step_count
    c2 = 1.0 - state.beta2 ** state.step_count
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params


def fnn_to_dict(params: FnnParams) -> dict:
    """JSON-ready checkpoint: layer shapes and row-major values, versioned."""
    return {
        "format_version": 1,
        "head": params.head,
        "layers": [
            {"shape": list(w.shape), "weights": w.ravel().tolist(), "biases": b.tolist()}
            for w, b in zip(params.weights, params.biases)
        ],
    }


def fnn_from_dict(payload: dict) -> FnnParams:
    if payload.get("format_version") != 1:
        raise ValueError(f"unsupported checkpoint version {payload.get('format_version')!r}")
    weights, biases = [], []
    for layer in payload["layers"]:
        shape = tuple(layer["shape"])
        weights.append(np.array(layer["weights"], dtype=np.float64).reshape(shape))
        biases.append(np.array(layer["biases"], dtype=np.float64))
    return FnnParams(weights=weights, biases=biases, head=payload["head"])
