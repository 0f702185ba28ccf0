import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    finite_diff_grads,
    flat_index_first_layer,
    flat_index_weight_grad,
    max_relative_error,
    reference_adam_step,
    reference_backward,
    reference_forward,
)
from crowdrel.data import DataError, LabelSet
from crowdrel.model import ModelState, TrainConfig, load_model, save_model
from crowdrel.neural import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    PROB_FLOOR,
    AdamState,
    PairInput,
    _sigmoid,
    adam_step,
    backward,
    forward,
    init_fnn,
    soft_ce_loss,
)


def zeroed(input_dim, h1, h2, out, head):
    params = init_fnn(input_dim, h1, h2, out, head, np.random.default_rng(0))
    for w in params.weights:
        w[:] = 0.0
    return params


def random_net(rng, head="softmax", out=None):
    d, h1, h2 = (int(rng.integers(1, 5)) for _ in range(3))
    k = 1 if head == "sigmoid" else (out or int(rng.integers(2, 4)))
    params = init_fnn(d, h1, h2, k, head, rng)
    for b in params.biases:
        b[:] = rng.normal(0, 0.3, size=b.shape)
    return params


def random_targets(rng, batch, params):
    if params.head == "softmax":
        return rng.dirichlet(np.ones(params.weights[-1].shape[1]), size=batch)
    return rng.uniform(0.05, 0.95, size=batch)


class TestForward:
    def test_zero_weights_softmax_is_uniform(self):
        params = zeroed(3, 4, 4, 5, "softmax")
        probs, hidden = forward(params, np.random.default_rng(1).normal(size=(7, 3)))
        np.testing.assert_allclose(probs, 0.2, atol=1e-15)
        assert hidden.shape == (7, 4)

    def test_zero_weights_sigmoid_is_half(self):
        params = zeroed(3, 4, 4, 1, "sigmoid")
        probs, _ = forward(params, np.zeros((2, 3)))
        np.testing.assert_allclose(probs, 0.5)

    def test_matches_stepwise_matrix_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            params = random_net(rng)
            x = rng.normal(size=(int(rng.integers(1, 6)), params.input_dim))
            probs, hidden = forward(params, x)
            a = np.maximum(x @ params.weights[0] + params.biases[0], 0.0)
            b = np.maximum(a @ params.weights[1] + params.biases[1], 0.0)
            z = b @ params.weights[2] + params.biases[2]
            expected = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            np.testing.assert_allclose(probs, expected, atol=1e-12)
            np.testing.assert_allclose(hidden, b, atol=1e-12)

    def test_softmax_rows_normalized_for_extreme_inputs(self):
        params = zeroed(2, 3, 3, 4, "softmax")
        params.weights[2][:] = 500.0  # would overflow an unshifted exp
        params.weights[0][:] = 1.0
        params.weights[1][:] = 1.0
        probs, _ = forward(params, np.array([[1000.0, 1000.0], [-1000.0, 0.0]]))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(np.isfinite(probs))

    def test_sigmoid_stays_in_open_interval(self):
        params = zeroed(1, 2, 2, 1, "sigmoid")
        params.weights[0][:] = 1.0
        params.weights[1][:] = 1.0
        params.weights[2][:] = -300.0
        probs, _ = forward(params, np.array([[500.0], [0.0]]))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_shape_mismatch_raises(self):
        params = zeroed(3, 2, 2, 2, "softmax")
        with pytest.raises(ValueError):
            forward(params, np.zeros((1, 4)))

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(5)
        params = random_net(rng)
        x = rng.normal(size=(4, params.input_dim))
        first, _ = forward(params, x)
        second, _ = forward(params, x)
        assert np.array_equal(first, second)


def assert_matches_reference(params, x, targets):
    for got, want in zip(forward(params, x), reference_forward(params, x)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    got = backward(params, x, targets, 3.0)
    want = reference_backward(params, x, targets, 3.0)
    for g, w, arr in zip(got, want, params.arrays()):
        assert g.shape == w.shape == arr.shape
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


class TestFeatureMajorKernels:
    """The feature-major kernels against the row-major reference in helpers."""

    @given(seed=st.integers(0, 2**32 - 1), head=st.sampled_from(["softmax", "sigmoid"]),
           batch=st.integers(1, 9), width=st.integers(1, 6), k=st.integers(2, 4))
    @example(seed=0, head="softmax", batch=1, width=1, k=2)
    @example(seed=1, head="sigmoid", batch=1, width=1, k=2)
    @example(seed=2, head="softmax", batch=7, width=3, k=4)
    @settings(max_examples=60, deadline=None)
    def test_dense_input_matches_row_major(self, seed, head, batch, width, k):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        params = init_fnn(d, width, int(rng.integers(1, 6)), 1 if head == "sigmoid" else k,
                          head, rng)
        for b in params.biases:
            b[:] = rng.normal(0.0, 0.3, size=b.shape)
        x = rng.normal(size=(batch, params.input_dim))
        assert_matches_reference(params, x, random_targets(rng, batch, params))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), n_pairs=st.integers(1, 8),
           m=st.integers(1, 12), width=st.integers(1, 5),
           layout=st.sampled_from(["transposed", "row-major"]))
    @example(seed=0, n=2, n_pairs=1, m=1, width=1, layout="transposed")
    @example(seed=1, n=4, n_pairs=3, m=9, width=2, layout="row-major")
    @example(seed=2, n=3, n_pairs=8, m=1, width=5, layout="transposed")
    @settings(max_examples=60, deadline=None)
    def test_pair_input_matches_row_major(self, seed, n, n_pairs, m, width, layout):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3))
        classifier = init_fnn(3, 4, 3, 2, "softmax", rng)
        # the classifier's hidden output is a transposed view; its copy is row-major
        rep = forward(classifier, x)[1]
        if layout == "row-major":
            rep = np.ascontiguousarray(rep)
        # the last instance is never used, and with two or more pairs one repeats
        instance_idx = rng.integers(0, n - 1, size=n_pairs)
        instance_idx[-1] = instance_idx[0]
        pairs = PairInput(rep, instance_idx, rng.integers(0, m, size=n_pairs), m)
        params = init_fnn(rep.shape[1] + m, width, int(rng.integers(1, 5)), 1, "sigmoid", rng)
        for b in params.biases:
            b[:] = rng.normal(0.0, 0.3, size=b.shape)
        assert_matches_reference(params, pairs, rng.uniform(0.05, 0.95, size=n_pairs))


class TestSigmoid:
    def test_exact_in_both_tails(self):
        z = np.array([-745.0, -40.0, -20.0, 0.0, 20.0, 40.0, 745.0])
        got = _sigmoid(z.copy())
        assert np.all(got > 0.0) and np.all(got < 1.0)
        for value, out in zip(z, got):
            e = math.exp(-abs(value))
            want = 1.0 / (1.0 + e) if value >= 0 else e / (1.0 + e)
            if PROB_FLOOR < want < 1.0 - PROB_FLOOR:
                assert abs(out - want) <= 1e-15 * want, value
            else:
                assert out == min(max(want, PROB_FLOOR), 1.0 - PROB_FLOOR), value


class TestPairInput:
    def test_mismatched_pair_input_is_a_value_error(self):
        rng = np.random.default_rng(3)
        params = init_fnn(2 + 3, 4, 4, 1, "sigmoid", rng)
        rep = rng.normal(size=(3, 2))
        instances = [0, 1, 2, 1]
        targets = rng.uniform(size=4)
        # h + M differs from the network's input width
        for pairs in (PairInput(rep, instances, [0, 1, 2, 3], 4),
                      PairInput(rep[:, :1], instances, [0, 1, 2, 0], 3)):
            with pytest.raises(ValueError, match="does not match input_dim"):
                forward(params, pairs)
            with pytest.raises(ValueError, match="does not match input_dim"):
                backward(params, pairs, targets, 4.0)
        # an index outside [0, M) would raise IndexError or read another annotator's row
        for idx in ([0, 1, 3, 0], [0, -1, 2, 0]):
            with pytest.raises(ValueError, match="annotator index"):
                forward(params, PairInput(rep, instances, idx, 3))
        # likewise an index outside [0, N) for the instance's representation row
        for idx in ([0, 1, 3, 0], [0, -1, 2, 0]):
            with pytest.raises(ValueError, match="instance index"):
                forward(params, PairInput(rep, idx, [0, 1, 2, 0], 3))
        with pytest.raises(ValueError):
            PairInput(rep, instances, [0, 1, 2], 3)


class TestPairInputBuffers:
    """A workspace carries a pass's (width, P) buffers from one backward to the next."""

    @given(seed=st.integers(0, 2**32 - 1), head=st.sampled_from(["softmax", "sigmoid"]),
           n_pairs=st.integers(1, 8), m=st.integers(1, 5),
           widths=st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)), min_size=1,
                           max_size=5))
    @example(seed=0, head="sigmoid", n_pairs=5, m=3, widths=[(3, 3), (2, 3), (3, 3), (3, 2)])
    @example(seed=1, head="softmax", n_pairs=1, m=1, widths=[(1, 1), (1, 1)])
    # widths changing on one workspace, equal and unequal across the two layers
    @example(seed=2, head="sigmoid", n_pairs=7, m=4, widths=[(8, 8), (9, 9), (16, 8), (17, 17)])
    @example(seed=3, head="softmax", n_pairs=6, m=2, widths=[(17, 9), (8, 16), (3, 17), (17, 17)])
    @settings(max_examples=60, deadline=None)
    def test_reused_buffers_are_never_stale_or_aliased(self, seed, head, n_pairs, m, widths):
        rng = np.random.default_rng(seed)
        n, h = 4, 3
        pairs = PairInput(rng.normal(size=(n, h)), rng.integers(0, n, size=n_pairs),
                          rng.integers(0, m, size=n_pairs), m)
        k = 1 if head == "sigmoid" else 3
        work = {}
        outputs = []
        for width1, width2 in widths:
            params = init_fnn(h + m, width1, width2, k, head, rng)
            for _ in range(2):
                for arr in params.arrays():
                    arr += rng.normal(0.0, 0.3, size=arr.shape)
                targets = random_targets(rng, n_pairs, params)
                got = backward(params, pairs, targets, 3.0, work)
                want = reference_backward(params, pairs, targets, 3.0)
                for g, w in zip(got, want):
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
                probs, hidden = forward(params, pairs)
                for g, w in zip((probs, hidden), reference_forward(params, pairs)):
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
                outputs.append((probs, hidden, probs.copy(), hidden.copy()))
        # later passes overwrite the workspace, never what forward returned
        for probs, hidden, probs_then, hidden_then in outputs:
            assert np.array_equal(probs, probs_then) and np.array_equal(hidden, hidden_then)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), n_pairs=st.integers(1, 12),
           m=st.integers(1, 5), widths=st.lists(st.integers(1, 20), min_size=1, max_size=4))
    @example(seed=0, n=4, n_pairs=9, m=3, widths=[8, 9, 16, 17, 1, 17])
    @example(seed=1, n=1, n_pairs=1, m=1, widths=[20, 7, 8])
    @example(seed=2, n=30, n_pairs=200, m=4, widths=[100, 3, 100])
    @settings(max_examples=60, deadline=None)
    def test_first_layer_and_weight_grad_equal_a_full_width_index_exactly(self, seed, n, n_pairs,
                                                                           m, widths):
        rng = np.random.default_rng(seed)
        h = 3
        pairs = PairInput(rng.normal(size=(n, h)), rng.integers(0, n, size=n_pairs),
                          rng.integers(0, m, size=n_pairs), m)
        for width in widths:
            w, b = rng.normal(size=(h + m, width)), rng.normal(size=width)
            z, rows = np.empty((width, n_pairs)), np.empty((width, n_pairs))
            assert pairs.first_layer(w, b, z, rows) is z
            assert np.array_equal(z, flat_index_first_layer(pairs, w, b))
            dz = rng.normal(size=(width, n_pairs))
            assert np.array_equal(pairs.weight_grad(dz), flat_index_weight_grad(pairs, dz))

    def test_first_backward_holds_no_full_width_index(self):
        rng = np.random.default_rng(0)
        n, n_pairs, h, width, m = 500, 3000, 100, 100, 3
        pairs = PairInput(rng.normal(size=(n, h)), rng.integers(0, n, size=n_pairs),
                          rng.integers(0, m, size=n_pairs), m)
        params = init_fnn(h + m, width, width, 1, "sigmoid", rng)
        targets = rng.uniform(size=n_pairs)
        tracemalloc.start()
        try:
            backward(params, pairs, targets, float(n_pairs), {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the two (width, P) float64 buffers and the mask: an index of width
        # rows would add 2 * width * P entries
        assert peak < 3 * width * n_pairs * 8

    def test_holds_only_its_three_arrays(self):
        rng = np.random.default_rng(0)
        n, n_pairs, h, m = 6, 40, 3, 4
        pairs = PairInput(rng.normal(size=(n, h)), rng.integers(0, n, size=n_pairs),
                          rng.integers(0, m, size=n_pairs), m)
        before = dict(vars(pairs))
        works = [{}, {}]
        # one input driven by two workspaces in turn, at two widths
        for width in (5, 9):
            params = init_fnn(h + m, width, width, 1, "sigmoid", rng)
            for work in works + works:
                targets = rng.uniform(size=n_pairs)
                got = backward(params, pairs, targets, float(n_pairs), work)
                want = reference_backward(params, pairs, targets, float(n_pairs))
                for g, w in zip(got, want):
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
        assert vars(pairs).keys() == before.keys()
        assert all(vars(pairs)[name] is value for name, value in before.items())
        assert sorted(name for name, value in before.items()
                      if isinstance(value, np.ndarray)) == ["annotator_idx", "instance_idx", "rep"]
        assert not any(isinstance(value, (tuple, list, dict)) for value in before.values())
        # the passes' buffers are the workspaces': both hidden layers and the mask per width
        for work in works:
            assert sorted(work) == sorted((kind, (width, n_pairs)) for width in (5, 9)
                                          for kind in ("layer1", "layer2", "mask"))
            assert all(buf.shape == shape for (_, shape), buf in work.items())

    def test_repeat_backward_allocates_no_activation(self):
        rng = np.random.default_rng(0)
        n, n_pairs, h, width, m = 500, 3000, 100, 100, 3
        pairs = PairInput(rng.normal(size=(n, h)), rng.integers(0, n, size=n_pairs),
                          rng.integers(0, m, size=n_pairs), m)
        params = init_fnn(h + m, width, width, 1, "sigmoid", rng)
        targets = rng.uniform(size=n_pairs)
        work = {}
        backward(params, pairs, targets, float(n_pairs), work)
        tracemalloc.start()
        try:
            backward(params, pairs, targets, float(n_pairs), work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (width, P) float64 array is 2.4 MB
        assert peak < width * n_pairs * 8


class TestSoftCeLoss:
    def test_matching_one_hot_is_zero(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert soft_ce_loss(probs, probs, 2.0) == pytest.approx(0.0)

    def test_uniform_prediction_costs_log_k(self):
        probs = np.full((3, 4), 0.25)
        targets = np.random.default_rng(0).dirichlet(np.ones(4), size=3)
        assert soft_ce_loss(probs, targets, 3.0) == pytest.approx(math.log(4.0))

    def test_mixed_soft_targets_hand_value(self):
        loss = soft_ce_loss(np.array([[0.7, 0.3]]), np.array([[0.6, 0.4]]), 1.0)
        assert loss == pytest.approx(-(0.6 * math.log(0.7) + 0.4 * math.log(0.3)), abs=1e-12)

    def test_zero_probability_is_floored(self):
        loss = soft_ce_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 1.0)
        assert loss == pytest.approx(-math.log(1e-12))

    def test_bernoulli_form(self):
        loss = soft_ce_loss(np.array([0.8]), np.array([1.0]), 1.0)
        assert loss == pytest.approx(-math.log(0.8))


class TestBackward:
    def test_zero_output_gradient_at_minimum(self):
        params = zeroed(2, 3, 3, 4, "softmax")
        x = np.random.default_rng(0).normal(size=(5, 2))
        grads = backward(params, x, np.full((5, 4), 0.25), 5.0)
        np.testing.assert_allclose(grads[4], 0.0, atol=1e-15)
        np.testing.assert_allclose(grads[5], 0.0, atol=1e-15)

    @pytest.mark.parametrize("head", ["softmax", "sigmoid"])
    def test_matches_central_finite_differences(self, head):
        rng = np.random.default_rng(99)
        for _ in range(25):
            params = random_net(rng, head=head)
            batch = int(rng.integers(1, 6))
            x = rng.normal(size=(batch, params.input_dim))
            targets = random_targets(rng, batch, params)
            analytic = backward(params, x, targets, float(batch))
            numeric = finite_diff_grads(params, x, targets, float(batch))
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_identical_rows_scale_linearly(self):
        rng = np.random.default_rng(3)
        params = random_net(rng)
        row = rng.normal(size=(1, params.input_dim))
        target = rng.dirichlet(np.ones(params.weights[-1].shape[1]), size=1)
        single = backward(params, row, target, 1.0)
        stacked = backward(params, np.repeat(row, 4, axis=0), np.repeat(target, 4, axis=0), 1.0)
        for a, b in zip(stacked, single):
            np.testing.assert_allclose(a, 4.0 * b, atol=1e-12)


class TestAdam:
    def test_no_decay_zero_gradient_is_identity(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        state = AdamState(learning_rate=0.001, weight_decay=0.0, clip_norm=5.0)
        adam_step(params, [np.zeros(2), np.zeros((1, 1))], state)
        np.testing.assert_allclose(params[0], [1.0, -2.0])
        np.testing.assert_allclose(params[1], [[3.0]])

    def test_global_norm_clipping_halves_large_gradient(self):
        params = [np.zeros(2)]
        state = AdamState(learning_rate=0.001, weight_decay=0.0, clip_norm=5.0)
        adam_step(params, [np.array([6.0, 8.0])], state)  # norm 10 -> halved
        np.testing.assert_allclose(state.m, 0.1 * np.array([3.0, 4.0]), atol=1e-12)

    def test_single_scalar_closed_form(self):
        theta0, grad = 1.5, 0.3
        state = AdamState(learning_rate=0.001, weight_decay=0.001, clip_norm=5.0)
        params = [np.array([theta0])]
        adam_step(params, [np.array([grad])], state)
        g = grad + state.weight_decay * theta0  # below the clip threshold
        m_hat = (ADAM_BETA1 * 0.0 + (1 - ADAM_BETA1) * g) / (1 - ADAM_BETA1)
        v_hat = (1 - ADAM_BETA2) * g * g / (1 - ADAM_BETA2)
        expected = theta0 - state.learning_rate * m_hat / (math.sqrt(v_hat) + ADAM_EPS)
        assert params[0][0] == pytest.approx(expected, abs=1e-15)

    def test_flat_update_matches_per_array_reference(self):
        rng = np.random.default_rng(17)
        shapes = [(4, 3), (3,), (3, 1), (1,)]
        params = [rng.normal(size=shape) for shape in shapes]
        expected = [p.copy() for p in params]
        state = AdamState(learning_rate=0.01, weight_decay=0.05, clip_norm=2.0)
        reference = AdamState(learning_rate=0.01, weight_decay=0.05, clip_norm=2.0)
        clipped = 0
        for step in range(150):
            # every third step's gradient is far above the clip norm
            scale = 5.0 if step % 3 == 0 else 0.2
            grads = [scale * rng.normal(size=shape) for shape in shapes]
            decayed = [g + 0.05 * p for g, p in zip(grads, params)]
            clipped += np.sqrt(sum(float((g * g).sum()) for g in decayed)) > 2.0
            adam_step(params, grads, state)
            reference_adam_step(expected, grads, reference)
            for got, want in zip(params, expected):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        assert 40 <= clipped < 150
        np.testing.assert_allclose(state.m, np.concatenate([m.ravel() for m in reference.m]),
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(state.v, np.concatenate([v.ravel() for v in reference.v]),
                                   rtol=1e-12, atol=1e-14)

    def test_non_finite_gradient_raises(self):
        with pytest.raises(FloatingPointError):
            adam_step([np.zeros(1)], [np.array([np.nan])], AdamState(0.001, 0.001, 5.0))
        # every entry is finite, but the squared norm overflows
        with pytest.raises(FloatingPointError), np.errstate(over="ignore"):
            adam_step([np.zeros(2)], [np.array([1e200, 0.0])], AdamState(0.001, 0.001, 5.0))


def random_state(rng):
    """Two networks with random weights and biases that fit a default config with three labels."""
    cfg = TrainConfig(classifier_hidden=int(rng.integers(1, 5)),
                      estimator_hidden=int(rng.integers(1, 5)))
    d = int(rng.integers(1, 5))
    nets = []
    for hidden, out, head in ((cfg.classifier_hidden, 3, "softmax"),
                              (cfg.estimator_hidden, 1, "sigmoid")):
        net = init_fnn(d, hidden, hidden, out, head, rng)
        for b in net.biases:
            b[:] = rng.normal(0, 0.3, size=b.shape)
        nets.append(net)
    return ModelState(*nets), cfg


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        for _ in range(10):
            state, cfg = random_state(rng)
            save_model(tmp_path / "model.json", state, LabelSet(("a", "b", "c")), cfg)
            restored, _, _ = load_model(tmp_path / "model.json")
            for params, back in ((state.classifier, restored.classifier),
                                 (state.estimator, restored.estimator)):
                assert back.head == params.head
                for a, b in zip(params.arrays(), back.arrays(), strict=True):
                    assert np.array_equal(a, b)

    def test_file_is_the_one_shot_encoding(self, tmp_path):
        state, cfg = random_state(np.random.default_rng(5))
        path = tmp_path / "model.json"
        save_model(path, state, LabelSet(("a", "b", "c")), cfg)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text))

    def test_save_holds_no_encoded_document(self, tmp_path):
        # text-em's shape: 39 tf-idf features, 100-wide layers, 3 labels, 6 annotators
        rng = np.random.default_rng(0)
        cfg = TrainConfig(classifier_hidden=100, estimator_hidden=100)
        state = ModelState(init_fnn(39, 100, 100, 3, "softmax", rng),
                           init_fnn(106, 100, 100, 1, "sigmoid", rng))
        tracemalloc.start()
        try:
            save_model(tmp_path / "model.json", state, LabelSet(("a", "b", "c")), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_version_check(self, tmp_path):
        state, cfg = random_state(np.random.default_rng(3))
        path = tmp_path / "model.json"
        save_model(path, state, LabelSet(("a", "b", "c")), cfg)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format_version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match="unsupported model checkpoint version 99"):
            load_model(path)
