import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    auc_oracle,
    brute_force_posteriors,
    dense_pair_input,
    emission_prob,
    log_likelihood_oracle,
    make_annotations,
    posterior_table,
    q_objective_oracle,
    random_annotation_setup,
    reference_adam_step,
    reference_backward,
    reference_forward,
    regional_panel,
)
from crowdrel import model
from crowdrel.baselines import dawid_skene
from crowdrel.data import DataError, LabelSet, feature_matrix
from crowdrel.evaluate import f1
from crowdrel.model import (
    MODES,
    ModelState,
    TrainConfig,
    e_step,
    estimator_pair_inputs,
    load_model,
    posterior_from_priors,
    pretrain,
    pretrain_labels,
    q_objective,
    save_model,
    train,
)
from crowdrel.neural import AdamState, backward, forward, init_fnn, soft_ce_loss
from crowdrel.simulate import DATASET_KINDS, default_panel, gen_2d, simulate_annotations


class TestEmissionProb:
    def test_reliable_match(self):
        assert emission_prob(2, 2, 1, 3) == 1.0

    def test_reliable_mismatch(self):
        assert emission_prob(0, 2, 1, 3) == 0.0

    def test_unreliable_is_uniform(self):
        for a in range(4):
            for t in range(4):
                assert emission_prob(a, t, 0, 4) == 0.25


class TestPosteriorFromPriors:
    def test_worked_two_annotator_example(self):
        ann = make_annotations([(0, 0, 0), (0, 1, 1)], 1, 2, 2)
        priors = (np.array([[0.6, 0.4]]), np.array([0.8, 0.5]), ann)
        post = posterior_from_priors(*priors)
        table = posterior_table(*priors)
        # exact values from enumerating the 0.165 total mass
        assert post.label_posterior[0, 0] == pytest.approx(9 / 11, abs=1e-10)
        assert table[0, 0, 1] == pytest.approx(8 / 11, abs=1e-10)
        assert table[0, 0, 0] == pytest.approx(1 / 11, abs=1e-10)
        assert table[0, 1, 1] == 0.0
        assert table[0, 1, 0] == pytest.approx(2 / 11, abs=1e-10)
        assert post.reliability_posterior[0] == pytest.approx(8 / 11, abs=1e-10)

    def test_certain_annotator_forces_label(self):
        ann = make_annotations([(0, 0, 1)], 1, 1, 3)
        post = posterior_from_priors(np.array([[0.2, 0.5, 0.3]]), np.array([1.0]), ann)
        assert post.label_posterior[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_useless_annotator_leaves_prior(self):
        prior = np.array([[0.2, 0.5, 0.3]])
        ann = make_annotations([(0, 0, 0)], 1, 1, 3)
        post = posterior_from_priors(prior, np.array([0.0]), ann)
        np.testing.assert_allclose(post.label_posterior, prior, atol=1e-9)
        assert post.reliability_posterior[0] <= 1e-9

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            lp, rel, ann = random_annotation_setup(rng)
            post = posterior_from_priors(lp, rel, ann)
            tables, label_post = brute_force_posteriors(lp, rel, ann)
            np.testing.assert_allclose(posterior_table(lp, rel, ann), tables, atol=1e-10)
            np.testing.assert_allclose(post.label_posterior, label_post, atol=1e-10)

    def test_log_likelihood_matches_enumeration(self):
        rng = np.random.default_rng(20240131)
        worst = 0.0
        for _ in range(200):
            lp, rel, ann = random_annotation_setup(rng)
            got = posterior_from_priors(lp, rel, ann).log_likelihood
            worst = max(worst, abs(got - log_likelihood_oracle(lp, rel, ann)))
        assert worst <= 1e-10

    def test_invariants_hold(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            lp, rel, ann = random_annotation_setup(rng)
            post = posterior_from_priors(lp, rel, ann)
            table = posterior_table(lp, rel, ann)
            # every table is a distribution
            np.testing.assert_allclose(table.sum(axis=(1, 2)), 1.0, atol=1e-9)
            # reliable mass sits only on the annotated label
            mask = np.ones_like(table[:, :, 1], dtype=bool)
            mask[np.arange(ann.n_pairs), ann.label_idx] = False
            assert np.all(table[:, :, 1][mask] == 0.0)
            # the reliability marginal is the table's r=1 mass
            np.testing.assert_allclose(table[:, :, 1].sum(axis=1), post.reliability_posterior,
                                       atol=1e-12)
            # marginalizing any pair of the same instance gives the same label posterior
            label_marginals = table.sum(axis=2)
            for p in range(ann.n_pairs):
                np.testing.assert_allclose(
                    label_marginals[p], post.label_posterior[ann.instance_idx[p]], atol=1e-10)

    def test_nan_prior_is_a_floating_point_error(self):
        ann = make_annotations([(0, 0, 0), (0, 1, 1), (1, 0, 1)], 2, 2, 2)
        label_prior = np.array([[0.6, 0.4], [0.5, 0.5]])
        rel_prior = np.array([0.8, 0.5, 0.7])
        bad_label = label_prior.copy()
        bad_label[1, 0] = np.nan
        with pytest.raises(FloatingPointError):
            posterior_from_priors(bad_label, rel_prior, ann)
        bad_rel = rel_prior.copy()
        bad_rel[1] = np.nan
        with pytest.raises(FloatingPointError):
            posterior_from_priors(label_prior, bad_rel, ann)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 1000),
           k=st.integers(2, 50), one_per_instance=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_extreme_priors_give_normalized_posteriors(self, seed, n, m, k, one_per_instance):
        rng = np.random.default_rng(seed)
        triples = []
        for i in range(n):
            count = 1 if one_per_instance else int(rng.integers(1, m + 1))
            triples += [(i, int(j), int(rng.integers(0, k)))
                        for j in rng.choice(m, size=count, replace=False)]
        ann = make_annotations(triples, n, m, k)
        extremes = np.array([0.0, 1.0, 1e-300, 1.0 - 1e-16])

        def draw(shape):
            return np.where(rng.random(shape) < 0.5, rng.choice(extremes, size=shape),
                            rng.uniform(size=shape))

        label_prior, rel_prior = draw((n, k)), draw(ann.n_pairs)
        post = posterior_from_priors(label_prior, rel_prior, ann)
        table = posterior_table(label_prior, rel_prior, ann)
        lp, rel = post.label_posterior, post.reliability_posterior
        at_annotated = lp[ann.instance_idx, ann.label_idx]
        assert np.all(np.isfinite(lp)) and np.all(lp >= 0.0)
        assert np.isfinite(post.log_likelihood)
        np.testing.assert_allclose(lp.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert np.all(rel >= 0.0) and np.all(rel <= at_annotated)
        assert np.all(table >= 0.0)
        np.testing.assert_allclose(table.sum(axis=(1, 2)), 1.0, rtol=0.0, atol=1e-12)
        assert np.array_equal(table[:, :, 1].sum(axis=1), rel)


def small_state(rng, n_labels=3, n_annotators=4, input_dim=2):
    """Both networks 3 wide; the estimator reads the ``input_dim`` features and the annotator."""
    classifier = init_fnn(input_dim, 3, 3, n_labels, "softmax", rng)
    estimator = init_fnn(input_dim + n_annotators, 3, 3, 1, "sigmoid", rng)
    for net in (classifier, estimator):
        for b in net.biases:
            b[:] = rng.normal(0.0, 0.3, size=b.shape)  # keep ReLU kinks off the data
    return ModelState(classifier=classifier, estimator=estimator)


def random_model_setup(rng):
    n, m, k = 8, 4, 3
    state = small_state(rng, n_labels=k, n_annotators=m)
    x = rng.normal(size=(n, 2))
    triples = [(i, j, int(rng.integers(0, k))) for i in range(n) for j in range(m)
               if rng.random() < 0.8 or j == 0]
    ann = make_annotations(triples, n, m, k)
    return state, x, ann


def direct_priors(state, x, ann):
    """Label and reliability priors, the estimator fed the features."""
    return (forward(state.classifier, x)[0],
            forward(state.estimator, estimator_pair_inputs(x, ann))[0])


class TestObjectives:
    def test_q_matches_quadruple_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            state, x, ann = random_model_setup(rng)
            post = e_step(state, x, ann)
            lp, rel = direct_priors(state, x, ann)
            expected = q_objective_oracle(lp, rel, posterior_table(lp, rel, ann), ann)
            assert q_objective(lp, rel, post) == pytest.approx(expected, abs=1e-9)

    def test_q_first_terms_are_negative_entropies_at_match(self):
        # when priors equal posteriors the first two terms hit the entropy bound
        rng = np.random.default_rng(7)
        state, x, ann = random_model_setup(rng)
        lp, rel = direct_priors(state, x, ann)
        matched = posterior_from_priors(lp, rel, ann)
        # construct the three Q terms directly from the matched posteriors
        value = q_objective(lp, rel, matched)
        ent_t = -(matched.label_posterior * np.log(lp)).sum()
        r = matched.reliability_posterior
        ent_r = -(r * np.log(rel) + (1 - r) * np.log(1 - rel)).sum()
        third = -math.log(ann.n_labels) * (1 - r).sum()
        assert value == pytest.approx(-ent_t - ent_r + third, abs=1e-9)

    def test_third_term_zero_when_fully_reliable(self):
        ann = make_annotations([(0, 0, 1)], 1, 1, 2)
        post = posterior_from_priors(np.array([[0.3, 0.7]]), np.array([1.0]), ann)
        assert post.reliability_posterior[0] == pytest.approx(1.0, abs=1e-9)
        # r=1 mass only: the emission expectation contributes log 1 = 0
        third = -math.log(2) * (1.0 - post.reliability_posterior).sum()
        assert third == pytest.approx(0.0, abs=1e-9)

    def test_uniform_classifier_prior_costs_log_k(self):
        rng = np.random.default_rng(8)
        k, m, n = 6, 2, 5
        state = small_state(rng, n_labels=k, n_annotators=m)
        for w in state.classifier.weights:
            w[:] = 0.0
        for b in state.classifier.biases:
            b[:] = 0.0
        x = rng.normal(size=(n, 2))
        triples = [(i, j, int(rng.integers(0, k))) for i in range(n) for j in range(m)]
        ann = make_annotations(triples, n, m, k)
        post = e_step(state, x, ann)
        loss_t = soft_ce_loss(direct_priors(state, x, ann)[0], post.label_posterior, float(n))
        assert loss_t == pytest.approx(math.log(6.0), abs=1e-9)

    def test_gradients_match_finite_differences(self):
        # the estimator reads the features, which no parameter moves, so the
        # analytic per-network gradients are the full derivative
        rng = np.random.default_rng(9)
        state, x, ann = random_model_setup(rng)
        post = e_step(state, x, ann)
        n, p = float(len(x)), float(ann.n_pairs)
        pair_x = estimator_pair_inputs(x, ann)
        grads_t = backward(state.classifier, x, post.label_posterior, n)
        grads_r = backward(state.estimator, pair_x, post.reliability_posterior, p)
        h = 1e-5

        def priors():
            return forward(state.classifier, x)[0], forward(state.estimator, pair_x)[0]

        def ce_total():
            lp, rel = priors()
            return (soft_ce_loss(lp, post.label_posterior, n)
                    + soft_ce_loss(rel, post.reliability_posterior, p))

        def q_value():
            return q_objective(*priors(), post)

        for arrays, grads, norm in ((state.classifier.arrays(), grads_t, n),
                                    (state.estimator.arrays(), grads_r, p)):
            for arr, grad in zip(arrays, grads):
                flat, gflat = arr.ravel(), grad.ravel()
                for pos in range(0, flat.size, max(1, flat.size // 3)):
                    keep = flat[pos]
                    flat[pos] = keep + h
                    up_ce, up_q = ce_total(), q_value()
                    flat[pos] = keep - h
                    down_ce, down_q = ce_total(), q_value()
                    flat[pos] = keep
                    numeric_ce = (up_ce - down_ce) / (2 * h)
                    numeric_q = (up_q - down_q) / (2 * h)
                    analytic = gflat[pos]
                    assert abs(numeric_ce - analytic) < 1e-4 * max(1e-4, abs(analytic))
                    # Q is the unnormalized negative of the same cross entropy
                    assert abs(numeric_q + analytic * norm) < 1e-4 * max(1e-4, abs(analytic) * norm)


class TestEstimatorPairInputs:
    @pytest.mark.parametrize("n,m,per_instance", [(12, 1, False), (12, 5, False),
                                                  (12, 1000, False), (12, 5, True)])
    def test_gathered_layer_matches_dense_onehot(self, n, m, per_instance):
        rng = np.random.default_rng(m + n)
        rep = rng.normal(size=(n, 3))
        if per_instance:
            triples = [(i, int(rng.integers(0, m)), 0) for i in range(n)]
        else:
            triples = sorted({(int(rng.integers(0, n)), int(rng.integers(0, m)), 0)
                              for _ in range(3 * n)} | {(i, 0, 0) for i in range(n)})
        ann = make_annotations(triples, n, m, 2)
        pairs = estimator_pair_inputs(rep, ann)
        dense = dense_pair_input(pairs)
        assert len(pairs) == ann.n_pairs and np.array_equal(dense[:, :3], rep[ann.instance_idx])
        targets = rng.uniform(size=ann.n_pairs)
        # several widths on one input
        for width in (4, 8, 9, 16, 17, 20):
            params = init_fnn(3 + m, width, 3, 1, "sigmoid", rng)
            for b in params.biases:
                b[:] = rng.normal(0.0, 0.3, size=b.shape)
            for got, want in zip(forward(params, pairs), forward(params, dense)):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
            for got, want in zip(backward(params, pairs, targets, 3.0),
                                 backward(params, dense, targets, 3.0)):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 6),
           k=st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_permuting_pairs_permutes_reliability_only(self, seed, n, m, k):
        rng = np.random.default_rng(seed)
        state = small_state(rng, n_labels=k, n_annotators=m)
        x = rng.normal(size=(n, 2))
        triples = [(i, j, int(rng.integers(0, k))) for i in range(n) for j in range(m)
                   if rng.random() < 0.6 or j == i % m]
        perm = rng.permutation(len(triples))
        ann = make_annotations(triples, n, m, k)
        shuffled = make_annotations([triples[p] for p in perm], n, m, k)
        prior = forward(state.estimator, estimator_pair_inputs(x, ann))[0]
        prior_shuffled = forward(state.estimator, estimator_pair_inputs(x, shuffled))[0]
        np.testing.assert_allclose(prior_shuffled, prior[perm], rtol=0.0, atol=1e-12)
        post, post_shuffled = e_step(state, x, ann), e_step(state, x, shuffled)
        np.testing.assert_allclose(post_shuffled.reliability_posterior,
                                   post.reliability_posterior[perm], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(post_shuffled.label_posterior, post.label_posterior,
                                   rtol=0.0, atol=1e-12)


@pytest.fixture(scope="module")
def moon_setup():
    instances, gold = gen_2d("moon", 400, seed=1)
    ann = simulate_annotations(gold, 2, default_panel(2), seed=1,
                               instance_ids=[inst.id for inst in instances])
    return feature_matrix(instances), ann, gold


class TestPretrain:
    def test_unanimous_annotators_give_perfect_classifier(self):
        from crowdrel.simulate import AnnotatorProfile
        instances, gold = gen_2d("three-class", 300, noise=0.3, seed=3)
        perfect = [AnnotatorProfile("graded", error_prob=0.0) for _ in range(3)]
        ann = simulate_annotations(gold, 3, perfect, seed=3,
                                   instance_ids=[inst.id for inst in instances])
        x = feature_matrix(instances)
        state = pretrain(x, ann, TrainConfig(pretrain="mv", pretrain_epochs=2000, seed=1))
        pred = forward(state.classifier, x)[0].argmax(axis=1)
        assert np.mean(pred == gold) == 1.0

    def test_ds_pretrained_classifier_tracks_ds_score(self, moon_setup):
        x, ann, gold = moon_setup
        ds_f1 = float((dawid_skene(ann).hard_labels == gold).mean())
        # converged pretraining lands within two points of its own targets' quality
        state = pretrain(x, ann, TrainConfig(pretrain="ds", pretrain_epochs=2000, seed=1))
        clf_f1 = float((forward(state.classifier, x)[0].argmax(axis=1) == gold).mean())
        assert abs(clf_f1 - ds_f1) <= 0.02

    def test_adversary_agreement_rate_matches_correctness(self, moon_setup):
        x, ann, gold = moon_setup
        ds_labels = dawid_skene(ann).hard_labels
        adversary = ann.annotator_idx == 4
        agreement = float((ann.label_idx == ds_labels[ann.instance_idx])[adversary].mean())
        correctness = float((ann.label_idx == gold[ann.instance_idx])[adversary].mean())
        assert agreement == pytest.approx(correctness, abs=0.03)


    @pytest.mark.parametrize("source", ["majority", "DS", ""])
    def test_unknown_pretrain_source_is_named(self, source):
        ann = make_annotations([(0, 0, 0), (0, 1, 1), (1, 0, 1)], 2, 2, 2)
        with pytest.raises(DataError, match=rf"aggregator must be one of .*, got {source!r}"):
            pretrain_labels(ann, source)


class TestTrain:
    def test_zero_outer_returns_pretrained_state(self, moon_setup):
        x, ann, _ = moon_setup
        cfg = TrainConfig(mode="ce-jt", max_outer=0, seed=5)
        result = train(x, ann, cfg)
        assert result.trace == [] and result.stopped == "cap"
        reference = pretrain(x, ann, cfg)
        for a, b in zip(result.state.classifier.arrays(), reference.classifier.arrays()):
            assert np.array_equal(a, b)
        for a, b in zip(result.state.estimator.arrays(), reference.estimator.arrays()):
            assert np.array_equal(a, b)

    def test_trace_records_objective_and_f1(self, moon_setup):
        x, ann, gold = moon_setup
        result = train(x, ann, TrainConfig(mode="ce-jt", max_outer=3, seed=5), gold=gold)
        assert [row.outer for row in result.trace] == [1, 2, 3]
        assert all(row.f1 is not None for row in result.trace)
        assert all(np.isfinite(row.objective_end) for row in result.trace)

    def test_result_posterior_is_the_e_step_of_the_final_state(self, moon_setup):
        x, ann, gold = moon_setup
        for max_outer in (0, 2):
            result = train(x, ann, TrainConfig(mode="ce-jt", max_outer=max_outer, seed=5),
                           gold=gold)
            post = e_step(result.state, x, ann)
            assert np.array_equal(result.posterior.label_posterior, post.label_posterior)
            assert np.array_equal(result.posterior.reliability_posterior,
                                  post.reliability_posterior)
            assert result.posterior.log_likelihood == post.log_likelihood
        assert result.trace[-1].log_likelihood == post.log_likelihood

    def test_gold_without_labels_leaves_f1_empty(self, moon_setup):
        x, ann, _ = moon_setup
        result = train(x, ann, TrainConfig(mode="ce-jt", max_outer=2, seed=5),
                       gold=np.full(len(x), -1))
        assert [row.f1 for row in result.trace] == [None, None]

    def test_huge_tolerance_stops_after_two_iterations(self, moon_setup):
        x, ann, _ = moon_setup
        result = train(x, ann, TrainConfig(mode="ce-jt", early_stop_tol=1e9, seed=5))
        assert len(result.trace) == 2 and result.stopped == "tol"

    @pytest.mark.parametrize("seed", [0, 3])
    def test_em_likelihood_rises_and_beats_ds(self, seed):
        # seed 0 is criterion 4's run; on seed 3 a stop on Q across outer
        # iterations, each scored against its own posteriors, ended EM after
        # iteration 2 at F1 0.943, below Dawid-Skene's 0.982
        instances, gold = gen_2d("moon", 1000, seed=seed)
        ann = simulate_annotations(gold, 2, default_panel(2), seed=seed,
                                   instance_ids=[inst.id for inst in instances])
        result = train(feature_matrix(instances), ann, TrainConfig(mode="em", seed=seed))
        gains = np.diff([row.log_likelihood for row in result.trace]) / (1000 + ann.n_pairs)
        assert len(result.trace) > 2 and result.stopped == "tol"
        assert gains.min() >= -1e-9
        ours = f1(result.posterior.label_posterior.argmax(axis=1), gold).micro
        assert ours > f1(dawid_skene(ann).hard_labels, gold).micro

    @pytest.mark.parametrize("mode", MODES)
    def test_stop_does_not_depend_on_dataset_size(self, mode):
        # Tiling the data 4x scales the log likelihood and N + P by 4. EM steps
        # on Q per instance and annotation and the CE modes on per-network
        # means, so both runs follow one trajectory and must stop at the same
        # outer iteration, with weight decay and clipping off (Adam alone is
        # scale-free) and at their defaults (which act on the same mean).
        instances, gold = gen_2d("moon", 100, seed=1)
        ann = simulate_annotations(gold, 2, default_panel(2), seed=1,
                                   instance_ids=[inst.id for inst in instances])
        x = feature_matrix(instances)
        tiled = make_annotations(
            [(i + r * len(x), j, a) for r in range(4) for i, j, a in ann.triples()],
            4 * len(x), ann.n_annotators, ann.n_labels)
        for cfg in (TrainConfig(mode=mode, max_outer=150, inner_iters=20, weight_decay=0.0,
                                clip_norm=0.0, seed=0),
                    TrainConfig(mode=mode, max_outer=150, inner_iters=20, seed=0)):
            once = train(x, ann, cfg)
            four = train(np.tile(x, (4, 1)), tiled, cfg)
            assert len(once.trace) < 150 and once.stopped == four.stopped == "tol"
            assert len(four.trace) == len(once.trace)

    # the estimator reads the features, as the ids say
    @pytest.mark.parametrize("mode", MODES, ids=[f"{mode}-features" for mode in MODES])
    def test_every_mode_matches_hand_rolled_schedule(self, mode):
        # pretraining fits the classifier to one-hot DS labels, then the
        # estimator on the features to agreement with them, each under its own
        # Adam state. Each outer iteration freezes the posteriors, then steps
        # both networks under one Adam state over the classifier's and then the
        # estimator's arrays. That state lives across outer iterations.
        instances, gold = gen_2d("moon", 60, seed=2)
        ann = simulate_annotations(gold, 2, default_panel(2), seed=2,
                                   instance_ids=[inst.id for inst in instances])
        x = feature_matrix(instances)
        # the classifier's hidden layer is as wide as the features, so an
        # estimator fed that layer in their place differs in its values, not in
        # its shape; clipping fires on every step, so a joint step under two
        # Adam states (two clip norms) differs from one under a single state
        cfg = TrainConfig(mode=mode, max_outer=2, inner_iters=2, pretrain_epochs=5,
                          classifier_hidden=2, clip_norm=0.01, seed=4)
        result = train(x, ann, cfg)

        def adam():
            return AdamState(learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay,
                             clip_norm=cfg.clip_norm)

        def steps(groups, n_steps, opt):
            arrays = [a for net, *_ in groups for a in net.arrays()]
            for _ in range(n_steps):
                grads = [g for net, inputs, targets, norm in groups
                         for g in reference_backward(net, inputs, targets, norm)]
                reference_adam_step(arrays, grads, opt)

        n, p = float(len(x)), float(ann.n_pairs)
        clf_seed, est_seed = np.random.SeedSequence(cfg.seed).spawn(2)
        classifier = init_fnn(2, cfg.classifier_hidden, cfg.classifier_hidden, 2, "softmax",
                              np.random.default_rng(clf_seed))
        ds_labels = dawid_skene(ann).hard_labels
        steps([(classifier, x, np.eye(2)[ds_labels], n)], cfg.pretrain_epochs, adam())
        pair_x = estimator_pair_inputs(x, ann)
        estimator = init_fnn(pair_x.shape[1], cfg.estimator_hidden, cfg.estimator_hidden, 1,
                             "sigmoid", np.random.default_rng(est_seed))
        agreement = (ann.label_idx == ds_labels[ann.instance_idx]).astype(np.float64)
        steps([(estimator, pair_x, agreement, p)], cfg.pretrain_epochs, adam())

        norm_t, norm_r = (n + p, n + p) if mode == "em" else (n, p)
        opt = adam()
        for _ in range(2):
            post = posterior_from_priors(reference_forward(classifier, x)[0],
                                         reference_forward(estimator, pair_x)[0], ann)
            steps([(classifier, x, post.label_posterior, norm_t),
                   (estimator, pair_x, post.reliability_posterior, norm_r)],
                  cfg.inner_iters, opt)

        assert len(result.trace) == 2
        for got, want in zip(result.state.classifier.arrays() + result.state.estimator.arrays(),
                             classifier.arrays() + estimator.arrays()):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_pair_input_is_built_once_for_pretraining_and_once_for_the_loop(self, moon_setup,
                                                                           monkeypatch):
        x, ann, _ = moon_setup
        calls = []

        def counted(*args):
            calls.append(args)
            return estimator_pair_inputs(*args)

        monkeypatch.setattr(model, "estimator_pair_inputs", counted)
        for max_outer in (1, 5):
            calls.clear()
            result = train(x, ann, TrainConfig(max_outer=max_outer, early_stop_tol=1e-12, seed=5))
            assert len(result.trace) == max_outer and len(calls) == 2
            assert all(args[0] is x for args in calls)

    def test_modes_differ_only_by_normalizers(self):
        # Without weight decay and clipping, Adam is invariant to a constant
        # scale of each network's gradient (up to its epsilon), so EM's N + P
        # and ce-jt's N and P normalizers give one trajectory. The schedule is
        # pinned at one under which both stop by tolerance within 20 iterations.
        instances, gold = gen_2d("moon", 1000, seed=0)
        ann = simulate_annotations(gold, 2, default_panel(2), seed=0,
                                   instance_ids=[inst.id for inst in instances])
        x = feature_matrix(instances)
        em, ce = (train(x, ann, TrainConfig(mode=mode, max_outer=20, weight_decay=0.0,
                                            clip_norm=0.0, learning_rate=1e-3, inner_iters=50,
                                            pretrain_epochs=200, seed=0))
                  for mode in ("em", "ce-jt"))
        assert em.stopped == ce.stopped == "tol" and len(em.trace) == len(ce.trace)
        scores = [f1(r.posterior.label_posterior.argmax(axis=1), gold).micro for r in (em, ce)]
        assert scores[0] == scores[1]
        assert abs(em.posterior.log_likelihood - ce.posterior.log_likelihood) < 0.05
        np.testing.assert_allclose(em.posterior.reliability_posterior,
                                   ce.posterior.reliability_posterior, rtol=0.0, atol=0.01)

    def test_em_mode_improves_q_within_iterations(self, moon_setup):
        x, ann, _ = moon_setup
        result = train(x, ann, TrainConfig(mode="em", max_outer=5, seed=5))
        improved = [row.objective_end >= row.objective_start for row in result.trace]
        assert all(improved)

    def test_every_mode_caps_at_500_outer_iterations(self):
        assert [TrainConfig(mode=mode).max_outer for mode in MODES] == [500] * len(MODES)

    def test_default_cap_lets_ce_jt_stop_by_tolerance(self):
        # a cap of 20 cut this run off at iteration 20; it stops by tolerance at 28
        instances, gold = gen_2d("moon", 1000, seed=1)
        ann = simulate_annotations(gold, 2, default_panel(2), seed=1,
                                   instance_ids=[inst.id for inst in instances])
        result = train(feature_matrix(instances), ann, TrainConfig(mode="ce-jt", seed=1))
        assert result.stopped == "tol" and len(result.trace) > 20

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["moon", "circle", "three-class"])
    def test_default_ce_jt_stops_by_tolerance_well_inside_the_cap(self, kind, seed):
        k = DATASET_KINDS[kind][0]
        instances, gold = gen_2d(kind, 1000, seed=seed)
        ann = simulate_annotations(gold, k, default_panel(k), seed=seed,
                                   instance_ids=[inst.id for inst in instances])
        result = train(feature_matrix(instances), ann, TrainConfig(seed=seed))
        assert result.stopped == "tol" and len(result.trace) < 40

    def test_features_that_do_not_fit_the_annotations_are_a_data_error(self, moon_setup):
        x, ann, _ = moon_setup
        for rows in (x[:-5], np.vstack([x, x[:3]])):
            with pytest.raises(DataError, match=rf"^the data has {len(rows)} feature rows, "
                                                f"but {ann.n_instances} instances$"):
                train(rows, ann, TrainConfig(max_outer=1, pretrain_epochs=1))
        state = pretrain(x, ann, TrainConfig(pretrain_epochs=1))
        for shape in ((400,), (400, 0)):
            fault = re.escape(f"features must be a 2-D array with at least one column, "
                              f"got shape {shape}")
            with pytest.raises(DataError, match=rf"^{fault}$"):
                train(np.zeros(shape), ann, TrainConfig(max_outer=1, pretrain_epochs=1))
            with pytest.raises(DataError, match=rf"^{fault}$"):
                e_step(state, np.zeros(shape), ann)

    @pytest.mark.parametrize("gold, fault", [
        (np.zeros(399, dtype=np.int64), "need 400 gold labels, one per instance; got 399"),
        (np.r_[np.zeros(399, dtype=np.int64), 7], "gold[399] = 7 is not one of the 2 labels"),
        (np.r_[np.zeros(399, dtype=np.int64), -2], "gold[399] = -2 is not one of the 2 labels"),
    ], ids=["length", "label", "below-none"])
    def test_gold_is_checked_before_pretraining(self, moon_setup, monkeypatch, gold, fault):
        x, ann, _ = moon_setup

        def must_not_run(*args):
            raise AssertionError("pretrain ran before gold was checked")

        monkeypatch.setattr(model, "pretrain", must_not_run)
        with pytest.raises(DataError, match=rf"^{re.escape(fault)}$"):
            train(x, ann, TrainConfig(max_outer=1), gold=gold)

    @pytest.mark.parametrize("key, value", [
        ("inner_iters", 2.5), ("max_outer", 2.0), ("pretrain_epochs", "200"),
        ("classifier_hidden", True), ("estimator_hidden", None), ("seed", 1.5),
        ("learning_rate", "0.1"), ("early_stop_tol", None), ("weight_decay", True),
        ("clip_norm", [5.0]), ("mode", 1), ("pretrain", None), ("max_outer", None),
    ])
    def test_config_type_is_checked_before_range(self, key, value):
        with pytest.raises(DataError, match=rf"^{key} must be of type "):
            TrainConfig(**{key: value})

    def test_config_takes_any_integer_or_real_number(self):
        cfg = TrainConfig(inner_iters=np.int64(3), seed=np.uint8(1), clip_norm=5,
                          learning_rate=np.float32(0.01))
        assert cfg.inner_iters == 3 and cfg.clip_norm == 5

    def test_config_validation(self):
        with pytest.raises(DataError):
            TrainConfig(mode="sgd")
        with pytest.raises(DataError):
            TrainConfig(inner_iters=0)
        with pytest.raises(DataError):
            TrainConfig(pretrain="glad")

    @pytest.mark.parametrize("key, value, rule", [
        ("mode", "sgd", "one of ('em', 'ce-jt')"), ("inner_iters", 0, ">= 1"),
        ("max_outer", -1, ">= 0"), ("early_stop_tol", 0.0, "positive"),
        ("pretrain", "glad", "one of ('mv', 'ds')"), ("pretrain_epochs", -1, ">= 0"),
        ("classifier_hidden", 0, ">= 1"), ("estimator_hidden", -2, ">= 1"),
        ("learning_rate", math.inf, "finite and positive"),
        ("weight_decay", -0.5, "finite and >= 0 (0 is off)"),
        ("clip_norm", math.nan, "finite and >= 0 (0 is off)"), ("seed", -1, ">= 0"),
    ])
    def test_config_range_message_names_key_rule_and_value(self, key, value, rule):
        message = f"{key} must be {rule}, got {value!r}"
        with pytest.raises(DataError, match=rf"^{re.escape(message)}$"):
            TrainConfig(**{key: value})


def test_estimator_ranks_pairs_by_their_instance_dependent_reliability():
    # on the regional panel an annotator is reliable in one band of the first
    # feature only; the estimator's prior must rank in-band pairs above the rest
    aucs = []
    for seed in range(5):
        x, ann, _, in_band = regional_panel("moon", seed)
        state = train(x, ann, TrainConfig()).state
        aucs.append(auc_oracle(forward(state.estimator, estimator_pair_inputs(x, ann))[0], in_band))
    print("regional moon prior AUC, data seeds 0-4:", " ".join(f"{auc:.4f}" for auc in aucs))
    assert np.mean(aucs) >= 0.85


class TestPredict:
    def test_argmax_and_tie_rule(self):
        rng = np.random.default_rng(1)
        state = small_state(rng, n_labels=2, n_annotators=1)
        for net in (state.classifier, state.estimator):
            for w in net.weights:
                w[:] = 0.0
            for b in net.biases:
                b[:] = 0.0
        # instance 1 has no annotation: posterior is the exactly-uniform prior
        ann = make_annotations([(0, 0, 0)], 2, 1, 2)
        x = np.zeros((2, 2))
        posterior = e_step(state, x, ann).label_posterior
        pred = posterior.argmax(axis=1)
        assert posterior[1, 0] == posterior[1, 1] == 0.5
        assert pred[1] == 0  # exact tie resolves to the lowest index
        assert posterior[0, 0] > 0.5 and pred[0] == 0

    def test_reliability_scores_shapes_and_range(self, moon_setup):
        x, ann, _ = moon_setup
        result = train(x, ann, TrainConfig(mode="ce-jt", max_outer=2, seed=5))
        scores = result.posterior.reliability_posterior
        assert scores.shape == (ann.n_pairs,)
        assert np.all((scores >= 0) & (scores <= 1))


class TestAnnotatorPermutation:
    def test_equivariance_under_annotator_relabeling(self):
        rng = np.random.default_rng(13)
        state, x, ann = random_model_setup(rng)
        m = ann.n_annotators
        perm = np.random.default_rng(0).permutation(m)

        permuted_est = copy.deepcopy(state.estimator)
        width = x.shape[1]  # the estimator's annotator rows follow the features'
        for j in range(m):
            permuted_est.weights[0][width + perm[j]] = state.estimator.weights[0][width + j]
        permuted_state = ModelState(classifier=state.classifier, estimator=permuted_est)
        permuted_ann = dataclasses.replace(ann, annotator_idx=perm[ann.annotator_idx])

        base = e_step(state, x, ann)
        moved = e_step(permuted_state, x, permuted_ann)
        np.testing.assert_allclose(moved.label_posterior, base.label_posterior, atol=1e-9)
        np.testing.assert_allclose(moved.reliability_posterior, base.reliability_posterior,
                                   atol=1e-9)


@pytest.fixture
def checkpoint(tmp_path):
    """The path and parsed content of a valid checkpoint, for a test to break."""
    # hidden layers 3 wide; 3 features, so the estimator's first layer is (3 + 4) x 3
    state = small_state(np.random.default_rng(2), n_labels=3, input_dim=3)
    cfg = TrainConfig(classifier_hidden=3, estimator_hidden=3)
    path = tmp_path / "model.json"
    save_model(path, state, LabelSet(("a", "b", "c")), cfg)
    load_model(path)
    return path, json.loads(path.read_text(encoding="utf-8"))


# each edit breaks one part of a valid checkpoint; the fault is the start of the message
MALFORMED = {
    # the file as a whole
    "missing-key": (lambda p: p.pop("estimator"),
                    "checkpoint must be a JSON object with the keys"),
    "unknown-key": (lambda p: p.update(n_labels=3),
                    "checkpoint must be a JSON object with the keys"),
    "labels-not-a-list": (lambda p: p.update(labels="abc"), "labels must be a list of strings"),
    "labels-not-strings": (lambda p: p.update(labels=[0, 1, 2]),
                           "labels must be a list of strings"),
    "one-label": (lambda p: p.update(labels=["a"]), "need at least 2 labels"),
    # the config
    "config-missing-key": (lambda p: p["config"].pop("seed"),
                           "config must be a JSON object with the keys"),
    "config-unknown-key": (lambda p: p["config"].update(beta1=0.9),
                           "config must be a JSON object with the keys"),
    "config-not-an-object": (lambda p: p.update(config=[]), "config must be a JSON object"),
    "config-float-count": (lambda p: p["config"].update(inner_iters=2.5),
                           "inner_iters must be of type int"),
    "config-string-number": (lambda p: p["config"].update(learning_rate="0.1"),
                             "learning_rate must be of type float"),
    "config-out-of-range": (lambda p: p["config"].update(clip_norm=-1.0),
                            "clip_norm must be finite"),
    "config-unknown-mode": (lambda p: p["config"].update(mode="sgd"), "mode must be one of"),
    "config-removed-mode": (lambda p: p["config"].update(mode="ce-alt"),
                            re.escape("mode must be one of ('em', 'ce-jt'), got 'ce-alt'")),
    "config-null-cap": (lambda p: p["config"].update(max_outer=None),
                        "max_outer must be of type int, got None$"),
    # the networks
    "network-not-an-object": (lambda p: p.update(classifier=[]),
                              "classifier must be a JSON object"),
    "network-missing-head": (lambda p: p["estimator"].pop("head"),
                             "estimator must be a JSON object with the keys"),
    "wrong-head": (lambda p: p["classifier"].update(head="sigmoid"),
                   "classifier must have the head 'softmax' and a list of three layers"),
    "two-layers": (lambda p: p["estimator"]["layers"].pop(),
                   "estimator must have the head 'sigmoid' and a list of three layers"),
    "layer-missing-biases": (lambda p: p["classifier"]["layers"][1].pop("biases"),
                             "classifier layer 2 must be a JSON object with the keys"),
    "non-finite-weight": (
        lambda p: p["estimator"]["layers"][0]["weights"].__setitem__(0, float("nan")),
        "estimator layer 1 must hold lists of finite numbers"),
    "string-weight": (
        lambda p: p["classifier"]["layers"][2]["weights"].__setitem__(0, "0.5"),
        "classifier layer 3 must hold lists of finite numbers"),
    "nested-biases": (lambda p: p["classifier"]["layers"][0].update(biases=[[0.0, 0.0, 0.0]]),
                      "classifier layer 1 must hold lists of finite numbers"),
    "ragged-weights": (lambda p: p["classifier"]["layers"][0].update(weights=[[0.0], [0.0, 1.0]]),
                       "(setting an array element with a sequence|.* must hold lists of finite)"),
    "bad-layer-shape": (lambda p: p["classifier"]["layers"][1]["weights"].pop(),
                        "classifier layer 2 must have 3 biases and 3 x 3 weights, got 3 and 8"),
    "layers-do-not-chain": (
        lambda p: p["classifier"]["layers"][1]["weights"].extend([0.0] * 3),
        "classifier layer 2 must have 3 biases and 3 x 3 weights, got 3 and 12"),
    "hidden-width-not-config": (
        lambda p: p["config"].update(estimator_hidden=4),
        "estimator layer 1 must have 4 biases and 5 x 4 weights, got 3 and 21"),
    "outputs-not-label-count": (
        lambda p: p.update(labels=["a", "b"]),
        "classifier layer 3 must have 2 biases and 3 x 2 weights, got 3 and 9"),
    "estimator-two-outputs": (lambda p: p["estimator"]["layers"][2].update(biases=[0.0, 0.0]),
                              "estimator layer 3 must have 1 biases"),
}


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path, moon_setup):
        x, ann, _ = moon_setup
        cfg = TrainConfig(mode="ce-jt", max_outer=2, seed=5)
        result = train(x, ann, cfg)
        path = tmp_path / "model.json"
        save_model(path, result.state, LabelSet(("0", "1")), cfg)
        restored, labels, cfg_back = load_model(path)
        assert labels.labels == ("0", "1")
        assert cfg_back == cfg
        for saved, loaded in ((result.state.classifier, restored.classifier),
                              (result.state.estimator, restored.estimator)):
            assert loaded.head == saved.head
            assert len(loaded.arrays()) == len(saved.arrays()) == 6
            for a, b in zip(saved.arrays(), loaded.arrays()):
                assert b.dtype == np.float64 and np.array_equal(a, b)
        before = e_step(result.state, x, ann)
        after = e_step(restored, x, ann)
        assert np.array_equal(before.label_posterior, after.label_posterior)
        assert np.array_equal(before.reliability_posterior, after.reliability_posterior)

    def test_unknown_checkpoint_version_is_a_data_error(self, tmp_path):
        # every older checkpoint is rejected by its version, whatever else it holds
        path = tmp_path / "model.json"
        for version in (1, 2, 3, 4):
            path.write_text(f'{{"format_version": {version}}}')
            with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: unsupported model "
                                                f"checkpoint version {version}, expected 5"):
                load_model(path)

    @pytest.mark.parametrize("n_rows, n_features, n_annotators, n_labels, fault", [
        (4, 2, 6, 2, r"the data's estimator input width \(features \+ annotators\) is 8, "
                     "but the model's is 7"),
        (4, 4, 5, 2, "the data's feature width is 4, but the model's is 2"),
        (4, 2, 5, 3, "the data's label count is 3, but the model's is 2"),
        (3, 2, 5, 2, "the data has 3 feature rows, but 4 instances"),
        (7, 2, 5, 2, "the data has 7 feature rows, but 4 instances"),
    ], ids=["annotators", "features", "labels", "fewer-rows", "more-rows"])
    def test_data_the_networks_do_not_fit_is_a_data_error(self, n_rows, n_features,
                                                          n_annotators, n_labels, fault):
        # networks for 2 features, 5 annotators and 2 labels, the estimator on
        # the features and the annotator; the annotations cover 4 instances
        rng = np.random.default_rng(11)
        state = small_state(rng, n_labels=2, n_annotators=5)
        ann = make_annotations([(i, j, (i + j) % n_labels) for i in range(4)
                                for j in range(n_annotators)], 4, n_annotators, n_labels)
        with pytest.raises(DataError, match=rf"^{fault}$"):
            e_step(state, rng.normal(size=(n_rows, n_features)), ann)

    @pytest.mark.parametrize("text, fault", [
        (b'{"format_version": 2,', "Expecting property name"),
        (b"\xff{}", "'utf-8' codec can't decode"),
        (b"[2]", "unsupported model checkpoint version None"),
        (b'{"format_version": "2"}', "unsupported model checkpoint version '2'"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["invalid-json", "not-utf-8", "not-an-object", "string-version", "nested-too-deep"])
    def test_unreadable_checkpoint_is_a_data_error(self, tmp_path, text, fault):
        path = tmp_path / "model.json"
        path.write_bytes(text)
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: {fault}"):
            load_model(path)

    @pytest.mark.parametrize("edit, fault", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_checkpoint_is_a_data_error(self, checkpoint, edit, fault):
        path, payload = checkpoint
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: {fault}"):
            load_model(path)
