import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dawid_skene_oracle, make_annotations
from crowdrel import baselines
from crowdrel.baselines import dawid_skene, majority_vote, vote_fractions
from crowdrel.data import AnnotationSet, DataError
from crowdrel.evaluate import f1
from crowdrel.model import TrainConfig, train
from crowdrel.simulate import default_panel, gen_2d, simulate_annotations


class TestMajorityVote:
    def test_plurality(self):
        ann = make_annotations([(0, 0, 0), (0, 1, 0), (0, 2, 1)], 1, 3, 2)
        assert majority_vote(ann).tolist() == [0]

    def test_tie_takes_lowest_label(self):
        ann = make_annotations([(0, 0, 1), (0, 1, 0)], 1, 2, 2)
        assert majority_vote(ann).tolist() == [0]

    def test_unanimous_identity(self):
        triples = [(i, j, i % 3) for i in range(6) for j in range(4)]
        ann = make_annotations(triples, 6, 4, 3)
        assert majority_vote(ann).tolist() == [i % 3 for i in range(6)]

    def test_uncovered_instance_errors(self):
        ann = make_annotations([(0, 0, 1)], 2, 1, 2)
        with pytest.raises(ValueError, match="no annotations"):
            majority_vote(ann)

    @given(perm=st.permutations(list(range(4))))
    @settings(max_examples=24, deadline=None)
    def test_annotator_permutation_invariance(self, perm):
        rng = np.random.default_rng(0)
        triples = [(i, j, int(rng.integers(0, 3))) for i in range(8) for j in range(4)]
        ann = make_annotations(triples, 8, 4, 3)
        permuted = make_annotations([(i, perm[j], l) for i, j, l in triples], 8, 4, 3)
        assert majority_vote(ann).tolist() == majority_vote(permuted).tolist()


def unanimous_fixture(n=12, k=3, m=4):
    triples = [(i, j, i % k) for i in range(n) for j in range(m)]
    return make_annotations(triples, n, m, k)


class TestDawidSkene:
    def test_unanimous_fixed_point(self):
        ann = unanimous_fixture()
        result = dawid_skene(ann)
        assert result.hard_labels.tolist() == [i % 3 for i in range(12)]
        # confusion close to identity, up to the additive smoothing
        for j in range(4):
            diag = np.diag(result.model.confusion[j])
            assert np.all(diag > 0.98)

    def test_adversary_gets_flipped_confusion(self):
        # two perfect annotators plus one that always inverts, 20 instances
        truth = [i % 2 for i in range(20)]
        triples = []
        for i, t in enumerate(truth):
            triples += [(i, 0, t), (i, 1, t), (i, 2, 1 - t)]
        ann = make_annotations(triples, 20, 3, 2)
        result = dawid_skene(ann)
        assert result.hard_labels.tolist() == truth
        assert np.all(result.soft_labels[np.arange(20), truth] > 0.99)
        flipped = result.model.confusion[2]
        assert flipped[0, 1] > 0.9 and flipped[1, 0] > 0.9

    def test_moon_panel_matches_reference_score(self):
        instances, gold = gen_2d("moon", 1000, seed=0)
        ann = simulate_annotations(gold, 2, default_panel(2), seed=0,
                                   instance_ids=[inst.id for inst in instances])
        score = f1(dawid_skene(ann).hard_labels, gold).micro
        assert score == pytest.approx(0.978, abs=0.02)

    def test_log_likelihood_never_decreases(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            n, m, k = 30, 4, 3
            truth = rng.integers(0, k, size=n)
            triples = []
            for i in range(n):
                for j in range(m):
                    noisy = rng.random() < 0.3
                    lab = int(rng.integers(0, k)) if noisy else int(truth[i])
                    triples.append((i, j, lab))
            ann = make_annotations(triples, n, m, k)
            trace = np.array(dawid_skene(ann).log_likelihood)
            assert len(trace) >= 2
            assert np.all(np.diff(trace) >= -1e-9)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_oracle(self, data):
        # sparse panels of up to 6 annotators, some possibly with no pairs, in any pair order
        n, m, k = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6)), data.draw(st.integers(2, 5))
        triples = [(i, j, data.draw(st.integers(0, k - 1)))
                   for i in range(n)
                   for j in sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))]
        ann = make_annotations(data.draw(st.permutations(triples)), n, m, k)
        result = dawid_skene(ann)
        soft, confusion, trace, iterations = dawid_skene_oracle(ann)
        assert result.hard_labels.tolist() == soft.argmax(axis=1).tolist()
        assert result.n_iterations == iterations
        np.testing.assert_allclose(result.soft_labels, soft, rtol=0, atol=1e-10)
        np.testing.assert_allclose(result.model.confusion, confusion, rtol=0, atol=1e-10)
        np.testing.assert_allclose(result.log_likelihood, trace, rtol=0, atol=1e-10)

    def test_settled_soft_labels_stop_by_tol(self):
        result = dawid_skene(unanimous_fixture())
        assert result.stopped == "tol" and len(result.log_likelihood) == result.n_iterations

    def test_likelihood_that_stops_rising_stops_by_plateau(self):
        # 30 instances x 4 annotators who give a uniform label 30% of the time; at
        # this seed the smoothed likelihood falls before the soft labels settle
        rng = np.random.default_rng(4)
        truth = rng.integers(0, 3, size=30)
        noisy, other = rng.random((30, 4)) < 0.3, rng.integers(0, 3, size=(30, 4))
        labels = np.where(noisy, other, truth[:, None])
        ann = make_annotations([(i, j, int(labels[i, j])) for i in range(30) for j in range(4)],
                               30, 4, 3)
        result = dawid_skene(ann)
        # the iteration whose likelihood fell is counted but not traced
        assert result.stopped == "plateau" and len(result.log_likelihood) == result.n_iterations - 1

    def test_iteration_cap_stops_by_cap(self, monkeypatch):
        instances, gold = gen_2d("moon", 1000, seed=0)
        ann = simulate_annotations(gold, 2, default_panel(2), seed=0,
                                   instance_ids=[inst.id for inst in instances])
        monkeypatch.setattr(baselines, "DS_MAX_ITERS", 3)  # this panel settles after 17
        result = dawid_skene(ann)
        assert result.stopped == "cap" and result.n_iterations == len(result.log_likelihood) == 3

    def test_priors_and_confusions_are_distributions(self):
        ann = unanimous_fixture()
        model = dawid_skene(ann).model
        assert model.class_priors.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(model.confusion.sum(axis=2), 1.0, atol=1e-9)


def test_vote_fractions_rows_sum_to_one():
    ann = make_annotations([(0, 0, 0), (0, 1, 1), (1, 0, 1)], 2, 2, 2)
    fr = vote_fractions(ann)
    np.testing.assert_allclose(fr.sum(axis=1), 1.0)
    np.testing.assert_allclose(fr[0], [0.5, 0.5])


@pytest.mark.parametrize("aggregate", [
    vote_fractions,
    majority_vote,
    dawid_skene,
    lambda ann: train(np.zeros((3, 2)), ann, TrainConfig(max_outer=1, pretrain_epochs=1)),
], ids=["vote_fractions", "majority_vote", "dawid_skene", "train"])
def test_instance_without_annotations_is_named_by_its_id(aggregate):
    ann = AnnotationSet(("a", "b", "c"), ("u", "v"), 2, instance_idx=[0, 0, 2],
                        annotator_idx=[0, 1, 0], label_idx=[0, 1, 1])
    with pytest.raises(DataError, match="^instance 'b' has no annotations$"):
        aggregate(ann)
