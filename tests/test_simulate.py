import numpy as np
import pytest

from crowdrel.data import DataError, feature_matrix, validate
from crowdrel.simulate import (
    GRADED_ERRORS,
    AnnotatorProfile,
    default_panel,
    gen_2d,
    gen_text_fixture,
    graded_panel,
    simulate_annotations,
)


class TestGen2d:
    @pytest.mark.parametrize("kind,expected", [
        ("moon", [500, 500]),
        ("circle", [500, 500]),
        ("three-class", [334, 333, 333]),
    ])
    def test_class_counts_at_1000(self, kind, expected):
        _, gold = gen_2d(kind, 1000, seed=0)
        counts = np.bincount(gold)
        assert counts.tolist() == expected

    def test_same_seed_is_bit_identical(self):
        a_inst, a_gold = gen_2d("moon", 200, seed=7)
        b_inst, b_gold = gen_2d("moon", 200, seed=7)
        assert np.array_equal(a_gold, b_gold)
        assert np.array_equal(feature_matrix(a_inst), feature_matrix(b_inst))

    def test_different_seeds_differ(self):
        a_inst, _ = gen_2d("moon", 200, seed=1)
        b_inst, _ = gen_2d("moon", 200, seed=2)
        assert not np.array_equal(feature_matrix(a_inst), feature_matrix(b_inst))

    def test_too_few_points(self):
        with pytest.raises(DataError):
            gen_2d("three-class", 2)

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            gen_2d("spiral", 100)


def error_rate(profile, n=10000, k=3, seed=0):
    rng = np.random.default_rng(0)
    truth = rng.integers(0, k, size=n)
    ann = simulate_annotations(truth, k, [profile], seed=seed)
    return float((ann.label_idx != truth).mean())


class TestAnnotatorProfiles:
    def test_broad_error_rate(self):
        assert error_rate(AnnotatorProfile("broad")) == pytest.approx(0.05, abs=0.01)

    def test_adversarial_error_rate(self):
        assert error_rate(AnnotatorProfile("adversarial")) == pytest.approx(0.80, abs=0.01)

    def test_narrow_in_domain_is_perfect(self):
        truth = np.zeros(500, dtype=np.int64)
        ann = simulate_annotations(truth, 3, [AnnotatorProfile("narrow", domain=0)], seed=1)
        assert np.all(ann.label_idx == 0)

    def test_narrow_off_domain_accuracy(self):
        truth = np.ones(20000, dtype=np.int64)
        ann = simulate_annotations(truth, 3, [AnnotatorProfile("narrow", domain=0)], seed=1)
        assert float((ann.label_idx == 1).mean()) == pytest.approx(0.65, abs=0.01)

    def test_graded_panel_error_rates(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 3, size=10000)
        panel = graded_panel()
        assert [profile.error_prob for profile in panel] == list(GRADED_ERRORS)
        ann = simulate_annotations(truth, 3, panel, seed=3)
        for j, profile in enumerate(panel):
            sel = ann.annotator_idx == j
            rate = float((ann.label_idx[sel] != truth[ann.instance_idx[sel]]).mean())
            assert rate == pytest.approx(profile.error_prob, abs=0.01)

    def test_random_is_uniform(self):
        truth = np.zeros(30000, dtype=np.int64)
        ann = simulate_annotations(truth, 3, [AnnotatorProfile("random")], seed=5)
        freqs = np.bincount(ann.label_idx, minlength=3) / 30000
        np.testing.assert_allclose(freqs, 1 / 3, atol=0.02)

    def test_profile_validation(self):
        with pytest.raises(DataError):
            AnnotatorProfile("narrow")
        with pytest.raises(DataError):
            AnnotatorProfile("graded", error_prob=1.5)
        with pytest.raises(DataError):
            AnnotatorProfile("wizard")


class TestSimulateAnnotations:
    def test_default_panel_size(self):
        assert len(default_panel(3)) == 6  # one narrow per class + broad + random + adversarial

    def test_deterministic_and_annotator_streams_independent(self):
        truth = np.array([0, 1, 0, 1, 2, 2])
        short = simulate_annotations(truth, 3, default_panel(3)[:3], seed=9)
        longer = simulate_annotations(truth, 3, default_panel(3), seed=9)
        for j in range(3):
            a = short.label_idx[short.annotator_idx == j]
            b = longer.label_idx[longer.annotator_idx == j]
            assert np.array_equal(a, b)

    def test_output_passes_validation(self):
        instances, gold = gen_2d("three-class", 300, seed=4)
        ann = simulate_annotations(gold, 3, default_panel(3), seed=4,
                                   instance_ids=[inst.id for inst in instances])
        assert len(gold) == len(instances)
        assert validate(instances, ann) == []

    def test_subsampling_keeps_coverage(self):
        truth = np.random.default_rng(0).integers(0, 2, size=400)
        ann = simulate_annotations(truth, 2, default_panel(2), seed=2, keep_prob=0.3)
        assert ann.n_pairs < 400 * 5
        assert ann.counts_per_instance().min() >= 1

    def test_requires_full_gold(self):
        with pytest.raises(DataError):
            simulate_annotations(np.array([0, -1]), 2, default_panel(2), seed=0)

    def test_gold_label_outside_the_labels_names_the_entry(self):
        with pytest.raises(DataError, match=r"^gold\[1\] = 3 is not one of the 2 labels$"):
            simulate_annotations(np.array([0, 3]), 2, default_panel(2), 0)

    def test_instance_ids_must_fit_the_gold(self):
        with pytest.raises(DataError, match="instance_ids must hold 6 distinct ids, got 2"):
            simulate_annotations(np.zeros(6, dtype=np.int64), 2, default_panel(2), seed=0,
                                 instance_ids=["a", "b"])

    def test_requires_profiles(self):
        with pytest.raises(DataError):
            simulate_annotations(np.array([0, 1]), 2, [], seed=0)


class TestTextFixture:
    def test_deterministic_and_sized(self):
        a_inst, a_gold = gen_text_fixture(500, 3, seed=0)
        b_inst, b_gold = gen_text_fixture(500, 3, seed=0)
        assert len(a_inst) == 500
        assert [inst.text for inst in a_inst] == [inst.text for inst in b_inst]
        assert np.array_equal(a_gold, b_gold)
        counts = np.bincount(a_gold)
        assert counts.tolist() == [167, 167, 166]

    def test_classes_have_disjoint_keywords(self):
        instances, gold = gen_text_fixture(60, 3, seed=1)
        for inst in instances:
            c = gold[int(inst.id[1:])]
            assert f"topic{c}word" in inst.text


@pytest.mark.parametrize("generate", [
    lambda: gen_2d("moon", 10, seed=-1),
    lambda: simulate_annotations(np.array([0, 1]), 2, default_panel(2), seed=-1),
    lambda: gen_text_fixture(10, 3, seed=-1),
], ids=["gen_2d", "simulate_annotations", "gen_text_fixture"])
def test_negative_seed_names_seed(generate):
    with pytest.raises(DataError, match="seed must be >= 0, got -1"):
        generate()
