import re

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
    parse_panel,
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
        with pytest.raises(DataError, match="^broad takes no error_prob$"):
            AnnotatorProfile("broad", error_prob=0.9)
        with pytest.raises(DataError, match="^graded takes no domain$"):
            AnnotatorProfile("graded", error_prob=0.3, domain=1)

    @pytest.mark.parametrize("kind, kwargs, message", [
        ("narrow", dict(domain=1.5), "domain must be of type int, got 1.5"),
        ("narrow", dict(domain=True), "domain must be of type int, got True"),
        ("narrow", dict(domain="1"), "domain must be of type int, got '1'"),
        ("graded", dict(error_prob="0.3"), "error_prob must be of type float, got '0.3'"),
        ("graded", dict(error_prob=False), "error_prob must be of type float, got False"),
    ])
    def test_argument_of_another_type_is_named(self, kind, kwargs, message):
        with pytest.raises(DataError) as err:
            AnnotatorProfile(kind, **kwargs)
        assert str(err.value) == message

    def test_integral_and_real_numbers_are_accepted(self):
        assert AnnotatorProfile("narrow", domain=np.int64(1)).short_name() == "N1"
        assert AnnotatorProfile("graded", error_prob=0).short_name() == "G0"
        assert AnnotatorProfile("graded", error_prob=np.float64(0.5)).short_name() == "G0.5"


class TestParsePanel:
    @pytest.mark.parametrize("spec, expected", [
        ("narrow:2", AnnotatorProfile("narrow", domain=2)),
        ("broad", AnnotatorProfile("broad")),
        ("random", AnnotatorProfile("random")),
        ("adversarial", AnnotatorProfile("adversarial")),
        ("graded:0.25", AnnotatorProfile("graded", error_prob=0.25)),
    ])
    def test_each_kind(self, spec, expected):
        assert parse_panel(spec, 3) == [expected]

    def test_entries_keep_their_order_and_lose_surrounding_whitespace(self):
        assert parse_panel(" graded:0.1 ,narrow:0,  broad", 2) == [
            AnnotatorProfile("graded", error_prob=0.1), AnnotatorProfile("narrow", domain=0),
            AnnotatorProfile("broad")]

    @pytest.mark.parametrize("n_labels", [2, 3])
    def test_named_panels(self, n_labels):
        assert parse_panel("default", n_labels) == default_panel(n_labels)
        assert parse_panel("graded", n_labels) == graded_panel()

    def test_short_names(self):
        names = [p.short_name() for p in parse_panel("narrow:1,broad,random,adversarial,"
                                                       "graded:0.05", 2)]
        assert names == ["N1", "B", "R", "A", "G0.05"]

    @pytest.mark.parametrize("spec, message", [
        ("narrow", "panel entry 'narrow': cannot parse '' as int"),
        ("narrow:", "panel entry 'narrow:': cannot parse '' as int"),
        ("narrow:x", "panel entry 'narrow:x': cannot parse 'x' as int"),
        ("narrow:-1", "panel entry 'narrow:-1': domain must be >= 0, got -1"),
        ("narrow:0,narrow:7", "panel entry 'narrow:7': domain 7 is not one of the 2 labels"),
        ("graded,broad", "panel entry 'graded': cannot parse '' as float"),
        ("graded:x", "panel entry 'graded:x': cannot parse 'x' as float"),
        ("graded:1.5", "panel entry 'graded:1.5': error_prob must be in [0, 1], got 1.5"),
        ("graded:nan", "panel entry 'graded:nan': error_prob must be in [0, 1], got nan"),
        ("broad:3", "panel entry 'broad:3': broad takes no argument"),
        ("random:", "panel entry 'random:': random takes no argument"),
        ("adversarial:1", "panel entry 'adversarial:1': adversarial takes no argument"),
        ("broad,wizard:3", "panel entry 'wizard:3': annotator kind must be one of ('narrow', "
                           "'broad', 'random', 'adversarial', 'graded'), got 'wizard'"),
        ("broad,,random", "panel entry '': annotator kind must be one of"),
    ])
    def test_bad_entry_is_named(self, spec, message):
        with pytest.raises(DataError) as err:
            parse_panel(spec, 2)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("entry, kwargs", [
        ("narrow:-1", dict(domain=-1)),
        ("graded:1.5", dict(error_prob=1.5)),
        ("wizard", {}),
    ])
    def test_entry_and_profile_give_one_message(self, entry, kwargs):
        with pytest.raises(DataError) as from_profile:
            AnnotatorProfile(entry.partition(":")[0], **kwargs)
        with pytest.raises(DataError) as from_panel:
            parse_panel(entry, 2)
        assert str(from_panel.value) == f"panel entry {entry!r}: {from_profile.value}"


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
        for label in (3, -2):
            with pytest.raises(DataError, match=rf"^gold\[1\] = {label} is not one of the 2 labels$"):
                simulate_annotations(np.array([0, label]), 2, default_panel(2), 0)

    def test_instance_ids_must_fit_the_gold(self):
        with pytest.raises(DataError, match=r"^need 6 instance ids, one per gold label; got 2$"):
            simulate_annotations(np.zeros(6, dtype=np.int64), 2, default_panel(2), seed=0,
                                 instance_ids=["a", "b"])

    def test_domain_outside_the_labels_names_the_annotator(self):
        profiles = [AnnotatorProfile("narrow", domain=0), AnnotatorProfile("narrow", domain=7)]
        with pytest.raises(DataError) as err:
            simulate_annotations(np.array([0, 1]), 2, profiles, seed=0)
        assert str(err.value) == "annotator 1 (N7): domain 7 is not one of the 2 labels"

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


TWO = np.array([0, 1])


@pytest.mark.parametrize("call, message", [
    (lambda: gen_2d("moon", 10.5), "n must be of type int, got 10.5"),
    (lambda: gen_2d("moon", True), "n must be of type int, got True"),
    (lambda: gen_2d("three-class", 2), "n must be at least 3 for three-class, got 2"),
    (lambda: gen_2d("moon", 10, noise="0.1"), "noise must be of type float, got '0.1'"),
    (lambda: gen_2d("moon", 10, noise=-0.1), "noise must be finite and >= 0, got -0.1"),
    (lambda: gen_2d("moon", 10, seed=1.5), "seed must be of type int, got 1.5"),
    (lambda: gen_2d("moon", 10, seed=True), "seed must be of type int, got True"),
    (lambda: gen_text_fixture(10.5, 3, 0), "n must be of type int, got 10.5"),
    (lambda: gen_text_fixture(2, 3, 0), "n must be at least 3, one document per class, got 2"),
    (lambda: gen_text_fixture(10, 3, "0"), "seed must be of type int, got '0'"),
    (lambda: simulate_annotations(TWO, 2, default_panel(2), seed=0.5),
     "seed must be of type int, got 0.5"),
    (lambda: simulate_annotations(TWO, 2, default_panel(2), keep_prob="0.5"),
     "keep_prob must be of type float, got '0.5'"),
    (lambda: simulate_annotations(TWO, 2, default_panel(2), keep_prob=True),
     "keep_prob must be of type float, got True"),
    (lambda: simulate_annotations(TWO, 2, default_panel(2), keep_prob=1.5),
     "keep_prob must be in [0, 1], got 1.5"),
    (lambda: gen_text_fixture(10, 0), "n_labels must be >= 2, got 0"),
    (lambda: gen_text_fixture(10, 1), "n_labels must be >= 2, got 1"),
    (lambda: gen_text_fixture(10, 1.5), "n_labels must be of type int, got 1.5"),
    (lambda: default_panel(0), "n_labels must be >= 2, got 0"),
    (lambda: default_panel(2.5), "n_labels must be of type int, got 2.5"),
    (lambda: simulate_annotations(TWO, 1, graded_panel()), "n_labels must be >= 2, got 1"),
    (lambda: simulate_annotations(TWO, 2.0, default_panel(2)),
     "n_labels must be of type int, got 2.0"),
    (lambda: simulate_annotations(TWO, True, graded_panel()),
     "n_labels must be of type int, got True"),
], ids=["gen_2d-n-float", "gen_2d-n-bool", "gen_2d-n-range", "gen_2d-noise-str",
        "gen_2d-noise-range", "gen_2d-seed-float", "gen_2d-seed-bool", "text-n-float",
        "text-n-range", "text-seed-str", "simulate-seed-float", "simulate-keep_prob-str",
        "simulate-keep_prob-bool", "simulate-keep_prob-range", "text-n_labels-0",
        "text-n_labels-1", "text-n_labels-float", "panel-n_labels-0", "panel-n_labels-float",
        "simulate-n_labels-1", "simulate-n_labels-float", "simulate-n_labels-bool"])
def test_setting_of_another_type_or_out_of_range_is_named(call, message):
    # the library entry points check each setting as the config does, type first
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call()

