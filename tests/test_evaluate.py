import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fleiss_kappa_oracle,
    krippendorff_alpha_oracle,
    least_reliable_oracle,
    make_annotations,
    reliability_report_oracle,
)
from crowdrel.baselines import majority_vote
from crowdrel.data import DataError
from crowdrel.evaluate import (
    REPORT_CSV_HEADER,
    DenoiseResult,
    F1Scores,
    denoise_experiment,
    drop_least_reliable,
    f1,
    fleiss_kappa,
    krippendorff_alpha,
    reliability_report,
    report_to_rows,
    report_to_text,
)
from crowdrel.simulate import default_panel, gen_2d, simulate_annotations


class TestF1:
    def test_perfect(self):
        assert f1(np.array([0, 1, 2]), np.array([0, 1, 2])).micro == 1.0

    def test_hand_computed_counts(self):
        scores = f1(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]))
        assert scores.micro == pytest.approx(0.75)
        # class 0: P=1, R=1/2, F=2/3; class 1: P=2/3, R=1, F=4/5
        assert scores.macro == pytest.approx((2 / 3 + 4 / 5) / 2)

    def test_all_wrong(self):
        assert f1(np.array([1, 0]), np.array([0, 1])).micro == 0.0

    def test_empty_gold_errors(self):
        with pytest.raises(DataError, match="no gold labels"):
            f1(np.array([0, 1]), np.array([-1, -1]))

    def test_partial_gold_uses_covered_instances(self):
        scores = f1(np.array([0, 1, 0]), np.array([0, -1, 1]))
        assert scores.micro == pytest.approx(0.5)

    def test_micro_equals_accuracy(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 3, 50)
        gold = rng.integers(0, 3, 50)
        assert f1(pred, gold).micro == pytest.approx(float((pred == gold).mean()))


class TestFleissKappa:
    def test_perfect_agreement(self):
        triples = [(i, j, i % 2) for i in range(6) for j in range(4)]
        ann = make_annotations(triples, 6, 4, 2)
        assert fleiss_kappa(ann) == pytest.approx(1.0)

    def test_three_instance_worked_table(self):
        # count table [[3,0],[3,0],[1,2]] over 3 raters
        triples = ([(0, j, 0) for j in range(3)] + [(1, j, 0) for j in range(3)]
                   + [(2, 0, 0), (2, 1, 1), (2, 2, 1)])
        ann = make_annotations(triples, 3, 3, 2)
        expected = fleiss_kappa_oracle(np.array([[3, 0], [3, 0], [1, 2]]))
        assert expected == pytest.approx(5 / 14)
        assert fleiss_kappa(ann) == pytest.approx(expected, abs=1e-9)

    def test_unequal_counts_point_to_alpha(self):
        ann = make_annotations([(0, 0, 0), (0, 1, 0), (1, 0, 1)], 2, 2, 2)
        with pytest.raises(DataError, match="krippendorff_alpha"):
            fleiss_kappa(ann)

    def test_moon_panel_value(self):
        instances, gold = gen_2d("moon", 1000, seed=0)
        ann = simulate_annotations(gold, 2, default_panel(2), seed=0,
                                   instance_ids=[inst.id for inst in instances])
        assert fleiss_kappa(ann) == pytest.approx(0.029, abs=0.01)


class TestKrippendorffAlpha:
    def test_perfect_agreement(self):
        triples = [(i, j, i % 3) for i in range(5) for j in range(3)]
        ann = make_annotations(triples, 5, 3, 3)
        assert krippendorff_alpha(ann) == pytest.approx(1.0)

    def test_four_instance_fixture_matches_oracle(self):
        # units: (0,0), (0,1), (1,1,1) and a single unpairable rating
        triples = [(0, 0, 0), (0, 1, 0),
                   (1, 0, 0), (1, 1, 1),
                   (2, 0, 1), (2, 1, 1), (2, 2, 1),
                   (3, 0, 0)]
        ann = make_annotations(triples, 4, 3, 2)
        expected = krippendorff_alpha_oracle([[0, 0], [0, 1], [1, 1, 1], [0]])
        assert expected == pytest.approx(0.5)
        assert krippendorff_alpha(ann) == pytest.approx(expected, abs=1e-9)

    def test_needs_pairable_values(self):
        ann = make_annotations([(0, 0, 0), (1, 1, 1)], 2, 2, 2)
        with pytest.raises(DataError, match=">= 2 annotations"):
            krippendorff_alpha(ann)

    def test_invariant_to_annotator_relabeling(self):
        rng = np.random.default_rng(4)
        triples = [(i, j, int(rng.integers(0, 3))) for i in range(10) for j in range(4)
                   if rng.random() < 0.7]
        covered = {i for i, _, _ in triples}
        triples += [(i, 0, 0) for i in range(10) if i not in covered]
        ann = make_annotations(triples, 10, 4, 3)
        perm = [2, 0, 3, 1]
        moved = make_annotations([(i, perm[j], l) for i, j, l in triples], 10, 4, 3)
        assert krippendorff_alpha(moved) == pytest.approx(krippendorff_alpha(ann), abs=1e-12)


class TestReliabilityReport:
    def _setup(self):
        # annotator 0 always correct, annotator 1 always wrong
        gold = np.array([0, 1, 0, 1, 0])
        triples, scores = [], []
        for i, t in enumerate(gold):
            triples.append((i, 0, int(t)))
            scores.append(0.9 - 0.1 * i)
            triples.append((i, 1, int(1 - t)))
            scores.append(0.2)
        ann = make_annotations(triples, 5, 2, 2)
        return ann, np.array(scores), gold

    def test_reliable_annotator_tops_out(self):
        ann, scores, gold = self._setup()
        report = reliability_report(scores, ann, gold, k=3)
        for table in (report.n, report.n_correct, report.mean_reliability):
            assert table.shape == (2, 2, 3)
        assert report.n_correct[0, 0, -1] == report.n[0, 0, -1] == 3
        assert report.n_correct[1, 0, -1] == 0

    def test_score_ties_break_by_instance_index(self):
        # one annotator, every score tied, always answering 0: right on instances 0 and 1
        # (gold 0), wrong on 2-4 (gold 1); so which two instances win the tie sets every count
        ann = make_annotations([(i, 0, 0) for i in range(5)], 5, 1, 2)
        report = reliability_report(np.full(5, 0.5), ann, np.array([0, 0, 1, 1, 1]), k=2)
        for side in (0, 1):
            assert report.n[0, side].tolist() == [2, 0, 2]
            assert report.n_correct[0, side].tolist() == [2, 0, 2]

    def test_truncation_flag(self):
        # an annotator with fewer than k pairs profiles all of them: n < k marks the truncation
        ann, scores, gold = self._setup()
        report = reliability_report(scores, ann, gold, k=100)
        assert np.all(report.n[:, :, -1] == 5)

    def test_per_class_breakdown(self):
        ann, scores, gold = self._setup()
        report = reliability_report(scores, ann, gold, k=5)
        assert report.n[0, 0, 0] == 3 and report.n_correct[0, 0, 0] == 3
        assert report.n[0, 0, 1] == 2
        assert report.mean_reliability[0, 0, 0] == pytest.approx((0.9 + 0.7 + 0.5) / 3)

    def test_deterministic_given_scores(self):
        ann, scores, gold = self._setup()
        first = reliability_report(scores, ann, gold, k=4)
        second = reliability_report(scores, ann, gold, k=4)
        for name in ("n", "n_correct", "mean_reliability"):
            np.testing.assert_array_equal(getattr(first, name), getattr(second, name))

    def test_negative_k_is_an_error(self):
        ann, scores, gold = self._setup()
        with pytest.raises(DataError, match="k must be >= 0"):
            reliability_report(scores, ann, gold, k=-3)

    def test_gold_label_outside_the_label_set_is_an_error(self):
        # with K = 2, class 2 would otherwise land in the total column
        ann, scores, _ = self._setup()
        with pytest.raises(DataError, match="gold labels must lie below n_labels = 2"):
            reliability_report(scores, ann, np.array([0, 1, 2, 1, 0]), k=3)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_oracle(self, data):
        # sparse panels in any pair order: annotators with no pairs, tied and NaN scores,
        # instances without a gold label and k from 0 to past the pair count
        n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        k = data.draw(st.integers(2, 3))
        triples = [(i, j, data.draw(st.integers(0, k - 1)))
                   for i in range(n) for j in sorted(data.draw(st.sets(st.integers(0, m - 1))))]
        if not triples:
            triples = [(0, 0, 0)]
        ann = make_annotations(data.draw(st.permutations(triples)), n, m, k)
        scores = np.array(data.draw(st.lists(
            st.sampled_from([0.25, 0.5, np.nan]) | st.floats(0, 1),
            min_size=ann.n_pairs, max_size=ann.n_pairs)))
        gold = np.array(data.draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n)))
        top_k = data.draw(st.integers(0, ann.n_pairs + 2))
        report = reliability_report(scores, ann, gold, top_k)
        n_cells, n_correct, mean = reliability_report_oracle(scores, ann, gold, top_k)
        np.testing.assert_array_equal(report.n, n_cells)
        np.testing.assert_array_equal(report.n_correct, n_correct)
        # NaN where a cell is empty or holds a NaN score, on both sides
        np.testing.assert_allclose(report.mean_reliability, mean, rtol=0, atol=1e-12)

    def test_text_rendering_mentions_annotators(self):
        ann, scores, gold = self._setup()
        text = report_to_text(reliability_report(scores, ann, gold, k=2), ("0", "1"))
        assert "a0" in text and "bottom-2" in text

    def test_text_layout(self):
        ann, scores, gold = self._setup()
        text = report_to_text(reliability_report(scores, ann, gold, k=1), ("0", "1"))
        header = ("annotator", "n", "correct", "mean_rel", "0(cor/mean)", "1(cor/mean)")
        rows = [header, ("a0", "1", "1", "0.900", "1/0.90", "-"),
                ("a1", "1", "0", "0.200", "0/0.20", "-"),
                header, ("a0", "1", "1", "0.500", "1/0.50", "-"),
                ("a1", "1", "0", "0.200", "0/0.20", "-")]
        lines = ["  ".join(f"{v:>16}" for v in row) for row in rows]
        assert text == "\n".join(["top-1 instances by per-instance reliability", *lines[:3], "",
                                  "bottom-1 instances by per-instance reliability", *lines[3:], ""])

    def test_csv_rows(self):
        ann, scores, gold = self._setup()
        rows = report_to_rows(reliability_report(scores, ann, gold, k=1), ("no", "yes"))
        assert len(REPORT_CSV_HEADER) == 9
        assert rows == [["a0", "top", 1, 1, "0.9", "", "", "", ""],
                        ["a0", "top", "", "", "", "no", 1, 1, "0.9"],
                        ["a0", "bottom", 1, 1, "0.5", "", "", "", ""],
                        ["a0", "bottom", "", "", "", "no", 1, 1, "0.5"],
                        ["a1", "top", 1, 0, "0.2", "", "", "", ""],
                        ["a1", "top", "", "", "", "no", 1, 0, "0.2"],
                        ["a1", "bottom", 1, 0, "0.2", "", "", "", ""],
                        ["a1", "bottom", "", "", "", "no", 1, 0, "0.2"]]


class TestDenoise:
    def test_oracle_scores_never_hurt_majority_vote(self):
        rng = np.random.default_rng(11)
        gold = rng.integers(0, 2, 40)
        triples = []
        for i in range(40):
            for j in range(5):
                correct = rng.random() < 0.7
                triples.append((i, j, int(gold[i]) if correct else int(1 - gold[i])))
        ann = make_annotations(triples, 40, 5, 2)
        oracle = (ann.label_idx == gold[ann.instance_idx]).astype(float)
        result = denoise_experiment(ann, oracle, majority_vote, gold)
        assert result.delta_micro >= 0.0
        assert result.n_removed == 40

    def test_uniform_scores_drop_lowest_annotator_index(self):
        ann = make_annotations([(0, 0, 0), (0, 1, 1), (1, 2, 0), (1, 0, 1)], 2, 3, 2)
        reduced, n_removed, n_skipped = drop_least_reliable(ann, np.full(4, 0.5))
        assert n_removed == 2 and n_skipped == 0
        kept = set(zip(reduced.instance_idx.tolist(), reduced.annotator_idx.tolist()))
        assert kept == {(0, 1), (1, 2)}

    def test_drops_match_loop_oracle_on_shuffled_tied_scores(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            pairs = [(i, j) for i in range(n) for j in range(m) if rng.random() < 0.6]
            if not pairs:
                continue
            triples = [(i, j, int(rng.integers(0, 2))) for i, j in rng.permutation(pairs)]
            ann = make_annotations(triples, n, m, 2)
            scores = rng.choice([0.1, 0.5, 0.9], size=ann.n_pairs)
            reduced, n_removed, n_skipped = drop_least_reliable(ann, scores)
            dropped = least_reliable_oracle(ann, scores)
            kept = [p for p in range(ann.n_pairs) if p not in dropped]
            assert n_removed == len(dropped)
            assert n_skipped == int((np.bincount(ann.instance_idx, minlength=n) == 1).sum())
            assert np.array_equal(reduced.instance_idx, ann.instance_idx[kept])
            assert np.array_equal(reduced.annotator_idx, ann.annotator_idx[kept])
            assert np.array_equal(reduced.label_idx, ann.label_idx[kept])

    @pytest.mark.parametrize("before, after, delta", [(0.846, 0.925, 0.079), (0.5, 0.5, 0.0),
                                                      (0.925, 0.846, -0.079), (0.0, 0.001, 0.001)])
    def test_delta_is_the_decimal_difference(self, before, after, delta):
        # 0.925 - 0.846 is 0.07900000000000007 in floating point
        result = DenoiseResult(F1Scores(before, before), F1Scores(after, after), 0, 0)
        assert repr(result.delta_micro) == repr(delta)

    def test_single_annotation_instances_are_skipped(self):
        ann = make_annotations([(0, 0, 0), (1, 0, 1), (1, 1, 0)], 2, 2, 2)
        with pytest.warns(UserWarning, match="single annotation"):
            result = denoise_experiment(ann, np.array([0.1, 0.5, 0.4]), majority_vote,
                                        np.array([0, 1]))
        assert result.n_skipped == 1
        assert result.n_removed == 1


FOUR_PAIRS = make_annotations([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)], 2, 2, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: f1(np.array([0, 1, 0]), np.array([0, 1])),
     "need 3 gold labels, one per prediction; got 2"),
    (lambda: reliability_report(np.full(4, 0.5), FOUR_PAIRS, np.array([0]), 1),
     "need 2 gold labels, one per instance; got 1"),
    (lambda: drop_least_reliable(FOUR_PAIRS, np.full(3, 0.5)),
     "need 4 reliability scores, one per annotation; got 3"),
    (lambda: denoise_experiment(FOUR_PAIRS, np.full(3, 0.5), majority_vote, np.array([0, 1])),
     "need 4 reliability scores, one per annotation; got 3"),
    (lambda: denoise_experiment(FOUR_PAIRS, np.full(4, 0.5), majority_vote, np.array([0])),
     "need 2 gold labels, one per instance; got 1"),
], ids=["f1-gold", "report-gold", "drop-scores", "denoise-scores", "denoise-gold"])
def test_arrays_of_another_length_are_data_errors(call, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        call()
