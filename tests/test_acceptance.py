"""End-to-end acceptance gate.

Each test pins one release criterion at its stated tolerance and prints a
single PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``
to see the lines. Heavy artifacts (trained models across datasets and
seeds) are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from helpers import (
    brute_force_posteriors,
    finite_diff_grads,
    fleiss_kappa_oracle,
    krippendorff_alpha_oracle,
    make_annotations,
    max_relative_error,
    random_annotation_setup,
)
from crowdrel.baselines import dawid_skene, majority_vote
from crowdrel.data import (
    LabelSet,
    feature_matrix,
    load_annotations,
    load_instances,
    write_annotations,
    write_instances,
)
from crowdrel.evaluate import denoise_experiment, f1, fleiss_kappa, krippendorff_alpha
from crowdrel.featurize import fit_tfidf, transform_tfidf
from crowdrel.model import (
    TrainConfig,
    posterior_from_priors,
    posterior_table,
    predict_labels,
    reliability_scores,
    train,
)
from crowdrel.neural import PairInput, backward, init_fnn
from crowdrel.simulate import default_panel, gen_2d, gen_text_fixture, simulate_annotations

SEEDS = (0, 1, 2)
DATASETS = ("moon", "circle", "three-class")


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def posterior_suite():
    rng = np.random.default_rng(20240131)
    cases = []
    started = time.monotonic()
    for _ in range(200):
        label_prior, rel_prior, ann = random_annotation_setup(rng)
        post = posterior_from_priors(label_prior, rel_prior, ann)
        table = posterior_table(label_prior, rel_prior, ann)
        cases.append((label_prior, rel_prior, ann, post, table))
    elapsed = time.monotonic() - started
    return cases, elapsed


def test_criterion_1_posterior_matches_enumeration(posterior_suite):
    cases, forward_time = posterior_suite
    started = time.monotonic()
    worst = 0.0
    for label_prior, rel_prior, ann, post, table in cases:
        tables, label_post = brute_force_posteriors(label_prior, rel_prior, ann)
        worst = max(worst,
                    float(np.abs(table - tables).max()),
                    float(np.abs(post.label_posterior - label_post).max()))
        rel = tables[np.arange(ann.n_pairs), :, 1].sum(axis=1)
        worst = max(worst, float(np.abs(post.reliability_posterior - rel).max()))
    runtime = forward_time + (time.monotonic() - started)
    report(1, worst <= 1e-10 and runtime < 10.0,
           f"200 random posteriors vs enumeration: max dev {worst:.2e}, {runtime:.1f}s")


def test_criterion_2_pair_consistency(posterior_suite):
    cases, _ = posterior_suite
    worst_j, worst_norm = 0.0, 0.0
    for _, _, ann, post, table in cases:
        sums = table.sum(axis=(1, 2))
        worst_norm = max(worst_norm, float(np.abs(sums - 1.0).max()))
        label_marginals = table.sum(axis=2)
        spread = np.abs(label_marginals - post.label_posterior[ann.instance_idx]).max()
        worst_j = max(worst_j, float(spread))
    report(2, worst_j <= 1e-10 and worst_norm <= 1e-9,
           f"marginal spread across annotators {worst_j:.2e}, table norm dev {worst_norm:.2e}")


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(91)
    worst = 0.0
    for trial in range(100):
        head = "sigmoid" if trial % 2 else "softmax"
        d, h1, h2 = (int(rng.integers(1, 5)) for _ in range(3))
        out = 1 if head == "sigmoid" else int(rng.integers(2, 4))
        params = init_fnn(d, h1, h2, out, head, rng)
        for b in params.biases:
            b[:] = rng.normal(0.0, 0.3, size=b.shape)
        batch = int(rng.integers(1, 6))
        x = rng.normal(size=(batch, d))
        if head == "softmax":
            targets = rng.dirichlet(np.ones(out), size=batch)
        else:
            targets = rng.uniform(0.05, 0.95, size=batch)
        analytic = backward(params, x, targets, float(batch))
        numeric = finite_diff_grads(params, x, targets, float(batch))
        worst = max(worst, max_relative_error(analytic, numeric))
    # the estimator's gathered input: per-instance representation rows, gathered per
    # pair, plus an annotator-row lookup
    for _ in range(50):
        h, m, h1, h2 = (int(rng.integers(1, 5)) for _ in range(4))
        params = init_fnn(h + m, h1, h2, 1, "sigmoid", rng)
        for b in params.biases:
            b[:] = rng.normal(0.0, 0.3, size=b.shape)
        batch = int(rng.integers(1, 8))
        n = (batch + 1) // 2  # fewer instances than pairs: some instance repeats
        pairs = PairInput(rng.normal(size=(n, h)), rng.integers(0, n, size=batch),
                          rng.integers(0, m, size=batch), m)
        targets = rng.uniform(0.05, 0.95, size=batch)
        analytic = backward(params, pairs, targets, float(batch))
        numeric = finite_diff_grads(params, pairs, targets, float(batch))
        worst = max(worst, max_relative_error(analytic, numeric))
    report(3, worst < 1e-4,
           f"100 dense + 50 gathered configurations, worst relative gradient error {worst:.2e}")


def moon_panel(seed, n=1000):
    instances, gold = gen_2d("moon", n, seed=seed)
    ann = simulate_annotations(gold, 2, default_panel(2), seed=seed,
                               instance_ids=[inst.id for inst in instances])
    return feature_matrix(instances), ann, gold


def test_criterion_4_em_and_ds_monotonicity():
    x, ann, gold = moon_panel(seed=0)
    result = train(x, ann, TrainConfig(mode="em", seed=0))
    improved = sum(1 for row in result.trace if row.objective_end >= row.objective_start)
    frac = improved / len(result.trace)
    ds_trace = np.array(dawid_skene(ann, 2).log_likelihood)
    ds_ok = bool(np.all(np.diff(ds_trace) >= -1e-9))
    report(4, frac >= 0.95 and ds_ok,
           f"Q improved in {improved}/{len(result.trace)} outer iterations, "
           f"DS log-likelihood min step {np.diff(ds_trace).min():+.2e}")


@pytest.fixture(scope="module")
def trained_2d():
    runs = {}
    started = time.monotonic()
    for kind in DATASETS:
        k = 3 if kind == "three-class" else 2
        for seed in SEEDS:
            instances, gold = gen_2d(kind, 1000, seed=seed)
            ann = simulate_annotations(gold, k, default_panel(k), seed=seed,
                                       instance_ids=[inst.id for inst in instances])
            x = feature_matrix(instances)
            result = train(x, ann, TrainConfig(mode="ce-jt", pretrain_source="ds", seed=seed))
            pred, _ = predict_labels(result.state, x, ann)
            runs[(kind, seed)] = {
                "x": x, "ann": ann, "gold": gold, "state": result.state,
                "ours": f1(pred, gold).micro,
                "mv": f1(majority_vote(ann, k), gold).micro,
                "ds": f1(dawid_skene(ann, k).hard_labels, gold).micro,
            }
    return runs, time.monotonic() - started


def test_criterion_5_end_to_end_2d(trained_2d):
    runs, elapsed = trained_2d
    floors = {"moon": 0.97, "circle": 0.97, "three-class": 0.98}
    ok = elapsed < 900.0
    parts = []
    for kind in DATASETS:
        ours = np.mean([runs[(kind, s)]["ours"] for s in SEEDS])
        mv = np.mean([runs[(kind, s)]["mv"] for s in SEEDS])
        ds = np.mean([runs[(kind, s)]["ds"] for s in SEEDS])
        ok = ok and ours >= floors[kind] and 0.80 <= mv <= 0.90 and ds >= 0.95
        parts.append(f"{kind}: ours {ours:.3f} mv {mv:.3f} ds {ds:.3f}")
    report(5, ok, "; ".join(parts) + f"; {elapsed:.0f}s over {len(runs)} runs")


def reliability_by_annotator(run, n_labels):
    scores = reliability_scores(run["state"], run["x"], run["ann"])
    gold = run["gold"].to_array(len(run["x"]))
    ann = run["ann"]
    stats = {}
    for j, name in enumerate(ann.annotator_ids):
        sel = ann.annotator_idx == j
        truth = gold[ann.instance_idx[sel]]
        values = scores.posterior[sel]
        stats[name] = (values, truth)
    return stats


def test_criterion_6_reliability_patterns(trained_2d):
    runs, _ = trained_2d
    run = runs[("three-class", 0)]
    stats = reliability_by_annotator(run, 3)
    ok = True
    parts = []
    for name, (values, truth) in stats.items():
        if "_N" in name:
            domain = int(name[-1])
            gap = values[truth == domain].mean() - values[truth != domain].mean()
            ok = ok and gap >= 0.2
            parts.append(f"{name} gap {gap:+.2f}")
        elif name.endswith("_R"):
            ok = ok and values.mean() < 0.3
            parts.append(f"random {values.mean():.3f}")
        elif name.endswith("_B"):
            ok = ok and values.mean() > 0.7
            parts.append(f"broad {values.mean():.3f}")
    report(6, ok, ", ".join(parts))


def test_criterion_7_denoising_never_hurts(trained_2d):
    runs, _ = trained_2d
    deltas = []
    for seed in SEEDS:
        run = runs[("moon", seed)]
        scores = reliability_scores(run["state"], run["x"], run["ann"])
        result = denoise_experiment(run["ann"], scores.posterior,
                                    lambda a: majority_vote(a, 2), run["gold"])
        deltas.append(result.delta_micro)
    ok = all(d >= 0.0 for d in deltas) and any(d > 0.0 for d in deltas)
    report(7, ok, "MV deltas " + ", ".join(f"{d:+.4f}" for d in deltas))


def test_criterion_8_agreement_statistics():
    triples = ([(0, j, 0) for j in range(3)] + [(1, j, 0) for j in range(3)]
               + [(2, 0, 0), (2, 1, 1), (2, 2, 1)])
    worked = make_annotations(triples, 3, 3, 2)
    kappa = fleiss_kappa(worked, 2)
    kappa_expected = fleiss_kappa_oracle(np.array([[3, 0], [3, 0], [1, 2]]))
    kappa_ok = abs(kappa - kappa_expected) <= 1e-9

    unanimous = make_annotations([(i, j, i % 3) for i in range(5) for j in range(3)], 5, 3, 3)
    alpha_perfect = krippendorff_alpha(unanimous, 3)

    sparse = make_annotations([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1),
                               (2, 0, 1), (2, 1, 1), (2, 2, 1), (3, 0, 0)], 4, 3, 2)
    alpha = krippendorff_alpha(sparse, 2)
    alpha_expected = krippendorff_alpha_oracle([[0, 0], [0, 1], [1, 1, 1], [0]])
    alpha_ok = abs(alpha_perfect - 1.0) <= 1e-12 and abs(alpha - alpha_expected) <= 1e-9
    report(8, kappa_ok and alpha_ok,
           f"kappa {kappa:.6f} (oracle {kappa_expected:.6f}), alpha {alpha:.6f} "
           f"(oracle {alpha_expected:.6f}), perfect-agreement alpha {alpha_perfect:.1f}")


def test_criterion_9_text_pipeline(tmp_path):
    started = time.monotonic()
    # loader and featurizer round trips on the bundled synthetic corpus
    instances, gold = gen_text_fixture(500, 3, seed=0)
    ann = simulate_annotations(gold, 3, default_panel(3), seed=0,
                               instance_ids=[inst.id for inst in instances])
    labels = LabelSet(("0", "1", "2"))
    write_annotations(tmp_path / "ann.csv", ann, labels)
    reloaded = load_annotations(tmp_path / "ann.csv", labels,
                                instance_ids=[inst.id for inst in instances],
                                annotator_ids=list(ann.annotator_ids))
    round_trip_ok = reloaded.triples() == ann.triples()

    vocab = fit_tfidf([inst.text for inst in instances])
    x = np.stack([transform_tfidf(vocab, inst.text) for inst in instances])
    norms = np.linalg.norm(x, axis=1)
    featurizer_ok = bool(np.all(np.abs(norms - 1.0) < 1e-9))

    dense = gen_2d("moon", 50, seed=0)[0]
    write_instances(tmp_path / "inst.csv", dense)
    dense_back = load_instances(tmp_path / "inst.csv", "dense-csv")
    dense_ok = np.array_equal(feature_matrix(dense), feature_matrix(dense_back))

    result = train(x, ann, TrainConfig(mode="ce-jt", pretrain_source="ds",
                                       classifier_hidden=32, estimator_hidden=32, seed=0))
    scores = reliability_scores(result.state, x, ann)
    gold_arr = gold.to_array(500)
    pattern_ok = True
    for j, name in enumerate(ann.annotator_ids):
        sel = ann.annotator_idx == j
        values = scores.posterior[sel]
        truth = gold_arr[ann.instance_idx[sel]]
        if "_N" in name:
            domain = int(name[-1])
            pattern_ok &= values[truth == domain].mean() - values[truth != domain].mean() >= 0.2
        elif name.endswith("_R"):
            pattern_ok &= values.mean() < 0.3
        elif name.endswith("_B"):
            pattern_ok &= values.mean() > 0.7
    elapsed = time.monotonic() - started
    report(9, round_trip_ok and featurizer_ok and dense_ok and pattern_ok and elapsed < 300.0,
           f"round trips ok, tf-idf norms ok, reliability pattern on 500-doc corpus, {elapsed:.0f}s")
