"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 checks the F1 code against the 27 published (precision, recall,
F1) triples at the stated 0.001. Six printed rows disagree with their own
precision and recall by more than that: four are printed to two decimals
only, and two are published errata. They are named with their reasons, and
the test asserts that the rows outside 0.001 are exactly those six.
"""

from fractions import Fraction

import numpy as np
import pytest

from attnboost.attention import TrainConfig
from attnboost.cli import run_command
from attnboost.errors import ModelFormatError
from attnboost.experiments import (
    SyntheticSpec,
    desk_scale_boost_config,
    generate_synthetic,
    run_ablation,
    run_feature_removal,
)
from attnboost.fusion import fit_variant, predict_matrix
from attnboost.gbdt import (
    BoostConfig,
    bin_features,
    build_histogram,
    find_best_split,
    train_boosting,
)
from attnboost.importance import collapse_attention_block, gain_importance
from attnboost.metrics import ConfusionMatrix, auc, compute_metrics
from attnboost.model_io import load_model, save_model
from attnboost.tabular import (
    apply_preprocessor,
    decompose_date,
    fit_preprocessor,
    stratified_split,
)
from test_attention import assert_epoch_matches_finite_differences, draw_checkable_case
from test_gbdt import _fm, _total_bce, brute_force_split
from test_metrics import pairwise_auc
from test_tabular import sakamoto_weekday


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


# (precision, recall, f1) triples as printed in the published comparison,
# ablation, and feature-removal tables. Kept as the printed strings, so the
# number of printed decimals is part of the data.
REPORTED_TRIPLES = [
    ("0.6523", "0.6029", "0.6257"), ("0.7231", "0.6834", "0.7029"),
    ("0.7819", "0.7521", "0.7667"), ("0.7438", "0.7015", "0.7221"),
    ("0.7642", "0.7260", "0.7435"), ("0.8145", "0.7842", "0.7986"),
    ("0.8333", "0.7931", "0.8129"), ("0.8021", "0.7690", "0.7840"),
    ("0.8832", "0.8641", "0.8735"), ("0.6829", "0.6412", "0.6615"),
    ("0.7534", "0.7153", "0.7332"), ("0.8217", "0.7889", "0.8049"),
    ("0.9056", "0.8847", "0.8949"), ("0.9132", "0.8913", "0.9018"),
    ("0.9268", "0.9022", "0.9143"), ("0.9415", "0.9184", "0.9298"),
    ("0.88", "0.86", "0.87"), ("0.82", "0.79", "0.80"), ("0.85", "0.82", "0.83"),
    ("0.83", "0.80", "0.81"), ("0.90", "0.88", "0.89"), ("0.92", "0.90", "0.91"),
    ("0.94", "0.92", "0.93"), ("0.89", "0.85", "0.87"), ("0.86", "0.83", "0.84"),
    ("0.88", "0.84", "0.86"), ("0.94", "0.92", "0.93"),
]

TWO_DECIMALS = "printed to two decimals only; the harmonic mean rounds to the printed F1"
ERRATUM = "published erratum; off beyond any rounding of the printed P, R or F1"

# The printed rows whose F1 is more than 0.001 from the exact harmonic mean of
# their own printed precision and recall (exact value in each comment).
INCONSISTENT_TRIPLES = {
    ("0.82", "0.79", "0.80"): TWO_DECIMALS,  # 0.804720
    ("0.85", "0.82", "0.83"): TWO_DECIMALS,  # 0.834731
    ("0.83", "0.80", "0.81"): TWO_DECIMALS,  # 0.814724
    ("0.86", "0.83", "0.84"): TWO_DECIMALS,  # 0.844734
    ("0.7642", "0.7260", "0.7435"): ERRATUM,  # 0.744610, off by 0.00111
    ("0.8021", "0.7690", "0.7840"): ERRATUM,  # 0.785201, off by 0.00120
}


def _counts_for(precision: float, recall: float) -> ConfusionMatrix:
    """Integer confusion counts realizing (precision, recall) to ~1e-7."""
    tp = round(1e7 * precision * recall)
    fp = round(tp / precision) - tp
    fn = round(tp / recall) - tp
    return ConfusionMatrix(tp=tp, tn=1000, fp=fp, fn=fn)


def _exact_f1(precision: str, recall: str) -> Fraction:
    p, r = Fraction(precision), Fraction(recall)
    return 2 * p * r / (p + r)


def test_criterion_01_reported_triples_consistency():
    scores = np.array([0.9, 0.1])
    y = np.array([1, 0])
    outside, off_exact, misrounded = set(), [], []
    for triple in REPORTED_TRIPLES:
        p, r, f1_printed = triple
        f1 = compute_metrics(_counts_for(float(p), float(r)), scores, y).f1
        exact = float(_exact_f1(p, r))
        if abs(f1 - exact) > 1e-6:
            off_exact.append((triple, f1, exact))
        if abs(f1 - float(f1_printed)) > 0.001:
            outside.add(triple)
        if INCONSISTENT_TRIPLES.get(triple) == TWO_DECIMALS and f"{f1:.2f}" != f1_printed:
            misrounded.append((triple, f1))
    unexpected = sorted(outside - INCONSISTENT_TRIPLES.keys())
    now_consistent = sorted(INCONSISTENT_TRIPLES.keys() - outside)
    ok = not (off_exact or misrounded or unexpected or now_consistent)
    named = "; ".join(f"{p}/{r}/{f} -> {float(_exact_f1(p, r)):.6f} ({reason})"
                      for (p, r, f), reason in INCONSISTENT_TRIPLES.items())
    _report(1, ok, f"F1 of {len(REPORTED_TRIPLES)} reported triples equals the exact "
                   f"harmonic mean within 1e-6; {len(outside)} outside 0.001, all "
                   f"named: {named}")
    assert not off_exact, f"F1 differs from the exact harmonic mean by > 1e-6: {off_exact}"
    assert not misrounded, f"F1 does not round to the printed two decimals: {misrounded}"
    assert not unexpected, f"reported triples newly outside 0.001: {unexpected}"
    assert not now_consistent, f"named triples now within 0.001: {now_consistent}"


def test_criterion_02_gradient_oracle():
    rng = np.random.default_rng(202)
    for _ in range(20):
        d, k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        batch_size = int(rng.integers(2, 5))
        n = batch_size * int(rng.integers(1, 3)) + int(rng.integers(1, batch_size))
        params, X, y = draw_checkable_case(rng, d, k, n)
        assert_epoch_matches_finite_differences(params, X, y, batch_size, rel=1e-4, abs_floor=1e-7)
    _report(2, True, "20 random networks: every mini-batch gradient of an epoch, as "
                     "training computes it (batch sizes 2-4, short last batch), matches "
                     "central finite differences of the batch mean loss (rel 1e-4, abs floor 1e-7)")


def test_criterion_03_split_finder_oracle():
    rng = np.random.default_rng(303)
    none_results = 0
    for trial in range(100):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 5))
        X = _fm(rng.normal(0, 1, (n, d)))
        binned = bin_features(X, max_bins=int(rng.integers(2, 16)))
        g = rng.normal(0, 1, n)
        h = rng.uniform(0.01, 1.0, n)
        config = BoostConfig(
            gamma=float(rng.choice([0.0, 0.2, 0.8, 2.0])),
            min_child_weight=float(rng.choice([0.0, 0.5, 2.0, 5.0])),
            reg_lambda=float(rng.choice([0.5, 1.0, 2.0])),
        )
        feats = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        rows = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        hist = build_histogram(rows, binned, g, h, feats)
        decision = find_best_split(hist, binned, feats, config)
        oracle = brute_force_split(rows, binned, g, h, feats, config)
        if oracle is None:
            none_results += 1
            assert decision is None, f"trial {trial}: expected none-result"
        else:
            assert decision is not None, f"trial {trial}: missing split"
            assert (decision.feature, decision.threshold) == (oracle[0], oracle[1]), \
                f"trial {trial}"
            assert decision.gain == pytest.approx(oracle[2], abs=1e-9)
    assert none_results > 0, "constraint cases never produced a none-result"
    _report(3, True, f"100 datasets match exhaustive enumeration "
                     f"({none_results} none-results under constraints)")


def test_criterion_04_auc_oracle():
    rng = np.random.default_rng(404)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            continue
        if rng.uniform() < 0.5:
            scores = rng.choice(np.linspace(0, 1, 6), size=n)  # force ties
        else:
            scores = rng.uniform(0, 1, n)
        assert auc(scores, y) == pytest.approx(pairwise_auc(scores, y), abs=1e-12)
        checked += 1
    _report(4, True, "200 score sets equal brute-force pairwise AUC within 1e-12")


def test_criterion_05_boosting_loss_monotone():
    for seed, n, d in ((10, 60, 2), (11, 50, 1), (12, 90, 3)):
        rng = np.random.default_rng(seed)
        X = _fm(rng.normal(0, 1, (n, d)))
        y = ((X.values[:, 0] + rng.normal(0, 1, n)) > 0).astype(int)
        config = BoostConfig(n_estimators=50, max_depth=3, subsample=1.0,
                             colsample_bytree=1.0, gamma=0.0, reg_alpha=0.0,
                             min_child_weight=0.0, seed=seed)
        model = train_boosting(X, y, config)
        losses = [_total_bce(model, X, y, t) for t in range(51)]
        for rounds, (prev, cur) in enumerate(zip(losses, losses[1:]), start=1):
            assert cur <= prev + 1e-9, f"fixture seed {seed}, round {rounds}"
    _report(5, True, "training BCE non-increasing over 50 rounds on 3 fixtures (1e-9)")


def test_criterion_06_cli_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        model = str(tmp_path / f"{tag}.model")
        metrics = str(tmp_path / f"{tag}.metrics.csv")
        code = run_command([
            "train", "--synthetic", "--synth.rows", "2000", "--synth.seed", "42",
            "--boost.n_estimators", "200", "--boost.seed", "42",
            "--out", model, "--metrics-out", metrics,
        ])
        assert code == 0
        outputs.append((open(model, "rb").read(), open(metrics, "rb").read()))
    ok = outputs[0] == outputs[1]
    _report(6, ok, "two seeded runs give byte-identical model and metrics files")
    assert ok


@pytest.fixture(scope="module")
def desk_scale_ablation():
    return run_ablation(
        SyntheticSpec(n_rows=5000, seed=42),
        attention_config=TrainConfig(),
        boost_config=desk_scale_boost_config(),
    )


def test_criterion_07_ablation_direction(desk_scale_ablation):
    f1 = {name: report.f1 for name, report in desk_scale_ablation.rows}
    cond_full = f1["full"] >= f1["no_attention"] - 0.005
    cond_random = abs(f1["no_attention"] - f1["random_attention"]) <= 0.05
    ok = cond_full and cond_random
    _report(7, ok, f"full={f1['full']:.4f} no_attention={f1['no_attention']:.4f} "
                   f"random={f1['random_attention']:.4f}")
    assert cond_full, f1
    assert cond_random, f1


def test_criterion_08_feature_removal_direction():
    result = run_feature_removal(
        ["Discount", "Quantity"],
        SyntheticSpec(n_rows=5000, seed=42),
        attention_config=TrainConfig(),
        boost_config=desk_scale_boost_config(),
    )
    f1 = {name: report.f1 for name, report in result.rows}
    full = f1["None (Full Model)"]
    dominant_drop = full - f1["Discount Removed"]
    irrelevant_change = abs(full - f1["Quantity Removed"])
    ok = dominant_drop >= 0.02 and irrelevant_change <= 0.02
    _report(8, ok, f"full={full:.4f} dominant drop={dominant_drop:.4f} "
                   f"irrelevant change={irrelevant_change:.4f}")
    assert dominant_drop >= 0.02, f1
    assert irrelevant_change <= 0.02, f1


def test_criterion_09_importance_ranks_planted_feature():
    table = generate_synthetic(SyntheticSpec(n_rows=2000, seed=42))
    state = fit_preprocessor(table, [])
    X, y = apply_preprocessor(state, table)
    split = stratified_split(X, y, 0.8, 42)
    model = fit_variant("no_attention", split.X_train, split.y_train,
                        TrainConfig(), desk_scale_boost_config(), preprocessor=state)
    ranking = collapse_attention_block(gain_importance(model.ensemble))
    top = ranking.entries[0].feature
    ok = top == "Discount"
    _report(9, ok, f"top collapsed-importance feature is {top!r}")
    assert ok, [(e.feature, round(e.share, 4)) for e in ranking.entries[:5]]


def test_criterion_10_persistence(tmp_path):
    table = generate_synthetic(SyntheticSpec(n_rows=600, seed=5))
    state = fit_preprocessor(table, [])
    X, y = apply_preprocessor(state, table)
    model = fit_variant("full", X, y, TrainConfig(k=16, epochs=3, seed=1),
                        BoostConfig(n_estimators=20, max_depth=4, gamma=0.0,
                                    min_child_weight=1.0, seed=2),
                        preprocessor=state)
    fresh = generate_synthetic(SyntheticSpec(n_rows=1000, seed=99))
    X_fresh, _ = apply_preprocessor(state, fresh)
    before, _ = predict_matrix(model, X_fresh)

    path = str(tmp_path / "model.file")
    save_model(model, path)
    after, _ = predict_matrix(load_model(path), X_fresh)
    identical = np.array_equal(before, after)

    text = open(path).read()
    marker = text.index('"ensemble"')
    data_at = text.index('"data":"', marker) + len('"data":"') + 5
    flipped = "A" if text[data_at] != "A" else "B"
    open(path, "w").write(text[:data_at] + flipped + text[data_at + 1:])
    try:
        load_model(path)
        rejected = False
    except ModelFormatError as exc:
        rejected = "ensemble" in str(exc)

    ok = identical and rejected
    _report(10, ok, f"1000-row probabilities bit-identical={identical}, "
                    f"corruption rejected with section name={rejected}")
    assert identical
    assert rejected


def test_criterion_11_preprocessing_oracle():
    table = generate_synthetic(SyntheticSpec(n_rows=2000, seed=42))
    state = fit_preprocessor(table, [])
    X, _ = apply_preprocessor(state, table)
    worst_mean, worst_std = 0.0, 0.0
    for name in state.numeric_stats:
        col = X.values[:, X.feature_names.index(name)]
        worst_mean = max(worst_mean, abs(float(col.mean())))
        worst_std = max(worst_std, abs(float(col.std()) - 1.0))
    z_ok = worst_mean < 1e-9 and worst_std < 1e-9

    date_ok = decompose_date("2017-05-13") == (2017, 5, 5) == (
        2017, 5, sakamoto_weekday(2017, 5, 13))
    ok = z_ok and date_ok
    _report(11, ok, f"max |mean|={worst_mean:.2e}, max |std-1|={worst_std:.2e}, "
                    f"calendar anchor ok={date_ok}")
    assert z_ok
    assert date_ok
