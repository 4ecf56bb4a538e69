import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtsst import metrics
from dualtsst.errors import DataError


# ---------------------------------------------------------------------------
# accuracy / kappa
# ---------------------------------------------------------------------------


def test_accuracy_examples():
    assert metrics.accuracy(np.diag([5, 3, 2])) == 1.0
    assert metrics.accuracy(np.array([[0, 2], [3, 0]])) == 0.0
    cm = np.array([[15, 2, 2, 1], [1, 15, 2, 2], [2, 1, 15, 2], [1, 2, 2, 15]])
    assert cm.sum() == 80 and np.trace(cm) == 60
    assert metrics.accuracy(cm) == 0.75


def test_accuracy_permutation_invariant(rng):
    cm = rng.integers(0, 20, size=(4, 4))
    cm[0, 0] += 1  # non-empty
    perm = rng.permutation(4)
    permuted = cm[np.ix_(perm, perm)]
    assert metrics.accuracy(cm) == metrics.accuracy(permuted)


def test_kappa_perfect_is_one():
    assert metrics.kappa(np.diag([7, 9, 1, 3])) == 1.0


def test_kappa_uniform_random_is_zero():
    cm = np.full((4, 4), 10)
    assert abs(metrics.kappa(cm)) < 1e-15


def test_kappa_hand_value_balanced_marginals():
    # balanced true classes, accuracy 0.8067 -> kappa (0.8067-0.25)/0.75 exactly
    diag = [2017, 2017, 2017, 2016]
    cm = np.zeros((4, 4), dtype=np.int64)
    for i, d in enumerate(diag):
        cm[i, i] = d
        cm[i, (i + 1) % 4] = 2500 - d
    assert cm.sum() == 10000 and np.all(cm.sum(axis=1) == 2500)
    p_o = 8067 / 10000
    expected = (p_o - 0.25) / 0.75
    assert abs(metrics.kappa(cm) - expected) < 1e-12
    assert abs(expected - 0.7423) < 1e-4  # same ballpark as the reported 0.7413


def test_kappa_degenerate_single_cell():
    assert metrics.kappa(np.array([[5, 0], [0, 0]])) == 1.0


def test_kappa_bounds_property(rng):
    for _ in range(200):
        cm = rng.integers(0, 30, size=(3, 3))
        if cm.sum() == 0:
            continue
        p_e = metrics.expected_agreement(cm)
        assert 0.0 <= p_e <= 1.0
        if p_e < 1.0:
            assert -1.0 - 1e-12 <= metrics.kappa(cm) <= 1.0 + 1e-12


def test_kappa_one_iff_diagonal(rng):
    for _ in range(200):
        cm = rng.integers(0, 10, size=(3, 3))
        if cm.sum() == 0 or metrics.expected_agreement(cm) >= 1.0:
            continue
        is_diag = np.all(cm == np.diag(np.diag(cm))) and np.trace(cm) > 0
        assert (metrics.kappa(cm) == 1.0) == is_diag


def test_confusion_matrix_build():
    cm = metrics.confusion_matrix([0, 0, 1, 2], [0, 1, 1, 2], 3)
    np.testing.assert_array_equal(cm, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DataError):
        metrics.confusion_matrix([0, 3], [0, 0], 3)


def test_per_class_recall():
    cm = np.array([[3, 1], [2, 2]])
    np.testing.assert_allclose(metrics.per_class_recall(cm), [0.75, 0.5])


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank
# ---------------------------------------------------------------------------


def wilcoxon_enumeration_oracle(d):
    """Literal enumeration of every sign pattern on the observed |d| ranks."""
    d = np.asarray(d, dtype=float)
    d = d[d != 0]
    n = len(d)
    ranks = metrics._midranks(np.abs(d))
    w_plus = ranks[d > 0].sum()
    w_minus = ranks[d < 0].sum()
    w_obs = min(w_plus, w_minus)
    hits = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        s = np.asarray(signs)
        wp = ranks[s > 0].sum()
        wm = ranks[s < 0].sum()
        if min(wp, wm) <= w_obs + 1e-12:
            hits += 1
    return w_obs, hits / 2.0**n


def test_wilcoxon_simple_example():
    res = metrics.wilcoxon_signed_rank([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert res.statistic == 0.0
    assert res.p_value == 0.25
    assert res.method == "exact"


def test_wilcoxon_all_zero_differences_undefined():
    res = metrics.wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
    assert not res.defined
    assert res.p_value is None


def test_wilcoxon_antisymmetric(rng):
    a = rng.normal(size=10)
    b = rng.normal(size=10)
    r1 = metrics.wilcoxon_signed_rank(a, b)
    r2 = metrics.wilcoxon_signed_rank(b, a)
    assert r1.statistic == r2.statistic
    assert r1.p_value == r2.p_value


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=8))
def test_wilcoxon_exact_matches_enumeration(diffs):
    d = np.asarray(diffs, dtype=float)
    res = metrics.wilcoxon_signed_rank(d, np.zeros_like(d))
    if np.all(d == 0):
        assert not res.defined
        return
    w, p = wilcoxon_enumeration_oracle(d)
    assert res.method == "exact"
    assert res.statistic == w
    assert abs(res.p_value - p) < 1e-12


def test_wilcoxon_normal_approximation_path(rng):
    a = rng.normal(size=30) + 0.8
    b = rng.normal(size=30)
    res = metrics.wilcoxon_signed_rank(a, b)
    assert res.method == "normal"
    assert 0.0 < res.p_value <= 1.0
    # a clear shift should look significant
    assert res.p_value < 0.05


def test_wilcoxon_normal_with_ties(rng):
    d = rng.integers(-3, 4, size=25).astype(float)
    d[d == 0] = 1.0
    res = metrics.wilcoxon_signed_rank(d, np.zeros_like(d))
    assert res.method == "normal"
    assert 0.0 < res.p_value <= 1.0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_export_csv_bytes(tmp_path):
    report = metrics.EvalReport(
        accuracy=7 / 8,
        kappa=0.75,
        per_class_recall=[0.75, 1.0],
        confusion=np.array([[3, 1], [0, 4]]),
        n=8,
        class_names=["0", "1"],
    )
    csv_path, _ = metrics.export_report(report, tmp_path)
    assert csv_path.read_bytes() == b"pred_0,pred_1\n3,1\n0,4\n"


def test_export_report_json_and_round_trip(tmp_path):
    report = metrics.evaluate_predictions(
        [0, 1, 1, 0], [0, 1, 1, 0], class_names=["left", "right"],
        config={"embed_dim": 8},
    )
    assert report.accuracy == 1.0
    metrics.export_report(report, tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload == {"accuracy": 1.0, "kappa": 1.0, "per_class_recall": [1.0, 1.0],
                       "n": 4, "class_names": ["left", "right"], "p_values": None,
                       "config": {"embed_dim": 8}}
    assert (tmp_path / "confusion.csv").read_bytes() == b"pred_left,pred_right\n2,0\n0,2\n"


def test_subject_summary():
    groups = {
        "s1": (np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1])),
        "s2": (np.array([0, 1, 0, 1]), np.array([0, 1, 1, 1])),
    }
    out = metrics.subject_summary(groups, n_classes=2)
    assert out["per_subject"]["s1"]["accuracy"] == 1.0
    assert out["per_subject"]["s2"]["accuracy"] == 0.75
    assert out["kappa_mean"] == (1.0 + metrics.kappa(
        metrics.confusion_matrix([0, 1, 0, 1], [0, 1, 1, 1], 2))) / 2
    assert 0.0 < out["kappa_pooled"] <= 1.0
