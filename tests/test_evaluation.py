import collections
import io
import logging
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewalk.errors import ConfigError, ValidationError
from edgewalk.evaluation import (
    SOLVER_MAX_ITER,
    EvalConfig,
    OvrClassifier,
    fit_binary_logreg,
    macro_f1,
    minimize,
    node_classification_experiment,
    predict_top_k,
    split_nodes,
    train_ovr_logreg,
    _logreg_objective,
)

from helpers import label_sets, multi_hot
from oracles import macro_f1_brute_force, minimize_reference, top_k_by_ranks, top_k_reference


def f1_of_sets(truth, preds):
    """macro_f1 of two lists of label sets, converted to multi-hot at the call."""
    width = 1 + max((lab for s in truth + preds for lab in s), default=0)
    return macro_f1(multi_hot(truth, width), multi_hot(preds, width))


# logistic regression ----------------------------------------------------------


def test_separable_toy_reaches_full_training_accuracy():
    x = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
    positive = np.array([False, False, False, True, True, True])
    (w,), (b,) = fit_binary_logreg(x, positive, l2_strength=1.0)
    predicted = (x @ w + b) > 0
    assert (predicted == positive).all()


def test_huge_regularization_pushes_weights_to_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    positive = rng.random(40) < 0.7  # positives dominate
    (w,), (b,) = fit_binary_logreg(x, positive, l2_strength=1e8)
    assert np.abs(w).max() < 1e-4
    assert b > 0  # bias carries the class prior


def test_duplicated_feature_columns_get_symmetric_weights():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(60, 1))
    x = np.hstack([base, base])
    positive = base.ravel() + 0.3 * rng.normal(size=60) > 0
    (w,), _ = fit_binary_logreg(x, positive, l2_strength=1.0)
    assert w[0] == pytest.approx(w[1], abs=1e-6)


def test_solver_matches_long_run_reference():
    # Convexity gives a unique optimum: a 10x iteration budget must land on
    # an objective value within 1e-8 of the production setting's.
    rng = np.random.default_rng(2)
    for trial in range(5):
        x = rng.normal(size=(30, 4))
        positive = rng.random(30) < 0.5
        if positive.all() or not positive.any():
            continue
        w, b = fit_binary_logreg(x, positive, l2_strength=1.0)
        w_ref, b_ref = fit_binary_logreg(x, positive, l2_strength=1.0,
                                         max_iter=10_000)
        sign = np.where(positive, 1.0, -1.0)
        f = _logreg_objective(np.append(w, b), x, sign, 1.0)[0]
        f_ref = _logreg_objective(np.append(w_ref, b_ref), x, sign, 1.0)[0]
        assert abs(f - f_ref) <= 1e-8


# The package's L-BFGS against scipy's L-BFGS-B, which the tests may import
# and the package does not.


def scipy_lbfgsb(args, gtol=1e-6, ftol=2.220446049250313e-09):
    """scipy's L-BFGS-B from zero; the defaults are the settings the package
    solver mirrors (gtol, ftol and the iteration cap)."""
    return scipy.optimize.minimize(_logreg_objective, np.zeros(args[0].shape[1] + 1), args=args,
                                   jac=True, method="L-BFGS-B",
                                   options={"gtol": gtol, "ftol": ftol, "maxiter": 1000,
                                            "maxfun": 100_000})


def random_problems(seed, l2, count=20):
    """Logistic problems with an optimum: more rows than a few columns, random labels."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n, d = int(rng.integers(20, 80)), int(rng.integers(1, 8))
        x = rng.normal(size=(n, d)) * (1e-3, 1.0, 30.0)[trial % 3]
        positive = rng.random(n) < rng.uniform(0.2, 0.8)
        if positive.any() and not positive.all():
            yield x, np.where(positive, 1.0, -1.0), l2


def rowwise(*objectives):
    """The objective ``fun(x, rows)`` of ``minimize`` whose row i is the objective
    ``objectives[i](x) -> (value, gradient)`` of one vector."""
    def fun(x, rows):
        values, grads = zip(*(objectives[r](xr) for r, xr in zip(rows, x)))
        return np.array(values), np.array(grads)
    return fun


def solve(args):
    """The package solver on one logistic problem, as a batch of one."""
    x, sign, l2 = args
    res = minimize(lambda theta, rows: _logreg_objective(theta, x, sign[None][rows], l2),
                   np.zeros((1, x.shape[1] + 1)))
    return SimpleNamespace(x=res.x[0], fun=res.fun[0], nit=res.nit)


def test_solver_reaches_a_tight_optimum():
    # Against L-BFGS-B run far past the production tolerances. On larger
    # problems with features at scale 30, both solvers stop on the decrease
    # rule earlier (gaps near 1e-6), so the columns here stay few.
    for args in random_problems(5, 1.0):
        tight = scipy_lbfgsb(args, gtol=1e-10, ftol=1e-15).fun
        assert solve(args).fun - tight <= 1e-8 * abs(tight)


@pytest.mark.parametrize("l2", [0.0, 1e8])
def test_solver_no_worse_than_lbfgsb_off_the_default_l2(l2):
    for args in random_problems(6, l2):
        reference = scipy_lbfgsb(args).fun
        assert solve(args).fun - reference <= 1e-3 * max(abs(reference), 1.0)


@pytest.mark.parametrize("l2, seed", [(1.0, 5), (0.0, 6), (1e8, 6)])
def test_solver_takes_as_many_iterations_as_lbfgsb(l2, seed):
    # The same first step, memory and stopping rules: the totals are equal on
    # these problems, and dropping the decrease rule adds 15-24 % to them.
    ours = sum(solve(args).nit for args in random_problems(seed, l2))
    theirs = sum(scipy_lbfgsb(args).nit for args in random_problems(seed, l2))
    assert abs(ours - theirs) <= 0.05 * theirs


def test_zero_iterations_return_the_start():
    args = next(random_problems(7, 1.0))
    x0 = np.linspace(-1.0, 1.0, args[0].shape[1] + 1)[None]
    res = minimize(rowwise(lambda theta: _logreg_objective(theta, *args)), x0, maxiter=0)
    assert res.nit == 0 and np.array_equal(res.x, x0)
    assert res.x is not x0


def test_start_meeting_the_gradient_tolerance_takes_no_iteration():
    x0 = np.full((1, 3), 1e-7)
    res = minimize(rowwise(lambda x: (0.5 * (x @ x), x.copy())), x0)
    assert res.nit == 0 and np.array_equal(res.x, x0)


def test_first_trial_step_is_one_over_the_gradient_norm():
    # On 0.5 ||x||^2 from ||x0|| = 5 the trial x0 - g / ||g|| meets both Wolfe
    # conditions, so the first iteration ends there.
    x0 = np.array([[3.0, 4.0]])
    res = minimize(rowwise(lambda x: (0.5 * (x @ x), x.copy())), x0, maxiter=1)
    np.testing.assert_allclose(res.x, 0.8 * x0, rtol=1e-15)


def test_separable_and_extreme_problems_raise_no_runtime_warning():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(30, 5))
    separable = np.where(x @ rng.normal(size=5) > 0, 1.0, -1.0)
    toy = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
    separable_problems = [(x, separable, 0.0), (x * 1e3, separable, 0.0),
                          (toy, np.repeat([-1.0, 1.0], 3), 0.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in separable_problems:
            # No optimum exists at l2 = 0; the gradient or decrease rule
            # still ends the run, with the training points separated.
            res = solve(args)
            assert res.nit < 1000 and ((args[0] @ res.x[:-1] + res.x[-1]) * args[1] > 0).all()
        for args in [(x, separable, 1e8), *random_problems(9, 0.0), *random_problems(9, 1e8)]:
            res = solve(args)
            assert np.isfinite(res.x).all() and np.isfinite(res.fun)


def test_gradient_coefficient_matches_expit():
    # With one zero feature column, z = sign * bias, and the bias gradient is
    # the coefficient -sign * expit(-z) itself. At z = 745 the exact value,
    # 2.8e-324, rounds to the smallest subnormal; scipy's expit gives 0 there,
    # so one subnormal of absolute difference is allowed.
    for z in [0.0, 1e-300, 1.0, 30.0, 700.0, 745.0, 1e308]:
        for value in (z, -z):
            for sign in (1.0, -1.0):
                _, grad = _logreg_objective(np.array([0.0, value * sign]), np.zeros((1, 1)),
                                            np.array([sign]), 1.0)
                want = -sign * scipy.special.expit(-value)
                assert abs(grad[-1] - want) <= (1e-12 * abs(want)
                                                + np.finfo(np.float64).smallest_subnormal)


# Lockstep solving against the one-problem reference: every row of a batch
# must get, bit for bit, the x, value and iteration count it gets alone.


def assert_rows_solved_as_alone(objectives, x0, events=None, **kwargs):
    res = minimize(rowwise(*objectives), x0, **kwargs)
    for i, fun in enumerate(objectives):
        alone = minimize_reference(fun, x0[i], events=events, **kwargs)
        assert res.x[i].tobytes() == alone.x.tobytes(), i
        assert np.float64(res.fun[i]).tobytes() == np.float64(alone.fun).tobytes(), i
        assert res.nits[i] == alone.nit, i
    assert type(res.nit) is int and res.nit == res.nits.sum()
    return res


def quadratic(a, c):
    return lambda x: (0.5 * ((a * (x - c)) @ (x - c)), a * (x - c))


def linear(c):
    """No minimum: every line search extrapolates until it runs out of trials."""
    return lambda x: (c @ x, c.copy())


def log_quadratic(a):
    """The value log(sum a x^2) with the gradient a x of the quadratic. With
    gtol 0 the iterates reach 1e-160 and below, where the slopes and s'y
    underflow to zero: the direction is no longer a descent direction, and
    the pair of the restarted step is rejected."""
    def fun(x):
        m = np.abs(x).max()
        return (2 * np.log(m) + np.log(a @ (x / m) ** 2) if m > 0 else -np.inf), a * x
    return fun


def logistic(seed, n, d, scale, l2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * scale
    sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return lambda theta: _logreg_objective(theta, x, sign, l2)


def branch_batches():
    """(objectives, x0, gtol) batches whose rows between them take every branch."""
    rng = np.random.default_rng(20)
    a = np.geomspace(0.5, 50.0, 16)
    yield ([quadratic(a, np.ones(16)), linear(rng.normal(size=16)),
            logistic(1, 60, 15, 30.0, 0.0), logistic(2, 40, 15, 1.0, 1.0),
            quadratic(a, rng.normal(size=16))],
           np.vstack([np.full(16, 1 + 1e-8), np.zeros((3, 16)), rng.normal(size=(1, 16))]),
           1e-6)
    start = np.random.default_rng(2).normal(size=2)
    yield ([log_quadratic(np.linspace(1.0, 1.5, 2)), log_quadratic(np.linspace(1.0, 4.0, 2)),
            quadratic(np.array([1.0, 10.0]), np.array([1.0, -2.0])), linear(np.array([1.0, -3.0])),
            logistic(4, 30, 1, 30.0, 0.0)],
           np.vstack([start, start, [3.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), 0.0)


@pytest.mark.parametrize("maxiter", [0, 1, 2, 40, SOLVER_MAX_ITER])
def test_lockstep_rows_get_the_bits_they_get_alone(maxiter):
    events = collections.Counter()
    nits = []
    # The underflowing rows divide by subnormal curvatures; both solvers
    # overflow there in the same places.
    with np.errstate(over="ignore", invalid="ignore"):
        for objectives, x0, gtol in branch_batches():
            nits += assert_rows_solved_as_alone(objectives, x0, events, gtol=gtol,
                                                maxiter=maxiter).nits.tolist()
    assert max(nits) <= maxiter
    if maxiter == SOLVER_MAX_ITER:
        assert set(events) == {"start meets gtol", "pair kept", "memory wrapped",
                               "restart", "pair rejected", "line search exhausted",
                               "decrease stop"}
        assert len(set(nits)) >= 6       # the rows stop at different iterations


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([0.0, 1e-3, 1.0, 1e8]), st.sampled_from([1e-3, 1.0, 30.0]),
       st.integers(1, 6), st.integers(2, 60), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_lockstep_logistic_fits_match_fits_alone(l2, scale, labels, n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * scale
    positive = rng.random((n, labels)) < rng.uniform(0.1, 0.9, size=labels)
    sign = np.where(positive.T, 1.0, -1.0)
    res = minimize(lambda theta, rows: _logreg_objective(theta, x, sign[rows], l2),
                   np.zeros((labels, d + 1)))
    w, b = fit_binary_logreg(x, positive, l2)
    assert w.tobytes() == res.x[:, :-1].tobytes() and b.tobytes() == res.x[:, -1].tobytes()
    for lab in range(labels):
        alone = minimize_reference(_logreg_objective, np.zeros(d + 1), args=(x, sign[lab], l2))
        assert res.x[lab].tobytes() == alone.x.tobytes()
        assert np.float64(res.fun[lab]).tobytes() == np.float64(alone.fun).tobytes()
        assert res.nits[lab] == alone.nit


def stacked_splits(seed, repeats, n=30, d=5, labels=4):
    """(R, N, F) features and (R, N, L) targets of ``repeats`` splits. Label 0 has no
    positive in repeat 0 and label 1 no negative in repeat 1; repeat 2 has no trainable
    label, so repeats skip different labels."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(repeats, n, d)) * rng.uniform(0.3, 3.0, size=(repeats, 1, d))
    targets = rng.random((repeats, n, labels)) < rng.uniform(0.1, 0.9, size=labels)
    targets[0, :, 0] = False
    targets[1:2, :, 1] = True
    targets[2:3] = True
    return x, targets


@pytest.mark.parametrize("l2", [0.0, 1.0, 1e8])
@pytest.mark.parametrize("repeats", [1, 4])
def test_stacked_fit_matches_each_split_alone(l2, repeats):
    # One lockstep solve over every (repeat, label) problem gives each repeat the
    # classifier, and each label the iterates, that its split gets alone.
    x, targets = stacked_splits(30 + repeats, repeats)
    stacked = train_ovr_logreg(x, targets, l2)
    assert stacked.skipped_labels == [tuple(w) for w in np.argwhere(~stacked.trained).tolist()]
    nits, skipped = [], []
    for r in range(repeats):
        alone = train_ovr_logreg(x[r], targets[r], l2)
        assert stacked.weights[r].tobytes() == alone.weights.tobytes(), r
        assert stacked.biases[r].tobytes() == alone.biases.tobytes(), r
        assert np.array_equal(stacked.trained[r], alone.trained), r
        skipped.append([lab for rep, lab in stacked.skipped_labels if rep == r])
        assert skipped[r] == alone.skipped_labels, r
        for lab in np.flatnonzero(alone.trained):
            sign = np.where(targets[r, :, lab], 1.0, -1.0)
            ref = minimize_reference(_logreg_objective, np.zeros(x.shape[2] + 1),
                                     args=(x[r], sign, l2))
            theta = np.append(stacked.weights[r, lab], stacked.biases[r, lab])
            assert theta.tobytes() == ref.x.tobytes(), (r, lab)
            nits.append(ref.nit)
    assert skipped == [[0], [1], [0, 1, 2, 3], []][:repeats]
    assert len(set(nits)) > 1             # the problems stop at different iterations


def test_fits_need_no_numpy_2_only_dot(monkeypatch):
    # pyproject allows numpy 1.24, which has no np.vecdot.
    x = np.random.default_rng(4).normal(size=(30, 3))
    positive = x[:, :2] > 0
    expected = fit_binary_logreg(x, positive, 1.0)
    monkeypatch.delattr(np, "vecdot", raising=False)
    got = fit_binary_logreg(x, positive, 1.0)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


def test_ovr_skips_degenerate_labels(caplog):
    x = np.random.default_rng(3).normal(size=(10, 2))
    sets = [frozenset({0}) for _ in range(10)]  # label 0 all-positive, label 1 absent
    with caplog.at_level(logging.WARNING):
        clf = train_ovr_logreg(x, multi_hot(sets, 2), l2_strength=1.0)
    assert clf.skipped_labels == [0, 1]
    assert not clf.trained.any()
    assert "skipped" in caplog.text


def test_ovr_trains_each_viable_label():
    rng = np.random.default_rng(4)
    x = np.vstack([rng.normal(loc=-2, size=(20, 2)), rng.normal(loc=2, size=(20, 2))])
    sets = [frozenset({0})] * 20 + [frozenset({1})] * 20
    clf = train_ovr_logreg(x, multi_hot(sets, 2), l2_strength=1.0)
    assert clf.trained.all()
    preds = label_sets(predict_top_k(clf, x, [1] * 40))
    agreement = np.mean([p == t for p, t in zip(preds, sets)])
    assert agreement > 0.9


# top-k prediction --------------------------------------------------------------


def scores_classifier(score_rows):
    scores = np.asarray(score_rows, dtype=np.float64)
    num_labels = scores.shape[1]
    clf = OvrClassifier(weights=scores.T.copy(), biases=np.zeros(num_labels),
                        trained=np.ones(num_labels, dtype=bool))
    # identity features turn the weight matrix into the wanted scores
    return clf, np.eye(len(score_rows))


def test_top_k_selects_highest_scores():
    clf, x = scores_classifier([[0.9, 0.1, 0.5]])
    assert label_sets(predict_top_k(clf, x, [2])) == [frozenset({0, 2})]


def test_top_k_equal_to_label_count_returns_all():
    clf, x = scores_classifier([[0.2, 0.4, 0.1]])
    assert label_sets(predict_top_k(clf, x, [3])) == [frozenset({0, 1, 2})]


def test_top_k_tie_breaks_to_lower_index():
    clf, x = scores_classifier([[0.5, 0.5, 0.5]])
    assert label_sets(predict_top_k(clf, x, [1])) == [frozenset({0})]
    clf, x = scores_classifier([[0.1, 0.7, 0.7]])
    assert label_sets(predict_top_k(clf, x, [1])) == [frozenset({1})]


def test_top_k_matches_sorted_reference():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n, num_labels = int(rng.integers(1, 8)), int(rng.integers(1, 7))
        scores = rng.integers(0, 3, size=(n, num_labels)).astype(float)  # many ties
        k = rng.integers(0, num_labels + 1, size=n)
        clf, x = scores_classifier(scores)
        assert label_sets(predict_top_k(clf, x, k)) == top_k_reference(scores, k)


def test_top_k_matches_rank_form_with_ties_and_untrained_labels():
    rng = np.random.default_rng(12)
    for num_labels in range(1, 9):
        scores = rng.integers(0, 3, size=(60, num_labels)).astype(float)  # many ties
        clf, x = scores_classifier(scores)
        clf.trained[1::3] = False  # these score -inf, tied among themselves from 5 labels
        want_scores = clf.scores(x)
        for k in range(1, num_labels + 1):
            k_per_node = np.full(60, k)
            got = predict_top_k(clf, x, k_per_node)
            assert got.dtype == bool
            assert np.array_equal(got, top_k_by_ranks(want_scores, k_per_node))
        k_per_node = rng.integers(1, num_labels + 1, size=60)
        assert np.array_equal(predict_top_k(clf, x, k_per_node),
                              top_k_by_ranks(want_scores, k_per_node))
        # Rows whose k exceeds the trained labels (or all labels, or is 0): every -inf label
        # is kept once, in index order, after the trained ones.
        k_per_node = clf.trained.sum() + rng.integers(-1, num_labels - clf.trained.sum() + 3,
                                                      size=60)
        assert np.array_equal(predict_top_k(clf, x, k_per_node),
                              top_k_by_ranks(want_scores, k_per_node))
        # Trained labels that score +inf, -inf or NaN everywhere (through the bias): NaN
        # ranks after -inf, as in the stable descending sort.
        clf.biases[::2] = rng.choice([np.inf, -np.inf, np.nan, 0.0], size=clf.biases[::2].shape)
        want_scores = clf.scores(x)
        k_per_node = rng.integers(0, num_labels + 2, size=60)
        assert np.array_equal(predict_top_k(clf, x, k_per_node),
                              top_k_by_ranks(want_scores, k_per_node))


# macro F1 ----------------------------------------------------------------------


def test_macro_f1_perfect():
    sets = [frozenset({0}), frozenset({1, 2}), frozenset({0, 2})]
    assert f1_of_sets(sets, sets) == 1.0


def test_macro_f1_hand_case():
    # Label A: TP=1 FP=1 FN=0 -> F1 = 2/3; label B: TP=1 FP=0 FN=1 -> F1 = 2/3.
    truth = [frozenset({0}), frozenset({1}), frozenset({1})]
    preds = [frozenset({0}), frozenset({0, 1}), frozenset()]
    assert f1_of_sets(truth, preds) == pytest.approx(2 / 3)


def test_macro_f1_empty_predictions():
    truth = [frozenset({0}), frozenset({1})]
    preds = [frozenset(), frozenset()]
    assert f1_of_sets(truth, preds) == 0.0


def test_macro_f1_ignores_labels_absent_from_truth():
    truth = [frozenset({0}), frozenset({0})]
    preds = [frozenset({0}), frozenset({5})]  # label 5 never in truth
    # Label 0: TP=1, FN=1, FP=0 -> F1 = 2/3; label 5 not averaged.
    assert f1_of_sets(truth, preds) == pytest.approx(2 / 3)


def test_macro_f1_length_mismatch():
    with pytest.raises(ValidationError):
        macro_f1(multi_hot([frozenset({0})], 1), multi_hot([], 1))


@st.composite
def label_set_pairs(draw):
    n = draw(st.integers(1, 12))
    labels = st.frozensets(st.integers(0, 6), max_size=4)
    truth = [draw(labels) for _ in range(n)]
    preds = [draw(labels) for _ in range(n)]
    return truth, preds


@given(label_set_pairs())
def test_macro_f1_matches_brute_force_oracle(pair):
    truth, preds = pair
    assert f1_of_sets(truth, preds) == pytest.approx(macro_f1_brute_force(truth, preds),
                                                     abs=1e-12)


@given(label_set_pairs(), st.permutations(list(range(7))))
def test_macro_f1_label_permutation_invariance(pair, perm):
    truth, preds = pair
    remap = lambda sets: [frozenset(perm[i] for i in s) for s in sets]
    assert f1_of_sets(truth, preds) == pytest.approx(f1_of_sets(remap(truth), remap(preds)),
                                                     abs=1e-12)


def test_macro_f1_thousand_random_sets_exact():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        truth = [frozenset(rng.choice(6, size=rng.integers(0, 4), replace=False).tolist())
                 for _ in range(n)]
        preds = [frozenset(rng.choice(6, size=rng.integers(0, 4), replace=False).tolist())
                 for _ in range(n)]
        assert f1_of_sets(truth, preds) == macro_f1_brute_force(truth, preds)


def test_macro_f1_degrades_as_predictions_corrupt():
    truth = [frozenset({i % 3}) for i in range(9)]
    preds = list(truth)
    last = f1_of_sets(truth, preds)
    for i in range(9):
        preds[i] = frozenset({(i + 1) % 3})
        score = f1_of_sets(truth, preds)
        assert score <= last + 1e-12
        last = score


# experiment --------------------------------------------------------------------


def community_features(n_per=20, communities=3, noise=0.3, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.eye(communities) * 3
    feats, sets = [], []
    for c in range(communities):
        feats.append(centers[c] + noise * rng.normal(size=(n_per, communities)))
        sets.extend([frozenset({c})] * n_per)
    return np.vstack(feats), sets


def test_split_nodes_disjoint_partition():
    rng = np.random.default_rng(1)
    for ratio in (0.05, 0.33, 0.9):
        train_idx, test_idx = split_nodes(40, ratio, rng)
        assert set(train_idx) & set(test_idx) == set()
        assert sorted(np.concatenate([train_idx, test_idx]).tolist()) == list(range(40))


def test_split_nodes_degenerate_ratio():
    rng = np.random.default_rng(1)
    with pytest.raises(ConfigError):
        split_nodes(3, 0.99, rng)  # ceil -> 3 training nodes, empty test


def test_experiment_checks_every_ratio_before_any_fit(monkeypatch):
    x, sets = community_features(n_per=5)
    monkeypatch.setattr("edgewalk.evaluation.minimize", pytest.fail)
    with pytest.raises(ConfigError, match="ratio 0.99 "):
        node_classification_experiment(x, multi_hot(sets, 3),
                                       EvalConfig(train_ratios=(0.5, 0.99), repeats=1))


def test_experiment_shape_and_determinism():
    x, sets = community_features()
    cfg = EvalConfig(train_ratios=(0.2, 0.5), repeats=3, seed=5)
    a = node_classification_experiment(x, multi_hot(sets, 3), cfg)
    b = node_classification_experiment(x, multi_hot(sets, 3), cfg)
    assert a.ratios == (0.2, 0.5)
    assert len(a.means) == 2 and len(a.stds) == 2
    assert all(len(s) == 3 for s in a.scores)
    assert a.means == b.means and a.scores == b.scores
    assert all(0.0 <= m <= 1.0 for m in a.means)


def test_experiment_beats_label_permutation_baseline():
    # Features that encode the community must beat chance, where chance is
    # the permutation distribution of the achieved predictions.
    x, sets = community_features()
    cfg = EvalConfig(train_ratios=(0.5,), repeats=2, seed=2)
    report = node_classification_experiment(x, multi_hot(sets, 3), cfg)
    achieved = report.means[0]

    rng = np.random.default_rng(3)
    n = len(sets)
    baseline = []
    for _ in range(200):
        shuffled = [sets[i] for i in rng.permutation(n)]
        baseline.append(f1_of_sets(sets, shuffled))
    assert achieved > np.quantile(baseline, 0.99)


def test_experiment_rejects_unlabeled_nodes():
    x, sets = community_features(n_per=5)
    sets[0] = frozenset()
    with pytest.raises(ValidationError):
        node_classification_experiment(x, multi_hot(sets, 3),
                                       EvalConfig(train_ratios=(0.5,), repeats=1))


def test_experiment_normalize_flag():
    x, sets = community_features(n_per=10)
    cfg = EvalConfig(train_ratios=(0.5,), repeats=2, seed=1, normalize=True)
    report = node_classification_experiment(x * 100, multi_hot(sets, 3), cfg)
    assert report.means[0] > 0.8


def test_eval_config_defaults_match_protocol():
    cfg = EvalConfig()
    assert cfg.train_ratios == (0.05, 0.10, 0.20)
    assert cfg.repeats == 10
    assert cfg.l2_strength == 1.0
    assert cfg.normalize is False
    cfg.validate()


def test_eval_config_validation():
    with pytest.raises(ConfigError):
        EvalConfig(train_ratios=(1.2,)).validate()
    with pytest.raises(ConfigError):
        EvalConfig(repeats=0).validate()
    with pytest.raises(ConfigError):
        EvalConfig(train_ratios=()).validate()


def test_report_table_and_tsv():
    x, sets = community_features(n_per=10)
    cfg = EvalConfig(train_ratios=(0.5,), repeats=2, seed=1)
    report = node_classification_experiment(x, multi_hot(sets, 3), cfg)
    table = report.format_table()
    assert "macro_f1_mean" in table
    buf = io.StringIO()
    report.write_tsv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "ratio\trepeat\tmacro_f1"
    assert len(lines) == 1 + 2
