import json
import math
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_dataset
from mixrrm import estimation
from mixrrm.dataset import load_long_csv
from mixrrm.draws import build_drawset
from mixrrm.errors import (
    FewerClustersThanParameters,
    InvalidFitFile,
    InvalidOption,
    NonConvergence,
    SingularHessian,
)
from mixrrm.estimation import (
    FIT_SCHEMA,
    FitOptions,
    _loglik,
    _maximize,
    _ordered_sum,
    _run_fit,
    covariance_cluster,
    covariance_hessian,
    covariance_robust,
    fit_classical,
    fit_mixed,
    fit_result_from_json,
    fit_result_to_json,
    individual_scores,
    load_fit_json,
    save_fit_json,
    simulated_loglik,
)
from mixrrm.postestimation import draw_settings, individual_betas, predict_probabilities
from mixrrm.regret import ModelDesign, ModelSpec, ParameterVector
from oracles import _fd_hessian, irls_binary_logit, simulate_panel, write_rows_csv

# every workspace view starts as nan (conftest.py), so a kernel that reads a
# view after its role was taken again fails here
pytestmark = pytest.mark.usefixtures("poisoned_workspace")


def panel_dataset(tmp_path, rng, cluster=False, **kwargs):
    rows, attrs = simulate_panel(rng, **kwargs)
    if cluster:
        for row in rows:
            row["grp"] = 1 + (row["id"] - 1) % 2
    path = tmp_path / "panel.csv"
    write_rows_csv(rows, path)
    return load_long_csv(
        path, "id", "cs", "altern", "choice", attrs,
        cluster_col="grp" if cluster else None,
    )


# --- covariance estimators ----------------------------------------------------


def test_covariance_hessian_identity():
    np.testing.assert_array_equal(covariance_hessian(-np.eye(3)), np.eye(3))


def test_covariance_hessian_scalar():
    np.testing.assert_allclose(
        covariance_hessian(np.array([[-4.0]])), [[0.25]], rtol=1e-15
    )


def test_covariance_hessian_rejects_positive_direction():
    with pytest.raises(SingularHessian):
        covariance_hessian(np.diag([-1.0, 2.0]))
    with pytest.raises(SingularHessian):
        covariance_hessian(np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_covariance_hessian_rejects_nonfinite(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularHessian, match="not finite"):
            covariance_hessian(np.array([[-2.0, 0.5], [0.5, bad]]))


@pytest.mark.parametrize("entry", [-1e-310, -9e-309])
def test_covariance_hessian_rejects_an_inverse_past_the_float_range(entry):
    """A subnormal -H passes Cholesky, and its inverse is infinite (1e-310)
    or its symmetrized sum overflows (9e-309): both are refused, without a
    warning, and the sandwich covariances inherit the refusal through their
    bread."""
    hessian = np.array([[entry]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularHessian, match="no finite inverse"):
            covariance_hessian(hessian)
        with pytest.raises(SingularHessian, match="no finite inverse"):
            covariance_robust(hessian, np.ones((3, 1)))
        with pytest.raises(SingularHessian, match="no finite inverse"):
            covariance_cluster(hessian, np.ones((3, 1)), [1, 2, 2])


def test_cluster_singletons_equal_robust_bitwise(rng):
    scores = rng.normal(size=(7, 3))
    hessian = -np.eye(3) * 2.5
    robust = covariance_robust(hessian, scores)
    cluster = covariance_cluster(hessian, scores, np.arange(7))
    assert np.array_equal(robust, cluster)


def test_cluster_zero_scores_zero_matrix():
    cov = covariance_cluster(-np.eye(2), np.zeros((6, 2)), np.arange(6))
    np.testing.assert_array_equal(cov, np.zeros((2, 2)))


def test_cluster_two_groups_hand_computed():
    hessian = np.array([[-2.0, 0.5], [0.5, -1.0]])
    scores = np.array([
        [0.3, -0.1],
        [-0.2, 0.4],
        [0.1, 0.2],
        [-0.2, -0.5],
    ])
    clusters = ["a", "a", "b", "b"]
    g_a = scores[0] + scores[1]
    g_b = scores[2] + scores[3]
    meat = 2.0 * (np.outer(g_a, g_a) + np.outer(g_b, g_b))
    bread = np.linalg.inv(-hessian)
    expected = bread @ meat @ bread
    got = covariance_cluster(hessian, scores, clusters)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


def test_fewer_clusters_than_parameters_warns(rng):
    scores = rng.normal(size=(4, 3))
    with pytest.warns(FewerClustersThanParameters):
        covariance_cluster(-np.eye(3), scores, [1, 1, 2, 2])


def test_fd_hessian_covariance_matches_loglik_curvature(tmp_path, rng):
    """Covariance from the analytic Hessian vs. a pure value-based one."""
    ds = panel_dataset(tmp_path, rng, n_individuals=60, n_situations=3,
                       n_alternatives=3, fixed={"tt": -0.5, "tc": -0.3})
    spec = ModelSpec(fixed_attrs=("tt", "tc"))
    fit = fit_classical(ds, spec)

    design = ModelDesign(ds, spec)
    value = lambda x: _loglik(design, design.draws(), x)
    x = fit.theta
    n = x.size
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            hi = 1e-4 * (1 + abs(x[i]))
            hj = 1e-4 * (1 + abs(x[j]))
            pp = x.copy(); pp[i] += hi; pp[j] += hj
            pm = x.copy(); pm[i] += hi; pm[j] -= hj
            mp = x.copy(); mp[i] -= hi; mp[j] += hj
            mm = x.copy(); mm[i] -= hi; mm[j] -= hj
            hess[i, j] = (value(pp) - value(pm) - value(mp) + value(mm)) / (
                4 * hi * hj
            )
    oracle_cov = covariance_hessian(0.5 * (hess + hess.T))
    np.testing.assert_allclose(fit.covariance, oracle_cov, rtol=1e-4)


# --- optimizer ------------------------------------------------------------------


def counted_quadratic(curvature):
    """A quadratic with its maximum at (2, -3) and the same ``curvature`` in
    every direction, whose two callables record each call's name and point."""
    target = np.array([2.0, -3.0])
    calls = []

    def loglik(x):
        calls.append(("loglik", x.copy()))
        return -0.5 * curvature * (x - target) @ (x - target)

    def scores(x):
        calls.append(("scores", x.copy()))
        return (np.array([-0.5 * curvature * (x - target) @ (x - target)]),
                -curvature * (x - target)[None])

    return loglik, scores, calls


def test_maximize_quadratic():
    """At curvature 1 the raw gradient (2, -3) at (0, 0) would move x by 3 at
    the unit step, so the first search starts at 1/4, a move of 0.75, and
    accepts it: one log-likelihood-only trial, then the accepted point's
    value+gradient pass.  The scaled BFGS update then makes the unit step
    reach the maximum."""
    loglik, scores, calls = counted_quadratic(1.0)
    res = _maximize(loglik, scores, np.zeros(2))
    assert res.converged and res.stop == "gtol"
    assert [name for name, _ in calls] == ["scores", "loglik", "scores", "scores"]
    for (_, point), want in zip(calls, [[0.0, 0.0], [0.5, -0.75], [0.5, -0.75],
                                        [2.0, -3.0]]):
        np.testing.assert_array_equal(point, want)
    np.testing.assert_array_equal(res.x, [2.0, -3.0])
    assert (res.iterations, res.vg_passes, res.ll_passes) == (2, 3, 1)


def test_backtracked_trials_cost_loglik_passes():
    """At curvature 100 from (1.75, -2.75) the raw gradient (25, -25) caps
    the first search's start at 1/32, a move of 0.78, which overshoots:
    Armijo holds from step 1/64 on.  Each trial below the unit step costs a
    log-likelihood-only pass, and the point accepted after backtracking one
    more value+gradient pass.  The scaled BFGS update then makes the unit
    step acceptable."""
    loglik, scores, calls = counted_quadratic(100.0)
    x0 = np.array([1.75, -2.75])
    res = _maximize(loglik, scores, x0)
    assert [name for name, _ in calls] == ["scores", "loglik", "loglik", "scores",
                                           "scores"]
    gradient = np.array([25.0, -25.0])
    for (_, point), want in zip(calls, [x0, x0 + gradient / 32, x0 + gradient / 64,
                                        x0 + gradient / 64, [2.0, -3.0]]):
        np.testing.assert_array_equal(point, want)
    assert res.converged and res.stop == "gtol"
    assert (res.ll_passes, res.vg_passes) == (2, 3)


def test_capped_start_keeps_the_path_of_a_shorter_accepted_step(monkeypatch):
    """Where the search from the unit step accepts a step at or below the
    capped start, the capped search tries the same halvings from there and
    accepts the same float point.  From (1.75, -2.75) at curvature 100 both
    accept x0 + 2^-6 g, and every iterate is the float of a search without
    the cap."""
    loglik, scores, _ = counted_quadratic(100.0)
    x0 = np.array([1.75, -2.75])

    def iterates():
        return [_maximize(loglik, scores, x0, maxiter=m).x for m in range(3)]

    capped = iterates()
    np.testing.assert_array_equal(capped[1], [1.75 + 25.0 / 64, -2.75 - 25.0 / 64])
    assert _maximize(loglik, scores, x0).iterations == 2
    monkeypatch.setattr(estimation, "_MAX_FIRST_MOVE", np.inf)
    for point, unit_start in zip(capped, iterates()):
        np.testing.assert_array_equal(point, unit_start)


def test_first_move_capped_where_the_accepted_step_moved_further(monkeypatch):
    """From (0, 0) at curvature 100 the search from the unit step accepts
    step 1/64, which moves x by 300/64; the capped search starts at 1/512,
    a move of 0.59, and accepts it.  That fit takes another path, and still
    converges to ``gtol``."""
    loglik, scores, _ = counted_quadratic(100.0)
    first_move = lambda: np.max(np.abs(_maximize(loglik, scores, np.zeros(2),
                                                 maxiter=1).x))
    assert first_move() == 300.0 / 512 <= estimation._MAX_FIRST_MOVE
    res = _maximize(loglik, scores, np.zeros(2), gtol=1e-9)
    assert res.converged and res.stop == "gtol"
    assert np.max(np.abs(res.grad)) <= 1e-9
    monkeypatch.setattr(estimation, "_MAX_FIRST_MOVE", np.inf)
    assert first_move() == 300.0 / 64


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_start_gradient_stops_without_a_trial(bad):
    """A start whose log-likelihood is finite but whose gradient is not
    gives no direction: the optimizer stops at ``line_search`` with no
    trial pass, and without a numpy warning."""
    def loglik(x):
        raise AssertionError("no trial expected")

    def scores(x):
        if np.any(x):
            raise AssertionError("no trial expected")
        return np.array([-1.0]), np.array([[bad, 1.0]])

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = _maximize(loglik, scores, np.zeros(2))
    assert res.stop == "line_search" and not res.converged
    assert (res.iterations, res.ll_passes, res.vg_passes) == (0, 0, 1)


@pytest.mark.parametrize("curvature, kwargs, stop", [
    (1.0, {}, "gtol"),
    (1.0, {"maxiter": 0}, "maxiter"),
    (1.0, {"step_tol": 1e9}, "line_search"),  # no trial is long enough to test
    (1e-170, {"gtol": 1e-300}, "zero_slope"),  # grad @ grad underflows to 0
])
def test_maximize_stop_reason(curvature, kwargs, stop):
    loglik, scores, _ = counted_quadratic(curvature)
    res = _maximize(loglik, scores, np.zeros(2), **kwargs)
    assert res.stop == stop
    assert res.converged == (stop == "gtol")


def test_mixed_fit_loglik_walks_are_backtracks(tmp_path, rng, monkeypatch):
    """Counted like ``test_hessian_costs_one_score_walk``: in the mixed
    optimizer run, value+gradient walks are the start and each accepted
    point after a trial below the unit step (S), each at the start or at the
    point of the walk before it, and the unit-step trials (U), each at a new
    point; log-likelihood walks (L) are the trials below the unit step.  An
    iteration is U, U L+ S or, when its search starts below the unit step,
    L+ S.  The first one does: its direction is the raw gradient g at the
    start, and its trials are x + 2^-k g from the largest such step that
    moves x by at most 1, the same floats a search from the unit step
    would try.  Later trials halve the iteration's unit step.  The
    log-likelihood walks equal ``_OptResult.ll_passes``."""
    ds = panel_dataset(tmp_path, rng, n_individuals=20, n_situations=3,
                       n_alternatives=3, fixed={"tc": -0.3},
                       random={"tt": ("normal", -0.5, 0.2)})
    calls, results = [], []
    walk, loglik, maximize = (estimation.individual_scores, estimation._loglik,
                              estimation._maximize)

    def counted_walk(design, draws, x, hessian=False):
        out = walk(design, draws, x, hessian=hessian)
        if design.n_random and not hessian:
            repeat = not calls or np.array_equal(x, calls[-1][1])
            calls.append(("S" if repeat else "U", np.array(x, dtype=float),
                          _ordered_sum(out[1])))
        return out

    def counted_loglik(design, draws, x):
        if design.n_random:
            calls.append(("L", np.array(x, dtype=float), None))
        return loglik(design, draws, x)

    def kept_maximize(*args, **kwargs):
        results.append(maximize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(estimation, "individual_scores", counted_walk)
    monkeypatch.setattr(estimation, "_loglik", counted_loglik)
    monkeypatch.setattr(estimation, "_maximize", kept_maximize)
    fit = fit_mixed(ds, ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",)),
                    FitOptions(nrep=10))
    opt = results[-1]
    names = "".join(name for name, _, _ in calls)
    iterations = re.findall(r"U(?:L+S)?|L+S", names[1:])
    assert names[0] == "S" and "".join(iterations) == names[1:]
    assert len(iterations) == fit.iterations
    assert iterations[0][0] == "L"
    assert names.count("L") == opt.ll_passes > 0
    assert names.count("S") + names.count("U") == opt.vg_passes
    _, x, gradient = calls[0]
    k = 1
    for iteration in iterations:
        trials = calls[k:k + len(iteration)]
        k += len(iteration)
        if iteration[0] == "L":
            step = 2.0 ** -math.ceil(math.log2(np.max(np.abs(gradient))))
            assert 0.5 < step * np.max(np.abs(gradient)) <= 1.0
            for halvings, (_, point, _) in enumerate(trials[:-1]):
                np.testing.assert_array_equal(point, x + step * 0.5**halvings * gradient)
        else:
            unit = trials[0][1]
            for halvings, (_, point, _) in enumerate(trials[1:-1], start=1):
                np.testing.assert_allclose(point - x, (unit - x) * 0.5**halvings,
                                           rtol=1e-12, atol=1e-15)
        if len(trials) > 1:
            np.testing.assert_array_equal(trials[-1][1], trials[-2][1])
        _, x, gradient = trials[-1]


def test_rejected_trials_emit_no_warning(tmp_path, monkeypatch):
    """Started at a log-normal location of 4 and a scale of 2, the unit step
    of the fit's 20th iteration sends the scale to about -1080, and the
    first two halvings of that step overflow too; they are rejected for a
    non-finite log-likelihood without a numpy warning, and with warnings
    turned into errors the fit takes the same path."""
    ds = panel_dataset(tmp_path, np.random.default_rng(1), n_individuals=30,
                       n_situations=3, n_alternatives=3, fixed={"tc": -0.3},
                       random={"cf": ("lognormal", -1.0, 0.4)})
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("cf",), ln_count=1)
    opts = lambda: FitOptions(nrep=10, start=[-0.3, 4.0, 2.0])
    values = []
    loglik = estimation._loglik

    def recorded_loglik(design, draws, x):
        values.append(loglik(design, draws, x))
        return values[-1]

    monkeypatch.setattr(estimation, "_loglik", recorded_loglik)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        quiet = fit_mixed(ds, spec, opts())
    assert not np.all(np.isfinite(values))  # some trial did overflow
    assert caught == []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        strict = fit_mixed(ds, spec, opts())
    assert strict.converged
    np.testing.assert_array_equal(strict.theta, quiet.theta)


def test_trial_with_nonfinite_gradient_is_rejected(tmp_path, monkeypatch):
    """Started at a log-normal location of 4, this fit walks the location
    towards -260 and the scale towards 360, where a unit-step trial can have
    a finite log-likelihood but a nan gradient.  Such a trial is rejected
    like one whose log-likelihood is not finite, so the fit never takes a
    point without a gradient: it ends with a finite max |gradient|, here on
    the typed NonConvergence error.  The covariance pass at that point
    overflows quietly, and its non-finite Hessian leaves the covariance
    NaN without a numpy warning."""
    ds = panel_dataset(tmp_path, np.random.default_rng(0), n_individuals=30,
                       n_situations=3, n_alternatives=3, fixed={"tc": -0.3},
                       random={"cf": ("lognormal", -1.0, 0.4)})
    trials = []  # (log-likelihood finite, gradient finite) of each whole walk
    walk = estimation.individual_scores

    def recorded_walk(design, draws, x, hessian=False):
        out = walk(design, draws, x, hessian=hessian)
        trials.append((np.isfinite(_ordered_sum(out[0])), np.isfinite(out[1]).all()))
        return out

    monkeypatch.setattr(estimation, "individual_scores", recorded_walk)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonConvergence) as excinfo:
            fit_mixed(ds, ModelSpec(fixed_attrs=("tc",), random_attrs=("cf",),
                                    ln_count=1),
                      FitOptions(nrep=10, start=[-0.3, 4.0, 0.3]))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert (True, False) in trials
    result = excinfo.value.result
    assert np.isfinite(result.gradient_norm) and np.isfinite(result.loglik)
    assert result.stop == "line_search"


@pytest.mark.parametrize("curvature", [1.0, -1.0])
def test_newton_finish_steps_only_on_a_concave_hessian(curvature):
    """From a point of the quadratic of ``counted_quadratic``, one exact
    Newton step reaches its maximum when -H is positive definite and is then
    named in ``stop``; on a convex one -H fails its Cholesky factorization,
    and the finish changes nothing."""
    loglik, scores, calls = counted_quadratic(curvature)
    start = _maximize(loglik, scores, np.zeros(2), maxiter=0)
    hessian = -curvature * np.eye(2)
    opt, rows, finish_hessian = estimation._newton_finish(
        start, lambda x: (*scores(x), hessian), scores(start.x)[1], hessian,
        maxiter=200, gtol=1e-6)
    if curvature < 0:
        assert opt is start and finish_hessian is hessian
        return
    assert opt.converged and opt.stop == "newton"
    assert (opt.iterations, opt.vg_passes) == (1, start.vg_passes + 1)
    np.testing.assert_array_equal(opt.x, [2.0, -3.0])
    np.testing.assert_array_equal(rows, [[0.0, 0.0]])


def test_newton_finish_converges_where_the_line_search_stalls(tmp_path, monkeypatch):
    """1000 people of 8 situations of 3 alternatives, a fixed and a normal
    coefficient at R = 10, clustered by person (seed 1, panel 0 of
    ``bench/workloads.py``'s generator): near the optimum the predicted gain
    of a BFGS step sinks below the rounding noise of the summed
    log-likelihood, and the line search gives up at max |gradient| 3.0e-6.
    Exact Newton steps then finish the fit."""
    import importlib.util

    source = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(source)
    monkeypatch.setitem(sys.modules, source.name, workloads)  # for its dataclass
    source.loader.exec_module(workloads)
    workload = workloads.Workload(
        name="many_people", n_individuals=1000, n_situations=8, n_alternatives=3,
        fixed={"tc": -0.3}, random={"tt": ("normal", -0.5, 0.2)}, nrep=10)
    workloads.write_workload(workload, 1, 0, tmp_path / "panel.csv")
    ds = load_long_csv(tmp_path / "panel.csv", attr_cols=workload.attrs,
                       cluster_col="id")
    fit = fit_mixed(ds, ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",)),
                    FitOptions(nrep=10, burn=15, covariance="cluster"))
    assert fit.converged and fit.stop == "newton"
    assert fit.gradient_norm <= 1e-6
    assert np.isfinite(fit.covariance).all()


def test_fit_result_reports_stop_and_passes(tmp_path, rng, monkeypatch):
    """A fit carries its optimizer's stop reason and pass counts; the fit
    JSON leaves them out, so a loaded fit has ``None`` for them."""
    ds = panel_dataset(tmp_path, rng, n_individuals=40, n_situations=3,
                       n_alternatives=3, fixed={"tc": -0.3},
                       random={"tt": ("normal", -0.5, 0.2)})
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))
    results, maximize = [], estimation._maximize

    def kept_maximize(*args, **kwargs):
        results.append(maximize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(estimation, "_maximize", kept_maximize)
    fit = fit_mixed(ds, spec, FitOptions(nrep=5))
    opt = results[-1]
    assert fit.stop == "gtol"
    assert (fit.ll_passes, fit.vg_passes) == (opt.ll_passes, opt.vg_passes)
    assert fit.vg_passes >= fit.iterations + 1
    payload = fit_result_to_json(fit)
    assert not {"stop", "ll_passes", "vg_passes"} & set(payload)
    loaded = fit_result_from_json(payload)
    assert (loaded.stop, loaded.ll_passes, loaded.vg_passes) == (None, None, None)
    with pytest.raises(NonConvergence) as excinfo:
        fit_mixed(ds, spec, FitOptions(nrep=5, maxiter=1, start=[0.0, 0.0, 0.1]))
    stopped = excinfo.value.result
    assert (stopped.stop, stopped.iterations) == ("maxiter", 1)
    assert (stopped.ll_passes, stopped.vg_passes) == (results[-1].ll_passes,
                                                      results[-1].vg_passes)


def test_maximize_history_nondecreasing(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=60, n_situations=3,
                       n_alternatives=3, fixed={"tt": -0.5, "tc": -0.3})
    design = ModelDesign(ds, ModelSpec(fixed_attrs=("tt", "tc")))
    draws = design.draws()
    maximize = lambda maxiter: _maximize(
        lambda x: _loglik(design, draws, x),
        lambda x: individual_scores(design, draws, x),
        np.zeros(2), maxiter=maxiter)
    res = maximize(200)
    assert res.converged
    # the optimizer is deterministic, so the runs stopped after m iterations
    # retrace the accepted path
    history = np.array([maximize(m).loglik for m in range(res.iterations + 1)])
    assert history[-1] == res.loglik
    noise = 8.0 * np.finfo(float).eps * (np.abs(history[:-1]) + 1.0)
    assert np.all(np.diff(history) >= -noise)


# --- classical fit ------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"level": 150.0}, {"level": 0.0}, {"maxiter": -1}, {"gtol": 0.0},
    {"covariance": "sandwich"}, {"burn": -1}, {"start": ["a"]},
    {"start": {"a": 1.0}}, {"nrep": 0},
])
def test_fit_options_rejects_out_of_range(kwargs):
    with pytest.raises(InvalidOption):
        FitOptions(**kwargs)


@pytest.mark.parametrize("nrep, burn, message", [
    (0, 15, "nrep 0 is below 1"), (-3, 0, "nrep -3 is below 1"),
    (1, -1, "burn -1 is negative"), (0, -1, "nrep 0 is below 1"), (1, 0, None),
])
def test_fit_options_and_draw_settings_refuse_alike(nrep, burn, message):
    """A fit's options and post-estimation's draw settings accept the same
    nrep and burn, and refuse the others with the same message."""
    fit = FitOptions()  # a fit's own nrep 50 and burn 15, overridden here
    for settings in (lambda: FitOptions(nrep=nrep, burn=burn),
                     lambda: draw_settings(fit, nrep, burn)):
        if message is None:
            settings()
        else:
            with pytest.raises(InvalidOption) as err:
                settings()
            assert str(err.value) == message


def forbid_kernels(monkeypatch):
    def no_kernel(*args, **kwargs):
        raise AssertionError("the fit ran a kernel")

    monkeypatch.setattr(estimation, "ModelDesign", no_kernel)
    monkeypatch.setattr(estimation, "individual_scores", no_kernel)
    monkeypatch.setattr(estimation, "_loglik", no_kernel)


def test_cluster_covariance_needs_a_cluster_column(tmp_path, rng, monkeypatch):
    ds = panel_dataset(tmp_path, rng, n_individuals=6, n_situations=2,
                       n_alternatives=3, fixed={"tt": -0.5})
    forbid_kernels(monkeypatch)
    with pytest.raises(InvalidOption, match="cluster column"):
        fit_classical(ds, ModelSpec(fixed_attrs=("tt",)),
                      FitOptions(covariance="cluster"))


def test_one_cluster_rejected_before_any_kernel(tmp_path, rng, monkeypatch):
    ds = panel_dataset(tmp_path, rng, n_individuals=6, n_situations=2,
                       n_alternatives=3, fixed={"tc": -0.3},
                       random={"tt": ("normal", -0.5, 0.2)})
    ds = replace(ds, cluster=np.full(ds.n_rows, 7))
    forbid_kernels(monkeypatch)
    opts = FitOptions(covariance="cluster", nrep=5)
    with pytest.raises(InvalidOption, match="at least 2 clusters"):
        fit_mixed(ds, ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",)), opts)


def test_classical_rejects_random_spec():
    with pytest.raises(ValueError):
        fit_classical(None, ModelSpec(random_attrs=("a",)))


def test_classical_single_parameter_matches_grid_search():
    # one situation favors beta < 0, the other (more strongly) beta > 0,
    # so the likelihood peaks at an interior point
    ds = make_dataset(
        {1: {1: [(1, [1.0], True), (2, [2.0], False)],
             2: [(1, [4.0], True), (2, [1.0], False)]}},
        ["a"],
    )
    spec = ModelSpec(fixed_attrs=("a",))
    fit = fit_classical(ds, spec)

    design = ModelDesign(ds, spec)
    value = lambda b: _loglik(design, design.draws(), np.array([b]))
    grid = np.linspace(-5.0, 5.0, 20001)  # step 5e-4
    values = [value(b) for b in grid]
    best = grid[int(np.argmax(values))]
    assert fit.theta[0] == pytest.approx(best, abs=1e-4)


def test_classical_binary_matches_irls_logit(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=150, n_situations=2,
                       n_alternatives=2, fixed={"tt": -0.6, "tc": 0.4})
    fit = fit_classical(ds, ModelSpec(fixed_attrs=("tt", "tc")))

    first = ds.situation_starts
    rows_x = ds.attributes[first] - ds.attributes[first + 1]
    rows_y = ds.chosen[first].astype(float)
    oracle = irls_binary_logit(rows_x, rows_y)
    np.testing.assert_allclose(fit.theta, oracle, atol=1e-6)


def test_classical_null_data_recovers_zero(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=300, n_situations=4,
                       n_alternatives=3, fixed={"tt": 0.0, "tc": 0.0})
    fit = fit_classical(ds, ModelSpec(fixed_attrs=("tt", "tc")))
    assert np.all(np.abs(fit.theta) <= 3.0 * fit.std_errors)


def test_classical_deterministic(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=40, n_situations=2,
                       n_alternatives=3, fixed={"tt": -0.5})
    a = fit_classical(ds, ModelSpec(fixed_attrs=("tt",)))
    b = fit_classical(ds, ModelSpec(fixed_attrs=("tt",)))
    assert np.array_equal(a.theta, b.theta)
    assert a.loglik == b.loglik


def shuffle_individual_blocks(rows, rng):
    """Reorder whole per-individual row groups, keeping rows within a
    situation in file order (which the loader preserves by contract)."""
    ids = list(dict.fromkeys(r["id"] for r in rows))
    order = [ids[i] for i in rng.permutation(len(ids))]
    return [r for ind in order for r in rows if r["id"] == ind]


def test_classical_invariant_to_individual_order(tmp_path, rng):
    rows, attrs = simulate_panel(rng, n_individuals=30, n_situations=2,
                                 n_alternatives=3, fixed={"tt": -0.4})
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_rows_csv(rows, p1)
    write_rows_csv(shuffle_individual_blocks(rows, rng), p2)
    fit1 = fit_classical(load_long_csv(p1, "id", "cs", "altern", "choice", attrs),
                         ModelSpec(fixed_attrs=("tt",)))
    fit2 = fit_classical(load_long_csv(p2, "id", "cs", "altern", "choice", attrs),
                         ModelSpec(fixed_attrs=("tt",)))
    assert np.array_equal(fit1.theta, fit2.theta)


def test_nonconvergence_carries_result(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=40, n_situations=2,
                       n_alternatives=3, fixed={"tt": -0.5, "tc": -0.3})
    with pytest.raises(NonConvergence, match="stop: maxiter;") as excinfo:
        fit_classical(ds, ModelSpec(fixed_attrs=("tt", "tc")),
                      FitOptions(maxiter=1))
    result = excinfo.value.result
    assert result is not None
    assert not result.converged
    assert result.iterations == 1


def test_converged_fit_invariants(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=80, n_situations=3,
                       n_alternatives=3, fixed={"tt": -0.5, "tc": -0.3})
    fit = fit_classical(ds, ModelSpec(fixed_attrs=("tt", "tc")),
                        FitOptions(level=90.0))
    assert fit.converged
    assert fit.gradient_norm <= 1e-6
    # symmetric positive semidefinite within 1e-8
    np.testing.assert_allclose(fit.covariance, fit.covariance.T, atol=1e-12)
    eigvals = np.linalg.eigvalsh(fit.covariance)
    assert eigvals.min() >= -1e-8
    # CI at the configured level from the normal quantile
    from mixrrm.draws import inverse_normal_cdf

    z90 = inverse_normal_cdf(0.95)
    np.testing.assert_allclose(
        fit.ci_upper - fit.ci_lower, 2 * z90 * fit.std_errors, rtol=1e-12
    )
    assert fit.n_individuals == 80
    assert fit.n_situations == 240
    assert fit.n_parameters == 2


def test_cluster_covariance_through_fit(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, cluster=True, n_individuals=40,
                       n_situations=3, n_alternatives=3,
                       fixed={"tt": -0.5, "tc": -0.3})
    by_person = load_long_csv(tmp_path / "panel.csv", "id", "cs", "altern",
                              "choice", ["tt", "tc"], cluster_col="id")

    spec = ModelSpec(fixed_attrs=("tt", "tc"))
    robust = fit_classical(ds, spec, FitOptions(covariance="robust"))
    singleton = fit_classical(by_person, spec, FitOptions(covariance="cluster"))
    assert np.array_equal(robust.covariance, singleton.covariance)

    grouped = fit_classical(ds, spec, FitOptions(covariance="cluster"))
    assert grouped.covariance_kind == "cluster"
    assert not np.allclose(grouped.covariance, robust.covariance)
    # same point estimates regardless of covariance estimator
    assert np.array_equal(grouped.theta, robust.theta)


# --- mixed fit -------------------------------------------------------------------


def test_degenerate_one_draw_equals_classical_objective(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=50, n_situations=3,
                       n_alternatives=3, fixed={"tc": -0.3},
                       random={"tt": ("normal", -0.5, 0.2)})
    spec_mixed = ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))
    spec_classical = ModelSpec(fixed_attrs=("tc", "tt"))

    z0 = np.zeros((ds.n_individuals, 1, 1))
    for b in (-0.5, 0.0, 1.2):
        theta_m = ParameterVector(
            fixed=np.array([-0.3]), rand_location=np.array([b]),
            rand_scale=np.array([0.7]), asc=np.zeros(0),
        )
        theta_c = ParameterVector(
            fixed=np.array([-0.3, b]), rand_location=np.zeros(0),
            rand_scale=np.zeros(0), asc=np.zeros(0),
        )
        sll = simulated_loglik(ds, spec_mixed, theta_m, z0)
        ll = simulated_loglik(ds, spec_classical, theta_c,
                              ModelDesign(ds, spec_classical).draws())
        assert sll == pytest.approx(ll, abs=1e-10)


def test_mixed_fit_deterministic(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=50, n_situations=3,
                       n_alternatives=3, fixed={"tc": -0.3},
                       random={"tt": ("normal", -0.5, 0.2)})
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))
    opts = FitOptions(nrep=25, burn=15)
    a = fit_mixed(ds, spec, opts)
    b = fit_mixed(ds, spec, opts)
    assert np.array_equal(a.theta, b.theta)
    assert a.loglik == b.loglik
    assert a.nrep == 25 and a.burn == 15


def test_mixed_fit_invariant_to_individual_order(tmp_path, rng):
    rows, attrs = simulate_panel(rng, n_individuals=30, n_situations=3,
                                 n_alternatives=3, fixed={"tc": -0.3},
                                 random={"tt": ("normal", -0.5, 0.2)})
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows_csv(rows, p1)
    write_rows_csv(shuffle_individual_blocks(rows, rng), p2)
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))
    opts = FitOptions(nrep=20)
    f1 = fit_mixed(load_long_csv(p1, "id", "cs", "altern", "choice", attrs),
                   spec, opts)
    f2 = fit_mixed(load_long_csv(p2, "id", "cs", "altern", "choice", attrs),
                   spec, opts)
    assert np.array_equal(f1.theta, f2.theta)


def test_mixed_explicit_start_honored(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=30, n_situations=2,
                       n_alternatives=3, fixed={"tc": -0.3},
                       random={"tt": ("normal", -0.5, 0.2)})
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))
    start = np.array([-0.25, -0.4, 0.15])
    with pytest.raises(NonConvergence) as excinfo:
        # maxiter=0: the carried result sits exactly at the start vector
        fit_mixed(ds, spec, FitOptions(nrep=20, start=start, maxiter=0))
    np.testing.assert_array_equal(excinfo.value.result.theta, start)


def test_mixed_sign_flip_mirror_identity(tmp_path, rng):
    """SLL(b, -s) with draws Z equals SLL(b, s) with draws -Z exactly."""
    ds = panel_dataset(tmp_path, rng, n_individuals=20, n_situations=2,
                       n_alternatives=3, fixed={"tc": -0.3},
                       random={"tt": ("normal", -0.5, 0.2)})
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))
    drawset = build_drawset(ds.n_individuals, 1, 16, 15)
    mirrored = -drawset
    theta_pos = ParameterVector(
        fixed=np.array([-0.3]), rand_location=np.array([-0.5]),
        rand_scale=np.array([0.2]), asc=np.zeros(0),
    )
    theta_neg = ParameterVector(
        fixed=np.array([-0.3]), rand_location=np.array([-0.5]),
        rand_scale=np.array([-0.2]), asc=np.zeros(0),
    )
    assert simulated_loglik(ds, spec, theta_neg, drawset) == simulated_loglik(
        ds, spec, theta_pos, mirrored
    )


def test_mixed_scale_reported_as_magnitude(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=60, n_situations=3,
                       n_alternatives=3, fixed={"tc": -0.3},
                       random={"tt": ("normal", -0.5, 0.3)})
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))
    fit = fit_mixed(ds, spec, FitOptions(nrep=25, start=np.array([-0.3, -0.5, -0.1])))
    sd_idx = fit.param_names.index("sd.tt")
    assert fit.estimates[sd_idx] == abs(fit.theta[sd_idx])
    assert fit.estimates[sd_idx] >= 0.0


def test_base_alternative_invariance(tmp_path, rng):
    from mixrrm.postestimation import predict_probabilities

    ds = panel_dataset(tmp_path, rng, n_individuals=120, n_situations=3,
                       n_alternatives=3, fixed={"tt": -0.5, "tc": -0.3})
    fit1 = fit_classical(
        ds, ModelSpec(fixed_attrs=("tt", "tc"), use_asc=True,
                      base_alternative=1)
    )
    fit3 = fit_classical(
        ds, ModelSpec(fixed_attrs=("tt", "tc"), use_asc=True,
                      base_alternative=3)
    )
    assert not np.allclose(fit1.theta, fit3.theta)  # constants re-normalize
    np.testing.assert_allclose(
        predict_probabilities(ds, fit1), predict_probabilities(ds, fit3),
        rtol=0, atol=1e-6,
    )
    np.testing.assert_allclose(fit1.loglik, fit3.loglik, atol=1e-8)


def test_lognormal_starting_location_uses_log_abs(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=60, n_situations=3,
                       n_alternatives=3, fixed={"tc": -0.3},
                       random={"ntt": ("lognormal", -1.0, 0.3)},
                       attr_low=-4.0, attr_high=0.0)
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("ntt",), ln_count=1)
    fit = fit_mixed(ds, spec, FitOptions(nrep=20))
    assert fit.converged
    # realized coefficient scale must be positive
    assert np.exp(fit.theta[1]) > 0


# --- analytic Hessian --------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    {"fixed_attrs": ("tt", "tc")},
    {"fixed_attrs": ("tt", "tc"), "use_asc": True},
    {"fixed_attrs": ("tc",), "random_attrs": ("tt",)},
    {"fixed_attrs": ("tc",), "random_attrs": ("tt",), "ln_count": 1},
    {"random_attrs": ("tt", "tc"), "ln_count": 1, "use_asc": True,
     "base_alternative": 2},
], ids=["classical", "classical_asc", "normal", "lognormal", "mixed_asc"])
def test_analytic_hessian_matches_finite_differences(tmp_path, rng, spec):
    """The one-pass Hessian agrees with central differences of the gradient
    to their truncation error, and is exactly symmetric."""
    ds = panel_dataset(tmp_path, rng, n_individuals=20, n_situations=3,
                       n_alternatives=3, fixed={"tt": -0.5, "tc": -0.3})
    design = ModelDesign(ds, ModelSpec(**spec), 10)
    draws = design.draws(15)
    x = rng.normal(size=design.n_params) * 0.3
    _, _, hessian = individual_scores(design, draws, x, hessian=True)
    oracle = _fd_hessian(lambda v: individual_scores(design, draws, v), x)
    assert np.array_equal(hessian, hessian.T)
    np.testing.assert_allclose(hessian, oracle, rtol=0,
                               atol=1e-7 * np.abs(oracle).max())


@pytest.mark.parametrize("random_attrs", [(), ("tt",)])
def test_constant_attribute_hessian_is_singular(tmp_path, rng, random_attrs):
    rows, _ = simulate_panel(rng, n_individuals=20, n_situations=3,
                             n_alternatives=3, fixed={"tt": -0.5})
    for row in rows:
        row["flat"] = "1.0"
    path = tmp_path / "flat.csv"
    write_rows_csv(rows, path)
    ds = load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "flat"])
    fixed = tuple(a for a in ("tt", "flat") if a not in random_attrs)
    spec = ModelSpec(fixed_attrs=fixed, random_attrs=random_attrs)
    with pytest.raises(SingularHessian):
        _run_fit(ds, spec, FitOptions(nrep=10))


@pytest.mark.parametrize("random", [None, {"tt": ("normal", -0.5, 0.2)}])
def test_hessian_costs_one_score_walk(tmp_path, rng, monkeypatch, random):
    """After the optimizer stops, a fit makes exactly one value+gradient
    walk, which also returns the Hessian; a mixed fit's preliminary
    classical fit does the same."""
    ds = panel_dataset(tmp_path, rng, n_individuals=20, n_situations=3,
                       n_alternatives=3, fixed={"tc": -0.3}, random=random)
    calls = []
    walk, maximize = estimation.individual_scores, estimation._maximize

    def counted_walk(*args, hessian=False):
        calls.append("hessian" if hessian else "walk")
        return walk(*args, hessian=hessian)

    def marked_maximize(*args, **kwargs):
        result = maximize(*args, **kwargs)
        calls.append("optimum")
        return result

    monkeypatch.setattr(estimation, "individual_scores", counted_walk)
    monkeypatch.setattr(estimation, "_maximize", marked_maximize)
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=tuple(random or ()))
    _run_fit(ds, spec, FitOptions(nrep=10))
    fits = 2 if random else 1
    assert calls.count("optimum") == calls.count("hessian") == fits
    for k, call in enumerate(calls):
        if call == "optimum":
            assert calls[k + 1] == "hessian"
    assert calls[-2:] == ["optimum", "hessian"]
    assert not hasattr(estimation, "_fd_hessian")


# --- serialization ------------------------------------------------------------------


def test_fit_json_roundtrip(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=50, n_situations=3,
                       n_alternatives=3, fixed={"tc": -0.3},
                       random={"tt": ("normal", -0.5, 0.2)})
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))
    fit = fit_mixed(ds, spec, FitOptions(nrep=20))
    payload = fit_result_to_json(fit)
    for key in ("estimates", "loglik", "nrep", "burn", "converged",
                "covariance_kind", "covariance"):
        assert key in payload
    assert {"name", "coef", "se", "z", "p", "ci_low", "ci_high"} <= set(
        payload["estimates"][0]
    )
    back = fit_result_from_json(json.loads(json.dumps(payload)))
    assert back.param_names == fit.param_names
    np.testing.assert_array_equal(back.theta, fit.theta)
    np.testing.assert_array_equal(back.covariance, fit.covariance)
    assert back.loglik == fit.loglik
    assert back.spec == fit.spec

    path = tmp_path / "fit.json"
    save_fit_json(fit, path)
    loaded = load_fit_json(path)
    np.testing.assert_array_equal(loaded.theta, fit.theta)


def test_fit_json_bytes_deterministic(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=30, n_situations=2,
                       n_alternatives=3, fixed={"tt": -0.4})
    fit1 = fit_classical(ds, ModelSpec(fixed_attrs=("tt",)))
    fit2 = fit_classical(ds, ModelSpec(fixed_attrs=("tt",)))
    p1, p2 = tmp_path / "f1.json", tmp_path / "f2.json"
    save_fit_json(fit1, p1)
    save_fit_json(fit2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_fit_json_schema_1_classical_reads_nrep_1(tmp_path, rng):
    """A schema-1 classical fit stores nrep 0 and burn 0; it loads with the
    classical design's one draw and predicts as the schema-2 file does.  A
    schema-2 file holds the nrep in effect, so its nrep 0 is refused."""
    ds = panel_dataset(tmp_path, rng, n_individuals=30, n_situations=2,
                       n_alternatives=3, fixed={"tt": -0.4, "tc": -0.3})
    payload = fit_result_to_json(fit_classical(ds, ModelSpec(fixed_attrs=("tt", "tc"))))
    assert (payload["schema"], payload["nrep"], payload["burn"]) == (FIT_SCHEMA, 1, 15)
    old = fit_result_from_json({**payload, "schema": 1, "nrep": 0, "burn": 0})
    assert (old.nrep, old.burn) == (1, 0)
    np.testing.assert_array_equal(predict_probabilities(ds, old),
                                  predict_probabilities(ds, fit_result_from_json(payload)))
    with pytest.raises(InvalidOption, match="nrep 0 is below 1"):
        draw_settings(fit_result_from_json({**payload, "nrep": 0}))


@pytest.mark.parametrize("field", ["theta", "covariance"])
def test_fit_json_sizes_checked_against_model_block(tmp_path, rng, field):
    ds = panel_dataset(tmp_path, rng, n_individuals=30, n_situations=2,
                       n_alternatives=3, fixed={"tt": -0.4, "tc": -0.3})
    payload = fit_result_to_json(fit_classical(ds, ModelSpec(fixed_attrs=("tt", "tc"))))
    if field == "theta":
        payload["theta"] = payload["theta"][:1]
    else:
        payload["covariance"] = [row[:1] for row in payload["covariance"]]
    with pytest.raises(InvalidFitFile, match=field):
        fit_result_from_json(payload)


def test_start_checked_against_parameter_count(tmp_path, rng):
    ds = panel_dataset(tmp_path, rng, n_individuals=20, n_situations=2,
                       n_alternatives=3, fixed={"tt": -0.4, "tc": -0.3})
    spec = ModelSpec(fixed_attrs=("tt", "tc"))
    for start in ([0.1], [[0.1, 0.2]]):
        with pytest.raises(InvalidOption, match="start has shape"):
            fit_classical(ds, spec, FitOptions(start=start))
    with pytest.raises(InvalidOption, match="not finite at the starting values"):
        fit_classical(ds, spec, FitOptions(start=[np.nan, 0.0]))


@pytest.mark.parametrize("start", [
    ["0.1"], [True], [0.1, False], [[0.1, True]], [0.1, None], "0.1",
    np.array(["0.1"]), np.array([True, False]), [[0.1], [0.2, 0.3]],
    [np.zeros((2, 2)), np.zeros((2, 3))],
])
def test_start_refuses_what_is_not_numbers(start):
    """As the fit-file reader does, no number admits a boolean."""
    with pytest.raises(InvalidOption, match="start is not a list of numbers"):
        FitOptions(start=start)


@pytest.mark.parametrize("start", [
    [0.1, -2], (1, 2.5), [[0.1, 0.2]], np.array([0.5, 1.0]), np.array([1, 2]),
    [np.float64(0.3), 4], [float("nan")],
])
def test_start_keeps_numbers_as_floats(start):
    kept = FitOptions(start=start).start
    assert kept.dtype == float
    np.testing.assert_array_equal(kept, np.asarray(start, dtype=float))


def test_cluster_sandwich_needs_two_clusters(rng):
    with pytest.raises(InvalidOption):
        covariance_cluster(-np.eye(2), rng.normal(size=(4, 2)), [7, 7, 7, 7])


@pytest.mark.parametrize("maxiter", [200, 2])
def test_sandwich_uses_scores_of_the_final_point(tmp_path, rng, maxiter):
    """The sandwich is built from the final point: the robust covariance
    equals the one rebuilt from a fresh score and Hessian pass, bit for bit."""
    ds = panel_dataset(tmp_path, rng, n_individuals=40, n_situations=3,
                       n_alternatives=3, fixed={"tc": -0.3},
                       random={"tt": ("normal", -0.5, 0.2)})
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))
    opts = FitOptions(nrep=20, covariance="robust", maxiter=maxiter,
                      start=[-0.3, -0.5, 0.1])
    try:
        fit = fit_mixed(ds, spec, opts)
    except NonConvergence as err:
        fit = err.result
    assert fit.converged == (maxiter == 200)
    design = ModelDesign(ds, spec, 20)
    draws = design.draws(15)
    _, scores, hessian = individual_scores(design, draws, fit.theta, hessian=True)
    expected = covariance_robust(hessian, scores)
    assert np.array_equal(fit.covariance, expected)


def _without(payload, path):
    *blocks, key = path.split(".")
    for block in blocks:
        payload = payload[block]
    del payload[key]


def _replaced(value):
    def edit(payload, path):
        *blocks, key = path.split(".")
        for block in blocks:
            payload = payload[block]
        payload[key] = value
    return edit


@pytest.mark.parametrize("path, edit, message", [
    ("schema", _without, "'schema' is missing"),
    ("schema", _replaced(FIT_SCHEMA + 1), "'schema' is 3; this version reads schemas 1 and 2"),
    ("schema", _replaced(True), "'schema' has the wrong type"),
    ("model", _without, "'model' is missing"),
    ("model", _replaced([]), "'model' has the wrong type"),
    ("model.fixed_attrs", _without, "'model.fixed_attrs' is missing"),
    ("model.fixed_attrs", _replaced("tt"), "'model.fixed_attrs' has the wrong type"),
    ("model.use_asc", _replaced(0), "'model.use_asc' has the wrong type"),
    ("model.ln_count", _replaced(3), "'model': ln_count 3 outside 0..0"),
    ("model.random_attrs", _replaced(["tt"]), "'model': attributes named twice"),
    ("model.alternative_labels", _replaced([1.5, 2]),
     "'model.alternative_labels' has the wrong type"),
    ("theta", _replaced(["0.1", 0.2]), "'theta' has the wrong type"),
    ("covariance", _replaced([[1.0, "x"], [0.0, 1.0]]), "'covariance' has the wrong type"),
    ("loglik", _without, "'loglik' is missing"),
    ("nrep", _replaced("50"), "'nrep' has the wrong type"),
    ("converged", _replaced("yes"), "'converged' has the wrong type"),
])
def test_fit_json_fields_checked(tmp_path, rng, path, edit, message):
    ds = panel_dataset(tmp_path, rng, n_individuals=30, n_situations=2,
                       n_alternatives=3, fixed={"tt": -0.4, "tc": -0.3})
    payload = fit_result_to_json(fit_classical(ds, ModelSpec(fixed_attrs=("tt", "tc"))))
    assert payload["schema"] == FIT_SCHEMA
    edit(payload, path)
    with pytest.raises(InvalidFitFile, match=message):
        fit_result_from_json(payload)
    # the file reader names the file as well as the field
    fit_file = tmp_path / "fit.json"
    fit_file.write_text(json.dumps(payload))
    with pytest.raises(InvalidFitFile, match=f"fit.json: field {message}"):
        load_fit_json(fit_file)


@pytest.mark.parametrize("content", [b'{"schema": 1,', b"\xff\xfe{}", b"[1, 2]"])
def test_fit_file_not_a_fit_object(tmp_path, content):
    fit_file = tmp_path / "fit.json"
    fit_file.write_bytes(content)
    with pytest.raises(InvalidFitFile, match="fit.json"):
        load_fit_json(fit_file)


def test_overflowing_slope_stops_the_fit_at_line_search(tmp_path, rng):
    """With ``tt`` scaled by 1e200 the start's gradient is finite, but its
    slope along the first direction, g'g, overflows: a classical fit, and a
    mixed one with its preliminary fit, stop at ``line_search`` after 0
    iterations, with RuntimeWarning an error."""
    rows, attrs = simulate_panel(rng, n_individuals=30, n_situations=3,
                                 n_alternatives=3, fixed={"tc": -0.3},
                                 random={"tt": ("normal", -0.5, 0.2)})
    for row in rows:
        row["tt"] = repr(float(row["tt"]) * 1e200)
    write_rows_csv(rows, tmp_path / "panel.csv")
    ds = load_long_csv(tmp_path / "panel.csv", attr_cols=attrs)
    fits = [lambda: fit_classical(ds, ModelSpec(fixed_attrs=("tc", "tt"))),
            lambda: fit_mixed(ds, ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",)),
                              FitOptions(nrep=5))]
    for fit in fits:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the preliminary fit's non-convergence
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonConvergence) as stopped:
                fit()
        result = stopped.value.result
        assert (result.stop, result.iterations) == ("line_search", 0)
        assert np.isfinite(result.gradient_norm) and result.gradient_norm > 1e199


@pytest.mark.parametrize("covariance", ["robust", "cluster"])
def test_classical_blocks_keep_dataset_order(tmp_path, rng, covariance):
    """A classical fit over three blocks (20, 20 and 1 people: each has 2
    situations of 3 alternatives and 2 attributes, 2 * 3*2 = 12 padded
    floats) builds its robust and cluster sandwiches, and predicts,
    from rows in dataset order: both equal the ones from one-individual
    blocks at the fitted point."""
    from unittest import mock

    from mixrrm import regret
    from mixrrm.postestimation import predict_probabilities

    ds = panel_dataset(tmp_path, rng, cluster=True, n_individuals=41,
                       n_situations=2, n_alternatives=3,
                       fixed={"tt": -0.5, "tc": -0.3})
    spec = ModelSpec(fixed_attrs=("tt", "tc"))
    with mock.patch.object(regret, "_BLOCK_FLOATS", 20 * 12):
        fit = fit_classical(ds, spec, FitOptions(covariance=covariance))
        assert ModelDesign(ds, spec).blocks == [(0, 20), (20, 40), (40, 41)]
    with mock.patch.object(regret, "_BLOCK_FLOATS", 0):
        single = ModelDesign(ds, spec)
        single_probs = predict_probabilities(ds, fit)
    _, rows, hessian = individual_scores(single, single.draws(), fit.theta,
                                         hessian=True)
    expected = (covariance_robust(hessian, rows) if covariance == "robust"
                else covariance_cluster(hessian, rows, ds.individual_clusters))
    np.testing.assert_allclose(fit.covariance, expected, rtol=1e-10,
                               atol=1e-10 * np.abs(expected).max())
    np.testing.assert_allclose(predict_probabilities(ds, fit), single_probs,
                               rtol=1e-12, atol=0)


def test_every_kernel_call_comes_from_the_walk(tmp_path, monkeypatch):
    """``ModelDesign.walk`` is the one loop over blocks: through a mixed fit
    (its preliminary classical fit included), its predictions and
    conditional betas, and a classical fit, every block kernel is called
    inside a walk, by the walk or by the kernel it was handed (the draw-info
    pass hands it one that summarizes each block), and no other loop calls
    one: every walk, a line-search trial's too, makes exactly one kernel
    call per block, in designs of several blocks.  The panel: 12
    people of 3 situations of 3 alternatives, 3 * 3*2 * 5 = 90 padded
    floats each at the mixed fit's R = 5 and 3 * 3*2 = 18 in a classical
    design, so blocks of 2 and of 11 people."""
    from mixrrm import regret

    monkeypatch.setattr(regret, "_BLOCK_FLOATS", 200)
    calls = []  # (kernel, called inside a walk) per call
    walks = []  # (blocks, blocks called) per walk
    walk = ModelDesign.walk

    def counted_walk(self, *args):
        walks.append((len(self.blocks), []))
        return walk(self, *args)

    monkeypatch.setattr(ModelDesign, "walk", counted_walk)
    for name in ("individual_loglik", "individual_loglik_gradient",
                 "individual_draw_info"):

        def recorded(self, *args, kernel=getattr(ModelDesign, name), name=name):
            caller = sys._getframe(1)
            calls.append((name, walk.__code__ in (caller.f_code, caller.f_back.f_code)))
            walks[-1][1].append(args[0])
            return kernel(self, *args)

        monkeypatch.setattr(ModelDesign, name, recorded)
    ds = panel_dataset(tmp_path, np.random.default_rng(5), n_individuals=12,
                       n_situations=3, n_alternatives=3, fixed={"tc": -0.3},
                       random={"tt": ("normal", -0.5, 0.2)})
    fit = fit_mixed(ds, ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",)),
                    FitOptions(nrep=5))
    predict_probabilities(ds, fit)
    individual_betas(ds, fit)
    fit_classical(ds, ModelSpec(fixed_attrs=("tc", "tt")))
    assert {name for name, _ in calls} == {
        "individual_loglik", "individual_loglik_gradient", "individual_draw_info"}
    assert all(in_walk for _, in_walk in calls)
    assert min(blocks for blocks, _ in walks) > 1
    for blocks, called in walks:
        assert sorted(called) == list(range(blocks))
