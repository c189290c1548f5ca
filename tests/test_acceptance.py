"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to watch).

Tolerances are pinned here, not configurable.  The final smoke criterion
runs on a bundled synthetic route-choice panel with the same design as the
published three-alternative survey (10 situations per person, travel time
and cost attributes); point MIXRRM_SMOKE_DATA at the real long-format CSV
(columns id, cs, altern, choice, total_time, total_cost) to run it on the
original data instead.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_dataset, per_person, random_dataset, situation_slices
from mixrrm.dataset import load_long_csv
from mixrrm.draws import build_drawset, halton_sequence
from mixrrm.estimation import (
    FitOptions,
    covariance_cluster,
    covariance_hessian,
    covariance_robust,
    fit_classical,
    fit_mixed,
    individual_scores,
    load_fit_json,
    simulated_loglik,
)
from mixrrm.postestimation import (
    individual_betas,
    lognormal_summary,
    posterior_weights,
    predict_probabilities,
)
from mixrrm.regret import ModelDesign, ModelSpec, ParameterVector
from oracles import (
    brute_force_sll,
    fd_gradient,
    fd_jacobian,
    irls_binary_logit,
    simulate_panel,
    write_rows_csv,
)


# criterion name per test function; conftest prints one PASS/FAIL line per
# entry from a reporting hook, outside pytest's output capture
CRITERIA: dict[str, str] = {}


def criterion(name):
    def decorate(fn):
        CRITERIA[fn.__name__] = name
        return fn

    return decorate


def random_instance(rng, n_ind, n_sit, n_alt, n_attrs=2):
    return random_dataset(rng, n_individuals=n_ind, n_situations=n_sit,
                          n_alternatives=n_alt, n_attrs=n_attrs)


@criterion("gradient-correctness")
def test_gradient_matches_finite_differences():
    """Analytic score of the simulated log-likelihood vs. central FD,
    1e-6 relative, >= 20 randomized small instances, under 10 s."""
    rng = np.random.default_rng(1234)
    started = time.perf_counter()
    checked = 0
    for trial in range(24):
        n_ind = int(rng.integers(1, 6))      # N <= 5
        n_sit = int(rng.integers(1, 4))      # S <= 3
        n_alt = int(rng.integers(2, 4))      # J <= 3
        n_rep = int(rng.integers(1, 6))      # R <= 5
        use_asc = bool(rng.integers(2))
        ds = random_instance(rng, n_ind, n_sit, n_alt, n_attrs=3)
        spec = ModelSpec(
            fixed_attrs=("x0",), random_attrs=("x1", "x2"),
            ln_count=int(rng.integers(0, 3)),
            use_asc=use_asc, base_alternative=1 if use_asc else None,
        )
        design = ModelDesign(ds, spec)
        x = rng.normal(size=design.n_params) * 0.6
        draws = [rng.normal(size=(2, n_rep)) for _ in range(n_ind)]

        def sll(vec):
            lls = per_person(design, design.walk(
                design.individual_loglik, design.unpack(vec), np.array(draws)))
            return sum(lls[pos][0] for pos in range(n_ind))

        theta = design.unpack(x)
        grad = np.zeros(design.n_params)
        rows = per_person(design, design.walk(design.individual_loglik_gradient,
                                              theta, np.array(draws)))
        for pos in range(n_ind):
            grad += rows[pos][1][0]
        oracle = fd_gradient(sll, x, rel_step=5e-6)
        np.testing.assert_allclose(grad, oracle, rtol=1e-6, atol=1e-8)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 20
    assert elapsed < 10.0


@criterion("degenerate-mixture-equivalence")
def test_zero_scale_equals_classical_loglik():
    """With every scale at 0 (one z=0 draw), the simulated log-likelihood
    collapses to the classical one within 1e-10 on randomized instances."""
    rng = np.random.default_rng(77)
    for _ in range(10):
        ds = random_instance(rng, int(rng.integers(2, 6)),
                             int(rng.integers(1, 4)), 3, n_attrs=2)
        spec_mixed = ModelSpec(fixed_attrs=("x0",), random_attrs=("x1",))
        spec_classical = ModelSpec(fixed_attrs=("x0", "x1"))
        beta = rng.normal(size=2)
        theta_mixed = ParameterVector(
            fixed=beta[:1], rand_location=beta[1:],
            rand_scale=np.zeros(1), asc=np.zeros(0),
        )
        theta_classical = ParameterVector(
            fixed=beta, rand_location=np.zeros(0), rand_scale=np.zeros(0),
            asc=np.zeros(0),
        )
        z0 = np.zeros((ds.n_individuals, 1, 1))
        sll = simulated_loglik(ds, spec_mixed, theta_mixed, z0)
        ll = simulated_loglik(ds, spec_classical, theta_classical,
                              ModelDesign(ds, spec_classical).draws())
        assert sll == pytest.approx(ll, abs=1e-10)


@criterion("binary-logit-oracle")
def test_binary_choice_equals_binary_logit(tmp_path):
    """J=2: probabilities match the differenced-attribute logit to 1e-12;
    the fitted coefficients match an IRLS logit fit to 1e-6."""
    rng = np.random.default_rng(99)
    # probabilities, randomized
    for _ in range(50):
        x1, x2 = rng.normal(size=(2, 3)) * 2.0
        vals = rng.normal(size=3)
        ds = make_dataset(
            {1: {1: [(1, x1.tolist(), True), (2, x2.tolist(), False)]}},
            ["p", "q", "r"],
        )
        design = ModelDesign(ds, ModelSpec(fixed_attrs=("p", "q", "r")))
        theta = ParameterVector(fixed=vals, rand_location=np.zeros(0),
                                rand_scale=np.zeros(0), asc=np.zeros(0))
        _, probs = per_person(design, design.walk(design.individual_draw_info,
                                                  theta, design.draws()))[0]
        logit = 1.0 / (1.0 + math.exp(-vals @ (x1 - x2)))
        assert probs[0, 0, 0, 0] == pytest.approx(logit, abs=1e-12)

    # coefficients on a simulated binary panel
    rows, attrs = simulate_panel(rng, n_individuals=200, n_situations=3,
                                 n_alternatives=2,
                                 fixed={"tt": -0.6, "tc": 0.35})
    path = tmp_path / "binary.csv"
    write_rows_csv(rows, path)
    ds = load_long_csv(path, "id", "cs", "altern", "choice", attrs)
    fit = fit_classical(ds, ModelSpec(fixed_attrs=("tt", "tc")))
    first = ds.situation_starts
    diffs = ds.attributes[first] - ds.attributes[first + 1]
    chose_first = ds.chosen[first].astype(float)
    oracle = irls_binary_logit(diffs, chose_first)
    assert np.max(np.abs(fit.theta - oracle)) <= 1e-6


@criterion("brute-force-sll-oracle")
def test_simulated_loglik_matches_enumeration():
    """N=2, S=2, J=2, R=2 with known Halton draws: the vectorized simulated
    log-likelihood equals a straight-line enumeration to 1e-12."""
    rng = np.random.default_rng(31)
    individuals = {}
    plain = []
    for ind in (1, 2):
        sits = {}
        plain_sits = []
        for sid in (1, 2):
            x = rng.uniform(0, 3, size=(2, 2))
            chosen = int(rng.integers(2))
            sits[sid] = [
                (j + 1, x[j].tolist(), j == chosen) for j in range(2)
            ]
            plain_sits.append((x.tolist(), chosen))
        individuals[ind] = sits
        plain.append(plain_sits)
    ds = make_dataset(individuals, ["tc", "tt"])
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))

    drawset = build_drawset(2, 1, 2, burn=0)  # radical inverses 1..4, base 2
    theta = ParameterVector(
        fixed=np.array([-0.4]), rand_location=np.array([-0.7]),
        rand_scale=np.array([0.5]), asc=np.zeros(0),
    )
    ours = simulated_loglik(ds, spec, theta, drawset)
    oracle = brute_force_sll(
        plain,
        {"fixed": [-0.4], "location": [-0.7], "scale": [0.5],
         "lognormal": [False]},
        [drawset[i].tolist() for i in range(2)],
    )
    assert ours == pytest.approx(oracle, abs=1e-12)


@criterion("halton-values")
def test_halton_radical_inverse_prefixes():
    """Bases 2 and 3 match the radical-inverse definition exactly;
    burn=15 starts at element 16."""
    assert halton_sequence(2, 4, 0).tolist() == [0.5, 0.25, 0.75, 0.125]
    assert halton_sequence(2, 1, 15).tolist() == [1.0 / 32.0]
    expected_base3 = [1 / 3, 2 / 3, 1 / 9, 4 / 9, 7 / 9, 2 / 9]
    np.testing.assert_allclose(
        halton_sequence(3, 6, 0), expected_base3, rtol=0, atol=1e-15
    )


@criterion("variance-estimators")
def test_variance_estimators(tmp_path):
    """Singleton clusters == robust bitwise; 2-cluster sandwich matches the
    hand computation to 1e-10; delta-method SEs match a numeric Jacobian to
    1e-6 relative."""
    rng = np.random.default_rng(5150)
    rows, attrs = simulate_panel(rng, n_individuals=60, n_situations=4,
                                 n_alternatives=3,
                                 fixed={"tt": -0.5, "tc": -0.3})
    for row in rows:
        row["grp"] = 1 + (row["id"] - 1) % 2
    path = tmp_path / "panel.csv"
    write_rows_csv(rows, path)
    ds = load_long_csv(path, "id", "cs", "altern", "choice", attrs,
                       cluster_col="grp")
    spec = ModelSpec(fixed_attrs=("tt", "tc"))
    fit = fit_classical(ds, spec)

    design = ModelDesign(ds, spec)
    _, scores = individual_scores(design, design.draws(), fit.theta)
    from oracles import _fd_hessian

    hessian = _fd_hessian(
        lambda x: individual_scores(design, design.draws(), x), fit.theta
    )

    robust = covariance_robust(hessian, scores)
    singleton = covariance_cluster(hessian, scores, np.arange(len(scores)))
    assert np.array_equal(robust, singleton)

    ids = ds.individual_clusters
    two_cluster = covariance_cluster(hessian, scores, ids)
    grouped = np.zeros((2, scores.shape[1]))
    for row, cl in zip(scores, ids):
        grouped[cl - 1] += row
    meat = 2.0 * sum(np.outer(g, g) for g in grouped)
    bread = covariance_hessian(hessian)
    np.testing.assert_allclose(two_cluster, bread @ meat @ bread,
                               rtol=0, atol=1e-10)

    # delta method on a log-normal summary
    rows_ln, attrs_ln = simulate_panel(
        rng, n_individuals=80, n_situations=4, n_alternatives=3,
        fixed={"tc": -0.3}, random={"ntt": ("lognormal", -0.9, 0.4)},
        attr_low=-4.0, attr_high=0.0,
    )
    path_ln = tmp_path / "panel_ln.csv"
    write_rows_csv(rows_ln, path_ln)
    ds_ln = load_long_csv(path_ln, "id", "cs", "altern", "choice", attrs_ln)
    spec_ln = ModelSpec(fixed_attrs=("tc",), random_attrs=("ntt",), ln_count=1)
    fit_ln = fit_mixed(ds_ln, spec_ln, FitOptions(nrep=50))
    summary = lognormal_summary(fit_ln, "ntt")
    b, s = fit_ln.theta[1], fit_ln.theta[2]
    sub_cov = fit_ln.covariance[np.ix_([1, 2], [1, 2])]

    def transform(v):
        bb, ss = v
        med = math.exp(bb)
        mean = math.exp(bb + ss * ss / 2.0)
        return np.array([med, mean, mean * math.sqrt(math.expm1(ss * ss))])

    jac = fd_jacobian(transform, np.array([b, s]), rel_step=1e-7)
    oracle_se = np.sqrt(np.diag(jac @ sub_cov @ jac.T))
    assert summary.median_se == pytest.approx(oracle_se[0], rel=1e-6)
    assert summary.mean_se == pytest.approx(oracle_se[1], rel=1e-6)
    assert summary.sd_se == pytest.approx(oracle_se[2], rel=1e-6)


@criterion("parameter-recovery")
def test_parameter_recovery(tmp_path):
    """N=500, S=10, J=3, fixed cost -0.3, time ~ N(-0.5, 0.2), R=500:
    every estimate within max(0.1, 3 SE) of truth, under 10 minutes; the
    log-normal repeat on a negated attribute leaves every sign-reversed
    individual coefficient negative."""
    rng = np.random.default_rng(2718281828)
    rows, attrs = simulate_panel(
        rng, n_individuals=500, n_situations=10, n_alternatives=3,
        fixed={"tc": -0.3}, random={"tt": ("normal", -0.5, 0.2)},
    )
    path = tmp_path / "recovery.csv"
    write_rows_csv(rows, path)
    ds = load_long_csv(path, "id", "cs", "altern", "choice", attrs)
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))

    started = time.perf_counter()
    fit = fit_mixed(ds, spec, FitOptions(nrep=500, burn=15))
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"recovery fit took {elapsed:.0f}s"
    assert fit.converged

    truth = {"tc": -0.3, "tt": -0.5, "sd.tt": 0.2}
    for name, true_value in truth.items():
        i = fit.param_names.index(name)
        tolerance = max(0.1, 3.0 * fit.std_errors[i])
        assert abs(fit.estimates[i] - true_value) <= tolerance, (
            f"{name}: estimate {fit.estimates[i]:.4f} vs truth {true_value} "
            f"(allowed {tolerance:.4f})"
        )

    # log-normal repeat: negated travel time with a positive log-normal
    # coefficient, reproducing the all-negative reversed coefficients
    rng2 = np.random.default_rng(3141592653)
    ln_true_loc, ln_true_scale = math.log(0.5), 0.3
    rows_ln, attrs_ln = simulate_panel(
        rng2, n_individuals=500, n_situations=10, n_alternatives=3,
        fixed={"tc": -0.3},
        random={"ntt": ("lognormal", ln_true_loc, ln_true_scale)},
        attr_low=-4.0, attr_high=0.0,
    )
    # tc must stay on a positive range: flip its sign column back
    for row in rows_ln:
        row["tc"] = repr(-float(row["tc"]))
    path_ln = tmp_path / "recovery_ln.csv"
    write_rows_csv(rows_ln, path_ln)
    ds_ln = load_long_csv(path_ln, "id", "cs", "altern", "choice", attrs_ln)
    spec_ln = ModelSpec(fixed_attrs=("tc",), random_attrs=("ntt",), ln_count=1)

    started = time.perf_counter()
    fit_ln = fit_mixed(ds_ln, spec_ln, FitOptions(nrep=500, burn=15))
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"log-normal recovery fit took {elapsed:.0f}s"
    assert fit_ln.converged

    truth_ln = {"tc": 0.3, "ntt": ln_true_loc, "sd.ntt": ln_true_scale}
    for name, true_value in truth_ln.items():
        i = fit_ln.param_names.index(name)
        tolerance = max(0.1, 3.0 * fit_ln.std_errors[i])
        assert abs(fit_ln.estimates[i] - true_value) <= tolerance, (
            f"{name}: estimate {fit_ln.estimates[i]:.4f} vs truth "
            f"{true_value} (allowed {tolerance:.4f})"
        )

    table = individual_betas(ds_ln, fit_ln)
    reversed_betas = -table.values
    assert np.all(reversed_betas < 0.0)


@criterion("probability-laws")
def test_probability_laws(tmp_path):
    """Predicted probability columns sum to 1 per situation within 1e-10;
    posterior draw weights are probability vectors within 1e-12."""
    rng = np.random.default_rng(8128)
    rows, attrs = simulate_panel(rng, n_individuals=50, n_situations=4,
                                 n_alternatives=3, fixed={"tc": -0.3},
                                 random={"tt": ("normal", -0.5, 0.2)})
    path = tmp_path / "panel.csv"
    write_rows_csv(rows, path)
    ds = load_long_csv(path, "id", "cs", "altern", "choice", attrs)
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))
    fit = fit_mixed(ds, spec, FitOptions(nrep=50))

    probs = predict_probabilities(ds, fit)
    for rows in situation_slices(ds):
        assert abs(probs[rows].sum() - 1.0) <= 1e-10

    for weights in posterior_weights(ds, fit):
        assert np.all(weights >= 0.0)
        assert abs(weights.sum() - 1.0) <= 1e-12


def smoke_dataset_path(tmp_path):
    env = os.environ.get("MIXRRM_SMOKE_DATA")
    if env:
        return Path(env), "published dataset"
    rng = np.random.default_rng(4042)
    rows, _ = simulate_panel(
        rng, n_individuals=150, n_situations=10, n_alternatives=3,
        fixed={"total_cost": -0.4},
        random={"total_time": ("normal", -0.6, 0.15)},
    )
    path = tmp_path / "route_choice.csv"
    write_rows_csv(rows, path)
    return path, "bundled synthetic stand-in"


@criterion("smoke-run")
def test_smoke_full_pipeline(tmp_path):
    """Three-alternative route choice: the classical fit gives negative,
    significant time and cost coefficients, and the whole CLI pipeline
    (fit R=500 -> predict -> betas -> plot) completes inside 15 minutes."""
    data, source = smoke_dataset_path(tmp_path)
    print(f"\n[smoke-run] using {source}: {data}")
    started = time.perf_counter()

    classical = fit_classical(
        load_long_csv(data, "id", "cs", "altern", "choice",
                      ["total_time", "total_cost"]),
        ModelSpec(fixed_attrs=("total_time", "total_cost")),
    )
    for name in ("total_time", "total_cost"):
        i = classical.param_names.index(name)
        assert classical.estimates[i] < 0.0, f"{name} not negative"
        assert classical.p_values[i] < 0.05, f"{name} not significant"

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "mixrrm.cli", *map(str, argv)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    fit_path = tmp_path / "smoke_fit.json"
    cli("fit", data, "--fixed", "total_cost", "--rand", "total_time",
        "--noconstant", "--nrep", 500, "--burn", 15, "--cluster", "id",
        "--out", fit_path)
    fit = load_fit_json(fit_path)
    assert fit.converged and fit.nrep == 500

    pred_path = tmp_path / "smoke_pred.csv"
    cli("predict", data, "--fit", fit_path, "--out", pred_path)
    with open(pred_path, newline="") as handle:
        pred_rows = list(csv.DictReader(handle))
    sums = {}
    for row in pred_rows:
        key = (row["id"], row["cs"])
        sums[key] = sums.get(key, 0.0) + float(row["pred_p"])
    assert all(abs(total - 1.0) <= 1e-10 for total in sums.values())

    betas_path = tmp_path / "smoke_betas.csv"
    cli("betas", data, "--fit", fit_path, "--saving", betas_path, "--plot")
    assert betas_path.exists()
    assert (tmp_path / "total_time_hist.svg").exists()

    elapsed = time.perf_counter() - started
    assert elapsed < 900.0, f"smoke pipeline took {elapsed:.0f}s"
    print(f"[smoke-run] pipeline completed in {elapsed:.0f}s")
