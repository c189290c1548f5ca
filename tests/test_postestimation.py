import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, random_dataset, situation_slices
from mixrrm.dataset import load_long_csv
from mixrrm.draws import build_drawset, inverse_normal_cdf
from mixrrm.errors import AttrNotLognormal, DomainError, EmptyInput, SpecMismatch
from mixrrm.estimation import (
    FitOptions,
    FitResult,
    fit_mixed,
    simulated_loglik,
)
from mixrrm.postestimation import (
    histogram_svg,
    individual_betas,
    lognormal_summary,
    posterior_weights,
    predict_probabilities,
    predict_rows,
    read_beta_file,
    write_beta_file,
)
from mixrrm.regret import ModelDesign, ModelSpec
from oracles import fd_jacobian, simulate_panel, write_rows_csv


def fake_fit(ds, spec, theta_packed, covariance=None, nrep=1, burn=0):
    """A FitResult shell around a known parameter point (no estimation)."""
    n = ModelDesign(ds, spec).n_params
    return FitResult(
        spec=spec,
        alternative_labels=ds.alternative_labels,
        theta=np.asarray(theta_packed, dtype=float),
        loglik=0.0,
        n_individuals=ds.n_individuals,
        n_situations=ds.n_situations,
        covariance=np.eye(n) if covariance is None else np.asarray(covariance, float),
        covariance_kind="hessian",
        level=95.0,
        converged=True,
        iterations=0,
        gradient_norm=0.0,
        nrep=nrep,
        burn=burn,
    )


def uniform_dataset(n_ind=2, n_sit=2):
    individuals = {}
    for i in range(1, n_ind + 1):
        individuals[i] = {
            s: [(j + 1, [float(j), 1.0], j == 0) for j in range(3)]
            for s in range(1, n_sit + 1)
        }
    return make_dataset(individuals, ["p", "q"])


# --- predict_probabilities ------------------------------------------------------


def test_predict_zero_beta_uniform():
    ds = uniform_dataset()
    spec = ModelSpec(fixed_attrs=("p", "q"))
    fit = fake_fit(ds, spec, [0.0, 0.0])
    probs = predict_probabilities(ds, fit)
    np.testing.assert_allclose(probs, np.full(ds.n_rows, 1 / 3), atol=1e-15)


def test_predict_mixed_zero_scale_matches_classical(rng):
    ds = random_dataset(rng, n_individuals=3, n_situations=2,
                        n_alternatives=3, n_attrs=2)
    mixed = fake_fit(
        ds, ModelSpec(fixed_attrs=("x0",), random_attrs=("x1",)),
        [0.7, -0.4, 0.0], nrep=8, burn=3,
    )
    classical = fake_fit(ds, ModelSpec(fixed_attrs=("x0", "x1")), [0.7, -0.4])
    np.testing.assert_allclose(
        predict_probabilities(ds, mixed),
        predict_probabilities(ds, classical),
        rtol=0, atol=1e-12,
    )


def test_predict_tiny_mixed_matches_hand_enumeration():
    x_own, x_other = 1.0, 2.0
    ds = make_dataset(
        {1: {1: [(1, [x_own], True), (2, [x_other], False)]}}, ["a"]
    )
    spec = ModelSpec(random_attrs=("a",))
    b, s = -0.5, 0.8
    fit = fake_fit(ds, spec, [b, s], nrep=2, burn=0)
    probs = predict_probabilities(ds, fit, nrep=2, burn=0)

    draws = [0.0, inverse_normal_cdf(0.25)]  # the two Halton normals, base 2
    by_hand = []
    for z in draws:
        beta = b + s * z
        by_hand.append(1.0 / (1.0 + math.exp(-beta * (x_own - x_other))))
    expected_first = sum(by_hand) / 2.0
    assert probs[0] == pytest.approx(expected_first, abs=1e-14)
    assert probs[1] == pytest.approx(1.0 - expected_first, abs=1e-14)


def test_predict_sums_to_one_per_situation(rng):
    ds = random_dataset(rng, n_individuals=4, n_situations=3,
                        n_alternatives=3, n_attrs=2)
    fit = fake_fit(
        ds, ModelSpec(fixed_attrs=("x0",), random_attrs=("x1",)),
        [0.5, -0.6, 0.4], nrep=16, burn=15,
    )
    probs = predict_probabilities(ds, fit)
    for rows in situation_slices(ds):
        assert abs(probs[rows].sum() - 1.0) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_predict_rows_cover_every_data_row_once(tmp_path_factory, seed, data):
    """In any row order, with blank lines anywhere, every non-blank data row
    gets one probability, and each situation's probabilities sum to 1."""
    rows, attrs = simulate_panel(
        np.random.default_rng(seed), n_individuals=data.draw(st.integers(1, 4)),
        n_situations=data.draw(st.integers(1, 3)),
        n_alternatives=data.draw(st.integers(2, 4)), fixed={"tc": -0.3},
        random={"tt": ("normal", -0.5, 0.2)},
    )
    lines = data.draw(st.permutations([",".join(map(str, row.values()))
                                       for row in rows]))
    for pos in data.draw(st.lists(st.integers(0, len(lines)), max_size=4)):
        lines.insert(pos, data.draw(st.sampled_from(["", " ", ",,,"])))
    path = tmp_path_factory.mktemp("predict") / "panel.csv"
    path.write_text("\n".join([",".join(rows[0]), *lines]) + "\n")
    ds = load_long_csv(path, "id", "cs", "altern", "choice", attrs)
    fit = fake_fit(ds, ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",)),
                   [-0.3, -0.5, 0.2], nrep=8)

    probs = predict_rows(ds, fit)
    data_rows = {n: line for n, line in enumerate(lines, start=2) if line.strip(" ,")}
    assert sorted(probs) == sorted(data_rows)
    totals = {}
    for n, line in data_rows.items():
        key = tuple(line.split(",")[:2])
        totals[key] = totals.get(key, 0.0) + probs[n]
    assert all(abs(total - 1.0) <= 1e-12 for total in totals.values())


def test_predict_spec_mismatch(rng):
    ds = random_dataset(rng, n_attrs=2)
    other = random_dataset(rng, n_attrs=1)
    fit = fake_fit(ds, ModelSpec(fixed_attrs=("x0", "x1")), [0.1, 0.2])
    with pytest.raises(SpecMismatch):
        predict_probabilities(other, fit)


def test_predict_draws_reproduce_fit_loglik(tmp_path, rng):
    """Same draws, fitted point: recombining per-draw sequence probabilities
    must give back the optimized simulated log-likelihood."""
    rows, attrs = simulate_panel(rng, n_individuals=40, n_situations=3,
                                 n_alternatives=3, fixed={"tc": -0.3},
                                 random={"tt": ("normal", -0.5, 0.2)})
    path = tmp_path / "panel.csv"
    write_rows_csv(rows, path)
    ds = load_long_csv(path, "id", "cs", "altern", "choice", attrs)
    spec = ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))
    fit = fit_mixed(ds, spec, FitOptions(nrep=20, burn=15))
    drawset = build_drawset(ds.n_individuals, 1, fit.nrep, fit.burn)
    recombined = simulated_loglik(ds, spec, fit.theta_hat, drawset)
    assert recombined == pytest.approx(fit.loglik, abs=1e-8)


# --- individual_betas -------------------------------------------------------------


def test_betas_single_draw_equals_realization():
    ds = uniform_dataset(n_ind=2, n_sit=1)
    spec = ModelSpec(random_attrs=("p",), ln_count=0)
    b, s = -0.4, 0.9
    fit = fake_fit(ds, spec, [b, s], nrep=1, burn=0)
    table = individual_betas(ds, fit, nrep=1, burn=0)
    draws = build_drawset(2, 1, 1, 0)
    for pos in range(2):
        expected = b + s * draws[pos, 0, 0]
        assert table.values[pos, 0] == pytest.approx(expected, rel=1e-14)


def test_betas_identical_alternatives_give_simple_mean():
    x = [1.5, 2.5]
    individuals = {1: {1: [(1, x, True), (2, x, False), (3, x, False)]}}
    ds = make_dataset(individuals, ["p", "q"])
    spec = ModelSpec(fixed_attrs=("q",), random_attrs=("p",))
    fit = fake_fit(ds, spec, [0.3, -0.4, 0.7], nrep=16, burn=15)
    table = individual_betas(ds, fit)
    draws = build_drawset(1, 1, 16, 15)
    realized = -0.4 + 0.7 * draws[0, 0]
    assert table.values[0, 0] == pytest.approx(realized.mean(), rel=1e-12)


def test_betas_two_draw_hand_weighting():
    x_own, x_other = 1.0, 3.0
    ds = make_dataset(
        {1: {1: [(1, [x_own], True), (2, [x_other], False)]}}, ["a"]
    )
    spec = ModelSpec(random_attrs=("a",))
    b, s = -0.2, 0.6
    fit = fake_fit(ds, spec, [b, s], nrep=2, burn=0)
    table = individual_betas(ds, fit, nrep=2, burn=0)

    z = [0.0, inverse_normal_cdf(0.25)]
    betas = [b + s * zi for zi in z]
    probs = [1.0 / (1.0 + math.exp(-bi * (x_own - x_other))) for bi in betas]
    weights = [p / sum(probs) for p in probs]
    expected = sum(w * bi for w, bi in zip(weights, betas))
    assert table.values[0, 0] == pytest.approx(expected, abs=1e-14)


def test_betas_weights_are_probability_vectors(rng):
    ds = random_dataset(rng, n_individuals=4, n_situations=3,
                        n_alternatives=3, n_attrs=2)
    fit = fake_fit(
        ds, ModelSpec(fixed_attrs=("x0",), random_attrs=("x1",)),
        [0.3, -0.5, 0.8], nrep=32, burn=15,
    )
    weights = posterior_weights(ds, fit)
    assert weights.shape == (ds.n_individuals, 32)
    for w in weights:
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12
    # the conditional means are exactly these weights over the realized draws
    table = individual_betas(ds, fit)
    design = ModelDesign(ds, fit.spec)
    draws = build_drawset(ds.n_individuals, 1, 32, 15)
    for pos, w in enumerate(weights):
        coef = design.random_coefficient_draws(fit.theta_hat, draws[pos])
        assert table.values[pos, 0] == (w @ coef)[0]


def test_betas_stay_within_draw_hull(rng):
    ds = random_dataset(rng, n_individuals=5, n_situations=2,
                        n_alternatives=3, n_attrs=2)
    spec = ModelSpec(fixed_attrs=("x0",), random_attrs=("x1",), ln_count=1)
    theta = [0.2, -1.0, 0.5]
    fit = fake_fit(ds, spec, theta, nrep=16, burn=15)
    table = individual_betas(ds, fit)
    design = ModelDesign(ds, spec)
    draws = build_drawset(ds.n_individuals, 1, 16, 15)
    for pos in range(ds.n_individuals):
        realized = design.random_coefficient_draws(
            design.unpack(np.asarray(theta)), draws[pos]
        )
        assert realized.min() - 1e-12 <= table.values[pos, 0]
        assert table.values[pos, 0] <= realized.max() + 1e-12


def test_betas_lognormal_positive_and_negate_flips(rng):
    ds = random_dataset(rng, n_individuals=6, n_situations=3,
                        n_alternatives=3, n_attrs=2)
    spec = ModelSpec(fixed_attrs=("x0",), random_attrs=("x1",), ln_count=1)
    fit = fake_fit(ds, spec, [0.2, -0.8, 0.4], nrep=16, burn=15)
    table = individual_betas(ds, fit)
    assert np.all(table.values > 0.0)       # log-normal: coefficient scale
    assert np.all(-table.values < 0.0)      # sign reversal makes all negative


def test_betas_requires_random_attribute(rng):
    ds = random_dataset(rng, n_attrs=1)
    fit = fake_fit(ds, ModelSpec(fixed_attrs=("x0",)), [0.4])
    with pytest.raises(SpecMismatch):
        individual_betas(ds, fit)


def test_betas_row_and_column_layout(rng):
    ds = random_dataset(rng, n_individuals=4, n_situations=2,
                        n_alternatives=2, n_attrs=3)
    spec = ModelSpec(fixed_attrs=("x0",), random_attrs=("x2", "x1"))
    fit = fake_fit(ds, spec, [0.1, -0.3, 0.4, 0.2, 0.1], nrep=8, burn=5)
    table = individual_betas(ds, fit)
    assert table.attrs == ("x2", "x1")  # declared order, not dataset order
    assert table.ids.tolist() == [1, 2, 3, 4]
    assert table.values.shape == (4, 2)


# --- lognormal_summary -------------------------------------------------------------


def lognormal_fit(b, s, cov=None, rng=None):
    rng = rng or np.random.default_rng(5)
    ds = random_dataset(rng, n_attrs=2)
    spec = ModelSpec(fixed_attrs=("x0",), random_attrs=("x1",), ln_count=1)
    full_cov = np.eye(3) * 0.01
    if cov is not None:
        full_cov[np.ix_([1, 2], [1, 2])] = cov
    return fake_fit(ds, spec, [0.3, b, s], covariance=full_cov)


def test_lognormal_degenerate_point():
    summary = lognormal_summary(lognormal_fit(0.0, 0.0), "x1")
    assert summary.median == 1.0
    assert summary.mean == 1.0
    assert summary.sd == 0.0


def test_lognormal_unit_scale_values():
    summary = lognormal_summary(lognormal_fit(0.0, 1.0), "x1")
    # frozen from 50-digit evaluations of exp(1/2) and exp(1/2)*sqrt(e-1)
    assert summary.mean == pytest.approx(1.6487212707001282, rel=1e-12)
    assert summary.sd == pytest.approx(2.1611974158950877, rel=1e-12)
    assert summary.median == 1.0


def test_lognormal_sign_reversal():
    plus = lognormal_summary(lognormal_fit(-0.7, 0.4), "x1", sign=1)
    minus = lognormal_summary(lognormal_fit(-0.7, 0.4), "x1", sign=-1)
    assert minus.median == -plus.median
    assert minus.mean == -plus.mean
    assert minus.sd == plus.sd          # spread keeps its sign-free value
    assert minus.median_se == plus.median_se
    assert minus.mean_se == plus.mean_se


def test_lognormal_invariant_to_scale_sign():
    """A fit that lands at -s carries a mirrored covariance (the cross term
    flips with the reparameterization); the summary is then identical."""
    cov = np.array([[0.04, 0.01], [0.01, 0.09]])
    mirror = np.diag([1.0, -1.0])
    a = lognormal_summary(lognormal_fit(-0.5, 0.6, cov), "x1")
    b = lognormal_summary(lognormal_fit(-0.5, -0.6, mirror @ cov @ mirror), "x1")
    assert a.median == b.median
    assert a.mean == b.mean
    assert a.sd == b.sd
    assert a.median_se == pytest.approx(b.median_se, rel=1e-12)
    assert a.mean_se == pytest.approx(b.mean_se, rel=1e-12)
    assert a.sd_se == pytest.approx(b.sd_se, rel=1e-12)


@pytest.mark.parametrize("b,s", [(-0.7, 0.5), (0.2, 1.1), (-1.5, 0.05)])
def test_lognormal_delta_se_matches_numeric_jacobian(b, s):
    cov = np.array([[0.04, 0.012], [0.012, 0.09]])
    summary = lognormal_summary(lognormal_fit(b, s, cov), "x1")

    def transform(v):
        bb, ss = v
        med = math.exp(bb)
        mean = math.exp(bb + ss * ss / 2.0)
        sd = mean * math.sqrt(math.expm1(ss * ss))
        return np.array([med, mean, sd])

    jac = fd_jacobian(transform, np.array([b, s]), rel_step=1e-7)
    oracle = np.sqrt(np.diag(jac @ cov @ jac.T))
    assert summary.median_se == pytest.approx(oracle[0], rel=1e-6)
    assert summary.mean_se == pytest.approx(oracle[1], rel=1e-6)
    assert summary.sd_se == pytest.approx(oracle[2], rel=1e-6)


@pytest.mark.parametrize("s", [5e-163, -5e-163])
def test_lognormal_scale_whose_square_underflows_is_the_zero_scale(s):
    """A scale whose square underflows to 0 gives the summary of scale 0,
    with no floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tiny = lognormal_summary(lognormal_fit(-0.5, s), "x1")
    assert tiny == lognormal_summary(lognormal_fit(-0.5, 0.0), "x1")


@pytest.mark.parametrize("b, s, message", [(0.0, 1e155, "no finite moments"),
                                           (700.0, 1.0, "no finite standard errors")])
def test_lognormal_past_the_float_range_is_a_domain_error(b, s, message):
    """A scale whose square overflows, or moments whose delta-method SEs
    overflow, raise DomainError, with no floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=message):
            lognormal_summary(lognormal_fit(b, s), "x1")


def test_lognormal_rejects_normal_attribute(rng):
    ds = random_dataset(rng, n_attrs=2)
    spec = ModelSpec(fixed_attrs=("x0",), random_attrs=("x1",), ln_count=0)
    fit = fake_fit(ds, spec, [0.3, -0.5, 0.2])
    with pytest.raises(AttrNotLognormal):
        lognormal_summary(fit, "x1")
    with pytest.raises(AttrNotLognormal):
        lognormal_summary(fit, "x0")


# --- beta file ------------------------------------------------------------------------


def small_table(rng):
    ds = random_dataset(rng, n_individuals=3, n_situations=2,
                        n_alternatives=2, n_attrs=2)
    fit = fake_fit(
        ds, ModelSpec(fixed_attrs=("x0",), random_attrs=("x1",)),
        [0.4, -0.5, 0.3], nrep=8, burn=3,
    )
    return individual_betas(ds, fit)


def test_write_beta_file(tmp_path, rng):
    table = small_table(rng)
    path = tmp_path / "betas.csv"
    write_beta_file(table, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "id,x1"


def test_write_beta_file_refuses_overwrite(tmp_path, rng):
    table = small_table(rng)
    path = tmp_path / "betas.csv"
    write_beta_file(table, path)
    with pytest.raises(FileExistsError):
        write_beta_file(table, path)
    write_beta_file(table, path, replace=True)


def test_beta_file_roundtrip_exact(tmp_path, rng):
    table = small_table(rng)
    path = tmp_path / "betas.csv"
    write_beta_file(table, path)
    back = read_beta_file(path)
    assert back.attrs == table.attrs
    np.testing.assert_array_equal(back.ids, table.ids)
    np.testing.assert_array_equal(back.values, table.values)


# --- histogram ---------------------------------------------------------------------


def read_bin_counts(path):
    text = path.read_text()
    return [int(m) for m in re.findall(r'data-count="(\d+)"', text)]


def test_histogram_bin_rule(tmp_path, rng):
    path = tmp_path / "h.svg"
    histogram_svg(rng.normal(size=100), "coefficient", path)
    counts = read_bin_counts(path)
    assert len(counts) == 10
    assert sum(counts) == 100


def test_histogram_degenerate_values(tmp_path):
    path = tmp_path / "h.svg"
    histogram_svg(np.full(30, 2.5), "constant", path)
    counts = read_bin_counts(path)
    assert sum(counts) == 30
    assert sum(1 for c in counts if c > 0) == 1


def test_histogram_bin_clamps(tmp_path, rng):
    lo = tmp_path / "lo.svg"
    histogram_svg(rng.normal(size=4), "few", lo)
    assert len(read_bin_counts(lo)) == 5
    hi = tmp_path / "hi.svg"
    histogram_svg(rng.normal(size=10000), "many", hi)
    assert len(read_bin_counts(hi)) == 50


def test_histogram_counts_conserved(tmp_path, rng):
    path = tmp_path / "h.svg"
    values = rng.normal(size=777)
    histogram_svg(values, "conservation", path)
    assert sum(read_bin_counts(path)) == 777


@pytest.mark.parametrize("values", [
    [5e8, np.nextafter(5e8, 1e9)],              # narrower than 5 distinct edges
    [-1.5e308, 0.0, 1.5e308, 1.7976931348623157e308],  # wider than the float range
    [1.7976931348623157e308] * 3,               # one value at the float range's edge
], ids=["narrow", "wide", "edge"])
def test_histogram_of_extreme_ranges(tmp_path, values):
    """Values whose range is too narrow for 5 distinct bin edges, or whose
    width overflows, are binned with every value counted, finite axis
    labels and no floating-point warning."""
    path = tmp_path / "h.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        histogram_svg(values, "extreme", path)
    assert sum(read_bin_counts(path)) == len(values)
    assert not re.search(r"\b(nan|inf)\b", path.read_text())


def test_histogram_rejects_empty_and_nonfinite(tmp_path):
    with pytest.raises(EmptyInput):
        histogram_svg([], "empty", tmp_path / "e.svg")
    with pytest.raises(ValueError):
        histogram_svg([1.0, float("nan")], "bad", tmp_path / "n.svg")


def test_histogram_is_valid_xml(tmp_path, rng):
    import xml.etree.ElementTree as ET

    path = tmp_path / "h.svg"
    histogram_svg(rng.normal(size=64), "x < y & z", path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
