import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_dataset, per_person, random_dataset, situation_slices
from mixrrm import postestimation, regret
from mixrrm.dataset import ChoiceDataset
from mixrrm.errors import SpecMismatch
from mixrrm.estimation import FitResult, _loglik, _ordered_sum, individual_scores
from mixrrm.regret import ModelDesign, ModelSpec, ParameterVector
from oracles import (_fd_hessian, brute_force_sll, fd_gradient, naive_choice_probs,
                     naive_regret)

LN2 = math.log(2.0)

# every workspace view starts as nan (conftest.py), so a kernel that reads a
# view after its role was taken again fails here
pytestmark = pytest.mark.usefixtures("poisoned_workspace")


def two_alt_dataset():
    return make_dataset(
        {1: {1: [(1, [1.0], True), (2, [2.0], False)]}}, ["a"]
    )


def design_for(ds, nrep=1, **spec_kwargs):
    return ModelDesign(ds, ModelSpec(**spec_kwargs), nrep)


def fixed_point(values, asc=()):
    """A parameter point with fixed coefficients only."""
    return ParameterVector(
        fixed=np.asarray(values, dtype=float), rand_location=np.zeros(0),
        rand_scale=np.zeros(0), asc=np.asarray(asc, dtype=float),
    )


def probs_at(design, theta, pos=0):
    """(S, J) choice probabilities of one individual of a classical design,
    whose one draw's are their average; a small design is one block."""
    return design.walk(design.individual_draw_info, theta, design.draws())[0][pos]


def per_draw_probs(design, theta, draws):
    """Each block's per-draw choice probabilities (n, R, S, J), which the
    draw-info kernel averages: ``_probabilities``' (J, S, n, R), copied out
    of the workspace and transposed."""
    def kernel(block, z, part):
        bd = design._blocks[block]
        probs, _ = design._probabilities(bd, design._regrets(bd, part, False)[0],
                                         sequence=False)
        return probs.copy().transpose(2, 3, 1, 0)

    return design.walk(kernel, theta, draws)


def plain_situations(design, pos):
    """One individual's situations as the oracles take them: (x_all, chosen),
    columns in model-attribute order."""
    ds = design.ds
    return [
        (ds.attributes[rows][:, design.attr_indices].tolist(),
         int(np.argmax(ds.chosen[rows])))
        for rows in situation_slices(ds, pos)
    ]


def situation_constants(design, pos, constant):
    """One individual's constants per situation and row, for the oracles."""
    return [[constant.get(label, 0.0) for label in design.ds.alternative[rows].tolist()]
            for rows in situation_slices(design.ds, pos)]


# --- ParameterVector ---------------------------------------------------------


def test_pack_unpack_roundtrip(rng):
    vec = rng.normal(size=9)
    theta = ParameterVector.unpack(vec, n_fixed=2, n_random=2, n_asc=3)
    assert np.array_equal(theta.fixed, vec[:2])
    assert np.array_equal(theta.rand_location, vec[2:4])
    assert np.array_equal(theta.rand_scale, vec[4:6])
    assert np.array_equal(theta.asc, vec[6:])
    assert np.array_equal(theta.pack(), vec)


def test_unpack_wrong_length():
    with pytest.raises(ValueError):
        ParameterVector.unpack(np.zeros(3), 2, 1, 1)


# --- ModelSpec validation ------------------------------------------------------


@pytest.mark.parametrize("fixed, rand", [(("c", "a"), ("d", "b")), ((), ("b", "a")),
                                         (("b",), ())])
def test_spec_attrs_put_fixed_before_random_as_theta_does(fixed, rand):
    """``attrs`` is the fixed attributes, then the random ones, each as
    declared: the coefficient names that open ``param_names``."""
    spec = ModelSpec(fixed_attrs=fixed, random_attrs=rand, use_asc=True)
    assert spec.attrs == (*fixed, *rand)
    assert spec.param_names((1, 2, 3))[:len(spec.attrs)] == spec.attrs


def test_spec_rejects_overlap():
    ds = two_alt_dataset()
    with pytest.raises(SpecMismatch):
        ModelSpec(fixed_attrs=("a",), random_attrs=("a",)).validate(ds)


def test_spec_rejects_unknown_attribute():
    ds = two_alt_dataset()
    with pytest.raises(SpecMismatch):
        ModelSpec(fixed_attrs=("missing",)).validate(ds)


def test_spec_rejects_bad_ln_count():
    ds = two_alt_dataset()
    with pytest.raises(SpecMismatch):
        ModelSpec(random_attrs=("a",), ln_count=2).validate(ds)


def test_spec_rejects_unknown_base_alternative():
    ds = two_alt_dataset()
    with pytest.raises(SpecMismatch):
        ModelSpec(fixed_attrs=("a",), use_asc=True,
                  base_alternative=9).validate(ds)


# --- coefficient realization ----------------------------------------------------


def realize_one(design, theta, z):
    """Random coefficients (declared order) realized from one draw vector."""
    return design.random_coefficient_draws(
        theta, np.asarray(z, dtype=float).reshape(-1, 1))[0]


def test_realize_normal_zero_draw():
    ds = two_alt_dataset()
    design = design_for(ds, random_attrs=("a",))
    theta = ParameterVector(
        fixed=np.zeros(0), rand_location=np.array([-0.5]),
        rand_scale=np.array([0.2]), asc=np.zeros(0),
    )
    assert realize_one(design, theta, [0.0]).tolist() == [-0.5]


def test_realize_lognormal_degenerate():
    ds = two_alt_dataset()
    design = design_for(ds, random_attrs=("a",), ln_count=1)
    theta = ParameterVector(
        fixed=np.zeros(0), rand_location=np.array([0.0]),
        rand_scale=np.array([0.0]), asc=np.zeros(0),
    )
    for z in (-3.0, 0.0, 4.2):
        assert realize_one(design, theta, [z]).tolist() == [1.0]


def test_realize_lognormal_value():
    ds = two_alt_dataset()
    design = design_for(ds, random_attrs=("a",), ln_count=1)
    theta = ParameterVector(
        fixed=np.zeros(0), rand_location=np.array([-2.0]),
        rand_scale=np.array([0.5]), asc=np.zeros(0),
    )
    beta = realize_one(design, theta, [1.0])
    # exp(-1.5), frozen from a 50-digit evaluation
    assert beta[0] == pytest.approx(0.22313016014842982, rel=1e-12)


def test_realize_mixes_fixed_and_random_in_packing_order(rng):
    """With x1 fixed and x2, x0 random, columns that interleave fixed and
    random coefficients, the design's attributes take the declared [fixed |
    random] order, θ's packing order; the walk's log-likelihood agrees with
    the oracle, which takes them as declared."""
    ds = random_dataset(rng, n_attrs=3)
    design = design_for(ds, fixed_attrs=("x1",), random_attrs=("x2", "x0"))
    assert design.spec.attrs == ("x1", "x2", "x0")
    declared = [ds.attribute_index(a) for a in ("x1", "x2", "x0")]
    assert design.attr_indices.tolist() == declared
    x = np.array([0.5, 1.0, -0.7, 0.3, 0.6])
    draws = rng.normal(size=(ds.n_individuals, 2, 4))
    individuals = [[(ds.attributes[rows][:, declared].tolist(),
                     int(np.argmax(ds.chosen[rows])))
                    for rows in situation_slices(ds, pos)]
                   for pos in range(ds.n_individuals)]
    oracle_theta = {"fixed": [0.5], "location": [1.0, -0.7], "scale": [0.3, 0.6],
                    "lognormal": [False, False]}
    assert _loglik(design, draws, x) == pytest.approx(
        brute_force_sll(individuals, oracle_theta, draws.tolist()), rel=1e-12)


# --- regret -----------------------------------------------------------------------
# Absolute regrets are pinned on the reference formula in the oracles; the
# kernel only exposes regret differences, as log-odds of its probabilities.


def test_regret_two_alternative_example():
    # ln(1 + e^-1) and 1 + ln(1 + e^-1), frozen from a 50-digit evaluation
    r_own, r_rival = 0.31326168751822284, 1.31326168751822284
    assert naive_regret([[1.0], [2.0]], 0, [-1.0]) == pytest.approx(r_own, rel=1e-14)
    assert naive_regret([[1.0], [2.0]], 1, [-1.0]) == pytest.approx(
        r_rival, rel=1e-14
    )
    ds = two_alt_dataset()
    probs = probs_at(design_for(ds, fixed_attrs=("a",)), fixed_point([-1.0]))
    assert math.log(probs[0, 0] / probs[0, 1]) == pytest.approx(
        r_rival - r_own, rel=1e-14
    )


def test_regret_identical_alternatives_gives_ln2_per_pair(rng):
    x = [1.7, -0.3]
    ds = make_dataset({1: {1: [(1, x, True), (2, x, False), (3, x, False)]}},
                      ["p", "q"])
    values = rng.normal(size=2)
    for i in range(3):
        assert naive_regret([x, x, x], i, values) == pytest.approx(
            2 * 2 * LN2, rel=1e-14
        )
    probs = probs_at(design_for(ds, fixed_attrs=("p", "q")), fixed_point(values))
    np.testing.assert_allclose(probs[0], np.full(3, 1 / 3), rtol=0, atol=1e-15)


def test_regret_zero_beta_gives_ln2_per_pair(rng):
    ds = random_dataset(rng, n_individuals=1, n_situations=1,
                        n_alternatives=3, n_attrs=2)
    design = design_for(ds, fixed_attrs=("x0", "x1"))
    (x_all, _), = plain_situations(design, 0)
    for i in range(3):
        assert naive_regret(x_all, i, [0.0, 0.0]) == pytest.approx(
            2 * 2 * LN2, rel=1e-14
        )
    probs = probs_at(design, fixed_point([0.0, 0.0]))
    np.testing.assert_allclose(probs[0], np.full(3, 1 / 3), rtol=0, atol=1e-15)


def test_regret_monotone_in_rival_attribute():
    base = [(1, [1.0, 1.0], True), (2, [2.0, 1.0], False)]
    grown = [(1, [1.0, 1.0], True), (2, [2.9, 1.0], False)]
    ds = make_dataset({1: {1: base, 2: grown}}, ["p", "q"])
    probs = probs_at(design_for(ds, fixed_attrs=("p", "q")), fixed_point([0.8, 0.3]))
    # a better rival raises the own alternative's regret, lowering its share
    assert probs[1, 0] < probs[0, 0]


def test_regret_includes_asc_with_plus_sign():
    assert naive_regret([[1.0], [2.0]], 0, [0.0], asc=[0.7, 0.0]) == pytest.approx(
        naive_regret([[1.0], [2.0]], 0, [0.0]) + 0.7, rel=1e-14
    )
    ds = two_alt_dataset()
    design = design_for(ds, fixed_attrs=("a",), use_asc=True, base_alternative=2)
    probs = probs_at(design, fixed_point([0.0], asc=[0.7]))
    # alternative 1's constant adds to its regret: log-odds of 2 over 1
    assert math.log(probs[0, 1] / probs[0, 0]) == pytest.approx(0.7, rel=1e-14)


# --- choice probabilities -----------------------------------------------------------


def test_probabilities_identical_alternatives():
    x = [2.0, 3.0]
    ds = make_dataset({1: {1: [(1, x, True), (2, x, False)]}}, ["p", "q"])
    probs = probs_at(design_for(ds, fixed_attrs=("p", "q")), fixed_point([0.4, -1.2]))
    np.testing.assert_allclose(probs[0], [0.5, 0.5], rtol=0, atol=1e-15)


def test_probabilities_two_alternative_example():
    ds = two_alt_dataset()
    probs = probs_at(design_for(ds, fixed_attrs=("a",)), fixed_point([-1.0]))
    # softplus identity makes R_2 - R_1 = 1 exactly; logistic(1) frozen
    assert probs[0, 0] == pytest.approx(0.7310585786300049, rel=1e-14)


def test_probabilities_zero_beta_uniform(rng):
    ds = random_dataset(rng, n_individuals=1, n_situations=1,
                        n_alternatives=3, n_attrs=2)
    probs = probs_at(design_for(ds, fixed_attrs=("x0", "x1")), fixed_point([0.0, 0.0]))
    np.testing.assert_allclose(probs[0], np.full(3, 1 / 3), rtol=0, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_probabilities_sum_to_one_and_positive(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_alt = data.draw(st.integers(2, 5))
    ds = random_dataset(rng, n_individuals=1, n_situations=1,
                        n_alternatives=n_alt, n_attrs=2, scale=1.0)
    probs = probs_at(design_for(ds, fixed_attrs=("x0", "x1")),
                     fixed_point(rng.normal(size=2)))[0]
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert np.all(probs > 0.0)
    assert np.all(probs < 1.0)


def test_probabilities_stay_normalized_under_extreme_regrets():
    ds = make_dataset(
        {1: {1: [(1, [0.0], True), (2, [500.0], False), (3, [900.0], False)]}},
        ["a"],
    )
    probs = probs_at(design_for(ds, fixed_attrs=("a",)), fixed_point([2.0]))[0]
    assert np.all(np.isfinite(probs))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # positive beta: regret falls as own attribute dominates the rivals'
    assert probs.argmax() == 2


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_binary_logit_equivalence(seed):
    """For J=2 the regret probability IS a binary logit on differences."""
    rng = np.random.default_rng(seed)
    x1, x2 = rng.normal(size=(2, 3)) * 2
    beta_vals = rng.normal(size=3)
    alpha = rng.normal(size=1)
    ds = make_dataset(
        {1: {1: [(1, x1.tolist(), True), (2, x2.tolist(), False)]}},
        ["p", "q", "r"],
    )
    design = design_for(ds, fixed_attrs=("p", "q", "r"), use_asc=True,
                        base_alternative=1)
    probs = probs_at(design, fixed_point(beta_vals, asc=alpha))[0]
    # alpha enters regret with +, so alternative 2's constant helps 1:
    # P_1 = logistic(beta . (x1 - x2) + alpha_2 - alpha_1)
    index = beta_vals @ (x1 - x2) + alpha[0] - 0.0
    expected = 1.0 / (1.0 + math.exp(-index))
    assert probs[0] == pytest.approx(expected, abs=1e-12)
    assert probs[1] == pytest.approx(1.0 - expected, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
def test_translation_invariance(seed, shift):
    """Adding a constant to one attribute in all alternatives changes nothing."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 2))
    ds1 = make_dataset(
        {1: {1: [(j + 1, x[j].tolist(), j == 0) for j in range(3)]}}, ["p", "q"]
    )
    x2 = x.copy()
    x2[:, 1] += shift
    ds2 = make_dataset(
        {1: {1: [(j + 1, x2[j].tolist(), j == 0) for j in range(3)]}}, ["p", "q"]
    )
    theta = fixed_point(rng.normal(size=2))
    p1 = probs_at(design_for(ds1, fixed_attrs=("p", "q")), theta)
    p2 = probs_at(design_for(ds2, fixed_attrs=("p", "q")), theta)
    np.testing.assert_allclose(p1, p2, rtol=0, atol=1e-10)


# --- sequence probability ------------------------------------------------------------


def test_sequence_single_situation_equals_choice_probability():
    ds = two_alt_dataset()
    design = design_for(ds, fixed_attrs=("a",))
    theta, z = fixed_point([-1.0]), design.draws()
    ln_seq = design.walk(design.individual_draw_info, theta, z, False)[0]
    probs = design.walk(design.individual_draw_info, theta, z)[0]
    assert math.exp(ln_seq[0, 0]) == pytest.approx(probs[0, 0, 0], rel=1e-14)


def test_sequence_product_rule():
    x = [1.0]
    sits = {s: [(1, x, True), (2, x, False)] for s in (1, 2)}
    ds = make_dataset({1: sits}, ["a"])
    design = design_for(ds, fixed_attrs=("a",))
    ln_seq = design.walk(
        design.individual_draw_info, fixed_point([3.0]), design.draws(), False)[0]
    assert math.exp(ln_seq[0, 0]) == pytest.approx(0.25, rel=1e-14)


def test_sequence_ten_thirds_no_underflow():
    x = [0.0, 0.0]
    sits = {
        s: [(1, x, True), (2, x, False), (3, x, False)] for s in range(1, 11)
    }
    ds = make_dataset({1: sits}, ["p", "q"])
    design = design_for(ds, fixed_attrs=("p", "q"))
    theta, z = fixed_point([0.0, 0.0]), design.draws()
    ln_seq = design.walk(design.individual_draw_info, theta, z, False)[0]
    assert math.exp(ln_seq[0, 0]) == pytest.approx(3.0 ** -10, rel=1e-12)
    assert design.walk(design.individual_loglik, theta, z)[0][0] == pytest.approx(
        -10 * math.log(3.0), rel=1e-14
    )


def test_draw_info_without_probabilities_keeps_the_sequence_log_probs(rng):
    """In every block of a mixed design, the draw-info kernel without
    ``probs`` returns the sequence log-probs that ``_probabilities`` makes
    with both of its outputs, as the value+gradient kernel calls it, and
    with ``probs`` the ``mean(axis=1)`` of its per-draw probabilities
    (n, R, S, J), bit for bit."""
    ds = random_dataset(rng, n_individuals=7, n_situations=3, n_attrs=2)
    with mock.patch.object(regret, "_BLOCK_FLOATS", 400):
        design = design_for(ds, 4, fixed_attrs=("x0",), random_attrs=("x1",),
                            use_asc=True)
    assert len(design.blocks) > 1
    theta = design.unpack(rng.normal(size=design.n_params))
    z = design.draws(3)

    def both(block, z, part):
        bd = design._blocks[block]
        probs, sequence = design._probabilities(bd, design._regrets(bd, part, False)[0])
        return probs.copy().transpose(2, 3, 1, 0), sequence.copy()

    means = design.walk(design.individual_draw_info, theta, z)
    sequences = design.walk(design.individual_draw_info, theta, z, False)
    for (probs, sequence), mean, ln_seq in zip(design.walk(both, theta, z), means,
                                               sequences, strict=True):
        assert np.array_equal(ln_seq, sequence)
        assert np.array_equal(mean, probs.mean(axis=1))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([(True, 1), (False, 1), (False, 2), (False, 20),
                                   (False, 100)]), st.integers(2, 5))
def test_draw_average_is_the_mean_of_the_per_draw_probabilities(data, design_kind, widest):
    """The draw-info kernel's average, summed in the workspace along the
    contiguous draw axis, is bit for bit the ``mean(axis=1)`` of the
    per-draw probabilities that ``_probabilities`` makes, copied and
    transposed to (n, R, S, J): on padded panels whose short situations
    leave empty slots, binary choice among them, for classical designs
    and mixed ones at R = 1, 2, 20 and 100, in blocks as large as a drawn
    bound on padded floats allows."""
    classical, nrep = design_kind
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    with mock.patch.object(regret, "_BLOCK_FLOATS", data.draw(st.integers(0, 3000))):
        design = padded_design(data, rng, n_individuals=4, classical=classical,
                               nrep=nrep, widest=widest)
    assert design.nrep == nrep
    draws = padded_draws(design, rng)
    theta = design.unpack(rng.normal(size=design.n_params)
                          * data.draw(st.sampled_from([0.5, 3.0])))
    for mean, probs in zip(design.walk(design.individual_draw_info, theta, draws),
                           per_draw_probs(design, theta, draws), strict=True):
        assert mean.flags.owndata
        assert np.array_equal(mean, probs.mean(axis=1))


# --- regret gradient, through the log-likelihood gradient --------------------------


def test_regret_gradient_zero_differences():
    x = [1.0, 2.0]
    ds = make_dataset({1: {1: [(1, x, True), (2, x, False)]}}, ["p", "q"])
    design = design_for(ds, fixed_attrs=("p", "q"))
    _, grad = design.walk(design.individual_loglik_gradient,
                          fixed_point([1.3, -0.4]), design.draws())[0]
    np.testing.assert_array_equal(grad, [[0.0, 0.0]])


def test_regret_gradient_two_alternative_example():
    ds = two_alt_dataset()
    design = design_for(ds, fixed_attrs=("a",))
    _, grad = design.walk(design.individual_loglik_gradient,
                          fixed_point([-1.0]), design.draws())[0]
    # d ln P_1 / d beta = P_2 (dR_2/d beta - dR_1/d beta)
    #                   = logistic(-1) * (-logistic(1) - logistic(-1))
    #                   = -logistic(-1), frozen from a 50-digit evaluation
    assert grad[0, 0] == pytest.approx(-0.26894142136999512, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_regret_gradient_matches_finite_differences(seed):
    """The analytic gradient against central differences of the
    first-principles log-likelihood."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n_individuals=1, n_situations=1,
                        n_alternatives=3, n_attrs=2)
    design = design_for(ds, fixed_attrs=("x0", "x1"))
    values = rng.normal(size=2)
    _, (grad,) = design.walk(design.individual_loglik_gradient,
                             fixed_point(values), design.draws())[0]
    plain = [plain_situations(design, 0)]

    def oracle_ll(v):
        theta = {"fixed": list(v), "location": [], "scale": [], "lognormal": []}
        return brute_force_sll(plain, theta, [[]])

    oracle = fd_gradient(oracle_ll, values)
    np.testing.assert_allclose(grad, oracle, rtol=1e-7, atol=1e-9)


# --- individual_loglik_gradient ------------------------------------------------------


def mixed_design(rng, use_asc=False, ln_count=1):
    ds = random_dataset(rng, n_individuals=2, n_situations=3,
                        n_alternatives=3, n_attrs=3)
    spec = ModelSpec(
        fixed_attrs=("x0",), random_attrs=("x1", "x2"), ln_count=ln_count,
        use_asc=use_asc, base_alternative=1 if use_asc else None,
    )
    return ds, ModelDesign(ds, spec)


def test_loglik_gradient_zero_scale_matches_classical(rng):
    ds = random_dataset(rng, n_individuals=1, n_situations=2,
                        n_alternatives=3, n_attrs=2)
    mixed = design_for(ds, fixed_attrs=("x0",), random_attrs=("x1",))
    classical = design_for(ds, fixed_attrs=("x0", "x1"))
    z = rng.normal(size=(1, 6))
    theta_m = ParameterVector(
        fixed=np.array([0.4]), rand_location=np.array([-0.8]),
        rand_scale=np.array([0.0]), asc=np.zeros(0),
    )
    theta_c = fixed_point([0.4, -0.8])
    (ll_m,), (g_m,) = mixed.walk(mixed.individual_loglik_gradient, theta_m,
                                 z[None])[0]
    (ll_c,), (g_c,) = classical.walk(classical.individual_loglik_gradient,
                                     theta_c, classical.draws())[0]
    assert ll_m == pytest.approx(ll_c, abs=1e-12)
    assert g_m[0] == pytest.approx(g_c[0], abs=1e-12)  # fixed coefficient
    assert g_m[1] == pytest.approx(g_c[1], abs=1e-12)  # location == classical


def test_loglik_gradient_single_draw_reduces_to_classical(rng):
    ds = random_dataset(rng, n_individuals=1, n_situations=2,
                        n_alternatives=3, n_attrs=2)
    mixed = design_for(ds, fixed_attrs=("x0",), random_attrs=("x1",))
    classical = design_for(ds, fixed_attrs=("x0", "x1"))
    z = np.array([[0.83]])
    b, s = -0.6, 0.5
    theta_m = ParameterVector(
        fixed=np.array([0.2]), rand_location=np.array([b]),
        rand_scale=np.array([s]), asc=np.zeros(0),
    )
    theta_c = fixed_point([0.2, b + s * z[0, 0]])
    (ll_m,), (g_m,) = mixed.walk(mixed.individual_loglik_gradient, theta_m,
                                 z[None])[0]
    (ll_c,), (g_c,) = classical.walk(classical.individual_loglik_gradient,
                                     theta_c, classical.draws())[0]
    assert ll_m == pytest.approx(ll_c, abs=1e-12)
    assert g_m[0] == pytest.approx(g_c[0], abs=1e-12)
    assert g_m[1] == pytest.approx(g_c[1], abs=1e-12)
    assert g_m[2] == pytest.approx(g_c[1] * z[0, 0], abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_loglik_gradient_matches_finite_differences(seed, use_asc):
    rng = np.random.default_rng(seed)
    ds, design = mixed_design(np.random.default_rng(seed), use_asc=use_asc)
    x = rng.normal(size=design.n_params) * 0.5
    z = rng.normal(size=(2, 4))

    draws = np.array([z, z])
    _, (grad,) = per_person(design, design.walk(design.individual_loglik_gradient,
                                                design.unpack(x), draws))[1]
    oracle = fd_gradient(
        lambda v: per_person(design, design.walk(design.individual_loglik,
                                                 design.unpack(v), draws))[1][0], x)
    np.testing.assert_allclose(grad, oracle, rtol=1e-6, atol=1e-8)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kernel_matches_scalar_composition(seed):
    """The vectorized kernel agrees with the first-principles enumeration."""
    rng = np.random.default_rng(seed)
    ds, design = mixed_design(np.random.default_rng(seed), use_asc=True)
    x = rng.normal(size=design.n_params) * 0.5
    theta = design.unpack(x)
    z = rng.normal(size=(2, 3))
    oracle_theta = {
        "fixed": theta.fixed.tolist(), "location": theta.rand_location.tolist(),
        "scale": theta.rand_scale.tolist(), "lognormal": [False, True],
    }
    constant = dict(zip(design.asc_labels, theta.asc.tolist()))

    walked = per_person(design, design.walk(design.individual_loglik_gradient, theta,
                                            np.array([z, z])))
    for pos in range(ds.n_individuals):
        (ll,), _ = walked[pos]
        asc = situation_constants(design, pos, constant)
        ref = brute_force_sll([plain_situations(design, pos)], oracle_theta,
                              [z.tolist()], asc=[asc])
        assert ll == pytest.approx(ref, abs=1e-12)


# --- pair indexing: padding, alternative order, extreme activations -----------


def padded_design(data, rng, n_individuals=2, attr_scale=1.0, classical=False,
                  nrep=3, shapes=None, n_random=2, widest=5):
    """Individuals whose situations hold 2 to ``widest`` (at most 5) of the
    labels 1..5 in a drawn file order, so smaller situations pad their slots
    and labels go missing, and ``widest`` = 2 is binary choice, one pair;
    x0 is fixed and x1 .. xK random, K = ``n_random`` (1 to 3), the last of
    them log-normal and the others normal, and the constants' base is a
    label other than the lowest; the design is sized for ``nrep`` draws.  A
    ``classical`` design fixes x0, x1 and x2.  Each block is padded to its
    people's most situations and slots.  With ``shapes``, the people take
    turns among that many drawn lists of situation sizes, so one-person
    blocks of equal shape form groups of several."""
    draw_sizes = lambda: data.draw(st.lists(st.integers(2, widest), min_size=2,
                                            max_size=4))
    pool = [draw_sizes() for _ in range(shapes or 0)]
    names = [f"x{m}" for m in range(max(3, 1 + n_random))]
    individuals = {}
    for n in range(1, n_individuals + 1):
        sizes = pool[n % shapes] if shapes else draw_sizes()
        sits = {}
        for s, size in enumerate(sizes, start=1):
            labels = rng.permutation(5)[:size] + 1
            chosen = int(rng.integers(size))
            sits[s] = [(int(label), (attr_scale * rng.normal(size=len(names))).tolist(),
                        j == chosen) for j, label in enumerate(labels)]
        individuals[n] = sits
    ds = make_dataset(individuals, names)
    base = data.draw(st.sampled_from(ds.alternative_labels[1:]))
    if classical:
        return design_for(ds, fixed_attrs=("x0", "x1", "x2"), use_asc=True,
                          base_alternative=base)
    return design_for(ds, nrep, fixed_attrs=("x0",),
                      random_attrs=tuple(names[1:1 + n_random]), ln_count=1,
                      use_asc=True, base_alternative=base)


def padded_draws(design, rng):
    """(N, K, R) draws: the design's R normal draws per person, empty for a
    classical design (K = 0, R = 1)."""
    return rng.normal(size=(design.ds.n_individuals, design.n_random, design.nrep))


def one_per_block(design):
    """The same design with one individual per block."""
    with mock.patch.object(regret, "_BLOCK_FLOATS", 0):
        return ModelDesign(design.ds, design.spec, design.nrep)


def oracle_loglik(design, pos, x, z):
    """brute_force_sll of one individual at the packed point ``x``."""
    theta = design.unpack(x)
    constant = dict(zip(design.asc_labels, theta.asc.tolist()))
    asc = situation_constants(design, pos, constant)
    oracle_theta = {
        "fixed": theta.fixed.tolist(), "location": theta.rand_location.tolist(),
        "scale": theta.rand_scale.tolist(),
        "lognormal": [design.spec.is_lognormal(k) for k in range(design.n_random)],
    }
    return brute_force_sll([plain_situations(design, pos)], oracle_theta,
                           [z.tolist()], asc=[asc])


def block_floats(design, start, stop):
    """Padded and own floats of individuals start..stop-1 times the design's
    R draws per person, counted from the dataset: n * S * P*M * R over
    their most situations S and widest situation J, P = J(J-1)/2, and the
    sum of each one's own S_i * P_i*M * R."""
    ds = design.ds
    sits = np.append(ds.individual_starts, ds.n_situations)
    widths = np.maximum.reduceat(np.diff(np.append(ds.situation_starts, ds.n_rows)),
                                 ds.individual_starts)
    floats = lambda s, j: s * (j * (j - 1) // 2) * len(design.spec.attrs) * design.nrep
    n_sit, widths = np.diff(sits)[start:stop], widths[start:stop]
    return ((stop - start) * floats(n_sit.max(), widths.max()),
            sum(floats(s, j) for s, j in zip(n_sit, widths)))


def assert_blocks_fill_budget(design):
    """Blocks cover the individuals in order and each is padded to its most
    situations and widest situation.  A block of more than one individual
    holds at most ``_BLOCK_FLOATS`` padded floats and at most twice its own,
    and every block but the last breaks one of these if it took the next."""
    n_ind = design.ds.n_individuals
    assert [a for a, _ in design.blocks[1:]] == [b for _, b in design.blocks[:-1]]
    assert design.blocks[0][0] == 0 and design.blocks[-1][1] == n_ind
    sits = np.append(design.ds.individual_starts, design.ds.n_situations)
    rows = np.append(design.ds.situation_starts, design.ds.n_rows)
    fits = lambda floats: floats[0] <= min(regret._BLOCK_FLOATS, 2 * floats[1])
    for block, (a, b) in enumerate(design.blocks):
        assert design.available(block).shape == (
            b - a, np.diff(sits)[a:b].max(), np.diff(rows)[sits[a]:sits[b]].max())
        assert b - a == 1 or fits(block_floats(design, a, b))
        if b < n_ind:
            assert not fits(block_floats(design, a, b + 1))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.booleans())
def test_padded_situations_match_oracle(data, classical):
    """Every individual's log-likelihood and gradient row agree with the
    oracle.  A block holds people of different S and J, as many as a drawn
    bound on padded floats times a drawn R draws per person allows (R = 1
    for a classical design); its rows agree with one-individual blocks to
    1e-12.  A mixed design has a drawn 1 to 3 random attributes.  The
    panel is a binary-choice one, a single pair, or has up to 5 slots."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    nrep = 1 if classical else data.draw(st.integers(1, 5))
    n_random = 2 if classical else data.draw(st.integers(1, 3))
    with mock.patch.object(regret, "_BLOCK_FLOATS",
                           data.draw(st.integers(0, 1000 * nrep))):
        design = padded_design(data, rng, n_individuals=3, classical=classical,
                               nrep=nrep, n_random=n_random,
                               widest=data.draw(st.sampled_from([2, 5])))
        assert_blocks_fill_budget(design)
    x = rng.normal(size=design.n_params) * 0.5
    draws = padded_draws(design, rng)
    lls, rows = individual_scores(design, draws, x)
    ll_only = design.walk(design.individual_loglik, design.unpack(x), draws)
    np.testing.assert_allclose(np.concatenate(ll_only), lls, rtol=1e-12, atol=0)
    for pos in range(design.ds.n_individuals):
        z = draws[pos]
        assert lls[pos] == pytest.approx(oracle_loglik(design, pos, x, z), rel=1e-12)
        oracle = fd_gradient(lambda v: oracle_loglik(design, pos, v, z), x)
        np.testing.assert_allclose(rows[pos], oracle, rtol=1e-7, atol=1e-9)
    single_lls, single_rows = individual_scores(one_per_block(design), draws, x)
    np.testing.assert_allclose(lls, single_lls, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rows, single_rows, rtol=1e-12,
                               atol=1e-12 * np.abs(single_rows).max())


def test_oracle_is_total_at_an_overflowing_activation():
    """A log-normal coefficient of about 391 times an attribute gap of 2.7
    is an activation near 1056, past where ``math.exp`` overflows, and makes
    the chosen alternative's probability underflow to 0.0.  The oracle
    still gives the log-likelihood, in log space, and the kernel's term and
    gradient row agree with it as in ``test_padded_situations_match_oracle``."""
    situations = {1: [(1, [0.4, 1.0, 0.0], True), (2, [1.1, 0.2, 2.7], False),
                      (3, [0.0, 0.5, 1.3], False)],
                  2: [(1, [0.9, 0.3, 1.2], False), (2, [0.1, 1.4, 0.8], True)]}
    design = design_for(make_dataset({1: situations}, ["x0", "x1", "x2"]), 2,
                        fixed_attrs=("x0",), random_attrs=("x1", "x2"), ln_count=1,
                        use_asc=True)
    x = np.array([0.3, 0.2, math.log(391.0), 0.4, 0.05, -0.1, 0.2])
    z = np.array([[0.7, -1.2], [0.3, -0.4]])
    (x_all, chosen), _ = plain_situations(design, 0)
    beta = [0.3, 0.2 + 0.4 * 0.7, math.exp(math.log(391.0) + 0.05 * 0.3)]
    assert beta[2] * 2.7 > 1000.0
    assert naive_choice_probs(x_all, beta)[chosen] == 0.0
    assert math.isfinite(naive_regret(x_all, chosen, beta))
    lls, rows = individual_scores(design, z[None], x)
    want = oracle_loglik(design, 0, x, z)
    assert want < -1000.0
    assert lls[0] == pytest.approx(want, rel=1e-12)
    oracle = fd_gradient(lambda v: oracle_loglik(design, 0, v, z), x)
    np.testing.assert_allclose(rows[0], oracle, rtol=1e-7, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_mixed_blocks_match_one_individual_blocks(data):
    """On an unbalanced mixed panel, blocks of several people, as many as a
    drawn bound on padded floats times a drawn R allows, give what
    one-individual blocks give: every log-likelihood term and gradient row,
    the predicted probabilities and the posterior weights bit for bit, and
    the Hessian, now summed over blocks of people, to 1e-12.  People draw
    their situation sizes one by one, or take turns between two drawn
    shapes, so that more than R one-individual blocks share a shape and
    the design builds them in several groups.  R is at least 2:
    with one draw, numpy adds a lone person's pair terms pairwise but a
    block's in order, so those rows agree to rounding only, as classical
    ones do (``test_padded_situations_match_oracle``).  The design has a
    drawn 1 to 3 random attributes, so the per-person products of the
    slot-level terms run with 2, 4 and 6 columns of coefficients.  Each
    one-individual block is a run of one person, whose activations are a
    broadcast multiply, while blocks of several take block-diagonal matrix
    products, so the two forms agree bit for bit.  The panel is a
    binary-choice one, whose one pair both slots take by a broadcast, or
    has up to 5 slots."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    nrep = data.draw(st.integers(2, 6))
    budget = data.draw(st.integers(0, 2000 * nrep))
    shapes = data.draw(st.sampled_from([None, 2]))
    n_random = data.draw(st.integers(1, 3))
    with mock.patch.object(regret, "_BLOCK_FLOATS", budget):
        design = padded_design(data, rng, n_individuals=14, nrep=nrep,
                               shapes=shapes, n_random=n_random,
                               widest=data.draw(st.sampled_from([2, 5])))
        assert_blocks_fill_budget(design)
    single = one_per_block(design)
    assert nrep >= 2 and all(b - a == 1 for a, b in single.blocks)
    if shapes:
        group_shapes = [group.rows.shape[1:] for _, group in single._groups]
        assert len(set(group_shapes)) < len(group_shapes)
    draws = design.draws(2)
    x = rng.normal(size=design.n_params) * data.draw(st.sampled_from([0.5, 2.0]))
    lls, rows, hessian = individual_scores(design, draws, x, hessian=True)
    single_lls, single_rows, single_hessian = individual_scores(single, draws, x,
                                                                hessian=True)
    assert np.array_equal(lls, single_lls) and np.array_equal(rows, single_rows)
    np.testing.assert_allclose(hessian, single_hessian, rtol=1e-12,
                               atol=1e-12 * np.abs(single_hessian).max())

    ds = design.ds
    fit = FitResult(design.spec, ds.alternative_labels, x, 0.0, ds.n_individuals,
                    ds.n_situations, np.eye(design.n_params), "hessian", 95.0,
                    True, 0, 0.0, nrep, 2)
    outputs = []
    for bound in (budget, 0):
        with mock.patch.object(regret, "_BLOCK_FLOATS", bound):
            outputs.append((postestimation.predict_probabilities(ds, fit),
                            postestimation.posterior_weights(ds, fit)))
    (probs, weights), (single_probs, single_weights) = outputs
    assert np.array_equal(probs, single_probs)
    assert np.array_equal(weights, single_weights)


@pytest.mark.parametrize("j", [2, 3, 5])
@pytest.mark.parametrize("batch", [0, 1])
def test_spread_equals_the_incidence_product(j, batch):
    """Each slot's sum of its pairs' terms has the bits of the transposed
    incidence matrix product, signed zeros counted: in binary choice (J = 2,
    one pair) the broadcast turns a -0 term into +0, as the product does."""
    first, second = np.triu_indices(j, 1)
    incidence = np.eye(j)[first] + np.eye(j)[second]
    lead = (2,) * batch
    terms = np.random.default_rng(j).normal(size=(*lead, len(first), 4, 5, 3))
    terms.reshape(-1)[::3] = -0.0
    got = regret._spread(incidence, terms, np.empty((*lead, j, 4, 5, 3)), batch=batch)
    want = regret._lead(incidence.T, terms, batch=batch)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if j == 2:
        assert not np.signbit(got[got == 0.0]).any()


@pytest.mark.parametrize("r", [1, 2, 20, 100])
@pytest.mark.parametrize("n", [1, 3, 8])
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_contractions_equal_the_product_and_sum(n, r, data):
    """Each sum over the padded pair or slot and situation axes, or over the
    fixed attributes, is one einsum with no product array, and gives the
    bits of the C-ordered product and its ``ndarray.sum``: pair slopes and
    curvatures, drawn or not, times ``res``; slot sums, the strided
    ``lin_random`` view of ``by_person`` and a contiguous one, times
    ``resid``; and the walk's sums over the fixed attributes of a group.
    Padded situations hold signed zeros.  With one (person, draw) column,
    or, in the walk's sums, one (pair or slot, situation, person) column
    per block, ``_contract`` keeps the product and the sum; everywhere else
    the einsum itself must match, a tripwire for a change in numpy's loop
    order."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    j, s = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 6))
    m, g = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    p = j * (j - 1) // 2
    padded = rng.random(s) < 0.3

    def values(*shape, situation):
        """Normal values, signed zeros in the padded situations."""
        a = rng.normal(size=shape)
        cut = (slice(None),) * situation + (padded,)
        a[cut] = np.where(rng.random(a[cut].shape) < 0.5, 0.0, -0.0)
        return a

    by_person = values(n, j, s, 2 * m, situation=2)
    lin_random = by_person[..., :m].transpose(3, 1, 2, 0)[..., None]
    coef = rng.normal(size=(m, 1, 1, 1, 1))
    res, resid = values(p, s, n, r, situation=1), values(j, s, n, r, situation=1)
    cases = [  # subscripts, x, y and the summed axes of x * y
        ("mpsnr,psnr->mnr", values(m, p, s, n, r, situation=2), res, (1, 2)),
        ("mpsnr,psnr->mnr", values(m, p, s, n, 1, situation=2), res, (1, 2)),
        ("mjsnr,jsnr->mnr", lin_random, resid, (1, 2)),
        ("mjsnr,jsnr->mnr", values(m, j, s, n, 1, situation=2), resid, (1, 2)),
    ]
    if r == 1:  # the walk's draw-free sums over a group's fixed attributes
        cases += [("mpsnr,gmpsnr->gpsnr", coef, values(g, m, p, s, n, 1, situation=3), 1),
                  ("mjsnr,gmjsnr->gjsnr", coef, values(g, m, j, s, n, 1, situation=3), 1)]
    for subscripts, x, y, axes in cases:
        want = np.multiply(x, y, order="C").sum(axis=axes)
        got = regret._contract(subscripts, x, y, np.empty(want.shape),
                               regret._Workspace().take)
        assert got.tobytes() == want.tobytes(), subscripts
        if math.prod(want.shape[1:]) > 1:
            assert np.einsum(subscripts, x, y).tobytes() == want.tobytes(), subscripts


@settings(max_examples=30, deadline=None)
@given(st.data(), st.booleans())
def test_padded_situations_hessian_matches_finite_differences(data, classical):
    """Padded slots, padded situations and missing labels add nothing to the
    Hessian: it agrees with central differences of the gradient and is
    exactly symmetric.  A mixed design has a drawn 1 to 3 random
    attributes; the panel is a binary-choice one or has up to 5 slots."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_random = 2 if classical else data.draw(st.integers(1, 3))
    design = padded_design(data, rng, n_individuals=3, classical=classical,
                           n_random=n_random, widest=data.draw(st.sampled_from([2, 5])))
    x = rng.normal(size=design.n_params) * 0.5
    draws = padded_draws(design, rng)
    _, _, hessian = individual_scores(design, draws, x, hessian=True)
    oracle = _fd_hessian(lambda v: individual_scores(design, draws, v), x)
    assert np.array_equal(hessian, hessian.T)
    np.testing.assert_allclose(hessian, oracle, rtol=1e-6, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_per_person_slot_sums_match_brute_force(data, n_random):
    """Each person's (J*S, 2K) rows of a block's ``by_person`` hold, at slot
    k of situation s, 1/2 sum over the situation's other data slots l of
    x[l] - x[k] for each of the K random attributes, then 1/2 sum of
    |x[l] - x[k]|, summed here by brute force in the situation's row order;
    they are exactly 0 at every slot with no data row, padded situations'
    too; and ``lin_random`` is a view of the first K columns."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    with mock.patch.object(regret, "_BLOCK_FLOATS", data.draw(st.integers(0, 3000))):
        design = padded_design(data, rng, n_individuals=5, n_random=n_random)
    for block, (start, stop) in enumerate(design.blocks):
        bd = design._blocks[block]
        n, depth, width = bd.rows.shape
        got = bd.by_person.reshape(n, width, depth, 2 * n_random)
        want = np.zeros_like(got)
        for pos in range(start, stop):
            for s, (x_all, _) in enumerate(plain_situations(design, pos)):
                x = np.array(x_all)[:, 1:]  # the random attributes
                for k in range(len(x)):
                    others = [l for l in range(len(x)) if l != k]
                    want[pos - start, k, s] = [
                        *(0.5 * sum(x[l] - x[k] for l in others)),
                        *(0.5 * sum(abs(x[l] - x[k]) for l in others))]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
        assert np.all(got[~bd.rows.transpose(0, 2, 1)] == 0.0)
        assert np.shares_memory(bd.lin_random, bd.by_person)
        assert np.array_equal(bd.lin_random[..., 0],
                              got[..., :n_random].transpose(3, 1, 2, 0))


@pytest.mark.parametrize("case", ["classical start", "mixed zero", "normal zero",
                                  "fixed zero", "saturated"])
def test_gradient_and_hessian_at_zero_and_saturated_coefficients(case):
    """A pair's even term is a function of |beta|, so its slope takes
    sign(beta), 0 at beta = 0, and the slot's total slope is the sum of
    x[j] - x[i] halves and tanh(|a|/2) halves, which cancel as the pair
    saturates.  At theta = 0 (the classical start, and a mixed model whose
    log-normal coefficient is then exp(0) = 1), at a normal random
    coefficient with location and scale 0, at a fixed coefficient 0 beside
    non-zero random ones, and at pair activations |beta * dx| of 20 to 60,
    where exp(-|a|) is below eps from 37 on, the log-likelihood agrees with
    ``brute_force_sll``, the gradient rows with its finite differences, and
    the Hessian with finite differences of the gradient, to the tolerances
    of the padded-situation tests."""
    rng = np.random.default_rng(7)
    saturated = case == "saturated"
    individuals = {}
    for n, sizes in enumerate([(2, 4, 3), (4, 3), (3, 2, 4)], start=1):
        sits = {}
        for s, size in enumerate(sizes, start=1):
            # distinct integer attributes give every saturated pair a gap of
            # 1 to 3, so an activation of 20 to 60 at |beta| = 20
            x = (np.array([rng.permutation(size) for _ in range(3)]).T.astype(float)
                 if saturated else rng.normal(size=(size, 3)))
            chosen = int(rng.integers(size))
            sits[s] = [(j + 1, x[j].tolist(), j == chosen) for j in range(size)]
        individuals[n] = sits
    ds = make_dataset(individuals, ["x0", "x1", "x2"])
    if case == "classical start":
        design = design_for(ds, fixed_attrs=("x0", "x1", "x2"), use_asc=True)
    else:
        design = design_for(ds, 3, fixed_attrs=("x0",), random_attrs=("x1", "x2"),
                            ln_count=1, use_asc=True)
    n_asc = design.n_asc
    x = {
        "classical start": np.zeros(design.n_params),
        "mixed zero": np.zeros(design.n_params),
        # [fixed | location | scale | asc]
        "normal zero": np.array([0.4, 0.0, -0.3, 0.0, 0.5, *rng.normal(size=n_asc)]),
        "fixed zero": np.array([0.0, -0.6, 0.2, 0.7, 0.3, *rng.normal(size=n_asc)]),
        "saturated": np.array([-20.0, 20.0, math.log(20.0), 0.0, 0.0,
                               *rng.normal(size=n_asc)]),
    }[case]
    draws = padded_draws(design, rng)
    if saturated:  # every coefficient is +-20 at every draw
        gaps = {abs(a - b) for sits in individuals.values() for rows in sits.values()
                for i, (_, xa, _) in enumerate(rows) for _, xb, _ in rows[:i]
                for a, b in zip(xa, xb)}
        assert gaps == {1.0, 2.0, 3.0}
    lls, rows, hessian = individual_scores(design, draws, x, hessian=True)
    for pos in range(design.ds.n_individuals):
        z = draws[pos]
        assert lls[pos] == pytest.approx(oracle_loglik(design, pos, x, z), rel=1e-12)
        oracle = fd_gradient(lambda v: oracle_loglik(design, pos, v, z), x)
        np.testing.assert_allclose(rows[pos], oracle, rtol=1e-7, atol=1e-9)
    oracle = _fd_hessian(lambda v: individual_scores(design, draws, v), x)
    assert np.array_equal(hessian, hessian.T)
    np.testing.assert_allclose(hessian, oracle, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("n, r", [(1, 1), (3, 2), (8, 20), (13, 5), (20, 100),
                                  (1, 20), (9, 5), (17, 100)])
def test_activations_equal_the_broadcast_product(n, r):
    """``_activations``' block-diagonal matrix products, over runs of up to 8
    individuals, give the broadcast product of the coefficients and the
    distances bit for bit, with and without a leading run axis, at zero
    coefficients and zero distances; a coefficient shared by the block, as
    a fixed one is, one draw and a run of one person (1, 9 and 17 people)
    take the broadcast itself."""
    rng = np.random.default_rng(100 * n + r)
    d = np.abs(rng.normal(size=(2, 3, 4, 5, n, 1)))
    d[:, :, 1] = 0.0  # the distances of a dead pair
    beta = -np.abs(rng.normal(size=(3, 1, 1, n, r)))
    beta[1, ..., 0] = -0.0
    shared = -np.abs(rng.normal(size=(3, 1, 1, 1, 1)))
    for coef in (beta, shared):
        for dist in (d, d[0]):
            got = regret._activations(coef, dist, regret._Workspace().take)
            assert np.array_equal(got, coef * dist)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.booleans())
def test_loglik_walk_equals_ordered_score_sum(data, classical):
    """The log-likelihood walk and the ordered sum of the value+gradient
    walk's terms are the same float, bit for bit, on classical blocks of
    several people and on mixed designs with normal and log-normal
    coefficients and constants: the optimizer tests a trial point with
    either walk and takes the same path."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    design = padded_design(data, rng, n_individuals=4, classical=classical)
    if classical:
        assert any(stop - start > 1 for start, stop in design.blocks)
    draws = padded_draws(design, rng)
    x = rng.normal(size=design.n_params) * data.draw(st.sampled_from([0.1, 1.0, 3.0]))
    lls, _ = individual_scores(design, draws, x)
    assert _loglik(design, draws, x) == float(_ordered_sum(lls))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(0, 3))
def test_loglik_kernel_is_log_mean_exp_of_the_draw_info_sequence(data, n_random):
    """Block by block, the log-likelihood kernel's terms are the
    log-mean-exp of the draw-info kernel's sequence log-probs, bit for bit,
    on padded panels with 0 (classical) to 3 random attributes, in blocks
    as large as a drawn bound on padded floats allows."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    with mock.patch.object(regret, "_BLOCK_FLOATS", data.draw(st.integers(0, 3000))):
        design = padded_design(data, rng, n_individuals=5, classical=not n_random,
                               n_random=max(n_random, 1))
    assert design.n_random == n_random
    draws = padded_draws(design, rng)
    theta = design.unpack(rng.normal(size=design.n_params))
    lls = design.walk(design.individual_loglik, theta, draws)
    sequences = design.walk(design.individual_draw_info, theta, draws, False)
    for ll, sequence in zip(lls, sequences, strict=True):
        assert sequence.shape == (len(ll), design.nrep)
        assert np.array_equal(ll, regret._log_mean_exp(sequence)[0])


def people_alone(design, start, stop):
    """The design over individuals ``start``..``stop``-1 alone, sized for the
    same R draws; it keeps the whole panel's labels, so its constants are
    the same parameters."""
    ds = design.ds
    bounds = [*ds.situation_starts[ds.individual_starts].tolist(), ds.n_rows]
    rows = slice(bounds[start], bounds[stop])
    alone = ChoiceDataset(
        individual=ds.individual[rows], situation=ds.situation[rows],
        alternative=ds.alternative[rows], chosen=ds.chosen[rows],
        attributes=ds.attributes[rows], source_row=ds.source_row[rows],
        attribute_names=ds.attribute_names)
    object.__setattr__(alone, "alternative_labels", ds.alternative_labels)
    return ModelDesign(alone, design.spec, design.nrep)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.booleans())
def test_walk_returns_each_block_result_in_block_order(data, classical):
    """On a panel whose people differ in S and J, in blocks as large as a
    drawn bound on padded floats allows, ``ModelDesign.walk`` returns one
    result per block, in block (dataset) order: with every kernel, and with
    the value+gradient kernel's Hessian, block b's result equals bit for bit
    the one result of a walk over block b's people alone under their draws,
    for classical designs and mixed ones at R = 3."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # a drawn bound on padded floats, so the walk visits several blocks
    with mock.patch.object(regret, "_BLOCK_FLOATS", data.draw(st.integers(0, 3000))):
        nrep, burn = (1, 0) if classical else (3, 2)
        design = padded_design(data, rng, n_individuals=6, classical=classical, nrep=nrep)
        alone = [people_alone(design, start, stop) for start, stop in design.blocks]
    assert [len(own.blocks) for own in alone] == [1] * len(design.blocks)
    draws = design.draws(burn)
    theta = design.unpack(rng.normal(size=design.n_params)
                          * data.draw(st.sampled_from([0.5, 3.0])))
    for kernel, args in [("individual_loglik", ()), ("individual_draw_info", ()),
                         ("individual_draw_info", (False,)),
                         ("individual_loglik_gradient", (False,)),
                         ("individual_loglik_gradient", (True,))]:
        walked = design.walk(getattr(design, kernel), theta, draws, *args)
        assert len(walked) == len(design.blocks)
        for (start, stop), got, own in zip(design.blocks, walked, alone, strict=True):
            (want,) = own.walk(getattr(own, kernel), theta, draws[start:stop], *args)
            for got_part, want_part in zip(*(
                    (r,) if isinstance(r, np.ndarray) else r for r in (got, want)),
                    strict=True):
                assert np.array_equal(got_part, want_part, equal_nan=True)


@pytest.mark.parametrize("classical, nrep", [(True, 5), (False, 1), (False, 2),
                                             (False, 3), (False, 8)])
def test_walk_builds_each_base_once_per_group(classical, nrep):
    """In one-individual blocks, 7 people of 2 situations of 3 alternatives
    and 3 people of 3 situations of 2: the design cuts each shape's blocks
    into groups of at most R, ceil(blocks / R) groups per shape, R = 1 for
    a classical design whatever ``nrep``, and the walk builds each group's
    draw-invariant base (its one ``_pair_terms`` call asking for the slopes
    in a log-likelihood pass) once."""
    rng = np.random.default_rng(nrep)
    shapes = [(2, 3)] * 7 + [(3, 2)] * 3
    ds = make_dataset({n: {s: [(j, rng.normal(size=2).tolist(), j == 1)
                               for j in range(1, width + 1)]
                           for s in range(1, depth + 1)}
                       for n, (depth, width) in enumerate(shapes, start=1)},
                      ["x0", "x1"])
    spec = dict(fixed_attrs=("x0", "x1")) if classical else dict(
        fixed_attrs=("x0",), random_attrs=("x1",))
    with mock.patch.object(regret, "_BLOCK_FLOATS", 0):
        design = design_for(ds, nrep, **spec)
    r = design.nrep
    assert r == (1 if classical else nrep)
    sizes = sorted(min(r, blocks - lo) for blocks in (7, 3)
                   for lo in range(0, blocks, r))
    assert sorted(len(members) for members, _ in design._groups) == sizes
    x = rng.normal(size=design.n_params) * 0.5
    with mock.patch.object(regret, "_pair_terms", wraps=regret._pair_terms) as spy:
        walked = design.walk(design.individual_loglik, design.unpack(x),
                             design.draws())
    assert [len(terms) for terms in walked] == [1] * 10
    bases = [call.args[1].shape[0] for call in spy.call_args_list if call.args[3]]
    assert len(bases) == math.ceil(7 / r) + math.ceil(3 / r)
    assert sorted(bases) == sizes


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_block_edges_match_one_individual_blocks(extra):
    """k - 1, k and k + 1 people, k the most that ``_BLOCK_FLOATS`` lets one
    block hold: each person has 2 situations of 4 alternatives, 2 attributes
    and 3 constants, 2 * 6*2 = 24 padded floats.  Blocks of k in dataset
    order, whose rows and Hessian agree with one-individual blocks and the
    oracles; the Hessian of a block of k takes its slot derivatives in runs
    of ``_BLOCK_FLOATS`` // (2 * (6*2 + 4*5)) people, three of them."""
    rng = np.random.default_rng(100 + extra)
    per_block = regret._BLOCK_FLOATS // 24
    n_ind = per_block + extra
    individuals = {}
    for n in range(1, n_ind + 1):
        sits = {}
        for s in (1, 2):
            chosen = int(rng.integers(4))
            sits[s] = [(int(label), rng.normal(size=2).tolist(), j == chosen)
                       for j, label in enumerate(rng.permutation(4) + 1)]
        individuals[n] = sits
    ds = make_dataset(individuals, ["x0", "x1"])
    design = design_for(ds, fixed_attrs=("x0", "x1"), use_asc=True)
    assert design.blocks == [(a, min(a + per_block, n_ind))
                             for a in range(0, n_ind, per_block)]
    x = rng.normal(size=design.n_params) * 0.5
    draws = design.draws()
    lls, rows, hessian = individual_scores(design, draws, x, hessian=True)
    single = one_per_block(design)
    single_lls, single_rows, single_hessian = individual_scores(
        single, draws, x, hessian=True
    )
    np.testing.assert_allclose(lls, single_lls, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rows, single_rows, rtol=1e-12,
                               atol=1e-12 * np.abs(single_rows).max())
    np.testing.assert_allclose(hessian, single_hessian, rtol=1e-12,
                               atol=1e-12 * np.abs(single_hessian).max())
    for pos in (0, n_ind // 2, n_ind - 1):
        assert lls[pos] == pytest.approx(oracle_loglik(design, pos, x, draws[pos]),
                                         rel=1e-12)
    oracle = _fd_hessian(lambda v: individual_scores(design, draws, v), x)
    np.testing.assert_allclose(hessian, oracle, rtol=0,
                               atol=1e-7 * np.abs(oracle).max())


def test_hessian_takes_its_slot_derivatives_in_runs_of_people():
    """A block of 10 people, each with 2 situations of 3 alternatives, a
    fixed, a normal and a log-normal attribute and 2 constants at R = 3:
    2 * 3*3 * 3 = 54 floats a person in the block rule, and 2 * (3*3 + 3*7)
    * 3 = 180 with the Hessian's slot derivatives.  Under a bound of 540
    the block holds all 10, and its Hessian takes the derivatives in runs
    of 3, 3, 3 and 1 people.  That Hessian agrees with one-individual
    blocks to 1e-12 and with finite differences of the gradient, and the
    terms and rows are those of one-individual blocks, bit for bit."""
    rng = np.random.default_rng(31)
    ds = make_dataset({n: {s: [(j, rng.normal(size=3).tolist(), j == 1 + (n + s) % 3)
                               for j in range(1, 4)]
                           for s in (1, 2)}
                       for n in range(1, 11)}, ["x0", "x1", "x2"])
    with mock.patch.object(regret, "_BLOCK_FLOATS", 540):
        design = design_for(ds, 3, fixed_attrs=("x0",), random_attrs=("x1", "x2"),
                            ln_count=1, use_asc=True)
        assert design.blocks == [(0, 10)] and design.n_params == 7
        x = rng.normal(size=design.n_params) * 0.5
        draws = design.draws(5)
        with mock.patch.object(regret, "_slot_gradient",
                               wraps=regret._slot_gradient) as spy:
            lls, rows, hessian = individual_scores(design, draws, x, hessian=True)
        runs = [call.kwargs["out"].shape[-2] for call in spy.call_args_list
                if "out" in call.kwargs]
        assert runs == [3, 3, 3, 1]
        oracle = _fd_hessian(lambda v: individual_scores(design, draws, v), x)
    single_lls, single_rows, single_hessian = individual_scores(
        one_per_block(design), draws, x, hessian=True)
    assert np.array_equal(lls, single_lls) and np.array_equal(rows, single_rows)
    np.testing.assert_allclose(hessian, single_hessian, rtol=1e-12,
                               atol=1e-12 * np.abs(single_hessian).max())
    np.testing.assert_allclose(hessian, oracle, rtol=0,
                               atol=1e-7 * np.abs(oracle).max())


def test_poisoned_workspace_fills_every_view_with_nan():
    """The tripwire of this module: a role taken again, for another shape or
    the same one, hands out ``nan``, and an earlier view of it reads
    ``nan`` too, as a kernel that still read it would."""
    take = regret._Workspace().take
    first = take("a", (2, 3))
    first.fill(1.0)
    assert np.isnan(take("a", (3, 2))).all() and np.isnan(first).all()
    first.fill(1.0)
    assert np.isnan(take("a", (2, 3))).all() and np.isnan(first).all()


def test_classical_pass_memory_is_bounded_by_block_floats():
    """One value+gradient+Hessian pass of a classical design over a wide,
    unbalanced panel (1700 people of 1-10 situations of 2-10 alternatives, 3
    attributes)
    allocates at most 8 arrays of ``_BLOCK_FLOATS`` floats at its peak,
    though the panel padded as one block would be over 15 times that; its
    blocks keep both bounds of ``assert_blocks_fill_budget``."""
    rng = np.random.default_rng(7)
    individuals = {}
    for n in range(1, 1701):
        sits = {}
        for s in range(1, int(rng.integers(1, 11)) + 1):
            size = int(rng.integers(2, 11))
            chosen = int(rng.integers(size))
            sits[s] = [(int(label), rng.normal(size=3).tolist(), j == chosen)
                       for j, label in enumerate(rng.permutation(10)[:size] + 1)]
        individuals[n] = sits
    ds = make_dataset(individuals, ["x0", "x1", "x2"])
    design = design_for(ds, fixed_attrs=("x0", "x1", "x2"))
    assert block_floats(design, 0, ds.n_individuals)[0] > 15 * regret._BLOCK_FLOATS
    assert_blocks_fill_budget(design)
    x = rng.normal(size=design.n_params) * 0.3
    draws = design.draws()
    tracemalloc.start()
    try:
        individual_scores(design, draws, x, hessian=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * regret._BLOCK_FLOATS


def test_hessian_curvature_takes_no_buffer_past_the_slot_runs(rng):
    """A Hessian pass squares the random pair slopes in place for their
    curvature: on a block of the ``wide_asc`` benchmark's shape (20 people
    of 8 situations of 5 alternatives, a fixed and three random attributes,
    constants, R = 20) the workspace's ``"terms"`` buffer stays the size of
    its 8-person slot-derivative runs, (n_params, J, S, 8, R), below the
    (Mr, P, S, n, R) random curvature."""
    ds = random_dataset(rng, n_individuals=20, n_situations=8, n_alternatives=5,
                        n_attrs=4)
    design = design_for(ds, nrep=20, fixed_attrs=("x0",),
                        random_attrs=("x1", "x2", "x3"), ln_count=1, use_asc=True)
    assert list(map(tuple, design.blocks)) == [(0, 20)]
    x = rng.normal(size=design.n_params) * 0.3
    individual_scores(design, design.draws(), x, hessian=True)
    slot_run = design.n_params * 5 * 8 * 8 * 20
    assert slot_run < 3 * 10 * 8 * 20 * 20
    assert design._work._buffers["terms"].size == slot_run


def test_design_build_peaks_within_twice_what_it_keeps():
    """Building a design of 1200 people who take turns between four shapes,
    8, 10, 8 and 6 situations of 3, 3, 4 and 5 alternatives, with a fixed
    and two random attributes, constants and R = 10, peaks (tracemalloc)
    within twice the arrays the design keeps: each group of at most R
    equal-shape blocks is built alone, so its pair differences and their
    temporaries are those of R blocks, not of every block of its shape."""
    rng = np.random.default_rng(11)
    shapes = np.tile([[8, 3], [10, 3], [8, 4], [6, 5]], (300, 1))
    depth, width = shapes.T
    individual = np.repeat(np.arange(1, 1201), depth * width)
    sit_width = np.repeat(width, depth)
    situation = np.repeat(np.concatenate([np.arange(1, s + 1) for s in depth]),
                          sit_width)
    alternative = np.concatenate([np.arange(1, j + 1) for j in sit_width])
    chosen = alternative == np.repeat(rng.integers(1, sit_width + 1), sit_width)
    ds = ChoiceDataset(individual=individual, situation=situation,
                       alternative=alternative, chosen=chosen,
                       attributes=rng.normal(size=(len(individual), 3)),
                       source_row=np.arange(2, len(individual) + 2),
                       attribute_names=("x0", "x1", "x2"))
    spec = ModelSpec(fixed_attrs=("x0",), random_attrs=("x1", "x2"), use_asc=True)
    tracemalloc.start()
    try:
        design = ModelDesign(ds, spec, 10)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(design.blocks) > 4 * 10
    assert peak <= 2 * kept, (peak, kept)


# the benchmark's designs: (situations, alternatives), model and R
BENCH_SHAPES = [
    ((10, 3), dict(fixed_attrs=("x0",), random_attrs=("x1",)), 100),
    ((8, 5), dict(fixed_attrs=("x0",), random_attrs=("x1", "x2", "x3"), ln_count=1,
                  use_asc=True), 20),
]


def bench_shape_design(shape, spec, nrep, n_individuals):
    """The design of a balanced panel of ``n_individuals`` people of
    ``shape`` (situations, alternatives) with 4 attributes, and its rng."""
    rng = np.random.default_rng(nrep)
    depth, width = shape
    ds = make_dataset({n: {s: [(j, rng.normal(size=4).tolist(), j == 1)
                               for j in range(1, width + 1)]
                           for s in range(1, depth + 1)}
                       for n in range(1, n_individuals + 1)}, ["x0", "x1", "x2", "x3"])
    return design_for(ds, nrep, **spec), rng


@pytest.mark.parametrize("shape, spec, nrep", BENCH_SHAPES)
def test_block_bound_is_tuned_on_the_bench_shapes(shape, spec, nrep):
    """The bound is tuned on two designs: 10 situations of 3 alternatives, a
    fixed and a normal attribute at R = 100, 10 * 3*2 * 100 = 6,000 floats
    a person, and 8 situations of 5, with a fixed, two normal and a
    log-normal attribute and 4 constants at R = 20, 8 * 10*4 * 20 = 6,400
    floats a person; their blocks take 21 and 20 people, not the 8 of a
    count with the Hessian's slot derivatives.  With R >= 2 every person's
    log-likelihood term and gradient row are still those of
    one-individual blocks, bit for bit."""
    design, rng = bench_shape_design(shape, spec, nrep, 25)
    assert block_floats(design, 0, 1)[0] == {100: 6_000, 20: 6_400}[nrep]
    assert design.blocks == {100: [(0, 21), (21, 25)], 20: [(0, 20), (20, 25)]}[nrep]
    assert_blocks_fill_budget(design)
    x = rng.normal(size=design.n_params) * 0.3
    draws = design.draws(15)
    lls, rows = individual_scores(design, draws, x)
    single_lls, single_rows = individual_scores(one_per_block(design), draws, x)
    assert np.array_equal(lls, single_lls) and np.array_equal(rows, single_rows)


@pytest.mark.parametrize("shape, spec, nrep, n_individuals",
                         [(*BENCH_SHAPES[0], 200), (*BENCH_SHAPES[1], 100)])
def test_warm_passes_allocate_less_than_one_slot_array(shape, spec, nrep,
                                                       n_individuals):
    """On the bench shapes and numbers of people, once a first pass has
    sized the design's workspace, a value+gradient pass and a
    log-likelihood pass each allocate, at their tracemalloc peak, less than
    one (J, S, n, R) slot-level array of the largest block: every
    block-sized intermediate of the walk and of its kernels is a view of
    the workspace, and only the per-person results are new.  numpy's ufunc
    iterator buffers, up to ``np.getbufsize()`` elements an operand whatever
    the block, are set to their smallest while the peak is measured."""
    design, rng = bench_shape_design(shape, spec, nrep, n_individuals)
    largest = max(stop - start for start, stop in design.blocks)
    assert largest > 1 and len(design.blocks) > 1
    slot_bytes = 8 * shape[1] * shape[0] * largest * nrep
    x = rng.normal(size=design.n_params) * 0.3
    draws = design.draws(15)
    for one_pass in (lambda: individual_scores(design, draws, x),
                     lambda: _loglik(design, draws, x)):
        one_pass()
        bufsize = np.setbufsize(16)
        tracemalloc.start()
        try:
            one_pass()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert peak < slot_bytes, (peak, slot_bytes)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_alternative_order_leaves_loglik_unchanged(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    design = padded_design(data, rng, n_individuals=1)
    ds = design.ds
    shuffled = {
        s: [(int(ds.alternative[r]), ds.attributes[r].tolist(), bool(ds.chosen[r]))
            for r in rows.start + rng.permutation(rows.stop - rows.start)]
        for s, rows in enumerate(situation_slices(ds), start=1)
    }
    other = design_for(make_dataset({1: shuffled}, ["x0", "x1", "x2"]),
                       **vars(design.spec))
    theta = design.unpack(rng.normal(size=design.n_params) * 0.5)
    z = rng.normal(size=(2, 4))
    assert other.walk(other.individual_loglik, theta, z[None])[0] == pytest.approx(
        design.walk(design.individual_loglik, theta, z[None])[0], rel=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(st.data(), st.floats(300.0, 3000.0))
def test_extreme_activations_stay_finite(data, size):
    """|beta * dx| around 1e3: no overflow in the value, the gradient or the
    probabilities, which still sum to 1."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    design = padded_design(data, rng, attr_scale=size / 100.0)
    sign = rng.choice([-1.0, 1.0], size=2)
    theta = ParameterVector(
        fixed=np.array([100.0 * sign[0]]),
        rand_location=np.array([100.0 * sign[1], math.log(100.0)]),
        rand_scale=np.array([10.0, 0.1]),
        asc=rng.normal(size=design.n_asc),
    )
    z = rng.normal(size=(1, 2, 5)).repeat(design.ds.n_individuals, axis=0)
    for (ll, grad), ln_seq, probs, mean in zip(
            design.walk(design.individual_loglik_gradient, theta, z),
            design.walk(design.individual_draw_info, theta, z, False),
            per_draw_probs(design, theta, z),
            design.walk(design.individual_draw_info, theta, z), strict=True):
        assert np.all(np.isfinite(ll)) and np.all(np.isfinite(grad))
        assert np.all(np.isfinite(ln_seq)) and np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(axis=3), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mean.sum(axis=2), 1.0, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.floats(100.0, 1500.0), st.integers(1, 3))
def test_folded_rival_term_matches_oracle_at_extreme_activations(data, size, n_random):
    """Slots i and j of a pair bear ln(1 + exp(a)) and ln(1 + exp(-a)) as
    the pair's even h(a) = |a|/2 + ln(1 + exp(-|a|)) plus and minus a/2,
    with the halves summed at slot level, so the kernel's regrets cancel
    where the reference's do not; and a pair's h over the K random
    attributes is one log of a product of K factors.  At
    |beta * dx| up to ``size`` (past 709, where exp(a) overflows, the
    scalar reference takes a + ln(1 + exp(-a))), through the fixed
    attribute's walk base and the K = 1, 2 or 3 random ones' pair and
    slot-level terms (the last of 2 or 3 log-normal), regrets and
    probabilities agree with ``naive_regret`` and ``naive_choice_probs`` to
    a few ulps of the largest |a| per rival term.  Situations of 2 to 5
    alternatives share a block, so it has dead pairs and empty slots.
    Alternative 1 of each situation dominates on every attribute."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    names = [f"x{m}" for m in range(1 + n_random)]
    ln_count = int(n_random > 1)
    sign = rng.choice([-1.0, 1.0], size=len(names))
    if ln_count:
        sign[-1] = 1.0  # a log-normal coefficient exp(b) is positive
    beta = 100.0 * sign
    location = beta[1:].copy()
    if ln_count:
        location[-1] = math.log(beta[-1])
        beta[-1] = np.exp(location[-1])  # the coefficient the kernel realizes
    individuals = {}
    for n in (1, 2, 3):
        sits = {}
        for s in range(1, int(rng.integers(1 + (n == 1), 4)) + 1):
            width = {(1, 1): 5, (1, 2): 2}.get((n, s)) or int(rng.integers(2, 6))
            x = rng.uniform(-1.0, 1.0, size=(width, len(names))) * size / 200.0
            x[0] = np.where(sign > 0, x.max(axis=0), x.min(axis=0))
            sits[s] = [(j + 1, x[j].tolist(), j == 0) for j in range(width)]
        individuals[n] = sits
    ds = make_dataset(individuals, names)
    design = design_for(ds, 2, fixed_attrs=("x0",), random_attrs=tuple(names[1:]),
                        ln_count=ln_count, use_asc=True)
    assert design._blocks[0].empty.any()
    theta = ParameterVector(fixed=beta[:1], rand_location=location,
                            rand_scale=np.zeros(n_random), asc=rng.normal(size=design.n_asc))
    draws = rng.normal(size=(ds.n_individuals, n_random, 2))
    # ``_regrets`` returns a view of the design's workspace: keep a copy
    regrets = design.walk(
        lambda block, z, part: design._regrets(design._blocks[block], part, False)[0].copy(),
        theta, draws)
    per_draw = per_draw_probs(design, theta, draws)
    constant = dict(zip(design.asc_labels, theta.asc.tolist()))
    for block, (start, stop) in enumerate(design.blocks):
        for pos in range(start, stop):
            asc = situation_constants(design, pos, constant)
            for s, (x_all, _) in enumerate(plain_situations(design, pos)):
                width = len(x_all)
                a = beta * (np.array(x_all)[:, None] - np.array(x_all)[None])
                tol = 4 * 2 * (width - 1) * np.spacing(max(np.abs(a).max(), 1.0))
                want = [naive_regret(x_all, i, beta.tolist(), asc[s])
                        for i in range(width)]
                got = regrets[block][:width, s, pos - start]
                np.testing.assert_allclose(got, np.repeat([want], 2, 0).T, rtol=0, atol=tol)
                probs = naive_choice_probs(x_all, beta.tolist(), asc[s])
                got = per_draw[block][pos - start, :, s, :width]
                np.testing.assert_allclose(got, np.repeat([probs], 2, 0), rtol=0, atol=tol)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.booleans())
def test_empty_slots_get_infinite_regret_and_zero_probability(data, classical):
    """On an unbalanced panel, in blocks as large as a drawn bound on padded
    floats allows, the walk's base puts +inf at exactly a block's ``empty``
    slots (no data row, not a padded situation's slot 0), so ``_regrets`` is
    +inf there and finite elsewhere; the per-draw probabilities, and the
    draw-info kernel's averages of them, are exactly 0.0 at every slot with
    no data row but a padded situation's slot 0, which is 1.0, and each
    situation's sum to 1 within 1e-12."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    with mock.patch.object(regret, "_BLOCK_FLOATS", data.draw(st.integers(0, 3000))):
        design = padded_design(data, rng, n_individuals=6, classical=classical)
    assume(any(bd.empty.any() for bd in design._blocks))
    draws = padded_draws(design, rng)
    theta = design.unpack(rng.normal(size=design.n_params))
    regrets = design.walk(
        lambda block, z, part: design._regrets(design._blocks[block], part, False)[0].copy(),
        theta, draws)
    means = design.walk(design.individual_draw_info, theta, draws)
    for block, (got, probs, mean) in enumerate(zip(
            regrets, per_draw_probs(design, theta, draws), means, strict=True)):
        empty = np.broadcast_to(design._blocks[block].empty, got.shape)
        assert np.array_equal(np.isposinf(got), empty)
        assert np.all(np.isfinite(got[~empty]))
        rows = design.available(block)  # (n, S, J)
        padded = ~rows.any(axis=2, keepdims=True) & (np.arange(rows.shape[2]) == 0)
        # the average, then each draw's: (1 + R, n, S, J)
        probs = np.concatenate([mean[None], probs.transpose(1, 0, 2, 3)])
        assert np.all(probs[:, ~rows & ~padded] == 0.0)
        assert np.all(probs[:, padded] == 1.0)
        np.testing.assert_allclose(probs.sum(axis=3), 1.0, rtol=0, atol=1e-12)
