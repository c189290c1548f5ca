import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from mixrrm import errors
from mixrrm.draws import (
    build_drawset,
    halton_sequence,
    inverse_normal_cdf,
    nth_prime,
)


def test_halton_base2_prefix():
    assert halton_sequence(2, 4, 0).tolist() == [0.5, 0.25, 0.75, 0.125]


def test_halton_base2_burn15():
    assert halton_sequence(2, 1, 15).tolist() == [1.0 / 32.0]


def test_halton_base3_prefix():
    got = halton_sequence(3, 3, 0)
    np.testing.assert_allclose(got, [1 / 3, 2 / 3, 1 / 9], rtol=0, atol=1e-15)


@pytest.mark.parametrize("base", [1, 4, 6, 9, 15])
def test_halton_rejects_non_prime(base):
    with pytest.raises(errors.NonPrimeBase):
        halton_sequence(base, 3, 0)


def test_halton_burn_is_a_shift():
    long = halton_sequence(5, 30, 0)
    np.testing.assert_array_equal(halton_sequence(5, 20, 10), long[10:])


def test_halton_strictly_inside_unit_interval():
    for base in (2, 3, 5, 7):
        seq = halton_sequence(base, 5000, 15)
        assert seq.min() > 0.0
        assert seq.max() < 1.0


def test_halton_indices_stay_in_int64():
    """Element k is computed from the int64 k: the last element is
    2**63 - 1, and any burn + count past it is a DomainError, where the
    indices would otherwise wrap negative."""
    top = 2**63 - 1
    seq = halton_sequence(3, 4, top - 4)
    assert seq.shape == (4,) and np.all((seq > 0.0) & (seq < 1.0))
    for count, burn in ((4, top - 3), (1, top), (5, 10**20)):
        with pytest.raises(errors.DomainError, match="int64"):
            halton_sequence(3, count, burn)


@pytest.mark.parametrize("burn", [2**63 - 5, 2**54 - 3])
def test_halton_element_rounding_to_one_names_the_burn(burn):
    """Far enough out, an element of base 2 rounds to 1.0 (2**63 - 1 and
    2**54 - 1 have 63 and 54 one bits): a DomainError naming the burn, not
    a value outside (0, 1)."""
    with pytest.raises(errors.DomainError, match=f"burn {burn}"):
        halton_sequence(2, 4, burn)


def test_nth_prime():
    assert [nth_prime(k) for k in range(6)] == [2, 3, 5, 7, 11, 13]
    assert nth_prime(40) == 179


def test_inverse_normal_cdf_median():
    assert inverse_normal_cdf(0.5) == 0.0


def test_inverse_normal_cdf_known_value():
    # frozen from the error-function-inverse oracle (scipy.special.ndtri)
    assert inverse_normal_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-9)


def test_inverse_normal_cdf_matches_oracle_everywhere():
    grid = np.concatenate([
        np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.02424, 0.02426]),
        np.linspace(0.001, 0.999, 997),
        1.0 - np.array([1e-12, 1e-9, 1e-6, 1e-3]),
    ])
    ours = inverse_normal_cdf(grid)
    oracle = scipy.special.ndtri(grid)
    assert np.max(np.abs(ours - oracle)) <= 1e-9


# 1 - u is exact to ~1e-16, which the steep quantile tails magnify; keep the
# identity check where it is well conditioned (the oracle test covers tails).
@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=0.999999))
def test_inverse_normal_cdf_antisymmetric(u):
    assert inverse_normal_cdf(u) == pytest.approx(
        -inverse_normal_cdf(1.0 - u), abs=1e-9
    )


@pytest.mark.parametrize("u", [0.0, 1.0, -0.25, 1.5])
def test_inverse_normal_cdf_domain(u):
    with pytest.raises(errors.DomainError):
        inverse_normal_cdf(u)


def test_inverse_normal_cdf_domain_message_is_one_short_line():
    """The message counts the values outside (0, 1) and names the first,
    on one line, however long the array."""
    u = np.full(10_000, 0.5)
    u[[7, 9000]] = 1.0, 0.0
    with pytest.raises(errors.DomainError) as excinfo:
        inverse_normal_cdf(u)
    message = str(excinfo.value)
    assert "2 of 10000" in message and "first 1.0" in message
    assert "\n" not in message and len(message) < 100


def test_inverse_normal_cdf_array_roundtrip():
    arr = np.array([0.1, 0.5, 0.9])
    out = inverse_normal_cdf(arr)
    assert out.shape == (3,)
    assert out[1] == 0.0
    assert isinstance(inverse_normal_cdf(0.3), float)


def test_build_drawset_single_individual():
    draws = build_drawset(n_individuals=1, dims=1, nrep=2, burn=0)
    got = draws[0, 0]
    assert got[0] == 0.0
    assert got[1] == pytest.approx(-0.6744897501960817, abs=1e-9)


def test_build_drawset_block_assignment():
    draws = build_drawset(n_individuals=2, dims=1, nrep=1, burn=0)
    assert draws[0, 0, 0] == 0.0
    assert draws[1, 0, 0] == pytest.approx(
        -0.6744897501960817, abs=1e-9
    )


def test_build_drawset_deterministic():
    a = build_drawset(5, 3, 7, burn=15)
    b = build_drawset(5, 3, 7, burn=15)
    assert np.array_equal(a, b)


def test_build_drawset_blocks_partition_the_stream():
    n, nrep, burn = 4, 6, 15
    draws = build_drawset(n, 2, nrep, burn)
    for k, base in enumerate((2, 3)):
        stream = inverse_normal_cdf(halton_sequence(base, n * nrep, burn))
        for i in range(n):
            np.testing.assert_array_equal(
                draws[i, k], stream[i * nrep:(i + 1) * nrep]
            )


def test_build_drawset_dimensions_use_consecutive_primes():
    draws = build_drawset(1, 3, 4, burn=0)
    for k, base in enumerate((2, 3, 5)):
        expected = inverse_normal_cdf(halton_sequence(base, 4, 0))
        np.testing.assert_array_equal(draws[0, k], expected)


def test_draw_mean_converges_to_zero():
    draws = build_drawset(n_individuals=100, dims=2, nrep=100, burn=15)
    for k in range(2):
        assert abs(draws[:, k, :].mean()) < 0.05


def test_all_draws_finite():
    draws = build_drawset(50, 4, 50, burn=15)
    assert np.all(np.isfinite(draws))


def test_build_drawset_validates_arguments():
    with pytest.raises(ValueError):
        build_drawset(0, 1, 1)
    with pytest.raises(ValueError):
        build_drawset(1, 1, 1, burn=-1)
    with pytest.raises(ValueError):
        build_drawset(1, -1, 1)
    empty = build_drawset(4, 0, 3)  # a model with no random coefficient
    assert empty.shape == (4, 0, 3) and not empty.flags.writeable

