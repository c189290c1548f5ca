import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from mixrrm import errors
from mixrrm.draws import (
    _CHUNK,
    build_drawset,
    halton_sequence,
    inverse_normal_cdf,
    nth_prime,
)
from oracles import halton_digit_loop, inverse_normal_cdf_masked

TOP = 2**63 - 1  # the last int64 Halton index


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


# --- the digit table and the in-place quantile against their loop oracles -----


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7),
       st.one_of(st.integers(0, 10**6), st.integers(TOP - 10**4, TOP - 1)),
       st.integers(1, 20_000))
def test_halton_matches_the_digit_loop_bit_for_bit(k, burn, count):
    """Every element has the bits of the digit-by-digit sum, in the first 8
    prime bases, from the stream start to the last int64 indices; where the
    loop rounds an element to 1.0, a DomainError instead."""
    base, count = nth_prime(k), min(count, TOP - burn)
    want = halton_digit_loop(base, count, burn)
    if want.max() < 1.0:
        assert halton_sequence(base, count, burn).tobytes() == want.tobytes()
    else:
        with pytest.raises(errors.DomainError, match=f"burn {burn} rounds"):
            halton_sequence(base, count, burn)


def quantile_grid():
    """u in (0, 1): subnormals, a geometric sweep down to them from both
    ends, the tail's r = 5 boundary (u = exp(-25)), the central/tail
    boundaries |u - 0.5| = 0.425 and their neighbours, and a uniform grid."""
    low = np.concatenate([
        [5e-324, 1e-320, 2.2250738585072014e-308 / 3, np.exp(-25.0), 0.075, 0.5],
        np.geomspace(5e-324, 0.5, 3000),
    ])
    low = np.concatenate([low, np.nextafter(low, 0.0), np.nextafter(low, 1.0)])
    low = low[(low > 0.0) & (low <= 0.5)]
    return np.concatenate([low, 1.0 - low[low >= 2**-53], [0.925, 1.0 - 2**-53],
                           np.linspace(0.0, 1.0, 10_001)[1:-1]])


def test_quantile_grid_reaches_every_branch():
    u = quantile_grid()
    r = np.sqrt(-np.log(np.minimum(u, 1.0 - u)))
    tail = np.abs(u - 0.5) > 0.425
    assert np.any(u < 2.2250738585072014e-308) and np.any(~tail)
    assert np.any(tail & (r <= 5.0)) and np.any(tail & (r > 5.0))
    assert np.any(tail & (u > 0.5) & (r > 5.0))


def test_inverse_normal_cdf_matches_the_masked_form_bit_for_bit():
    """The central rational on every element in place and the tail ones on
    their subset give the masked evaluation's bits, signed zeros counted,
    over an array, a 2-D array and single values."""
    u = quantile_grid()
    want = inverse_normal_cdf_masked(u)
    assert inverse_normal_cdf(u).tobytes() == want.tobytes()
    square = u[: u.size // 2 * 2].reshape(2, -1)
    assert inverse_normal_cdf(square).tobytes() == want[: square.size].tobytes()
    for value in u[::997]:
        assert np.float64(inverse_normal_cdf(float(value))).tobytes() == \
            inverse_normal_cdf_masked(np.array([value])).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=50))
def test_inverse_normal_cdf_matches_the_masked_form_anywhere(values):
    u = np.array(values)
    assert inverse_normal_cdf(u).tobytes() == inverse_normal_cdf_masked(u).tobytes()


@pytest.mark.parametrize("n, dims, nrep", [
    (3, 0, 4), (4, 1, 3), (2, 2, 5), (5, 3, 7), (3, 4, 2), (6, 5, 3),
    (9, 3, 1),                      # R = 1
    (20_000, 1, 1), (70, 2, 300),   # N*R past one chunk of individuals
    (2, 1, 3 * _CHUNK // 2),        # R past a chunk: one individual a chunk
])
def test_build_drawset_matches_the_oracle_streams(n, dims, nrep):
    """Each dimension's slab has the bits of its whole stream built by the
    oracles, whether it is filled in one chunk of individuals or several."""
    draws = build_drawset(n, dims, nrep, 15)
    assert draws.shape == (n, dims, nrep) and not draws.flags.writeable
    for k in range(dims):
        stream = inverse_normal_cdf_masked(halton_digit_loop(nth_prime(k), n * nrep, 15))
        assert np.ascontiguousarray(draws[:, k]).tobytes() == stream.tobytes()


def test_build_drawset_names_the_burn_that_rounds_to_one():
    """A stream whose elements round to 1.0 is refused as halton_sequence
    refuses it, and one past the int64 indices too."""
    with pytest.raises(errors.DomainError, match=f"burn {2**54 - 3} rounds"):
        build_drawset(2, 1, 2, burn=2**54 - 3)
    with pytest.raises(errors.DomainError, match="int64"):
        build_drawset(2, 2, 2, burn=TOP - 3)


def traced_peak(*args):
    """The tracemalloc peak of build_drawset(*args) over the bytes it returns."""
    tracemalloc.start()
    try:
        draws = build_drawset(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / draws.nbytes


def test_build_drawset_peaks_near_the_draw_set():
    """Filled a chunk of individuals at a time, the draw set is most of the
    build's memory: 1.25 times it at most at N=1000, K=3, R=200 (a whole
    stream at a time took 3.46 times).  A draw set smaller than one chunk
    takes three buffers of its own size and the tail's subset, so at most 5
    times it (a whole stream at a time took 9.2 times at N=200, R=100)."""
    assert traced_peak(1000, 3, 200, 15) <= 1.25
    assert traced_peak(200, 1, 100, 15) <= 5.0
