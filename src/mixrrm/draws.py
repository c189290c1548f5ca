"""Deterministic Halton-based standard-normal draws.

One Halton stream per random dimension (dimension k uses the k-th prime
base), burned at the stream start, split into contiguous per-individual
blocks of length ``nrep``, and mapped through the inverse normal CDF.
There is no randomness anywhere: identical settings give bit-identical
draws.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InvalidOption, NonPrimeBase


def nth_prime(k: int) -> int:
    """k-th prime, 0-based (0 -> 2, 1 -> 3, ...)."""
    candidate = 1
    for _ in range(k + 1):
        candidate += 1
        while not _is_prime(candidate):
            candidate += 1
    return candidate


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def halton_sequence(base: int, count: int, burn: int = 0) -> np.ndarray:
    """Elements ``burn+1 .. burn+count`` of the Halton sequence in ``base``.

    Element k is the radical inverse of k (k starting at 1), inside (0, 1);
    a ``burn`` so large that an element rounds to 1.0, or ``burn + count``
    beyond the int64 indices, is a :class:`DomainError`.
    """
    if not _is_prime(base):
        raise NonPrimeBase(base)
    if count < 1:
        raise ValueError("count must be >= 1")
    if burn < 0:
        raise ValueError("burn must be >= 0")
    if burn + count > np.iinfo(np.int64).max:
        raise DomainError(f"Halton elements up to burn + count = {burn + count} "
                          "exceed the int64 range")

    k = np.arange(burn + 1, burn + count + 1, dtype=np.int64)
    out = np.zeros(count)
    scale = 1.0 / base
    while k.any():
        k, digit = np.divmod(k, base)
        out += digit * scale
        scale /= base
    if not np.all(out < 1.0):
        raise DomainError(f"burn {burn} rounds Halton elements in base {base} to 1.0")
    return out


# Rational approximations from Wichura's PPND16 algorithm; absolute error
# is below 1e-15 across (0, 1), well under the 1e-9 contract.
_PPND_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_PPND_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
    5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
)
_PPND_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0,
    5.76949722146069140550e0, 3.64784832476320460504e0,
    1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_PPND_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
    6.89767334985100004550e-1, 1.48103976427480074590e-1,
    1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_PPND_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0,
    1.78482653991729133580e0, 2.96560571828504891230e-1,
    2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_PPND_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
    1.48753612908506148525e-2, 7.86869131145613259100e-4,
    1.84631831751005468180e-5, 1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _rational(r, num, den):
    p = np.zeros_like(r)
    q = np.zeros_like(r)
    for c in reversed(num):
        p = p * r + c
    for c in reversed(den):
        q = q * r + c
    return p / q


def inverse_normal_cdf(u):
    """Standard normal quantile Phi^{-1}(u) for u in (0, 1).

    Accepts a scalar or an array; scalar in, scalar out.
    """
    arr = np.asarray(u, dtype=float)
    bad = arr[(arr <= 0.0) | (arr >= 1.0)]
    if bad.size:
        raise DomainError(f"inverse normal CDF needs 0 < u < 1: {bad.size} of "
                          f"{arr.size} outside, the first {float(bad[0])!r}")

    q = arr - 0.5
    central = np.abs(q) <= 0.425
    out = np.empty_like(arr)

    if np.any(central):
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * _rational(r, _PPND_A, _PPND_B)

    tail = ~central
    if np.any(tail):
        qt = q[tail]
        r = np.where(qt < 0.0, arr[tail], 1.0 - arr[tail])
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        value = np.empty_like(r)
        value[near] = _rational(r[near] - 1.6, _PPND_C, _PPND_D)
        value[~near] = _rational(r[~near] - 5.0, _PPND_E, _PPND_F)
        out[tail] = np.where(qt < 0.0, -value, value)

    if np.isscalar(u) or np.ndim(u) == 0:
        return float(out)
    return out


def build_drawset(n_individuals: int, dims: int, nrep: int, burn: int = 15) -> np.ndarray:
    """Build the normal draws used to simulate the mixing distribution.

    Returns a read-only (n_individuals, dims, nrep) array, empty if dims is
    0.  Dimension k takes one Halton stream in the k-th prime base of length
    ``n_individuals * nrep`` (after dropping ``burn`` initial elements);
    individual n, counted in sorted-ID order, gets the contiguous slice
    ``[n*nrep, (n+1)*nrep)`` as ``draws[n, k]``.  An array that numpy
    cannot allocate raises :class:`InvalidOption`.
    """
    if n_individuals < 1 or dims < 0 or nrep < 1:
        raise ValueError("n_individuals and nrep must be positive, dims non-negative")
    if burn < 0:
        raise ValueError("burn must be >= 0")

    try:
        draws = np.empty((n_individuals, dims, nrep))
    except (MemoryError, ValueError):  # numpy's "too big" is a ValueError
        raise InvalidOption(
            f"cannot allocate the draw set of {n_individuals} individuals x {dims} "
            f"random coefficients x {nrep} draws; lower nrep") from None
    for k in range(dims):
        stream = halton_sequence(nth_prime(k), n_individuals * nrep, burn)
        draws[:, k, :] = inverse_normal_cdf(stream).reshape(n_individuals, nrep)
    draws.setflags(write=False)
    return draws

