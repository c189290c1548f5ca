"""Deterministic Halton-based standard-normal draws.

One Halton stream per random dimension (dimension k uses the k-th prime
base), burned at the stream start, split into contiguous per-individual
blocks of length ``nrep``, and mapped through the inverse normal CDF.
There is no randomness anywhere: identical settings give bit-identical
draws.

Element k of a stream in base b is the radical inverse of k: its digits
d_0, d_1, ..., lowest first, times b^-1, b^-2, ..., added to 0.0 in that
order, each scale the last divided by b.  The consecutive indices are laid
out as rows of b^m (b^m at most 4096), whose elements share all but their
low m digits.  The low digits' partial sums are one table of b^m floats,
and each higher digit adds one value per row, a broadcast column.  So
every element gets the float adds of the digit-by-digit loop in the same
order, and the same bits; ``tests/oracles.py`` keeps that loop as the
reference.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InvalidOption, NonPrimeBase

_TABLE = 4096  # most entries of a low-digit table
_CHUNK = 1 << 14  # draws per chunk of a draw set's build


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
    beyond the int64 indices, is a :class:`DomainError`.  The elements are
    the bits of the digit-by-digit sum (see the module docstring).
    """
    if not _is_prime(base):
        raise NonPrimeBase(base)
    if count < 1:
        raise ValueError("count must be >= 1")
    if burn < 0:
        raise ValueError("burn must be >= 0")
    _check_int64(burn, count)
    out = np.empty(count)
    _radical_inverse(base, *_digit_table(base, count), burn + 1, out)
    _check_below_one(out, base, burn)
    return out


def _check_int64(burn: int, count: int) -> None:
    if burn + count > np.iinfo(np.int64).max:
        raise DomainError(f"Halton elements up to burn + count = {burn + count} "
                          "exceed the int64 range")


def _check_below_one(values: np.ndarray, base: int, burn: int) -> None:
    if not values.max() < 1.0:
        raise DomainError(f"burn {burn} rounds Halton elements in base {base} to 1.0")


def _digit_table(base: int, count: int):
    """(table, scale) for a stream of ``count`` elements: the sums of the
    low m digits' terms d_i * base^-(i+1), i = 0 .. m-1, added in that
    order, for the residues 0 .. b^m - 1, where b^m is the largest power of
    ``base`` at most min(count, 4096); and digit m's scale base^-(m+1), each
    scale the last divided by ``base``."""
    width = 1
    while width * base <= min(count, _TABLE):
        width *= base
    residues = np.arange(width, dtype=np.int64)
    table = np.zeros(width)
    scale = 1.0 / base
    while width > 1:
        residues, digit = np.divmod(residues, base)
        table += digit * scale
        scale /= base
        width //= base
    return table, scale


def _radical_inverse(base: int, table: np.ndarray, scale: float, first: int,
                     out: np.ndarray) -> None:
    """The radical inverses of ``first``, ``first`` + 1, ... written to the
    1-D ``out``, from :func:`_digit_table`'s ``table`` and ``scale``.  The
    indices lie in rows of len(table) that share their higher digits; ``out``
    is cut at the row boundaries into a partial row, whole rows and a
    partial row, and each piece starts from its table entries and adds, per
    higher digit, one column of its rows' terms."""
    width = len(table)
    head = min(-first % width, out.size)
    body = head + (out.size - head) // width * width
    for lo, hi in ((0, head), (head, body), (body, out.size)):
        if lo == hi:
            continue
        start = first + lo
        cols = min(hi - lo, width)
        rows = out[lo:hi].reshape(-1, cols)
        rows[...] = table[start % width:start % width + cols]
        quotients = np.arange(start // width, start // width + len(rows), dtype=np.int64)
        digit_scale = scale
        while quotients.any():
            quotients, digit = np.divmod(quotients, base)
            rows += (digit * digit_scale)[:, None]
            digit_scale /= base


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


def _rational(x, num, den, out, work):
    """P(``x``) / Q(``x``) of the coefficients ``num`` and ``den``, lowest
    first, by Horner's rule in place, a multiply then an add per
    coefficient, written to ``out``; ``work`` holds Q(x).  A first step
    0 * x + c is c, x being finite."""
    for poly, acc in ((den, work), (num, out)):
        acc.fill(poly[-1])
        for c in poly[-2::-1]:
            acc *= x
            acc += c
    out /= work
    return out


def inverse_normal_cdf(u):
    """Standard normal quantile Phi^{-1}(u) for u in (0, 1).

    Accepts a scalar or an array; scalar in, scalar out.
    """
    arr = np.asarray(u, dtype=float)
    bad = arr[(arr <= 0.0) | (arr >= 1.0)]
    if bad.size:
        raise DomainError(f"inverse normal CDF needs 0 < u < 1: {bad.size} of "
                          f"{arr.size} outside, the first {float(bad[0])!r}")

    out = np.empty_like(arr)
    _quantile(arr.copy(), out, np.empty_like(arr), np.empty_like(arr))
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(out)
    return out


def _quantile(u, out, q, den):
    """Phi^{-1}(``u``) written to ``out``; ``u`` and the scratch arrays
    ``q`` and ``den``, all of ``out``'s shape, are overwritten.  The
    central rational of q = u - 0.5, q P(r) / Q(r) with r = 0.180625 - q^2,
    runs on every element; the tail rational of r = sqrt(-ln min(u, 1 - u))
    runs on the elements with |q| > 0.425 and is written over theirs, its
    form for r <= 5 on all of them and its form for r > 5 then on those.
    Each element gets the float operations of an evaluation on masked
    copies, so the same bits."""
    np.subtract(u, 0.5, out=q)
    tail = np.abs(q, out=den) > 0.425
    r, neg = u[tail], q[tail] < 0.0  # the tail's u, and where q < 0
    central = np.multiply(q, q, out=u)
    np.subtract(0.180625, central, out=central)
    _rational(central, _PPND_A, _PPND_B, out, den)
    out *= q
    if r.size:
        np.subtract(1.0, r, out=r, where=~neg)
        np.sqrt(np.negative(np.log(r, out=r), out=r), out=r)
        far = r > 5.0
        far_r = r[far] - 5.0
        value = _rational(np.subtract(r, 1.6, out=r), _PPND_C, _PPND_D,
                          np.empty_like(r), np.empty_like(r))
        if far_r.size:
            value[far] = _rational(far_r, _PPND_E, _PPND_F, np.empty_like(far_r),
                                   np.empty_like(far_r))
        out[tail] = np.negative(value, out=value, where=neg)


def build_drawset(n_individuals: int, dims: int, nrep: int, burn: int = 15) -> np.ndarray:
    """Build the normal draws used to simulate the mixing distribution.

    Returns a read-only (n_individuals, dims, nrep) array, empty if dims is
    0.  Dimension k takes one Halton stream in the k-th prime base of length
    ``n_individuals * nrep`` (after dropping ``burn`` initial elements);
    individual n, counted in sorted-ID order, gets the contiguous slice
    ``[n*nrep, (n+1)*nrep)`` as ``draws[n, k]``.  Each stream's slab is
    filled one chunk of whole individuals at a time, about 2^14 draws, in
    three buffers of the chunk's size, so the build takes little more memory
    than the draw set.  An array that numpy cannot allocate raises
    :class:`InvalidOption`; a stream past the int64 indices, or one whose
    elements round to 1.0, a :class:`DomainError`.
    """
    if n_individuals < 1 or dims < 0 or nrep < 1:
        raise ValueError("n_individuals and nrep must be positive, dims non-negative")
    if burn < 0:
        raise ValueError("burn must be >= 0")

    per = min(max(1, _CHUNK // nrep), n_individuals)  # individuals per chunk
    try:
        draws = np.empty((n_individuals, dims, nrep))
        buffers = np.empty((3, per, nrep)) if dims else None
    except (MemoryError, ValueError):  # numpy's "too big" is a ValueError
        raise InvalidOption(
            f"cannot allocate the draw set of {n_individuals} individuals x {dims} "
            f"random coefficients x {nrep} draws; lower nrep") from None
    count = n_individuals * nrep
    for k in range(dims):
        base = nth_prime(k)
        _check_int64(burn, count)
        table, scale = _digit_table(base, count)
        for lo in range(0, n_individuals, per):
            n = min(per, n_individuals - lo)
            u, q, den = buffers[:, :n]
            _radical_inverse(base, table, scale, burn + 1 + lo * nrep, u.reshape(-1))
            _check_below_one(u, base, burn)
            _quantile(u, draws[lo:lo + n, k], q, den)
    draws.setflags(write=False)
    return draws
