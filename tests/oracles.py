"""Independent oracles used to pin expected values.

Everything here is deliberately written from first principles (plain loops,
math.* scalar calls, its own regret formula) so that agreement with the
package is evidence, not tautology.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


def _richardson(fun, x, i, h):
    """d fun / d x_i from central differences D at steps h and h/2 with their
    h^2 error terms cancelled: (4 D(h/2) - D(h)) / 3, whose truncation error
    is O(h^4).  Each quotient divides by the step as represented in x."""

    def central(step):
        plus = x.copy()
        minus = x.copy()
        plus[i] += step
        minus[i] -= step
        return (np.asarray(fun(plus)) - np.asarray(fun(minus))) / (plus[i] - minus[i])

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def _steps(fun, x, rel_step):
    """Steps rel_step (1 + |x_i|) (1 + max |fun(x)|)^(1/5) for
    :func:`_richardson`.  Its error is about eps |f| / h from rounding plus
    the O(h^4) truncation, so where the derivatives stay moderate as |f|
    grows, the step that balances the two grows as |f|^(1/5)."""
    magnitude = np.max(np.abs(fun(x)))
    return rel_step * (1.0 + np.abs(x)) * (1.0 + magnitude) ** 0.2


def fd_gradient(fun, x, rel_step=2e-4):
    """Richardson-extrapolated central differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    return np.array([_richardson(fun, x, i, h)
                     for i, h in enumerate(_steps(fun, x, rel_step))])


def fd_jacobian(fun, x, rel_step=1e-6):
    """Central finite differences of a vector function, one column per input."""
    x = np.asarray(x, dtype=float)
    base = np.asarray(fun(x), dtype=float)
    jac = np.zeros((base.size, x.size))
    for i in range(x.size):
        h = rel_step * (1.0 + abs(x[i]))
        plus = x.copy()
        minus = x.copy()
        plus[i] += h
        minus[i] -= h
        jac[:, i] = (np.asarray(fun(plus)) - np.asarray(fun(minus))) / (2.0 * h)
    return jac


def _fd_hessian(scores: Callable, x: np.ndarray) -> np.ndarray:
    """Richardson-extrapolated central differences of the analytic gradient,
    the ordered sum of the rows ``scores(x)`` returns, symmetrised; steps as
    in :func:`fd_gradient`."""
    from mixrrm.estimation import _ordered_sum

    gradient = lambda v: _ordered_sum(scores(v)[1])
    hess = np.column_stack([_richardson(gradient, x, i, h)
                            for i, h in enumerate(_steps(gradient, x, 2e-4))])
    return 0.5 * (hess + hess.T)


def halton_digit_loop(base, count, burn=0):
    """Elements ``burn+1 .. burn+count`` of the Halton sequence in ``base``,
    one int64 ``divmod`` over the whole stream per digit: element k is the
    sum of its digits d_i times base^-(i+1), added from the lowest digit up,
    each scale the last divided by ``base``.  The package's digit-table
    form must give these bits."""
    k = np.arange(burn + 1, burn + count + 1, dtype=np.int64)
    out = np.zeros(count)
    scale = 1.0 / base
    while k.any():
        k, digit = np.divmod(k, base)
        out += digit * scale
        scale /= base
    return out


def _ppnd_rational(r, num, den):
    p = np.zeros_like(r)
    q = np.zeros_like(r)
    for c in reversed(num):
        p = p * r + c
    for c in reversed(den):
        q = q * r + c
    return p / q


def inverse_normal_cdf_masked(u):
    """Wichura's PPND16 quantile of the array ``u`` in (0, 1), each rational
    evaluated on a boolean-masked copy of the elements it serves: the
    central one where |u - 0.5| <= 0.425, the tail ones where r = sqrt(-ln
    min(u, 1 - u)) is at most 5 and beyond.  The package's in-place form
    must give these bits."""
    from mixrrm.draws import _PPND_A, _PPND_B, _PPND_C, _PPND_D, _PPND_E, _PPND_F

    arr = np.asarray(u, dtype=float)
    q = arr - 0.5
    central = np.abs(q) <= 0.425
    out = np.empty_like(arr)
    r = 0.180625 - q[central] * q[central]
    out[central] = q[central] * _ppnd_rational(r, _PPND_A, _PPND_B)
    tail = ~central
    qt = q[tail]
    r = np.sqrt(-np.log(np.where(qt < 0.0, arr[tail], 1.0 - arr[tail])))
    near = r <= 5.0
    value = np.empty_like(r)
    value[near] = _ppnd_rational(r[near] - 1.6, _PPND_C, _PPND_D)
    value[~near] = _ppnd_rational(r[~near] - 5.0, _PPND_E, _PPND_F)
    out[tail] = np.where(qt < 0.0, -value, value)
    return out


def irls_binary_logit(X, y, tol=1e-12, maxiter=200):
    """Binary logit (no intercept) by iteratively reweighted least squares.

    P(y=1) = 1 / (1 + exp(-X b)).  Self-contained Newton oracle.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.zeros(X.shape[1])
    for _ in range(maxiter):
        eta = X @ beta
        p = 1.0 / (1.0 + np.exp(-eta))
        w = p * (1.0 - p)
        grad = X.T @ (y - p)
        hess = X.T @ (X * w[:, None])
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    return beta


def binary_logit_prob(x_own, x_other, beta):
    """P(pick own) in a 2-alternative set: logistic(beta . (x_own - x_other))."""
    idx = sum(b * (xo - xr) for b, xo, xr in zip(beta, x_own, x_other))
    return 1.0 / (1.0 + math.exp(-idx))


def naive_regret(x_all, i, beta, asc=None):
    """Straight-line regret: sum over rivals/attributes of ln(1 + exp(a));
    where exp(a) overflows, the same a + ln(1 + exp(-a))."""
    total = 0.0 if asc is None else asc[i]
    for j in range(len(x_all)):
        if j == i:
            continue
        for m in range(len(beta)):
            a = beta[m] * (x_all[j][m] - x_all[i][m])
            try:
                total += math.log(1.0 + math.exp(a))
            except OverflowError:
                total += a + math.log1p(math.exp(-a))
    return total


def naive_choice_probs(x_all, beta, asc=None):
    """Choice probabilities exp(-r_i) / sum_j exp(-r_j) of the regrets r;
    where a weight overflows or all of them underflow, the exponentials of
    :func:`naive_choice_log_probs`."""
    regrets = [naive_regret(x_all, i, beta, asc) for i in range(len(x_all))]
    try:
        weights = [math.exp(-r) for r in regrets]
        denom = sum(weights)
        return [w / denom for w in weights]
    except (OverflowError, ZeroDivisionError):
        return [math.exp(v) for v in _log_probs(regrets)]


def naive_choice_log_probs(x_all, beta, asc=None):
    """ln of :func:`naive_choice_probs`, taken about the least regret, so a
    probability too small for a float still has its finite logarithm."""
    return _log_probs([naive_regret(x_all, i, beta, asc) for i in range(len(x_all))])


def _log_probs(regrets):
    least = min(regrets)
    log_denom = math.log(sum(math.exp(least - r) for r in regrets))
    return [least - r - log_denom for r in regrets]


def brute_force_sll(individuals, theta, draws, asc=None):
    """Simulated log-likelihood by plain enumeration.

    ``individuals``: list over n of lists over s of (x_all, chosen_index),
    where x_all is a list of attribute lists covering every model attribute
    in the same order the coefficients are supplied.
    ``theta``: dict with keys ``fixed`` (list, leading attributes),
    ``location``, ``scale`` (lists for the trailing random attributes) and
    ``lognormal`` (list of bools per random attribute).
    ``draws``: per individual, a K x R list of standard-normal values.
    ``asc``: optional, per individual, per situation, the constant added to
    each alternative's regret (0 for the base alternative).
    Each draw's sequence probability is a sum of chosen log-probabilities,
    and the mean over draws is taken about the largest, so a sequence too
    improbable for a float still counts.
    """
    fixed = list(theta["fixed"])
    location = list(theta["location"])
    scale = list(theta["scale"])
    lognormal = list(theta["lognormal"])
    total = 0.0
    for n, situations in enumerate(individuals):
        z = draws[n]
        n_draws = len(z[0]) if z else 1
        sequences = []
        for r in range(n_draws):
            beta = list(fixed)
            for k in range(len(location)):
                value = location[k] + scale[k] * z[k][r]
                beta.append(math.exp(value) if lognormal[k] else value)
            seq_log_prob = 0.0
            for s, (x_all, chosen) in enumerate(situations):
                constants = None if asc is None else asc[n][s]
                seq_log_prob += naive_choice_log_probs(x_all, beta, constants)[chosen]
            sequences.append(seq_log_prob)
        peak = max(sequences)
        total += peak + math.log(sum(math.exp(v - peak) for v in sequences) / n_draws)
    return total


def simulate_panel(
    rng,
    n_individuals,
    n_situations,
    n_alternatives,
    fixed=None,
    random=None,
    attr_low=0.0,
    attr_high=4.0,
):
    """Draw a synthetic panel from a true regret model.

    ``fixed``: dict attr -> coefficient.  ``random``: dict attr ->
    ("normal"|"lognormal", location, scale); log-normal coefficients realize
    as exp(location + scale*z).  Returns (rows, attr_names) where rows are
    dicts ready for CSV writing (id, cs, altern, choice, attributes).
    """
    fixed = dict(fixed or {})
    random = dict(random or {})
    attr_names = list(fixed) + list(random)
    rows = []
    for ind in range(1, n_individuals + 1):
        beta_by_attr = dict(fixed)
        for attr, (kind, loc, scl) in random.items():
            value = loc + scl * rng.standard_normal()
            beta_by_attr[attr] = math.exp(value) if kind == "lognormal" else value
        beta = [beta_by_attr[a] for a in attr_names]
        for sit in range(1, n_situations + 1):
            x_all = rng.uniform(attr_low, attr_high,
                                size=(n_alternatives, len(attr_names)))
            probs = naive_choice_probs(x_all.tolist(), beta)
            chosen = int(rng.choice(n_alternatives, p=probs))
            for alt in range(n_alternatives):
                row = {
                    "id": ind,
                    "cs": (ind - 1) * n_situations + sit,
                    "altern": alt + 1,
                    "choice": 1 if alt == chosen else 0,
                }
                for m, attr in enumerate(attr_names):
                    row[attr] = repr(float(x_all[alt, m]))
                rows.append(row)
    return rows, attr_names


def write_rows_csv(rows, path, fieldnames=None):
    import csv

    fieldnames = fieldnames or list(rows[0])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def csv_copy_with_column(path, out_path, name, values):
    """The data file at ``path`` copied to ``out_path`` row by row through
    ``csv.reader`` and ``csv.writer``: ``name`` appended to the header and
    ``repr(values[n])`` to each later row numbered ``n`` (header = 1) that
    ``values`` holds."""
    import csv

    with open(path, newline="", encoding="utf-8-sig") as source, \
            open(out_path, "w", newline="", encoding="utf-8") as handle:
        reader = csv.reader(source)
        writer = csv.writer(handle)
        writer.writerow(next(reader) + [name])
        for row_no, row in enumerate(reader, start=2):
            value = values.get(row_no)
            writer.writerow(row if value is None else row + [repr(value)])
