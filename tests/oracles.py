"""Independent oracles used to pin expected values.

Everything here is deliberately written from first principles (plain loops,
math.* scalar calls, its own regret formula) so that agreement with the
package is evidence, not tautology.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


def fd_gradient(fun, x, rel_step=1e-6):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        h = rel_step * (1.0 + abs(x[i]))
        plus = x.copy()
        minus = x.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (fun(plus) - fun(minus)) / (2.0 * h)
    return grad


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
    """Central differences of the analytic gradient, step 1e-5*(1+|x_i|);
    the gradient is the ordered sum of the rows ``scores(x)`` returns."""
    from mixrrm.estimation import _ordered_sum

    n = x.size
    hess = np.empty((n, n))
    for i in range(n):
        h = 1e-5 * (1.0 + abs(x[i]))
        plus = x.copy()
        minus = x.copy()
        plus[i] += h
        minus[i] -= h
        hess[:, i] = (
            _ordered_sum(scores(plus)[1]) - _ordered_sum(scores(minus)[1])
        ) / (2.0 * h)
    return 0.5 * (hess + hess.T)


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
    """Straight-line regret: sum over rivals/attributes of ln(1 + exp(.))."""
    total = 0.0 if asc is None else asc[i]
    for j in range(len(x_all)):
        if j == i:
            continue
        for m in range(len(beta)):
            total += math.log(1.0 + math.exp(beta[m] * (x_all[j][m] - x_all[i][m])))
    return total


def naive_choice_probs(x_all, beta, asc=None):
    regrets = [naive_regret(x_all, i, beta, asc) for i in range(len(x_all))]
    weights = [math.exp(-r) for r in regrets]
    denom = sum(weights)
    return [w / denom for w in weights]


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
    """
    fixed = list(theta["fixed"])
    location = list(theta["location"])
    scale = list(theta["scale"])
    lognormal = list(theta["lognormal"])
    total = 0.0
    for n, situations in enumerate(individuals):
        z = draws[n]
        n_draws = len(z[0]) if z else 1
        acc = 0.0
        for r in range(n_draws):
            beta = list(fixed)
            for k in range(len(location)):
                value = location[k] + scale[k] * z[k][r]
                beta.append(math.exp(value) if lognormal[k] else value)
            seq_prob = 1.0
            for s, (x_all, chosen) in enumerate(situations):
                constants = None if asc is None else asc[n][s]
                seq_prob *= naive_choice_probs(x_all, beta, constants)[chosen]
            acc += seq_prob
        total += math.log(acc / n_draws)
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
