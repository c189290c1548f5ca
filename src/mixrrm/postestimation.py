"""Post-estimation: predicted probabilities, individual-level coefficients,
log-normal moment summaries, and plotting.

Individual-level coefficients are the conditional means of the random
coefficients given a person's observed choice sequence: the simulated draws
are averaged with weights proportional to the sequence probability each
draw implies.  Log-normal location/scale estimates are mapped back to the
coefficient scale (median, mean, sd) with delta-method standard errors.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .dataset import ChoiceDataset
from .errors import AttrNotLognormal, DomainError, EmptyInput, InvalidOption, SpecMismatch
from .estimation import FitResult
from .regret import ModelDesign, _log_mean_exp

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class IndividualBetaTable:
    """One row per individual: conditional-mean random coefficients."""

    attrs: tuple[str, ...]
    ids: np.ndarray       # (N,) individual IDs, ascending
    values: np.ndarray    # (N, K), columns in declared random-attr order


@dataclass(frozen=True)
class LognormalSummary:
    """Coefficient-scale moments of one log-normal coefficient."""

    attr: str
    sign: int
    median: float
    median_se: float
    mean: float
    mean_se: float
    sd: float
    sd_se: float


def _bind_design(ds: ChoiceDataset, fit: FitResult, nrep: int) -> ModelDesign:
    try:
        design = ModelDesign(ds, fit.spec, nrep)
    except SpecMismatch as err:
        raise SpecMismatch(f"fit does not match this dataset: {err}") from None
    # with equal labels (or no constants) the parameter counts agree too
    if fit.spec.use_asc and ds.alternative_labels != fit.alternative_labels:
        raise SpecMismatch(
            "alternative labels differ between the fit and this dataset"
        )
    return design


def draw_settings(fit: FitResult, nrep=None, burn=None) -> tuple[int, int]:
    """``nrep``/``burn`` for post-estimation, the fit's own unless given;
    either in effect out of range (``nrep`` below 1, ``burn`` negative) is
    an InvalidOption."""
    nrep = fit.nrep if nrep is None else nrep
    burn = fit.burn if burn is None else burn
    if burn < 0:
        raise InvalidOption(f"burn {burn!r} is negative")
    if nrep < 1:
        raise InvalidOption(f"nrep {nrep!r} is below 1")
    return nrep, burn


def _draw_info_walk(ds: ChoiceDataset, fit: FitResult, nrep, burn, summarize,
                    probs=True):
    """The fit's design on ``ds``, its draws, and the ``summarize(rows,
    ln_seq, probs)`` of every block concatenated in dataset order, from one
    :meth:`ModelDesign.walk` whose kernel summarizes each block's draw info
    as soon as it is made, so no block's per-draw probabilities outlive it;
    ``rows`` is the block's data slots (:meth:`ModelDesign.available`), and
    ``probs`` is ``None`` unless ``probs``.  The walk runs with numpy's
    floating-point warnings off, and a summary that is not finite, as at a
    fit whose estimates overflow the pass, is refused with
    :class:`DomainError`."""
    nrep, burn = draw_settings(fit, nrep, burn)
    design = _bind_design(ds, fit, nrep)
    draws = design.draws(burn)
    with np.errstate(all="ignore"):
        summaries = np.concatenate(design.walk(
            lambda block, z, part: summarize(
                design.available(block),
                *design.individual_draw_info(block, z, part, probs)),
            fit.theta_hat, draws))
    if not np.isfinite(summaries).all():
        raise DomainError("the pass over the data is not finite at the fit's estimates")
    return design, draws, summaries


def predict_probabilities(
    ds: ChoiceDataset, fit: FitResult,
    nrep: int | None = None, burn: int | None = None,
) -> np.ndarray:
    """Simulated choice probability for every row of the dataset.

    Rows follow dataset order (individuals ascending, situations ascending,
    alternatives in file order).  Mixed fits average the per-draw
    probabilities over the Halton draws (defaults: the fit's own nrep/burn);
    classical fits, with no random coefficient, take one draw: the closed form.
    """
    return _draw_info_walk(ds, fit, nrep, burn,
                           lambda rows, _, probs: probs.mean(axis=1)[rows])[2]


def predict_rows(ds, fit, nrep=None, burn=None) -> dict[int, float]:
    """Simulated probability of every data row, keyed by the row number
    :func:`~mixrrm.dataset.load_long_csv` recorded for it (header = 1)."""
    probs = predict_probabilities(ds, fit, nrep, burn)
    return dict(zip(ds.source_row.tolist(), probs.tolist(), strict=True))


def _posterior(ds: ChoiceDataset, fit: FitResult, nrep, burn):
    """Design, (N, K, R) draws and (N, R) posterior draw weights of a mixed fit."""
    if fit.spec.n_random < 1:
        raise SpecMismatch("fit has no random coefficients")
    return _draw_info_walk(ds, fit, nrep, burn,
                           lambda rows, ln_seq, _: _log_mean_exp(ln_seq)[1], probs=False)


def posterior_weights(
    ds: ChoiceDataset, fit: FitResult,
    nrep: int | None = None, burn: int | None = None,
) -> np.ndarray:
    """The (N, R) draw weights behind :func:`individual_betas`, one row per
    individual in dataset order; each row sums to 1."""
    return _posterior(ds, fit, nrep, burn)[2]


def individual_betas(
    ds: ChoiceDataset, fit: FitResult,
    nrep: int | None = None, burn: int | None = None,
) -> IndividualBetaTable:
    """Conditional means of the random coefficients, one row per individual.

    Draw r is weighted by the probability of the individual's observed
    sequence of choices under that draw (:func:`posterior_weights`); weights
    are computed in log space and normalized.  Log-normal coefficients are
    averaged on the coefficient scale, not the log scale.
    """
    design, draws, weights = _posterior(ds, fit, nrep, burn)
    coefs = design.random_coefficient_draws(fit.theta_hat, draws.transpose(1, 0, 2))
    values = np.matmul(weights[:, None, :], coefs.transpose(1, 0, 2))[:, 0]
    return IndividualBetaTable(
        attrs=fit.spec.random_attrs, ids=ds.individual_ids, values=values
    )


def lognormal_summary(fit: FitResult, attr: str, sign: int = 1) -> LognormalSummary:
    """Median/mean/sd of a log-normal coefficient with delta-method SEs.

    With location b and scale s (the signed estimate; everything depends on
    s only through s^2): median = exp(b), mean = exp(b + s^2/2),
    sd = mean * sqrt(exp(s^2) - 1).  ``sign`` of -1 flips median and mean
    for attributes that were negated before estimation; the sd keeps its
    sign-free value.  Moments, or the SEs of a finite covariance, beyond the
    float range raise DomainError.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    spec = fit.spec
    if attr not in spec.random_attrs:
        raise AttrNotLognormal(attr)
    k = spec.random_attrs.index(attr)
    if not spec.is_lognormal(k):
        raise AttrNotLognormal(attr)

    f, kk = spec.n_fixed, spec.n_random
    idx_b = f + k
    idx_s = f + kk + k
    b, s = float(fit.theta[idx_b]), float(fit.theta[idx_s])
    sub_cov = fit.covariance[np.ix_([idx_b, idx_s], [idx_b, idx_s])]

    s2 = s * s
    try:
        median, mean = math.exp(b), math.exp(b + 0.5 * s2)
        spread, growth = math.sqrt(math.expm1(s2)), math.exp(s2)
    except OverflowError:
        mean = spread = math.inf
    sd = mean * spread
    if not math.isfinite(sd):
        raise DomainError(
            f"log-normal coefficient {attr!r} has no finite moments: "
            f"location {b:.6g}, scale {s:.6g}"
        )

    jac_median = np.array([median, 0.0])
    jac_mean = np.array([mean, mean * s])
    if spread != 0.0:
        d_sd_ds = sd * s + mean * s * growth / spread
    else:
        # its limit as s -> 0 up to a sign, which the SE drops as sd = 0;
        # s^2 may underflow to 0 before s does
        d_sd_ds = mean
    jac_sd = np.array([sd, d_sd_ds])

    with np.errstate(over="ignore", invalid="ignore"):
        ses = [math.sqrt(max(jac @ sub_cov @ jac, 0.0))
               for jac in (jac_median, jac_mean, jac_sd)]
    if np.isfinite(sub_cov).all() and not np.isfinite(ses).all():
        raise DomainError(
            f"log-normal coefficient {attr!r} has no finite standard errors: "
            f"location {b:.6g}, scale {s:.6g}"
        )
    return LognormalSummary(
        attr=attr,
        sign=sign,
        median=sign * median,
        median_se=ses[0],
        mean=sign * mean,
        mean_se=ses[1],
        sd=sd,
        sd_se=ses[2],
    )


def write_beta_file(table: IndividualBetaTable, path, replace: bool = False) -> None:
    """Write the individual-level coefficients as CSV (id, attr, ...)."""
    if os.path.exists(path) and not replace:
        raise FileExistsError(f"{path} exists; pass replace=True to overwrite")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", *table.attrs])
        for i, ind_id in enumerate(table.ids):
            writer.writerow([int(ind_id), *(repr(float(v)) for v in table.values[i])])


def read_beta_file(path) -> IndividualBetaTable:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [(int(r[0]), [float(v) for v in r[1:]]) for r in reader]
    return IndividualBetaTable(
        attrs=tuple(header[1:]),
        ids=np.array([r[0] for r in rows]),
        values=np.array([r[1] for r in rows], dtype=float),
    )


def histogram_svg(values, title: str, path) -> None:
    """Write a standalone SVG frequency histogram.

    Bin count is ceil(sqrt(n)) clamped to [5, 50].  Each bar carries a
    ``data-count`` attribute so the rendering stays machine-checkable.
    """
    data = np.asarray(values, dtype=float).ravel()
    if data.size == 0:
        raise EmptyInput("cannot plot an empty vector")
    if not np.all(np.isfinite(data)):
        raise DomainError("histogram values must be finite")

    n_bins = min(50, max(5, math.ceil(math.sqrt(data.size))))
    # values past 2**1000 are binned in quarters, exactly, so that the
    # range's width stays finite; a range too narrow for n_bins distinct
    # edges, as of one value, is widened by at least half a unit each way
    lo, hi = float(data.min()), float(data.max())
    scale = 4.0 if max(-lo, hi) > 2.0**1000 else 1.0
    lo, hi = lo / scale, hi / scale
    if not np.all(np.diff(np.linspace(lo, hi, n_bins + 1)) > 0):
        pad = max(0.5, n_bins * math.ulp(max(-lo, hi)))
        lo, hi = lo - pad, hi + pad
    counts, edges = np.histogram(data / scale, bins=n_bins, range=(lo, hi))

    width, height = 640, 420
    left, right, top, bottom = 70, 20, 40, 60
    plot_w = width - left - right
    plot_h = height - top - bottom
    peak = max(int(counts.max()), 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<title>{_esc(title)}</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_esc(title)}</text>',
    ]
    bar_w = plot_w / n_bins
    for i, count in enumerate(counts):
        bar_h = plot_h * (int(count) / peak)
        x = left + i * bar_w
        y = top + plot_h - bar_h
        parts.append(
            f'<rect class="bin" data-count="{int(count)}" x="{x:.2f}" '
            f'y="{y:.2f}" width="{bar_w:.2f}" height="{bar_h:.2f}" '
            'fill="#4878a8" stroke="white" stroke-width="0.5"/>'
        )
    # axes
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        'stroke="black"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        # an edge widened past the float range is labelled at its end
        x_val = min(max((lo + frac * (hi - lo)) * scale, -_FLOAT_MAX), _FLOAT_MAX)
        x_pos = left + frac * plot_w
        parts.append(
            f'<text x="{x_pos:.1f}" y="{top + plot_h + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{x_val:.4g}</text>"
        )
        y_val = frac * peak
        y_pos = top + plot_h - frac * plot_h
        parts.append(
            f'<text x="{left - 8}" y="{y_pos + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y_val:g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 14}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"{_esc(title)}</text>"
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">Frequency</text>'
    )
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
