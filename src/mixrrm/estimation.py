"""Maximum (simulated) likelihood estimation and covariance estimators.

The optimizer is quasi-Newton BFGS with a backtracking line search that
enforces sufficient decrease, so the log-likelihood is non-decreasing over
accepted steps and two runs on identical inputs take bit-identical paths.
While the inverse-Hessian approximation is still the identity (the first
iteration, or after a reset), the direction is the raw gradient, whose scale
is the problem's and not a step's, so the line search starts at the largest
power-of-2 step that moves θ by at most ``_MAX_FIRST_MOVE`` (1) in any
coordinate.  The steps tried are the unit step's halvings either way, so a
search that would have accepted a step at or below that start accepts the
same float point, and the fit takes the same path; one whose first accepted
move was larger takes another, and ends at another point within the
gradient tolerance.  A unit step is evaluated with its gradient, so an
accepted one costs one value+gradient pass; trials below the unit step are
log-likelihood-only passes, and the point one of them accepts gets its
value+gradient pass.
Where the line search gives up, near the optimum of a large panel whose
summed log-likelihood is too noisy to rank steps, exact Newton steps finish
the fit, each accepted when it shrinks the gradient.
The Hessian used for covariances is exact: one value+gradient walk at the
optimum also returns each individual's Hessian, built from the same pair
terms as the gradient, and adds them in dataset order.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dataset import ChoiceDataset
from .draws import inverse_normal_cdf
from .errors import (
    FewerClustersThanParameters,
    InvalidFitFile,
    InvalidOption,
    NonConvergence,
    SingularHessian,
    SpecMismatch,
)
from .options import FitOptions, _has_type
from .regret import ModelDesign, ModelSpec, ParameterVector


@dataclass
class FitResult:
    """Point estimates, covariance, and convergence diagnostics.

    ``theta`` is the packed parameter vector as estimated (scale entries may
    be negative: the likelihood only identifies their magnitude).  The
    ``estimates`` column reports |scale|; ``covariance`` always refers to the
    signed parameterization.  Names and inference columns are derived.
    """

    spec: ModelSpec
    alternative_labels: tuple[int, ...]
    theta: np.ndarray
    loglik: float
    n_individuals: int
    n_situations: int
    covariance: np.ndarray
    covariance_kind: str
    level: float
    converged: bool
    iterations: int
    gradient_norm: float
    nrep: int
    burn: int
    # how the optimizer ran; not written to the fit JSON, so None when loaded
    stop: str | None = None  # gtol | line_search | maxiter | zero_slope | newton
    ll_passes: int | None = None  # log-likelihood-only passes: trials below the unit step
    # value+gradient passes, the start and the Newton trials included
    vg_passes: int | None = None

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.spec.param_names(self.alternative_labels)

    @property
    def n_parameters(self) -> int:
        return len(self.param_names)

    @property
    def theta_hat(self) -> ParameterVector:
        n_asc = len(self.spec.asc_labels(self.alternative_labels))
        return ParameterVector.unpack(
            self.theta, self.spec.n_fixed, self.spec.n_random, n_asc
        )

    @property
    def estimates(self) -> np.ndarray:
        reported = self.theta_hat
        reported.rand_scale = np.abs(reported.rand_scale)
        return reported.pack()

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    @property
    def z_stats(self) -> np.ndarray:
        se = self.std_errors
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(se > 0.0, self.estimates / se, np.nan)

    @property
    def p_values(self) -> np.ndarray:
        return np.array([math.erfc(abs(v) / math.sqrt(2.0)) if np.isfinite(v)
                         else np.nan for v in self.z_stats])

    @property
    def ci_lower(self) -> np.ndarray:
        return self.estimates - self._z_crit() * self.std_errors

    @property
    def ci_upper(self) -> np.ndarray:
        return self.estimates + self._z_crit() * self.std_errors

    def _z_crit(self) -> float:
        return inverse_normal_cdf(0.5 + self.level / 200.0)

    @property
    def coefficient_rows(self) -> list[tuple]:
        """The coefficient table: (name, estimate, std err, z, p, CI low, CI
        high) per parameter."""
        return list(zip(self.param_names, self.estimates, self.std_errors,
                        self.z_stats, self.p_values, self.ci_lower, self.ci_upper))


@dataclass
class _OptResult:
    x: np.ndarray
    loglik: float
    grad: np.ndarray
    iterations: int
    converged: bool
    stop: str  # gtol | line_search | maxiter | zero_slope | newton
    ll_passes: int  # log-likelihood-only passes: the trials below the unit step
    vg_passes: int  # value+gradient passes, the start and the Newton trials included


# the largest sup-norm move of a first trial along the raw gradient: the
# accepted first moves of the 120 benchmark reference fits (seeds 1-10) span
# 0.015-0.81, so every one of them keeps its path
_MAX_FIRST_MOVE = 1.0


def _ordered_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over the first axis in row order from zero (``ndarray.sum`` adds
    a contiguous axis pairwise, which rounds differently)."""
    zero = np.zeros((1, *rows.shape[1:]))
    return np.add.accumulate(np.concatenate([zero, rows]))[-1]


def _maximize(
    loglik: Callable,
    scores: Callable,
    x0: np.ndarray,
    maxiter: int = 200,
    gtol: float = 1e-6,
    step_tol: float = 1e-10,
) -> _OptResult:
    """BFGS ascent with Armijo backtracking.

    ``loglik(x)`` is the objective; ``scores(x)`` returns its per-individual
    terms and gradient rows, summed here in order to the same float.  Each
    search tries the steps 1, 1/2, 1/4, ... and takes the first that passes,
    except that while H is the identity (the first iteration, or after a
    reset for a direction that is not an ascent) it skips the steps that
    would move some coordinate of x by more than ``_MAX_FIRST_MOVE``: the
    raw gradient's scale is the problem's, and the unit step would overshoot
    by orders of magnitude.  A search that would have accepted a step at or
    below its start still accepts the same float point; one that would have
    accepted a longer step now takes another path, to another point within
    ``gtol``.  Each trial is one full pass.  The unit step, accepted on most
    later iterations, is tried with ``scores``; every trial below it uses
    ``loglik``, and the point such a trial accepts gets its ``scores`` pass.
    A trial is accepted when its log-likelihood is at least ``bound``, ll +
    1e-4 * step * slope (or ll less the noise floor, once that gain is
    within it), and its gradient is finite.  Trials, and the start's pass,
    run with numpy's floating-point warnings off: a trial whose
    log-likelihood or gradient is not finite is rejected, and the step
    halved, and a start whose log-likelihood is not finite is refused with
    :class:`InvalidOption`.
    Convergence means the sup-norm of the gradient is at or below ``gtol``;
    the loop also stops when backtracking cannot find an acceptable step
    longer than ``step_tol``, and, with no trial, at ``line_search`` when
    the starting gradient, or an iteration's slope g'd along its direction
    d, is not finite (d and the slope are taken with numpy's warnings off).
    Accepted steps never decrease the objective beyond the floating-point
    rounding noise of the total log-likelihood.
    """

    passes = {"ll": 0, "vg": 0}

    def value_grad(x):
        passes["vg"] += 1
        lls, rows = scores(x)
        return _ordered_sum(lls), _ordered_sum(rows)

    def value(x):
        passes["ll"] += 1
        return loglik(x), None

    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    with np.errstate(all="ignore"):  # an overflowing start is refused below
        ll, grad = value_grad(x)
    if not np.isfinite(ll):
        raise InvalidOption("log-likelihood not finite at the starting values")
    h_inv = np.eye(n)
    first_update = True
    iterations = 0
    stop = "gtol"
    # summation rounding across individuals makes the objective fuzzy at a
    # few ulps of its own magnitude
    noise_floor = 8.0 * np.finfo(float).eps

    while not np.max(np.abs(grad)) <= gtol:
        if iterations >= maxiter:
            stop = "maxiter"
            break
        if not np.isfinite(grad).all():  # only the start's can be: no direction
            stop = "line_search"
            break
        with np.errstate(all="ignore"):  # a slope that is not finite stops below
            direction = h_inv @ grad  # ascent direction
            slope = grad @ direction
            if slope <= 0.0:
                h_inv = np.eye(n)
                first_update = True
                direction = grad.copy()
                slope = grad @ grad
        if slope == 0.0:
            stop = "zero_slope"
            break
        if not np.isfinite(slope):
            stop = "line_search"
            break

        step = 1.0
        d_norm = np.max(np.abs(direction))
        if first_update:
            while step * d_norm > _MAX_FIRST_MOVE:
                step *= 0.5
        floor = noise_floor * (abs(ll) + 1.0)
        with np.errstate(all="ignore"):  # a rejected trial may overflow
            while step * d_norm >= step_tol:
                candidate = x + step * direction
                target = 1e-4 * step * slope
                # Once the predicted gain sinks below the rounding noise of ll
                # itself, sufficient decrease cannot be certified; accept any
                # step that stays within that noise so the gradient can still
                # be driven to tolerance.
                bound = ll - floor if target <= floor else ll + target
                ll_new, grad_new = (value_grad if step == 1.0 else value)(candidate)
                if np.isfinite(ll_new) and ll_new >= bound:
                    if grad_new is None:  # a trial below the unit step
                        ll_new, grad_new = value_grad(candidate)
                    if np.isfinite(grad_new).all():
                        break
                step *= 0.5
            else:
                stop = "line_search"
                break

        s = candidate - x
        y = grad - grad_new  # gradient change of -ll (minimization form)
        sy = s @ y
        # update only when curvature keeps the approximation positive definite
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            if first_update:
                h_inv *= sy / (y @ y)
                first_update = False
            rho = 1.0 / sy
            v = np.eye(n) - rho * np.outer(s, y)
            h_inv = v @ h_inv @ v.T + rho * np.outer(s, s)
        x, ll, grad = candidate, ll_new, grad_new
        iterations += 1

    return _OptResult(
        x=x,
        loglik=float(ll),
        grad=grad,
        iterations=iterations,
        converged=bool(np.max(np.abs(grad)) <= gtol),
        stop=stop,
        ll_passes=passes["ll"],
        vg_passes=passes["vg"],
    )


def _newton_finish(opt: _OptResult, scores_hessian: Callable, rows, hessian,
                   maxiter: int, gtol: float):
    """Exact Newton steps x - H^-1 g from the point where the line search
    gave up, with ``rows`` and ``hessian`` the gradient rows and Hessian
    there; ``scores_hessian(x)`` returns the terms, rows and Hessian of a
    trial.  While the gradient is above ``gtol`` and iterations are left, a
    step is taken only where -H passes a Cholesky factorization, and
    accepted when its gradient is finite and smaller in sup-norm: near the
    optimum of a large panel, the change in value is summation noise.
    Returns the optimizer result, stopped at ``newton`` after an accepted
    step, with the last point's rows and Hessian."""
    norm = lambda g: np.max(np.abs(g))
    while norm(opt.grad) > gtol and opt.iterations < maxiter:
        if not np.isfinite(hessian).all():
            break
        try:
            np.linalg.cholesky(-hessian)
        except np.linalg.LinAlgError:
            break
        x = opt.x - np.linalg.solve(hessian, opt.grad)
        lls, new_rows, new_hessian = scores_hessian(x)
        ll, grad = float(_ordered_sum(lls)), _ordered_sum(new_rows)
        opt = replace(opt, vg_passes=opt.vg_passes + 1)
        if not (np.isfinite(ll) and np.isfinite(grad).all()
                and norm(grad) < norm(opt.grad)):
            break
        opt = replace(opt, x=x, loglik=ll, grad=grad, iterations=opt.iterations + 1,
                      converged=bool(norm(grad) <= gtol), stop="newton")
        rows, hessian = new_rows, new_hessian
    return opt, rows, hessian


def covariance_hessian(hessian: np.ndarray) -> np.ndarray:
    """(-H)^-1 for a negative-definite log-likelihood Hessian."""
    neg = -np.asarray(hessian, dtype=float)
    if not np.isfinite(neg).all():
        raise SingularHessian("Hessian at the optimum is not finite")
    try:
        np.linalg.cholesky(neg)
        cov = np.linalg.inv(neg)
    except np.linalg.LinAlgError:
        raise SingularHessian(
            "Hessian at the optimum is singular or not negative definite"
        ) from None
    return 0.5 * (cov + cov.T)


def covariance_cluster(
    hessian: np.ndarray, scores: np.ndarray, clusters
) -> np.ndarray:
    """Cluster sandwich (-H)^-1 [C/(C-1) sum_c g_c g_c'] (-H)^-1.

    ``scores`` holds per-individual gradient rows at the optimum; ``clusters``
    assigns each row a cluster id.  Scores are summed within clusters before
    forming the meat.
    """
    scores = np.asarray(scores, dtype=float)
    clusters = np.asarray(list(clusters))
    if clusters.shape[0] != scores.shape[0]:
        raise ValueError("one cluster id per score row required")
    unique, inverse = np.unique(clusters, return_inverse=True)
    n_clusters = unique.size
    if n_clusters < 2:
        raise InvalidOption("cluster sandwich needs at least 2 clusters")
    if n_clusters < scores.shape[1]:
        warnings.warn(
            f"only {n_clusters} clusters for {scores.shape[1]} parameters; "
            "the sandwich covariance is rank deficient",
            FewerClustersThanParameters,
        )
    grouped = np.zeros((n_clusters, scores.shape[1]))
    np.add.at(grouped, inverse, scores)
    meat = (n_clusters / (n_clusters - 1.0)) * (grouped.T @ grouped)
    bread = covariance_hessian(hessian)
    return bread @ meat @ bread


def covariance_robust(hessian: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Heteroskedasticity-robust sandwich: one singleton cluster per row."""
    return covariance_cluster(hessian, scores, np.arange(len(scores)))


# -- objective plumbing -------------------------------------------------------


def _loglik(design: ModelDesign, draws: np.ndarray, x) -> float:
    """The log-likelihood at ``x``: one :meth:`ModelDesign.walk` with the
    log-likelihood kernel, whose terms are added in dataset order."""
    terms = design.walk(design.individual_loglik, design.unpack(x), draws)
    return float(_ordered_sum(np.concatenate(terms)))


def individual_scores(design: ModelDesign, draws: np.ndarray, x, hessian=False):
    """Per-individual log-likelihood terms (N,) and gradient rows (N, P) at
    ``x``; the only pass that evaluates the gradient: one
    :meth:`ModelDesign.walk` with the value+gradient kernel.  With
    ``hessian``, also the log-likelihood Hessian (P, P): the block Hessians
    added in block (dataset) order, then symmetrised."""
    walked = design.walk(design.individual_loglik_gradient, design.unpack(x), draws,
                         hessian)
    terms, grads, *hessians = zip(*walked)
    lls, rows = np.concatenate(terms), np.concatenate(grads)
    if not hessian:
        return lls, rows
    total = _ordered_sum(np.stack(hessians[0]))
    return lls, rows, 0.5 * (total + total.T)


def simulated_loglik(
    ds: ChoiceDataset, spec: ModelSpec, theta: ParameterVector,
    draws: np.ndarray,
) -> float:
    """Evaluate the (simulated) log-likelihood at a given parameter point,
    averaging over ``draws`` (N, K, R), e.g. ``ModelDesign.draws(...)``."""
    return _loglik(ModelDesign(ds, spec, draws.shape[-1]), draws, theta.pack())


# -- fitting -------------------------------------------------------------------


def fit_classical(
    ds: ChoiceDataset, spec: ModelSpec, opts: FitOptions | None = None
) -> FitResult:
    """Fit the fixed-coefficient regret model by maximum likelihood."""
    if spec.n_random:
        raise ValueError("classical fit requires a spec without random attributes")
    return _run_fit(ds, spec, opts or FitOptions())


def fit_mixed(
    ds: ChoiceDataset, spec: ModelSpec, opts: FitOptions | None = None
) -> FitResult:
    """Fit the mixed regret model by maximum simulated likelihood.

    The Halton draw set is built once and held fixed for the whole
    optimization.  Without explicit starting values, fixed coefficients and
    random-coefficient locations come from a preliminary classical fit on
    the same attributes; scales start at 0.1 and constants at 0.
    """
    if spec.n_random < 1:
        raise ValueError("mixed fit requires at least one random attribute")
    return _run_fit(ds, spec, opts or FitOptions())


def _starting_values(design: ModelDesign, opts: FitOptions) -> np.ndarray:
    spec = design.spec
    prelim_spec = ModelSpec(fixed_attrs=design.model_attrs, use_asc=spec.use_asc,
                            base_alternative=spec.base_alternative)
    prelim_opts = FitOptions(
        maxiter=opts.maxiter, gtol=opts.gtol, level=opts.level, covariance="hessian",
    )
    try:
        prelim = fit_classical(design.ds, prelim_spec, prelim_opts)
    except NonConvergence as err:
        warnings.warn(
            "preliminary classical fit did not converge; "
            "using its last iterate for starting values"
        )
        prelim = err.result
    # the preliminary fit's coefficients are the design's attributes, in order
    classical = prelim.theta_hat.fixed
    f, k = design.n_fixed, design.n_random
    location = [(math.log(abs(b)) if b != 0.0 else math.log(0.1))
                if spec.is_lognormal(j) else b
                for j, b in enumerate(classical[f:].tolist())]
    # scales start at 0.1, constants at 0
    return ParameterVector(classical[:f], np.array(location, dtype=float),
                           np.full(k, 0.1), np.zeros(design.n_asc)).pack()


def _run_fit(ds: ChoiceDataset, spec: ModelSpec, opts: FitOptions) -> FitResult:
    if opts.covariance == "cluster" and (
            ds.cluster is None or np.unique(ds.individual_clusters).size < 2):
        raise InvalidOption("a cluster covariance needs a cluster column with "
                            "at least 2 clusters")
    if opts.covariance == "robust" and ds.n_individuals < 2:
        raise InvalidOption("a robust covariance (--robust) needs at least 2 "
                            "individuals")
    design = ModelDesign(ds, spec, opts.nrep)
    draws = design.draws(opts.burn)
    if opts.start is not None:
        x0 = opts.start
    elif spec.n_random:
        x0 = _starting_values(design, opts)
    else:
        x0 = np.zeros(design.n_params)
    if np.shape(x0) != (design.n_params,):
        raise InvalidOption(f"start has shape {np.shape(x0)}; the model has "
                            f"{design.n_params} parameters")
    opt = _maximize(
        lambda x: _loglik(design, draws, x),
        lambda x: individual_scores(design, draws, x), x0,
        maxiter=opts.maxiter, gtol=opts.gtol)
    with np.errstate(all="ignore"):  # an unconverged fit's last point may overflow
        scores_hessian = lambda x: individual_scores(design, draws, x, hessian=True)
        _, scores, hessian = scores_hessian(opt.x)
        if opt.stop == "line_search":
            opt, scores, hessian = _newton_finish(opt, scores_hessian, scores, hessian,
                                                  opts.maxiter, opts.gtol)

    try:
        if opts.covariance == "hessian":
            cov = covariance_hessian(hessian)
        elif opts.covariance == "robust":
            cov = covariance_robust(hessian, scores)
        else:
            cov = covariance_cluster(hessian, scores, ds.individual_clusters)
    except SingularHessian:
        if opt.converged:
            raise
        cov = np.full((design.n_params, design.n_params), np.nan)

    result = FitResult(
        spec=design.spec,
        alternative_labels=design.ds.alternative_labels,
        theta=opt.x,
        loglik=opt.loglik,
        n_individuals=design.ds.n_individuals,
        n_situations=design.ds.n_situations,
        covariance=cov,
        covariance_kind=opts.covariance,
        level=opts.level,
        converged=opt.converged,
        iterations=opt.iterations,
        gradient_norm=float(np.max(np.abs(opt.grad))),
        nrep=design.nrep,
        burn=opts.burn,
        stop=opt.stop, ll_passes=opt.ll_passes, vg_passes=opt.vg_passes,
    )
    if not opt.converged:
        raise NonConvergence(
            f"no convergence after {opt.iterations} iterations (stop: "
            f"{opt.stop}; max |gradient| = {result.gradient_norm:.3e})",
            result=result,
        )
    return result


# -- serialization --------------------------------------------------------------

# layout version written to every fit JSON; schema 1, also read, differs
# only in a classical fit's ``nrep``, stored as 0 rather than 1
FIT_SCHEMA = 2


def fit_result_to_json(fit: FitResult) -> dict:
    """JSON-ready dict; includes the model block needed to reload the fit.
    NaN is written as null, so the output is strict JSON."""
    return {
        "schema": FIT_SCHEMA,
        "estimates": [
            {"name": name, "coef": float(coef),
             **dict(zip(("se", "z", "p", "ci_low", "ci_high"), map(_nan_to_none, rest)))}
            for name, coef, *rest in fit.coefficient_rows
        ],
        "loglik": fit.loglik,
        "nrep": fit.nrep,
        "burn": fit.burn,
        "converged": fit.converged,
        "covariance_kind": fit.covariance_kind,
        "covariance": [[_nan_to_none(v) for v in row] for row in fit.covariance],
        "model": {
            "fixed_attrs": list(fit.spec.fixed_attrs),
            "random_attrs": list(fit.spec.random_attrs),
            "ln_count": fit.spec.ln_count,
            "use_asc": fit.spec.use_asc,
            "base_alternative": fit.spec.base_alternative,
            "alternative_labels": list(fit.alternative_labels),
        },
        "theta": [float(v) for v in fit.theta],
        "level": fit.level,
        "n_individuals": fit.n_individuals,
        "n_situations": fit.n_situations,
        "n_parameters": fit.n_parameters,
        "iterations": fit.iterations,
        "gradient_norm": fit.gradient_norm,
    }


def _nan_to_none(value):
    value = float(value)
    return None if math.isnan(value) else value


# the JSON type of every field the reader uses (``_has_type``), by path
# ("model.x" is x in the model block)
_FIELD_TYPES = {
    "schema": int, "model": dict, "model.fixed_attrs": [str],
    "model.random_attrs": [str], "model.ln_count": int, "model.use_asc": bool,
    "model.base_alternative": (int, None), "model.alternative_labels": [int],
    "theta": [float], "covariance": [[(float, None)]], "covariance_kind": str,
    "loglik": float, "level": float, "converged": bool, "iterations": int,
    "gradient_norm": float, "n_individuals": int, "n_situations": int,
    "nrep": int, "burn": int,
}


def fit_result_from_json(payload: dict) -> FitResult:
    """Rebuild a FitResult from :func:`fit_result_to_json` output.

    Reads schema 2 and schema 1, whose classical fits store ``nrep`` 0;
    that is read as 1, the classical design's one draw.  Raises
    :class:`InvalidFitFile`, naming the field, for a missing or unknown
    ``schema``, a missing field, a value of the wrong type, a ``model``
    block that :class:`ModelSpec` refuses, and a ``theta`` or
    ``covariance`` whose size disagrees with the model block.
    """
    if not isinstance(payload, dict):
        raise InvalidFitFile("a fit file holds one JSON object")
    f = {"": payload}
    for path, kind in _FIELD_TYPES.items():
        block, _, key = path.rpartition(".")
        if key not in f[block]:
            raise InvalidFitFile(f"field {path!r} is missing")
        f[path] = f[block][key]
        if not _has_type(f[path], kind):
            raise InvalidFitFile(f"field {path!r} has the wrong type")
        if path == "schema" and f[path] not in (1, FIT_SCHEMA):
            raise InvalidFitFile(f"field 'schema' is {f[path]}; this version "
                                 f"reads schemas 1 and {FIT_SCHEMA}")
    try:
        spec = ModelSpec(**{key: f[f"model.{key}"] for key in (
            "fixed_attrs", "random_attrs", "ln_count", "use_asc", "base_alternative")})
    except SpecMismatch as err:
        raise InvalidFitFile(f"field 'model': {err}") from None
    if f["schema"] == 1 and not spec.n_random and f["nrep"] == 0:
        f["nrep"] = 1
    labels = tuple(f["model.alternative_labels"])
    n_params = len(spec.param_names(labels))
    theta, cov = f["theta"], f["covariance"]
    if len(theta) != n_params:
        raise InvalidFitFile(f"field 'theta' has {len(theta)} entries; the model "
                             f"block implies {n_params}")
    if len(cov) != n_params or any(len(row) != n_params for row in cov):
        raise InvalidFitFile(f"field 'covariance' is not {n_params} x {n_params} "
                             "as the model block implies")
    scalars = ("loglik", "n_individuals", "n_situations", "covariance_kind",
               "level", "converged", "iterations", "gradient_norm", "nrep", "burn")
    return FitResult(
        spec=spec,
        alternative_labels=labels,
        theta=np.array(theta, dtype=float),
        covariance=np.array(
            [[np.nan if v is None else v for v in row] for row in cov], dtype=float
        ),
        **{key: f[key] for key in scalars},
    )


def save_fit_json(fit: FitResult, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(fit_result_to_json(fit), handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_fit_json(path) -> FitResult:
    """Read a fit written by :func:`save_fit_json`; a file that is not UTF-8
    JSON or not a valid fit raises :class:`InvalidFitFile` naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return fit_result_from_json(json.load(handle))
    except (InvalidFitFile, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise InvalidFitFile(f"{path}: {err}") from None
