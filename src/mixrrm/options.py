"""Fit options, the draw settings they share with post-estimation, and the
JSON rules of the fit file, in a module that loads no numeric library: the
command line reads the fit defaults before it caps numeric worker threads."""

import math
from dataclasses import dataclass

from .errors import InvalidOption


def _has_type(value, kind) -> bool:
    """Whether a JSON value has ``kind``: a type, ``None``, ``[kind]`` or a
    tuple of kinds; float admits integers, and no number admits a boolean."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_type(v, kind[0]) for v in value)
    if isinstance(kind, tuple):
        return any(_has_type(value, k) for k in kind)
    if kind is None or isinstance(value, bool):
        return value is kind or kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _finite_json(value):
    """``value`` for a strict JSON dump: every float in it, through dicts
    and lists, as itself if finite and as None (null) if not."""
    if isinstance(value, dict):
        return {key: _finite_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_json(item) for item in value]
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    return value


def draw_settings(owner, nrep=None, burn=None) -> tuple[int, int]:
    """The ``nrep`` and ``burn`` in effect, ``owner``'s (a fit's or options')
    unless given; InvalidOption if ``nrep`` is below 1 or ``burn`` negative."""
    nrep = owner.nrep if nrep is None else nrep
    burn = owner.burn if burn is None else burn
    if nrep < 1:
        raise InvalidOption(f"nrep {nrep!r} is below 1")
    if burn < 0:
        raise InvalidOption(f"burn {burn!r} is negative")
    return nrep, burn


@dataclass
class FitOptions:
    """Optimizer and inference settings shared by both fit entry points,
    checked on construction (the start length, and a cluster covariance's
    cluster column, when a fit starts)."""

    maxiter: int = 200
    gtol: float = 1e-6
    start: object = None  # numbers, kept as a float array
    level: float = 95.0
    covariance: str = "hessian"  # hessian | robust | cluster
    nrep: int = 50
    burn: int = 15

    def __post_init__(self):
        if not 0.0 < self.level < 100.0:
            raise InvalidOption(f"level {self.level!r} is outside (0, 100)")
        if self.maxiter < 0:
            raise InvalidOption(f"maxiter {self.maxiter!r} is negative")
        if not 0.0 < self.gtol < float("inf"):
            raise InvalidOption(f"gtol {self.gtol!r} is not positive and finite")
        if self.covariance not in ("hessian", "robust", "cluster"):
            raise InvalidOption(f"unknown covariance kind {self.covariance!r}")
        draw_settings(self)
        if self.start is not None:
            import numpy as np  # options are made after the thread cap
            try:
                entries = np.asarray(self.start, dtype=object).ravel().tolist()
            except ValueError:  # arrays of clashing shapes
                entries = None
            if not _has_type(entries, [float]):
                raise InvalidOption("start is not a list of numbers")
            self.start = np.asarray(self.start, dtype=float)
