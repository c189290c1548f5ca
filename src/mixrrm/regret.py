"""Regret, choice probability, and log-likelihood kernels.

An alternative's systematic regret is the sum, over every rival alternative
and every attribute, of ``ln(1 + exp(beta_m * (x_rival - x_own)))`` plus an
alternative-specific constant; choice probabilities are the softmax of the
negated regrets.  The mixed model draws the random coefficients once per
individual, multiplies the chosen-alternative probabilities across that
individual's choice situations, and averages the product over draws.

Everything here is a pure function of its inputs.  The hot path is
:meth:`ModelDesign.individual_loglik_gradient`, vectorized over draws and
situations within one individual.  The test suite checks it against a
first-principles reference written with plain loops (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ChoiceDataset, IndividualBlock
from .draws import build_drawset
from .errors import SpecMismatch


def softplus(x):
    """ln(1 + exp(x)) without overflow: max(x, 0) + log1p(exp(-|x|))."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


@dataclass(frozen=True)
class ModelSpec:
    """Which attributes enter the regret, and how their coefficients behave.

    ``random_attrs`` keeps declaration order: prime bases for the Halton
    streams are assigned in that order, and the last ``ln_count`` entries
    are log-normally rather than normally distributed.  ``base_alternative``
    is the label whose constant is pinned to 0; ``None`` means the lowest
    label.
    """

    fixed_attrs: tuple[str, ...] = ()
    random_attrs: tuple[str, ...] = ()
    ln_count: int = 0
    use_asc: bool = False
    base_alternative: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "fixed_attrs", tuple(self.fixed_attrs))
        object.__setattr__(self, "random_attrs", tuple(self.random_attrs))

    @property
    def n_fixed(self) -> int:
        return len(self.fixed_attrs)

    @property
    def n_random(self) -> int:
        return len(self.random_attrs)

    def is_lognormal(self, k: int) -> bool:
        return k >= self.n_random - self.ln_count

    def asc_labels(self, alternative_labels) -> tuple[int, ...]:
        """Labels with a free constant: every sorted label but the base."""
        if not self.use_asc:
            return ()
        base = self.base_alternative
        if base is None:
            base = alternative_labels[0]
        return tuple(l for l in alternative_labels if l != base)

    def param_names(self, alternative_labels) -> tuple[str, ...]:
        """Parameter names in packing order [fixed | location | scale | asc]."""
        return (
            *self.fixed_attrs,
            *self.random_attrs,
            *(f"sd.{a}" for a in self.random_attrs),
            *(f"asc.{l}" for l in self.asc_labels(alternative_labels)),
        )

    def validate(self, ds: ChoiceDataset) -> None:
        overlap = set(self.fixed_attrs) & set(self.random_attrs)
        if overlap:
            raise SpecMismatch(f"attributes both fixed and random: {sorted(overlap)}")
        if not self.fixed_attrs and not self.random_attrs:
            raise SpecMismatch("model has no attributes")
        for attr in (*self.fixed_attrs, *self.random_attrs):
            if attr not in ds.attribute_names:
                raise SpecMismatch(f"attribute {attr!r} not in dataset")
        if not 0 <= self.ln_count <= self.n_random:
            raise SpecMismatch(
                f"ln_count {self.ln_count} outside 0..{self.n_random}"
            )
        if self.use_asc and self.base_alternative is not None:
            if self.base_alternative not in ds.alternative_labels:
                raise SpecMismatch(
                    f"base alternative {self.base_alternative} not in dataset"
                )


@dataclass
class ParameterVector:
    """Free parameters, packed in the order [fixed | location | scale | asc]."""

    fixed: np.ndarray
    rand_location: np.ndarray
    rand_scale: np.ndarray
    asc: np.ndarray

    def pack(self) -> np.ndarray:
        return np.concatenate(
            [self.fixed, self.rand_location, self.rand_scale, self.asc]
        )

    @classmethod
    def unpack(cls, vec, n_fixed: int, n_random: int, n_asc: int) -> "ParameterVector":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (n_fixed + 2 * n_random + n_asc,):
            raise ValueError(
                f"expected {n_fixed + 2 * n_random + n_asc} packed parameters, "
                f"got {vec.shape}"
            )
        f, k = n_fixed, n_random
        return cls(
            fixed=vec[:f].copy(),
            rand_location=vec[f:f + k].copy(),
            rand_scale=vec[f + k:f + 2 * k].copy(),
            asc=vec[f + 2 * k:].copy(),
        )


@dataclass(frozen=True)
class _BlockData:
    """Precomputed tensors for one individual (S situations padded to J)."""

    avail: np.ndarray        # (S, J) bool
    chosen: np.ndarray       # (S,) int, position within the situation
    diffs: np.ndarray        # (S, J, J, M): x[j] - x[i] per attribute
    pair_mask: np.ndarray    # (S, J, J) bool: both available, i != j
    asc_pos: np.ndarray      # (S, J) int index into asc vector, -1 for base
    asc_onehot: np.ndarray   # (S, J, n_asc) float


class ModelDesign:
    """A ModelSpec bound to a ChoiceDataset, with precomputed tensors."""

    def __init__(self, ds: ChoiceDataset, spec: ModelSpec):
        spec.validate(ds)
        self.ds = ds
        self.spec = spec

        self.model_attrs = tuple(
            a for a in ds.attribute_names
            if a in spec.fixed_attrs or a in spec.random_attrs
        )
        self.attr_indices = np.array(
            [ds.attribute_index(a) for a in self.model_attrs], dtype=np.intp
        )
        self._fixed_pos = np.array(
            [self.model_attrs.index(a) for a in spec.fixed_attrs], dtype=np.intp
        )
        self._random_pos = np.array(
            [self.model_attrs.index(a) for a in spec.random_attrs], dtype=np.intp
        )
        self._lognormal = np.array(
            [spec.is_lognormal(k) for k in range(spec.n_random)], dtype=bool
        )

        self.asc_labels = spec.asc_labels(ds.alternative_labels)
        self.param_names = spec.param_names(ds.alternative_labels)
        self.n_fixed = spec.n_fixed
        self.n_random = spec.n_random
        self.n_asc = len(self.asc_labels)
        self.n_params = len(self.param_names)

        asc_index = {label: a for a, label in enumerate(self.asc_labels)}
        self._blocks = [
            self._build_block(block, asc_index) for block in ds.individuals
        ]

    # -- packing ------------------------------------------------------------

    def unpack(self, vec) -> ParameterVector:
        return ParameterVector.unpack(vec, self.n_fixed, self.n_random, self.n_asc)

    def draws(self, nrep: int = 0, burn: int = 0) -> np.ndarray:
        """Read-only (N, K, R) standard-normal draws: ``nrep`` Halton draws
        per individual after ``burn`` for a mixed model; one zero draw,
        (N, 0, 1), for a classical one, which is the same likelihood."""
        if self.n_random:
            return build_drawset(self.ds.n_individuals, self.n_random, nrep, burn)
        zero = np.zeros((self.ds.n_individuals, 0, 1))
        zero.setflags(write=False)
        return zero

    # -- construction ---------------------------------------------------------

    def _build_block(self, block: IndividualBlock, asc_index) -> _BlockData:
        n_sit = block.n_situations
        j_max = max(s.n_alternatives for s in block.situations)
        n_model = len(self.model_attrs)

        x = np.zeros((n_sit, j_max, n_model))
        avail = np.zeros((n_sit, j_max), dtype=bool)
        chosen = np.zeros(n_sit, dtype=np.intp)
        asc_pos = np.full((n_sit, j_max), -1, dtype=np.intp)
        for s, sit in enumerate(block.situations):
            j_here = sit.n_alternatives
            x[s, :j_here] = sit.attribute_matrix()[:, self.attr_indices]
            avail[s, :j_here] = True
            chosen[s] = sit.chosen_index
            for j, (label, _, _) in enumerate(sit.alternatives):
                asc_pos[s, j] = asc_index.get(label, -1)

        diffs = x[:, None, :, :] - x[:, :, None, :]  # [s,i,j,m] = x[j,m]-x[i,m]
        pair = avail[:, :, None] & avail[:, None, :]
        pair &= ~np.eye(j_max, dtype=bool)[None]

        asc_onehot = np.zeros((n_sit, j_max, self.n_asc))
        if self.n_asc:
            s_idx, j_idx = np.nonzero(asc_pos >= 0)
            asc_onehot[s_idx, j_idx, asc_pos[s_idx, j_idx]] = 1.0

        return _BlockData(
            avail=avail, chosen=chosen, diffs=diffs, pair_mask=pair,
            asc_pos=asc_pos, asc_onehot=asc_onehot,
        )

    # -- coefficient realization ---------------------------------------------

    def realize_batch(self, theta: ParameterVector, z: np.ndarray) -> np.ndarray:
        """Realized coefficients per draw, shape (R, M) in model-attr order.

        ``z`` is (K, R); normal entries become b + s*z, log-normal entries
        exp(b + s*z), fixed entries are copied into every draw.  A model
        with no random coefficients takes its one zero draw, shape (0, 1),
        from :meth:`draws`.
        """
        n_draws = z.shape[1]
        beta = np.empty((n_draws, len(self.model_attrs)))
        beta[:, self._fixed_pos] = theta.fixed
        if self.n_random:
            vals = theta.rand_location[:, None] + theta.rand_scale[:, None] * z
            vals[self._lognormal] = np.exp(vals[self._lognormal])
            beta[:, self._random_pos] = vals.T
        return beta

    def random_coefficient_draws(self, theta, z) -> np.ndarray:
        """(R, K) realized random coefficients, coefficient scale, declared order."""
        return self.realize_batch(theta, z)[:, self._random_pos]

    def available(self, position: int) -> np.ndarray:
        """(S, J) mask of the slots holding data rows (dataset order in C order)."""
        return self._blocks[position].avail

    # -- per-individual kernels ------------------------------------------------

    def _draw_regrets(self, bd: _BlockData, beta, theta, want_gradient):
        """Regrets (R,S,J) and, when asked, d(regret)/d(beta) (R,S,J,M)."""
        activation = beta[:, None, None, None, :] * bd.diffs[None]
        sp = softplus(activation)
        d_regret = None
        if want_gradient:
            # softplus'(x) = logistic(x) = exp(x - softplus(x)), never overflows
            sig = np.exp(activation - sp)
            sig *= bd.pair_mask[None, ..., None]
            d_regret = np.einsum("rsijm,sijm->rsim", sig, bd.diffs)
        sp *= bd.pair_mask[None, ..., None]
        regrets = sp.sum(axis=(3, 4))
        if self.n_asc:
            safe = np.maximum(bd.asc_pos, 0)
            asc_vals = np.where(bd.asc_pos >= 0, theta.asc[safe], 0.0)
            regrets = regrets + asc_vals[None]
        return regrets, d_regret

    def _probabilities(self, bd: _BlockData, regrets):
        """Per-draw choice probabilities (R,S,J) and chosen log-probs (R,S)."""
        neg = np.where(bd.avail[None], -regrets, -np.inf)
        peak = neg.max(axis=2, keepdims=True)
        expn = np.exp(neg - peak)
        denom = expn.sum(axis=2, keepdims=True)
        probs = expn / denom
        lse = peak[..., 0] + np.log(denom[..., 0])
        s_idx = np.arange(bd.chosen.shape[0])
        ln_chosen = neg[:, s_idx, bd.chosen] - lse
        return probs, ln_chosen

    def individual_draw_info(self, position: int, theta, z):
        """Per-draw sequence log-probs (R,) and probabilities (R,S,J)."""
        bd = self._blocks[position]
        beta = self.realize_batch(theta, z)
        regrets, _ = self._draw_regrets(bd, beta, theta, want_gradient=False)
        probs, ln_chosen = self._probabilities(bd, regrets)
        return ln_chosen.sum(axis=1), probs

    def individual_loglik(self, position: int, theta, z) -> float:
        ln_seq, _ = self.individual_draw_info(position, theta, z)
        return _log_mean_exp(ln_seq)

    def individual_loglik_gradient(self, position: int, theta, z):
        """Simulated log-likelihood term of one individual and its gradient.

        Returns ``(ll, grad)`` where ``ll = ln((1/R) sum_r P_n(asc, beta^r))``
        and ``grad`` is exact with respect to the packed parameter vector.
        """
        bd = self._blocks[position]
        beta = self.realize_batch(theta, z)
        regrets, d_regret = self._draw_regrets(bd, beta, theta, want_gradient=True)
        probs, ln_chosen = self._probabilities(bd, regrets)

        # d ln P(chosen) / d R_i = P_i - 1[i = chosen]
        resid = probs.copy()
        s_idx = np.arange(bd.chosen.shape[0])
        resid[:, s_idx, bd.chosen] -= 1.0

        g_beta = np.einsum("rsi,rsim->rm", resid, d_regret)

        n_draws = beta.shape[0]
        per_draw = np.empty((n_draws, self.n_params))
        per_draw[:, :self.n_fixed] = g_beta[:, self._fixed_pos]
        if self.n_random:
            g_rand = g_beta[:, self._random_pos]
            # chain rule: d beta/d b is 1 (normal) or beta (log-normal);
            # d beta/d s multiplies that by the draw.
            link = np.where(
                self._lognormal[None], beta[:, self._random_pos], 1.0
            )
            f, k = self.n_fixed, self.n_random
            per_draw[:, f:f + k] = g_rand * link
            per_draw[:, f + k:f + 2 * k] = g_rand * link * z.T
        if self.n_asc:
            per_draw[:, self.n_fixed + 2 * self.n_random:] = np.einsum(
                "rsi,sia->ra", resid, bd.asc_onehot
            )

        ln_seq = ln_chosen.sum(axis=1)
        peak = ln_seq.max()
        weights = np.exp(ln_seq - peak)
        total = weights.sum()
        ll = peak + np.log(total) - np.log(n_draws)
        weights /= total
        return ll, weights @ per_draw


def _log_mean_exp(values: np.ndarray) -> float:
    peak = values.max()
    return float(peak + np.log(np.exp(values - peak).sum()) - np.log(values.size))
