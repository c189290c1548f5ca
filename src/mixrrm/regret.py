"""Regret, choice probability, and log-likelihood kernels.

An alternative's systematic regret is the sum, over every rival alternative
and every attribute, of ``ln(1 + exp(beta_m * (x_rival - x_own)))`` plus an
alternative-specific constant; choice probabilities are the softmax of the
negated regrets.  The mixed model draws the random coefficients once per
individual, multiplies the chosen-alternative probabilities across that
individual's choice situations, and averages the product over draws.

Everything here is a pure function of its inputs.  The hot path is
:meth:`ModelDesign.individual_loglik_gradient`, vectorized over draws and
situations within one individual.  It evaluates each unordered pair of
alternatives i < j once: with a = beta_m * (x_j - x_i), i bears
ln(1 + exp(a)) and j bears ln(1 + exp(-a)), both from one exp(-|a|).  The
fixed attributes and the constants form a base that does not depend on the
draw, so only the random attributes are evaluated per draw.  The same pass
can also return the individual's exact Hessian, built from the same pair
logistics.  The test suite checks the kernel against a first-principles
reference written with plain loops (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ChoiceDataset
from .draws import build_drawset
from .errors import SpecMismatch


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
    """Precomputed tensors for one individual: S situations padded to J slots
    and their P = J(J-1)/2 unordered slot pairs i < j.  The draw axis goes
    last (a trailing 1 here), so every kernel reduction adds whole slabs."""

    avail: np.ndarray        # (S, J) bool
    chosen: np.ndarray       # (S,) int, position within the situation
    d_fixed: np.ndarray      # (Mf, P, S, 1) x[j] - x[i], fixed attributes
    d_random: np.ndarray     # (Mr, P, S, 1) x[j] - x[i], random attributes
    live: np.ndarray         # (P, S, 1) float: 1 where both slots hold data
    incidence: np.ndarray    # (2P, J): row p marks slot i of pair p, row P+p slot j
    asc_onehot: np.ndarray   # (J, S, n_asc) float


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

        # every row goes to its slot in one (situations, J, M) padded array;
        # an individual's block is its run of situations, J cut to its widest
        starts = ds.situation_starts
        sizes = np.diff(starts, append=ds.n_rows)
        row_sit = np.repeat(np.arange(starts.size), sizes)
        slot = np.arange(ds.n_rows) - starts[row_sit]
        shape = (starts.size, sizes.max(initial=0))
        x = np.zeros((*shape, len(self.model_attrs)))
        x[row_sit, slot] = ds.attributes[:, self.attr_indices]
        avail = np.arange(shape[1]) < sizes[:, None]
        asc_onehot = np.zeros((shape[1], shape[0], self.n_asc))
        asc_onehot[slot, row_sit] = ds.alternative[:, None] == np.array(self.asc_labels)
        chosen = slot[ds.chosen]

        bounds = np.append(ds.individual_starts, starts.size)
        widths = np.maximum.reduceat(sizes, bounds[:-1])
        pairs = {}  # J -> slot pairs and incidence, shared by blocks of equal J
        self._blocks = [
            self._build_block(x[a:b, :j], avail[a:b, :j], chosen[a:b],
                              asc_onehot[:j, a:b].copy(), pairs)
            for a, b, j in zip(bounds[:-1], bounds[1:], widths)
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

    def _build_block(self, x, avail, chosen, asc_onehot, pairs) -> _BlockData:
        """One individual's block from its (S, J, M) attributes, (S, J)
        slots, (S,) chosen slots and (J, S, n_asc) constants."""
        j_max = avail.shape[1]
        if j_max not in pairs:
            first, second = np.triu_indices(j_max, 1)
            pairs[j_max] = first, second, np.eye(j_max)[np.r_[first, second]]
        first, second, incidence = pairs[j_max]
        live = (avail[:, first] & avail[:, second]).T[..., None]
        # a pair with a padded slot gets a zero difference, so it adds
        # nothing to the gradient; ``live`` masks it out of the regrets
        pair_diff = (x[:, second] - x[:, first]).T[..., None] * live

        return _BlockData(
            avail=avail, chosen=chosen, d_fixed=pair_diff[self._fixed_pos],
            d_random=pair_diff[self._random_pos], live=live.astype(float),
            incidence=incidence, asc_onehot=asc_onehot,
        )

    # -- coefficient realization ---------------------------------------------

    def realize_batch(self, theta: ParameterVector, z: np.ndarray) -> np.ndarray:
        """Realized coefficients per draw, shape (R, M) in model-attr order.

        ``z`` is (K, R); normal entries become b + s*z, log-normal entries
        exp(b + s*z), fixed entries are copied into every draw.  A model
        with no random coefficients takes its one zero draw, shape (0, 1),
        from :meth:`draws`.
        """
        beta = np.empty((z.shape[1], len(self.model_attrs)))
        beta[:, self._fixed_pos] = theta.fixed
        beta[:, self._random_pos] = self.random_coefficient_draws(theta, z)
        return beta

    def random_coefficient_draws(self, theta, z) -> np.ndarray:
        """(R, K) realized random coefficients, coefficient scale, declared order."""
        vals = theta.rand_location[:, None] + theta.rand_scale[:, None] * z
        np.exp(vals, out=vals, where=self._lognormal[:, None])
        return vals.T

    def available(self, position: int) -> np.ndarray:
        """(S, J) mask of the slots holding data rows (dataset order in C order)."""
        return self._blocks[position].avail

    # -- per-individual kernels ------------------------------------------------

    def _draw_regrets(self, bd: _BlockData, theta, coefs, want_gradient):
        """Regrets (J,S,R) under the (K,R) random coefficients ``coefs``: a
        draw-invariant (J,S,1) base of the fixed attributes and constants plus
        the random attributes' terms; with ``want_gradient`` also the pair
        logistics of the fixed (Mf,P,S,1) and random (Mr,P,S,R) attributes."""
        fixed, sig_fixed = _pair_terms(
            theta.fixed[:, None, None, None] * bd.d_fixed, bd.live, want_gradient
        )
        regrets = _lead(bd.incidence.T, fixed) + (bd.asc_onehot @ theta.asc)[..., None]
        if not self.n_random:  # a classical model: the base is all there is
            return regrets, sig_fixed, None
        drawn, sig_random = _pair_terms(
            coefs[:, None, None, :] * bd.d_random, bd.live, want_gradient
        )
        return regrets + _lead(bd.incidence.T, drawn), sig_fixed, sig_random

    def _probabilities(self, bd: _BlockData, regrets):
        """Per-draw choice probabilities (J,S,R) and chosen log-probs (S,R)."""
        neg = np.where(bd.avail.T[..., None], -regrets, -np.inf)
        peak = neg.max(axis=0)
        expn = np.exp(neg - peak)
        denom = expn.sum(axis=0)
        probs = expn / denom
        lse = peak + np.log(denom)
        return probs, neg[bd.chosen, np.arange(bd.chosen.size)] - lse

    def individual_draw_info(self, position: int, theta, z):
        """Per-draw sequence log-probs (R,) and probabilities (R,S,J)."""
        bd = self._blocks[position]
        coefs = self.random_coefficient_draws(theta, z).T
        regrets, _, _ = self._draw_regrets(bd, theta, coefs, want_gradient=False)
        probs, ln_chosen = self._probabilities(bd, regrets)
        return ln_chosen.sum(axis=0), probs.T

    def individual_loglik(self, position: int, theta, z) -> float:
        ln_seq, _ = self.individual_draw_info(position, theta, z)
        return _log_mean_exp(ln_seq)

    def individual_loglik_gradient(self, position: int, theta, z, hessian=False):
        """Simulated log-likelihood term of one individual and its gradient.

        Returns ``(ll, grad)`` where ``ll = ln((1/R) sum_r P_n(asc, beta^r))``
        and ``grad`` is exact with respect to the packed parameter vector;
        with ``hessian``, ``(ll, grad, hess)``, where ``hess`` is the exact
        (P, P) Hessian of ``ll``, symmetric up to rounding.
        """
        bd = self._blocks[position]
        coefs = self.random_coefficient_draws(theta, z).T
        regrets, sig_fixed, sig_random = self._draw_regrets(
            bd, theta, coefs, want_gradient=True
        )
        probs, ln_chosen = self._probabilities(bd, regrets)

        # d ln P(chosen) / d R_i = P_i - 1[i = chosen]
        resid = probs.copy()
        resid[bd.chosen, np.arange(bd.chosen.size)] -= 1.0
        res_i, res_j = _lead(bd.incidence, resid).reshape(2, -1, *resid.shape[1:])

        n_draws = z.shape[1]
        f, k = self.n_fixed, self.n_random
        # chain rule: d beta/d b is 1 (normal) or beta (log-normal);
        # d beta/d s multiplies that by the draw.
        chain = np.where(self._lognormal[:, None], coefs, 1.0)
        per_draw = np.empty((self.n_params, n_draws))
        per_draw[:f] = _pair_gradient(bd.d_fixed, sig_fixed, res_i, res_j)
        if self.n_random:
            g_rand = _pair_gradient(bd.d_random, sig_random, res_i, res_j)
            g_rand *= chain
            per_draw[f:f + k] = g_rand
            per_draw[f + k:f + 2 * k] = g_rand * z
        if self.n_asc:
            per_draw[f + 2 * k:] = (bd.asc_onehot.reshape(-1, self.n_asc).T
                                    @ resid.reshape(-1, n_draws))

        ln_seq = ln_chosen.sum(axis=0)
        peak = ln_seq.max()
        weights = np.exp(ln_seq - peak)
        total = weights.sum()
        ll = peak + np.log(total) - np.log(n_draws)
        weights /= total
        grad = per_draw @ weights
        if not hessian:
            return ll, grad

        # H = sum_r w_r (H_r + g_r g_r') - grad grad', with the draw-weighted
        # spread of the g_r taken about grad.  Per draw and situation, H_r is
        # sum_i res_i d2R_i - sum_i P_i dR_i dR_i' + (sum_i P_i dR_i)(...)'.
        slot = np.empty((self.n_params, *probs.shape))  # dR/dtheta, (P, J, S, R)
        slot[:f] = _slot_gradient(bd.incidence, bd.d_fixed, sig_fixed)
        if self.n_random:
            d_rand = _slot_gradient(bd.incidence, bd.d_random, sig_random)
            d_rand *= chain[:, None, None]
            slot[f:f + k] = d_rand
            slot[f + k:f + 2 * k] = d_rand * z[:, None, None]
        slot[f + 2 * k:] = np.moveaxis(bd.asc_onehot, -1, 0)[..., None]
        weighted = slot * probs
        mean = weighted.sum(axis=1)
        spread = per_draw - grad[:, None]
        flat = lambda a: a.reshape(self.n_params, -1)
        hess = (flat(mean * weights) @ flat(mean).T
                - flat(weighted * weights) @ flat(slot).T
                + (spread * weights) @ spread.T)

        # the pair curvature is diagonal in beta; a log-normal beta also has
        # d2 beta = beta [1, z; z, z^2] over (b, s), times its gradient g_beta
        fixed = np.arange(f)
        curv = _pair_curvature(bd.d_fixed, sig_fixed, res_i, res_j)
        hess[fixed, fixed] += curv @ weights
        if self.n_random:
            curv = _pair_curvature(bd.d_random, sig_random, res_i, res_j) * chain**2
            curv += np.where(self._lognormal[:, None], g_rand, 0.0)
            loc = np.arange(f, f + k)
            scale = loc + k
            cross = (curv * z) @ weights
            hess[loc, loc] += curv @ weights
            hess[loc, scale] += cross
            hess[scale, loc] += cross
            hess[scale, scale] += (curv * z * z) @ weights
        return ll, grad, hess


def _lead(matrix, array):
    """``matrix`` (A, B) applied to the leading axis of ``array`` (B, ...)."""
    return (matrix @ array.reshape(len(array), -1)).reshape(-1, *array.shape[1:])


def _pair_terms(a, live, want_logistic):
    """Regret terms of the pair activations ``a`` (M, P, S, R), summed over
    the attributes: ln(1 + exp(a)), borne by slot i of each pair, then
    ln(1 + exp(-a)), borne by slot j, as (2P, S, R); and logistic(a) when
    asked.

    Both directions share t = exp(-|a|) and are exact, with no cancellation:
    ln(1 + exp(+-a)) = max(+-a, 0) + log1p(t), and logistic(a) is 1/(1+t)
    for a >= 0, else t/(1+t).  ``live`` zeroes t of a dead pair, whose a is
    0, so its terms are exactly 0.
    """
    t = np.exp(-np.abs(a)) * live
    log_t = np.log1p(t)
    terms = np.concatenate([
        (np.maximum(a, 0.0) + log_t).sum(axis=0),
        (np.maximum(-a, 0.0) + log_t).sum(axis=0),
    ])
    sig = np.where(a >= 0.0, 1.0, t) / (1.0 + t) if want_logistic else None
    return terms, sig


def _pair_gradient(d, sig, res_i, res_j):
    """d(sum_i res_i R_i)/d beta per attribute and draw, (M, R), from the
    pairs: sum over p and s of d ((res_i + res_j) logistic(a) - res_j),
    since logistic(-a) = 1 - logistic(a)."""
    return (d * (sig * (res_i + res_j) - res_j)).sum(axis=(1, 2))


def _slot_gradient(incidence, d, sig):
    """dR/d beta per attribute, slot, situation and draw, (M, J, S, R): slot
    i of each pair gets d logistic(a), slot j d (logistic(a) - 1)."""
    bears = d * sig
    pairs = np.concatenate([bears, bears - d], axis=1)  # (M, 2P, S, R)
    n_attr, n_pairs, n_sit, n_draws = pairs.shape
    scattered = incidence.T @ pairs.reshape(n_attr, n_pairs, n_sit * n_draws)
    return scattered.reshape(n_attr, incidence.shape[1], n_sit, n_draws)


def _pair_curvature(d, sig, res_i, res_j):
    """d2(sum_i res_i R_i)/d beta2 per attribute and draw, (M, R): both slots
    of a pair bear d^2 logistic(a) (1 - logistic(a))."""
    return (d * d * sig * (1.0 - sig) * (res_i + res_j)).sum(axis=(1, 2))


def _log_mean_exp(values: np.ndarray) -> float:
    peak = values.max()
    return float(peak + np.log(np.exp(values - peak).sum()) - np.log(values.size))
