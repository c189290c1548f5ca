"""Regret, choice probability, and log-likelihood kernels.

An alternative's systematic regret is the sum, over every rival alternative
and every attribute, of ``ln(1 + exp(beta_m * (x_rival - x_own)))`` plus an
alternative-specific constant; choice probabilities are the softmax of the
negated regrets.  The mixed model draws the random coefficients once per
individual, multiplies the chosen-alternative probabilities across that
individual's choice situations, and averages the product over draws.

Every result is a function of its inputs alone.  A pass over the data is
one :meth:`ModelDesign.walk`, the only loop over blocks: it builds the
draw-invariant regret base of the fixed attributes and constants, and their
slot gradient, once per group of at most R equal-shape blocks, realizes
each block's random coefficients from its draws and calls a block kernel
once per block, the hot one :meth:`ModelDesign.individual_loglik_gradient`,
and returns the results in block (dataset) order.  A block is a run of
consecutive individuals, padded to their most situations and widest
situation, whose pair arrays times the R draws per person stay within
``_BLOCK_FLOATS``; each kernel, vectorized over its block's individuals and
draws, adds the K random attributes' terms to the base.  A Hessian pass
takes its slot derivatives, one per slot and parameter, in runs of the
block's people that stay within the bound with them.  The walk and its
kernels write every block-sized intermediate into views of the design's
workspace, one buffer per role grown to the largest block, and a kernel
returns arrays of its own, so a pass after the first allocates only its
per-person results; a design's passes share that workspace, so one thread
at a time walks a design.  A classical model is the case K = 0, R = 1.
A pair of alternatives i < j is evaluated once: with a = beta_m * (x_j - x_i),
i bears L(a) = ln(1 + exp(a)) and j L(-a), and L(a) = a/2 + h(a) with h(a) =
|a|/2 + ln(1 + exp(-|a|)) = ln(2 cosh(a/2)) even.  So both slots take the
pair's one h(a), a function of |a| = |beta_m| |x_j - x_i| alone.  Only its
ln(1 + exp(-|a|)) is a pair term; its |a|/2 and the odd halves, +a/2 at i
and -a/2 at j, are linear in beta and added at slot level: beta_m lin_k +
|beta_m| half_k, with lin_k and half_k = 1/2 sum over the slots l != k with
data of x_l - x_k and of |x_l - x_k|, draw-invariant sums built with the
design.  The random attributes' sit side by side in one (J*S, 2K) matrix
per individual, times the draws' [beta; |beta|] in one matrix product per
individual over the attributes; the fixed attributes' lin_k enter the
walk's base, and their |beta_m| |x_j - x_i| / 2 joins their pair terms
before the base spreads these to the slots.  A pair's odd halves cancel, so
the lin_k of a situation sum to 0: the split moves regret between slots,
never adds any.  A pair's ln(1 + exp(-|a|)) summed over its attributes
takes one log per pair and draw, of a product of one factor in [1, 2] per
attribute; a pair with a padded slot is masked once, on that sum.  A slot
with no data row gets +inf in the walk's base, so its regret is +inf and
its probability exactly 0.  A pass can return the exact Hessian from the
same pair terms.  Each sum of a product over the padded pair or slot and
situation axes, or over the fixed attributes, is one two-operand einsum
into a workspace view: it adds the terms in ``ndarray.sum``'s order and
builds no product array, nor a broadcast of a draw-free operand along the
draws.  The tests check the kernels against a first-principles
reference (``tests/oracles.py``).
"""

from __future__ import annotations

import math
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
    label.  Construction refuses, with :class:`SpecMismatch`, a model with
    no attribute, an attribute named twice (fixed, random or both) and an
    ``ln_count`` outside 0..K; :meth:`validate` checks the rest against a
    dataset.
    """

    fixed_attrs: tuple[str, ...] = ()
    random_attrs: tuple[str, ...] = ()
    ln_count: int = 0
    use_asc: bool = False
    base_alternative: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "fixed_attrs", tuple(self.fixed_attrs))
        object.__setattr__(self, "random_attrs", tuple(self.random_attrs))
        attrs = self.attrs
        if not attrs:
            raise SpecMismatch("model has no attributes")
        twice = sorted({a for a in attrs if attrs.count(a) > 1})
        if twice:
            raise SpecMismatch(f"attributes named twice: {twice}")
        if not 0 <= self.ln_count <= self.n_random:
            raise SpecMismatch(
                f"ln_count {self.ln_count} outside 0..{self.n_random}"
            )

    @property
    def attrs(self) -> tuple[str, ...]:
        """The attributes in packing order, [fixed | random]: θ's order, the
        design's attribute axis and the data columns a command loads."""
        return (*self.fixed_attrs, *self.random_attrs)

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
            *self.attrs,
            *(f"sd.{a}" for a in self.random_attrs),
            *(f"asc.{l}" for l in self.asc_labels(alternative_labels)),
        )

    def validate(self, ds: ChoiceDataset) -> None:
        """Refuse, with :class:`SpecMismatch`, an attribute or a base
        alternative that ``ds`` lacks."""
        for attr in self.attrs:
            if attr not in ds.attribute_names:
                raise SpecMismatch(f"attribute {attr!r} not in dataset")
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


# most padded floats of a block times its draws per person, n * S * P*M * R:
# its pair arrays (one per slot pair and attribute), the largest of the
# arrays that its log-likelihood and value+gradient kernels keep in the
# design's workspace.  A Hessian pass, one per phase of a fit against tens
# of the others, takes its slot derivatives (one per slot and parameter)
# in runs of the most people whose n * S * (P*M + J*n_params) * R floats
# stay within the bound.  A pass allocates none of them, so the bound
# trades the workspace's memory against the number of kernel calls, whose
# fixed cost of some 55 small numpy operations in a value+gradient call and
# about 36 in a log-likelihood call dominates small blocks.  At 10
# situations of 3 alternatives and R = 100 (6,000 floats a person) it gives
# 21-person blocks, and at 8 situations of 5 alternatives and R = 20
# (6,400) 20-person ones, where a count with the slot derivatives gives
# both 8: the benchmark's peak RSS rose 1.4 and 0.4 MB (3.3% and 0.9%)
_BLOCK_FLOATS = 2**17


@dataclass(frozen=True)
class _BlockData:
    """Precomputed tensors for a block: n consecutive individuals with S
    situations each (the block's most; a padded situation has only slot 0,
    available and chosen, so it adds exactly 0) of J slots, and the P =
    J(J-1)/2 slot pairs i < j.  The individual axis comes just before the
    draw axis, which goes last (a trailing 1 here), so reductions add slabs.
    A pair gives half its x[j] - x[i] to slot i's ``lin_*`` and less that
    half to slot j's, so a situation's ``lin_*`` add up to 0, and half its
    |x[j] - x[i]| to both slots' half_k; a slot with no data row gets 0 of
    either."""

    rows: np.ndarray         # (n, S, J) bool: slots holding a data row
    empty: np.ndarray        # (J, S, n, 1) bool: slots with no data row that
                             #   are not a padded situation's slot 0
    chosen: np.ndarray       # (S*n,) int: each chosen slot's row in (J*S*n, R)
    d_fixed: np.ndarray      # (Mf, P, S, n, 1) |x[j] - x[i]|, fixed attributes
    d_random: np.ndarray     # (Mr, P, S, n, 1) |x[j] - x[i]|, random attributes
    lin_fixed: np.ndarray    # (Mf, J, S, n, 1) lin_k = 1/2 sum over the other
                             #   data slots l of x[l] - x[k]
    by_person: np.ndarray    # (n, J*S, 2*Mr) per individual, the random
                             #   attributes' lin_k, then their half_k = 1/2
                             #   sum over the other data slots l of |x[l] - x[k]|
    lin_random: np.ndarray   # (Mr, J, S, n, 1) view of by_person's lin_k
    live: np.ndarray         # (P, S, n, 1) float: 1 where both slots hold data
    incidence: np.ndarray    # (P, J): row p marks both slots i and j of pair p
    asc_onehot: np.ndarray   # (J, S, n, n_asc) float


class ModelDesign:
    """A ModelSpec bound to a ChoiceDataset, with precomputed tensors, for
    walks over ``nrep`` draws per individual (one for a classical model,
    whatever ``nrep``): ``nrep`` sizes the blocks, and :meth:`draws` builds
    that many.  A walk over another number of draws gives the same
    results, in blocks sized for ``nrep``."""

    def __init__(self, ds: ChoiceDataset, spec: ModelSpec, nrep: int = 1):
        spec.validate(ds)
        self.ds = ds
        self.spec = spec
        self.nrep = nrep if spec.n_random else 1

        # the attribute axis in packing order, [fixed | random]
        self.attr_indices = np.array(
            [ds.attribute_index(a) for a in spec.attrs], dtype=np.intp
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
        self._work = _Workspace()

        # blocks: runs of consecutive individuals; ``blocks`` holds each
        # block's individual range [start, stop)
        starts = ds.situation_starts
        sizes = np.diff(starts, append=ds.n_rows)
        n_sit = np.diff(ds.individual_starts, append=starts.size)
        ind_width = np.maximum.reduceat(sizes, ds.individual_starts)
        edges = _block_edges(n_sit, ind_width, len(self.attr_indices), self.nrep)
        self.blocks = list(zip(edges[:-1].tolist(), edges[1:].tolist()))

        # every row goes to its slot in one padded (cells, J, M) array: each
        # individual has S_b cells, S_b its block's most situations, and a
        # block is its individuals' cells with J cut to its widest situation
        depth = np.maximum.reduceat(n_sit, edges[:-1])
        widths = np.maximum.reduceat(ind_width, edges[:-1])
        ind_depth = np.repeat(depth, np.diff(edges))
        ind_cell = np.cumsum(ind_depth) - ind_depth
        sit_cell = (np.repeat(ind_cell - ds.individual_starts, n_sit)
                    + np.arange(starts.size))
        row_sit = np.repeat(np.arange(starts.size), sizes)
        row_cell = sit_cell[row_sit]
        slot = np.arange(ds.n_rows) - starts[row_sit]
        shape = (ind_depth.sum(), sizes.max(initial=0))
        x = np.zeros((*shape, len(self.attr_indices)))
        x[row_cell, slot] = ds.attributes[:, self.attr_indices]
        rows = np.zeros(shape, dtype=bool)
        rows[row_cell, slot] = True
        asc_onehot = np.zeros((*shape, self.n_asc))
        asc_onehot[row_cell, slot] = ds.alternative[:, None] == self.asc_labels
        chosen = np.zeros(shape[0], dtype=np.intp)
        chosen[sit_cell] = slot[ds.chosen]

        # up to R blocks of equal (n, S, J) form a group, built as one array with
        # a leading block axis; a block's tensors are its slab of the group's
        shapes, self._groups = {}, []
        for block, key in enumerate(zip(np.diff(edges).tolist(), depth.tolist(),
                                        widths.tolist())):
            shapes.setdefault(key, []).append(block)
        for (n, s, j), blocks in shapes.items():
            for lo in range(0, len(blocks), self.nrep):
                members = blocks[lo:lo + self.nrep]
                cut = ind_cell[edges[members], None] + np.arange(n * s)
                self._groups.append((members, self._build_group(
                    n, x[cut, :j], rows[cut, :j], chosen[cut], asc_onehot[cut, :j])))
        built = {block: _BlockData(*(a[pos] for a in vars(group).values()))
                 for members, group in self._groups for pos, block in enumerate(members)}
        self._blocks = [built[block] for block in range(len(self.blocks))]

    # -- packing ------------------------------------------------------------

    def unpack(self, vec) -> ParameterVector:
        return ParameterVector.unpack(vec, self.n_fixed, self.n_random, self.n_asc)

    def draws(self, burn: int = 0) -> np.ndarray:
        """Read-only (N, K, R) standard-normal draws: the design's ``nrep``
        Halton draws per individual after ``burn``, empty for a classical model."""
        return build_drawset(self.ds.n_individuals, self.n_random, self.nrep, burn)

    # -- construction ---------------------------------------------------------

    def _build_group(self, n, x, rows, chosen, asc_onehot) -> _BlockData:
        """G blocks of n individuals from their n*S cells each, individual-major:
        (G, cells, J, M) attributes, (G, cells, J) data slots, (G, cells) chosen
        slots and (G, cells, J, n_asc) constants; every field of the result
        has a leading block axis G."""
        n_group, n_cells, j_max = rows.shape
        first, second = np.triu_indices(j_max, 1)
        grid = lambda a: a.reshape(n_group, n, n_cells // n, *a.shape[2:])
        # kernel order (G, ..., S, n): the axes after G reversed
        kernel = lambda a: np.ascontiguousarray(
            grid(a).transpose(0, *range(a.ndim, 0, -1)))
        live = kernel(rows[..., first] & rows[..., second])[..., None]
        # a pair with a padded slot gets a zero difference, so it adds
        # nothing to the slot sums or the gradient; ``live`` masks it out of the
        # regrets
        pair_diff = kernel(x[:, :, second] - x[:, :, first])[..., None] * live[:, None]
        eye = np.eye(j_max)
        lin = _lead(0.5 * (eye[first] - eye[second]).T, pair_diff, batch=2)
        dist = np.abs(pair_diff, out=pair_diff)
        f, k = self.n_fixed, self.n_random
        incidence = eye[first] + eye[second]
        # (G, n, J, S, 2*Mr): lin_k then half_k of the random attributes
        by_person = np.empty((n_group, n, j_max, n_cells // n, 2 * k))
        person_major = lambda a: a[..., 0].transpose(0, 4, 2, 3, 1)
        by_person[..., :k] = person_major(lin[:, f:])
        by_person[..., k:] = person_major(_lead(0.5 * incidence.T, dist[:, f:], batch=2))
        chosen = grid(chosen).transpose(0, 2, 1).reshape(n_group, n_cells)
        empty = ~rows & (np.arange(j_max) > 0)  # a padded situation has slot 0
        # ``lin_fixed`` is a copy: a view would keep all of ``lin`` alive
        return _BlockData(  # the fields, in order
            grid(rows), kernel(empty)[..., None],
            chosen * n_cells + np.arange(n_cells), dist[:, :f], dist[:, f:],
            lin[:, :f].copy(),
            by_person.reshape(n_group, n, j_max * n_cells // n, 2 * k),
            by_person[..., :k].transpose(0, 4, 2, 3, 1)[..., None], live.astype(float),
            np.broadcast_to(incidence, (n_group, len(first), j_max)),
            np.ascontiguousarray(grid(asc_onehot).transpose(0, 3, 2, 1, 4)),
        )

    # -- coefficient realization ---------------------------------------------

    def random_coefficient_draws(self, theta, z) -> np.ndarray:
        """Realized random coefficients, coefficient scale, declared order,
        from (K, ...) standard draws, axes reversed: (R, K) from (K, R).
        Normal entries are b + s*z, log-normal entries exp(b + s*z)."""
        return self._coefficients(theta, z, np.empty(z.shape)).T

    def _coefficients(self, theta, z, out) -> np.ndarray:
        """:meth:`random_coefficient_draws` written to ``out``, axes kept."""
        lead = (slice(None),) + (None,) * (z.ndim - 1)
        vals = np.multiply(theta.rand_scale[lead], z, out=out)
        vals += theta.rand_location[lead]
        np.exp(vals, out=vals, where=self._lognormal[lead])
        return vals

    def available(self, block: int) -> np.ndarray:
        """(n, S, J) mask of a block's data slots (dataset order in C order)."""
        return self._blocks[block].rows

    # -- the walk and the block kernels ------------------------------------------
    # A kernel evaluates block ``block`` under its individuals' (n, K, R)
    # draws ``z`` and ``part``, its share of the pass's draw-invariant work;
    # only :meth:`walk`, or a kernel handed to it, calls one.

    def walk(self, kernel, theta, draws, *args) -> list:
        """One pass over the data under the (N, K, R) ``draws``: the list of
        ``kernel(block, z, part, *args)`` of every block, in block (dataset)
        order, ``z`` the block's draws.  The walk visits the blocks group by
        group, so it places each result at its block's index; per group of
        at most R equal-shape blocks it builds, once, the regret base
        (J,S,n,1) of the constants and the fixed attributes (their pair
        terms with their |beta| d / 2, plus beta times their ``lin_fixed``
        sums), +inf at the ``empty`` slots, the fixed pair slopes
        (Mf,P,S,n,1), their sign(beta) applied, and the fixed attributes'
        slot gradient dR/d beta (Mf,J,S,n,1), each slot's slopes plus its
        ``lin_fixed`` sum; ``part`` is the block's slice of these and its
        random coefficients (K,n,R).  All of these are views of the design's
        workspace."""
        take = self._work.take
        beta = theta.fixed[:, None, None, None, None]
        sign = np.sign(beta)
        half_beta = 0.5 * np.abs(beta)
        results = [None] * len(self.blocks)
        for members, group in self._groups:
            # the group's base and slopes outlive its kernel calls; its
            # other intermediates take kernel roles, dead by the first call
            fixed, slope = _pair_terms(beta, group.d_fixed, group.live, "fixed slope",
                                       take)
            slope *= sign
            fixed += _contract("mpsnr,gmpsnr->gpsnr", half_beta, group.d_fixed,
                               take("terms", fixed.shape), take)
            incidence = group.incidence[0]
            base = _spread(incidence, fixed, take(
                "base", (len(fixed), incidence.shape[-1], *fixed.shape[2:])), batch=1)
            base += _contract("mjsnr,gmjsnr->gjsnr", beta, group.lin_fixed,
                              take("terms", base.shape), take)
            base += np.matmul(group.asc_onehot, theta.asc,
                              out=take("t", base.shape[:-1]))[..., None]
            np.copyto(base, np.inf, where=group.empty)
            slot = _slot_gradient(incidence, slope, group.lin_fixed, take(
                "fixed slot", (*slope.shape[:2], *base.shape[1:])), batch=2)
            for pos, block in enumerate(members):
                z = draws[slice(*self.blocks[block])]
                by_coef = z.transpose(1, 0, 2)  # (K, n, R)
                coefs = self._coefficients(theta, by_coef, take("coefs", by_coef.shape))
                results[block] = kernel(block, z, (base[pos], slope[pos], slot[pos], coefs),
                                        *args)
        return results

    def _regrets(self, bd: _BlockData, part, gradient):
        """Regrets (J,S,n,R) of a block, +inf at its ``empty`` slots: its walk
        ``part``'s base plus the random attributes' pair terms and, per
        individual, ``by_person`` times the draws' [beta; |beta|], the
        slot-level sums of their terms linear in beta; with ``gradient``
        also the pair slopes of the even terms, dh(a) / d beta of the fixed
        attributes (Mf,P,S,n,1) and dh(a) / d beta without its factor
        sign(beta) of the random ones (Mr,P,S,n,R).  The regrets and the
        random slopes are views of the workspace."""
        base, slope_fixed, _, coefs = part
        take = self._work.take
        drawn, slope_random = _pair_terms(coefs[:, None, None], bd.d_random, bd.live,
                                          "a" if gradient else None, take)
        regrets = _spread(bd.incidence, drawn,
                          take("probs", (bd.incidence.shape[1], *drawn.shape[1:])))
        regrets += base
        # per individual: (J*S, 2*Mr) @ (2*Mr, R), [lin | half] times
        # [beta; |beta|], written to (J, S, n, R) in the spent pair terms' role
        k, n_ind, n_draws = coefs.shape
        betas = take("abs", (n_ind, 2 * k, n_draws))
        betas[:, :k] = coefs.transpose(1, 0, 2)
        np.abs(betas[:, :k], out=betas[:, k:])
        linear = take("drawn", regrets.shape)
        np.matmul(bd.by_person, betas,
                  out=linear.reshape(-1, n_ind, n_draws).transpose(1, 0, 2))
        regrets += linear
        return regrets, slope_fixed, slope_random

    def _probabilities(self, bd: _BlockData, regrets, probs=True, sequence=True):
        """Per-draw choice probabilities (J,S,n,R), ``None`` unless ``probs``,
        and sequence log-probs (n,R), the sums of the chosen log-probs over
        the situations, ``None`` unless ``sequence``, made in the workspace:
        the probabilities in place of ``regrets``, whose +inf at the
        ``empty`` slots gives them probability exactly 0."""
        take = self._work.take
        neg = np.negative(regrets, out=regrets)
        flat = neg.reshape(-1, neg.shape[-1])
        if sequence:
            chosen = np.take(flat, bd.chosen, axis=0, mode="clip",
                             out=take("chosen", (len(bd.chosen), flat.shape[1])))
        peak = neg.max(axis=0, out=take("peak", neg.shape[1:]))
        np.subtract(neg, peak, out=neg)
        expn = np.exp(neg, out=neg)
        denom = expn.sum(axis=0, out=take("denom", peak.shape))
        if probs:
            expn /= denom
        if not sequence:
            return expn, None
        lse = np.add(peak, np.log(denom, out=denom), out=peak)
        chosen = chosen.reshape(lse.shape)
        chosen -= lse
        sequence = chosen.sum(axis=0, out=take("sequence", chosen.shape[1:]))
        return expn if probs else None, sequence

    def individual_draw_info(self, block: int, z, part, probs=True):
        """With ``probs``, the block's choice probabilities averaged over
        the draws, (n, S, J) in its padded layout (:meth:`available` marks
        the data slots), without the chosen gather, the log-sum-exp and the
        sequence log-probs; without ``probs``, only its per-draw sequence
        log-probs (n, R).  The average is the sum of the per-draw
        probabilities along their contiguous draw axis, in the workspace,
        divided by R: the pairwise sum that ``mean(axis=1)`` takes of their
        (n, R, S, J) transpose, to the same bits."""
        bd = self._blocks[block]
        regrets = self._regrets(bd, part, False)[0]
        if not probs:
            return self._probabilities(bd, regrets, probs=False)[1].copy()
        per_draw = self._probabilities(bd, regrets, sequence=False)[0]
        total = per_draw.sum(axis=-1, out=self._work.take("total", per_draw.shape[:-1]))
        mean = np.empty(total.shape[::-1])
        np.divide(total, per_draw.shape[-1], out=mean.T)
        return mean

    def individual_loglik(self, block: int, z, part) -> np.ndarray:
        """Simulated log-likelihood terms (n,) of a block's individuals: the
        log-mean-exp of the sequence log-probs of :meth:`individual_draw_info`
        without ``probs``."""
        bd = self._blocks[block]
        _, sequence = self._probabilities(bd, self._regrets(bd, part, False)[0],
                                          probs=False)
        return _log_mean_exp(sequence)[0]

    def individual_loglik_gradient(self, block: int, z, part, hessian=False):
        """Simulated log-likelihood terms of a block's individuals and their
        gradient rows: ``(ll, grad)``, ``ll[i] = ln((1/R) sum_r P_i(asc,
        beta^r))`` of shape (n,) and ``grad`` (n, P), exact in the packed
        parameters; with ``hessian``, ``(ll, grad, hess)``, ``hess`` the exact
        (P, P) Hessian of ``ll.sum()``, symmetric up to rounding."""
        bd = self._blocks[block]
        take = self._work.take
        # chain rule: d beta / d b, ``chain``, is 1, or beta if log-normal, and
        # d beta / d s is ``chain`` times the draw
        d_fixed, coefs = part[2:]
        chain = take("chain", coefs.shape)
        chain.fill(1.0)
        np.copyto(chain, coefs, where=self._lognormal[:, None, None])
        z = z.transpose(1, 0, 2)  # (K, n, R)
        regrets, slope_fixed, slope_random = self._regrets(bd, part, gradient=True)
        probs, sequence = self._probabilities(bd, regrets)
        ll, weights = _log_mean_exp(sequence)

        # d ln P(chosen) / d R_i = P_i - 1[i = chosen], and per pair the sum
        # over its two slots
        resid = take("resid", probs.shape)
        np.copyto(resid, probs)
        flat = resid.reshape(-1, resid.shape[-1])
        chosen = np.take(flat, bd.chosen, axis=0, mode="clip",
                         out=take("chosen", (len(bd.chosen), flat.shape[1])))
        chosen -= 1.0
        flat[bd.chosen] = chosen
        res = _lead(bd.incidence, resid, out=take("drawn", (len(bd.incidence),
                                                            *resid.shape[1:])))

        n_ind, n_draws = resid.shape[2:]
        f, k = self.n_fixed, self.n_random
        per_draw = take("per_draw", (self.n_params, n_ind, n_draws))
        # the fixed slopes are draw-invariant, so their pair and lin terms
        # are the walk's one slot gradient dR/d beta, (Mf, J, S, n, 1), times
        # ``resid``; these sums over the padded J and S add in J then S
        # order, which padding leaves unchanged: a BLAS product groups them
        # by the padded length, so a person's row would depend on the block
        _contract("mjsnr,jsnr->mnr", d_fixed, resid, per_draw[:f], take)
        sign = np.sign(coefs, out=take("sign", coefs.shape))
        g_rand = _pair_gradient(slope_random, res, sign, bd.lin_random, resid,
                                per_draw[f:f + k], take)
        g_rand *= chain
        np.multiply(g_rand, z, out=per_draw[f + k:f + 2 * k])
        if self.n_asc:  # per individual: (n_asc, J*S) @ (J*S, R)
            onehot = bd.asc_onehot.reshape(-1, n_ind, self.n_asc).transpose(1, 2, 0)
            by_person = resid.reshape(-1, n_ind, n_draws).transpose(1, 0, 2)
            np.matmul(onehot, by_person, out=per_draw[f + 2 * k:].transpose(1, 0, 2))

        grad = np.matmul(per_draw.transpose(1, 0, 2), weights[..., None])[..., 0]
        if not hessian:
            return ll, grad

        # H = sum_r w_r (H_r + g_r g_r') - grad grad' per individual, with the
        # draw-weighted spread of the g_r taken about grad, summed over the
        # block.  Per draw and situation, H_r is sum_i res_i d2R_i
        # - sum_i P_i dR_i dR_i' + (sum_i P_i dR_i)(...)', whose middle term,
        # weighted by w_r, is the Gram matrix of dR_i sqrt(P_i w_r).  Its
        # intermediates take the roles of the gradient's, dead by now but for
        # the slopes, ``res``, the probabilities, the weights and ``per_draw``.
        # dR/dtheta, (n_params, J, S, k, R), is made for runs of k people: the
        # most whose pair arrays and slot derivatives, S * (P*M + J*n_params)
        # * R floats a person, stay within ``_BLOCK_FLOATS``.  The runs'
        # Hessians add in people order.
        slope_random *= sign[:, None, None]
        n_slot, n_sit = probs.shape[:2]
        run = max(1, _BLOCK_FLOATS // _person_floats(
            n_sit, n_slot, len(self.attr_indices), n_draws, self.n_params))
        flat = lambda a: a.reshape(len(a), math.prod(a.shape[1:]))
        hess = np.zeros((self.n_params, self.n_params))
        for lo in range(0, n_ind, run):
            cut = (..., slice(lo, lo + run), slice(None))
            probs_run, weights_run = probs[cut], weights[lo:lo + run]
            slot = take("terms", (self.n_params, *probs_run.shape))
            slot[:f] = d_fixed[cut]
            d_rand = _slot_gradient(bd.incidence, slope_random[cut], bd.lin_random[cut],
                                    out=slot[f:f + k])
            d_rand *= chain[cut][:, None, None]
            np.multiply(d_rand, z[cut][:, None, None], out=slot[f + k:f + 2 * k])
            onehot = bd.asc_onehot[:, :, lo:lo + run]
            slot[f + 2 * k:] = np.moveaxis(onehot, -1, 0)[..., None]
            mean = np.einsum("pj...,j...->p...", slot, probs_run,
                             out=take("t", (len(slot), *probs_run.shape[1:])))
            run_hess = flat(_product(mean, weights_run, "resid", take)) @ flat(mean).T
            root = _product(probs_run, weights_run, "resid", take)
            slot *= np.sqrt(root, out=root)
            run_hess -= flat(slot) @ flat(slot).T
            hess += run_hess
        spread = np.subtract(per_draw, grad.T[..., None],
                             out=take("chosen", per_draw.shape))
        hess += flat(spread * weights) @ flat(spread).T

        # the pair curvature is diagonal in beta; a log-normal beta also has
        # d2 beta = beta [1, z; z, z^2] over (b, s), times its gradient g_beta
        weights = weights.ravel()
        fixed = np.arange(f)
        curv = _pair_curvature(bd.d_fixed, slope_fixed, res,
                               take("terms", slope_fixed.shape), take)
        hess[fixed, fixed] += flat(curv) @ weights
        curv = _pair_curvature(bd.d_random, slope_random, res, slope_random, take)
        curv *= chain**2
        curv += np.where(self._lognormal[:, None, None], g_rand, 0.0)
        loc = np.arange(f, f + k)
        scale = loc + k
        cross = flat(curv * z) @ weights
        hess[loc, loc] += flat(curv) @ weights
        hess[loc, scale] += cross
        hess[scale, loc] += cross
        hess[scale, scale] += flat(curv * z * z) @ weights
        return ll, grad, hess


class _Workspace:
    """Scratch memory of a design's block kernels: one flat float buffer per
    role, grown to the largest view ever taken of it, so after a walk has
    visited every block the kernels of every later block and pass allocate
    none of their block-sized intermediates.  A view is valid until its
    role is taken again: a kernel takes a role again only once the
    earlier view is dead, and the arrays a kernel returns are its own."""

    def __init__(self):
        self._buffers = {}
        self._views = {}  # (role, shape) -> view of the role's current buffer

    def take(self, role: str, shape: tuple) -> np.ndarray:
        """A C-ordered view of ``shape`` on the role's buffer."""
        view = self._views.get((role, shape))
        if view is None:
            size = math.prod(shape)
            buffer = self._buffers.get(role)
            if buffer is None or buffer.size < size:
                buffer = self._buffers[role] = np.empty(size)
                self._views = {key: view for key, view in self._views.items()
                               if key[0] != role}
            view = self._views[role, shape] = buffer[:size].reshape(shape)
        return view


def _block_edges(n_sit, widths, n_attrs, nrep) -> np.ndarray:
    """Block edges from each individual's situations and widest situation: a
    block takes the next individual while its padded floats (as
    ``_BLOCK_FLOATS`` counts them: its pair arrays, the largest buffers of
    the ordinary passes' workspace) times the ``nrep`` draws per person stay
    within ``_BLOCK_FLOATS`` and within twice its individuals' own, so
    padding at most doubles a design's arrays and the workspace is a few
    times the bound; a larger individual is a block alone."""
    floats = lambda s, j: _person_floats(s, j, n_attrs, nrep)
    edges, s_max, j_max, own = [0], 0, 0, 0
    for pos, (s, j) in enumerate(zip(n_sit.tolist(), widths.tolist())):
        s_max, j_max, own = max(s_max, s), max(j_max, j), own + floats(s, j)
        padded = (pos + 1 - edges[-1]) * floats(s_max, j_max)
        if pos > edges[-1] and padded > min(_BLOCK_FLOATS, 2 * own):
            edges.append(pos)
            s_max, j_max, own = s, j, floats(s, j)
    return np.array(edges + [len(n_sit)])


def _person_floats(s, j, n_attrs, r, per_slot=0):
    """Floats a person of ``s`` situations of ``j`` slots takes in the pair
    arrays, one per slot pair and attribute, and in ``per_slot`` arrays per
    slot, for each of ``r`` draws."""
    return s * (j * (j - 1) // 2 * n_attrs + j * per_slot) * r


def _lead(matrix, array, batch=0, out=None):
    """``matrix`` (A, B) applied to axis ``batch`` of ``array`` (..., B, ...),
    written to ``out`` (..., A, ...) if given."""
    head = array.shape[:batch + 1]
    rest = math.prod(array.shape[batch + 1:])
    shape = (*head[:-1], len(matrix), *array.shape[batch + 1:])
    if out is not None:
        out = out.reshape(*shape[:batch + 1], rest)
    product = np.matmul(matrix, array.reshape(*head, rest), out=out)
    return product.reshape(shape)


def _spread(incidence, terms, out, batch=0):
    """Each slot's sum of its pairs' ``terms`` (..., P, ...), axis ``batch``:
    ``incidence`` (P, J) transposed applied to that axis, written to ``out``
    (..., J, ...).  In binary choice the one pair's term goes to both slots
    by a broadcast add of 0.0, the bits of the product, whose inner
    dimension of 1 numpy runs in its own loop from a sum of +0 (so a -0
    term gives +0)."""
    if len(incidence) > 1:
        return _lead(incidence.T, terms, batch, out)
    return np.add(terms, 0.0, out=out)


def _product(x, y, role, take):
    """``x`` * ``y``, broadcast, in ``take(role, shape)``."""
    return np.multiply(x, y, out=take(role, np.broadcast(x, y).shape))


def _contract(subscripts, x, y, out, take):
    """The sum of ``x`` * ``y``, broadcast, over the axes that the output of
    ``subscripts`` drops, written to ``out``.  One einsum builds no product
    array, and when the output's axes after the first hold more than one
    element, it adds the terms in ``ndarray.sum``'s order, to the same bits.
    When they hold one, the summed axes make the inner loop, which einsum
    and the reduction each split into partial sums of their own, so the
    product, in ``take("product", ...)``, and its sum are kept."""
    if math.prod(out.shape[1:]) > 1:
        return np.einsum(subscripts, x, y, out=out)
    inputs, output = subscripts.split("->")
    labels = max(inputs.split(","), key=len)
    axes = tuple(pos for pos, label in enumerate(labels) if label not in output)
    return _product(x, y, "product", take).sum(axis=axes, out=out)


def _pair_terms(beta, d, live, slope_role, take):
    """Pair terms of the activations a = ``beta`` * (x[j] - x[i]) (..., M, P,
    S, n, R), from ``d`` = |x[j] - x[i]|, summed over the attributes:
    ln(1 + exp(-|a|)) per pair, (..., P, S, n, R), which both slots of the
    pair bear; and, given a ``slope_role``, the slopes dh/d beta of the whole
    even term h(a) = |a|/2 + ln(1 + exp(-|a|)) without their factor
    sign(beta), d tanh(|a|/2) / 2, (..., M, P, S, n, R), else ``None``.
    L(a) = ln(1 + exp(a)) is a/2 + h(a), so slot i's term L(a) and slot j's
    L(-a) differ from the pair term by |a|/2 + a/2 and |a|/2 - a/2, which the
    kernels add at slot level, beta and |beta| times the draw-invariant
    ``lin_*`` and half sums.

    The terms depend on |a| alone, and -|beta| d is -|a| exactly, as IEEE
    rounding does not depend on sign.  With t = exp(-|a|), the sum over the
    M attributes takes one log per pair, ln prod_m (1 + t_m), whose factors
    lie in [1, 2], so the product stays within 2^M and the log is within a
    few ulps of 1 of the M log1p's sum; M = 0 gives 0.  tanh(|a|/2) / 2 is
    1/(1 + t) - 1/2.  ``live`` (..., P, S, n, 1) masks the sum: a dead pair
    has d = 0, so a = 0, its slope is 0 and its M ln 2 becomes exactly 0.
    Every array, the results too, is a workspace view ``take(role,
    shape)``: a, then t in its place, then the slopes in t's, all in
    ``slope_role``, or in ``"a"`` without the slopes.
    """
    a = _activations(np.copysign(beta, -1.0, out=take("abs", beta.shape)), d, take,
                     slope_role or "a")
    pairs = (*a.shape[:-5], *a.shape[-4:])
    t = np.exp(a, out=a)
    t += 1.0
    terms = take("drawn", pairs)
    # of one attribute, the product is t itself, which a reduction would copy
    product = t.reshape(pairs) if a.shape[-5] == 1 else np.multiply.reduce(
        t, axis=-5, out=terms)
    np.log(product, out=terms)
    terms *= live
    slope = None
    if slope_role:
        slope = np.reciprocal(t, out=t)
        slope -= 0.5
        slope *= d
    return terms, slope


def _activations(beta, d, take, role="a"):
    """``beta`` (M, 1, 1, n or 1, R) times ``d`` (..., M, P, S, n, 1), in
    ``take(role, ...)``.  With R = 1 (fixed coefficients, or one draw), a
    broadcast multiply, whose inner loop spans the individuals.  With R
    draws that loop would cover only R, several times slower at R = 20 to
    100, so per attribute and run of at most 8 individuals the (P*S, k)
    ``d`` multiply a (k, k*R) block-diagonal matrix of their coefficients:
    each entry is one product plus exact zeros, the broadcast product on
    any BLAS path.  A run of one person is that broadcast product: its
    matrix product would have an inner dimension of 1, which numpy runs in
    its own, slower loop."""
    *lead, m, p, s, n, r = np.broadcast_shapes(beta.shape, d.shape)
    if r == 1:
        return _product(beta, d, role, take)
    a = take(role, (*lead, m, p, s, n, r))
    rows, cols = d.reshape(*lead, m, p * s, n), a.reshape(*lead, m, p * s, n * r)
    for lo in range(0, n, 8):
        k = min(8, n - lo)
        if k == 1:
            np.multiply(rows[..., lo:lo + 1], beta[:, 0, 0, lo:lo + 1],
                        out=cols[..., lo * r:(lo + 1) * r])
            continue
        diag = take("diag", (m, k * k, r))
        diag.fill(0.0)
        diag[:, ::k + 1] = beta[:, 0, 0, lo:lo + k]
        np.matmul(rows[..., lo:lo + k], diag.reshape(m, k, k * r),
                  out=cols[..., lo * r:(lo + k) * r])
    return a


def _pair_gradient(slope, res, sign, lin, resid, out, take):
    """d(sum_i res_i R_i)/d beta per attribute, individual and draw,
    (M, n, R), written to ``out``: over pairs and situations, the pair
    ``slope`` times ``res``, the sum of its slots' ``resid``, times the
    coefficients' ``sign`` (M, n, R); plus, over slots and situations, each
    slot's ``lin`` sum (M, J, S, n, 1), a strided view, times its ``resid``.
    Each sum is one :func:`_contract`, so neither product is built, and
    ``lin`` is not broadcast along the draws."""
    _contract("mpsnr,psnr->mnr", slope, res, out, take)
    out *= sign
    out += _contract("mjsnr,jsnr->mnr", lin, resid, take("t", out.shape), take)
    return out


def _slot_gradient(incidence, slope, lin, out, batch=1):
    """dR/d beta per attribute, slot, situation, individual and draw,
    (..., M, J, S, n, R), the slot axis ``batch``, written to ``out``: each
    slot gets the signed ``slope`` of its pairs, plus its ``lin`` sum."""
    gradient = _spread(incidence, slope, out, batch)
    gradient += lin
    return gradient


def _pair_curvature(d, slope, res, out, take):
    """d2(sum_i res_i R_i)/d beta2 per attribute, individual and draw,
    (M, n, R): both slots of a pair bear h'' = d^2 (1 - tanh^2(|a|/2)) / 4,
    which is (d/2)^2 less the square of the ``slope``, signed or not, made
    in ``out`` of the slope's shape, (M, P, S, n, 1) for a fixed one, which
    may be the slope itself; its product with ``res`` and the sum over
    pairs and situations are one :func:`_contract`.  (d/2)^2 takes the role
    of the Hessian's slot derivatives' mean, dead by then."""
    quarter = np.multiply(d, 0.5, out=take("t", d.shape))
    quarter *= quarter
    curv = np.square(slope, out=out)
    np.subtract(quarter, curv, out=curv)
    return _contract("mpsnr,psnr->mnr", curv, res,
                     np.empty((len(curv), *res.shape[2:])), take)


def _log_mean_exp(values: np.ndarray):
    """ln of the mean of exp(values) over the last axis, (n, R) -> (n,), and
    the weights exp(values) / sum(exp(values)), (n, R), made in place of
    ``values``."""
    peak = values.max(axis=-1, keepdims=True)
    values -= peak
    weights = np.exp(values, out=values)
    total = weights.sum(axis=-1, keepdims=True)
    weights /= total
    return (peak + np.log(total) - np.log(values.shape[-1]))[..., 0], weights
