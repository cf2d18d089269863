"""Fitting embeddings to a store by seeded full-batch gradient descent.

Members descend as one batch, held as one term array: each member's
entity points, then its relation vectors.  The cumulative error and its
analytic gradient are evaluated for the whole stack at once, each member
keeps its own rate and accept mask, and each one's fit is bit-identical to
training it alone.  A batch down to one member, as every ``train`` call
is, runs its epochs on that member's error and rate as Python floats.
``train`` is the one-seed call, and ``train_with_retries`` trains its
reseeded attempts as one batch.  Also includes a linear-algebra check for
whether zero error is attainable at all, with a lower bound on the error
when it is not, and a search for the smallest dimension at which training
reaches it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from .embedding import DEFAULT_GAMMA, DEFAULT_TAU_POS, Embedding, EmbeddingConfig, read_fields
from .kb import KnowledgeBase, SignedTriple

RNG_ALGORITHM_ID = "numpy-pcg64/per-term-sha256-stream"
# The descent rule members are fitted with; a different rule gives different
# member bytes from the same seeds.
OPTIMIZER_ID = "guarded-gd/incidence-preconditioned"

# Step rejection stops once the guarded rate underflows this floor; at that
# point the fit is stuck at a non-zero stationary value.
_MIN_LEARNING_RATE = 1e-18
# Descent can round to just below a store's exact error floor, so a store is
# rejected only when the tolerance lies below the floor by more than this share.
_FLOOR_SLACK = 1e-6


class NoConvergentDimensionError(RuntimeError):
    """No dimension up to the search bound produced a converged fit."""


class UnsatisfiableStoreError(NoConvergentDimensionError):
    """The store's error floor (see :func:`satisfiability_oracle`) lies above
    the fit tolerance, so no embedding of any dimension can converge: the
    answer of a dimension search that gives up, proven before any training."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings.

    Descent is full batch with a guarded constant rate: any step that
    increases the cumulative error is rejected and the rate is halved, so the
    error trace is non-increasing.  Each term's step is its gradient divided
    by the number of triples the term appears in, so one rate suits terms of
    every degree.  ``retry_budget`` counts additional reseeded attempts (seed
    XOR attempt index) granted to non-convex fits.
    """

    learning_rate: float = 0.3
    max_epochs: int = 5000
    init_scale: float = 1.0
    retry_budget: int = 3

    def __post_init__(self) -> None:
        read_fields(self, learning_rate=float, max_epochs=int, init_scale=float, retry_budget=int)
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite: {self.learning_rate!r}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be a positive integer: {self.max_epochs!r}")
        # The initial draw spans 2 * init_scale, which must itself be finite.
        if not 0.0 < self.init_scale <= np.finfo(float).max / 2:
            raise ValueError(f"init_scale must be positive with a finite span: {self.init_scale!r}")
        if self.retry_budget < 0:
            raise ValueError(f"retry_budget must be non-negative: {self.retry_budget!r}")


@dataclass(frozen=True)
class FitReport:
    """Outcome of one training run."""

    final_error: float
    epochs_used: int
    converged: bool
    seed: int
    rng_algorithm_id: str = RNG_ALGORITHM_ID
    optimizer_id: str = OPTIMIZER_ID


def _term_rng(seed: int, name: str) -> np.random.Generator:
    # One stream per (seed, term name): initialization is then independent
    # of vocabulary iteration order.  The term key is the first 8 bytes of
    # SHA-256, stable across platforms and processes.  Seeds are treated as
    # 64-bit unsigned words.
    key = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, key])
    )


def init_embedding(
    kb: KnowledgeBase, cfg: EmbeddingConfig, tcfg: TrainConfig, seed: int
) -> Embedding:
    """Draw every coordinate i.i.d. uniform on [-init_scale, +init_scale]
    from a per-term stream derived from (seed, term name)."""
    s = tcfg.init_scale
    terms = [_term_rng(seed, t).uniform(-s, s, cfg.dimension) for t in kb.entities + kb.relations]
    return Embedding.from_terms(kb.entities, kb.relations, np.array(terms), cfg, int(seed))


class _Problem:
    """Index arrays for evaluating the loss and gradients of a stack of
    members that share one store.

    A stack is one ``(M, E+R, d)`` term array: each member's entity points
    in vocabulary order, then its relation vectors, so relation r is row
    E + r.  One take then gathers the operands of every residual, and one
    bincount sums the gradient of every term.

    The arrays depend on the store alone, so :meth:`of` builds them once per
    store and keeps them on it, read-only: every descent, retry and
    dimension reuses them, and they are freed with the store.  A descent
    evaluates through a :class:`_Stack` of them."""

    def __init__(self, kb: KnowledgeBase):
        subjects, objects, relations, positive = kb.triple_index
        # Triples positives first, each group in store order.
        pos, neg = np.flatnonzero(positive), np.flatnonzero(~positive)
        order = np.concatenate([pos, neg])
        n_entities = len(kb.entities)
        self.n_terms = n_entities + len(kb.relations)
        self.n_positive = pos.size
        vector_rows = n_entities + relations[order]
        # Subject, object and relation rows of every triple, as one (3, T) take.
        self.operands = np.stack([subjects[order], objects[order], vector_rows])
        # A triple pulls its subject by its gradient term and pushes its
        # object and relation by the opposite: each contribution's triple,
        # sign and row.  Every row sums them in the order positive subjects,
        # positive objects, negative subjects, negative objects, each in store
        # order, then relations in triple order.
        at_pos, at_neg = np.arange(pos.size), np.arange(pos.size, order.size)
        self.sources = np.concatenate([at_pos, at_pos, at_neg, at_neg, np.arange(order.size)])
        self.signs = np.repeat(
            [1.0, -1.0, 1.0, -1.0, -1.0], [pos.size, pos.size, neg.size, neg.size, order.size]
        )[:, None]
        self.rows = np.concatenate(
            [subjects[pos], objects[pos], subjects[neg], objects[neg], vector_rows]
        )
        # Triples each term appears in, as an (E+R, 1) column: an entity once
        # per role (a self-loop twice), a relation once per triple.  A term in
        # no triple has a zero gradient; it counts 1.
        self.incidence = np.maximum(np.bincount(self.rows, minlength=self.n_terms), 1)[:, None]
        for a in (self.operands, self.sources, self.signs, self.rows, self.incidence):
            a.flags.writeable = False

    @classmethod
    def of(cls, kb: KnowledgeBase) -> "_Problem":
        """The problem of ``kb``, built on its first use and kept in the
        store's ``__dict__``, as ``functools.cached_property`` keeps a value:
        a lookup hashes neither the store nor its triples."""
        problem = vars(kb).get("_problem")
        if problem is None:
            problem = vars(kb).setdefault("_problem", cls(kb))
        return problem


class _Stack:
    """The loss of stacks of members of one store, for one descent.

    It indexes through the store's :class:`_Problem`, but numpy's take and
    bincount copy a read-only index array on every call, so it keeps
    writeable copies of the two arrays they take by, and the bincount
    layout of each stack shape it meets."""

    def __init__(self, kb: KnowledgeBase):
        self.problem = problem = _Problem.of(kb)
        self.operands, self.sources = problem.operands.copy(), problem.sources.copy()
        self._layouts: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def loss_and_grads(self, terms: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative error ``(M,)`` and its gradient ``(M, E+R, d)`` of M
        members, from their term array ``(M, E+R, d)``.

        Each member's numbers are bit-identical to evaluating it alone: every
        sum keeps the order of a one-member ``np.sum``, the gradient adds the
        triples' terms in a fixed order, and masks, never a product with 0
        (``0 * inf`` is NaN), keep an inactive hinge's pull and error at 0.0
        and push an active one at the kink ||eps|| = 0 along the first axis.
        """
        m, _, d = terms.shape
        p = self.problem.n_positive
        layout = self._layouts.get((m, d))
        if layout is None:
            # Flat bincount indices of every contribution of m members in d
            # dimensions, and its sign repeated over them (a broadcast column
            # multiplies slower).
            flat = np.arange(m * self.problem.n_terms * d).reshape(m, -1, d)
            signs = np.repeat(self.problem.signs, d, axis=1)
            layout = self._layouts[m, d] = flat.take(self.problem.rows, axis=1).ravel(), signs
        index, signs = layout
        # eps is C-ordered, so each member's squares reduce in the order a
        # single (P, d) array would.
        eps = np.subtract.reduce(terms.take(self.operands, axis=1), axis=1)  # (s - o) - r
        squares = eps * eps
        totals = np.add.reduce(squares[:, :p].reshape(m, -1), axis=1)
        pull = 2.0 * eps  # each triple's gradient at its subject
        pull[:, p:] = 0.0  # an inactive hinge adds nothing
        norms = np.sqrt(np.add.reduce(squares[:, p:], axis=2, keepdims=True))
        inside = norms < gamma
        if np.count_nonzero(inside):
            # Evaluated for every negative and kept where its hinge is active:
            # fewer numpy calls than gathering the active ones.
            gaps = gamma - norms
            unit = eps[:, p:] / np.maximum(norms, 1e-300)
            if np.count_nonzero(norms) < norms.size:
                unit[norms[..., 0] == 0.0] = np.eye(1, d)
            np.multiply(-2.0 * gaps, unit, out=pull[:, p:], where=inside)
            active = np.square(gaps[inside])
            if m == 1:  # one numpy call where the segments below take eight
                totals += np.add.reduce(active)
            else:
                # One segment per member, led by a zero: reduceat starts each
                # sum from its segment's first entry, so this adds the active
                # squares exactly as np.sum over them alone would.
                members, hit = np.arange(m), inside.nonzero()[0]
                led = np.zeros(m + hit.size)
                led[np.arange(1, hit.size + 1) + hit] = active
                totals += np.add.reduceat(led, members + hit.searchsorted(members))
        weights = pull.take(self.sources, axis=1) * signs
        grads = np.bincount(index, weights.ravel(), minlength=terms.size)
        return totals, grads.reshape(terms.shape)


def gradients(e: Embedding, kb: KnowledgeBase) -> dict[str, np.ndarray]:
    """Analytic gradient of the cumulative error at ``e``, as a map from
    every vocabulary term to its gradient vector.

    Positive facts contribute 2*eps to the subject and -2*eps to the object
    and relation; an active negative hinge contributes -2*(gamma-||eps||) *
    eps/||eps|| to the subject, negated for object and relation.  At the
    kink ||eps|| = 0, where the hinge is radially symmetric and every unit
    direction is a subgradient, the first coordinate axis stands in for
    eps/||eps||, so the result depends on the coordinates alone, not on
    ``e.seed``.  This is a one-member call of the loss the trainer descends,
    through the descent index cached on ``kb`` (see :class:`_Problem`).
    """
    if e.entity_names != kb.entities or e.relation_names != kb.relations:
        raise ValueError("embedding vocabulary differs from the knowledge base's")
    # As in the descent, an overflow shows in the result, so numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        _, grads = _Stack(kb).loss_and_grads(e.term_array[None], e.config.gamma)
    return dict(zip(e.entity_names + e.relation_names, grads[0]))


def _descend(
    kb: KnowledgeBase, cfg: EmbeddingConfig, tcfg: TrainConfig, seeds: Sequence[int]
) -> Iterator[tuple[int, tuple[Embedding, FitReport]]]:
    """Descend from every seed at once, yielding ``(index, fit)`` for each
    member as it leaves the batch: converged, out of epochs, or with its rate
    underflowed.  Members leaving together come in index order; a caller
    that stops iterating stops the descent.

    The live members are one ``(M, E+R, d)`` term array, with one gradient
    array of the same shape, so a step and the merge of a rejected step are a
    few whole-array operations.  Once one member is live, its error and rate
    are Python floats and its loop tests them without numpy masks; the step
    and the loss are the batch's, so its bytes are too.  The index arrays
    come from the store's cached :class:`_Problem`, built by the first
    descent on the store."""
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        return
    stack = _Stack(kb)
    loss_and_grads, incidence = stack.loss_and_grads, stack.problem.incidence
    gamma, eps_fit, max_epochs = cfg.gamma, cfg.eps_fit, tcfg.max_epochs
    live = np.arange(len(seeds))
    terms = np.array([init_embedding(kb, cfg, tcfg, seed).term_array for seed in seeds])
    rates = np.full((len(seeds), 1, 1), tcfg.learning_rate)  # shaped as a step's factor
    epoch = 0
    # Overflow gives a non-finite error, and the guard below rejects such a
    # step, so numpy's overflow warnings would only report what it handles.
    with np.errstate(over="ignore", invalid="ignore"):
        err, grads = loss_and_grads(terms, gamma)
    while live.size:
        underflow = np.zeros(live.size, dtype=bool)
        # A term's gradient sums one contribution per triple it is in, so
        # dividing by that count keeps a rate that is safe for a relation
        # shared by many triples from being slow for an entity in a few.
        with np.errstate(over="ignore", invalid="ignore"):
            if live.size == 1:
                # The batch's rule with the error and rate as Python floats:
                # the same comparisons and the same step, without the numpy
                # calls its masks cost on arrays of one element.
                e, rate = err.item(), rates.item()
                while epoch < max_epochs and e > eps_fit:
                    epoch += 1
                    new_terms = terms - rate * (grads / incidence)
                    new_err, new_grads = loss_and_grads(new_terms, gamma)
                    ne = new_err.item()
                    if ne <= e and math.isfinite(ne):
                        terms, err, grads, e = new_terms, new_err, new_grads, ne
                        continue
                    rate *= 0.5
                    if rate < _MIN_LEARNING_RATE:
                        underflow[0] = True
                        break
            else:
                while epoch < max_epochs and np.count_nonzero(err > eps_fit) == err.size:
                    epoch += 1
                    new_terms = terms - rates * (grads / incidence)
                    new_err, new_grads = loss_and_grads(new_terms, gamma)
                    accepted = (new_err <= err) & np.isfinite(new_err)
                    if np.count_nonzero(accepted) == accepted.size:  # the common case, without the merges below
                        terms, err, grads = new_terms, new_err, new_grads
                        continue
                    # A rejected step halves that member's rate and keeps its state.
                    keep = accepted[:, None, None]
                    terms = np.where(keep, new_terms, terms)
                    grads = np.where(keep, new_grads, grads)
                    err = np.where(accepted, new_err, err)
                    rates = np.where(keep, rates, 0.5 * rates)
                    underflow = ~accepted & (rates[:, 0, 0] < _MIN_LEARNING_RATE)
                    if np.count_nonzero(underflow):
                        break
        leaving = underflow | ~(err > eps_fit) | (epoch >= max_epochs)
        for j in np.flatnonzero(leaving):
            i = int(live[j])
            fitted = Embedding.from_terms(kb.entities, kb.relations, terms[j], cfg, seeds[i])
            report = FitReport(
                final_error=float(err[j]),
                epochs_used=epoch,
                converged=bool(err[j] <= eps_fit),
                seed=seeds[i],
            )
            yield i, (fitted, report)
        stay = ~leaving
        live, terms, grads, rates, err = (a[stay] for a in (live, terms, grads, rates, err))


def train_members(
    kb: KnowledgeBase, cfg: EmbeddingConfig, tcfg: TrainConfig, seeds: Sequence[int]
) -> list[tuple[Embedding, FitReport]]:
    """Train one member per seed, all in one batched descent.

    Each member has its own rate and accept mask and leaves the batch when it
    converges, runs out of epochs, or its rate underflows, so its fit is
    bit-identical to training it alone.
    """
    fits = dict(_descend(kb, cfg, tcfg, seeds))
    return [fits[i] for i in range(len(fits))]


def train(
    kb: KnowledgeBase, cfg: EmbeddingConfig, tcfg: TrainConfig, seed: int
) -> tuple[Embedding, FitReport]:
    """Full-batch guarded gradient descent until the cumulative error drops
    to eps_fit, the epoch budget runs out, or the guarded rate underflows.

    The one-seed call of :func:`train_members`, so its epochs take the
    one-member loop of the descent.  Pure in all arguments:
    repeated calls are bit-identical.  The embedding is returned even when
    the fit does not converge.
    """
    return train_members(kb, cfg, tcfg, [seed])[0]


def train_with_retries(
    kb: KnowledgeBase, cfg: EmbeddingConfig, tcfg: TrainConfig, seed: int
) -> tuple[Embedding, FitReport]:
    """Train with up to retry_budget extra reseeded attempts (seed XOR
    attempt index); returns the first converged fit, else the last attempt.

    All attempts descend as one batch, which stops as soon as the first
    converged attempt is known (every earlier one has finished without
    converging).  The result equals training the attempts one after another.
    """
    attempts = [seed ^ a for a in range(tcfg.retry_budget + 1)]
    finished: dict[int, tuple[Embedding, FitReport]] = {}
    first = 0  # lowest attempt not yet known to have failed
    for i, fit in _descend(kb, cfg, tcfg, attempts):
        finished[i] = fit
        while first in finished:
            if finished[first][1].converged:
                return finished[first]
            first += 1
    return finished[len(attempts) - 1]


class Satisfiability(Enum):
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SatisfiabilityResult:
    """What :func:`satisfiability_oracle` proved about a store.

    ``certificate`` is a zero-error embedding when SATISFIABLE.  When
    UNSATISFIABLE, ``error_floor`` is a lower bound on the cumulative error
    of every embedding, and ``pinned`` the negative triple, pinned inside
    the margin by the positive facts, that sets it; otherwise they are 0
    and ``None``.
    """

    status: Satisfiability
    certificate: Optional[Embedding]
    error_floor: float = 0.0
    pinned: Optional[SignedTriple] = None


def satisfiability_oracle(
    kb: KnowledgeBase, dimension: int, gamma: float = DEFAULT_GAMMA
) -> SatisfiabilityResult:
    """Linear-algebra check that zero cumulative error is attainable.

    Positive triples are the exact equations subject - object - relation = 0
    over all coordinates as unknowns.  The solution space of that homogeneous
    system (computed per coordinate axis, since axes decouple) is then probed
    for a point keeping every negative residual at norm >= gamma; because the
    space is linear, such a point exists iff no negative residual functional
    vanishes identically on it.  Returns a certificate embedding when found.

    A negative row n that vanishes on the solution space lies in the span of
    the positive rows p_i: n = sum_i c_i p_i, and its residual in any
    embedding is eps_n = sum_i c_i eps_i.  By the triangle and
    Cauchy-Schwarz inequalities ||eps_n|| <= ||c|| sqrt(P), where P =
    sum_i ||eps_i||^2 is the positives' error, so the cumulative error is at
    least P + (gamma - ||c|| sqrt(P))_+^2.  With t = sqrt(P), on t < gamma /
    ||c|| this is smallest at t = ||c|| gamma / (1 + ||c||^2), where it
    equals gamma^2 / (1 + ||c||^2); beyond, it is t^2 >= gamma^2 / ||c||^2,
    larger still (||c|| > 0, since n has a relation coefficient).  The min-norm multipliers make
    the bound tightest: from the SVD of the positive rows, ||c||^2 =
    sum_{k < rank} ((vt_k . n) / s_k)^2.  The result's ``error_floor`` is the
    largest such bound over the pinned negatives, and ``pinned`` the first
    negative in store order that attains it.
    """
    n_ent, n_rel = len(kb.entities), len(kb.relations)
    n_terms = n_ent + n_rel
    tau_pos = min(DEFAULT_TAU_POS, gamma / 2.0)
    cfg = EmbeddingConfig(dimension=dimension, gamma=gamma, tau_pos=tau_pos)
    subjects, objects, relations, positive = kb.triple_index
    rows = np.zeros((len(kb.triples), n_terms))
    triple = np.arange(len(kb.triples))
    np.add.at(rows, (triple, subjects), 1.0)
    np.add.at(rows, (triple, objects), -1.0)
    np.add.at(rows, (triple, n_ent + relations), -1.0)
    positives, negatives = rows[positive], rows[~positive]
    _, svals, vt = np.linalg.svd(positives, full_matrices=True)
    tol = max(positives.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > tol))
    basis = vt[rank:].T  # (n_terms, k) null-space basis; the identity with no positives
    projected = negatives @ basis  # (n_neg, k)
    norms = np.linalg.norm(projected, axis=1)
    pinned = norms < 1e-9
    if pinned.any():
        multipliers = (negatives[pinned] @ vt[:rank].T) / svals[:rank]
        floors = gamma * gamma / (1.0 + np.sum(multipliers * multipliers, axis=1))
        worst = int(np.argmax(floors))
        triple = np.flatnonzero(~positive)[np.flatnonzero(pinned)[worst]]
        return SatisfiabilityResult(
            Satisfiability.UNSATISFIABLE, None, float(floors[worst]), kb.triples[triple]
        )
    # A generic direction keeps every (nonzero) functional away from zero;
    # a near-pinned negative or a draw near a zero (measure zero) is left to
    # descent.  Scaling then makes every negative residual clear the margin
    # with slack; with no negatives the certificate is all zero.
    rng = np.random.default_rng(np.random.SeedSequence([0xD1CE, basis.shape[1]]))
    z = rng.normal(size=basis.shape[1])
    values = projected @ z
    if np.any(norms < 1e-6) or np.any(np.abs(values) <= 1e-9 * norms):
        return SatisfiabilityResult(Satisfiability.INCONCLUSIVE, None)
    coords = basis @ (z * (2.0 * gamma / np.min(np.abs(values), initial=np.inf)))
    return SatisfiabilityResult(Satisfiability.SATISFIABLE, _certificate(kb, cfg, coords))


def _certificate(kb: KnowledgeBase, cfg: EmbeddingConfig, coords: np.ndarray) -> Embedding:
    # The 1-D solution is laid along the first axis; remaining axes are zero.
    terms = np.zeros((len(coords), cfg.dimension))
    terms[:, 0] = coords
    return Embedding.from_terms(kb.entities, kb.relations, terms, cfg)


def reject_unsatisfiable(kb: KnowledgeBase, cfg: EmbeddingConfig) -> None:
    """Raise :class:`UnsatisfiableStoreError` when the store's error floor at
    ``cfg.gamma`` lies above ``cfg.eps_fit`` by more than descent's rounding
    can account for; return otherwise, also when the oracle is inconclusive."""
    oracle = satisfiability_oracle(kb, cfg.dimension, cfg.gamma)
    if cfg.eps_fit < (1.0 - _FLOOR_SLACK) * oracle.error_floor:
        t = oracle.pinned
        raise UnsatisfiableStoreError(
            f"unsatisfiable store: the positive facts pin"
            f" {t.relation}({t.subject}, {t.object}){t.polarity} inside the margin;"
            f" every embedding has cumulative error >= {oracle.error_floor:.6g}"
            f" > eps_fit {cfg.eps_fit!r}"
        )


def min_dimension_search(
    kb: KnowledgeBase, cfg_template: EmbeddingConfig, tcfg: TrainConfig, seed: int
) -> tuple[int, Embedding]:
    """Smallest dimension at which training converges within the retry
    budget: double upward from 1 until a fit succeeds, then binary search
    down.  The search is bounded by |entities| + |relations|.  A store whose
    error floor rules out every dimension is rejected before any training
    (see :func:`reject_unsatisfiable`)."""
    reject_unsatisfiable(kb, cfg_template)
    n_max = max(1, len(kb.entities) + len(kb.relations))
    fits: dict[int, Embedding] = {}

    def attempt(n: int) -> bool:
        emb, report = train_with_retries(kb, replace(cfg_template, dimension=n), tcfg, seed)
        if report.converged:
            fits[n] = emb
        return report.converged

    lo, hi = 0, None  # lo: largest known failure, hi: smallest known success
    n = 1
    while True:
        if attempt(n):
            hi = n
            break
        lo = n
        if n >= n_max:
            raise NoConvergentDimensionError(
                f"no dimension up to {n_max} converged within the retry budget"
            )
        n = min(2 * n, n_max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if attempt(mid):
            hi = mid
        else:
            lo = mid
    return hi, fits[hi]
