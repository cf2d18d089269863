"""Fitting one embedding to a store by seeded full-batch gradient descent.

Includes the analytic gradients of the cumulative error, a linear-algebra
check for whether zero error is attainable at all, and a search for the
smallest dimension at which training reaches it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .embedding import Embedding, EmbeddingConfig
from .kb import KnowledgeBase

RNG_ALGORITHM_ID = "numpy-pcg64/per-term-sha256-stream"

# Step rejection stops once the guarded rate underflows this floor; at that
# point the fit is stuck at a non-zero stationary value.
_MIN_LEARNING_RATE = 1e-18


class NoConvergentDimensionError(RuntimeError):
    """No dimension up to the search bound produced a converged fit."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings.

    Descent is full batch with a guarded constant rate: any step that
    increases the cumulative error is rejected and the rate is halved, so the
    error trace is non-increasing.  ``retry_budget`` counts additional
    reseeded attempts (seed XOR attempt index) granted to non-convex fits.
    """

    learning_rate: float = 0.1
    max_epochs: int = 5000
    init_scale: float = 1.0
    retry_budget: int = 3
    rng_algorithm_id: str = RNG_ALGORITHM_ID

    def __post_init__(self) -> None:
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive: {self.learning_rate!r}")
        if not isinstance(self.max_epochs, int) or self.max_epochs < 1:
            raise ValueError(f"max_epochs must be a positive integer: {self.max_epochs!r}")
        if not self.init_scale > 0.0:
            raise ValueError(f"init_scale must be positive: {self.init_scale!r}")
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
    n = cfg.dimension
    s = tcfg.init_scale

    def draw(names: tuple[str, ...]) -> np.ndarray:
        if not names:
            return np.zeros((0, n))
        return np.stack([_term_rng(seed, t).uniform(-s, s, n) for t in names])

    return Embedding(
        entity_names=kb.entities,
        relation_names=kb.relations,
        entity_array=draw(kb.entities),
        relation_array=draw(kb.relations),
        config=cfg,
        seed=int(seed),
    )


class _Problem:
    """Index arrays for vectorized loss and gradient evaluation."""

    def __init__(self, kb: KnowledgeBase, e: Embedding, seed: int):
        if e.entity_names != kb.entities or e.relation_names != kb.relations:
            raise ValueError("embedding vocabulary differs from the knowledge base's")
        subjects, objects, relations, positive = kb.triple_index
        negative = ~positive
        self.ps, self.po, self.pr = subjects[positive], objects[positive], relations[positive]
        self.ns, self.no, self.nr = subjects[negative], objects[negative], relations[negative]
        # Deterministic unit directions used as the subgradient when a
        # negative residual sits exactly at the kink ||eps|| = 0.
        dirs = []
        for t in kb.triples:
            if t.positive:
                continue
            rng = _term_rng(seed, f"{t.relation}\x1f{t.subject}\x1f{t.object}\x1fkink")
            v = rng.normal(size=e.dimension)
            dirs.append(v / np.linalg.norm(v))
        self.kink_dirs = np.array(dirs) if dirs else np.zeros((0, e.dimension))

    def loss_and_grads(
        self, points: np.ndarray, vectors: np.ndarray, gamma: float
    ) -> tuple[float, np.ndarray, np.ndarray]:
        g_points = np.zeros_like(points)
        g_vectors = np.zeros_like(vectors)
        total = 0.0
        if self.ps.size:
            eps = points[self.ps] - points[self.po] - vectors[self.pr]
            total += float(np.sum(eps * eps))
            np.add.at(g_points, self.ps, 2.0 * eps)
            np.add.at(g_points, self.po, -2.0 * eps)
            np.add.at(g_vectors, self.pr, -2.0 * eps)
        if self.ns.size:
            eps = points[self.ns] - points[self.no] - vectors[self.nr]
            norms = np.sqrt(np.sum(eps * eps, axis=1))
            active = norms < gamma
            if np.any(active):
                gaps = gamma - norms[active]
                total += float(np.sum(gaps * gaps))
                unit = np.where(
                    (norms[active] > 0.0)[:, None],
                    eps[active] / np.maximum(norms[active], 1e-300)[:, None],
                    self.kink_dirs[active],
                )
                contrib = -2.0 * gaps[:, None] * unit
                np.add.at(g_points, self.ns[active], contrib)
                np.add.at(g_points, self.no[active], -contrib)
                np.add.at(g_vectors, self.nr[active], -contrib)
        return total, g_points, g_vectors


def gradients(e: Embedding, kb: KnowledgeBase) -> dict[str, np.ndarray]:
    """Analytic gradient of the cumulative error at ``e``, as a map from
    every vocabulary term to its gradient vector.

    Positive facts contribute 2*eps to the subject and -2*eps to the object
    and relation; an active negative hinge contributes -2*(gamma-||eps||) *
    eps/||eps|| to the subject, negated for object and relation.  At the
    kink ||eps|| = 0 a deterministic pseudo-random unit direction keyed by
    the triple and the embedding seed stands in for eps/||eps||.
    """
    problem = _Problem(kb, e, e.seed)
    _, g_points, g_vectors = problem.loss_and_grads(
        e.entity_array, e.relation_array, e.config.gamma
    )
    out = {t: g_points[i] for i, t in enumerate(e.entity_names)}
    out.update({t: g_vectors[i] for i, t in enumerate(e.relation_names)})
    return out


def train(
    kb: KnowledgeBase, cfg: EmbeddingConfig, tcfg: TrainConfig, seed: int
) -> tuple[Embedding, FitReport]:
    """Full-batch guarded gradient descent until the cumulative error drops
    to eps_fit or the epoch budget runs out.

    Pure in all arguments: repeated calls are bit-identical.  The embedding
    is returned even when the fit does not converge.
    """
    start = init_embedding(kb, cfg, tcfg, seed)
    if not kb.triples:
        return start, FitReport(0.0, 0, True, int(seed), tcfg.rng_algorithm_id)
    problem = _Problem(kb, start, seed)
    points = start.entity_array.copy()
    vectors = start.relation_array.copy()
    gamma = cfg.gamma
    err, g_points, g_vectors = problem.loss_and_grads(points, vectors, gamma)
    rate = tcfg.learning_rate
    epochs = 0
    while err > cfg.eps_fit and epochs < tcfg.max_epochs:
        epochs += 1
        new_points = points - rate * g_points
        new_vectors = vectors - rate * g_vectors
        new_err, new_gp, new_gv = problem.loss_and_grads(new_points, new_vectors, gamma)
        if not (new_err <= err and np.isfinite(new_err)):
            rate *= 0.5
            if rate < _MIN_LEARNING_RATE:
                break
            continue
        points, vectors = new_points, new_vectors
        err, g_points, g_vectors = new_err, new_gp, new_gv
    fitted = Embedding(
        entity_names=start.entity_names,
        relation_names=start.relation_names,
        entity_array=points,
        relation_array=vectors,
        config=cfg,
        seed=int(seed),
    )
    report = FitReport(
        final_error=float(err),
        epochs_used=epochs,
        converged=bool(err <= cfg.eps_fit),
        seed=int(seed),
        rng_algorithm_id=tcfg.rng_algorithm_id,
    )
    return fitted, report


def train_with_retries(
    kb: KnowledgeBase, cfg: EmbeddingConfig, tcfg: TrainConfig, seed: int
) -> tuple[Embedding, FitReport]:
    """Train with up to retry_budget extra reseeded attempts (seed XOR
    attempt index); returns the first converged fit, else the last attempt."""
    best: Optional[tuple[Embedding, FitReport]] = None
    for attempt in range(tcfg.retry_budget + 1):
        best = train(kb, cfg, tcfg, seed ^ attempt)
        if best[1].converged:
            return best
    assert best is not None
    return best


class Satisfiability(Enum):
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SatisfiabilityResult:
    status: Satisfiability
    certificate: Optional[Embedding]

    def __bool__(self) -> bool:
        return self.status is Satisfiability.SATISFIABLE


def satisfiability_oracle(
    kb: KnowledgeBase, dimension: int, gamma: float = 1.0
) -> SatisfiabilityResult:
    """Linear-algebra check that zero cumulative error is attainable.

    Positive triples are the exact equations subject - object - relation = 0
    over all coordinates as unknowns.  The solution space of that homogeneous
    system (computed per coordinate axis, since axes decouple) is then probed
    for a point keeping every negative residual at norm >= gamma; because the
    space is linear, such a point exists iff no negative residual functional
    vanishes identically on it.  Returns a certificate embedding when found.
    """
    n_ent, n_rel = len(kb.entities), len(kb.relations)
    n_terms = n_ent + n_rel
    cfg = EmbeddingConfig(dimension=dimension, gamma=gamma, tau_pos=min(0.8, gamma / 2.0))
    if n_terms == 0:
        empty = Embedding((), (), np.zeros((0, dimension)), np.zeros((0, dimension)), cfg, 0)
        return SatisfiabilityResult(Satisfiability.SATISFIABLE, empty)
    subjects, objects, relations, positive = kb.triple_index
    rows = np.zeros((len(kb.triples), n_terms))
    triple = np.arange(len(kb.triples))
    np.add.at(rows, (triple, subjects), 1.0)
    np.add.at(rows, (triple, objects), -1.0)
    np.add.at(rows, (triple, n_ent + relations), -1.0)
    positives, negatives = rows[positive], rows[~positive]
    if positives.size:
        _, svals, vt = np.linalg.svd(positives, full_matrices=True)
        tol = max(positives.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
        rank = int(np.sum(svals > tol))
        basis = vt[rank:].T  # (n_terms, k) null-space basis
    else:
        basis = np.eye(n_terms)
    if not negatives.size:
        coords = np.zeros(n_terms)
        return SatisfiabilityResult(
            Satisfiability.SATISFIABLE, _certificate(kb, cfg, coords)
        )
    if basis.shape[1] == 0:
        # Positives pin every coordinate to zero, so negatives cannot escape.
        return SatisfiabilityResult(Satisfiability.UNSATISFIABLE, None)
    projected = negatives @ basis  # (n_neg, k)
    norms = np.linalg.norm(projected, axis=1)
    if np.any(norms < 1e-9):
        return SatisfiabilityResult(Satisfiability.UNSATISFIABLE, None)
    if np.any(norms < 1e-6):
        return SatisfiabilityResult(Satisfiability.INCONCLUSIVE, None)
    # A generic direction keeps every (nonzero) functional away from zero;
    # retry deterministically on the measure-zero failure, then scale so all
    # negative residuals clear the margin with slack.
    rng = np.random.default_rng(np.random.SeedSequence([0xD1CE, basis.shape[1]]))
    for _ in range(16):
        z = rng.normal(size=basis.shape[1])
        values = projected @ z
        if np.all(np.abs(values) > 1e-9 * norms):
            coords = basis @ (z * (2.0 * gamma / np.min(np.abs(values))))
            return SatisfiabilityResult(
                Satisfiability.SATISFIABLE, _certificate(kb, cfg, coords)
            )
    return SatisfiabilityResult(Satisfiability.INCONCLUSIVE, None)


def _certificate(kb: KnowledgeBase, cfg: EmbeddingConfig, coords: np.ndarray) -> Embedding:
    # The 1-D solution is laid along the first axis; remaining axes are zero.
    n_ent = len(kb.entities)
    ents = np.zeros((n_ent, cfg.dimension))
    rels = np.zeros((len(kb.relations), cfg.dimension))
    ents[:, 0] = coords[:n_ent]
    rels[:, 0] = coords[n_ent:]
    return Embedding(kb.entities, kb.relations, ents, rels, cfg, 0)


def min_dimension_search(
    kb: KnowledgeBase,
    cfg_template: EmbeddingConfig,
    tcfg: TrainConfig,
    seed: int,
    n_max: Optional[int] = None,
) -> tuple[int, Embedding]:
    """Smallest dimension at which training converges within the retry
    budget: double upward from 1 until a fit succeeds, then binary search
    down.  The search bound defaults to |entities| + |relations|."""
    if n_max is None:
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
