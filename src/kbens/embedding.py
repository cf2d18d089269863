"""One translational embedding: a point per entity, a vector per relation.

For a triple r(a, b) the residual is eps = (a - b) - r.  A positive fact
costs ||eps||^2, a negative fact costs max(0, gamma - ||eps||)^2, so an
embedding with zero cumulative error places every positive fact exactly on
its relation vector and every negative fact outside the gamma-ball.  A query
is satisfied when its residual lies within the satisfaction radius tau_pos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .kb import KnowledgeBase, Query, SignedTriple, UnknownTermError

TripleLike = Union[SignedTriple, Query]

# Satisfaction radius default: well above the residual scale of a fitted
# positive fact (sqrt(eps_fit)) and well below the converged radius of a
# fitted negative fact (gamma - sqrt(eps_fit)), so asserted facts keep their
# polarity while unstated facts can genuinely split a set of fitted models.
DEFAULT_TAU_POS = 0.8
DEFAULT_GAMMA = 1.0
DEFAULT_EPS_FIT = 1e-4


def _squared_norm(eps: np.ndarray) -> float:
    # The trainer's and the batched vote's reduction, so all paths agree bit
    # for bit.  An overflowing square is +inf, outside every radius and margin.
    with np.errstate(over="ignore"):
        return float(np.sum(eps * eps))


@dataclass(frozen=True)
class EmbeddingConfig:
    """Geometry of one embedding space.

    dimension: number of coordinates per term.
    tau_pos:   satisfaction radius; a query holds iff ||eps|| <= tau_pos.
    gamma:     negative margin; a negative fact costs nothing once its
               residual leaves the gamma-ball.
    eps_fit:   cumulative-error threshold below which a fit counts as
               converged.
    """

    dimension: int
    tau_pos: float = DEFAULT_TAU_POS
    gamma: float = DEFAULT_GAMMA
    eps_fit: float = DEFAULT_EPS_FIT

    def __post_init__(self) -> None:
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise ValueError(f"dimension must be a positive integer: {self.dimension!r}")
        if not self.tau_pos >= 0.0:
            raise ValueError(f"tau_pos must be non-negative: {self.tau_pos!r}")
        if not self.gamma > self.tau_pos:
            raise ValueError(
                f"gamma must exceed tau_pos: gamma={self.gamma!r} tau_pos={self.tau_pos!r}"
            )
        if not self.eps_fit >= 0.0:
            raise ValueError(f"eps_fit must be non-negative: {self.eps_fit!r}")

    def to_doc(self) -> dict:
        return {"tau_pos": self.tau_pos, "gamma": self.gamma, "eps_fit": self.eps_fit}


@dataclass(frozen=True, eq=False)
class Embedding:
    """An immutable assignment of coordinates to a vocabulary.

    ``entity_array`` has one row per name in ``entity_names`` (sorted), and
    likewise for relations.  Rows are frozen after construction; evaluation
    methods are pure and safe for concurrent use.
    """

    entity_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    entity_array: np.ndarray
    relation_array: np.ndarray
    config: EmbeddingConfig
    seed: int

    def __post_init__(self) -> None:
        n = self.config.dimension
        ents = np.ascontiguousarray(np.asarray(self.entity_array, dtype=np.float64))
        rels = np.ascontiguousarray(np.asarray(self.relation_array, dtype=np.float64))
        ents = ents.reshape(len(self.entity_names), n)
        rels = rels.reshape(len(self.relation_names), n)
        if not (np.all(np.isfinite(ents)) and np.all(np.isfinite(rels))):
            raise ValueError("embedding coordinates must all be finite")
        ents.flags.writeable = False
        rels.flags.writeable = False
        object.__setattr__(self, "entity_array", ents)
        object.__setattr__(self, "relation_array", rels)
        object.__setattr__(self, "_entity_index", {t: i for i, t in enumerate(self.entity_names)})
        object.__setattr__(self, "_relation_index", {t: i for i, t in enumerate(self.relation_names)})

    @classmethod
    def from_points(
        cls,
        entity_points: Mapping[str, object],
        relation_vectors: Mapping[str, object],
        config: EmbeddingConfig,
        seed: int = 0,
    ) -> "Embedding":
        """Build from term -> coordinates mappings (names get sorted)."""
        ent_names = tuple(sorted(entity_points))
        rel_names = tuple(sorted(relation_vectors))
        ents = np.array([entity_points[t] for t in ent_names], dtype=np.float64)
        rels = np.array([relation_vectors[t] for t in rel_names], dtype=np.float64)
        return cls(ent_names, rel_names, ents, rels, config, seed)

    @property
    def dimension(self) -> int:
        return self.config.dimension

    @property
    def entity_points(self) -> dict[str, np.ndarray]:
        return {t: self.entity_array[i] for t, i in self._entity_index.items()}

    @property
    def relation_vectors(self) -> dict[str, np.ndarray]:
        return {t: self.relation_array[i] for t, i in self._relation_index.items()}

    def entity_row(self, name: str) -> int:
        try:
            return self._entity_index[name]
        except KeyError:
            raise UnknownTermError(f"unknown entity: {name!r}") from None

    def relation_row(self, name: str) -> int:
        try:
            return self._relation_index[name]
        except KeyError:
            raise UnknownTermError(f"unknown relation: {name!r}") from None

    def entity_point(self, name: str) -> np.ndarray:
        return self.entity_array[self.entity_row(name)]

    def relation_vector(self, name: str) -> np.ndarray:
        return self.relation_array[self.relation_row(name)]

    def residual(self, t: TripleLike) -> np.ndarray:
        """eps = (subject - object) - relation, component-exact."""
        return (
            self.entity_point(t.subject)
            - self.entity_point(t.object)
            - self.relation_vector(t.relation)
        )

    def triple_error(self, t: SignedTriple) -> float:
        """||eps||^2 for a positive fact, max(0, gamma - ||eps||)^2 for a
        negative one."""
        squared = _squared_norm(self.residual(t))
        if t.positive:
            return squared
        gap = self.config.gamma - math.sqrt(squared)
        return gap * gap if gap > 0.0 else 0.0

    def cumulative_error(self, kb: KnowledgeBase) -> float:
        """Sum of per-triple errors over the store; zero iff the embedding
        models every asserted fact exactly."""
        return float(sum(self.triple_error(t) for t in kb.triples))

    def satisfies(self, q: TripleLike, tau: Optional[float] = None) -> bool:
        """Whether the fact holds in this embedding: ||eps|| <= tau.

        ``tau`` defaults to the configured satisfaction radius.  This is the
        scalar reference for :func:`kbens.ensemble.satisfied_counts`.
        """
        radius = self.config.tau_pos if tau is None else tau
        return bool(math.sqrt(_squared_norm(self.residual(q))) <= radius)

    def to_doc(self) -> dict:
        """JSON-ready document with full round-trip float precision."""
        return {
            "dimension": self.config.dimension,
            "seed": int(self.seed),
            "config": self.config.to_doc(),
            "entities": {t: [float(x) for x in self.entity_point(t)] for t in self.entity_names},
            "relations": {t: [float(x) for x in self.relation_vector(t)] for t in self.relation_names},
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Embedding":
        config = EmbeddingConfig(dimension=int(doc["dimension"]), **doc["config"])
        return cls.from_points(doc["entities"], doc["relations"], config, seed=int(doc["seed"]))
