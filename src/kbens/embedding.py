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
from typing import Iterable, Mapping, Optional, Union

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


_FIELD_KINDS = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string", dict: "an object"
}


def read_field(doc: Mapping, key: str, kind: type) -> Union[bool, int, float, str]:
    """``doc[key]`` from a parsed JSON file or a config being built, checked
    instead of coerced: ``bool`` and ``str`` want that type, ``int`` a
    number with an integral value, ``float`` any number (a numpy float
    too), ``dict`` a JSON object; a boolean is never a number."""
    value = doc[key]
    if type(value) is kind:
        return value
    if kind in (int, float) and isinstance(value, (int, float)) and type(value) is not bool:
        if kind is float:
            return float(value)
        if int(value) == value:  # int() rejects inf and NaN
            return int(value)
    raise ValueError(f"field {key!r} must be {_FIELD_KINDS[kind]}, not {value!r}")


def read_fields(config: object, **kinds: type) -> None:
    """Apply :func:`read_field` to the named fields of a frozen config as it
    is built, keeping the values it returns (an integral number as an int, a
    number as a float), so every config that builds writes a file that loads."""
    for key, kind in kinds.items():
        object.__setattr__(config, key, read_field(vars(config), key, kind))


def _squared_norm(eps: np.ndarray) -> float:
    # The order of the trainer's per-triple sums and of the batched vote's
    # recount near a radius, so all paths agree bit for bit.  An overflowing
    # square is +inf, outside every finite radius and every margin.
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
        read_fields(self, dimension=int, tau_pos=float, gamma=float, eps_fit=float)
        if self.dimension < 1:
            raise ValueError(f"dimension must be a positive integer: {self.dimension!r}")
        if not self.tau_pos >= 0.0:
            raise ValueError(f"tau_pos must be non-negative: {self.tau_pos!r}")
        if not self.gamma > self.tau_pos:
            raise ValueError(
                f"gamma must exceed tau_pos: gamma={self.gamma!r} tau_pos={self.tau_pos!r}"
            )
        if not self.gamma < math.inf:
            raise ValueError(f"gamma must be finite: {self.gamma!r}")
        if not 0.0 <= self.eps_fit < math.inf:
            raise ValueError(f"eps_fit must be non-negative and finite: {self.eps_fit!r}")

    def radius(self, tau: Optional[float] = None) -> float:
        """The satisfaction radius of a vote: ``tau`` when given, else
        ``tau_pos``.  An override must be a non-negative number (inf too)."""
        if tau is not None and not tau >= 0.0:
            raise ValueError(f"tau must be a non-negative number: {tau!r}")
        return self.tau_pos if tau is None else tau


class Vocabulary:
    """``entity_names`` and ``relation_names``, with each name's row."""

    def _index_terms(self) -> None:
        # Each name names one term: no repeat, and no entity shares a relation's name.
        entities = {t: i for i, t in enumerate(self.entity_names)}
        relations = {t: i for i, t in enumerate(self.relation_names)}
        distinct = len(entities) + len(relations) == len(self.entity_names) + len(self.relation_names)
        if not (distinct and entities.keys().isdisjoint(relations)):
            vocabulary = (*self.entity_names, *self.relation_names)
            repeat = next(t for i, t in enumerate(vocabulary) if t in vocabulary[:i])
            raise ValueError(f"term name {repeat!r} names more than one entity or relation")
        vars(self).update(_entity_index=entities, _relation_index=relations)

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


def member_doc(config: EmbeddingConfig, seed: object, terms: np.ndarray,
               vocabulary: Vocabulary) -> dict:
    """One member's document from its ``(E+R, d)`` rows and its ``seed``, as
    given, each name's row as a list: of numbers, or of the
    :class:`kbens.jsonfile.Field` values of a writer's template."""
    n = len(vocabulary.entity_names)
    settings = {"tau_pos": config.tau_pos, "gamma": config.gamma, "eps_fit": config.eps_fit}
    return {"dimension": config.dimension, "seed": seed, "config": settings,
            "entities": dict(zip(vocabulary.entity_names, terms[:n].tolist())),
            "relations": dict(zip(vocabulary.relation_names, terms[n:].tolist()))}


def read_members(docs: Iterable[Mapping]) -> tuple:
    """Member documents (:meth:`Embedding.to_doc`) read in one pass into
    their names, config (``None`` without a member), seeds and one frozen
    ``(M, E+R, d)`` float64 stack of rows, checked at once as the
    :class:`Embedding` constructor checks one member's rows, with no JSON
    ``true`` or ``false``; each member needs member 0's config and terms."""
    docs = list(docs)
    if not docs:
        return (), (), None, (), np.empty((0, 0, 0))
    first = repr((docs[0]["dimension"], docs[0]["config"]))  # as JSON: 1, 1.0 and true differ
    configs = [EmbeddingConfig(dimension=doc["dimension"], **doc["config"]) for doc in docs
               if doc is docs[0] or repr((doc["dimension"], doc["config"])) != first]
    if any(c != configs[0] for c in configs):
        raise ValueError("members disagree on embedding config")
    seeds = tuple(read_field(doc, "seed", int) for doc in docs)
    blocks = [[read_field(doc, key, dict) for key in ("entities", "relations")] for doc in docs]
    names = [tuple(sorted(block)) for block in blocks[0]]
    for seed, own in zip(seeds, blocks):
        if [block.keys() for block in own] != [block.keys() for block in blocks[0]]:
            raise ValueError(f"member seed={seed} has a different vocabulary than member 0")
    rows = [block[t] for own in blocks for block, ns in zip(own, names) for t in ns]
    d = configs[0].dimension
    try:
        terms = np.array(rows)
        if terms.dtype.kind not in "iuf" or rows and terms.shape != (len(rows), d) or not (
                np.isfinite(terms).all()):
            raise ValueError("coordinates must be finite numbers")
    except ValueError:  # the first member that does not build on its own says why
        for seed, own in zip(seeds, blocks):
            member_rows = [[block[t] for t in ns] for block, ns in zip(own, names)]
            Embedding(*names, *member_rows, configs[0], seed)
        raise
    terms = np.asarray(terms, dtype=np.float64).reshape(len(docs), -1, d)
    if ((terms == 0) | (terms == 1)).any() and any(type(x) is bool for row in rows for x in row):
        raise ValueError("coordinates must be numbers")
    terms.flags.writeable = False
    return (*names, configs[0], seeds, terms)


@dataclass(frozen=True, eq=False)
class Embedding(Vocabulary):
    """An immutable assignment of coordinates to a vocabulary.

    ``entity_array`` has one row per name in ``entity_names`` (sorted), and
    likewise for relations.  Construction checks the names and coordinates,
    built by hand, fitted or unpickled (a loaded ensemble's members are views
    of its stack, whose rows the load checked by the same rules): each name
    names one term (no repeat, and no entity shares a relation's name); the
    coordinates are numbers (integer or float, never strings, booleans or
    objects), exactly ``(len(names), dimension)`` rows (only an empty
    vocabulary may pass an empty array of any shape), all finite; a
    mismatched array is never reshaped.  The rows are copied into one frozen
    ``(E+R, d)`` ``term_array`` (entity points first, the layout of every
    member stack), whose read-only views are ``entity_array`` and
    ``relation_array``.  Evaluation methods are pure and safe for concurrent use.
    """

    entity_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    entity_array: np.ndarray
    relation_array: np.ndarray
    config: EmbeddingConfig
    seed: int

    def __post_init__(self) -> None:
        n = self.config.dimension
        blocks = []
        pairs = ((self.entity_names, self.entity_array), (self.relation_names, self.relation_array))
        for names, rows in pairs:
            array = np.asarray(rows)
            if array.dtype.kind not in "iuf":
                raise ValueError("coordinates must be numbers")
            if array.shape != (len(names), n) and (names or array.size):
                raise ValueError(
                    f"coordinate rows must be lists of {n} number(s): expected shape "
                    f"{(len(names), n)}, got {array.shape}"
                )
            # The reshape only gives an empty vocabulary's empty array its (0, d) shape.
            blocks.append(array.reshape(len(names), n))
        terms = np.concatenate(blocks, dtype=np.float64)  # a copy the caller cannot change
        if not np.isfinite(terms).all():
            raise ValueError("embedding coordinates must all be finite")
        terms.flags.writeable = False
        object.__setattr__(self, "term_array", terms)
        object.__setattr__(self, "entity_array", terms[:len(self.entity_names)])
        object.__setattr__(self, "relation_array", terms[len(self.entity_names):])
        self._index_terms()

    def __reduce__(self):
        # Rebuilt through the constructor, so a member from pickle or
        # copy.deepcopy is frozen and checked like any other.
        fields = (self.entity_array, self.relation_array, self.config, self.seed)
        return type(self), (self.entity_names, self.relation_names, *fields)

    @classmethod
    def from_points(
        cls,
        entity_points: Mapping[str, object],
        relation_vectors: Mapping[str, object],
        config: EmbeddingConfig,
        seed: int = 0,
    ) -> "Embedding":
        """Build from term -> coordinates mappings (names get sorted)."""
        ents, rels = tuple(sorted(entity_points)), tuple(sorted(relation_vectors))
        rows = [entity_points[t] for t in ents], [relation_vectors[t] for t in rels]
        return cls(ents, rels, *rows, config, seed)

    @classmethod
    def from_terms(cls, entity_names: tuple[str, ...], relation_names: tuple[str, ...],
                   terms: np.ndarray, config: EmbeddingConfig, seed: int = 0) -> "Embedding":
        """Build from one array of rows, the entity points then the relation vectors."""
        n = len(entity_names)
        return cls(entity_names, relation_names, terms[:n], terms[n:], config, seed)

    @property
    def dimension(self) -> int:
        return self.config.dimension

    @property
    def entity_points(self) -> dict[str, np.ndarray]:
        return {t: self.entity_array[i] for t, i in self._entity_index.items()}

    @property
    def relation_vectors(self) -> dict[str, np.ndarray]:
        return {t: self.relation_array[i] for t, i in self._relation_index.items()}

    def entity_point(self, name: str) -> np.ndarray:
        return self.entity_array[self.entity_row(name)]

    def relation_vector(self, name: str) -> np.ndarray:
        return self.relation_array[self.relation_row(name)]

    def residual(self, t: TripleLike) -> np.ndarray:
        """eps = (subject - object) - relation, component-exact; a component
        that overflows is +-inf, as in the batched vote."""
        subject, object_ = self.entity_point(t.subject), self.entity_point(t.object)
        relation = self.relation_vector(t.relation)
        with np.errstate(over="ignore"):
            return subject - object_ - relation

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
        """Whether the fact holds in this embedding: ||eps|| <= radius, with
        the radius from :meth:`EmbeddingConfig.radius` (``tau`` if given,
        else ``tau_pos``; a NaN or negative ``tau`` raises ``ValueError``).
        This is the scalar reference for :func:`kbens.ensemble.satisfied_counts`.
        """
        return bool(math.sqrt(_squared_norm(self.residual(q))) <= self.config.radius(tau))

    def to_doc(self) -> dict:
        """JSON-ready document with full round-trip float precision."""
        return member_doc(self.config, int(self.seed), self.term_array, self)

    @classmethod
    def from_doc(cls, doc: dict) -> "Embedding":
        """Inverse of :meth:`to_doc`, read as :func:`read_members` reads an ensemble's."""
        entity_names, relation_names, config, (seed,), (terms,) = read_members([doc])
        return cls.from_terms(entity_names, relation_names, terms, config, seed)
