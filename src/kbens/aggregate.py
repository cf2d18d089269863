"""Aggregate models: per-term point clouds over a transform-diverse subset
of ensemble members.

Any invertible affine map of a zero-error embedding is again zero-error, so
two members related by one carry the same information.  The aggregate keeps
only members that are not affine images of each other, maps them into the
frame of the first retained member, and pools each term's images into a
cloud whose diameter measures how underdetermined that term is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .embedding import Embedding
from .ensemble import Ensemble, member_vote
from .kb import Query, UnknownTermError
from .verdict import TernaryVerdict

DEFAULT_DEDUP_TOLERANCE = 1e-6


class DegenerateAggregateError(RuntimeError):
    """Fewer than two members survived deduplication."""


class FrameMismatchError(ValueError):
    """Embeddings do not share a vocabulary and dimension."""


@dataclass(frozen=True)
class Alignment:
    """Best affine map A x + t from one embedding's entity points onto
    another's, with the root-mean-square mismatch left over (entities moved
    through the full map, relation vectors through A alone)."""

    linear_map: np.ndarray
    translation: np.ndarray
    residual: float


def _check_same_frame(a: Embedding, b: Embedding) -> None:
    if a.dimension != b.dimension:
        raise FrameMismatchError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )
    if a.entity_names != b.entity_names or a.relation_names != b.relation_names:
        raise FrameMismatchError("embeddings cover different vocabularies")


def align(source: Embedding, reference: Embedding) -> Alignment:
    """Least-squares affine registration of ``source`` onto ``reference``.

    The map is fitted on entity points only (minimum-norm solution on rank
    deficiency); the residual also charges relation vectors mapped through
    the linear part, since translations cancel on vector differences.
    """
    _check_same_frame(source, reference)
    n = source.dimension
    x = source.entity_array
    y = reference.entity_array
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)  # (n+1, n)
    linear = coef[:n].T
    translation = coef[n]
    mismatch = design @ coef - y
    rel_mismatch = source.relation_array @ coef[:n] - reference.relation_array
    total = float(np.sum(mismatch * mismatch) + np.sum(rel_mismatch * rel_mismatch))
    count = x.shape[0] + source.relation_array.shape[0]
    residual = float(np.sqrt(total / count)) if count else 0.0
    return Alignment(linear_map=linear, translation=translation, residual=residual)


def is_affine_duplicate(
    m1: Embedding, m2: Embedding, dedup_tolerance: float = DEFAULT_DEDUP_TOLERANCE
) -> bool:
    """Whether either direction of affine registration leaves residual at or
    below the tolerance, i.e. the two members carry the same geometry."""
    if align(m1, m2).residual <= dedup_tolerance:
        return True
    return align(m2, m1).residual <= dedup_tolerance


@dataclass(frozen=True)
class AggregateModel:
    """Clouds of corresponding points for every term, one point per retained
    member, expressed in the reference member's frame.  The clouds are
    read-only views of one ``(members, entities + relations, dimension)``
    stack, entity points first.

    ``members`` keeps the retained embeddings in their native frames; truth
    evaluation uses those directly so alignment noise never affects verdicts.
    """

    member_indices: tuple[int, ...]
    members: tuple[Embedding, ...]
    entity_clouds: dict[str, np.ndarray]
    relation_clouds: dict[str, np.ndarray]
    diameters: dict[str, float]

    @property
    def reference_index(self) -> int:
        return self.member_indices[0]

    def cloud(self, term: str) -> np.ndarray:
        if term in self.entity_clouds:
            return self.entity_clouds[term]
        if term in self.relation_clouds:
            return self.relation_clouds[term]
        raise UnknownTermError(f"unknown term: {term!r}")

    def to_doc(self) -> dict:
        return {
            "member_indices": list(self.member_indices),
            "reference_index": self.reference_index,
            "entity_clouds": {t: c.tolist() for t, c in self.entity_clouds.items()},
            "relation_clouds": {t: c.tolist() for t, c in self.relation_clouds.items()},
            "diameters": dict(self.diameters),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, indent=2) + "\n"

    def clouds_tsv(self) -> str:
        """Rows ``term member_index x1 ... xN`` for external plotting."""
        lines = []
        for term in sorted(self.entity_clouds) + sorted(self.relation_clouds):
            points = self.cloud(term)
            for idx, point in zip(self.member_indices, points):
                coords = "\t".join(repr(float(v)) for v in point)
                lines.append(f"{term}\t{idx}\t{coords}")
        return "\n".join(lines) + "\n"


def _max_pairwise_distance(points: np.ndarray) -> float:
    if points.shape[0] < 2:
        return 0.0
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt(np.max(np.sum(diff * diff, axis=2))))


def build_aggregate(
    ens: Ensemble,
    dedup_tolerance: float = DEFAULT_DEDUP_TOLERANCE,
    max_cloud_diameter: Optional[float] = None,
) -> AggregateModel:
    """Greedy member selection in ensemble order.

    A member is rejected if it is an affine duplicate of any retained one,
    or (when ``max_cloud_diameter`` is set) if its image in the reference
    frame lies farther than the bound from a retained member's image of the
    same term.  Each retained member is mapped once, into one row of a stack
    whose read-only views are the clouds.  Raises
    :class:`DegenerateAggregateError` when fewer than two members survive.
    """
    if not ens.members:
        raise DegenerateAggregateError("ensemble has no members")
    reference = ens.members[0]
    n = reference.dimension
    identity = Alignment(linear_map=np.eye(n), translation=np.zeros(n), residual=0.0)
    n_entities = len(reference.entity_names)
    stack = np.empty((len(ens.members), n_entities + len(reference.relation_names), n))
    retained: list[tuple[int, Embedding]] = []
    for idx, member in enumerate(ens.members):
        if any(is_affine_duplicate(member, kept, dedup_tolerance) for _, kept in retained):
            continue
        a = align(member, reference) if retained else identity
        image = np.concatenate([
            member.entity_array @ a.linear_map.T + a.translation,
            member.relation_array @ a.linear_map.T,
        ])
        if retained and max_cloud_diameter is not None:
            # Retained pairs already meet the bound, so only the new pairs
            # can push a cloud's diameter past it.
            diff = stack[:len(retained)] - image
            if np.sqrt(np.max(np.sum(diff * diff, axis=2), initial=0.0)) > max_cloud_diameter:
                continue
        stack[len(retained)] = image
        retained.append((idx, member))
    if len(retained) < 2:
        raise DegenerateAggregateError(
            f"only {len(retained)} member(s) retained; aggregate needs at least 2"
        )
    stack = stack[:len(retained)]
    stack.flags.writeable = False
    entity_clouds = {t: stack[:, j] for j, t in enumerate(reference.entity_names)}
    relation_clouds = {t: stack[:, n_entities + j] for j, t in enumerate(reference.relation_names)}
    diameters = {
        t: _max_pairwise_distance(c) for t, c in {**entity_clouds, **relation_clouds}.items()
    }
    return AggregateModel(
        member_indices=tuple(idx for idx, _ in retained),
        members=tuple(member for _, member in retained),
        entity_clouds=entity_clouds,
        relation_clouds=relation_clouds,
        diameters=diameters,
    )


def aggregate_query(
    agg: AggregateModel,
    q: Query,
    tau: Optional[float] = None,
    quorum_slack: float = 0.0,
) -> TernaryVerdict:
    """Unanimity verdict over the retained members, each evaluated in its
    own pre-alignment coordinates."""
    return member_vote(agg.members, q, tau, quorum_slack)


def cloud_diameter(agg: AggregateModel, term: str) -> float:
    """Largest pairwise distance inside the term's aligned cloud; a proxy
    for how wide the term's range of possible meanings is."""
    if term not in agg.diameters:
        raise UnknownTermError(f"unknown term: {term!r}")
    return agg.diameters[term]
