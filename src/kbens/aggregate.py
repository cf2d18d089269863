"""Aggregate models: per-term point clouds over a transform-diverse subset
of ensemble members.

A query's verdict depends only on distances, so two members related by a
rigid map (an orthogonal map plus a translation) give every query the same
verdict and carry the same information; a contracting affine map, in
contrast, can pull a negative fact inside the margin.  The aggregate keeps
only members that are not rigid images of each other, maps them by rigid
maps into the frame of the first retained member, and pools each term's
isometric images into a cloud.  Its diameter grows with the term's distance
from the entity centroid the maps turn about, not with what the store
leaves open.  The aggregate file's layout has one home, :mod:`kbens.jsonfile`,
and the clouds TSV reuses the numbers it formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Optional

import numpy as np

from .embedding import Embedding
from .ensemble import _CHUNK_ELEMENTS, Ensemble, query_truth
from .jsonfile import Field, Records, dumps, scalar, spelled
from .kb import Query, UnknownTermError
from .verdict import TernaryVerdict

DEFAULT_DEDUP_TOLERANCE = 1e-6


class DegenerateAggregateError(RuntimeError):
    """Fewer than two members survived deduplication, or a cloud is not finite."""


class FrameMismatchError(ValueError):
    """Embeddings do not share a vocabulary and dimension."""


@dataclass(frozen=True)
class Alignment:
    """Best rigid map ``x @ linear_map.T + translation`` from one embedding's
    entity points onto another's (``linear_map`` orthogonal, reflections
    included, and alone on relation vectors), with the RMS mismatch left."""

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
    """Rigid registration of ``source`` onto ``reference``, the per-pair
    reference for :func:`_rigid_residuals`: entity points centred on their
    mean over relation vectors, the orthogonal map from one ``d x d``
    Procrustes SVD, the translation from the entity means, and the RMS
    mismatch over those E + R rows."""
    _check_same_frame(source, reference)
    n = len(source.entity_names)
    x, y = source.term_array.copy(), reference.term_array.copy()
    src_mean, ref_mean = (a[:n].sum(axis=0) / max(1, n) for a in (x, y))
    x[:n] -= src_mean
    y[:n] -= ref_mean
    q = _polar_factors(x.T @ y)
    mismatch = x @ q - y
    residual = float(np.sqrt(np.sum(mismatch * mismatch) / max(1, len(x))))
    return Alignment(linear_map=q.T, translation=ref_mean - src_mean @ q, residual=residual)


def _polar_factors(cross: np.ndarray) -> np.ndarray:
    """The orthogonal polar factor ``u @ vt`` of the ``d x d`` cross product
    ``cross``, or of each in a stack of them, from one SVD call.  A product
    that overflowed never reaches LAPACK, which may fail to converge on it:
    its factor is NaN, so its residual is no duplicate's and its image no
    finite cloud."""
    if np.count_nonzero(np.isfinite(cross)) == cross.size:
        u, _, vt = np.linalg.svd(cross)
        return u @ vt
    factors = np.full(cross.shape, np.nan)
    finite = np.isfinite(cross).all(axis=(-2, -1))
    factors[finite] = _polar_factors(cross[finite])
    return factors


def _centred(terms: np.ndarray, entities: int) -> np.ndarray:
    """A copy of the member stack ``terms`` with each member's entity points
    (its first ``entities`` rows) centred on their mean, as in :func:`align`."""
    stack = terms.copy()
    ents = stack[:, :entities]
    if ents.shape[1]:  # the mean of no entities would warn
        ents -= ents.mean(axis=1, keepdims=True)
    return stack


def _rigid_residuals(stack: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """RMS residual of the best rigid map (orthogonal, reflections included,
    plus a translation) between members ``first[k]`` and ``second[k]`` of the
    :func:`_centred` stack ``stack``, over the rows as in :func:`align`.  Each
    pair's orthogonal part is the Procrustes solution, the polar factor of a
    ``d x d`` cross product (:func:`_polar_factors`; NaN where it overflowed)."""
    total = np.empty(len(first))
    step = max(1, _CHUNK_ELEMENTS // max(1, stack[0].size))
    for start in range(0, len(first), step):
        part = slice(start, start + step)
        x, y = stack[first[part]], stack[second[part]]
        mismatch = x @ _polar_factors(x.transpose(0, 2, 1) @ y) - y
        total[part] = np.sum(mismatch * mismatch, axis=(1, 2))
    return np.sqrt(total / max(1, stack.shape[1]))


def _rigid_duplicates(terms: np.ndarray, entities: int, tolerance: float) -> np.ndarray:
    """Symmetric boolean matrix: whether each pair of members of the stack
    ``terms`` (``entities`` rows first) has a :func:`_rigid_residuals` at or
    below ``tolerance``, that residual computed only for the pairs that a
    norm bound leaves open.

    Every orthogonal Q has ``||X_i Q - X_j|| >= |n_i - n_j|`` (X the
    :func:`_centred` stack, n its RMS norm over its rows).  With u = eps / 2,
    N = rows * d and s = n_i + n_j, the computed residual falls below the
    computed gap g by at most, to first order: (N/2 + 2) u s from the two norms (N squares
    summed, a division, a root); 16 d^2 u s from the SVD's Q, whose singular
    values lie within 1 +- 16 d^2 u (LAPACK's factors are orthogonal to a
    few ulps, their product adds d^2 u); (d^1.5 + 1) u s from the mismatch's
    products and difference; (N/2 + 2) u s from its sum of squares, division
    and root; 2 u s from forming g - m.  The margin m = 4 (rows + 8 d) d eps s
    is at least twice that sum, plus 2**-509 for underflow (at most 2**-511
    in each of the three norms).  A pair is settled as no duplicate only when
    g - m > tolerance.  An overflowing norm makes g - m NaN or -inf, so its
    pairs stay open, as does any pair with an overflowing product x * y,
    since x * x or y * y overflows too.
    """
    stack = _centred(terms, entities)
    count, rows, d = stack.shape
    norm = np.sqrt(np.sum(stack * stack, axis=(1, 2)) / max(1, rows))
    first, second = np.triu_indices(count, 1)
    margin = 4 * (rows + 8 * d) * d * np.finfo(float).eps * (norm[first] + norm[second])
    settled = np.abs(norm[first] - norm[second]) - (margin + 2.0**-509) > tolerance
    first, second = first[~settled], second[~settled]
    duplicate = np.eye(count, dtype=bool)
    duplicate[first, second] = duplicate[second, first] = (
        _rigid_residuals(stack, first, second) <= tolerance
    )
    return duplicate


def _check_bound(name: str, bound: Optional[float]) -> None:
    if bound is not None and not bound >= 0.0:
        raise ValueError(f"{name} must be a non-negative number: {bound!r}")


def is_affine_duplicate(
    m1: Embedding, m2: Embedding, dedup_tolerance: float = DEFAULT_DEDUP_TOLERANCE
) -> bool:
    """Whether the rigid registration of ``m1`` onto ``m2`` by :func:`align`
    leaves a residual at or below the tolerance, that is, whether the two
    members are rigid duplicates (the name is kept for its callers).  The
    residual is symmetric, ``||x Q - y|| = ||y Q^T - x||``, so one direction
    answers.  :func:`build_aggregate` decides the same question for all pairs
    at once by :func:`_rigid_duplicates`, and does not call it.  Raises
    ``ValueError`` on a negative or NaN tolerance."""
    _check_bound("dedup tolerance", dedup_tolerance)
    return align(m1, m2).residual <= dedup_tolerance


@dataclass(frozen=True, eq=False)
class AggregateModel:
    """Clouds of corresponding points for every term, one point per retained
    member, expressed in the reference member's frame.  The clouds are
    read-only views of one ``(members, entities + relations, dimension)``
    stack, entity points first.

    ``ensemble`` keeps the retained members in their native frames, with
    their reports; truth evaluation votes on it directly, so alignment noise
    never affects verdicts.  Every cloud, in a model built by hand too, must
    be a float array of ``len(member_indices)`` rows, all of one width;
    otherwise construction raises ``ValueError`` naming the term.
    """

    member_indices: tuple[int, ...]
    ensemble: Ensemble
    entity_clouds: dict[str, np.ndarray]
    relation_clouds: dict[str, np.ndarray]
    diameters: dict[str, float]

    def __post_init__(self) -> None:
        # Every cloud holds one point per kept member, all of one width, so
        # that each kind's clouds spell as one block and share one layout.
        k, clouds = len(self.member_indices), [*self.entity_clouds.items(),
                                               *self.relation_clouds.items()]
        width = next((c.shape[1] for _, c in clouds if isinstance(c, np.ndarray) and c.ndim == 2), 0)
        for term, cloud in clouds:
            if not (isinstance(cloud, np.ndarray) and cloud.dtype.kind == "f"
                    and cloud.shape == (k, width)):
                got = (f"{cloud.dtype} of shape {cloud.shape}" if isinstance(cloud, np.ndarray)
                       else type(cloud).__name__)
                raise ValueError(f"the cloud of {term!r} must be a float array of shape "
                                 f"{(k, width)}, not {got}")
        object.__setattr__(self, "_width", width)

    @property
    def members(self) -> tuple[Embedding, ...]:
        return self.ensemble.members

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
        clouds = (self.entity_clouds, self.relation_clouds)
        return self._doc(*({t: c.tolist() for t, c in kind.items()} for kind in clouds))

    def _doc(self, entity_clouds: object, relation_clouds: object) -> dict:
        return {
            "member_indices": list(self.member_indices),
            "reference_index": self.reference_index,
            "entity_clouds": entity_clouds,
            "relation_clouds": relation_clouds,
            "diameters": dict(self.diameters),
        }

    @cached_property
    def _spellings(self) -> tuple[tuple[list[str], list[list[str]], list[list[str]]], ...]:
        # Each kind's terms, and each term's numbers spelled by one repr pass
        # over the kind for the TSV and, where one is not finite, spelled
        # again as JSON for the file; kept, as the clouds are read-only.
        size = len(self.member_indices) * self._width
        out = []
        for kind in (self.entity_clouds, self.relation_clouds):
            block = np.array(list(kind.values()))
            numbers = spelled(block)
            finite = np.isfinite(block).all()
            written = numbers if finite else list(map(scalar, block.ravel().tolist()))
            out.append((list(kind), *([n[i * size:(i + 1) * size] for i in range(len(kind))]
                                      for n in (numbers, written))))
        return tuple(out)

    def to_json(self) -> str:
        """The bytes of ``json.dumps(self.to_doc(), sort_keys=True, indent=2)``
        and a newline, written by :func:`kbens.jsonfile.dumps`.  Each kind of
        cloud is one named :class:`~kbens.jsonfile.Records` whose layout is
        one cloud, ``len(member_indices)`` rows of d numbers, filled once per
        term."""
        k, d = len(self.member_indices), self._width
        layout = np.array(list(map(Field, range(k * d))), dtype=object).reshape(k, d).tolist()
        return dumps(self._doc(*(Records(layout, points, terms)
                                 for terms, _, points in self._spellings)))

    def clouds_tsv(self) -> str:
        """Rows ``term member_index x1 ... xN`` for external plotting, entity
        terms then relation terms, each sorted; the numbers are the JSON
        file's, spelled by ``repr`` in the same pass (``inf`` and ``nan`` too)."""
        line = "{}\t{}\t" + "\t".join(["{}"] * self._width)
        lines: list[str] = []
        for terms, points, _ in self._spellings:
            for term, point in sorted(zip(terms, points)):
                numbers = iter(point)
                lines += map(line.format, repeat(term), self.member_indices,
                             *[numbers] * self._width)
        return "\n".join(lines) + "\n"


# An overflowing image lies a NaN or infinite distance from the first, finite
# one, so it shows as a diameter that is not finite, checked below.
@np.errstate(over="ignore", invalid="ignore")
def build_aggregate(
    ens: Ensemble,
    dedup_tolerance: float = DEFAULT_DEDUP_TOLERANCE,
    max_cloud_diameter: Optional[float] = None,
) -> AggregateModel:
    """Greedy member selection in ensemble order.

    A member is rejected if the best rigid map between it and a retained
    member leaves an RMS residual at or below ``dedup_tolerance``, or (when
    ``max_cloud_diameter`` is set) if its image in the reference frame lies
    farther than the bound from a retained member's image of the same term.
    :func:`_rigid_duplicates` decides every pair at once: a norm bound
    settles most, and the Procrustes residual the rest.  Each retained
    member is mapped once, by the rigid :func:`align`, into one row of a
    stack whose read-only views are the clouds; its image is measured once,
    against the rows kept before it, for both the bound and each cloud's
    diameter.  Raises ``ValueError`` on a negative or NaN bound, and
    :class:`DegenerateAggregateError` when fewer than two members survive
    or when a cloud is not finite (aligning the coordinates overflows).
    """
    _check_bound("dedup tolerance", dedup_tolerance)
    _check_bound("max cloud diameter", max_cloud_diameter)
    reference = ens.members[0]
    entities = len(ens.entity_names)
    duplicate = _rigid_duplicates(ens.term_stack, entities, dedup_tolerance).tolist()
    n = ens.config.dimension
    identity = Alignment(linear_map=np.eye(n), translation=np.zeros(n), residual=0.0)
    stack = np.empty(ens.term_stack.shape)
    squared = np.zeros(stack.shape[1])  # each cloud's largest squared distance so far
    retained: list[int] = []
    for idx, (member, coords) in enumerate(zip(ens.members, ens.term_stack)):
        if any(duplicate[idx][kept] for kept in retained):
            continue
        a = align(member, reference) if retained else identity
        image = stack[len(retained)]  # the candidate's row, kept only if it is retained
        np.matmul(coords[:entities], a.linear_map.T, out=image[:entities])
        np.matmul(coords[entities:], a.linear_map.T, out=image[entities:])
        image[:entities] += a.translation
        diff = stack[:len(retained)] - image
        diff *= diff
        row = diff.sum(axis=2).max(axis=0, initial=0.0)
        # Retained pairs already meet the bound, so only the new row can push
        # a cloud's diameter past it.
        if max_cloud_diameter is not None and np.sqrt(row.max(initial=0.0)) > max_cloud_diameter:
            continue
        np.maximum(squared, row, out=squared)
        retained.append(idx)
    if len(retained) < 2:
        raise DegenerateAggregateError(
            f"only {len(retained)} member(s) retained; aggregate needs at least 2"
        )
    stack = stack[:len(retained)]
    stack.flags.writeable = False
    terms = ens.entity_names + ens.relation_names
    diameters = np.sqrt(squared)
    finite = np.isfinite(diameters)
    if not finite.all():
        term = terms[int(np.argmin(finite))]
        raise DegenerateAggregateError(
            f"the cloud of {term!r} is not finite: aligning the members' coordinates overflows"
        )
    return AggregateModel(
        member_indices=tuple(retained),
        ensemble=Ensemble(tuple(ens.members[idx] for idx in retained), ens.kb_digest,
                          tuple(ens.reports[idx] for idx in retained)),
        entity_clouds={t: stack[:, j] for j, t in enumerate(ens.entity_names)},
        relation_clouds={t: stack[:, entities + j] for j, t in enumerate(ens.relation_names)},
        diameters=dict(zip(terms, diameters.tolist())),
    )


def aggregate_query(
    agg: AggregateModel,
    q: Query,
    tau: Optional[float] = None,
    quorum_slack: float = 0.0,
) -> TernaryVerdict:
    """:func:`query_truth` on ``agg.ensemble``: the unanimity verdict over
    the retained members, each in its own pre-alignment coordinates."""
    return query_truth(agg.ensemble, q, tau, quorum_slack)


def cloud_diameter(agg: AggregateModel, term: str) -> float:
    """Largest distance between two kept members' images of the term, each
    member rigidly aligned to the first about the entity centroid; it grows
    with the term's distance from that centroid."""
    if term not in agg.diameters:
        raise UnknownTermError(f"unknown term: {term!r}")
    return agg.diameters[term]
