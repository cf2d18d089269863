"""Ensembles of independently seeded zero-error embeddings.

Each converged member is one complete candidate world consistent with the
store.  A query is TRUE when it holds in every member, FALSE when it holds
in none, and UNKNOWN when the members disagree, which is how the ensemble
represents partial knowledge the store never wrote down.  The ensemble
file's layout has one home, :mod:`kbens.jsonfile`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .embedding import (
    Embedding, EmbeddingConfig, Vocabulary, member_doc, read_field, read_members,
)
from .jsonfile import Field, Records, dumps, scalar, spelled
from .kb import KnowledgeBase, Query, unstated_index
from .trainer import FitReport, TrainConfig, train
from .verdict import TernaryVerdict, Truth

DEFAULT_MEMBERS = 32

# Candidate seeds tried before giving up, as a multiple of the member count.
_ATTEMPT_CAP_FACTOR = 4

# Largest temporary of a batched pass over members, in float64 elements
# (64 KiB): the vote here and the rigid residuals in aggregate.
_CHUNK_ELEMENTS = 2**13


class EnsembleFitError(RuntimeError):
    """Fewer members converged than requested within the attempt cap."""


class DigestMismatchError(ValueError):
    """The ensemble was fitted from a different knowledge base."""


@dataclass(frozen=True, eq=False, init=False)
class Ensemble(Vocabulary):
    """Converged members and the digest of their store, as one read-only
    ``(M, E+R, d)`` float64 ``term_stack`` over one vocabulary, ``config``
    and the ``seeds``.  ``Ensemble(members, kb_digest, reports)`` stacks and
    keeps ``members``; a loaded ensemble makes them on first use, read-only
    views of the stack's rows.  Either way :meth:`validate` runs once."""

    kb_digest: str
    reports: tuple[FitReport, ...]
    entity_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    config: Optional[EmbeddingConfig]
    seeds: tuple[int, ...]
    term_stack: np.ndarray

    def __init__(self, members: Sequence[Embedding], kb_digest: str, reports: Sequence[FitReport]):
        members = vars(self)["members"] = tuple(members)
        first = members[0] if members else None  # with no member, validate names the fault
        vocabulary = (first.entity_names, first.relation_names) if first else ((), ())
        for m in members[1:]:
            if (m.entity_names, m.relation_names) != vocabulary:
                raise ValueError(f"member seed={m.seed} has a different vocabulary than member 0")
            if m.config != first.config:
                raise ValueError("members disagree on embedding config")
        self._hold(kb_digest, reports, *vocabulary, first and first.config,
                   tuple(m.seed for m in members), np.array([m.term_array for m in members]))

    def _hold(self, kb_digest, reports, entity_names, relation_names, config, seeds, stack):
        stack.flags.writeable = False
        vars(self).update(kb_digest=kb_digest, reports=tuple(reports), seeds=seeds, config=config,
                          entity_names=entity_names, relation_names=relation_names, term_stack=stack)
        self._index_terms()
        self.validate()
        return self

    def __reduce__(self):
        # Rebuilt through the constructor, so a copy is frozen and checked too.
        return type(self), (self.members, self.kb_digest, self.reports)

    @cached_property
    def members(self) -> tuple[Embedding, ...]:
        # Read-only views of the checked stack's rows, sharing its names, index and config.
        keys = ("entity_names", "relation_names", "config", "_entity_index", "_relation_index")
        n, shared = len(self.entity_names), {k: vars(self)[k] for k in keys}
        members = tuple(object.__new__(Embedding) for _ in self.seeds)
        for member, terms, seed in zip(members, self.term_stack, self.seeds):
            vars(member).update(shared, seed=seed, term_array=terms,
                                entity_array=terms[:n], relation_array=terms[n:])
        return members

    def __len__(self) -> int:
        return len(self.seeds)

    def validate(self, kb: Optional[KnowledgeBase] = None) -> None:
        """The digest is a string, as on load; there is a member, each with a seed
        of its own and one converged report of that seed (final error in [0, eps_fit],
        no negative epoch count), as a fit writes; cheap enough for every value built.
        With ``kb``, the digest matches and every member fits ``kb`` within eps_fit."""
        read_field(vars(self), "kb_digest", str)
        if not self.seeds:
            raise ValueError("an ensemble needs at least one member")
        if len(self.reports) != len(self.seeds):
            raise ValueError(f"{len(self.reports)} reports for {len(self.seeds)} members")
        if len(set(self.seeds)) < len(self.seeds):
            repeat = next(s for i, s in enumerate(self.seeds) if s in self.seeds[:i])
            raise ValueError(f"member seed={repeat} repeats the seed of an earlier member")
        for i, (seed, r) in enumerate(zip(self.seeds, self.reports)):
            if r.seed != seed:
                raise ValueError(f"report {i} has seed {r.seed} but member {i} has seed {seed}")
            if not r.converged:
                raise ValueError(f"member seed={seed} carries a non-converged report")
            if not 0.0 <= r.final_error <= self.config.eps_fit:
                raise ValueError(f"report {i} has final error {r.final_error!r} outside [0, eps_fit]")
            if r.epochs_used < 0:
                raise ValueError(f"report {i} has a negative epochs_used {r.epochs_used!r}")
        if kb is not None:
            self.check_digest(kb)
            for m in self.members:
                err = m.cumulative_error(kb)
                if err > self.config.eps_fit:
                    raise ValueError(f"member seed={m.seed} has error {err} above eps_fit")

    def check_digest(self, kb: KnowledgeBase) -> None:
        """Raise :class:`DigestMismatchError` unless the ensemble was fitted
        from ``kb``."""
        if kb.digest() != self.kb_digest:
            raise DigestMismatchError("ensemble digest does not match the given knowledge base")

    def to_doc(self) -> dict:
        """JSON-ready document."""
        return self._doc([member_doc(self.config, int(seed), terms, self)
                          for terms, seed in zip(self.term_stack, self.seeds)],
                         [dict(vars(r)) for r in self.reports])

    def _doc(self, members: object, reports: object) -> dict:
        return {"kb_digest": self.kb_digest, "config": dict(vars(self.config)),
                "members": members, "reports": reports}

    def to_json(self) -> str:
        """Canonical serialization, stable byte for byte across runs: the
        bytes of ``json.dumps(self.to_doc(), sort_keys=True, indent=2)`` and a
        newline, written by :func:`kbens.jsonfile.dumps`.  Every member is
        laid out from one template, filled with its numbers (the stack's, all
        formatted in one pass) and its seed, and every report from another."""
        _, terms, d = self.term_stack.shape
        width = terms * d
        places = np.array(list(map(Field, range(width))), dtype=object).reshape(terms, d)
        layout = member_doc(self.config, Field(width), places, self)
        numbers = spelled(self.term_stack)  # the stack is finite
        members = [numbers[i * width:(i + 1) * width] + [scalar(int(seed))]
                   for i, seed in enumerate(self.seeds)]
        keys = list(vars(self.reports[0]))
        reports = [[scalar(vars(r)[key]) for key in keys] for r in self.reports]
        return dumps(self._doc(Records(layout, members),
                               Records({key: Field(i) for i, key in enumerate(keys)}, reports)))

    @classmethod
    def from_doc(cls, doc: dict) -> "Ensemble":
        """Inverse of :meth:`to_doc`: the members read into the stack by
        :func:`read_members`, building no :class:`Embedding`."""
        *names, config, seeds, stack = read_members(doc["members"])
        reports = tuple(FitReport(read_field(r, "final_error", float), read_field(r, "epochs_used", int),
                                  read_field(r, "converged", bool), read_field(r, "seed", int),
                                  read_field(r, "rng_algorithm_id", str), read_field(r, "optimizer_id", str))
                        for r in doc["reports"])
        # The top-level block restates the members' config; a mismatch means an edited file.
        if config is not None and doc["config"] != vars(config):
            raise ValueError(f"top-level config {doc['config']} differs from the members' config")
        return cls.__new__(cls)._hold(doc["kb_digest"], reports, *names, config, seeds, stack)

    @classmethod
    def from_json(cls, text: str) -> "Ensemble":
        return cls.from_doc(json.loads(text))


def fit_ensemble(
    kb: KnowledgeBase,
    cfg: EmbeddingConfig,
    tcfg: TrainConfig,
    base_seed: int,
    members: int = DEFAULT_MEMBERS,
) -> Ensemble:
    """Train members from seeds base_seed, base_seed+1, ... keeping the
    first ``members`` converged fits in seed order.

    Seeds that fail to converge are skipped and replaced by the next one;
    when 4x the requested count have been tried without filling the
    ensemble, :class:`EnsembleFitError` is raised.  The result depends only
    on the arguments.
    """
    if members < 1:
        raise ValueError(f"member count must be at least 1: {members!r}")
    cap = _ATTEMPT_CAP_FACTOR * members
    kept: list[tuple[Embedding, FitReport]] = []
    attempted = 0
    # A wave is exactly the number of members still missing, so it never
    # trains a seed that one-at-a-time fitting would have skipped.
    while len(kept) < members and attempted < cap:
        wave = min(members - len(kept), cap - attempted)
        seeds = range(base_seed + attempted, base_seed + attempted + wave)
        attempted += wave
        fits = (train(kb, cfg, tcfg, seed) for seed in seeds)
        kept.extend(fit for fit in fits if fit[1].converged)
    if len(kept) < members:
        raise EnsembleFitError(
            f"only {len(kept)} of {members} members converged "
            f"within {cap} candidate seeds"
        )
    embeddings, reports = zip(*kept)
    return Ensemble(embeddings, kb.digest(), reports)


def satisfied_counts(
    ens: Ensemble,
    queries: Sequence[Query],
    tau: Optional[float] = None,
) -> np.ndarray:
    """Number of members of ``ens`` in which each query holds, ||eps|| <=
    :meth:`EmbeddingConfig.radius` (``tau_pos`` unless ``tau`` is given),
    counted on the ensemble's stack.  Equal bit for bit to counting
    :meth:`Embedding.satisfies`, with its errors."""
    rows = _query_rows(ens, queries)
    return _count_rows(ens.term_stack, ens.config.radius(tau), *rows)


def _query_rows(vocabulary: Vocabulary, queries: Sequence[Query]) -> np.ndarray:
    # Each query's subject, object and relation rows (relation r is row E + r), as columns.
    e, entity = len(vocabulary.entity_names), vocabulary.entity_row
    rows = [(entity(q.subject), entity(q.object), e + vocabulary.relation_row(q.relation))
            for q in queries]
    return np.array(rows, dtype=np.intp).reshape(-1, 3).T


def _count_rows(terms: np.ndarray, radius: float, subject: np.ndarray, object_: np.ndarray,
                relation: np.ndarray) -> np.ndarray:
    """Number of members of the ``(M, E+R, d)`` stack ``terms`` in which each
    row of subject, object and relation (E + r) rows holds within ``radius``,
    bit for bit :meth:`Embedding.satisfies`.

    A chunk of rows is one take along the stack's second axis.  Each norm
    sums the squared coordinates one coordinate column at a time, which may
    round otherwise than the scalar ``np.sum`` over d.  Any two orders of
    summing d non-negative squares give norms within a relative (d + 1) *
    eps / 2 of each other, so with the slack s = 4 * d * eps a norm at or
    below radius * (1 - s) holds in the scalar path too, and one above
    radius * (1 + s) does not.  A row with any member in between is counted
    again by the scalar reduction, ``np.sqrt(np.sum(squares, axis=-1))``.
    """
    count, _, d = terms.shape
    slack = 4 * d * np.finfo(float).eps
    counts = np.empty(len(subject), dtype=np.intp)
    step = max(1, _CHUNK_ELEMENTS // (count * d))
    # An overflowing square is +inf, outside every finite radius, and so is an overflowing bound.
    with np.errstate(over="ignore"):
        # A sum of squares near the top of the float range may overflow in one
        # order only, so neither bound certifies a norm from 2**511 up.
        inside_below = min(radius * (1 - slack), 2.0**511)
        outside_above = radius * (1 + slack)
        if outside_above >= 2.0**511:
            outside_above = np.inf
        for start in range(0, len(counts), step):
            chunk = slice(start, start + step)
            squares = np.take(terms, subject[chunk], axis=1)
            squares -= np.take(terms, object_[chunk], axis=1)
            squares -= np.take(terms, relation[chunk], axis=1)
            squares *= squares
            norm = squares[..., 0].copy()
            for k in range(1, d):
                norm += squares[..., k]
            np.sqrt(norm, out=norm)
            inside = norm <= inside_below
            maybe = norm <= outside_above
            if np.count_nonzero(maybe) > np.count_nonzero(inside):
                rows = np.flatnonzero((maybe != inside).any(axis=0))
                near = np.take(squares, rows, axis=1)
                inside[:, rows] = np.sqrt(np.sum(near, axis=-1)) <= radius
            counts[chunk] = np.count_nonzero(inside, axis=0)
    return counts


def query_truth(
    ens: Ensemble,
    q: Query,
    tau: Optional[float] = None,
    quorum_slack: float = 0.0,
) -> TernaryVerdict:
    """The unanimity rule on the fraction of the members of ``ens`` in which
    the fact holds: :func:`satisfied_counts` of one query."""
    count = int(satisfied_counts(ens, [q], tau)[0])
    return TernaryVerdict.from_fraction(count / len(ens), len(ens), quorum_slack)


@dataclass(frozen=True)
class ReportRow:
    query: Query
    verdict: TernaryVerdict
    asserted: Optional[bool]  # polarity when asserted, None for unstated rows
    consistent: Optional[bool]  # verdict matches the polarity; None for unstated rows


@dataclass(frozen=True, eq=False)
class KnowledgeReport:
    """Batch evaluation of a store against its ensemble, held as columns:
    every asserted triple with a consistency flag, in store order, then
    every unstated query, in lexicographic order.

    ``index`` holds each row's subject, object and relation rows into
    ``entities`` / ``relations``, asserted rows first; ``positive`` is the
    polarity of each asserted row; ``counts`` is the number of members in
    which each row holds; ``verdicts`` maps 0 and each count that occurs to
    its verdict.  The rows as :class:`ReportRow` tuples are built on demand.
    """

    kb_digest: str
    member_count: int
    entities: tuple[str, ...]
    relations: tuple[str, ...]
    index: tuple[np.ndarray, np.ndarray, np.ndarray]
    positive: np.ndarray
    counts: np.ndarray
    verdicts: dict[int, TernaryVerdict]

    def _rows(
        self, rows: slice, asserted: Iterable[Optional[bool]], consistent: Iterable[Optional[bool]]
    ) -> tuple[ReportRow, ...]:
        subject, object_, relation = (a[rows].tolist() for a in self.index)
        ents, rels = self.entities, self.relations
        return tuple(
            ReportRow(Query(rels[r], ents[s], ents[o]), self.verdicts[c], a, ok)
            for s, o, r, c, a, ok in zip(
                subject, object_, relation, self.counts[rows].tolist(), asserted, consistent
            )
        )

    def _consistent(self) -> list[bool]:
        # An asserted row is consistent when its verdict is its polarity.
        counts = self.counts[:len(self.positive)].tolist()
        return [self.verdicts[c].value is (Truth.TRUE if positive else Truth.FALSE)
                for c, positive in zip(counts, self.positive.tolist())]

    @property
    def asserted_rows(self) -> tuple[ReportRow, ...]:
        n = len(self.positive)
        return self._rows(slice(n), self.positive.tolist(), self._consistent())

    @property
    def unstated_rows(self) -> tuple[ReportRow, ...]:
        rows = slice(len(self.positive), None)
        none = itertools.repeat(None)
        return self._rows(rows, none, none)

    @property
    def unstated_counts(self) -> dict[Truth, int]:
        tally = np.bincount(self.counts[len(self.positive):], minlength=self.member_count + 1)
        counts = {Truth.TRUE: 0, Truth.FALSE: 0, Truth.UNKNOWN: 0}
        for c, v in self.verdicts.items():
            counts[v.value] += int(tally[c])
        return counts

    @property
    def consistent_count(self) -> int:
        return sum(self._consistent())

    def to_tsv(self) -> str:
        """Tab-separated rows ``relation subject object verdict fraction``
        plus origin/consistency columns, under a '#'-prefixed summary.
        Each count's verdict and fraction cells are formatted once."""
        n = len(self.positive)
        counts = self.unstated_counts
        consistent = self._consistent()
        lines = [
            f"# kb_digest={self.kb_digest} members={self.member_count}",
            (
                f"# asserted={n}"
                f" consistent={sum(consistent)}"
                f" unstated={len(self.counts) - n}"
                f" true={counts[Truth.TRUE]}"
                f" false={counts[Truth.FALSE]}"
                f" unknown={counts[Truth.UNKNOWN]}"
            ),
        ]
        cells = {c: f"\t{v.value}\t{v.satisfied_fraction:.6f}" for c, v in self.verdicts.items()}
        subject, object_, relation = (a.tolist() for a in self.index)
        ents, rels = self.entities, self.relations
        rows = zip(relation, subject, object_, self.counts.tolist())
        flags = (
            f"\t{'+' if positive else '-'}\t{'ok' if ok else 'MISMATCH'}"
            for positive, ok in zip(self.positive.tolist(), consistent)
        )
        lines += [f"{rels[r]}\t{ents[s]}\t{ents[o]}{cells[c]}{flag}"
                  for (r, s, o, c), flag in zip(itertools.islice(rows, n), flags)]
        unstated = {c: cell + "\tunstated\t-" for c, cell in cells.items()}
        lines += [f"{rels[r]}\t{ents[s]}\t{ents[o]}{unstated[c]}" for r, s, o, c in rows]
        return "\n".join(lines) + "\n"


def knowledge_report(
    ens: Ensemble,
    kb: KnowledgeBase,
    include_self_pairs: bool = False,
    tau: Optional[float] = None,
    quorum_slack: float = 0.0,
) -> KnowledgeReport:
    """Evaluate every asserted triple and every unstated query.

    The ensemble must have been fitted from ``kb`` (digest check).  The
    asserted rows come from ``kb.triple_index`` in store order, the
    unstated rows from :func:`kbens.kb.unstated_index` in lexicographic
    order (distinct pairs only unless ``include_self_pairs``), and all of
    them are counted in one vote.  Verdicts are computed for count 0 and
    once per count that occurs.  An asserted row is consistent when its
    verdict is its polarity, TRUE or FALSE.
    """
    ens.check_digest(kb)
    n = len(ens)
    subject, object_, relation, positive = kb.triple_index
    unstated = unstated_index(kb, include_self_pairs)
    index = tuple(np.concatenate(pair) for pair in zip((subject, object_, relation), unstated))
    rows = index[0], index[1], index[2] + len(kb.entities)
    if (kb.entities, kb.relations) != (ens.entity_names, ens.relation_names):
        # The store's rows in the members' vocabulary; a term it lacks raises.
        rows = _query_rows(ens, [Query(kb.relations[r], kb.entities[s], kb.entities[o])
                                 for s, o, r in zip(*(a.tolist() for a in index))])
    counts = _count_rows(ens.term_stack, ens.config.radius(tau), *rows)
    present = np.bincount(counts, minlength=n + 1) > 0
    present[0] = True  # so that from_fraction checks the slack of a report with no rows
    occurring = np.flatnonzero(present).tolist()
    verdicts = {c: TernaryVerdict.from_fraction(c / n, n, quorum_slack) for c in occurring}
    return KnowledgeReport(
        ens.kb_digest, n, kb.entities, kb.relations, index, positive, counts, verdicts
    )
