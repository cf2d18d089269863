"""Signed triple stores: parsing, validation, vocabulary, and the truth
oracle induced by the asserted text alone.

A knowledge base here is a set of ground facts ``relation(subject, object)``,
each carrying an explicit polarity, over disjoint entity and relation
vocabularies.  No inference happens at this layer: a fact is TRUE if asserted
positively, FALSE if asserted negatively, and UNKNOWN if the store is silent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .verdict import TernaryVerdict, Truth

POSITIVE = "+"
NEGATIVE = "-"


class KBError(ValueError):
    """Base class for knowledge-base construction and lookup failures."""


class KBSyntaxError(KBError):
    def __init__(self, message: str, line_number: int):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class RepeatedTripleError(KBError):
    """A triple repeats an earlier one's key: ``position`` and ``first`` are
    the indexes of the two in the order given."""
    def __init__(self, message: str, position: int, first: int):
        self.position, self.first = position, first
        super().__init__(message)


class DuplicateTripleError(RepeatedTripleError):
    pass


class ContradictionError(RepeatedTripleError):
    pass


class UnknownTermError(KBError):
    pass


def check_term_name(name: str) -> str:
    """Validate an entity or relation identifier.

    Names are non-empty, contain no tab and no line boundary that
    ``str.splitlines`` splits on (``\\n``, ``\\r``, ``\\x0b``, ``\\x85``,
    ``\\u2028``, ...), and carry no leading or trailing whitespace: the file
    format is one triple per line with tab-separated fields.  They encode as
    UTF-8, the encoding of the file and of the digest: no lone surrogate.
    """
    if not isinstance(name, str) or not name:
        raise KBError(f"term name must be a non-empty string, got {name!r}")
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise KBError(f"term name does not encode as UTF-8: {name!r}") from None
    if "\t" in name or name.splitlines() != [name]:
        raise KBError(f"term name contains a tab or newline: {name!r}")
    if name != name.strip():
        raise KBError(f"term name has leading or trailing whitespace: {name!r}")
    return name


def check_relation_name(name: str) -> str:
    """:func:`check_term_name`, and no leading ``#`` or U+FEFF: a relation
    starts a line of the file, where those read as a comment or as the
    byte-order mark a UTF-8 reader drops."""
    if check_term_name(name).startswith(("#", "\ufeff")):
        raise KBError(f"relation name starts with '#' or U+FEFF: {name!r}")
    return name


@dataclass(frozen=True, order=True)
class Query:
    """An unsigned triple pattern to be evaluated against a store or model."""

    relation: str
    subject: str
    object: str


@dataclass(frozen=True, order=True)
class SignedTriple:
    """One ground fact with polarity: relation(subject, object) holds (+) or
    does not hold (-)."""

    relation: str
    subject: str
    object: str
    positive: bool

    @property
    def polarity(self) -> str:
        return POSITIVE if self.positive else NEGATIVE

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.relation, self.subject, self.object)

    def as_query(self) -> Query:
        return Query(self.relation, self.subject, self.object)

    def as_line(self) -> str:
        return f"{self.relation}\t{self.subject}\t{self.object}\t{self.polarity}"


@dataclass(frozen=True)
class KnowledgeBase:
    """A validated, canonically ordered collection of signed triples.

    Immutable and safe to share across threads.  Triples and vocabularies
    are stored sorted, so the same facts and terms in any order give an
    equal store; ``entities`` and ``relations`` hold every term a triple
    names, and may declare isolated terms (a term listed twice is one).  A
    fact is stated once: its first repeat in the order given raises.

    Arrays derived from the store are built on first use and kept in its
    ``__dict__``, read-only, so they are freed with it: ``triple_index``,
    and the trainer's descent index (``trainer._Problem``), which every
    descent, retry and dimension searched on the store reuses.  A pickled or
    copied store is rebuilt through the constructor and carries none of them.
    """

    triples: tuple[SignedTriple, ...]
    entities: tuple[str, ...]
    relations: tuple[str, ...]

    def __post_init__(self) -> None:
        # Names are checked before anything sorts them, so a name that is
        # not a string is a KBError, not a TypeError.
        entity_set = frozenset(check_term_name(n) for n in self.entities)
        relation_set = frozenset(check_relation_name(n) for n in self.relations)
        first_at: dict[tuple[str, str, str], int] = {}
        for i, t in enumerate(self.triples):
            if not (t.relation in relation_set and t.subject in entity_set
                    and t.object in entity_set):
                raise KBError(f"a triple names a term outside the vocabulary: {t.as_line()!r}")
            first = first_at.setdefault(t.key, i)
            if first == i:
                continue
            if self.triples[first].positive == t.positive:
                raise DuplicateTripleError(f"duplicate triple: {t.as_line()!r}", i, first)
            raise ContradictionError(
                f"{t.relation}({t.subject}, {t.object}) asserted with both polarities", i, first
            )
        triples = tuple(sorted(self.triples))
        clash = entity_set & relation_set
        if clash:
            raise KBError(
                f"entity and relation namespaces overlap: {sorted(clash)}"
            )
        object.__setattr__(self, "triples", triples)
        object.__setattr__(self, "entities", tuple(sorted(entity_set)))
        object.__setattr__(self, "relations", tuple(sorted(relation_set)))
        object.__setattr__(self, "_polarity_index", {t.key: t.positive for t in triples})
        object.__setattr__(self, "_entity_set", entity_set)
        object.__setattr__(self, "_relation_set", relation_set)

    def __reduce__(self):
        # Rebuilt through the constructor, so a copy is checked like any
        # other store and starts without cached arrays (numpy would unpickle
        # them writeable).
        return type(self), (self.triples, self.entities, self.relations)

    @classmethod
    def from_triples(cls, triples: Iterable[SignedTriple]) -> "KnowledgeBase":
        """Build a store whose vocabulary is the terms its triples name."""
        triples = tuple(triples)
        entities = tuple(n for t in triples for n in (t.subject, t.object))
        return cls(triples, entities, tuple(t.relation for t in triples))

    @cached_property
    def triple_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per triple, in store order: subject and object rows into
        ``entities``, relation row into ``relations``, and a positive mask.

        Read-only and computed once; every vectorized pass over the triples
        (training, the satisfiability oracle) indexes through it.
        """
        ent = {t: i for i, t in enumerate(self.entities)}
        rel = {t: i for i, t in enumerate(self.relations)}
        index = (
            np.array([ent[t.subject] for t in self.triples], dtype=np.intp),
            np.array([ent[t.object] for t in self.triples], dtype=np.intp),
            np.array([rel[t.relation] for t in self.triples], dtype=np.intp),
            np.array([t.positive for t in self.triples], dtype=bool),
        )
        for a in index:
            a.flags.writeable = False
        return index

    def asserted_polarity(self, relation: str, subject: str, object: str) -> Optional[bool]:
        """True/False if the triple is asserted with that polarity, else None."""
        return self._polarity_index.get((relation, subject, object))

    def check_query(self, q: Query) -> Query:
        if q.relation not in self._relation_set:
            raise UnknownTermError(f"unknown relation: {q.relation!r}")
        if q.subject not in self._entity_set:
            raise UnknownTermError(f"unknown entity: {q.subject!r}")
        if q.object not in self._entity_set:
            raise UnknownTermError(f"unknown entity: {q.object!r}")
        return q

    def serialize(self) -> str:
        """Canonical text form: one sorted triple per line.

        Isolated vocabulary terms are not part of the file format and are
        not serialized.
        """
        return "".join(t.as_line() + "\n" for t in self.triples)

    def digest(self) -> str:
        """Content hash of the canonical serialization (hex SHA-256)."""
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()


def parse_kb(text: str) -> KnowledgeBase:
    """Parse the tab-separated file format into a validated store.

    One record per line: ``relation<TAB>subject<TAB>object<TAB>polarity``
    with polarity ``+`` or ``-``.  Lines starting with ``#`` and blank lines
    are ignored.  Every line is checked first (:class:`KBSyntaxError` names
    it), then the store: its first repeat in file order raises
    :class:`DuplicateTripleError` or :class:`ContradictionError`, naming both lines.
    """
    read: list[tuple[int, SignedTriple]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 4:
            raise KBSyntaxError(
                f"expected 4 tab-separated fields, got {len(fields)}: {raw!r}",
                line_number,
            )
        relation, subject, object_, polarity = fields
        if polarity not in (POSITIVE, NEGATIVE):
            raise KBSyntaxError(f"polarity must be '+' or '-', got {polarity!r}", line_number)
        try:
            check_relation_name(relation)
            check_term_name(subject)
            check_term_name(object_)
        except KBError as exc:
            raise KBSyntaxError(str(exc), line_number) from exc
        read.append((line_number, SignedTriple(relation, subject, object_, polarity == POSITIVE)))
    try:
        return KnowledgeBase.from_triples(t for _, t in read)
    except RepeatedTripleError as exc:
        (line, t), (first, _) = read[exc.position], read[exc.first]
        if isinstance(exc, DuplicateTripleError):
            message = f"line {line}: duplicate of line {first}: {t.as_line()!r}"
        else:
            message = f"line {line}: {t.relation}({t.subject}, {t.object}) contradicts line {first}"
        raise type(exc)(message, exc.position, exc.first) from None


def unstated_index(
    kb: KnowledgeBase, include_self_pairs: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every fact the store is silent on, as subject, object and relation
    rows in the layout of :attr:`KnowledgeBase.triple_index`.

    The rows walk the (relation, subject, object) grid over the sorted
    vocabulary in lexicographic order, minus the cells asserted with either
    polarity, and minus the self-pairs r(a, a) unless ``include_self_pairs``.
    """
    n = len(kb.entities)
    silent = np.ones((len(kb.relations), n, n), dtype=bool)
    subject, object_, relation, _ = kb.triple_index
    silent[relation, subject, object_] = False
    if not include_self_pairs:
        silent[:, np.arange(n), np.arange(n)] = False
    relation, subject, object_ = np.nonzero(silent)
    return subject, object_, relation


def unstated_queries(kb: KnowledgeBase, include_self_pairs: bool = True) -> list[Query]:
    """Every fact the store is silent on, in lexicographic order: the names
    of :func:`unstated_index`'s rows.  Self-pairs r(a, a) are included by
    default."""
    subject, object_, relation = (a.tolist() for a in unstated_index(kb, include_self_pairs))
    ents, rels = kb.entities, kb.relations
    return [Query(rels[r], ents[s], ents[o]) for s, o, r in zip(subject, object_, relation)]


def assertion_oracle(kb: KnowledgeBase, q: Query) -> TernaryVerdict:
    """Ground-literal truth: TRUE if asserted positive, FALSE if asserted
    negative, UNKNOWN otherwise.  No inference rules apply.

    The reported fraction is 1, 0, or 0.5 respectively, with member_count 0
    since no fitted worlds are consulted.
    """
    kb.check_query(q)
    polarity = kb.asserted_polarity(q.relation, q.subject, q.object)
    if polarity is True:
        return TernaryVerdict(Truth.TRUE, 1.0, 0)
    if polarity is False:
        return TernaryVerdict(Truth.FALSE, 0.0, 0)
    return TernaryVerdict(Truth.UNKNOWN, 0.5, 0)
