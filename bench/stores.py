"""Seeded store generators for the benchmark workloads.

Every generator takes its seed as an argument and certifies what it builds
with ``kbens.trainer.satisfiability_oracle``; the oracle is looked up on the
module at call time so that a traced run sees those calls.  Nothing here
imports from the test suite.
"""

from __future__ import annotations

import numpy as np

from kbens import trainer
from kbens.kb import KnowledgeBase, Query, SignedTriple, parse_kb
from kbens.trainer import Satisfiability

FRIENDS_TEXT = (
    "friend\tJoe\tBob\t+\n"
    "friend\tAlice\tJohn\t+\n"
    "friend\tMary\tJohn\t-\n"
)

# The README queries: three asserted facts with their expected verdicts, and
# the unstated pair whose UNKNOWN share is recorded but not gated.
FRIENDS_ASSERTED = (
    (Query("friend", "Joe", "Bob"), "TRUE"),
    (Query("friend", "Alice", "John"), "TRUE"),
    (Query("friend", "Mary", "John"), "FALSE"),
)
FRIENDS_UNSTATED = Query("friend", "Mary", "Alice")

# Entities per wide cluster, denied pairs per cluster, and how many candidate
# clusters to draw per accepted one before the store stops growing.
CLUSTER_SIZE = 5
CLUSTER_NEGATIVES = 2
_CLUSTER_DRAWS = 4


def _status(kb: KnowledgeBase) -> Satisfiability:
    return trainer.satisfiability_oracle(kb, dimension=max(1, len(kb.entities))).status


def certify(kb: KnowledgeBase, expect: Satisfiability) -> None:
    """Raise unless the oracle gives ``expect`` at dimension |entities|."""
    status = _status(kb)
    if status is not expect:
        raise RuntimeError(f"store certified {status.value}, expected {expect.value}")


def friends_store() -> KnowledgeBase:
    kb = parse_kb(FRIENDS_TEXT)
    certify(kb, Satisfiability.SATISFIABLE)
    return kb


def force_unsatisfiable(kb: KnowledgeBase) -> KnowledgeBase:
    """``kb`` plus a self-loop ``r(x, x)+``, which forces the vector of ``r``
    to zero, and the reverse ``r(b, a)-`` of an asserted ``r(a, b)+``, which
    then cannot leave the margin ball.  The first such pair in store order
    is used."""
    asserted = {t.key for t in kb.triples}
    for t in kb.triples:
        if not t.positive or t.subject == t.object:
            continue
        if (t.relation, t.object, t.subject) in asserted:
            continue
        loops = [e for e in kb.entities if (t.relation, e, e) not in asserted]
        if not loops:
            continue
        extra = (
            SignedTriple(t.relation, loops[0], loops[0], True),
            SignedTriple(t.relation, t.object, t.subject, False),
        )
        out = KnowledgeBase.from_triples(kb.triples + extra)
        certify(out, Satisfiability.UNSATISFIABLE)
        return out
    raise RuntimeError("store has no positive fact to contradict")


def _cluster(rng: np.random.Generator, index: int) -> list[SignedTriple]:
    # Positive facts form a random tree over the five entities, so every
    # entity is in the store and no cycle of positives pins a relation
    # vector; CLUSTER_NEGATIVES more facts deny random other pairs.
    names = [f"p{index}_{i}" for i in rng.permutation(CLUSTER_SIZE)]
    edges = []
    for i in range(1, CLUSTER_SIZE):
        pair = (names[i], names[int(rng.integers(i))])
        edges.append(pair if rng.random() < 0.5 else pair[::-1])
    others = [(s, o) for s in names for o in names if s != o and (s, o) not in edges]
    denied = [others[int(i)] for i in rng.choice(len(others), size=CLUSTER_NEGATIVES, replace=False)]
    return [
        SignedTriple(f"rel{int(rng.integers(2))}", s, o, positive)
        for pairs, positive in ((edges, True), (denied, False))
        for s, o in pairs
    ]


def wide_store(
    rng: np.random.Generator, clusters: int
) -> tuple[KnowledgeBase, KnowledgeBase]:
    """Clusters of five entities over two shared relations.  A candidate
    cluster is kept only when the oracle still certifies the whole store;
    growth stops at ``clusters`` kept or after a fixed number of draws.
    Returns the store and its first kept cluster on its own."""
    kept: list[list[SignedTriple]] = []
    for index in range(_CLUSTER_DRAWS * clusters):
        if len(kept) == clusters:
            break
        candidate = _cluster(rng, index)
        triples = [t for c in kept for t in c] + candidate
        if _status(KnowledgeBase.from_triples(triples)) is Satisfiability.SATISFIABLE:
            kept.append(candidate)
    kb = KnowledgeBase.from_triples(t for c in kept for t in c)
    certify(kb, Satisfiability.SATISFIABLE)
    return kb, KnowledgeBase.from_triples(kept[0])


def entity_queries(rng: np.random.Generator, kb: KnowledgeBase, count: int) -> list[Query]:
    """A fixed draw of ``count`` queries over the store's vocabulary."""
    ents, rels = kb.entities, kb.relations
    return [
        Query(
            rels[int(rng.integers(len(rels)))],
            ents[int(rng.integers(len(ents)))],
            ents[int(rng.integers(len(ents)))],
        )
        for _ in range(count)
    ]
