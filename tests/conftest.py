"""Shared fixtures: the five-person friend store and random KB generators."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from kbens import (
    Ensemble,
    FitReport,
    KnowledgeBase,
    Satisfiability,
    SignedTriple,
    parse_kb,
    satisfiability_oracle,
)

FRIEND_KB_TEXT = (
    "friend\tJoe\tBob\t+\n"
    "friend\tAlice\tJohn\t+\n"
    "friend\tMary\tJohn\t-\n"
)

# friend(Joe, Joe)+ forces the relation to zero, which pins friend(Bob, Joe)-
# onto the asserted friend(Joe, Bob)+: every embedding has error >= 1/6.
FRIEND_UNSAT_KB_TEXT = FRIEND_KB_TEXT + "friend\tJoe\tJoe\t+\nfriend\tBob\tJoe\t-\n"


@pytest.fixture
def friend_kb() -> KnowledgeBase:
    return parse_kb(FRIEND_KB_TEXT)


def random_kb(
    rng: np.random.Generator,
    max_entities: int = 8,
    max_relations: int = 2,
    max_triples: int = 10,
    negative_rate: float = 0.3,
) -> KnowledgeBase:
    """A random contradiction-free store (not necessarily satisfiable)."""
    n_ent = int(rng.integers(2, max_entities + 1))
    n_rel = int(rng.integers(1, max_relations + 1))
    entities = [f"e{i}" for i in range(n_ent)]
    relations = [f"r{i}" for i in range(n_rel)]
    n_triples = int(rng.integers(1, max_triples + 1))
    chosen: dict[tuple[str, str, str], bool] = {}
    for _ in range(n_triples):
        key = (
            relations[rng.integers(n_rel)],
            entities[rng.integers(n_ent)],
            entities[rng.integers(n_ent)],
        )
        if key not in chosen:
            chosen[key] = bool(rng.random() > negative_rate)
    triples = [SignedTriple(r, s, o, pol) for (r, s, o), pol in chosen.items()]
    return KnowledgeBase.from_triples(triples)


def random_satisfiable_kb(rng: np.random.Generator, **kwargs) -> KnowledgeBase:
    """Rejection-sample random stores until the linear-system check certifies
    that zero cumulative error is attainable."""
    while True:
        kb = random_kb(rng, **kwargs)
        result = satisfiability_oracle(kb, dimension=len(kb.entities))
        if result.status is Satisfiability.SATISFIABLE:
            return kb


def forced_unsatisfiable_kb(rng: np.random.Generator) -> KnowledgeBase:
    """A store whose positive facts pin some pair of entities together while
    a negative fact demands they sit a margin apart.

    A relation cycle r(x0,x1)+, ..., r(x_{k-1},x0)+ forces the relation
    vector to zero at zero error (k copies of it telescope to nothing), so
    any further positive r(u,v)+ forces u = v, and the unasserted reverse
    r(v,u)- can then never escape the margin ball.
    """
    k = int(rng.integers(1, 4))  # cycle length; k=1 is a self-loop
    cyc = [f"c{i}" for i in range(max(k, 1))]
    triples = [
        SignedTriple("r", cyc[i], cyc[(i + 1) % len(cyc)], True) for i in range(k)
    ]
    triples.append(SignedTriple("r", "u", "v", True))
    triples.append(SignedTriple("r", "v", "u", False))
    # Decoy facts on fresh entities keep the instances from all looking alike.
    for j in range(int(rng.integers(0, 3))):
        triples.append(SignedTriple("r", f"d{j}", f"d{j}x", bool(rng.random() > 0.5)))
    return KnowledgeBase.from_triples(triples)


def cluster_kb(rng: np.random.Generator, clusters: int) -> KnowledgeBase:
    """Clusters of five fresh entities over two shared relations, certified
    satisfiable.

    A cluster's positive facts form a random tree over its entities, so every
    entity is in the store and no cycle of positives forces a relation vector
    to zero; two more facts deny other pairs of the cluster.  A drawn cluster
    is kept only while the oracle still certifies the whole store.
    """
    triples: list[SignedTriple] = []
    kept = 0
    for index in range(4 * clusters):
        names = [f"c{index}_{i}" for i in rng.permutation(5)]
        tree = [(names[i], names[int(rng.integers(i))]) for i in range(1, 5)]
        tree = [pair if rng.random() < 0.5 else pair[::-1] for pair in tree]
        others = [(s, o) for s in names for o in names if s != o and (s, o) not in tree]
        denied = [others[int(i)] for i in rng.choice(len(others), 2, replace=False)]
        candidate = triples + [
            SignedTriple(f"r{int(rng.integers(2))}", s, o, positive)
            for pairs, positive in ((tree, True), (denied, False))
            for s, o in pairs
        ]
        kb = KnowledgeBase.from_triples(candidate)
        if satisfiability_oracle(kb, len(kb.entities)).status is Satisfiability.SATISFIABLE:
            triples, kept = candidate, kept + 1
            if kept == clusters:
                return kb
    raise RuntimeError(f"fewer than {clusters} clusters kept in {4 * clusters} draws")


def hand_made_ensemble(members, kb_digest: str = "") -> Ensemble:
    """A valid ensemble of hand-made members with distinct seeds: each
    carries one converged report of its own seed, with final error 0."""
    members = tuple(members)
    return Ensemble(members, kb_digest, tuple(FitReport(0.0, 0, True, m.seed) for m in members))


def all_queries(kb: KnowledgeBase, include_self_pairs: bool = False):
    """Every (relation, subject, object) combination over the vocabulary."""
    from kbens import Query

    for rel in kb.relations:
        for s, o in itertools.product(kb.entities, kb.entities):
            if not include_self_pairs and s == o:
                continue
            yield Query(rel, s, o)


def numerical_gradients(e, kb, h: float = 1e-5):
    """Central finite differences of the cumulative error, term by term.

    Stays independent of the analytic path: it only rebuilds embeddings with
    one nudged coordinate and re-evaluates the public loss.
    """
    from kbens import Embedding

    out = {}
    ents = {t: np.array(p) for t, p in e.entity_points.items()}
    rels = {t: np.array(v) for t, v in e.relation_vectors.items()}

    def loss(entities, relations):
        probe = Embedding.from_points(entities, relations, e.config, e.seed)
        return probe.cumulative_error(kb)

    for kind, table in (("ent", ents), ("rel", rels)):
        for term, vec in table.items():
            grad = np.zeros_like(vec)
            for i in range(vec.size):
                bumped = {t: v.copy() for t, v in table.items()}
                bumped[term][i] += h
                up = loss(bumped if kind == "ent" else ents, bumped if kind == "rel" else rels)
                bumped[term][i] -= 2 * h
                down = loss(bumped if kind == "ent" else ents, bumped if kind == "rel" else rels)
                grad[i] = (up - down) / (2 * h)
            out[term] = grad
    return out


def away_from_hinge_kinks(e, kb, width: float = 1e-3) -> bool:
    """Reject configurations with a negative residual near the hinge corner
    (||eps|| close to gamma) or the radial kink at zero, where the loss is
    not differentiable."""
    gamma = e.config.gamma
    for t in kb.triples:
        if not t.positive:
            norm = float(np.linalg.norm(e.residual(t)))
            if abs(norm - gamma) < width or norm < width:
                return False
    return True
