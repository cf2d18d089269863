"""The batched member vote against the scalar reference path.

``satisfied_counts`` must count exactly the members whose
``Embedding.satisfies`` holds, bit for bit, including at ||eps|| = tau.
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kbens import (
    Embedding,
    EmbeddingConfig,
    KnowledgeBase,
    Query,
    SignedTriple,
    TernaryVerdict,
    TrainConfig,
    Truth,
    UnknownTermError,
    assertion_oracle,
    fit_ensemble,
    knowledge_report,
    parse_kb,
    query_truth,
    unstated_queries,
)
from kbens import ensemble as ensemble_module
from kbens.ensemble import ReportRow, satisfied_counts

from conftest import FRIEND_KB_TEXT, hand_made_ensemble, random_satisfiable_kb

COORDINATES = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
# One power of ten per example scales its coordinates and radii: squares and
# radii whose squares underflow to 0 or overflow to inf are drawn too.
SCALES = st.integers(-200, 200).map(lambda e: 10.0**e)


def scalar_counts(members, queries, tau=None):
    return [sum(m.satisfies(q, tau=tau) for m in members) for q in queries]


def member(ents, rels, tau_pos, seed=0):
    config = EmbeddingConfig(dimension=ents.shape[1], tau_pos=tau_pos, gamma=2.0 * tau_pos + 1.0)
    names = tuple(f"e{i}" for i in range(ents.shape[0]))
    relations = tuple(f"r{i}" for i in range(rels.shape[0]))
    return Embedding(names, relations, ents, rels, config, seed)


@st.composite
def ensembles_and_queries(draw):
    """An ensemble of hand-made members under one drawn config, queries over
    its vocabulary, and the scale of its coordinates and radius."""
    d = draw(st.integers(1, 16))
    n_members = draw(st.integers(1, 5))
    n_ent, n_rel = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    scale = draw(SCALES)
    ents = draw(arrays(np.float64, (n_members, n_ent, d), elements=COORDINATES)) * scale
    rels = draw(arrays(np.float64, (n_members, n_rel, d), elements=COORDINATES)) * scale
    tau = draw(st.floats(0.0, 6.0)) * scale
    ens = hand_made_ensemble(member(ents[i], rels[i], tau, seed=i) for i in range(n_members))
    query = st.builds(
        Query,
        st.sampled_from([f"r{i}" for i in range(n_rel)]),
        st.sampled_from([f"e{i}" for i in range(n_ent)]),
        st.sampled_from([f"e{i}" for i in range(n_ent)]),
    )
    return ens, draw(st.lists(query, max_size=12)), scale


# A residual whose square overflows, outside a radius whose square overflows too.
OVERFLOW = (
    hand_made_ensemble([member(np.array([[0.0], [4e200]]), np.zeros((1, 1)), 1e200)]),
    [Query("r0", "e0", "e1")], 1e200,
)
# A residual whose subject - object already overflows, to +inf and to -inf.
DIFFERENCE_OVERFLOW = (
    hand_made_ensemble([member(np.array([[1e308], [-1e308]]), np.zeros((1, 1)), 1.0)]),
    [Query("r0", "e0", "e1"), Query("r0", "e1", "e0")], 1.0,
)
# Residuals near sqrt(max float) at d = 16, one whose squares overflow when
# summed in numpy's pairwise order only, one whose squares overflow when
# added one column at a time only, under a radius above both finite norms.
ONE_ORDER_OVERFLOW = (
    hand_made_ensemble([member(
        np.array([[1.3407807929942596e154, *[math.sqrt(0.4 * 2.0**971)] * 15],
                  [1.3407807929942587e154, *[math.sqrt(0.51 * 2.0**971)] * 15],
                  [0.0] * 16]),
        np.zeros((1, 16)), 2e154,
    )]),
    [Query("r0", "e0", "e2"), Query("r0", "e1", "e2")], 1.0,
)


class TestSatisfiedCounts:
    @settings(deadline=None)
    @given(
        ensembles_and_queries(),
        st.one_of(st.none(), st.just(math.inf), st.floats(0.0, 8.0)),
        st.integers(1, 64),
    )
    @example(OVERFLOW, 1.0, 64)
    @example(ONE_ORDER_OVERFLOW, None, 64)
    @example(ONE_ORDER_OVERFLOW, sys.float_info.max, 64)  # radius * (1 + slack) overflows
    @example(DIFFERENCE_OVERFLOW, None, 64)
    def test_equals_scalar_count(self, drawn, tau, chunk):
        ens, queries, scale = drawn
        tau = None if tau is None else tau * scale
        # Small chunks make every query set span several chunks.
        with mock.patch.object(ensemble_module, "_CHUNK_ELEMENTS", chunk):
            counts = satisfied_counts(ens, queries, tau)
        assert counts.tolist() == scalar_counts(ens.members, queries, tau)

    @settings(deadline=None)
    @given(
        arrays(np.float64, (3, 16), elements=COORDINATES, fill=st.nothing()),
        st.integers(1, 16),
        SCALES,
    )
    def test_residual_norm_exactly_at_tau(self, coords, d, scale):
        # From d = 8, numpy 2's np.sum adds the squares in another order than the vote.
        subject, object_, relation = coords[:, :d] * scale
        eps = subject - object_ - relation
        with np.errstate(over="ignore"):
            norm = math.sqrt(float(np.sum(eps * eps)))
        if not 0.0 < norm < math.inf:  # a member's tau_pos is finite
            return
        radii = [math.nextafter(norm, 0.0), norm, math.nextafter(norm, math.inf)]
        ents, rels = np.stack([subject, object_]), relation[None, :]
        q = Query("r0", "e0", "e1")
        # The radius from the member's tau_pos, one member at a time.
        for radius, expected in zip(radii, (0, 1, 1)):
            ens = hand_made_ensemble([member(ents, rels, radius)])
            assert satisfied_counts(ens, [q]).tolist() == [expected]
            assert scalar_counts(ens.members, [q]) == [expected]
        # One overriding radius for every member.
        ens = hand_made_ensemble(member(ents, rels, 1.0, seed=i) for i in range(3))
        for radius, expected in zip(radii, (0, 3, 3)):
            assert satisfied_counts(ens, [q], tau=radius).tolist() == [expected]
            assert scalar_counts(ens.members, [q], tau=radius) == [expected]

    def test_unknown_terms_in_scalar_order(self):
        m = member(np.zeros((2, 1)), np.zeros((1, 1)), 0.5)
        cases = [
            (Query("x", "a", "b"), "unknown entity: 'a'"),
            (Query("x", "e0", "b"), "unknown entity: 'b'"),
            (Query("x", "e0", "e1"), "unknown relation: 'x'"),
        ]
        for q, message in cases:
            with pytest.raises(UnknownTermError) as batched:
                satisfied_counts(hand_made_ensemble([m]), [Query("r0", "e0", "e1"), q])
            with pytest.raises(UnknownTermError) as scalar:
                m.satisfies(q)
            assert str(batched.value) == str(scalar.value) == message

    def test_mixed_vocabulary_is_rejected(self):
        # Members of two vocabularies, or none, make no ensemble, so no vote.
        a = member(np.zeros((2, 1)), np.zeros((1, 1)), 0.5)
        b = member(np.zeros((3, 1)), np.zeros((1, 1)), 0.5, seed=1)
        with pytest.raises(ValueError, match="vocabulary"):
            hand_made_ensemble([a, b])
        with pytest.raises(ValueError):
            hand_made_ensemble([])

    def test_query_truth_is_a_one_query_vote(self):
        ens = hand_made_ensemble(
            member(np.array([[0.0], [x]]), np.zeros((1, 1)), 0.5, seed=i)
            for i, x in enumerate((0.1, 0.4, 2.0))
        )
        verdict = query_truth(ens, Query("r0", "e0", "e1"))
        assert verdict == TernaryVerdict.from_fraction(2 / 3, 3)


def scalar_report(ens, kb, include_self_pairs=False, tau=None, quorum_slack=0.0):
    """The report rebuilt row by row from ``Embedding.satisfies`` and
    ``TernaryVerdict.from_fraction``, over its own enumeration of the
    unstated facts: ``(tsv, asserted_rows, unstated_rows)``."""
    n = len(ens.members)

    def vote(q):
        return TernaryVerdict.from_fraction(
            scalar_counts(ens.members, [q], tau)[0] / n, n, quorum_slack
        )

    asserted = []
    for t in kb.triples:
        q = t.as_query()
        v = vote(q)
        asserted.append(ReportRow(q, v, t.positive, v.value == assertion_oracle(kb, q).value))
    keys = {t.key for t in kb.triples}
    unstated = [
        ReportRow(Query(r, s, o), vote(Query(r, s, o)), None, None)
        for r in kb.relations for s in kb.entities for o in kb.entities
        if (include_self_pairs or s != o) and (r, s, o) not in keys
    ]
    tally = {v: sum(row.verdict.value is v for row in unstated) for v in Truth}
    lines = [
        f"# kb_digest={ens.kb_digest} members={n}",
        f"# asserted={len(asserted)} consistent={sum(row.consistent for row in asserted)}"
        f" unstated={len(unstated)} true={tally[Truth.TRUE]} false={tally[Truth.FALSE]}"
        f" unknown={tally[Truth.UNKNOWN]}",
    ]
    for row in asserted + unstated:
        if row.asserted is None:
            origin, flag = "unstated", "-"
        else:
            origin = "+" if row.asserted else "-"
            flag = "ok" if row.consistent else "MISMATCH"
        q, v = row.query, row.verdict
        lines.append(f"{q.relation}\t{q.subject}\t{q.object}\t{v.value}"
                     f"\t{v.satisfied_fraction:.6f}\t{origin}\t{flag}")
    return "\n".join(lines) + "\n", tuple(asserted), tuple(unstated)


def assert_report_matches_scalar(ens, kb, **options):
    tsv, asserted, unstated = scalar_report(ens, kb, **options)
    report = knowledge_report(ens, kb, **options)
    assert report.to_tsv() == tsv
    assert report.asserted_rows == asserted
    assert report.unstated_rows == unstated
    self_pairs = options.get("include_self_pairs", False)
    assert [row.query for row in unstated] == unstated_queries(kb, include_self_pairs=self_pairs)


# Coordinates on a coarse grid, so that residual norms tie across rows.
GRID_COORDINATES = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


@st.composite
def stores_and_ensembles(draw):
    """A store with declared terms, some of them isolated, and hand-made
    members over its vocabulary (one shared config)."""
    entities = [f"e{i}" for i in range(draw(st.integers(0, 4)))]
    relations = [f"r{i}" for i in range(draw(st.integers(0, 3)))]
    keys = draw(st.lists(
        st.tuples(st.sampled_from(relations), st.sampled_from(entities),
                  st.sampled_from(entities)),
        unique=True, max_size=8,
    )) if entities and relations else []
    triples = [SignedTriple(r, s, o, draw(st.booleans())) for r, s, o in keys]
    kb = KnowledgeBase(tuple(triples), tuple(entities), tuple(relations))
    d = draw(st.integers(1, 3))
    config = EmbeddingConfig(dimension=d, tau_pos=draw(st.sampled_from([0.5, 1.0])), gamma=2.0)
    members = [
        Embedding(
            kb.entities, kb.relations,
            draw(arrays(np.float64, (len(kb.entities), d), elements=GRID_COORDINATES)),
            draw(arrays(np.float64, (len(kb.relations), d), elements=GRID_COORDINATES)),
            config, seed,
        )
        for seed in range(draw(st.integers(1, 5)))
    ]
    return kb, hand_made_ensemble(members, kb.digest())


class TestColumnarReportEqualsScalar:
    @settings(deadline=None)
    @given(
        stores_and_ensembles(),
        st.booleans(),
        st.sampled_from([0.0, 0.2]),
        st.one_of(st.none(), st.tuples(st.integers(0), st.integers(0))),
    )
    def test_random_store(self, drawn, include_self_pairs, quorum_slack, exact):
        kb, ens = drawn
        tau = None
        queries = [t.as_query() for t in kb.triples] + unstated_queries(kb)
        if exact is not None and queries:
            # tau at one row's exact ||eps|| in one member: the boundary row holds.
            row, m = exact
            eps = ens.members[m % len(ens)].residual(queries[row % len(queries)])
            tau = math.sqrt(float(np.sum(eps * eps)))
        assert_report_matches_scalar(
            ens, kb, include_self_pairs=include_self_pairs, tau=tau, quorum_slack=quorum_slack
        )

    @pytest.mark.parametrize("include_self_pairs", [False, True])
    @pytest.mark.parametrize("kb", [
        KnowledgeBase((), (), ()),
        KnowledgeBase((), ("a",), ("r",)),
        KnowledgeBase((SignedTriple("r", "a", "a", True),), ("a",), ("r", "s")),
    ], ids=["empty", "one-entity", "one-entity-self-loop"])
    def test_smallest_stores(self, kb, include_self_pairs):
        config = EmbeddingConfig(dimension=1)
        members = [
            Embedding(kb.entities, kb.relations, np.full((len(kb.entities), 1), x),
                      np.full((len(kb.relations), 1), 0.25 * i), config, i)
            for i, x in enumerate((0.0, 1.0, 2.0))
        ]
        assert_report_matches_scalar(
            hand_made_ensemble(members, kb.digest()), kb,
            include_self_pairs=include_self_pairs, quorum_slack=0.2,
        )


class TestReportVocabulary:
    """The store and its ensemble share a digest, which leaves isolated
    terms out, so their vocabularies can differ."""

    TRIPLES = (SignedTriple("r", "a", "b", True),)

    @staticmethod
    def ensemble(kb):
        config = EmbeddingConfig(dimension=1)
        members = [
            Embedding(kb.entities, kb.relations, np.arange(len(kb.entities))[:, None] * x,
                      np.ones((len(kb.relations), 1)), config, i)
            for i, x in enumerate((0.5, 1.0, 1.5))
        ]
        return hand_made_ensemble(members, kb.digest())

    def test_members_know_more_terms_than_the_store(self):
        kb = KnowledgeBase.from_triples(self.TRIPLES)
        ens = self.ensemble(KnowledgeBase(self.TRIPLES, ("a", "b", "c", "z"), ("q", "r")))
        assert_report_matches_scalar(ens, kb, include_self_pairs=True)

    @pytest.mark.parametrize("entities, relations, message", [
        (("a", "b", "z"), ("r",), "unknown entity: 'z'"),
        (("a", "b"), ("q", "r"), "unknown relation: 'q'"),
        (("_", "a", "b"), ("q", "r"), "unknown entity: '_'"),
    ])
    def test_store_term_the_members_lack(self, entities, relations, message):
        ens = self.ensemble(KnowledgeBase.from_triples(self.TRIPLES))
        kb = KnowledgeBase(self.TRIPLES, entities, relations)
        with pytest.raises(UnknownTermError) as scalar:
            scalar_report(ens, kb)
        with pytest.raises(UnknownTermError) as columnar:
            knowledge_report(ens, kb)
        assert str(columnar.value) == str(scalar.value) == message


class TestReportMatchesScalarRebuild:
    @pytest.mark.parametrize(
        "options",
        [{}, {"include_self_pairs": True, "tau": 0.5, "quorum_slack": 0.1},
         {"tau": 0.0}, {"tau": 10.0}],
    )
    def test_friend_store(self, options):
        kb = parse_kb(FRIEND_KB_TEXT)
        ens = fit_ensemble(kb, EmbeddingConfig(dimension=1), TrainConfig(), 7, members=16)
        assert_report_matches_scalar(ens, kb, **options)

    @pytest.mark.parametrize("tau, mismatched", [(0.0, "+"), (10.0, "-")])
    def test_mismatch_follows_the_triple_polarity(self, tau, mismatched):
        # No fitted positive residual is exactly 0, and every negative one
        # lies within 10, so one polarity's rows all turn MISMATCH.
        kb = parse_kb(FRIEND_KB_TEXT)
        ens = fit_ensemble(kb, EmbeddingConfig(dimension=1), TrainConfig(), 7, members=16)
        lines = knowledge_report(ens, kb, tau=tau).to_tsv().splitlines()
        rows = [line.split("\t") for line in lines if not line.startswith("#")]
        flags = {(row[5], row[6]) for row in rows if row[5] != "unstated"}
        kept = "-" if mismatched == "+" else "+"
        assert flags == {(mismatched, "MISMATCH"), (kept, "ok")}

    def test_random_certified_store(self):
        kb = random_satisfiable_kb(np.random.default_rng(2024), max_entities=6)
        cfg = EmbeddingConfig(dimension=len(kb.entities))
        ens = fit_ensemble(kb, cfg, TrainConfig(), 11, members=8)
        assert_report_matches_scalar(ens, kb, include_self_pairs=True)
