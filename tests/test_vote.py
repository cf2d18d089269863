"""The batched member vote against the scalar reference path.

``satisfied_counts`` must count exactly the members whose
``Embedding.satisfies`` holds, bit for bit, including at ||eps|| = tau.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kbens import (
    Embedding,
    EmbeddingConfig,
    KnowledgeReport,
    Query,
    TernaryVerdict,
    TrainConfig,
    UnknownTermError,
    assertion_oracle,
    fit_ensemble,
    knowledge_report,
    parse_kb,
    unstated_queries,
)
from kbens import ensemble as ensemble_module
from kbens.ensemble import ReportRow, member_vote, satisfied_counts

from conftest import FRIEND_KB_TEXT, random_satisfiable_kb

COORDINATES = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


def scalar_counts(members, queries, tau=None):
    return [sum(m.satisfies(q, tau=tau) for m in members) for q in queries]


def member(ents, rels, tau_pos, seed=0):
    config = EmbeddingConfig(dimension=ents.shape[1], tau_pos=tau_pos, gamma=tau_pos + 1.0)
    names = tuple(f"e{i}" for i in range(ents.shape[0]))
    relations = tuple(f"r{i}" for i in range(rels.shape[0]))
    return Embedding(names, relations, ents, rels, config, seed)


@st.composite
def ensembles_and_queries(draw):
    d = draw(st.integers(1, 8))
    n_members = draw(st.integers(1, 5))
    n_ent, n_rel = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    ents = draw(arrays(np.float64, (n_members, n_ent, d), elements=COORDINATES))
    rels = draw(arrays(np.float64, (n_members, n_rel, d), elements=COORDINATES))
    taus = draw(st.lists(st.floats(0.0, 6.0), min_size=n_members, max_size=n_members))
    members = [member(ents[i], rels[i], taus[i], seed=i) for i in range(n_members)]
    query = st.builds(
        Query,
        st.sampled_from([f"r{i}" for i in range(n_rel)]),
        st.sampled_from([f"e{i}" for i in range(n_ent)]),
        st.sampled_from([f"e{i}" for i in range(n_ent)]),
    )
    return members, draw(st.lists(query, max_size=12))


class TestSatisfiedCounts:
    @settings(deadline=None)
    @given(
        ensembles_and_queries(),
        st.one_of(st.none(), st.floats(0.0, 8.0)),
        st.integers(1, 64),
    )
    def test_equals_scalar_count(self, drawn, tau, chunk):
        members, queries = drawn
        # Small chunks make every query set span several chunks.
        with mock.patch.object(ensemble_module, "_VOTE_CHUNK_ELEMENTS", chunk):
            counts = satisfied_counts(members, queries, tau)
        assert counts.tolist() == scalar_counts(members, queries, tau)

    @settings(deadline=None)
    @given(
        arrays(np.float64, (3, 8), elements=COORDINATES),
        st.integers(1, 8),
    )
    def test_residual_norm_exactly_at_tau(self, coords, d):
        subject, object_, relation = coords[:, :d]
        eps = subject - object_ - relation
        norm = math.sqrt(float(np.sum(eps * eps)))
        if norm == 0.0:
            return
        radii = [math.nextafter(norm, 0.0), norm, math.nextafter(norm, math.inf)]
        ents, rels = np.stack([subject, object_]), relation[None, :]
        q = Query("r0", "e0", "e1")
        # Per-member radii from each member's tau_pos.
        members = [member(ents, rels, radius, seed=i) for i, radius in enumerate(radii)]
        assert satisfied_counts(members, [q]).tolist() == [2]
        assert scalar_counts(members, [q]) == [2]
        # One overriding radius for every member.
        for radius, expected in zip(radii, (0, 3, 3)):
            assert satisfied_counts(members, [q], tau=radius).tolist() == [expected]
            assert scalar_counts(members, [q], tau=radius) == [expected]

    def test_unknown_terms_in_scalar_order(self):
        m = member(np.zeros((2, 1)), np.zeros((1, 1)), 0.5)
        cases = [
            (Query("x", "a", "b"), "unknown entity: 'a'"),
            (Query("x", "e0", "b"), "unknown entity: 'b'"),
            (Query("x", "e0", "e1"), "unknown relation: 'x'"),
        ]
        for q, message in cases:
            with pytest.raises(UnknownTermError) as batched:
                satisfied_counts([m, m], [Query("r0", "e0", "e1"), q])
            with pytest.raises(UnknownTermError) as scalar:
                m.satisfies(q)
            assert str(batched.value) == str(scalar.value) == message

    def test_mixed_vocabulary_is_rejected(self):
        a = member(np.zeros((2, 1)), np.zeros((1, 1)), 0.5)
        b = member(np.zeros((3, 1)), np.zeros((1, 1)), 0.5)
        with pytest.raises(ValueError, match="vocabulary"):
            satisfied_counts([a, b], [Query("r0", "e0", "e1")])
        with pytest.raises(ValueError):
            satisfied_counts([], [Query("r0", "e0", "e1")])

    def test_member_vote_is_a_one_query_vote(self):
        members = [
            member(np.array([[0.0], [x]]), np.zeros((1, 1)), 0.5, seed=i)
            for i, x in enumerate((0.1, 0.4, 2.0))
        ]
        verdict = member_vote(members, Query("r0", "e0", "e1"))
        assert verdict == TernaryVerdict.from_fraction(2 / 3, 3)


def scalar_report(ens, kb, include_self_pairs=False, tau=None, quorum_slack=0.0):
    """The report rebuilt row by row from ``Embedding.satisfies``."""
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
    unstated = [
        ReportRow(q, vote(q), None, None)
        for q in unstated_queries(kb, include_self_pairs=include_self_pairs)
    ]
    return KnowledgeReport(ens.kb_digest, n, tuple(asserted), tuple(unstated))


class TestReportMatchesScalarRebuild:
    @pytest.mark.parametrize(
        "options",
        [{}, {"include_self_pairs": True, "tau": 0.5, "quorum_slack": 0.1},
         {"tau": 0.0}, {"tau": 10.0}],
    )
    def test_friend_store(self, options):
        kb = parse_kb(FRIEND_KB_TEXT)
        ens = fit_ensemble(kb, EmbeddingConfig(dimension=1), TrainConfig(), 7, members=16)
        expected = scalar_report(ens, kb, **options).to_tsv()
        assert knowledge_report(ens, kb, **options).to_tsv() == expected

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
        expected = scalar_report(ens, kb, include_self_pairs=True).to_tsv()
        assert knowledge_report(ens, kb, include_self_pairs=True).to_tsv() == expected
