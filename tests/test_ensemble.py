"""Ensemble fitting, ternary query answering, reports, and serialization."""

import copy
import json
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbens import (
    DigestMismatchError,
    Embedding,
    Ensemble,
    EnsembleFitError,
    EmbeddingConfig,
    Query,
    TernaryVerdict,
    TrainConfig,
    Truth,
    aggregate_query,
    build_aggregate,
    fit_ensemble,
    knowledge_report,
    parse_kb,
    query_truth,
    train,
    unstated_queries,
)
from kbens.ensemble import satisfied_counts
from kbens.kb import KnowledgeBase, SignedTriple

from conftest import FRIEND_KB_TEXT, all_queries, random_kb, random_satisfiable_kb


@pytest.fixture(scope="module")
def friend_kb_m():
    return parse_kb(
        "friend\tJoe\tBob\t+\nfriend\tAlice\tJohn\t+\nfriend\tMary\tJohn\t-\n"
    )


@pytest.fixture(scope="module")
def friend_ensemble(friend_kb_m):
    return fit_ensemble(
        friend_kb_m, EmbeddingConfig(dimension=1), TrainConfig(), base_seed=7, members=32
    )


WIDE_KB = Path(__file__).resolve().parent.parent / "tools" / "stores" / "wide.kb"


@pytest.fixture(scope="module")
def wide_kb_m():
    return parse_kb(WIDE_KB.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def wide_ensemble(wide_kb_m):
    return fit_ensemble(wide_kb_m, EmbeddingConfig(dimension=2), TrainConfig(), 2, members=6)


class TestFitEnsemble:
    def test_friend_kb_full_ensemble(self, friend_kb_m, friend_ensemble):
        assert len(friend_ensemble) == 32
        seeds = [m.seed for m in friend_ensemble.members]
        assert len(set(seeds)) == 32
        for m in friend_ensemble.members:
            assert m.cumulative_error(friend_kb_m) <= m.config.eps_fit
        friend_ensemble.validate(friend_kb_m)

    def test_singleton_ensemble_is_two_valued(self, friend_kb_m):
        ens = fit_ensemble(
            friend_kb_m, EmbeddingConfig(dimension=2), TrainConfig(), 3, members=1
        )
        for q in all_queries(friend_kb_m, include_self_pairs=True):
            assert query_truth(ens, q).value in (Truth.TRUE, Truth.FALSE)

    def test_empty_kb_members_all_zero_error(self):
        kb = parse_kb("")
        ens = fit_ensemble(kb, EmbeddingConfig(dimension=1), TrainConfig(), 5, members=4)
        assert len(ens) == 4
        assert all(r.final_error == 0.0 for r in ens.reports)

    def test_member_count_validated(self, friend_kb_m):
        with pytest.raises(ValueError):
            fit_ensemble(friend_kb_m, EmbeddingConfig(dimension=1), TrainConfig(), 7, members=0)

    def test_unfittable_kb_raises_after_cap(self):
        kb = KnowledgeBase.from_triples(
            [
                SignedTriple("r", "a", "b", True),
                SignedTriple("r", "b", "a", True),
                SignedTriple("r", "c", "d", True),
                SignedTriple("r", "d", "c", False),
            ]
        )
        tcfg = TrainConfig(max_epochs=200)
        with pytest.raises(EnsembleFitError):
            fit_ensemble(kb, EmbeddingConfig(dimension=2), tcfg, 1, members=2)

    def test_parallel_fit_matches_sequential_when_seeds_fail(self, friend_kb_m):
        # At 6 epochs most seeds fail on the friend store, so filling the
        # ensemble takes several waves of candidate seeds.
        ens = fit_ensemble(friend_kb_m, EmbeddingConfig(dimension=1), TrainConfig(max_epochs=6), 7, members=4)
        assert [m.seed for m in ens.members] == [13, 14, 17, 20]

    def test_members_are_read_only_views_when_fitted_pickled_or_copied(self, friend_kb_m):
        # pickle and copy.deepcopy must rebuild a member through the
        # constructor: frozen row views of one term array.
        ens = fit_ensemble(friend_kb_m, EmbeddingConfig(dimension=1), TrainConfig(), 7, members=2)
        copies = pickle.loads(pickle.dumps(ens.members)) + copy.deepcopy(ens.members)
        for member in ens.members + copies:
            terms = member.term_array
            assert not terms.flags.writeable
            assert member.entity_array.base is terms and member.relation_array.base is terms
            assert terms.shape == (len(friend_kb_m.entities) + len(friend_kb_m.relations), 1)
            for rows in (member.entity_array, member.relation_array, terms):
                with pytest.raises(ValueError, match="read-only"):
                    rows[0, 0] = 123.0
        assert [m.to_doc() for m in copies] == [m.to_doc() for m in ens.members * 2]


def per_seed_fit(kb, cfg, tcfg, base_seed, members):
    """``fit_ensemble`` as a loop of one-seed ``train`` calls: the first
    ``members`` converged seeds in seed order, within 4 x ``members`` seeds."""
    cap = 4 * members
    kept = []
    for seed in range(base_seed, base_seed + cap):
        fit = train(kb, cfg, tcfg, seed)
        if fit[1].converged:
            kept.append(fit)
            if len(kept) == members:
                return kept
    raise EnsembleFitError(
        f"only {len(kept)} of {members} members converged within {cap} candidate seeds"
    )


def assert_fits_like_per_seed_loop(kb, cfg, tcfg, base_seed, members):
    try:
        expected = per_seed_fit(kb, cfg, tcfg, base_seed, members)
    except EnsembleFitError as exc:
        with pytest.raises(EnsembleFitError) as raised:
            fit_ensemble(kb, cfg, tcfg, base_seed, members=members)
        assert str(raised.value) == str(exc)
        return
    ens = fit_ensemble(kb, cfg, tcfg, base_seed, members=members)
    assert ens.kb_digest == kb.digest()
    assert len(ens) == members
    for member, report, (emb, rep) in zip(ens.members, ens.reports, expected):
        assert member.entity_array.tobytes() == emb.entity_array.tobytes()
        assert member.relation_array.tobytes() == emb.relation_array.tobytes()
        assert (member.seed, member.config) == (emb.seed, emb.config)
        assert repr(report) == repr(rep)


class TestFitMatchesPerSeedLoop:
    # Budgets of 1 to 40 epochs leave some seeds of most small stores
    # unconverged, and unsatisfiable draws spend the whole attempt cap.
    @settings(max_examples=80, deadline=None)
    @given(
        store_seed=st.integers(0, 1 << 32),
        d=st.integers(1, 3),
        max_epochs=st.integers(1, 40),
        members=st.integers(1, 4),
        base_seed=st.integers(0, 1 << 40),
    )
    def test_one_job(self, store_seed, d, max_epochs, members, base_seed):
        kb = random_kb(np.random.default_rng(store_seed), max_entities=5, max_triples=6)
        assert_fits_like_per_seed_loop(
            kb, EmbeddingConfig(dimension=d), TrainConfig(max_epochs=max_epochs),
            base_seed, members,
        )

    @pytest.mark.parametrize("text, max_epochs, members", [
        (FRIEND_KB_TEXT, 15, 4),  # several waves of candidate seeds
        (FRIEND_KB_TEXT, 7, 4),  # 3 of 4 members within the attempt cap
        ("r\ta\tb\t+\nr\tb\ta\t+\nr\tc\td\t+\nr\td\tc\t-\n", 30, 2),  # unsatisfiable
    ], ids=["waves", "partial", "unsatisfiable"])
    def test_two_jobs(self, text, max_epochs, members):
        assert_fits_like_per_seed_loop(
            parse_kb(text), EmbeddingConfig(dimension=1), TrainConfig(max_epochs=max_epochs),
            7, members,
        )


class TestQueryTruth:
    def test_asserted_facts_keep_their_polarity(self, friend_kb_m, friend_ensemble):
        assert query_truth(friend_ensemble, Query("friend", "Joe", "Bob")).value is Truth.TRUE
        assert query_truth(friend_ensemble, Query("friend", "Alice", "John")).value is Truth.TRUE
        assert query_truth(friend_ensemble, Query("friend", "Mary", "John")).value is Truth.FALSE

    def test_unstated_fact_splits_the_members(self, friend_ensemble):
        v = query_truth(friend_ensemble, Query("friend", "Mary", "Alice"))
        assert 0.0 < v.satisfied_fraction < 1.0
        assert v.value is Truth.UNKNOWN
        assert v.member_count == 32

    def test_fraction_counts_members(self, friend_ensemble):
        v = query_truth(friend_ensemble, Query("friend", "Mary", "Alice"))
        satisfied = sum(
            1 for m in friend_ensemble.members if m.satisfies(Query("friend", "Mary", "Alice"))
        )
        assert v.satisfied_fraction == satisfied / 32

    def test_fidelity_on_random_satisfiable_stores(self):
        # With eps_fit <= tau^2 and tau < gamma - sqrt(eps_fit), every
        # converged member must agree with each asserted fact's polarity.
        rng = np.random.default_rng(101)
        for _ in range(5):
            kb = random_satisfiable_kb(rng, max_entities=6, max_triples=8)
            cfg = EmbeddingConfig(dimension=len(kb.entities))
            ens = fit_ensemble(kb, cfg, TrainConfig(), int(rng.integers(1 << 16)), members=4)
            for t in kb.triples:
                v = query_truth(ens, t.as_query())
                expected = Truth.TRUE if t.positive else Truth.FALSE
                assert v.value is expected, (t, v)

    def test_monotone_in_satisfaction_radius(self, friend_ensemble):
        rng = np.random.default_rng(55)
        queries = unstated_queries(
            parse_kb("friend\tJoe\tBob\t+\nfriend\tAlice\tJohn\t+\nfriend\tMary\tJohn\t-\n")
        )
        for _ in range(200):
            q = queries[rng.integers(len(queries))]
            t1, t2 = sorted(rng.uniform(0.0, 3.0, 2))
            f1 = query_truth(friend_ensemble, q, tau=t1).satisfied_fraction
            f2 = query_truth(friend_ensemble, q, tau=t2).satisfied_fraction
            assert f1 <= f2

    def test_adding_a_member_moves_fraction_toward_its_vote(self, friend_ensemble):
        rng = np.random.default_rng(77)
        members = friend_ensemble.members
        for _ in range(50):
            size = int(rng.integers(1, len(members)))
            picked = list(rng.choice(len(members), size=size, replace=False))
            extra = int(rng.choice([i for i in range(len(members)) if i not in picked]))
            q = Query("friend", "Mary", "Alice")
            sub = Ensemble(
                members=tuple(members[i] for i in picked),
                kb_digest=friend_ensemble.kb_digest,
                reports=tuple(friend_ensemble.reports[i] for i in picked),
            )
            grown = Ensemble(
                members=sub.members + (members[extra],),
                kb_digest=friend_ensemble.kb_digest,
                reports=sub.reports + (friend_ensemble.reports[extra],),
            )
            f_before = query_truth(sub, q).satisfied_fraction
            f_after = query_truth(grown, q).satisfied_fraction
            vote = 1.0 if members[extra].satisfies(q) else 0.0
            assert min(f_before, vote) - 1e-12 <= f_after <= max(f_before, vote) + 1e-12

    def test_quorum_slack_relaxes_unanimity(self, friend_ensemble):
        q = Query("friend", "Mary", "Alice")
        strict = query_truth(friend_ensemble, q)
        assert strict.value is Truth.UNKNOWN
        slack = query_truth(friend_ensemble, q, quorum_slack=0.49)
        assert slack.value in (Truth.TRUE, Truth.FALSE)

    @pytest.mark.parametrize("fraction", [-0.25, 1.5, float("nan")])
    def test_fraction_outside_the_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="satisfied fraction out of range"):
            TernaryVerdict.from_fraction(fraction, 4)

    def test_unknown_term_rejected(self, friend_ensemble):
        from kbens import UnknownTermError

        with pytest.raises(UnknownTermError):
            query_truth(friend_ensemble, Query("friend", "Mary", "Zed"))


class TestRadiusOverride:
    """Every vote takes its radius from ``EmbeddingConfig.radius``."""

    JOE_BOB = Query("friend", "Joe", "Bob")

    @pytest.mark.parametrize("tau", [float("nan"), -1.0, -float("inf")])
    def test_nan_or_negative_raises_from_every_vote(self, friend_kb_m, friend_ensemble, tau):
        message = f"^tau must be a non-negative number: {tau!r}$"
        votes = [
            lambda: friend_ensemble.members[0].satisfies(self.JOE_BOB, tau),
            lambda: satisfied_counts(friend_ensemble, [self.JOE_BOB], tau),
            lambda: satisfied_counts(friend_ensemble, [], tau),
            lambda: query_truth(friend_ensemble, self.JOE_BOB, tau=tau),
            lambda: aggregate_query(build_aggregate(friend_ensemble), self.JOE_BOB, tau=tau),
            lambda: knowledge_report(friend_ensemble, friend_kb_m, tau=tau),
        ]
        for vote in votes:
            with pytest.raises(ValueError, match=message):
                vote()

    def test_zero_and_infinity_are_radii(self, friend_kb_m, friend_ensemble):
        cfg = friend_ensemble.config
        assert cfg.radius() == cfg.tau_pos and cfg.radius(0.0) == 0.0
        assert query_truth(friend_ensemble, self.JOE_BOB, tau=float("inf")).value is Truth.TRUE
        far = Query("friend", "Mary", "John")
        assert query_truth(friend_ensemble, far, tau=0.0).value is Truth.FALSE
        report = knowledge_report(friend_ensemble, friend_kb_m, tau=float("inf"))
        assert report.unstated_counts[Truth.TRUE] == len(report.unstated_rows)


class TestKnowledgeReport:
    def test_friend_report_counts(self, friend_kb_m, friend_ensemble):
        report = knowledge_report(friend_ensemble, friend_kb_m)
        assert len(report.asserted_rows) == 3
        assert report.consistent_count == 3
        assert len(report.unstated_rows) == 17
        counts = report.unstated_counts
        assert sum(counts.values()) == 17

    def test_self_pairs_flag(self, friend_kb_m, friend_ensemble):
        report = knowledge_report(friend_ensemble, friend_kb_m, include_self_pairs=True)
        assert len(report.unstated_rows) == 22

    def test_empty_kb_report(self):
        kb = parse_kb("")
        ens = fit_ensemble(kb, EmbeddingConfig(dimension=1), TrainConfig(), 2, members=2)
        report = knowledge_report(ens, kb)
        assert report.asserted_rows == () and report.unstated_rows == ()
        assert report.to_tsv().startswith("#")

    def test_singleton_ensemble_reports_no_unknown(self, friend_kb_m):
        ens = fit_ensemble(friend_kb_m, EmbeddingConfig(dimension=1), TrainConfig(), 9, members=1)
        report = knowledge_report(ens, friend_kb_m)
        assert report.unstated_counts[Truth.UNKNOWN] == 0

    def test_digest_mismatch_rejected(self, friend_ensemble):
        other = parse_kb("friend\tJoe\tBob\t+\n")
        with pytest.raises(DigestMismatchError):
            knowledge_report(friend_ensemble, other)

    def test_tsv_shape(self, friend_kb_m, friend_ensemble):
        text = knowledge_report(friend_ensemble, friend_kb_m).to_tsv()
        lines = text.strip().split("\n")
        header = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert len(header) == 2
        assert len(rows) == 20
        for row in rows:
            fields = row.split("\t")
            assert len(fields) == 7
            assert fields[3] in ("TRUE", "FALSE", "UNKNOWN")
            float(fields[4])

    def test_deterministic(self, friend_kb_m, friend_ensemble):
        a = knowledge_report(friend_ensemble, friend_kb_m).to_tsv()
        b = knowledge_report(friend_ensemble, friend_kb_m).to_tsv()
        assert a == b


class TestSerialization:
    def test_json_roundtrip_is_byte_identical(self, friend_ensemble):
        text = friend_ensemble.to_json()
        assert Ensemble.from_json(text).to_json() == text

    def test_integer_margin_round_trips(self, friend_kb_m):
        # An int gamma is held as a float, so the file reads back to the same bytes.
        cfg = EmbeddingConfig(dimension=1, tau_pos=0.5, gamma=1)
        text = fit_ensemble(friend_kb_m, cfg, TrainConfig(), 7, members=2).to_json()
        loaded = Ensemble.from_json(text)
        assert loaded.config == cfg and type(loaded.config.gamma) is float
        assert loaded.to_json() == text

    def test_from_json_checks_the_frame(self, friend_ensemble):
        doc = friend_ensemble.to_doc()
        doc["reports"] = doc["reports"][:1]
        with pytest.raises(ValueError, match="1 reports for 32 members"):
            Ensemble.from_json(json.dumps(doc))
        doc = friend_ensemble.to_doc()
        doc["reports"][5]["converged"] = False
        with pytest.raises(ValueError, match="non-converged report"):
            Ensemble.from_doc(doc)

    def test_repeated_fits_are_byte_identical(self, friend_kb_m):
        cfg = EmbeddingConfig(dimension=1)
        a = fit_ensemble(friend_kb_m, cfg, TrainConfig(), 7, members=8)
        b = fit_ensemble(friend_kb_m, cfg, TrainConfig(), 7, members=8)
        assert a.to_json() == b.to_json()

    def test_doc_schema(self, friend_ensemble):
        doc = friend_ensemble.to_doc()
        assert set(doc) == {"kb_digest", "config", "members", "reports"}
        assert len(doc["members"]) == len(doc["reports"]) == 32
        assert doc["config"]["dimension"] == 1

    def test_validate_rejects_duplicate_seeds(self, friend_ensemble):
        # Copies of one member answer every query unanimously.
        first, report = friend_ensemble.members[0], friend_ensemble.reports[0]
        message = f"member seed={first.seed} repeats the seed of an earlier member"
        with pytest.raises(ValueError, match=message):
            Ensemble((first,) * 32, friend_ensemble.kb_digest, (report,) * 32)
        doc = friend_ensemble.to_doc()
        doc["members"], doc["reports"] = doc["members"][:1] * 32, doc["reports"][:1] * 32
        with pytest.raises(ValueError, match=message):
            Ensemble.from_json(json.dumps(doc))

    def test_validate_rejects_member_above_eps_fit(self, friend_kb_m, friend_ensemble):
        # The frame holds (the report still says converged); only the
        # store's own triples show that Bob moved away from Joe.
        second = friend_ensemble.members[1]
        moved = Embedding.from_points(
            {**second.entity_points, "Bob": second.entity_point("Bob") + 0.5},
            second.relation_vectors, second.config, second.seed,
        )
        forced = Ensemble(
            members=(friend_ensemble.members[0], moved),
            kb_digest=friend_ensemble.kb_digest,
            reports=friend_ensemble.reports[:2],
        )
        forced.validate()
        with pytest.raises(ValueError, match=f"seed={second.seed} has error .* above eps_fit"):
            forced.validate(friend_kb_m)

    def test_validate_rejects_mismatched_members(self, friend_ensemble):
        first, second = friend_ensemble.members[:2]
        reports = friend_ensemble.reports[:2]
        shrunk = Embedding.from_points(
            {t: p for t, p in second.entity_points.items() if t != "Bob"},
            second.relation_vectors, second.config, second.seed,
        )
        retuned = Embedding.from_points(
            second.entity_points, second.relation_vectors,
            replace(second.config, tau_pos=0.1), second.seed,
        )
        mutants = [
            ((first, shrunk), reports),
            ((first, retuned), reports),
            ((first, second), reports[:1]),
            ((), ()),
        ]
        for members, mutant_reports in mutants:
            with pytest.raises(ValueError):
                Ensemble(members, friend_ensemble.kb_digest, mutant_reports)
        for digest in (None, 5):  # the loader's text, checked before the members
            with pytest.raises(ValueError, match=f"^field 'kb_digest' must be a string, not {digest}$"):
                Ensemble((), digest, ())
        Ensemble((first, second), friend_ensemble.kb_digest, reports).validate()


class TestMemberStack:
    """An ensemble is one read-only ``(M, E+R, d)`` stack; its members are
    its rows."""

    def ensembles(self, ens):
        """``ens`` as fitted, reloaded from its file, and built by hand from
        the reloaded members."""
        loaded = Ensemble.from_json(ens.to_json())
        return [ens, loaded, Ensemble(loaded.members, loaded.kb_digest, loaded.reports)]

    @pytest.mark.parametrize("name", ["friend", "wide"])
    def test_stacks_agree_and_are_read_only(self, request, name):
        kb = request.getfixturevalue(f"{name}_kb_m")
        ens = request.getfixturevalue(f"{name}_ensemble")
        width = len(kb.entities) + len(kb.relations)
        for each in self.ensembles(ens):
            stack = each.term_stack
            assert stack.shape == (len(ens), width, ens.config.dimension)
            assert stack.dtype == np.float64 and stack.tobytes() == ens.term_stack.tobytes()
            assert (each.entity_names, each.relation_names) == (kb.entities, kb.relations)
            assert each.seeds == tuple(r.seed for r in ens.reports)
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 1.0

    @pytest.mark.parametrize("name", ["friend", "wide"])
    def test_members_are_the_stack_rows(self, request, name):
        ens = request.getfixturevalue(f"{name}_ensemble")
        for each in self.ensembles(ens):
            assert len(each.members) == len(each)
            for row, member, seed in zip(each.term_stack, each.members, each.seeds):
                assert member.term_array.tobytes() == row.tobytes()
                assert (member.entity_names, member.relation_names) == (
                    each.entity_names, each.relation_names
                )
                assert (member.config, member.seed) == (each.config, seed)

    def test_pickled_copy_is_rebuilt_and_read_only(self, friend_ensemble):
        for copied in (pickle.loads(pickle.dumps(friend_ensemble)), copy.deepcopy(friend_ensemble)):
            assert copied.to_json() == friend_ensemble.to_json()
            with pytest.raises(ValueError, match="read-only"):
                copied.term_stack[0, 0, 0] = 1.0

    def test_load_query_and_members_build_no_member(self, friend_ensemble, monkeypatch):
        text = friend_ensemble.to_json()
        built = []
        post_init = Embedding.__post_init__

        def counted(member):
            built.append(member.seed)
            post_init(member)

        monkeypatch.setattr(Embedding, "__post_init__", counted)
        ens = Ensemble.from_json(text)
        for q in all_queries(parse_kb(FRIEND_KB_TEXT), include_self_pairs=True):
            query_truth(ens, q)
        assert built == []
        # The members are made once, on first use, as read-only views of the stack.
        assert len(ens.members) == 32 and ens.members is ens.members and built == []
        for member, row in zip(ens.members, ens.term_stack):
            assert np.shares_memory(member.term_array, row) and not member.term_array.flags.writeable
            assert member.entity_array.base is member.relation_array.base

    def test_load_builds_one_config(self, friend_ensemble, monkeypatch):
        # Every member's settings are member 0's, so only member 0's are built.
        built = []
        post_init = EmbeddingConfig.__post_init__
        monkeypatch.setattr(EmbeddingConfig, "__post_init__", lambda c: built.append(post_init(c)))
        Ensemble.from_json(friend_ensemble.to_json())
        assert len(built) == 1

    @pytest.mark.parametrize("name", ["friend", "wide"])
    def test_query_truth_is_the_scalar_count(self, request, name):
        # On the stack of a loaded ensemble, each verdict counts the members
        # whose Embedding.satisfies holds.
        kb = request.getfixturevalue(f"{name}_kb_m")
        ens = Ensemble.from_json(request.getfixturevalue(f"{name}_ensemble").to_json())
        n = len(ens)
        for q in all_queries(kb, include_self_pairs=True):
            for tau in (None, 0.0, 0.5, float("inf")):
                count = sum(m.satisfies(q, tau) for m in ens.members)
                expected = TernaryVerdict.from_fraction(count / n, n)
                assert query_truth(ens, q, tau) == expected, (q, tau)

    @pytest.mark.parametrize("row", [[0.5, 0.25], [[0.5]], [], 0.5])
    def test_ragged_member_is_a_one_line_value_error(self, friend_ensemble, row):
        # The rows of every member are read as one array; a member whose
        # rows do not build on their own names the fault, as it would alone.
        doc = friend_ensemble.to_doc()
        doc["members"][3]["entities"]["Bob"] = row
        with pytest.raises(ValueError) as loaded:
            Ensemble.from_doc(doc)
        with pytest.raises(ValueError) as alone:
            Embedding.from_doc(doc["members"][3])
        assert str(loaded.value) == str(alone.value)
        assert "\n" not in str(loaded.value)

    @pytest.mark.parametrize("block", ["entities", "relations"])
    @pytest.mark.parametrize("value", [[1, 2], [0, 1], [], "x", None])
    def test_block_that_is_not_an_object(self, friend_ensemble, block, value):
        doc = friend_ensemble.to_doc()
        message = f"field {block!r} must be an object"
        for i in (0, 2):
            edited = copy.deepcopy(doc)
            edited["members"][i][block] = value
            with pytest.raises(ValueError, match=message):
                Ensemble.from_doc(edited)
        doc["members"][0][block] = value
        with pytest.raises(ValueError, match=message):
            Embedding.from_doc(doc["members"][0])
