"""Seeded initialization, analytic gradients vs finite differences, guarded
descent, batched descent vs one-member descent, the descent index cached on
a store, the zero-error attainability check, and the dimension search."""

import copy
import gc
import hashlib
import os
import pickle
import re
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kbens import (
    Embedding,
    EmbeddingConfig,
    FitReport,
    KnowledgeBase,
    NoConvergentDimensionError,
    Satisfiability,
    SignedTriple,
    TrainConfig,
    UnsatisfiableStoreError,
    gradients,
    init_embedding,
    min_dimension_search,
    parse_kb,
    satisfiability_oracle,
    train,
    train_members,
    train_with_retries,
)
from kbens import cli, trainer
from kbens.trainer import _Problem, _Stack

from conftest import (
    FRIEND_KB_TEXT,
    FRIEND_UNSAT_KB_TEXT,
    away_from_hinge_kinks,
    cluster_kb,
    forced_unsatisfiable_kb,
    numerical_gradients,
    random_kb,
    random_satisfiable_kb,
)

STORES = Path(__file__).resolve().parent.parent / "tools" / "stores"

# Seeds at the edges of the 64-bit words a start reads them as, and beyond.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, 2**64 + 5]
# Term names: ASCII, non-ASCII, astral-plane, and any other that a store takes.
TERM_NAMES = st.sampled_from(["Alice", "café", "知识", "\U0001f600", "\U0001d518x", "a{b}%c"]) | st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=8
)


class TestInitEmbedding:
    def test_same_inputs_bit_identical(self, friend_kb):
        cfg = EmbeddingConfig(dimension=3)
        tcfg = TrainConfig()
        a = init_embedding(friend_kb, cfg, tcfg, seed=7)
        b = init_embedding(friend_kb, cfg, tcfg, seed=7)
        assert a.to_doc() == b.to_doc()

    def test_permuted_input_lines_bit_identical(self, friend_kb):
        lines = FRIEND_KB_TEXT.strip().split("\n")
        permuted = parse_kb("\n".join(reversed(lines)) + "\n")
        cfg = EmbeddingConfig(dimension=3)
        tcfg = TrainConfig()
        assert (
            init_embedding(friend_kb, cfg, tcfg, 7).to_doc()
            == init_embedding(permuted, cfg, tcfg, 7).to_doc()
        )

    def test_neighboring_seeds_differ(self, friend_kb):
        cfg = EmbeddingConfig(dimension=2)
        tcfg = TrainConfig()
        a = init_embedding(friend_kb, cfg, tcfg, seed=7)
        b = init_embedding(friend_kb, cfg, tcfg, seed=8)
        assert a.to_doc() != b.to_doc()

    def test_coordinates_within_init_scale(self, friend_kb):
        tcfg = TrainConfig(init_scale=0.25)
        e = init_embedding(friend_kb, EmbeddingConfig(dimension=4), tcfg, 3)
        assert np.all(np.abs(e.entity_array) <= 0.25)
        assert np.all(np.abs(e.relation_array) <= 0.25)


    def test_init_scale_up_to_a_finite_span(self, friend_kb):
        widest = np.finfo(float).max / 2
        e = init_embedding(friend_kb, EmbeddingConfig(dimension=3), TrainConfig(init_scale=widest), 7)
        assert np.all(np.abs(e.entity_array) <= widest)
        for scale in (np.nextafter(widest, np.inf), np.inf, np.nan, 0.0):
            with pytest.raises(ValueError, match="init_scale"):
                TrainConfig(init_scale=scale)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1),
        names=st.lists(TERM_NAMES, min_size=2, max_size=6, unique=True),
        d=st.integers(1, 4),
        scale=st.sampled_from([1e-300, 1.0, 5e307]),
    )
    def test_draws_the_list_form_stream_of_every_term(self, seed, names, d, scale):
        # The last name is the relation; a fresh store holds no cached keys.
        assume(not names[-1].startswith(("#", "\ufeff")))
        kb = KnowledgeBase((), tuple(names[:-1]), (names[-1],))
        start = init_embedding(kb, EmbeddingConfig(dimension=d), TrainConfig(init_scale=scale), seed)
        keys = [int.from_bytes(hashlib.sha256(t.encode("utf-8")).digest()[:8], "big")
                for t in kb.entities + kb.relations]
        streams = [np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), key]))
                   for key in keys]
        expected = np.array([rng.uniform(-scale, scale, d) for rng in streams])
        assert start.term_array.tobytes() == expected.tobytes()
        reference = [trainer.term_rng(seed, t).uniform(-scale, scale, d)
                     for t in kb.entities + kb.relations]
        assert start.term_array.tobytes() == np.array(reference).tobytes()

    @pytest.mark.parametrize("n, words", [
        (0, [0]), (2**32 - 1, [2**32 - 1]), (2**32, [0, 1]), (2**64 - 1, [2**32 - 1] * 2),
        (0x9E3779B9, [0x9E3779B9]),  # a key whose high word is zero
        (0x9E3779B9 << 32, [0, 0x9E3779B9]),
    ])
    def test_entropy_words_are_numpys_split_of_an_int(self, n, words):
        # An int and the words after it feed SeedSequence's pool in order, so
        # a word too many or too few before the marker changes the pool.
        assert trainer._uint32_words(n) == words
        marker = 0x5EED

        def pool(entropy):
            return np.random.SeedSequence(entropy).pool.tolist()

        assert pool([n, marker]) == pool(np.array(words + [marker], dtype=np.uint32))
        assert pool([n, marker]) != pool(np.array(words + [0, marker], dtype=np.uint32))
        assert pool([n, marker]) != pool(np.array(words[:-1] + [marker], dtype=np.uint32))

    @pytest.mark.parametrize("seed", [0, 5, 2**32, 2**64 - 1, -1])
    def test_keys_of_every_word_count_draw_the_list_form_stream(self, monkeypatch, seed):
        # No fixture name's key has a zero high word, so keys are set here:
        # one, two and one zero word, on a store built after the change.
        keys = {"a": 0x9E3779B9, "b": 2**64 - 1, "c": 0, "r": 2**32, "s": 1 << 63}
        monkeypatch.setattr(trainer, "_term_key", keys.__getitem__)
        kb = KnowledgeBase((), ("a", "b", "c"), ("r", "s"))
        start = init_embedding(kb, EmbeddingConfig(dimension=2), TrainConfig(), seed)
        expected = [np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), keys[t]]))
                    .uniform(-1.0, 1.0, 2) for t in kb.entities + kb.relations]
        assert start.term_array.tobytes() == np.array(expected).tobytes()
        assert _Problem.of(kb).key_words.tolist() == [
            [keys[t] & 0xFFFFFFFF, keys[t] >> 32] for t in kb.entities + kb.relations
        ]


class TestGradients:
    def test_zero_at_global_minimum(self, friend_kb):
        cfg = EmbeddingConfig(dimension=2, tau_pos=0.1, gamma=0.5)
        e = Embedding.from_points(
            {
                "Joe": (1.0, 0.0),
                "Bob": (0.0, 0.0),
                "Alice": (1.0, 1.0),
                "John": (0.0, 1.0),
                "Mary": (3.0, 3.0),
            },
            {"friend": (1.0, 0.0)},
            cfg,
        )
        assert e.cumulative_error(friend_kb) == 0.0
        for term, grad in gradients(e, friend_kb).items():
            assert np.array_equal(grad, np.zeros(2)), term

    def test_single_positive_triple(self):
        kb = KnowledgeBase.from_triples([SignedTriple("r", "a", "b", True)])
        e = Embedding.from_points(
            {"a": (1.0, 0.0), "b": (0.0, 0.0)},
            {"r": (0.0, 0.0)},
            EmbeddingConfig(dimension=2),
        )
        g = gradients(e, kb)
        assert np.array_equal(g["a"], [2.0, 0.0])
        assert np.array_equal(g["b"], [-2.0, 0.0])
        assert np.array_equal(g["r"], [-2.0, 0.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            kb = random_kb(rng, max_entities=6, max_triples=8)
            n = int(rng.integers(1, 5))
            cfg = EmbeddingConfig(dimension=n, tau_pos=0.5, gamma=1.0)
            e = Embedding.from_points(
                {t: rng.uniform(-2, 2, n) for t in kb.entities},
                {t: rng.uniform(-2, 2, n) for t in kb.relations},
                cfg,
                seed=int(rng.integers(1 << 32)),
            )
            if not away_from_hinge_kinks(e, kb):
                continue
            checked += 1
            analytic = gradients(e, kb)
            numeric = numerical_gradients(e, kb)
            for term in analytic:
                scale = max(np.linalg.norm(numeric[term]), 1.0)
                np.testing.assert_allclose(
                    analytic[term], numeric[term], atol=1e-5 * scale,
                    err_msg=f"gradient mismatch on {term}",
                )

    def test_kink_subgradient_is_deterministic_unit_push(self):
        kb = KnowledgeBase.from_triples([SignedTriple("r", "a", "b", False)])
        cfg = EmbeddingConfig(dimension=3, gamma=1.0, tau_pos=0.5)
        g5, again, g6 = (
            gradients(
                Embedding.from_points(
                    {"a": (1.0, 2.0, 3.0), "b": (1.0, 2.0, 3.0)},
                    {"r": (0.0, 0.0, 0.0)},
                    cfg,
                    seed=seed,
                ),
                kb,
            )
            for seed in (5, 5, 6)
        )
        # magnitude 2 * gamma along the first axis, whatever the seed
        np.testing.assert_array_equal(g5["a"], [-2.0 * cfg.gamma, 0.0, 0.0])
        np.testing.assert_allclose(g5["b"], -g5["a"], atol=0)
        np.testing.assert_allclose(g5["r"], -g5["a"], atol=0)
        for g in (again, g6):
            assert {t: v.tobytes() for t, v in g.items()} == {t: v.tobytes() for t, v in g5.items()}

    @pytest.mark.parametrize("positive", [False, True])
    def test_overflowing_residual_warns_nothing(self, positive):
        # x - y overflows to +inf: a negative fact that far out is exactly
        # outside its hinge, a positive one pulls with 2 * eps = +-inf, and
        # numpy warns of neither (the suite turns a RuntimeWarning into an error).
        kb = KnowledgeBase.from_triples([SignedTriple("r", "x", "y", positive)])
        e = Embedding.from_points(
            {"x": (1e308,), "y": (-1e308,)}, {"r": (0.0,)}, EmbeddingConfig(dimension=1)
        )
        pull = np.inf if positive else 0.0
        g = gradients(e, kb)
        assert {t: v.tolist() for t, v in g.items()} == {"x": [pull], "y": [-pull], "r": [-pull]}

    def test_vocabulary_mismatch_rejected(self, friend_kb):
        cfg = EmbeddingConfig(dimension=1)
        e = init_embedding(friend_kb, cfg, TrainConfig(), 7)
        missing = Embedding.from_points(
            {t: p for t, p in e.entity_points.items() if t != "Mary"}, e.relation_vectors, cfg
        )
        extra = Embedding.from_points(
            {**e.entity_points, "Zed": (0.0,)}, e.relation_vectors, cfg
        )
        for probe in (missing, extra):
            with pytest.raises(ValueError):
                gradients(probe, friend_kb)


class TestTrain:
    def test_friend_kb_converges(self, friend_kb):
        cfg = EmbeddingConfig(dimension=5)
        emb, report = train(friend_kb, cfg, TrainConfig(), seed=7)
        assert report.converged
        assert report.final_error <= 1e-4
        assert emb.cumulative_error(friend_kb) == pytest.approx(report.final_error)
        # the instance is genuinely solvable, per the independent linear check
        assert satisfiability_oracle(friend_kb, 5).status is Satisfiability.SATISFIABLE

    def test_empty_kb_converges_immediately(self):
        emb, report = train(parse_kb(""), EmbeddingConfig(dimension=1), TrainConfig(), 1)
        assert report.converged and report.epochs_used == 0 and report.final_error == 0.0

    def test_unsatisfiable_kb_never_converges(self):
        kb = KnowledgeBase.from_triples(
            [
                SignedTriple("r", "a", "b", True),
                SignedTriple("r", "b", "a", True),
                SignedTriple("r", "c", "d", True),
                SignedTriple("r", "d", "c", False),
            ]
        )
        assert satisfiability_oracle(kb, 4).status is Satisfiability.UNSATISFIABLE
        for n in (1, 4):
            _, report = train(kb, EmbeddingConfig(dimension=n), TrainConfig(), seed=3)
            assert not report.converged
            assert report.final_error > 1e-4

    def test_deterministic_given_inputs(self, friend_kb):
        cfg = EmbeddingConfig(dimension=2)
        a, ra = train(friend_kb, cfg, TrainConfig(), seed=11)
        b, rb = train(friend_kb, cfg, TrainConfig(), seed=11)
        assert a.to_doc() == b.to_doc()
        assert ra == rb

    def test_report_converged_flag_matches_threshold(self, friend_kb):
        cfg = EmbeddingConfig(dimension=2)
        _, report = train(friend_kb, cfg, TrainConfig(max_epochs=2), seed=1)
        assert report.converged == (report.final_error <= cfg.eps_fit)

    def test_small_steps_never_increase_error(self):
        # Plain unguarded steps at a small rate, checked against the public
        # loss; this probes the descent direction, not the train() guard.
        rng = np.random.default_rng(5)
        for _ in range(10):
            kb = random_kb(rng, max_entities=5, max_triples=6)
            cfg = EmbeddingConfig(dimension=3)
            e = init_embedding(kb, cfg, TrainConfig(), int(rng.integers(1 << 16)))
            ents = {t: np.array(p) for t, p in e.entity_points.items()}
            rels = {t: np.array(v) for t, v in e.relation_vectors.items()}
            last = e.cumulative_error(kb)
            for _ in range(40):
                probe = Embedding.from_points(ents, rels, cfg, e.seed)
                g = gradients(probe, kb)
                for t in ents:
                    ents[t] = ents[t] - 1e-3 * g[t]
                for t in rels:
                    rels[t] = rels[t] - 1e-3 * g[t]
                err = Embedding.from_points(ents, rels, cfg, e.seed).cumulative_error(kb)
                assert err <= last + 1e-12
                last = err


    def test_store_naming_terms_outside_its_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeBase(
                triples=(SignedTriple("r", "a", "b", True),), entities=("a",), relations=("r",)
            )

    def test_non_finite_steps_are_rejected(self, friend_kb):
        # Coordinates near 1e154 square to near the float limit, so the first
        # steps at this rate overflow; they must be rejected, not accepted.
        tcfg = TrainConfig(init_scale=1e154, learning_rate=1e10)
        emb, report = train(friend_kb, EmbeddingConfig(dimension=2), tcfg, seed=7)
        assert np.isfinite(report.final_error)
        assert np.all(np.isfinite(emb.entity_array))
        assert np.all(np.isfinite(emb.relation_array))
        assert emb.cumulative_error(friend_kb) == pytest.approx(report.final_error)

    def test_step_divides_each_gradient_by_its_incidence(self):
        # a is in r(a, a) twice, and in r(a, b) and s(c, a): four incidences.
        # The isolated z is in no triple, so its zero gradient stays a zero step.
        kb = KnowledgeBase(
            (
                SignedTriple("r", "a", "a", True),
                SignedTriple("r", "a", "b", True),
                SignedTriple("s", "c", "a", True),
                SignedTriple("s", "b", "c", False),
            ),
            ("a", "b", "c", "z"),
            ("r", "s"),
        )
        cfg = EmbeddingConfig(dimension=2)
        tcfg = TrainConfig(max_epochs=1)
        start = init_embedding(kb, cfg, tcfg, seed=3)
        g = gradients(start, kb)
        counts = {t: sum((x.subject == t) + (x.object == t) for x in kb.triples) for t in kb.entities}
        counts.update({t: sum(x.relation == t for x in kb.triples) for t in kb.relations})
        assert (counts["a"], counts["b"], counts["z"], counts["r"]) == (4, 2, 0, 2)
        lr = tcfg.learning_rate
        fitted, report = train(kb, cfg, tcfg, seed=3)
        assert report.epochs_used == 1
        assert report.final_error < start.cumulative_error(kb)  # the step was accepted
        for now, before in ((fitted.entity_points, start.entity_points),
                            (fitted.relation_vectors, start.relation_vectors)):
            for t, x in before.items():
                assert now[t].tobytes() == (x - lr * (g[t] / max(counts[t], 1))).tobytes(), t


class TestClusterStore:
    def test_150_entities_converge_at_dimension_2(self):
        # Two relations shared by 150 entities carry far more curvature than
        # any entity; with each step divided by term incidence, the default
        # rate and epoch budget fit every seed (about 700 epochs each).
        kb = cluster_kb(np.random.default_rng(1), 30)
        assert (len(kb.entities), len(kb.relations), len(kb.triples)) == (150, 2, 180)
        fits = train_members(kb, EmbeddingConfig(dimension=2), TrainConfig(), range(1, 9))
        assert [report.converged for _, report in fits] == [True] * 8


class TestTrainWithRetries:
    def test_returns_first_converged_attempt(self, friend_kb):
        cfg = EmbeddingConfig(dimension=2)
        emb, report = train_with_retries(friend_kb, cfg, TrainConfig(), seed=7)
        assert report.converged
        assert report.seed in {7 ^ i for i in range(4)}

    def test_zero_budget_still_trains_once(self, friend_kb):
        cfg = EmbeddingConfig(dimension=3)
        _, report = train_with_retries(
            friend_kb, cfg, TrainConfig(retry_budget=0), seed=7
        )
        assert report.seed == 7


def reference_loss_and_grads(kb, e):
    """One member's loss and gradients, one triple group at a time with
    np.add.at: the order of summation the batched loss must reproduce."""
    subjects, objects, relations, positive = kb.triple_index
    points, vectors, gamma = e.entity_array, e.relation_array, e.config.gamma
    g_points, g_vectors = np.zeros_like(points), np.zeros_like(vectors)
    total = 0.0
    ps, po, pr = subjects[positive], objects[positive], relations[positive]
    ns, no, nr = subjects[~positive], objects[~positive], relations[~positive]
    if ps.size:
        eps = points[ps] - points[po] - vectors[pr]
        total += float(np.sum(eps * eps))
        np.add.at(g_points, ps, 2.0 * eps)
        np.add.at(g_points, po, -2.0 * eps)
        np.add.at(g_vectors, pr, -2.0 * eps)
    if ns.size:
        eps = points[ns] - points[no] - vectors[nr]
        norms = np.sqrt(np.sum(eps * eps, axis=1))
        active = norms < gamma
        if np.any(active):
            gaps = gamma - norms[active]
            total += float(np.sum(gaps * gaps))
            unit = np.where(
                (norms[active] > 0.0)[:, None],
                eps[active] / np.maximum(norms[active], 1e-300)[:, None],
                np.eye(1, e.dimension),
            )
            contrib = -2.0 * gaps[:, None] * unit
            np.add.at(g_points, ns[active], contrib)
            np.add.at(g_points, no[active], -contrib)
            np.add.at(g_vectors, nr[active], -contrib)
    return total, g_points, g_vectors


def reference_descend(kb, cfg, tcfg, seed):
    """One member trained with plain numpy: ``reference_loss_and_grads`` each
    epoch, a step of rate * g / c (c the number of triples the term is in,
    at least 1), the rate halved on a rejected or non-finite step; stops on
    convergence, at the epoch budget or when the rate underflows.  Returns
    the points, the vectors and the report."""
    subjects, objects, relations, _ = kb.triple_index
    point_counts = np.bincount(np.concatenate([subjects, objects]), minlength=len(kb.entities))
    vector_counts = np.bincount(relations, minlength=len(kb.relations))
    point_counts, vector_counts = (np.maximum(c, 1)[:, None] for c in (point_counts, vector_counts))
    start = init_embedding(kb, cfg, tcfg, seed)

    def evaluate(points, vectors):
        # A namespace, not an Embedding: a rejected step may hold inf or NaN.
        member = SimpleNamespace(
            entity_array=points, relation_array=vectors, config=cfg, dimension=cfg.dimension
        )
        return reference_loss_and_grads(kb, member)

    points, vectors, rate, epoch = start.entity_array, start.relation_array, tcfg.learning_rate, 0
    with np.errstate(over="ignore", invalid="ignore"):
        err, g_points, g_vectors = evaluate(points, vectors)
        while epoch < tcfg.max_epochs and err > cfg.eps_fit:
            epoch += 1
            new_points = points - rate * (g_points / point_counts)
            new_vectors = vectors - rate * (g_vectors / vector_counts)
            new_err, new_gp, new_gv = evaluate(new_points, new_vectors)
            if new_err <= err and np.isfinite(new_err):
                points, vectors, err, g_points, g_vectors = (
                    new_points, new_vectors, new_err, new_gp, new_gv
                )
                continue
            rate *= 0.5
            if rate < trainer._MIN_LEARNING_RATE:
                break
    report = FitReport(
        final_error=float(err), epochs_used=epoch, converged=bool(err <= cfg.eps_fit), seed=seed
    )
    return points, vectors, report


def assert_same_fit(a, b):
    (ea, ra), (eb, rb) = a, b
    assert ea.entity_array.tobytes() == eb.entity_array.tobytes()
    assert ea.relation_array.tobytes() == eb.relation_array.tobytes()
    assert (ea.entity_names, ea.relation_names) == (eb.entity_names, eb.relation_names)
    assert ea.seed == eb.seed
    # repr tells every float apart and reads the same for two NaNs.
    assert repr(ra) == repr(rb)


@st.composite
def signed_stores(draw, max_negatives=12):
    """Stores with up to ``max_negatives`` negatives over few entities, so
    more than 8 hinges can be active at once; empty and negative-only stores
    included."""
    n_ent, n_rel = draw(st.integers(1, 5)), draw(st.integers(1, 2))
    key = st.tuples(st.integers(0, n_rel - 1), st.integers(0, n_ent - 1), st.integers(0, n_ent - 1))
    negatives = draw(st.lists(key, max_size=max_negatives, unique=True))
    positives = draw(st.lists(key.filter(lambda k: k not in negatives), max_size=10, unique=True))
    return KnowledgeBase.from_triples(
        [SignedTriple(f"r{r}", f"e{s}", f"e{o}", False) for r, s, o in negatives]
        + [SignedTriple(f"r{r}", f"e{s}", f"e{o}", True) for r, s, o in positives]
    )


# Huge scales and rates force rejected steps, non-finite steps and rate
# underflow (57 halvings from 0.1); small epoch budgets stop members in the
# middle of a batch.
TRAIN_CONFIGS = st.builds(
    TrainConfig,
    learning_rate=st.sampled_from([0.1, 0.5, 1e10]),
    max_epochs=st.integers(1, 120),
    init_scale=st.sampled_from([1.0, 3.0, 1e154, 2e154, 1e200]),
    retry_budget=st.integers(0, 3),
)

# Grid values give residuals exactly at the kink (zero) and at the margin.
COORDINATES = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0))


class TestBatchedDescent:
    @settings(max_examples=150, deadline=None)
    @given(
        kb=signed_stores(),
        d=st.integers(1, 4),
        tcfg=TRAIN_CONFIGS,
        seeds=st.lists(st.integers(0, 1 << 40), min_size=1, max_size=5),
    )
    def test_every_member_equals_its_one_seed_fit(self, kb, d, tcfg, seeds):
        cfg = EmbeddingConfig(dimension=d)
        batch = train_members(kb, cfg, tcfg, seeds)
        assert len(batch) == len(seeds)
        for seed, fit in zip(seeds, batch):
            assert_same_fit(fit, train(kb, cfg, tcfg, seed))

    @settings(max_examples=200, deadline=None)
    @given(kb=signed_stores(max_negatives=24), d=st.integers(1, 4), data=st.data())
    def test_batched_loss_equals_one_group_at_a_time(self, kb, d, data):
        m = data.draw(st.integers(1, 4))
        points = data.draw(arrays(np.float64, (m, len(kb.entities), d), elements=COORDINATES))
        vectors = data.draw(arrays(np.float64, (m, len(kb.relations), d), elements=COORDINATES))
        cfg = EmbeddingConfig(dimension=d)
        totals, grads = _Stack(kb).loss_and_grads(
            np.concatenate([points, vectors], axis=1), cfg.gamma
        )
        g_points, g_vectors = grads[:, : len(kb.entities)], grads[:, len(kb.entities) :]
        for i in range(m):
            e = Embedding(kb.entities, kb.relations, points[i], vectors[i], cfg, i)
            total, gp, gv = reference_loss_and_grads(kb, e)
            assert totals[i] == total
            assert g_points[i].tobytes() == gp.tobytes()
            assert g_vectors[i].tobytes() == gv.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(kb=signed_stores(max_negatives=24), d=st.integers(1, 4), data=st.data())
    def test_public_gradients_equal_one_group_at_a_time(self, kb, d, data):
        points = data.draw(arrays(np.float64, (len(kb.entities), d), elements=COORDINATES))
        vectors = data.draw(arrays(np.float64, (len(kb.relations), d), elements=COORDINATES))
        e = Embedding(kb.entities, kb.relations, points, vectors, EmbeddingConfig(dimension=d), 0)
        _, g_points, g_vectors = reference_loss_and_grads(kb, e)
        expected = dict(zip(kb.entities + kb.relations, [*g_points, *g_vectors]))
        got = gradients(e, kb)
        assert list(got) == list(expected)
        assert {t: g.tobytes() for t, g in got.items()} == {
            t: g.tobytes() for t, g in expected.items()
        }

    def test_more_than_eight_active_hinges(self):
        # Every ordered pair of four entities denied: twelve negatives, of
        # which more than eight, but not all, are inside the margin.
        kb = KnowledgeBase.from_triples(
            [
                SignedTriple("r", f"e{s}", f"e{o}", False)
                for s in range(4) for o in range(4) if s != o
            ]
        )
        cfg = EmbeddingConfig(dimension=2)
        tcfg = TrainConfig(init_scale=0.5, max_epochs=40)
        seeds = list(range(1, 9))
        members = [init_embedding(kb, cfg, tcfg, s) for s in seeds]
        totals, _ = _Stack(kb).loss_and_grads(
            np.array([np.concatenate([e.entity_array, e.relation_array]) for e in members]),
            cfg.gamma,
        )
        active = [
            sum(np.linalg.norm(e.residual(t)) < cfg.gamma for t in kb.triples) for e in members
        ]
        assert any(8 < a < 12 for a in active)
        for total, e in zip(totals, members):
            assert total == reference_loss_and_grads(kb, e)[0]
        for seed, fit in zip(seeds, train_members(kb, cfg, tcfg, seeds)):
            assert_same_fit(fit, train(kb, cfg, tcfg, seed))

    @pytest.mark.parametrize(
        "last_seed, epochs, converged",
        [
            (6, [59, 52, 53, 120, 120, 55], [False, True, True, False, False, True]),
            (4, [59, 52, 53, 120], [False, True, True, False]),
        ],
        ids=["seeds-1-6", "seeds-1-4"],
    )
    def test_members_leave_the_batch_at_different_epochs(
        self, friend_kb, last_seed, epochs, converged
    ):
        # At this scale seed 1 starts with an infinite error, so every step is
        # rejected until its rate underflows (epoch 59); seeds 2, 3 and 6
        # converge at epochs 52, 53 and 55; seeds 4 and 5 run out of epochs.
        # Of seeds 1 to 4, seed 4 runs epochs 60 to 120 as the batch's last member.
        cfg = EmbeddingConfig(dimension=1)
        tcfg = TrainConfig(init_scale=2e154, max_epochs=120)
        seeds = list(range(1, last_seed + 1))
        batch = train_members(friend_kb, cfg, tcfg, seeds)
        assert [r.epochs_used for _, r in batch] == epochs
        assert [r.converged for _, r in batch] == converged
        for seed, fit in zip(seeds, batch):
            assert_same_fit(fit, train(friend_kb, cfg, tcfg, seed))

    @pytest.mark.parametrize("text", ["", "r\ta\tb\t-\nr\tb\ta\t-\n"])
    def test_empty_and_negative_only_stores(self, text):
        kb = parse_kb(text)
        cfg = EmbeddingConfig(dimension=2)
        tcfg = TrainConfig(max_epochs=30)
        for seed, fit in zip([1, 2], train_members(kb, cfg, tcfg, [1, 2])):
            assert_same_fit(fit, train(kb, cfg, tcfg, seed))

    def test_no_seeds(self, friend_kb):
        assert train_members(friend_kb, EmbeddingConfig(dimension=1), TrainConfig(), []) == []


class TestLossMasks:
    """The masks the batched loss keeps each member's bytes with, against
    ``reference_loss_and_grads`` byte for byte: the push along the first
    axis only in rows exactly at a kink, and an inactive negative adding
    exactly 0.0 even where its residual overflowed."""

    # c - d - r is the kink member's zero residual; x and y appear only in a
    # negative, so the positives stay finite when x - y overflows.
    KB = parse_kb(
        "r\ta\tb\t+\ns\tb\tc\t+\nr\tc\td\t-\ns\ta\td\t-\nr\tx\ty\t-\n"
    )

    def member(self, kink, overflow, seed):
        # Eighths, so that the kink's residual is exactly 0.0.
        rng = np.random.default_rng(seed)
        terms = rng.integers(-8, 9, size=(len(self.KB.entities) + len(self.KB.relations), 2)) / 8.0
        rows = {t: i for i, t in enumerate(self.KB.entities + self.KB.relations)}
        if kink:
            terms[rows["c"]] = terms[rows["d"]] + terms[rows["r"]]
        if overflow:
            terms[rows["x"]], terms[rows["y"]] = 1e308, -1e308
        return terms

    def assert_matches_reference(self, terms):
        n, cfg = len(self.KB.entities), EmbeddingConfig(dimension=terms.shape[2])
        with np.errstate(over="ignore", invalid="ignore"):
            totals, grads = _Stack(self.KB).loss_and_grads(terms, cfg.gamma)
            for i, t in enumerate(terms):
                # A namespace, not an Embedding: x - y may overflow.
                member = SimpleNamespace(
                    entity_array=t[:n], relation_array=t[n:], config=cfg, dimension=cfg.dimension
                )
                total, gp, gv = reference_loss_and_grads(self.KB, member)
                assert totals[i] == total
                assert grads[i, :n].tobytes() == gp.tobytes()
                assert grads[i, n:].tobytes() == gv.tobytes()
        return totals, grads

    @pytest.mark.parametrize("kinks", [[True], [True, False, True], [False, True, False, False]])
    def test_kinks_in_some_members(self, kinks):
        terms = np.array([self.member(k, False, seed) for seed, k in enumerate(kinks)])
        rows = [(self.KB.entities + self.KB.relations).index(t) for t in "cdr"]
        residuals = terms[:, rows[0]] - terms[:, rows[1]] - terms[:, rows[2]]
        assert [not r.any() for r in residuals] == kinks
        self.assert_matches_reference(terms)

    @pytest.mark.parametrize("overflows", [[True], [False, True], [True, False, True]])
    def test_an_overflowing_inactive_negative_adds_exactly_zero(self, overflows):
        # Member 1 also sits at the kink, so both masks act in one batch.
        terms = np.array([self.member(seed == 1, o, seed) for seed, o in enumerate(overflows)])
        totals, grads = self.assert_matches_reference(terms)
        x, y = self.KB.entities.index("x"), self.KB.entities.index("y")
        for o, total, g in zip(overflows, totals, grads):
            assert np.isfinite(total) and np.isfinite(g).all()
            if o:
                assert g[x].tobytes() == g[y].tobytes() == np.zeros(2).tobytes()


class TestDescentRule:
    @settings(max_examples=150, deadline=None)
    @given(
        kb=signed_stores(),
        d=st.integers(1, 4),
        tcfg=TRAIN_CONFIGS.filter(lambda t: t.max_epochs <= 60),
        seed=st.integers(0, 1 << 40),
    )
    # Seed 1 starts with an infinite error at this scale: every step is
    # rejected until the rate underflows at epoch 59.
    @example(
        kb=parse_kb(FRIEND_KB_TEXT), d=1, tcfg=TrainConfig(init_scale=2e154, max_epochs=60), seed=1
    )
    def test_train_equals_the_one_member_reference(self, kb, d, tcfg, seed):
        cfg = EmbeddingConfig(dimension=d)
        fitted, report = train(kb, cfg, tcfg, seed)
        points, vectors, expected = reference_descend(kb, cfg, tcfg, seed)
        assert fitted.entity_array.tobytes() == points.tobytes()
        assert fitted.relation_array.tobytes() == vectors.tobytes()
        assert repr(report) == repr(expected)


def sequential_retries(kb, cfg, tcfg, seed):
    """Attempts one after another, the first converged one returned."""
    for attempt in range(tcfg.retry_budget + 1):
        fit = train(kb, cfg, tcfg, seed ^ attempt)
        if fit[1].converged:
            return fit
    return fit


class TestRetriesEqualSequentialAttempts:
    @pytest.mark.parametrize(
        "dimension, max_epochs, seed, attempt",
        [
            (2, 5000, 7, 0),  # attempt 0 converges
            (1, 8, 18, 3),  # only the last attempt converges
            (2, 8, 16, 1),  # attempts 1 and 2 converge; 1 is returned
        ],
    )
    def test_converging_attempt(self, friend_kb, dimension, max_epochs, seed, attempt):
        cfg = EmbeddingConfig(dimension=dimension)
        tcfg = TrainConfig(max_epochs=max_epochs)
        fit = train_with_retries(friend_kb, cfg, tcfg, seed)
        assert fit[1].converged and fit[1].seed == seed ^ attempt
        assert_same_fit(fit, sequential_retries(friend_kb, cfg, tcfg, seed))

    def test_none_converge_returns_last_attempt(self):
        kb = KnowledgeBase.from_triples(
            [
                SignedTriple("r", "a", "b", True),
                SignedTriple("r", "b", "a", True),
                SignedTriple("r", "c", "d", True),
                SignedTriple("r", "d", "c", False),
            ]
        )
        cfg = EmbeddingConfig(dimension=2)
        tcfg = TrainConfig(max_epochs=200)
        fit = train_with_retries(kb, cfg, tcfg, 5)
        assert not fit[1].converged and fit[1].seed == 5 ^ 3
        assert_same_fit(fit, sequential_retries(kb, cfg, tcfg, 5))


class TestSatisfiabilityOracle:
    def test_friend_kb_satisfiable_with_valid_certificate(self, friend_kb):
        result = satisfiability_oracle(friend_kb, 2)
        assert result.status is Satisfiability.SATISFIABLE
        cert = result.certificate
        assert cert.cumulative_error(friend_kb) <= 1e-16
        for t in friend_kb.triples:
            if not t.positive:
                assert np.linalg.norm(cert.residual(t)) >= cert.config.gamma

    def test_forced_reversal_unsatisfiable(self):
        kb = KnowledgeBase.from_triples(
            [
                SignedTriple("r", "a", "b", True),
                SignedTriple("r", "b", "a", True),
                SignedTriple("r", "c", "d", True),
                SignedTriple("r", "d", "c", False),
            ]
        )
        for n in (1, 2, 7):
            assert satisfiability_oracle(kb, n).status is Satisfiability.UNSATISFIABLE

    def test_empty_kb_trivial_certificate(self):
        result = satisfiability_oracle(parse_kb(""), 3)
        assert result.status is Satisfiability.SATISFIABLE
        assert result.certificate.cumulative_error(parse_kb("")) == 0.0

    def test_constructed_unsat_families(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            kb = forced_unsatisfiable_kb(rng)
            assert satisfiability_oracle(kb, len(kb.entities)).status is Satisfiability.UNSATISFIABLE

    def test_positive_only_kb_satisfiable(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            kb = random_kb(rng, negative_rate=0.0)
            if any(not t.positive for t in kb.triples):
                continue
            assert satisfiability_oracle(kb, 1).status is Satisfiability.SATISFIABLE

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_stores_without_negatives_get_the_zero_certificate(self, dimension, gamma):
        rng = np.random.default_rng(31)
        stores = [parse_kb(""), parse_kb(FRIEND_KB_TEXT)] + [random_kb(rng) for _ in range(20)]
        for kb in stores:
            kb = KnowledgeBase.from_triples([t for t in kb.triples if t.positive])
            result = satisfiability_oracle(kb, dimension, gamma)
            assert result.status is Satisfiability.SATISFIABLE
            assert (result.error_floor, result.pinned) == (0.0, None)
            cert = result.certificate
            assert cert.cumulative_error(kb) == 0.0
            for array in (cert.entity_array, cert.relation_array):
                assert array.tobytes() == np.zeros_like(array).tobytes()  # +0.0 throughout

    def test_draw_on_a_functional_zero_is_inconclusive(self, friend_kb, monkeypatch):
        # Stand in for the measure-zero draw on which a negative's residual
        # functional vanishes.
        monkeypatch.setattr(np.random, "default_rng", lambda seed: SimpleNamespace(
            normal=lambda size: np.zeros(size)
        ))
        result = satisfiability_oracle(friend_kb, 2)
        assert result.status is Satisfiability.INCONCLUSIVE
        assert (result.certificate, result.error_floor, result.pinned) == (None, 0.0, None)


def contradicted(kb):
    """``kb`` plus a self-loop ``r(x, x)+`` and the reverse ``r(b, a)-`` of
    its first asserted ``r(a, b)+`` that allows both, or None."""
    asserted = {t.key for t in kb.triples}
    for t in kb.triples:
        if not t.positive or t.subject == t.object or (t.relation, t.object, t.subject) in asserted:
            continue
        loops = [e for e in kb.entities if (t.relation, e, e) not in asserted]
        if loops:
            return KnowledgeBase.from_triples(kb.triples + (
                SignedTriple(t.relation, loops[0], loops[0], True),
                SignedTriple(t.relation, t.object, t.subject, False),
            ))
    return None


def unsatisfiable_stores():
    rng = np.random.default_rng(13)
    stores = [forced_unsatisfiable_kb(rng) for _ in range(20)]
    rng = np.random.default_rng(5)
    while len(stores) < 40:
        kb = contradicted(random_satisfiable_kb(rng))
        if kb is not None:
            stores.append(kb)
    return stores


def reference_floor(kb, gamma):
    """Largest gamma^2 / (1 + ||c||^2) over the negatives n that are exact
    combinations n = sum_i c_i p_i of the positive rows, with c the lstsq
    min-norm multipliers; rows built term by term."""
    terms = {t: i for i, t in enumerate(kb.entities + kb.relations)}

    def row(t):
        r = np.zeros(len(terms))
        r[terms[t.subject]] += 1.0
        r[terms[t.object]] -= 1.0
        r[terms[t.relation]] -= 1.0
        return r

    positives = np.array([row(t) for t in kb.triples if t.positive])
    floors = []
    for t in kb.triples:
        if not t.positive:
            c = np.linalg.lstsq(positives.T, row(t), rcond=None)[0]
            if np.linalg.norm(positives.T @ c - row(t)) < 1e-9:
                floors.append(gamma * gamma / (1.0 + c @ c))
    return max(floors)


UNSATISFIABLE_STORES = unsatisfiable_stores()


class TestErrorFloor:
    def test_friend_store_with_a_contradiction(self):
        result = satisfiability_oracle(parse_kb(FRIEND_UNSAT_KB_TEXT), 1)
        assert result.status is Satisfiability.UNSATISFIABLE
        assert result.pinned == SignedTriple("friend", "Bob", "Joe", False)
        assert result.error_floor == pytest.approx(1 / 6, rel=1e-12)

    def test_matches_min_norm_reference(self):
        for kb in UNSATISFIABLE_STORES:
            result = satisfiability_oracle(kb, 2)
            assert result.status is Satisfiability.UNSATISFIABLE
            assert result.error_floor == pytest.approx(reference_floor(kb, 1.0), rel=1e-12)
            assert result.pinned in kb.triples and not result.pinned.positive

    @pytest.mark.parametrize("gamma", [0.25, 2.0, 3.0])
    def test_scales_as_gamma_squared(self, gamma):
        for kb in UNSATISFIABLE_STORES[::4]:
            unit, scaled = satisfiability_oracle(kb, 1), satisfiability_oracle(kb, 1, gamma)
            assert scaled.error_floor == pytest.approx(unit.error_floor * gamma**2, rel=1e-12)
            assert scaled.pinned == unit.pinned

    def test_bounds_every_trained_error(self):
        for i, kb in enumerate(UNSATISFIABLE_STORES):
            floor = satisfiability_oracle(kb, 2).error_floor
            _, report = train_with_retries(
                kb, EmbeddingConfig(dimension=2), TrainConfig(max_epochs=300), i
            )
            assert report.final_error >= (1 - 1e-6) * floor
            if i < 20:  # forced_unsatisfiable_kb stores: descent reaches the floor
                assert report.final_error <= (1 + 1e-9) * floor

    def test_satisfiable_carries_none(self, friend_kb):
        result = satisfiability_oracle(friend_kb, 2)
        assert result.status is Satisfiability.SATISFIABLE
        assert (result.error_floor, result.pinned) == (0.0, None)

    def test_inconclusive_carries_none(self, friend_kb, monkeypatch):
        # Stand in for a negative 1e-7 away from the positives' span, which
        # no store of a few triples reaches.
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: 1e-7 * norm(*a, **k))
        result = satisfiability_oracle(friend_kb, 2)
        assert result.status is Satisfiability.INCONCLUSIVE
        assert (result.certificate, result.error_floor, result.pinned) == (None, 0.0, None)


class TestMinDimensionSearch:
    def test_empty_kb(self):
        n, emb = min_dimension_search(
            parse_kb(""), EmbeddingConfig(dimension=1), TrainConfig(), 7
        )
        assert n == 1 and emb.dimension == 1

    def test_single_positive_triple(self):
        kb = KnowledgeBase.from_triples([SignedTriple("r", "a", "b", True)])
        n, emb = min_dimension_search(kb, EmbeddingConfig(dimension=1), TrainConfig(), 7)
        assert n == 1
        assert emb.cumulative_error(kb) <= emb.config.eps_fit

    def test_friend_kb_needs_at_most_two(self, friend_kb):
        n, emb = min_dimension_search(
            friend_kb, EmbeddingConfig(dimension=1), TrainConfig(), 7
        )
        assert n <= 2
        assert emb.cumulative_error(friend_kb) <= emb.config.eps_fit

    UNSAT_KB = KnowledgeBase.from_triples(
        [
            SignedTriple("r", "a", "b", True),
            SignedTriple("r", "b", "a", True),
            SignedTriple("r", "c", "d", True),
            SignedTriple("r", "d", "c", False),
        ]
    )

    def test_unsatisfiable_kb_exhausts_search(self):
        kb = self.UNSAT_KB
        tcfg = TrainConfig(max_epochs=300, retry_budget=1)
        with pytest.raises(NoConvergentDimensionError):
            min_dimension_search(kb, EmbeddingConfig(dimension=1), tcfg, 7)

    @pytest.mark.parametrize("text, pinned", [
        (FRIEND_UNSAT_KB_TEXT, "friend(Bob, Joe)-"), (None, "r(d, c)-"),
    ])
    def test_error_floor_rejects_before_training(self, monkeypatch, text, pinned):
        monkeypatch.setattr(trainer, "train_with_retries", None)
        kb = self.UNSAT_KB if text is None else parse_kb(text)
        with pytest.raises(UnsatisfiableStoreError, match=re.escape(f"pin {pinned} inside")):
            min_dimension_search(kb, EmbeddingConfig(dimension=1), TrainConfig(), 7)
        assert issubclass(UnsatisfiableStoreError, NoConvergentDimensionError)

    def test_floor_within_the_slack_runs_the_search(self):
        floor = satisfiability_oracle(self.UNSAT_KB, 1).error_floor
        cfg = EmbeddingConfig(dimension=1, eps_fit=(1 - 1e-7) * floor)
        tcfg = TrainConfig(max_epochs=300, retry_budget=1)
        with pytest.raises(NoConvergentDimensionError) as raised:
            min_dimension_search(self.UNSAT_KB, cfg, tcfg, 7)
        assert type(raised.value) is NoConvergentDimensionError


class TestMinDimensionProbes:
    # A chain of 10 entities over one relation: the search is bounded by 11.
    KB = KnowledgeBase.from_triples(
        [SignedTriple("r", f"e{i}", f"e{i + 1}", True) for i in range(9)]
    )
    N_MAX = 11

    def fake_fits(self, monkeypatch, converges):
        """Make every fit converge iff ``converges(dimension)``; returns the
        list the dimensions probed are appended to, in order."""
        probes = []

        def fake(kb, cfg, tcfg, seed):
            probes.append(cfg.dimension)
            ok = converges(cfg.dimension)
            return init_embedding(kb, cfg, tcfg, seed), FitReport(0.0 if ok else 1.0, 1, ok, seed)

        monkeypatch.setattr(trainer, "train_with_retries", fake)
        return probes

    def search(self):
        return min_dimension_search(self.KB, EmbeddingConfig(dimension=1), TrainConfig(), 7)

    @pytest.mark.parametrize("k", range(1, N_MAX + 1))
    def test_doubles_then_bisects_to_the_smallest(self, monkeypatch, k):
        probes = self.fake_fits(monkeypatch, lambda d: d >= k)
        n, emb = self.search()
        assert n == k and emb.dimension == k
        assert len(set(probes)) == len(probes)
        doubling = [1]
        while doubling[-1] < k:
            doubling.append(min(2 * doubling[-1], self.N_MAX))
        assert probes[:len(doubling)] == doubling
        lo, hi = (doubling[-2] if len(doubling) > 1 else 0), doubling[-1]
        for probe in probes[len(doubling):]:
            assert probe == (lo + hi) // 2
            lo, hi = (lo, probe) if probe >= k else (probe, hi)
        assert (lo, hi) == (k - 1, k)

    def test_no_dimension_converges(self, monkeypatch):
        probes = self.fake_fits(monkeypatch, lambda d: False)
        with pytest.raises(NoConvergentDimensionError):
            self.search()
        assert probes == [1, 2, 4, 8, 11]


class TestCachedDescentIndex:
    # At 700 epochs the search on the wide store fails at d = 1 and keeps a
    # member at d = 2, so it leaves the store's index built.
    TCFG = TrainConfig(max_epochs=700)

    @staticmethod
    def wide():
        return parse_kb((STORES / "wide.kb").read_text(encoding="utf-8"))

    def searched_wide(self):
        kb = self.wide()
        assert min_dimension_search(kb, EmbeddingConfig(dimension=1), self.TCFG, 0)[0] == 2
        return kb

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        build = _Problem.__init__

        def counted(problem, kb):
            builds.append(kb)
            build(problem, kb)

        monkeypatch.setattr(_Problem, "__init__", counted)
        return builds

    @pytest.mark.parametrize("store", ["friends.kb", "wide.kb"])
    def test_a_default_fit_builds_the_index_once(self, monkeypatch, tmp_path, capsys, store):
        builds = self.count_builds(monkeypatch)
        assert cli.main(["fit", str(STORES / store), "-o", str(tmp_path / "e.json"), "--seed", "7"]) == 0
        assert "members\t32" in capsys.readouterr().out
        assert len(builds) == 1

    def test_a_built_index_trains_the_bytes_of_a_fresh_store(self):
        searched = self.searched_wide()
        seeds = [3, 9, 4, 1, 12, 6]
        for d in (2, 1, 3):
            cfg = EmbeddingConfig(dimension=d)
            assert_same_fit(train(searched, cfg, self.TCFG, 5), train(self.wide(), cfg, self.TCFG, 5))
            for a, b in zip(train_members(searched, cfg, self.TCFG, seeds),
                            train_members(self.wide(), cfg, self.TCFG, seeds), strict=True):
                assert_same_fit(a, b)
            assert_same_fit(train_with_retries(searched, cfg, self.TCFG, 2),
                            train_with_retries(self.wide(), cfg, self.TCFG, 2))
            e = init_embedding(searched, cfg, self.TCFG, 8)
            warm, fresh = gradients(e, searched), gradients(e, self.wide())
            assert warm.keys() == fresh.keys()
            assert all(warm[t].tobytes() == fresh[t].tobytes() for t in warm)

    def test_one_index_per_store_read_only(self):
        kb = self.searched_wide()
        problem = _Problem.of(kb)
        assert _Problem.of(kb) is problem and _Problem.of(self.wide()) is not problem
        for a in (problem.operands, problem.sources, problem.signs, problem.rows, problem.incidence):
            assert a.size
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_a_lookup_hashes_nothing(self, monkeypatch, friend_kb):
        def unhashable(self):
            raise AssertionError("a store was hashed")

        monkeypatch.setattr(KnowledgeBase, "__hash__", unhashable)
        monkeypatch.setattr(SignedTriple, "__hash__", unhashable)
        cfg = EmbeddingConfig(dimension=1)
        assert_same_fit(train(friend_kb, cfg, TrainConfig(), 7), train(friend_kb, cfg, TrainConfig(), 7))

    def test_the_index_dies_with_its_store(self):
        kb = parse_kb(FRIEND_KB_TEXT)
        train(kb, EmbeddingConfig(dimension=2), TrainConfig(), 7)
        refs = weakref.ref(kb), weakref.ref(_Problem.of(kb))
        del kb
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_threads_sharing_a_store_train_its_bytes(self):
        # Stacks of several widths and dimensions race to build and read the
        # store's one index; each must still get its members' own bytes.
        kb = parse_kb(FRIEND_KB_TEXT)
        jobs = [(d, seeds) for d in (1, 2, 3) for seeds in ([1], [2, 3], [4, 5, 6, 7])] * 4

        def fit(job, store=kb):
            return train_members(store, EmbeddingConfig(dimension=job[0]), TrainConfig(), job[1])

        expected = [fit(job, parse_kb(FRIEND_KB_TEXT)) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor((os.cpu_count() or 1) + 2) as pool:
                fitted = list(pool.map(fit, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(fitted, expected, strict=True):
            for a, b in zip(got, want, strict=True):
                assert_same_fit(a, b)

    @pytest.mark.parametrize("copied", [lambda kb: pickle.loads(pickle.dumps(kb)), copy.deepcopy])
    def test_a_copied_store_rebuilds_its_index(self, copied):
        kb = self.searched_wide()
        copy_ = copied(kb)
        assert copy_ == kb
        assert not {"triple_index", "_problem"} & vars(copy_).keys()
        cfg = EmbeddingConfig(dimension=2)
        assert_same_fit(train(copy_, cfg, self.TCFG, 5), train(kb, cfg, self.TCFG, 5))
        problem = _Problem.of(copy_)
        assert problem is not _Problem.of(kb)
        for a in (*copy_.triple_index, problem.rows, problem.incidence):
            assert not a.flags.writeable
