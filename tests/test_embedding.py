"""Residuals, per-triple losses, satisfaction, and their invariances."""

from dataclasses import fields

import numpy as np
import pytest

from kbens import (
    Embedding,
    EmbeddingConfig,
    KnowledgeBase,
    Query,
    SignedTriple,
    TrainConfig,
    UnknownTermError,
    parse_kb,
)

from conftest import random_kb


def make_embedding(entities, relations, config=None, seed=0):
    config = config or EmbeddingConfig(dimension=len(next(iter(entities.values()))))
    return Embedding.from_points(entities, relations, config, seed=seed)


# Hand-checked model of the friend store: both positive facts sit exactly on
# the relation vector, the negative fact sits sqrt(8) away.
FRIEND_POINTS = {
    "Joe": (1.0, 0.0),
    "Bob": (0.0, 0.0),
    "Alice": (1.0, 1.0),
    "John": (0.0, 1.0),
    "Mary": (3.0, 3.0),
}
FRIEND_VECTORS = {"friend": (1.0, 0.0)}


@pytest.fixture
def friend_embedding():
    cfg = EmbeddingConfig(dimension=2, tau_pos=0.1, gamma=0.5)
    return make_embedding(FRIEND_POINTS, FRIEND_VECTORS, cfg)


class TestResidual:
    def test_exact_constraint(self):
        e = make_embedding({"a": (1.0, 0.0), "b": (0.0, 0.0)}, {"r": (1.0, 0.0)})
        assert np.array_equal(e.residual(Query("r", "a", "b")), [0.0, 0.0])

    def test_coincident_points(self):
        e = make_embedding({"a": (2.0, 5.0), "b": (2.0, 5.0)}, {"r": (1.0, 0.0)})
        assert np.array_equal(e.residual(Query("r", "a", "b")), [-1.0, 0.0])

    def test_component_arithmetic(self):
        e = make_embedding({"a": (2.0, 1.0), "b": (1.0, 1.0)}, {"r": (0.0, 1.0)})
        assert np.array_equal(e.residual(Query("r", "a", "b")), [1.0, -1.0])

    def test_unknown_term(self):
        e = make_embedding({"a": (0.0,), "b": (0.0,)}, {"r": (0.0,)})
        with pytest.raises(UnknownTermError):
            e.residual(Query("r", "a", "zzz"))
        with pytest.raises(UnknownTermError):
            e.residual(Query("qqq", "a", "b"))


class TestTripleError:
    def test_positive_at_zero_residual(self):
        e = make_embedding({"a": (1.0, 0.0), "b": (0.0, 0.0)}, {"r": (1.0, 0.0)})
        assert e.triple_error(SignedTriple("r", "a", "b", True)) == 0.0

    def test_negative_outside_margin_costs_nothing(self):
        e = make_embedding({"a": (5.0, 0.0), "b": (0.0, 0.0)}, {"r": (1.0, 0.0)})
        assert e.triple_error(SignedTriple("r", "a", "b", False)) == 0.0

    def test_negative_hinge_value(self):
        # gamma = 1 and a residual of length 0.5 leave a squared gap of 0.25.
        cfg = EmbeddingConfig(dimension=2, tau_pos=0.01, gamma=1.0)
        e = make_embedding({"a": (0.5, 0.0), "b": (0.0, 0.0)}, {"r": (0.0, 0.0)}, cfg)
        assert e.triple_error(SignedTriple("r", "a", "b", False)) == pytest.approx(0.25, abs=1e-15)

    def test_positive_squared_norm(self):
        e = make_embedding({"a": (1.0, 0.0), "b": (0.0, 0.0)}, {"r": (0.0, 0.0)})
        assert e.triple_error(SignedTriple("r", "a", "b", True)) == 1.0

    def test_always_non_negative(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            kb = random_kb(rng, max_entities=5)
            e = _random_embedding(kb, rng)
            for t in kb.triples:
                assert e.triple_error(t) >= 0.0


class TestCumulativeError:
    def test_empty_kb(self):
        e = make_embedding({"a": (1.0,)}, {"r": (0.0,)})
        assert e.cumulative_error(parse_kb("")) == 0.0

    def test_hand_built_friend_model(self, friend_kb, friend_embedding):
        assert friend_embedding.cumulative_error(friend_kb) == 0.0

    def test_single_positive_triple(self):
        kb = KnowledgeBase.from_triples([SignedTriple("r", "a", "b", True)])
        e = make_embedding({"a": (1.0, 0.0), "b": (0.0, 0.0)}, {"r": (0.0, 0.0)})
        assert e.cumulative_error(kb) == 1.0

    def test_monotone_under_added_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            kb = random_kb(rng, max_entities=5, max_triples=8)
            e = _random_embedding(kb, rng)
            total = 0.0
            for k in range(len(kb.triples) + 1):
                sub = KnowledgeBase(
                    triples=kb.triples[:k], entities=kb.entities, relations=kb.relations
                )
                err = e.cumulative_error(sub)
                assert err >= total - 1e-12
                total = err


class TestSatisfies:
    def test_exact_constraint_inside_tight_radius(self):
        cfg = EmbeddingConfig(dimension=2, tau_pos=1e-3, gamma=1.0)
        e = make_embedding({"a": (1.0, 0.0), "b": (0.0, 0.0)}, {"r": (1.0, 0.0)}, cfg)
        assert e.satisfies(Query("r", "a", "b"))

    def test_residual_at_margin_not_satisfied(self):
        cfg = EmbeddingConfig(dimension=2, tau_pos=0.25, gamma=1.0)
        e = make_embedding({"a": (1.0, 0.0), "b": (0.0, 0.0)}, {"r": (0.0, 0.0)}, cfg)
        assert np.linalg.norm(e.residual(Query("r", "a", "b"))) == cfg.gamma
        assert not e.satisfies(Query("r", "a", "b"))

    def test_unstated_friend_fact_not_satisfied(self, friend_embedding):
        # Mary - Alice - friend = (2,2) - (1,0) = (1,2), norm sqrt(5) > 0.1.
        assert not friend_embedding.satisfies(Query("friend", "Mary", "Alice"))

    def test_satisfaction_bounds_positive_error(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            kb = random_kb(rng, max_entities=5)
            e = _random_embedding(kb, rng)
            tau = e.config.tau_pos
            for q in (t.as_query() for t in kb.triples):
                if e.satisfies(q):
                    err = e.triple_error(SignedTriple(q.relation, q.subject, q.object, True))
                    assert err <= tau * tau * (1 + 1e-12)


class TestInvariances:
    def test_translation_of_entities_preserves_residuals(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            kb = random_kb(rng, max_entities=6)
            e = _random_embedding(kb, rng)
            shift = rng.uniform(-5, 5, e.dimension)
            shifted = Embedding.from_points(
                {t: p + shift for t, p in e.entity_points.items()},
                e.relation_vectors,
                e.config,
            )
            for t in kb.triples:
                np.testing.assert_allclose(
                    shifted.residual(t), e.residual(t), atol=1e-12
                )

    def test_orthogonal_map_preserves_errors_and_verdicts(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            kb = random_kb(rng, max_entities=6)
            e = _random_embedding(kb, rng)
            q_mat, _ = np.linalg.qr(rng.normal(size=(e.dimension, e.dimension)))
            rotated = Embedding.from_points(
                {t: q_mat @ p for t, p in e.entity_points.items()},
                {t: q_mat @ v for t, v in e.relation_vectors.items()},
                e.config,
            )
            np.testing.assert_allclose(
                rotated.cumulative_error(kb), e.cumulative_error(kb), rtol=1e-9, atol=1e-12
            )
            for t in kb.triples:
                np.testing.assert_allclose(
                    e.triple_error(t), rotated.triple_error(t), rtol=1e-9, atol=1e-12
                )
                # Keep verdicts away from the knife edge of the radius.
                margin = abs(
                    np.linalg.norm(e.residual(t)) - e.config.tau_pos
                )
                if margin > 1e-9:
                    assert e.satisfies(t.as_query()) == rotated.satisfies(t.as_query())


class TestConfigValidation:
    def test_dimension_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(dimension=0)

    # Each config, a valid build, and its integer fields: read_field's rule
    # applies when a config is built, so every config that builds loads back.
    CONFIGS = [
        (EmbeddingConfig, {"dimension": 2}, ("dimension",)),
        (TrainConfig, {}, ("max_epochs", "retry_budget")),
    ]
    FIELDS = [
        pytest.param(c, kw, f.name, id=f"{c.__name__}.{f.name}") for c, kw, _ in CONFIGS for f in fields(c)
    ]
    INTEGER_FIELDS = [
        pytest.param(c, kw, name, id=f"{c.__name__}.{name}") for c, kw, names in CONFIGS for name in names
    ]

    @pytest.mark.parametrize("config, valid, field", FIELDS)
    def test_boolean_is_never_a_number(self, config, valid, field):
        with pytest.raises(ValueError, match=f"field '{field}' must be .*, not True"):
            config(**{**valid, field: True})

    @pytest.mark.parametrize("config, valid, field", INTEGER_FIELDS)
    def test_integer_field_holds_an_int(self, config, valid, field):
        with pytest.raises(ValueError, match=f"field '{field}' must be an integer, not 1.5"):
            config(**{**valid, field: 1.5})

    def test_numbers_are_held_as_their_field_kind(self):
        cfg = EmbeddingConfig(dimension=2.0, tau_pos=np.float64(0.25), gamma=1)
        assert (cfg.dimension, cfg.tau_pos, cfg.gamma) == (2, 0.25, 1.0)
        assert [type(v) for v in (cfg.dimension, cfg.tau_pos, cfg.gamma)] == [int, float, float]

    def test_gamma_must_exceed_tau(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(dimension=2, tau_pos=1.0, gamma=1.0)

    def test_negative_tolerances_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(dimension=2, tau_pos=-0.1)
        with pytest.raises(ValueError):
            EmbeddingConfig(dimension=2, eps_fit=-1e-9)

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ValueError):
            make_embedding({"a": (np.nan, 0.0), "b": (0.0, 0.0)}, {"r": (0.0, 0.0)})


SHAPE = r"coordinate rows must be lists of 2 number\(s\): expected shape \(3, 2\), got "
NUMBERS = "coordinates must be numbers"


class TestConstruction:
    """The constructor checks coordinates however an embedding is built."""

    @staticmethod
    def build(entity_array, relation_array=np.zeros((1, 2))):
        cfg = EmbeddingConfig(dimension=2)
        return Embedding(("a", "b", "c"), ("r",), entity_array, relation_array, cfg, 0)

    @pytest.mark.parametrize("array, message", [
        (np.arange(6.0).reshape(2, 3), SHAPE + r"\(2, 3\)"),  # transposed, E * d elements
        (np.arange(6.0), SHAPE + r"\(6,\)"),
        (np.zeros((2, 2)), SHAPE + r"\(2, 2\)"),
        (np.zeros((3, 2, 1)), SHAPE + r"\(3, 2, 1\)"),
        (np.array([]), SHAPE + r"\(0,\)"),
        (np.full((3, 2), "0.5"), NUMBERS),
        (np.zeros((3, 2), dtype=bool), NUMBERS),
        (np.full((3, 2), 0.5, dtype=object), NUMBERS),
        (np.zeros((3, 2), dtype=complex), NUMBERS),
        (np.array([[0.0, 0.0], [0.0, np.inf], [0.0, 0.0]]), "must all be finite"),
    ], ids=[
        "transposed", "flat", "too-few-rows", "nested", "empty", "strings", "booleans",
        "objects", "complex", "infinite",
    ])
    def test_entity_rows_are_checked(self, array, message):
        with pytest.raises(ValueError, match=message):
            self.build(array)

    @pytest.mark.parametrize("array, message", [
        (np.zeros((2, 1)), r"expected shape \(1, 2\), got \(2, 1\)"),
        (np.zeros(2), r"expected shape \(1, 2\), got \(2,\)"),
        (np.array([[True, False]]), NUMBERS),
        (np.array([[np.nan, 0.0]]), "must all be finite"),
    ], ids=["transposed", "flat", "booleans", "nan"])
    def test_relation_rows_are_checked(self, array, message):
        with pytest.raises(ValueError, match=message):
            self.build(np.zeros((3, 2)), array)

    @pytest.mark.parametrize("entities, relations, repeat", [
        (("a", "b", "c"), ("a",), "a"),
        (("a", "b", "a"), ("r",), "a"),
        (("a", "b", "c"), ("r", "r"), "r"),
    ], ids=["entity-and-relation", "entity-twice", "relation-twice"])
    def test_each_name_names_one_term(self, entities, relations, repeat):
        rels = np.zeros((len(relations), 2))
        with pytest.raises(ValueError, match=f"term name '{repeat}' names more than one"):
            Embedding(entities, relations, np.zeros((3, 2)), rels, EmbeddingConfig(dimension=2), 0)

    def test_integer_rows_are_stored_as_floats(self):
        e = self.build(np.arange(6).reshape(3, 2), np.array([[1, 2]], dtype=np.uint8))
        assert e.entity_array.dtype == e.relation_array.dtype == np.float64
        np.testing.assert_array_equal(e.entity_point("c"), [4.0, 5.0])

    def test_rows_are_copied_from_the_callers_array(self):
        ents, rels = np.zeros((3, 2)), np.ones((1, 2))
        e = self.build(ents, rels)
        ents[0], rels[0] = 5.0, 5.0
        assert not e.entity_array.any() and (e.relation_array == 1.0).all()

    def test_from_points_does_not_read_strings_as_numbers(self):
        with pytest.raises(ValueError, match=NUMBERS):
            Embedding.from_points({"a": ["1.5", "2"]}, {}, EmbeddingConfig(dimension=2))

    @pytest.mark.parametrize("empty", [np.array([]), np.empty((0, 2)), np.empty((0, 5))])
    def test_empty_vocabulary_builds_from_any_empty_array(self, empty):
        e = Embedding((), (), empty, empty, EmbeddingConfig(dimension=2), 0)
        assert e.entity_array.shape == e.relation_array.shape == (0, 2)


class TestSerialization:
    def test_doc_roundtrip_is_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            kb = random_kb(rng, max_entities=5)
            e = _random_embedding(kb, rng)
            assert Embedding.from_doc(e.to_doc()).to_doc() == e.to_doc()

    def test_integral_numbers_are_read_as_their_field_kind(self, friend_embedding):
        doc = friend_embedding.to_doc()
        doc["dimension"], doc["config"]["gamma"] = 2.0, 1
        loaded = Embedding.from_doc(doc)
        assert type(loaded.dimension) is int and type(loaded.config.gamma) is float
        assert loaded.config == EmbeddingConfig(dimension=2, tau_pos=0.1, gamma=1.0)
        np.testing.assert_array_equal(loaded.entity_array, friend_embedding.entity_array)

    @pytest.mark.parametrize("rows", [
        {"a": 0.5, "b": 1.5}, {"a": [[0.5]], "b": [[1.5]]}, {"a": [0.5, 1.0], "b": [1.5, 2.0]},
        {"a": [], "b": []},
    ])
    def test_coordinate_rows_must_hold_dimension_numbers(self, rows):
        doc = make_embedding({"a": (0.0,), "b": (1.0,)}, {"r": (1.0,)}).to_doc()
        doc["entities"] = rows
        with pytest.raises(ValueError, match=r"coordinate rows must be lists of 1 number\(s\)"):
            Embedding.from_doc(doc)

    @pytest.mark.parametrize("block, coordinate", [
        ("entities", True), ("entities", False), ("relations", True),
    ])
    def test_a_boolean_among_numbers_is_not_a_number(self, friend_embedding, block, coordinate):
        doc = friend_embedding.to_doc()
        doc[block][next(iter(doc[block]))] = [coordinate, 0.5]
        with pytest.raises(ValueError, match="coordinates must be numbers"):
            Embedding.from_doc(doc)

    def test_store_without_terms_loads(self):
        doc = make_embedding({"a": (0.0,)}, {"r": (1.0,)}).to_doc()
        doc["entities"], doc["relations"] = {}, {}
        loaded = Embedding.from_doc(doc)
        assert loaded.entity_array.shape == (0, 1) and loaded.relation_array.shape == (0, 1)

    def test_doc_carries_schema_fields(self, friend_embedding):
        doc = friend_embedding.to_doc()
        assert set(doc) == {"dimension", "seed", "config", "entities", "relations"}
        assert set(doc["config"]) == {"tau_pos", "gamma", "eps_fit"}
        assert all(len(v) == 2 for v in doc["entities"].values())


def _random_embedding(kb, rng, dimension=None):
    n = dimension or int(rng.integers(1, 4))
    cfg = EmbeddingConfig(dimension=n, tau_pos=0.5, gamma=1.0)
    return Embedding.from_points(
        {t: rng.uniform(-2, 2, n) for t in kb.entities},
        {t: rng.uniform(-2, 2, n) for t in kb.relations},
        cfg,
    )
