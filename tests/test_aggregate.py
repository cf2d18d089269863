"""Rigid registration and duplicate detection, isometric cloud pooling, and
verdicts."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbens import (
    AggregateModel,
    Alignment,
    DegenerateAggregateError,
    Embedding,
    EmbeddingConfig,
    Ensemble,
    Query,
    TrainConfig,
    Truth,
    UnknownTermError,
    aggregate_query,
    align,
    build_aggregate,
    cloud_diameter,
    fit_ensemble,
    is_affine_duplicate,
    knowledge_report,
    parse_kb,
    query_truth,
)

from kbens import aggregate
from kbens.aggregate import _centred, _rigid_duplicates, _rigid_residuals

from conftest import all_queries, hand_made_ensemble


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


@pytest.fixture(scope="module")
def chain_kb():
    return parse_kb("next\ta\tb\t+\nnext\tb\tc\t+\nnext\tc\td\t+\n")


@pytest.fixture(scope="module")
def chain_ensemble(chain_kb):
    return fit_ensemble(
        chain_kb, EmbeddingConfig(dimension=1), TrainConfig(), base_seed=7, members=32
    )


def spanning_embedding(dimension=2, seed=0):
    """Entity points in affine general position, so alignment is unique."""
    cfg = EmbeddingConfig(dimension=dimension, tau_pos=0.1, gamma=0.5)
    rng = np.random.default_rng(seed)
    points = {f"e{i}": rng.uniform(-2, 2, dimension) for i in range(dimension + 3)}
    vectors = {"r": rng.uniform(-2, 2, dimension)}
    return Embedding.from_points(points, vectors, cfg, seed=seed)


def affine_copy(e, linear, offset):
    return Embedding.from_points(
        {t: linear @ p + offset for t, p in e.entity_points.items()},
        {t: linear @ v for t, v in e.relation_vectors.items()},
        e.config,
        seed=e.seed + 1,
    )


def random_orthogonal(rng, d, reflect):
    """A random orthogonal map, with determinant -1 if ``reflect`` and +1
    otherwise."""
    q_mat, _ = np.linalg.qr(rng.normal(size=(d, d)))
    if (np.linalg.det(q_mat) < 0) != reflect:
        q_mat[:, 0] = -q_mat[:, 0]
    return q_mat


def stack_residuals(terms, entities):
    """The symmetric matrix of :func:`_rigid_residuals` over every pair of
    the member stack ``terms``, with a zero diagonal."""
    first, second = np.triu_indices(len(terms), 1)
    residual = np.zeros((len(terms), len(terms)))
    residual[first, second] = _rigid_residuals(_centred(terms, entities), first, second)
    return residual + residual.T


def rigid_residuals(members):
    """:func:`stack_residuals` on the stack of ``members``."""
    return stack_residuals(np.array([m.term_array for m in members]), len(members[0].entity_names))


def assert_residuals_match(members):
    """The batched matrix equals the per-pair :func:`align` residual in every
    entry."""
    scale = max(
        np.max(np.abs(np.concatenate([m.entity_array, m.relation_array])), initial=0.0)
        for m in members
    )
    exact = [[align(s, r).residual for r in members] for s in members]
    np.testing.assert_allclose(rigid_residuals(members), exact, rtol=1e-9, atol=1e-12 * scale)


class TestAlign:
    def test_self_alignment_is_identity(self):
        e = spanning_embedding()
        a = align(e, e)
        np.testing.assert_allclose(a.linear_map, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(a.translation, np.zeros(2), atol=1e-10)
        assert a.residual <= 1e-12

    def test_recovers_orthogonal_map_plus_translation(self):
        rng = np.random.default_rng(42)
        for dim in (1, 2, 3):
            for _ in range(5):
                ref = spanning_embedding(dim, seed=int(rng.integers(1 << 16)))
                q_mat, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
                t0 = rng.uniform(-3, 3, dim)
                source = affine_copy(ref, q_mat, t0)
                a = align(source, ref)
                assert a.residual <= 1e-8
                np.testing.assert_allclose(a.linear_map @ q_mat, np.eye(dim), atol=1e-8)
                np.testing.assert_allclose(a.translation, -t0 @ q_mat, atol=1e-8)

    def test_independent_members_do_not_align(self, friend_ensemble):
        a = align(friend_ensemble.members[0], friend_ensemble.members[1])
        assert a.residual > 1e-6

    def test_vocabulary_mismatch_rejected(self):
        a = spanning_embedding(2, seed=1)
        cfg = EmbeddingConfig(dimension=2, tau_pos=0.1, gamma=0.5)
        b = Embedding.from_points({"x": (0.0, 0.0)}, {"r": (1.0, 0.0)}, cfg)
        from kbens.aggregate import FrameMismatchError

        with pytest.raises(FrameMismatchError):
            align(a, b)

    def test_dimension_mismatch_rejected(self):
        from kbens.aggregate import FrameMismatchError

        with pytest.raises(FrameMismatchError):
            align(spanning_embedding(2), spanning_embedding(3))


class TestAffineDuplicate:
    def test_member_duplicates_itself(self):
        e = spanning_embedding()
        assert is_affine_duplicate(e, e, 1e-6)

    def test_uniformly_scaled_copy_is_not_a_duplicate(self):
        e = spanning_embedding()
        doubled = affine_copy(e, 2.0 * np.eye(2), np.zeros(2))
        assert not is_affine_duplicate(e, doubled, 1e-6)

    def test_single_displaced_point_is_not(self):
        e = spanning_embedding(2, seed=3)  # 5 entities in general position
        points = {t: np.array(p) for t, p in e.entity_points.items()}
        points["e0"] = points["e0"] + np.array([10e-6, 0.0])
        moved = Embedding.from_points(points, e.relation_vectors, e.config)
        assert not is_affine_duplicate(e, moved, 1e-6)
        assert align(e, moved).residual > 1e-6

    def test_symmetric_by_construction(self, friend_ensemble):
        m1, m2 = friend_ensemble.members[2], friend_ensemble.members[3]
        for tol in (1e-8, 1e-2, 10.0):
            assert is_affine_duplicate(m1, m2, tol) == is_affine_duplicate(m2, m1, tol)

    @pytest.mark.parametrize("tolerance", [float("nan"), -1.0])
    def test_bad_tolerance_is_rejected(self, tolerance):
        e = spanning_embedding()
        with pytest.raises(ValueError, match="dedup tolerance must be a non-negative number"):
            is_affine_duplicate(e, e, tolerance)


class TestBuildAggregate:
    def test_duplicated_member_ensemble_is_degenerate(self, friend_ensemble):
        # An exact copy under a seed of its own, since a repeated seed is
        # rejected when the ensemble is built.
        m = friend_ensemble.members[0]
        forced = hand_made_ensemble((m, replace(m, seed=1000)), friend_ensemble.kb_digest)
        with pytest.raises(DegenerateAggregateError):
            build_aggregate(forced)

    def test_models_compare_by_identity(self, friend_ensemble):
        # As Ensemble: a model holds dicts of clouds, which neither hash nor
        # compare to one truth value.
        first, second = build_aggregate(friend_ensemble), build_aggregate(friend_ensemble)
        assert hash(first) == hash(first)
        assert first == first
        assert first != second

    def test_friend_ensemble_retains_everyone(self, friend_ensemble):
        agg = build_aggregate(friend_ensemble, dedup_tolerance=1e-6)
        assert agg.member_indices == tuple(range(32))
        for cloud in agg.entity_clouds.values():
            assert cloud.shape == (32, 1)
        for cloud in agg.relation_clouds.values():
            assert cloud.shape == (32, 1)

    def test_retained_pairs_exceed_tolerance_both_ways(self, friend_ensemble):
        small = Ensemble(
            members=friend_ensemble.members[:8],
            kb_digest=friend_ensemble.kb_digest,
            reports=friend_ensemble.reports[:8],
        )
        agg = build_aggregate(small, dedup_tolerance=1e-6)
        kept = [small.members[i] for i in agg.member_indices]
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert align(a, b).residual > 1e-6
                assert align(b, a).residual > 1e-6

    def test_orthogonal_copy_is_rejected_but_new_member_kept(self, friend_ensemble):
        m0 = friend_ensemble.members[0]
        m2 = friend_ensemble.members[1]
        copy = affine_copy(m0, -np.eye(1), np.array([0.7]))  # 1-D orthogonal map
        forced = hand_made_ensemble(
            (m0, replace(copy, seed=1000), m2), friend_ensemble.kb_digest
        )
        agg = build_aggregate(forced)
        assert agg.member_indices == (0, 2)

    def test_everything_deduplicated_is_degenerate(self, friend_ensemble):
        with pytest.raises(DegenerateAggregateError):
            build_aggregate(friend_ensemble, dedup_tolerance=1e9)

    def test_diameter_bound_prunes_members(self, friend_ensemble):
        unbounded = build_aggregate(friend_ensemble)
        worst = max(unbounded.diameters.values())
        bounded = build_aggregate(friend_ensemble, max_cloud_diameter=worst / 4)
        assert 2 <= len(bounded.member_indices) <= len(unbounded.member_indices)
        assert max(bounded.diameters.values()) <= worst / 4

    @pytest.mark.parametrize("options", [
        {"dedup_tolerance": float("nan")}, {"max_cloud_diameter": float("nan")},
    ])
    def test_nan_bound_is_rejected(self, friend_ensemble, options):
        with pytest.raises(ValueError, match="must be a non-negative number: nan"):
            build_aggregate(friend_ensemble, **options)

    def test_align_calls_grow_with_retained_members_only(self, friend_ensemble, monkeypatch):
        calls = {"align": 0, "duplicate": 0}

        def counted_align(*args):
            calls["align"] += 1
            return align(*args)

        def counted_duplicate(*args):
            calls["duplicate"] += 1
            return is_affine_duplicate(*args)

        monkeypatch.setattr(aggregate, "align", counted_align)
        monkeypatch.setattr(aggregate, "is_affine_duplicate", counted_duplicate)
        agg = build_aggregate(friend_ensemble)
        # One alignment per retained member after the reference; the rigid
        # residuals decide every duplicate without align.
        assert calls["align"] == len(agg.member_indices) - 1
        assert calls["duplicate"] == 0

    def test_ensemble_without_members_is_rejected_when_built(self):
        with pytest.raises(ValueError, match="at least one member"):
            Ensemble(members=(), kb_digest="", reports=())

    def test_empty_store_keeps_one_member_and_is_degenerate(self):
        # With no terms every member is a rigid image of the first.
        ens = fit_ensemble(parse_kb(""), EmbeddingConfig(dimension=2), TrainConfig(), 1, members=4)
        with pytest.raises(DegenerateAggregateError, match="only 1 member"):
            build_aggregate(ens)

    def test_reference_frame_is_first_retained(self, friend_ensemble):
        agg = build_aggregate(friend_ensemble)
        assert agg.reference_index == 0
        m0 = friend_ensemble.members[0]
        for term in m0.entity_names:
            np.testing.assert_allclose(agg.entity_clouds[term][0], m0.entity_point(term))


    def test_cloud_of_unknown_term(self, friend_ensemble):
        agg = build_aggregate(friend_ensemble)
        assert agg.cloud("Mary") is agg.entity_clouds["Mary"]
        np.testing.assert_array_equal(agg.cloud("friend"), agg.relation_clouds["friend"])
        with pytest.raises(UnknownTermError, match="nobody"):
            agg.cloud("nobody")


class TestRigidDuplicates:
    @pytest.fixture(scope="class")
    def planar_members(self, friend_kb_m):
        fitted = fit_ensemble(
            friend_kb_m, EmbeddingConfig(dimension=2), TrainConfig(), 31, members=6
        )
        return fitted.members

    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_isometric_copy_is_dropped(self, planar_members, scale, reflect):
        rng = np.random.default_rng(int(scale * 1e3) + reflect)
        bases = [(planar_members[0], planar_members[1])]
        bases.append((spanning_embedding(3, seed=5), spanning_embedding(3, seed=6)))
        for base, other in bases:
            d = base.dimension
            base = affine_copy(base, scale * np.eye(d), np.zeros(d))
            other = affine_copy(other, scale * np.eye(d), np.zeros(d))
            copy = affine_copy(base, random_orthogonal(rng, d, reflect), rng.uniform(-3, 3, d) * scale)
            members = (base, replace(copy, seed=1000), replace(other, seed=1001))
            assert rigid_residuals(members)[0, 1] <= 1e-12 * scale
            assert build_aggregate(hand_made_ensemble(members)).member_indices == (0, 2)

    @pytest.mark.parametrize("factor", [0.5, 0.999])
    def test_scaled_copy_is_kept(self, friend_ensemble, planar_members, factor):
        for base in (friend_ensemble.members[0], planar_members[0]):
            d = base.dimension
            scaled = affine_copy(base, factor * np.eye(d), np.full(d, 0.3))
            ens = hand_made_ensemble((base, replace(scaled, seed=1000)))
            assert build_aggregate(ens).member_indices == (0, 1)

    def test_residuals_are_symmetric_and_isometry_invariant(self, planar_members):
        residual = rigid_residuals(planar_members)
        np.testing.assert_array_equal(residual, residual.T)
        np.testing.assert_array_equal(np.diag(residual), np.zeros(len(planar_members)))
        rng = np.random.default_rng(3)
        for k in range(len(planar_members)):
            moved = list(planar_members)
            moved[k] = affine_copy(
                moved[k], random_orthogonal(rng, 2, k % 2 == 1), rng.uniform(-3, 3, 2)
            )
            np.testing.assert_allclose(rigid_residuals(moved), residual, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_overflowing_cross_products_never_reach_lapack(self, monkeypatch, d):
        # Members 2 and 3 lie near 1e200, so their cross product overflows:
        # that pair's residual and map are NaN, and every other pair keeps
        # the residual it has in a stack without the other large member.
        rng = np.random.default_rng(d)
        terms = rng.normal(size=(4, 3, d))
        terms[2:] *= 1e200
        svd = np.linalg.svd

        def finite_only(a, *args, **kwargs):
            assert np.isfinite(a).all()
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", finite_only)
        cfg = EmbeddingConfig(dimension=d)
        members = [Embedding(("a", "b"), ("r",), t[:2], t[2:], cfg, s) for s, t in enumerate(terms)]
        with np.errstate(over="ignore", invalid="ignore"):
            residual = stack_residuals(terms, 2)
            mapped = align(members[3], members[2])
            apart = [stack_residuals(terms[[0, 1, k]], 2) for k in (2, 3)]
        assert np.isnan(residual[2, 3]) and np.isnan(mapped.residual)
        assert np.isnan(mapped.linear_map).all()
        np.testing.assert_array_equal(residual[:3, :3], apart[0])
        np.testing.assert_array_equal(residual[np.ix_([0, 1, 3], [0, 1, 3])], apart[1])

    @pytest.mark.parametrize("tolerance", [1e-3, 1e-2])
    def test_chain_store_keeps_every_unknown_row(self, chain_kb, chain_ensemble, tolerance):
        agg = build_aggregate(chain_ensemble, dedup_tolerance=tolerance)
        assert len(agg.member_indices) >= 2
        verdicts = [
            [row.verdict.value for row in knowledge_report(ens, chain_kb).unstated_rows]
            for ens in (chain_ensemble, agg.ensemble)
        ]
        assert verdicts[0].count(Truth.UNKNOWN) == 7
        assert verdicts[1] == verdicts[0]


class TestAggregateQuery:
    def test_asserted_facts_carry_over(self, friend_kb_m, friend_ensemble):
        agg = build_aggregate(friend_ensemble)
        assert aggregate_query(agg, Query("friend", "Joe", "Bob")).value.value == "TRUE"
        assert aggregate_query(agg, Query("friend", "Mary", "John")).value.value == "FALSE"

    def test_matches_unanimity_over_retained_subset(self, friend_kb_m, friend_ensemble):
        agg = build_aggregate(friend_ensemble)
        subset = Ensemble(
            members=tuple(friend_ensemble.members[i] for i in agg.member_indices),
            kb_digest=friend_ensemble.kb_digest,
            reports=tuple(friend_ensemble.reports[i] for i in agg.member_indices),
        )
        for q in all_queries(friend_kb_m):
            direct = query_truth(subset, q)
            assert aggregate_query(agg, q) == direct

    def test_unknown_term(self, friend_ensemble):
        agg = build_aggregate(friend_ensemble)
        with pytest.raises(UnknownTermError):
            aggregate_query(agg, Query("friend", "Mary", "Zed"))

    def test_ensemble_holds_the_retained_members_and_reports(self, chain_ensemble):
        agg = build_aggregate(chain_ensemble, dedup_tolerance=1e-2)
        kept = agg.member_indices
        assert 2 <= len(kept) < len(chain_ensemble)
        assert agg.ensemble.kb_digest == chain_ensemble.kb_digest
        assert agg.ensemble.reports == tuple(chain_ensemble.reports[i] for i in kept)
        assert all(m is chain_ensemble.members[i] for m, i in zip(agg.members, kept, strict=True))
        np.testing.assert_array_equal(
            agg.ensemble.term_stack, chain_ensemble.term_stack[list(kept)]
        )


class TestCloudDiameter:
    def test_identical_points_have_zero_diameter(self):
        agg = _toy_aggregate(np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]))
        assert cloud_diameter(agg, "e") == 0.0

    def test_two_point_cloud_distance(self):
        agg = _toy_aggregate(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert cloud_diameter(agg, "e") == 5.0

    def test_unknown_term(self, friend_ensemble):
        agg = build_aggregate(friend_ensemble)
        with pytest.raises(UnknownTermError):
            cloud_diameter(agg, "nobody")

    def test_invariant_under_orthogonal_member_copies(self, friend_kb_m):
        ens = fit_ensemble(
            friend_kb_m, EmbeddingConfig(dimension=2), TrainConfig(), 31, members=6
        )
        agg = build_aggregate(ens)
        rng = np.random.default_rng(8)
        rotated_members = []
        for m in ens.members:
            q_mat, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            rotated_members.append(affine_copy(m, q_mat, rng.uniform(-1, 1, 2)))
        rotated = hand_made_ensemble(rotated_members, ens.kb_digest)
        agg_rot = build_aggregate(rotated)
        assert agg_rot.member_indices == agg.member_indices
        for term in agg.diameters:
            assert agg_rot.diameters[term] == pytest.approx(agg.diameters[term], abs=1e-6)


class TestExport:
    def test_doc_schema(self, friend_ensemble):
        agg = build_aggregate(friend_ensemble)
        doc = agg.to_doc()
        assert set(doc) == {
            "member_indices",
            "reference_index",
            "entity_clouds",
            "relation_clouds",
            "diameters",
        }
        assert doc["reference_index"] == doc["member_indices"][0]

    def test_clouds_tsv_rows(self, friend_ensemble, chain_ensemble):
        # One row per (term, retained member), entity terms first, each row
        # the JSON cloud's point of that term and member.
        models = [build_aggregate(friend_ensemble), build_aggregate(chain_ensemble, 1e-2)]
        cloud = np.array([[0.5, -1.0], [2.0, 3.0]])
        models.append(
            AggregateModel((0, 3), friend_ensemble, {"a": cloud}, {"a": -cloud}, {"a": 5.0})
        )
        for agg in models:
            assert_tsv_rows_are_the_json_clouds(agg)
        assert len(models[0].clouds_tsv().splitlines()) == 6 * len(models[0].member_indices)
        assert len(models[1].member_indices) == 22
        # An entity and a relation of one name: each row carries its own kind's cloud.
        assert models[2].clouds_tsv() == (
            "a\t0\t0.5\t-1.0\na\t3\t2.0\t3.0\na\t0\t-0.5\t1.0\na\t3\t-2.0\t-3.0\n"
        )

    def test_non_finite_clouds_keep_their_spellings(self, friend_ensemble):
        # Built by hand: build_aggregate refuses a cloud that is not finite.
        cloud = np.array([[math.inf, -0.0], [math.nan, -math.inf]])
        agg = AggregateModel((0, 3), friend_ensemble, {"a{0}": cloud, "}": cloud[::-1]},
                             {"%s": np.ones((2, 2))}, {"a{0}": math.nan, "}": math.nan, "%s": 0.0})
        assert agg.to_json() == json.dumps(agg.to_doc(), sort_keys=True, indent=2) + "\n"
        assert agg.clouds_tsv() == (
            "a{0}\t0\tinf\t-0.0\na{0}\t3\tnan\t-inf\n}\t0\tnan\t-inf\n}\t3\tinf\t-0.0\n"
            "%s\t0\t1.0\t1.0\n%s\t3\t1.0\t1.0\n"
        )

    @pytest.mark.parametrize("entity_clouds, relation_clouds, term", [
        pytest.param({"a": np.zeros((3, 2))}, {}, "a", id="more-points-than-members"),
        pytest.param({"a": np.zeros((2, 2))}, {"r{0}": np.zeros((1, 2))}, "r{0}", id="fewer-points"),
        pytest.param({"a": np.zeros((2, 2)), "b": np.zeros((2, 3))}, {}, "b", id="another-width"),
        pytest.param({"a": np.zeros((2, 2))}, {"r": np.zeros((2, 1))}, "r", id="relation-width"),
        pytest.param({"a": np.zeros(2)}, {}, "a", id="1-d"),
        pytest.param({"a": np.zeros((2, 2, 1))}, {}, "a", id="3-d"),
        pytest.param({"a": [[0.0, 0.0], [0.0, 0.0]]}, {}, "a", id="list"),
        pytest.param({"a": np.zeros((2, 2), dtype=bool)}, {}, "a", id="booleans"),
    ])
    def test_clouds_are_checked_when_built(self, friend_ensemble, entity_clouds, relation_clouds,
                                           term):
        diameters = dict.fromkeys([*entity_clouds, *relation_clouds], 0.0)
        with pytest.raises(ValueError, match=f"^the cloud of {re.escape(repr(term))} must be") as err:
            AggregateModel((0, 3), friend_ensemble, entity_clouds, relation_clouds, diameters)
        assert "\n" not in str(err.value)


def assert_tsv_rows_are_the_json_clouds(agg):
    doc = json.loads(agg.to_json())
    rows = iter(agg.clouds_tsv().splitlines())
    for kind in ("entity_clouds", "relation_clouds"):
        for term in sorted(doc[kind]):
            for member, point in zip(doc["member_indices"], doc[kind][term], strict=True):
                name, idx, *coords = next(rows).split("\t")
                assert (name, int(idx)) == (term, member)
                assert [float(x) for x in coords] == point
    assert next(rows, None) is None


def _toy_aggregate(cloud: np.ndarray) -> AggregateModel:
    k = cloud.shape[0]
    diff = cloud[:, None, :] - cloud[None, :, :]
    diameter = float(np.sqrt(np.max(np.sum(diff * diff, axis=2))))
    d = cloud.shape[1]
    member = Embedding(("e",), (), cloud[:1], np.zeros((0, d)), EmbeddingConfig(dimension=d), 0)
    return AggregateModel(
        member_indices=tuple(range(k)),
        ensemble=hand_made_ensemble([member]),
        entity_clouds={"e": cloud},
        relation_clouds={},
        diameters={"e": diameter},
    )


def reference_build_aggregate(ens, dedup_tolerance=1e-6, max_cloud_diameter=None):
    """Member selection as it was first written: (index, member, alignment)
    triples, every cloud pooled again for each candidate under a diameter
    bound, and the candidate rejected when the worst diameter over all terms
    exceeds the bound."""
    if not ens.members:
        raise DegenerateAggregateError("ensemble has no members")
    retained = []
    for idx, member in enumerate(ens.members):
        if not retained:
            identity = Alignment(
                linear_map=np.eye(member.dimension),
                translation=np.zeros(member.dimension),
                residual=0.0,
            )
            retained.append((idx, member, identity))
            continue
        if any(align(member, kept).residual <= dedup_tolerance for _, kept, _ in retained):
            continue
        alignment = align(member, retained[0][1])
        if max_cloud_diameter is not None:
            ent_clouds, rel_clouds = _reference_pool(retained + [(idx, member, alignment)])
            worst = max(
                (_reference_diameter(c) for c in [*ent_clouds.values(), *rel_clouds.values()]),
                default=0.0,
            )
            if worst > max_cloud_diameter:
                continue
        retained.append((idx, member, alignment))
    if len(retained) < 2:
        raise DegenerateAggregateError(
            f"only {len(retained)} member(s) retained; aggregate needs at least 2"
        )
    entity_clouds, relation_clouds = _reference_pool(retained)
    diameters = {t: _reference_diameter(c) for t, c in entity_clouds.items()}
    diameters.update({t: _reference_diameter(c) for t, c in relation_clouds.items()})
    return AggregateModel(
        member_indices=tuple(idx for idx, _, _ in retained),
        ensemble=Ensemble(tuple(member for _, member, _ in retained), ens.kb_digest,
                          tuple(ens.reports[idx] for idx, _, _ in retained)),
        entity_clouds=entity_clouds,
        relation_clouds=relation_clouds,
        diameters=diameters,
    )


def _reference_pool(retained):
    first = retained[0][1]
    ent_stack = np.array(
        [m.entity_array @ a.linear_map.T + a.translation for _, m, a in retained]
    )
    rel_stack = np.array([m.relation_array @ a.linear_map.T for _, m, a in retained])
    entity_clouds = {t: ent_stack[:, j, :].copy() for j, t in enumerate(first.entity_names)}
    relation_clouds = {t: rel_stack[:, j, :].copy() for j, t in enumerate(first.relation_names)}
    return entity_clouds, relation_clouds


def _reference_diameter(points):
    if points.shape[0] < 2:
        return 0.0
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt(np.max(np.sum(diff * diff, axis=2))))


def assert_matches_reference(ens, **options):
    """``build_aggregate`` equals the reference bit for bit, or both raise
    the same degenerate error.  Returns the reference model, or None."""
    try:
        expected = reference_build_aggregate(ens, **options)
    except DegenerateAggregateError as exc:
        with pytest.raises(DegenerateAggregateError) as got:
            build_aggregate(ens, **options)
        assert str(got.value) == str(exc)
        return None
    agg = build_aggregate(ens, **options)
    assert agg.member_indices == expected.member_indices
    assert agg.members == expected.members
    for field in ("entity_clouds", "relation_clouds"):
        clouds, reference = getattr(agg, field), getattr(expected, field)
        assert list(clouds) == list(reference)
        for term, cloud in reference.items():
            assert clouds[term].shape == cloud.shape
            assert clouds[term].tobytes() == cloud.tobytes()
            assert not clouds[term].flags.writeable
    assert list(agg.diameters.items()) == list(expected.diameters.items())
    return expected


def pairwise_distances(agg):
    """Every distinct distance between two points of one cloud."""
    out = set()
    for cloud in [*agg.entity_clouds.values(), *agg.relation_clouds.values()]:
        for i in range(len(cloud)):
            for j in range(i + 1, len(cloud)):
                diff = cloud[i] - cloud[j]
                out.add(float(np.sqrt(np.sum(diff * diff))))
    return sorted(out)


def pair_residuals(members):
    """Every distinct rigid residual between two members, above 1e-8: below
    that a residual is the rounding of a rigid copy, where the batched and
    the per-pair residual need not agree to a relative 1e-6."""
    found = {align(a, b).residual for a in members for b in members if a is not b}
    return sorted(r for r in found if r > 1e-8)


def on_both_sides(values):
    """Each value and its two floating-point neighbours."""
    return [b for v in values for b in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]


def around(values):
    """Each value times 1 - 1e-6 and times 1 + 1e-6."""
    return [b for v in values for b in (v * (1.0 - 1e-6), v * (1.0 + 1e-6))]


def image_map(rng, d, grid=False):
    """The linear part of an image of a member: orthogonal (reflected half
    the time) or that times 0.5 or 0.999.  On the grid the orthogonal map
    is a signed permutation and the scale 0.5, so coordinates stay on a
    (finer) grid."""
    if grid:
        orthogonal = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
        return orthogonal * rng.choice([1.0, 0.5])
    return random_orthogonal(rng, d, bool(rng.random() < 0.5)) * rng.choice([1.0, 0.5, 0.999])


@st.composite
def hypothesis_ensembles(draw):
    """2-6 members of random geometry in d = 1-3; some are orthogonal or
    scaled images of an earlier member, and coordinates may sit on a coarse
    grid so that cloud distances tie."""
    d = draw(st.integers(1, 3))
    n_ent, n_rel = draw(st.integers(1, 5)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())
    cfg = EmbeddingConfig(dimension=d)

    def coords(rows):
        x = rng.uniform(-2.0, 2.0, (rows, d))
        return np.round(x * 2.0) / 2.0 if grid else x

    members = []
    for seed in range(draw(st.integers(2, 6))):
        if members and rng.random() < 0.3:
            base = members[int(rng.integers(len(members)))]
            linear = image_map(rng, d, grid)
            ents = base.entity_array @ linear.T + coords(1)
            rels = base.relation_array @ linear.T
        else:
            ents, rels = coords(n_ent), coords(n_rel)
        members.append(Embedding(
            tuple(f"e{i}" for i in range(n_ent)), tuple(f"r{i}" for i in range(n_rel)),
            ents, rels, cfg, seed,
        ))
    return hand_made_ensemble(members)


class TestMatchesReference:
    def test_friend_ensemble(self, friend_ensemble):
        unbounded = assert_matches_reference(friend_ensemble)
        distances = pairwise_distances(unbounded)
        picked = [distances[i] for i in np.linspace(0, len(distances) - 1, 6).astype(int)]
        for bound in [0.5, 2.0] + on_both_sides(picked):
            assert_matches_reference(friend_ensemble, max_cloud_diameter=bound)
        residuals = pair_residuals(friend_ensemble.members[:6])
        for tol in [0.3] + around(residuals[::5]):
            assert_matches_reference(friend_ensemble, dedup_tolerance=tol)

    @settings(max_examples=60, deadline=None)
    @given(ens=hypothesis_ensembles(), data=st.data())
    def test_hypothesis_ensembles(self, ens, data):
        assert_residuals_match(ens.members)
        unbounded = assert_matches_reference(ens)
        if unbounded is not None:
            distances = pairwise_distances(unbounded)
            picked = data.draw(st.lists(st.sampled_from(distances), max_size=6)) if distances else []
            for bound in on_both_sides([0.0, *picked]):
                if bound < 0.0:  # the neighbour below a zero distance
                    with pytest.raises(ValueError, match="non-negative number"):
                        build_aggregate(ens, max_cloud_diameter=bound)
                else:
                    assert_matches_reference(ens, max_cloud_diameter=bound)
        residuals = pair_residuals(ens.members)
        picked = data.draw(st.lists(st.sampled_from(residuals), max_size=4)) if residuals else []
        for tol in around(picked):
            assert_matches_reference(ens, dedup_tolerance=tol)
            assert_matches_reference(ens, dedup_tolerance=tol, max_cloud_diameter=1.0)


@st.composite
def degenerate_members(draw):
    """2-5 members in d = 1-3 whose entity designs are often rank deficient:
    fewer entities than d + 1, all points equal, or all points on one line,
    with or without relations; some members are orthogonal or scaled images
    of another."""
    d = draw(st.integers(1, 3))
    n_ent, n_rel = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = EmbeddingConfig(dimension=d)
    members = []
    for seed in range(draw(st.integers(2, 5))):
        shape = draw(st.sampled_from(["general", "equal", "line", "image"]))
        rels = rng.uniform(-2.0, 2.0, (n_rel, d))
        if shape == "equal":
            ents = np.repeat(rng.uniform(-2.0, 2.0, (1, d)), n_ent, axis=0)
        elif shape == "line":
            ents = rng.uniform(-2.0, 2.0, (n_ent, 1)) * rng.uniform(-2.0, 2.0, (1, d))
            ents = ents + rng.uniform(-2.0, 2.0, (1, d))
        elif shape == "image" and members:
            base = members[int(rng.integers(len(members)))]
            linear = image_map(rng, d)
            ents = base.entity_array @ linear.T + rng.uniform(-2.0, 2.0, (1, d))
            rels = base.relation_array @ linear.T
        else:
            ents = rng.uniform(-2.0, 2.0, (n_ent, d))
        members.append(Embedding(
            tuple(f"e{i}" for i in range(n_ent)), tuple(f"r{i}" for i in range(n_rel)),
            ents, rels, cfg, seed,
        ))
    return tuple(members)


class TestResidualScreen:
    @pytest.mark.parametrize("n_rel", [0, 2])
    def test_members_without_entities(self, n_rel):
        cfg = EmbeddingConfig(dimension=2)
        rng = np.random.default_rng(n_rel)
        names = tuple(f"r{i}" for i in range(n_rel))
        members = [
            Embedding((), names, np.empty((0, 2)), rng.uniform(-2.0, 2.0, (n_rel, 2)), cfg, seed)
            for seed in range(3)
        ]
        assert_residuals_match(members)

    @settings(max_examples=60, deadline=None)
    @given(members=degenerate_members(), data=st.data())
    def test_rank_deficient_ensembles_match_reference(self, members, data):
        assert_residuals_match(members)
        ens = hand_made_ensemble(members)
        assert_matches_reference(ens)
        residuals = pair_residuals(members)
        picked = data.draw(st.lists(st.sampled_from(residuals), max_size=4)) if residuals else []
        for tol in around(picked):
            assert_matches_reference(ens, dedup_tolerance=tol)


SCREEN_TOLERANCES = [0.0, 1e-12, 1e-6, 1e-2, 1e9]


def assert_screen_matches(terms, entities, tolerances=SCREEN_TOLERANCES):
    """:func:`_rigid_duplicates` equals ``residual <= tol`` over every pair
    of the stack, at each tolerance; a pair whose cross product overflowed
    has a NaN residual, so it is no duplicate either way."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = stack_residuals(terms, entities)
        for tol in tolerances:
            np.testing.assert_array_equal(_rigid_duplicates(terms, entities, tol), residual <= tol)


@st.composite
def screen_stacks(draw):
    """A stack of 2-6 members in d = 1-3 over 0-5 entities and 0-2
    relations: random members at scale 1, 1e-3 or 1e200 (whose squares
    overflow), exact rigid images of an earlier member, and images scaled
    by 1 +- delta, whose norm gap is their whole residual.  Returns the
    stack and its entity count."""
    d, n_ent, n_rel = draw(st.integers(1, 3)), draw(st.integers(0, 5)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["random", "rigid", "scaled"])) if members else "random"
        if kind == "random":
            scale = draw(st.sampled_from([1.0, 1e-3, 1e200]))
            members.append(scale * rng.uniform(-2.0, 2.0, (n_ent + n_rel, d)))
            continue
        factor = 1.0 + (kind == "scaled") * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9, -1)
        image = factor * members[int(rng.integers(len(members)))] @ random_orthogonal(
            rng, d, bool(rng.random() < 0.5)).T
        image[:n_ent] += rng.uniform(-2.0, 2.0, d)
        members.append(image)
    return np.array(members), n_ent


class TestNormScreen:
    @settings(max_examples=150, deadline=None)
    @given(case=screen_stacks(), data=st.data())
    def test_decisions_match_the_residuals(self, case, data):
        terms, entities = case
        with np.errstate(over="ignore", invalid="ignore"):
            found = stack_residuals(terms, entities)
        found = sorted({float(r) for r in found.ravel() if np.isfinite(r)})
        picked = data.draw(st.lists(st.sampled_from(found), max_size=4))
        nearby = [tol for tol in on_both_sides(picked) if tol >= 0.0]
        assert_screen_matches(terms, entities, SCREEN_TOLERANCES + nearby)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tight_bound_at_the_residual(self, d):
        # A scaled copy's norm gap equals its residual in exact arithmetic,
        # so at a tolerance equal to the computed residual, or one float
        # either side, only the margin keeps the decision the SVD's.
        rng = np.random.default_rng(d)
        for _ in range(40):
            base = rng.uniform(-2.0, 2.0, (5, d)) * 10.0 ** rng.uniform(-3, 3)
            factors = 1.0 + rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-12, -1, 4)
            terms = np.array([base, *(f * base for f in factors)])
            picked = stack_residuals(terms, 3)[0, 1:]
            assert_screen_matches(terms, 3, on_both_sides(picked))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("tolerance", [1e-12, 1e-6, 1e-2])
    def test_straddling_copies_go_to_the_svd(self, monkeypatch, d, tolerance):
        # A signed permutation of a member, translated by whole numbers, and
        # perturbed orthogonally to its centred rows to a residual of
        # tolerance * (1 +- 1e-3): its norm gap is of second order, so the
        # bound cannot settle it and the SVD decides.
        rng = np.random.default_rng(d)
        base = rng.uniform(-2.0, 2.0, (d + 3 + 2, d)) * min(1.0, tolerance * 1e6)
        centred = _centred(base[None], d + 3)[0]
        direction = rng.normal(size=base.shape)
        direction[:d + 3] -= direction[:d + 3].mean(axis=0)
        direction -= np.sum(direction * centred) / np.sum(centred * centred) * centred
        signed = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
        sent = []

        def counted_residuals(stack, first, second):
            sent.append(len(first))
            return _rigid_residuals(stack, first, second)

        monkeypatch.setattr(aggregate, "_rigid_residuals", counted_residuals)
        for side in (1 - 1e-3, 1 + 1e-3):
            step = tolerance * side
            for _ in range(4):  # the residual is nearly linear in the step
                copy = (base + step * direction) @ signed.T
                copy[:d + 3] += rng.integers(-3, 4, d)
                terms = np.array([base, copy])
                step *= tolerance * side / stack_residuals(terms, d + 3)[0, 1]
            sent.clear()
            duplicate = _rigid_duplicates(terms, d + 3, tolerance)
            assert sent == [1]
            assert duplicate[0, 1] == (side < 1)
            assert_screen_matches(terms, d + 3, [tolerance])

    @pytest.mark.parametrize("n_rel", [0, 2])
    def test_stores_without_entities(self, n_rel):
        rng = np.random.default_rng(n_rel)
        terms = rng.uniform(-2.0, 2.0, (4, n_rel, 2))
        terms[1] = -terms[0]
        assert_screen_matches(terms, 0, SCREEN_TOLERANCES + list(stack_residuals(terms, 0)[0]))

    def test_default_friends_aggregate_runs_no_procrustes_svd(self, friend_ensemble, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def counted_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        agg = build_aggregate(friend_ensemble)
        # Only align's one d x d SVD per retained member after the reference.
        assert shapes == [(1, 1)] * (len(agg.member_indices) - 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_procrustes_factor_is_orthogonal_within_the_margin(self, d):
        # The margin takes Q's singular values to lie within 1 +- 8 d^2 eps.
        rng = np.random.default_rng(d)
        eps = np.finfo(float).eps
        for k in range(400):
            cross = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-150, 150)
            if k % 3 == 1:
                cross[:, 0] = 0.0
            elif k % 3 == 2:
                cross = np.outer(cross[:, 0], rng.normal(size=d))
            u, _, vt = np.linalg.svd(cross)
            singular = np.linalg.svd(u @ vt, compute_uv=False)
            assert np.max(np.abs(singular - 1.0)) <= 8 * d * d * eps


def pairwise(points):
    """The matrix of distances between the rows of ``points``."""
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def assert_images_isometric(agg):
    """Each retained member's images in the clouds keep that member's
    distances between entity points and between relation vectors (and the
    origin, which a linear map fixes), within 1e-12 times the coordinate
    scale."""
    for k, member in enumerate(agg.members):
        d = member.dimension
        origin = np.zeros((1, d))
        image_ents = np.array([agg.entity_clouds[t][k] for t in member.entity_names]).reshape(-1, d)
        image_rels = np.array([agg.relation_clouds[t][k] for t in member.relation_names]).reshape(-1, d)
        pairs = [
            (member.entity_array, image_ents),
            (np.concatenate([member.relation_array, origin]), np.concatenate([image_rels, origin])),
        ]
        for native, image in pairs:
            scale = max(np.max(np.abs(native), initial=0.0), np.max(np.abs(image), initial=0.0))
            np.testing.assert_allclose(pairwise(image), pairwise(native), rtol=0, atol=1e-12 * scale)


class TestIsometricClouds:
    def test_friend_ensemble(self, friend_ensemble):
        assert_images_isometric(build_aggregate(friend_ensemble))

    @pytest.mark.parametrize("tolerance", [1e-3, 1e-2])
    def test_chain_store(self, chain_ensemble, tolerance):
        assert_images_isometric(build_aggregate(chain_ensemble, dedup_tolerance=tolerance))

    def test_chain_store_cloud_shows_its_unknown_rows(self, chain_ensemble):
        # The kept members disagree on 7 unstated rows; rigid images keep
        # that disagreement visible in the relation's cloud.
        agg = build_aggregate(chain_ensemble, dedup_tolerance=1e-2)
        assert agg.diameters["next"] > 0.2

    @settings(max_examples=60, deadline=None)
    @given(members=degenerate_members())
    def test_rank_deficient_ensembles(self, members):
        try:
            agg = build_aggregate(hand_made_ensemble(members))
        except DegenerateAggregateError:
            return
        assert_images_isometric(agg)
