"""Synthetic scene generator, verifier, feature stub and IO tests."""

import dataclasses
import json
import math

import numpy as np
import pytest

from speechground.errors import DataError, UsageError
from speechground.grounding import (GenConfig, SceneObject, SyntheticScene,
                                    audio_embedding, cloud_stats, generate_scenes,
                                    label_embedding, object_feature_stub,
                                    object_features, object_representation,
                                    object_representations, read_scenes,
                                    verify_scene, write_scenes)
from speechground.grounding import scene as scene_module
from tests import scene_reference as reference


def make_object(class_id, center):
    """Two-point object whose bbox center lands exactly on `center`."""
    center = np.asarray(center, dtype=np.float64)
    xyz = center + np.array([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])
    rgb = np.full((2, 3), 0.5)
    return SceneObject.from_points(np.concatenate([xyz, rgb], axis=1), class_id)


def hand_scene(objects, target_index, relation_id, target_class=0,
               mentioned=(0, 1)):
    return SyntheticScene(objects, np.zeros(4), target_class, mentioned,
                          relation_id, target_index)


class TestGenConfig:
    def test_validation(self):
        with pytest.raises(UsageError, match="num_scenes"):
            GenConfig(num_scenes=-1)
        with pytest.raises(UsageError, match="classes"):
            GenConfig(num_scenes=1, num_classes=1)
        with pytest.raises(UsageError, match="at most 10000"):
            GenConfig(num_scenes=1, num_classes=10_001)
        for bad in (dict(seed=-1), dict(embed_seed=-1)):
            with pytest.raises(UsageError, match="non-negative"):
                GenConfig(num_scenes=1, **bad)
        with pytest.raises(UsageError, match="point"):
            GenConfig(num_scenes=1, points_per_object=0)

    def test_config_holds_only_what_callers_set(self):
        # the audio noise and the uniform class draw are scene.py constants
        assert [f.name for f in dataclasses.fields(GenConfig)] == [
            "num_scenes", "num_classes", "points_per_object", "d_audio", "seed",
            "embed_seed"]

    # each value once let the generator emit scenes that read_scenes refuses
    @pytest.mark.parametrize("d_audio", [0, -1])
    def test_d_audio(self, d_audio):
        with pytest.raises(UsageError, match="d_audio"):
            GenConfig(num_scenes=2, d_audio=d_audio)

    def test_edge_values_still_generate(self):
        config = GenConfig(num_scenes=3, d_audio=1)
        scenes = generate_scenes(config)
        assert [scene.audio.shape for scene in scenes] == [(1,)] * 3


class TestSceneObject:
    def test_box_summary_matches_cloud(self):
        rng = np.random.default_rng(31)
        points = np.concatenate(
            [rng.normal(size=(40, 3)), rng.uniform(size=(40, 3))], axis=1)
        obj = SceneObject.from_points(points, 3)
        np.testing.assert_allclose(obj.center, points[:, :3].mean(axis=0),
                                   atol=1e-12)
        extent = points[:, :3].max(axis=0) - points[:, :3].min(axis=0)
        np.testing.assert_allclose(obj.size, extent, atol=1e-12)
        assert obj.class_id == 3

    def test_point_validation(self):
        with pytest.raises(DataError, match="points"):
            SceneObject.from_points(np.zeros((0, 6)), 0)
        with pytest.raises(DataError, match="points"):
            SceneObject.from_points(np.zeros((4, 5)), 0)


class TestSceneValidation:
    def test_relation_id_bounds(self):
        objs = [make_object(0, [1, 1, 0]), make_object(0, [2, 1, 0]),
                make_object(1, [3, 1, 0])]
        with pytest.raises(DataError, match="relation_id"):
            hand_scene(objs, 0, relation_id=3)

    def test_target_index_bounds(self):
        objs = [make_object(0, [1, 1, 0]), make_object(1, [3, 1, 0])]
        with pytest.raises(DataError, match="target_index"):
            hand_scene(objs, 5, relation_id=0)

    def test_audio_must_be_a_non_empty_vector(self):
        objs = [make_object(0, [1, 1, 0]), make_object(1, [3, 1, 0])]
        for audio in (np.zeros(0), np.zeros((2, 2))):
            with pytest.raises(DataError, match="audio"):
                SyntheticScene(objs, audio, 0, (0,), 0, 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_audio_must_be_finite(self, value):
        objs = [make_object(0, [1, 1, 0]), make_object(1, [3, 1, 0])]
        with pytest.raises(DataError, match="audio must be finite"):
            SyntheticScene(objs, [0.0, value, 0.0], 0, (0,), 0, 0)

    def test_target_index_class_agreement(self):
        objs = [make_object(0, [1, 1, 0]), make_object(1, [3, 1, 0])]
        with pytest.raises(DataError, match="target_class"):
            hand_scene(objs, 1, relation_id=0)


class TestVerifyScene:
    def test_left_of(self):
        objs = [make_object(0, [2, 4, 0]), make_object(0, [6, 4, 0]),
                make_object(1, [5, 4, 0])]
        assert verify_scene(hand_scene(objs, 0, relation_id=0))

    def test_left_of_ambiguous(self):
        objs = [make_object(0, [2, 4, 0]), make_object(0, [3, 4, 0]),
                make_object(1, [5, 4, 0])]
        assert not verify_scene(hand_scene(objs, 0, relation_id=0))

    def test_left_of_boundary_is_strict(self):
        objs = [make_object(0, [5, 4, 0]), make_object(0, [6, 4, 0]),
                make_object(1, [5, 4, 0])]
        assert not verify_scene(hand_scene(objs, 0, relation_id=0))

    def test_right_of(self):
        objs = [make_object(0, [6, 4, 0]), make_object(0, [2, 4, 0]),
                make_object(1, [4, 4, 0])]
        assert verify_scene(hand_scene(objs, 0, relation_id=1))
        # the same layout fails when the target is the left candidate
        assert not verify_scene(hand_scene(objs, 1, relation_id=1))

    def test_nearest_to(self):
        objs = [make_object(0, [4, 5, 0]), make_object(0, [1, 1, 0]),
                make_object(1, [4, 4, 0])]
        assert verify_scene(hand_scene(objs, 0, relation_id=2))

    def test_nearest_to_tie_is_ambiguous(self):
        objs = [make_object(0, [4, 5, 0]), make_object(0, [4, 3, 0]),
                make_object(1, [4, 4, 0])]
        assert not verify_scene(hand_scene(objs, 0, relation_id=2))

    def test_needs_two_candidates(self):
        objs = [make_object(0, [2, 4, 0]), make_object(1, [5, 4, 0])]
        assert not verify_scene(hand_scene(objs, 0, relation_id=0))

    def test_needs_an_anchor(self):
        objs = [make_object(0, [2, 4, 0]), make_object(0, [6, 4, 0])]
        assert not verify_scene(
            hand_scene(objs, 0, relation_id=0, mentioned=(0,)))

    @staticmethod
    def x_scene(cand_xs, anchor_xs, target_index, relation_id, distractor_xs=()):
        """Candidates (class 0), anchors (class 1) and distractors (class 2) on the x axis."""
        objs = [SceneObject(None, class_id, [x, 4.0, 0.0], [0.2, 0.2, 0.2])
                for class_id, xs in ((0, cand_xs), (1, anchor_xs), (2, distractor_xs))
                for x in xs]
        return hand_scene(objs, target_index, relation_id)

    @pytest.mark.parametrize("cand_xs, anchor_xs, target_index, relation_id, expected", [
        ((-1.0, 0.0), (-0.0,), 0, 0, True),     # 0.0 is not left of -0.0
        ((1.0, -0.0), (0.0,), 0, 1, True),      # -0.0 is not right of 0.0
        ((0.0, 1.0), (-0.0, -2.0), 1, 1, True),  # 0.0 is not right of -0.0
        ((-0.0, 2.0), (0.0, 3.0), 0, 0, False),  # at the bound, so no hit
        ((2.0, 0.5), (0.5,), 0, 1, True),       # 0.5 sits exactly at the bound
    ])
    def test_signed_zero_and_the_bound(self, cand_xs, anchor_xs, target_index,
                                       relation_id, expected):
        scene = self.x_scene(cand_xs, anchor_xs, target_index, relation_id)
        assert verify_scene(scene) == reference.verify_scene(scene) == expected

    def test_matches_the_two_branch_verifier(self):
        # a coarse grid with both zeros puts candidates on the anchor bound often
        grid = (-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0)
        rng = np.random.default_rng(24)
        verdicts = []
        for _ in range(3000):
            cand_xs = rng.choice(grid, size=int(rng.integers(2, 5)))
            scene = self.x_scene(cand_xs, rng.choice(grid, size=int(rng.integers(1, 4))),
                                 int(rng.integers(len(cand_xs))), int(rng.integers(3)),
                                 rng.choice(grid, size=int(rng.integers(0, 3))))
            verdicts.append(verify_scene(scene))
            assert verdicts[-1] == reference.verify_scene(scene)
        assert 300 < sum(verdicts) < 2700


class TestGenerateScenes:
    def test_same_seed_is_identical(self):
        config = GenConfig(num_scenes=8, num_classes=5, seed=3)
        a = generate_scenes(config)
        b = generate_scenes(config)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.audio, sb.audio)
            assert sa.target_index == sb.target_index
            assert sa.target_class == sb.target_class
            for oa, ob in zip(sa.objects, sb.objects):
                np.testing.assert_array_equal(oa.points, ob.points)

    def test_different_seeds_differ(self):
        a = generate_scenes(GenConfig(num_scenes=4, seed=0))
        b = generate_scenes(GenConfig(num_scenes=4, seed=1))
        assert any(not np.array_equal(sa.audio, sb.audio)
                   for sa, sb in zip(a, b))

    def test_every_scene_is_verified_and_in_bounds(self):
        scenes = generate_scenes(GenConfig(num_scenes=30, num_classes=6, seed=9))
        assert len(scenes) == 30
        for scene in scenes:
            assert verify_scene(scene)
            assert 3 <= len(scene.objects) <= 10
            cands = [o for o in scene.objects
                     if o.class_id == scene.target_class]
            assert len(cands) >= 2
            present = {o.class_id for o in scene.objects}
            assert set(scene.mentioned_classes) <= present
            assert scene.target_class in scene.mentioned_classes

    def test_audio_stays_near_clean_embedding(self):
        config = GenConfig(num_scenes=10, num_classes=4, seed=5)
        for scene in generate_scenes(config):
            clean = audio_embedding(scene.target_class, scene.mentioned_classes,
                                    scene.relation_id, config.num_classes,
                                    config.d_audio, config.embed_seed)
            assert np.linalg.norm(scene.audio - clean) < 1.0

    def test_zero_scenes(self):
        assert generate_scenes(GenConfig(num_scenes=0)) == []


class TestFeatureStubs:
    def test_point_permutation_leaves_feature_unchanged(self):
        rng = np.random.default_rng(41)
        points = np.concatenate(
            [rng.normal(size=(50, 3)), rng.uniform(size=(50, 3))], axis=1)
        obj = SceneObject.from_points(points, 1)
        permuted = SceneObject.from_points(points[rng.permutation(50)], 1)
        np.testing.assert_allclose(object_feature_stub(permuted, 7),
                                   object_feature_stub(obj, 7), atol=1e-12)

    def test_translation_moves_only_the_center(self):
        rng = np.random.default_rng(42)
        points = np.concatenate(
            [rng.normal(size=(30, 3)), rng.uniform(size=(30, 3))], axis=1)
        obj = SceneObject.from_points(points, 2)
        shifted_points = points.copy()
        shift = np.array([5.0, -3.0, 2.0])
        shifted_points[:, :3] += shift
        shifted = SceneObject.from_points(shifted_points, 2)
        np.testing.assert_allclose(object_feature_stub(shifted, 7),
                                   object_feature_stub(obj, 7), atol=1e-9)
        np.testing.assert_allclose(shifted.center, obj.center + shift,
                                   atol=1e-9)
        np.testing.assert_allclose(shifted.size, obj.size, atol=1e-12)

    def test_representation_layout(self):
        obj = make_object(3, [1.0, 2.0, 3.0])
        rep = object_representation(obj, embed_seed=7)
        assert rep.shape == (46,)
        np.testing.assert_array_equal(rep[:32], object_feature_stub(obj, 7))
        np.testing.assert_array_equal(rep[32:40], label_embedding(3, 7))
        np.testing.assert_array_equal(rep[40:43], obj.center)
        np.testing.assert_array_equal(rep[43:46], obj.size)

    def test_shared_class_shares_label_block(self):
        a = object_representation(make_object(2, [0, 0, 0]), 7)
        b = object_representation(make_object(2, [9, 9, 9]), 7)
        np.testing.assert_array_equal(a[32:40], b[32:40])

    def test_cached_tables_match_fresh_draws_and_stay_private(self):
        from speechground.grounding import features

        obj = make_object(2, [1.0, 2.0, 3.0])
        first = object_feature_stub(obj, 7)
        label = label_embedding(2, 7)
        audio = audio_embedding(1, (1, 3), 2, 5, 16, 7)
        # each table equals a draw from a fresh seeded Generator
        np.testing.assert_array_equal(
            label, np.random.default_rng([7, 1, 2]).standard_normal(8))
        tables = [np.random.default_rng([7, stream]).standard_normal((rows, 16))
                  for stream, rows in ((2, 5), (3, 5), (4, 3))]
        np.testing.assert_array_equal(
            audio, tables[0][1] + tables[2][2] + tables[1][1] + tables[1][3])
        # the cached arrays are read-only and never handed out
        for table in (features._shape_projection(7),
                      features._label_row(7, 2),
                      *features._audio_tables(7, 5, 16)):
            assert not table.flags.writeable
        label[:] = 0.0
        first[:] = 0.0
        audio[:] = 0.0
        np.testing.assert_array_equal(
            label_embedding(2, 7),
            np.random.default_rng([7, 1, 2]).standard_normal(8))
        assert np.any(object_feature_stub(obj, 7) != 0.0)
        assert np.any(audio_embedding(1, (1, 3), 2, 5, 16, 7) != 0.0)

    def test_label_embedding_validation(self):
        with pytest.raises(UsageError, match="class_id"):
            label_embedding(-1, 7)

    def test_audio_embedding_is_additive_in_mentions(self):
        base = audio_embedding(1, (), 0, 5, 16, 7)
        with_a = audio_embedding(1, (2,), 0, 5, 16, 7)
        with_ab = audio_embedding(1, (2, 3), 0, 5, 16, 7)
        mention_b = audio_embedding(1, (3,), 0, 5, 16, 7) - base
        np.testing.assert_allclose(with_ab, with_a + mention_b, atol=1e-12)

    def test_audio_embedding_validation(self):
        with pytest.raises(UsageError, match="target_class"):
            audio_embedding(5, (), 0, 5, 16, 7)
        with pytest.raises(UsageError, match="mentioned"):
            audio_embedding(1, (9,), 0, 5, 16, 7)
        with pytest.raises(UsageError, match="relation_id"):
            audio_embedding(1, (), 7, 5, 16, 7)

    def test_baked_feature_dimension_check(self):
        cloud = make_object(0, [1.0, 2.0, 3.0])
        obj = SceneObject(None, 0, np.zeros(3), np.ones(3),
                          stats=cloud_stats([cloud])[0])
        np.testing.assert_array_equal(object_feature_stub(obj, 7),
                                      object_feature_stub(cloud, 7))
        # a 32-wide row, the width of the shape feature itself, is refused too
        for width in (11, 16, 32):
            short = SceneObject(None, 0, np.zeros(3), np.ones(3), stats=np.zeros(width))
            with pytest.raises(DataError, match="length"):
                object_feature_stub(short, 7)
        bare = SceneObject(None, 0, np.zeros(3), np.ones(3))
        with pytest.raises(DataError, match="neither"):
            object_feature_stub(bare, 7)


def random_cloud(rng, num_points, class_id=0):
    points = np.concatenate([rng.normal(size=(num_points, 3)),
                             rng.uniform(size=(num_points, 3))], axis=1)
    return SceneObject.from_points(points, class_id)


class TestObjectFeatures:
    """The batched features equal the per-object reference stub exactly."""

    @staticmethod
    def assert_rows_match_reference(objects):
        stats, feats = cloud_stats(objects), object_features(objects, 7)
        assert stats.shape == (len(objects), 12) and feats.shape == (len(objects), 32)
        for stat_row, row, obj in zip(stats, feats, objects):
            np.testing.assert_array_equal(stat_row, reference.cloud_stats(obj))
            np.testing.assert_array_equal(row, reference.object_feature_stub(obj, 7))

    def test_mixed_point_counts(self):
        rng = np.random.default_rng(51)
        self.assert_rows_match_reference(
            [random_cloud(rng, k) for k in (64, 1, 5, 64, 17, 5, 1, 64)])

    def test_degenerate_clouds_take_the_zero_radius_branch(self):
        rng = np.random.default_rng(52)
        one_point = random_cloud(rng, 1)
        identical = SceneObject.from_points(np.tile([1.5, -2.0, 0.5, 0.2, 0.4, 0.6],
                                                    (9, 1)), 3)
        # offsets whose squares underflow: radius 0 with a nonzero centered cloud
        tiny = SceneObject.from_points(
            np.concatenate([rng.normal(size=(9, 3)) * 1e-170, np.full((9, 3), 0.5)],
                           axis=1), 1)
        objects = [one_point, random_cloud(rng, 9), identical, tiny]
        self.assert_rows_match_reference(objects)

    def test_baked_features_mix_with_point_clouds(self):
        rng = np.random.default_rng(53)
        # objects read from a stats-form file, interleaved with point clouds
        carried = [SceneObject(None, 0, np.zeros(3), np.ones(3),
                               stats=rng.normal(size=12)) for _ in range(3)]
        clouds = [random_cloud(rng, k) for k in (8, 8, 3)]
        self.assert_rows_match_reference([carried[0], clouds[0], clouds[1], carried[1],
                                          clouds[2], carried[2]])

    def test_empty_list(self):
        assert object_features([], 7).shape == (0, 32)
        assert object_representations([], 7).shape == (0, 46)

    def test_bad_objects_are_refused(self):
        rng = np.random.default_rng(54)
        good = random_cloud(rng, 4)
        short = SceneObject(None, 0, np.zeros(3), np.ones(3), stats=np.zeros(16))
        with pytest.raises(DataError, match="length"):
            object_features([good, short], 7)
        with pytest.raises(DataError, match="neither"):
            object_features([good, SceneObject(None, 0, np.zeros(3), np.ones(3))], 7)

    def test_representation_rows(self):
        rng = np.random.default_rng(55)
        objects = [random_cloud(rng, k, class_id=c)
                   for k, c in ((6, 2), (1, 0), (6, 5))]
        reprs = object_representations(objects, 7)
        for row, obj in zip(reprs, objects):
            np.testing.assert_array_equal(row, np.concatenate([
                reference.object_feature_stub(obj, 7),
                label_embedding(obj.class_id, 7), obj.center, obj.size]))


class TestGeneratorMatchesReference:
    """The scene-batched generator and writer equal the per-object reference."""

    # "flat": every class is drawn with equal weight, the generator's only prior
    @pytest.mark.parametrize("num_points", [1, 64])
    @pytest.mark.parametrize("num_classes", [2, 6, 9, 200], ids=lambda n: f"flat-{n}")
    def test_scenes_are_identical(self, num_points, num_classes):
        config = GenConfig(num_scenes=12, num_classes=num_classes, seed=5,
                           points_per_object=num_points)
        fast_scenes = generate_scenes(config)
        slow_scenes = reference.generate_scenes(config)
        assert len(fast_scenes) == len(slow_scenes)
        for fast, slow in zip(fast_scenes, slow_scenes):
            assert (fast.target_class, fast.mentioned_classes, fast.relation_id,
                    fast.target_index) == (slow.target_class, slow.mentioned_classes,
                                           slow.relation_id, slow.target_index)
            assert np.array_equal(fast.audio, slow.audio)
            assert len(fast.objects) == len(slow.objects)
            for a, b in zip(fast.objects, slow.objects):
                assert a.class_id == b.class_id
                assert np.array_equal(a.points, b.points)
                assert np.array_equal(a.center, b.center)
                assert np.array_equal(a.size, b.size)

    @staticmethod
    def assert_same_scenes(fast_scenes, slow_scenes):
        assert len(fast_scenes) == len(slow_scenes)
        for fast, slow in zip(fast_scenes, slow_scenes):
            assert (fast.target_class, fast.mentioned_classes, fast.relation_id,
                    fast.target_index) == (slow.target_class, slow.mentioned_classes,
                                           slow.relation_id, slow.target_index)
            assert np.array_equal(fast.audio, slow.audio)
            assert [a.class_id for a in fast.objects] == [b.class_id for b in slow.objects]
            for a, b in zip(fast.objects, slow.objects):
                for name in ("points", "center", "size"):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize("num_scenes", [0, 1, 63, 64, 65, 130])
    def test_chunk_edges(self, num_scenes):
        config = GenConfig(num_scenes=num_scenes, points_per_object=3, seed=17)
        self.assert_same_scenes(generate_scenes(config), reference.generate_scenes(config))

    @pytest.mark.parametrize("num_scenes, seed, retried", [
        (10, 4, [5]),             # inside the first chunk
        (400, 3, [279, 368]),     # past the first chunk
    ])
    def test_rejected_scenes_draw_again(self, num_scenes, seed, retried, monkeypatch):
        config = GenConfig(num_scenes=num_scenes, points_per_object=1, num_classes=6,
                           seed=seed)
        fast_verdicts, slow_verdicts = [], []
        for module, verdicts in ((scene_module, fast_verdicts),
                                 (reference, slow_verdicts)):
            monkeypatch.setattr(module, "verify_scene",
                                lambda scene, verdicts=verdicts:
                                verdicts.append(verify_scene(scene)) or verdicts[-1])
        fast = generate_scenes(config)
        slow = reference.generate_scenes(config)
        # the reference really retried: one rejection per listed scene
        assert slow_verdicts.count(False) == len(retried)
        assert len(slow_verdicts) == num_scenes + len(retried)
        assert sorted(fast_verdicts) == sorted(slow_verdicts)
        self.assert_same_scenes(fast, slow)

    @pytest.mark.parametrize("cuts", [(), (1,), (64,), (63, 65), (0, 0, 7, 128, 129),
                                      (5, 69, 70, 71)])
    def test_any_split_of_the_range_is_the_whole(self, cuts):
        config = GenConfig(num_scenes=130, points_per_object=2, seed=23)
        bounds = [0, *cuts, config.num_scenes]
        parts = [scene for a, b in zip(bounds, bounds[1:])
                 for scene in generate_scenes(config, a, b)]
        self.assert_same_scenes(parts, generate_scenes(config))

    @pytest.mark.parametrize("start, stop", [(-1, 3), (4, 3), (0, 11), (11, 11)])
    def test_bad_range(self, start, stop):
        with pytest.raises(UsageError, match="range"):
            generate_scenes(GenConfig(num_scenes=10), start, stop)

    @pytest.mark.parametrize("prior", [(1.0,) * 6, (0.0, 1.0, 2.0, 0.0, 1.0, 2.0),
                                       (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)],
                             ids=["flat", "zeros", "one-hot"])
    def test_class_draw_is_the_choice_draw(self, prior):
        # the inverse-cdf lookup the generator makes in place of rng.choice
        p = np.asarray(prior) / sum(prior)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        for seed in range(2000):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            assert (cdf.searchsorted(fast.random(), side="right")
                    == slow.choice(len(p), p=p)), seed
            assert fast.random() == slow.random(), seed

    @pytest.mark.parametrize("include_points", [True, False],
                             ids=["points", "features"])
    def test_written_bytes_are_identical(self, include_points, tmp_path):
        # more scenes than one bake chunk, with clouds of mixed point counts
        scenes = [*generate_scenes(GenConfig(num_scenes=70, points_per_object=6, seed=8)),
                  *generate_scenes(GenConfig(num_scenes=5, points_per_object=1, seed=9))]
        fast, slow = tmp_path / "fast.jsonl", tmp_path / "slow.jsonl"
        write_scenes(fast, scenes, points=include_points)
        reference.write_scenes(slow, scenes, include_points=include_points)
        assert fast.read_bytes() == slow.read_bytes()


class TestSceneIO:
    def test_point_form_roundtrip(self, tmp_path):
        scenes = generate_scenes(GenConfig(num_scenes=5, seed=11))
        path = tmp_path / "scenes.jsonl"
        write_scenes(path, scenes)
        back = read_scenes(path)
        assert len(back) == 5
        for orig, copy in zip(scenes, back):
            np.testing.assert_array_equal(copy.audio, orig.audio)
            assert copy.target_class == orig.target_class
            assert copy.mentioned_classes == orig.mentioned_classes
            assert copy.relation_id == orig.relation_id
            assert copy.target_index == orig.target_index
            for oa, ob in zip(orig.objects, copy.objects):
                np.testing.assert_array_equal(ob.points, oa.points)
                np.testing.assert_allclose(ob.center, oa.center, atol=1e-12)

    def test_same_scenes_write_identical_bytes(self, tmp_path):
        config = GenConfig(num_scenes=4, seed=13)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_scenes(p1, generate_scenes(config))
        write_scenes(p2, generate_scenes(config))
        assert p1.read_bytes() == p2.read_bytes()

    def test_elided_form_bakes_features(self, tmp_path):
        scenes = generate_scenes(GenConfig(num_scenes=3, seed=17))
        path = tmp_path / "lean.jsonl"
        write_scenes(path, scenes, points=False)
        back = read_scenes(path)
        for orig, copy in zip(scenes, back):
            for oa, ob in zip(orig.objects, copy.objects):
                assert ob.points is None
                # the statistics round-trip exactly, so the features keep their bits
                np.testing.assert_array_equal(ob.stats, cloud_stats([oa])[0])
                np.testing.assert_array_equal(object_feature_stub(ob, 7),
                                              object_feature_stub(oa, 7))
                np.testing.assert_allclose(ob.center, oa.center, atol=1e-12)
        # re-serializing the parsed form is byte-stable
        again = tmp_path / "lean2.jsonl"
        write_scenes(again, back, points=False)
        assert again.read_bytes() == path.read_bytes()
        # without a seed the writer needs the points the parsed form lacks
        with pytest.raises(UsageError, match="no points"):
            write_scenes(again, back)

    def test_bad_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('not json\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            read_scenes(path)

    def test_bad_record_names_the_line(self, tmp_path):
        scenes = generate_scenes(GenConfig(num_scenes=1, seed=23))
        path = tmp_path / "mixed.jsonl"
        write_scenes(path, scenes)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"objects": []}\n')
        with pytest.raises(DataError, match="line 2"):
            read_scenes(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        scenes = generate_scenes(GenConfig(num_scenes=2, seed=29))
        path = tmp_path / "gaps.jsonl"
        write_scenes(path, scenes)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(lines[0] + "\n\n" + lines[1] + "\n", encoding="utf-8")
        assert len(read_scenes(path)) == 2


class TestBothFormsGiveOneInput:
    """A file with points and one with statistics give the model the same rows."""

    @pytest.mark.parametrize("embed_seed", [7, 11])
    def test_representations_are_bit_equal(self, embed_seed, tmp_path):
        # generated under seed 7; a model's seed projects the statistics of both forms
        scenes = generate_scenes(GenConfig(num_scenes=200, seed=71, embed_seed=7))
        want = object_representations([o for s in scenes for o in s.objects], embed_seed)
        for points in (True, False):
            path = tmp_path / "scenes.jsonl"
            write_scenes(path, scenes, points=points)
            back = [o for s in read_scenes(path) for o in s.objects]
            assert (back[0].points is None) != points
            assert np.array_equal(object_representations(back, embed_seed), want), points


class TestReaderMatchesReference:
    """read_scenes against the reader that checked every object on its own."""

    @pytest.mark.parametrize("include_points", [True, False])
    def test_objects_are_identical(self, include_points, tmp_path):
        path = tmp_path / "scenes.jsonl"
        write_scenes(path, generate_scenes(GenConfig(num_scenes=40, num_classes=5,
                                                     points_per_object=8, seed=61)),
                     points=include_points)
        got, want = read_scenes(path), reference.read_scenes(path)
        assert len(got) == len(want) == 40
        for fast, slow in zip(got, want):
            assert np.array_equal(fast.audio, slow.audio)
            assert ((fast.target_class, fast.mentioned_classes, fast.relation_id,
                     fast.target_index)
                    == (slow.target_class, slow.mentioned_classes, slow.relation_id,
                        slow.target_index))
            assert len(fast.objects) == len(slow.objects)
            for a, b in zip(fast.objects, slow.objects):
                assert type(a.class_id) is int and a.class_id == b.class_id
                for name in ("center", "size", "stats", "points"):
                    x, y = getattr(a, name), getattr(b, name)
                    if y is None:
                        assert x is None, name
                        continue
                    assert x.dtype == y.dtype == np.float64, name
                    assert x.shape == y.shape, name
                    assert np.array_equal(x, y), name

    def test_generated_and_feature_form_objects_skip_per_object_checks(
            self, tmp_path, monkeypatch):
        calls = []
        check = SceneObject.__post_init__
        monkeypatch.setattr(SceneObject, "__post_init__",
                            lambda obj: calls.append(obj) or check(obj))
        scenes = generate_scenes(GenConfig(num_scenes=6, seed=63))
        path = tmp_path / "lean.jsonl"
        write_scenes(path, scenes, points=False)
        assert len(read_scenes(path)) == 6
        assert calls == []
        write_scenes(path, scenes)
        read_scenes(path)
        assert len(calls) == sum(len(scene.objects) for scene in scenes)


class TestEverySceneIsChecked:
    """Generated scenes, retries included, pass the checks that read scenes pass."""

    def test_post_init_runs_once_per_generated_and_read_scene(
            self, tmp_path, monkeypatch):
        verdicts, calls = [], []
        monkeypatch.setattr(scene_module, "verify_scene",
                            lambda scene: verdicts.append(verify_scene(scene))
                            or verdicts[-1])
        check = SyntheticScene.__post_init__
        monkeypatch.setattr(SyntheticScene, "__post_init__",
                            lambda scene: calls.append(scene) or check(scene))
        scenes = generate_scenes(GenConfig(num_scenes=10, points_per_object=1, seed=4))
        # scene 5 is rejected once, so its second draw makes one more scene
        assert verdicts.count(False) == 1
        assert len(calls) == len(verdicts) == 11
        assert [sum(call is scene for call in calls) for scene in scenes] == [1] * 10
        assert not any(calls[5] is scene for scene in scenes)
        path = tmp_path / "scenes.jsonl"
        for points in (True, False):
            write_scenes(path, scenes, points=points)
            calls.clear()
            assert len(read_scenes(path)) == 10
            assert len(calls) == 10

    def test_fields_are_what_the_checks_would_make(self):
        config = GenConfig(num_scenes=30, num_classes=5, seed=65)
        for scene in generate_scenes(config):
            checked = SyntheticScene(scene.objects, scene.audio, scene.target_class,
                                     scene.mentioned_classes[::-1],
                                     scene.relation_id, scene.target_index)
            assert scene.mentioned_classes == checked.mentioned_classes
            assert type(scene.mentioned_classes) is tuple
            assert all(type(c) is int for c in scene.mentioned_classes)
            assert all(type(v) is int for v in (scene.target_class,
                                                 scene.relation_id,
                                                 scene.target_index))
            assert scene.audio.dtype == np.float64
            assert checked.audio is scene.audio


class TestFeatureFormChecks:
    """A bad stats-form record fails with the per-object message and its line."""

    @staticmethod
    def edited(tmp_path, edit):
        path = tmp_path / "lean.jsonl"
        write_scenes(path, generate_scenes(GenConfig(num_scenes=3, num_classes=4,
                                                     seed=67)),
                     points=False)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        edit(record["objects"])
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def assert_refused(self, tmp_path, edit, message):
        path = self.edited(tmp_path, edit)
        for reader in (read_scenes, reference.read_scenes):
            with pytest.raises(DataError) as info:
                reader(path)
            assert str(info.value) == f"line 2: bad scene record: {message}"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, -1])
    @pytest.mark.parametrize("field", ["center", "size", "stats"])
    def test_non_finite_value(self, field, slot, value, tmp_path):
        def edit(objects):
            obj = objects[slot]
            (obj if field == "stats" else obj["bbox"])[field][1] = value

        self.assert_refused(tmp_path, edit, f"object {field} must be finite")

    @pytest.mark.parametrize("field", ["center", "size"])
    def test_two_entry_box_vector(self, field, tmp_path):
        self.assert_refused(tmp_path, lambda objects: objects[-1]["bbox"][field].pop(),
                            "bbox center and size must have three entries each")

    def test_negative_class_id(self, tmp_path):
        self.assert_refused(tmp_path,
                            lambda objects: objects[-1].__setitem__("class_id", -2),
                            "class_id must be non-negative, got -2")

    def test_first_bad_object_names_the_error(self, tmp_path):
        def edit(objects):
            objects[0]["stats"][0] = math.nan
            objects[1]["bbox"]["center"].pop()

        self.assert_refused(tmp_path, edit, "object stats must be finite")

    def test_point_and_feature_objects_do_not_mix(self, tmp_path):
        def edit(objects):
            del objects[0]["stats"]
            objects[0]["points"] = [[0.0, 0.0, 0.0, 0.5, 0.5, 0.5]]

        path = self.edited(tmp_path, edit)
        with pytest.raises(DataError, match="^line 2: bad scene record: scene mixes "
                                            "point-form and stats-form objects$"):
            read_scenes(path)
