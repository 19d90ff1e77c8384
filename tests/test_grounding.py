"""Grounding model tests: attention, heads, loss, gradients, training."""

import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest

from speechground.errors import DataError, NumericError, UsageError
from speechground.grounding import (AttentionParams, EvalReport, GenConfig,
                                    GroundingConfig, GroundingFailure,
                                    GroundingModel, SceneObject,
                                    SyntheticScene, TrainConfig,
                                    attention_params_from, audio_embedding,
                                    audio_guided_attention, classify_audio,
                                    detect_mentions, evaluate, generate_scenes,
                                    gradient_check, ground, group_objects,
                                    init_grounding_model,
                                    load_checkpoint, loss_and_grads,
                                    object_representation, prepare_scene,
                                    save_checkpoint, train_toy)
from speechground.grounding.model import (_Batch, _batch_loss, _class_probs,
                                          _ground_grouped, _mention_probs, _pad,
                                          _predicted_groupings, _prepare_set,
                                          _softmax, _zero_grads, param_shapes)
from speechground.grounding import train as train_module
from speechground.grounding.features import D_REP
from speechground.grounding.scene import _CHUNK
from tests import grounding_reference as reference

# four classes and 16-wide audio, as `small_scenes` generates
SMALL = dict(num_classes=4, d_audio=16)


def small_model(seed=0):
    return init_grounding_model(GroundingConfig(**SMALL), seed=seed)


def small_scenes(n, seed):
    return generate_scenes(GenConfig(num_scenes=n, num_classes=4, d_audio=16,
                                     points_per_object=16, seed=seed))


def make_object(class_id, center):
    """Two-point object whose bbox center lands exactly on `center`."""
    center = np.asarray(center, dtype=np.float64)
    xyz = center + np.array([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])
    rgb = np.full((2, 3), 0.5)
    return SceneObject.from_points(np.concatenate([xyz, rgb], axis=1), class_id)


def hand_scene(objects, target_index, target_class, mentioned,
               relation_id=0, num_classes=4, d_audio=32, embed_seed=7):
    audio = audio_embedding(target_class, mentioned, relation_id,
                            num_classes, d_audio, embed_seed)
    return SyntheticScene(objects, audio, target_class, tuple(mentioned),
                          relation_id, target_index)


def zero_branch(model, prefix):
    for key in model.params:
        if key.startswith(prefix):
            model.params[key] = np.zeros_like(model.params[key])


def logit(p):
    p = np.asarray(p, dtype=np.float64)
    return np.log(p / (1.0 - p))


def rand_params(rng, heads, dh, d, da):
    def draw(*shape, fan):
        return rng.standard_normal(shape) / math.sqrt(fan)

    return AttentionParams(
        wq=draw(heads, dh, d, fan=d), wk=draw(heads, dh, d, fan=d),
        wv=draw(heads, dh, d, fan=d), wqa=draw(heads, dh, da, fan=da),
        wka=draw(heads, dh, da, fan=da), wva=draw(heads, dh, da, fan=da),
        wo=draw(d, heads * dh, fan=heads * dh))


class TestAudioGuidedAttention:
    @staticmethod
    def oracle(objects_q, objects_kv, audio, params):
        """Straight-line per-head evaluation, no shared helpers."""
        heads, dh, _ = params.wq.shape
        rows = []
        for o_i in objects_q:
            per_head = []
            for h in range(heads):
                q = params.wq[h] @ o_i + params.wqa[h] @ audio
                energies = []
                for o_j in objects_kv:
                    k = params.wk[h] @ o_j + params.wka[h] @ audio
                    energies.append(float(q @ k) / math.sqrt(dh))
                weights = [math.exp(e) for e in energies]
                total = sum(weights)
                assert abs(sum(w / total for w in weights) - 1.0) <= 1e-9
                ctx = np.zeros(dh)
                for w, o_j in zip(weights, objects_kv):
                    v = params.wv[h] @ o_j + params.wva[h] @ audio
                    ctx += (w / total) * v
                per_head.append(ctx)
            rows.append(params.wo @ np.concatenate(per_head))
        return np.stack(rows)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(900)
        for _ in range(50):
            heads = int(rng.integers(1, 4))
            dh = int(rng.integers(2, 7))
            d = int(rng.integers(5, 13))
            da = int(rng.integers(3, 9))
            params = rand_params(rng, heads, dh, d, da)
            oq = rng.standard_normal((int(rng.integers(1, 6)), d))
            okv = rng.standard_normal((int(rng.integers(1, 6)), d))
            audio = rng.standard_normal(da)
            got = audio_guided_attention(oq, okv, audio, params)
            np.testing.assert_allclose(
                got, self.oracle(oq, okv, audio, params),
                rtol=1e-12, atol=1e-12)

    def test_identical_objects_give_identical_outputs(self):
        # equal keys mean uniform weights, so averaging identical values
        # must reproduce the single key/value result exactly
        rng = np.random.default_rng(901)
        params = rand_params(rng, 2, 4, 7, 5)
        obj = rng.standard_normal(7)
        audio = rng.standard_normal(5)
        stacked = np.tile(obj, (4, 1))
        out = audio_guided_attention(stacked, stacked, audio, params)
        for row in out[1:]:
            np.testing.assert_allclose(row, out[0], atol=1e-12)
        single = audio_guided_attention(obj[None, :], obj[None, :], audio,
                                        params)
        np.testing.assert_allclose(out, np.tile(single[0], (4, 1)), atol=1e-12)

    def test_single_kv_ignores_the_query(self):
        rng = np.random.default_rng(902)
        params = rand_params(rng, 3, 2, 6, 4)
        kv = rng.standard_normal((1, 6))
        audio = rng.standard_normal(4)
        queries = rng.standard_normal((5, 6))
        out = audio_guided_attention(queries, kv, audio, params)
        per_head = [params.wv[h] @ kv[0] + params.wva[h] @ audio
                    for h in range(3)]
        expected = params.wo @ np.concatenate(per_head)
        np.testing.assert_allclose(out, np.tile(expected, (5, 1)), atol=1e-12)

    def test_zero_audio_maps_reduce_to_plain_attention(self):
        rng = np.random.default_rng(903)
        params = rand_params(rng, 2, 3, 8, 6)
        params.wqa[:] = 0.0
        params.wka[:] = 0.0
        params.wva[:] = 0.0
        objects = rng.standard_normal((4, 8))
        out_a = audio_guided_attention(objects, objects,
                                       rng.standard_normal(6), params)
        out_b = audio_guided_attention(objects, objects,
                                       rng.standard_normal(6), params)
        np.testing.assert_allclose(out_a, out_b, atol=1e-12)
        np.testing.assert_allclose(
            out_a, self.oracle(objects, objects, np.zeros(6), params),
            rtol=1e-12, atol=1e-12)

    def test_empty_kv_returns_zero_vectors(self):
        rng = np.random.default_rng(904)
        params = rand_params(rng, 2, 3, 5, 4)
        queries = rng.standard_normal((3, 5))
        out = audio_guided_attention(queries, np.zeros((0, 5)),
                                     rng.standard_normal(4), params)
        assert out.shape == (3, 5)
        assert np.all(out == 0.0)
        out = audio_guided_attention(queries, [], rng.standard_normal(4),
                                     params)
        assert np.all(out == 0.0)

    def test_dimension_validation(self):
        rng = np.random.default_rng(905)
        params = rand_params(rng, 2, 3, 5, 4)
        good_q = rng.standard_normal((2, 5))
        with pytest.raises(UsageError, match="width 5"):
            audio_guided_attention(rng.standard_normal((2, 6)), good_q,
                                   rng.standard_normal(4), params)
        with pytest.raises(UsageError, match="width 5"):
            audio_guided_attention(good_q, rng.standard_normal((2, 4)),
                                   rng.standard_normal(4), params)
        with pytest.raises(UsageError, match="audio"):
            audio_guided_attention(good_q, good_q, rng.standard_normal(3),
                                   params)

    def test_params_shape_validation(self):
        rng = np.random.default_rng(906)
        base = rand_params(rng, 2, 3, 5, 4)
        with pytest.raises(UsageError, match="wk"):
            AttentionParams(base.wq, base.wk[:, :, :4], base.wv, base.wqa,
                            base.wka, base.wva, base.wo)
        with pytest.raises(UsageError, match="wka"):
            AttentionParams(base.wq, base.wk, base.wv, base.wqa,
                            base.wka[:1], base.wva, base.wo)
        with pytest.raises(UsageError, match="wo"):
            AttentionParams(base.wq, base.wk, base.wv, base.wqa,
                            base.wka, base.wva, base.wo.T)

    def test_softmax_is_the_masked_attention_formula(self):
        # the formula attention used inline before it shared `_softmax`
        def inline(scores):
            top = scores.max(axis=3, keepdims=True)
            att = np.exp(scores - np.where(top == -np.inf, 0.0, top))
            total = att.sum(axis=3, keepdims=True)
            att /= np.where(total == 0.0, 1.0, total)
            return att

        rng = np.random.default_rng(907)
        for _ in range(20):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                     int(rng.integers(1, 6)), int(rng.integers(1, 7)))
            kmask = rng.random((shape[0], shape[3])) < 0.7
            kmask[0] = False  # a scene with no valid key
            scores = np.where(kmask[:, None, None, :], 3.0 * rng.standard_normal(shape),
                              -np.inf)
            got = _softmax(scores)
            assert np.array_equal(got, inline(scores))
            assert np.all(got[0] == 0.0)
            np.testing.assert_allclose(got[1:].sum(axis=3)[kmask[1:].any(axis=1)], 1.0,
                                       rtol=1e-12)

    def test_params_view_shares_model_storage(self):
        model = small_model(seed=1)
        view = attention_params_from(model, "self")
        assert view.wq is model.params["self0.wq"]
        assert view.wo is model.params["self0.wo"]
        view = attention_params_from(model, "cross")
        assert view.wka is model.params["cross0.wka"]


class TestAudioHeads:
    def test_classifier_is_a_distribution(self):
        rng = np.random.default_rng(910)
        for seed in range(20):
            model = small_model(seed=seed)
            probs = classify_audio(model, rng.standard_normal(16))
            assert probs.shape == (4,)
            assert np.all(probs >= 0.0)
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_zero_weight_classifier_is_uniform(self):
        model = small_model(seed=3)
        zero_branch(model, "cls.")
        probs = classify_audio(model, np.random.default_rng(911).standard_normal(16))
        np.testing.assert_allclose(probs, np.full(4, 0.25), rtol=1e-12)

    def test_mention_thresholding(self):
        model = init_grounding_model(GroundingConfig(num_classes=3), seed=0)
        zero_branch(model, "omd.")
        model.params["omd.b1"] = logit([0.7, 0.2, 0.9])
        audio = np.random.default_rng(912).standard_normal(32)
        probs, detected = detect_mentions(model, audio)
        np.testing.assert_allclose(probs, [0.7, 0.2, 0.9], rtol=1e-12)
        assert detected == (0, 2)

    def test_threshold_boundary_is_inclusive(self):
        # a probability exactly at the threshold counts as a mention
        model = init_grounding_model(GroundingConfig(num_classes=3), seed=0)
        zero_branch(model, "omd.")
        model.params["omd.b1"] = np.array([0.0, logit(0.2), logit(0.9)])
        probs, detected = detect_mentions(model, np.zeros(32))
        assert probs[0] == 0.5
        assert detected == (0, 2)


class TestGrouping:
    def test_chairs_tables_door(self):
        # interleaved so order preservation is visible
        objects = [make_object(c, [float(i), 0.0, 0.0])
                   for i, c in enumerate([0, 1, 0, 2, 1, 0])]
        cands, rels = group_objects(objects, 0, {1})
        assert cands == [0, 2, 5]
        assert rels == [1, 4]

    def test_no_mentions_means_no_relational_objects(self):
        objects = [make_object(0, [0.0, 0.0, 0.0]),
                   make_object(1, [1.0, 0.0, 0.0])]
        cands, rels = group_objects(objects, 0, set())
        assert cands == [0]
        assert rels == []

    def test_target_class_never_relational(self):
        objects = [make_object(0, [0.0, 0.0, 0.0]),
                   make_object(1, [1.0, 0.0, 0.0]),
                   make_object(0, [2.0, 0.0, 0.0])]
        cands, rels = group_objects(objects, 0, {0, 1})
        assert cands == [0, 2]
        assert rels == [1]

    def test_absent_target_class_yields_no_candidates(self):
        objects = [make_object(1, [0.0, 0.0, 0.0]),
                   make_object(2, [1.0, 0.0, 0.0])]
        cands, rels = group_objects(objects, 0, {2})
        assert cands == []
        assert rels == [1]


class TestPrepareScene:
    def test_baked_tensors(self):
        cfg = GroundingConfig(num_classes=4)
        objects = [make_object(0, [0.0, 0.0, 0.0]),
                   make_object(1, [2.0, 0.0, 0.0]),
                   make_object(0, [4.0, 0.0, 0.0])]
        scene = hand_scene(objects, target_index=2, target_class=0,
                           mentioned=(0, 1))
        batch = prepare_scene(cfg, scene)
        np.testing.assert_array_equal(batch.audio, [scene.audio])
        assert batch.target_class.tolist() == [0]
        assert batch.target_pos.tolist() == [1]  # second candidate
        np.testing.assert_array_equal(batch.mention_hot, [[1.0, 1.0, 0.0, 0.0]])
        cand = batch.cand[0, batch.cmask[0]]
        assert cand.shape == (2, D_REP)
        for row, idx in zip(cand, (0, 2)):
            np.testing.assert_array_equal(
                row, object_representation(objects[idx], cfg.embed_seed))
        rel = batch.rel[0, batch.rmask[0]]
        assert rel.shape == (1, D_REP)
        np.testing.assert_array_equal(
            rel[0], object_representation(objects[1], cfg.embed_seed))

    def test_no_relational_objects_bakes_empty_block(self):
        cfg = GroundingConfig(num_classes=4)
        objects = [make_object(0, [0.0, 0.0, 0.0]),
                   make_object(0, [2.0, 0.0, 0.0])]
        scene = hand_scene(objects, target_index=0, target_class=0,
                           mentioned=(0,))
        batch = prepare_scene(cfg, scene)
        assert batch.rel[0, batch.rmask[0]].shape == (0, D_REP)
        # one masked key column, so attention still has a key axis
        assert batch.rel.shape == (1, 1, D_REP)
        assert not batch.rmask.any()

    def test_validation(self):
        cfg = GroundingConfig(num_classes=4)
        objects = [make_object(0, [0.0, 0.0, 0.0]),
                   make_object(1, [2.0, 0.0, 0.0])]
        scene = hand_scene(objects, target_index=0, target_class=0,
                           mentioned=(0, 1))
        # mutate after construction to reach the defensive checks
        scene.target_class = 2
        with pytest.raises(DataError, match="not among its candidates"):
            prepare_scene(cfg, scene)
        scene = hand_scene(objects, 0, 0, (0, 1))
        scene.mentioned_classes = (0, 9)
        with pytest.raises(DataError, match="mentioned class 9"):
            prepare_scene(cfg, scene)
        scene = hand_scene(objects, 0, 0, (0, 1))
        scene.audio = np.zeros(5)
        with pytest.raises(DataError, match="audio width"):
            prepare_scene(cfg, scene)
        # target class 3 is a real object class but lies outside a
        # two-class config
        tall = hand_scene([make_object(3, [0.0, 0.0, 0.0]),
                           make_object(1, [2.0, 0.0, 0.0])],
                          0, 3, (1,))
        with pytest.raises(DataError, match="target class outside"):
            prepare_scene(GroundingConfig(num_classes=2, d_audio=32), tall)


def rigged_model(num_classes=4, seed=0):
    """Zeroed model: predicts class 0, mentions everything at 0.5."""
    model = init_grounding_model(GroundingConfig(num_classes=num_classes),
                                 seed=seed)
    for prefix in ("cls.", "omd.", "head.", "self", "cross"):
        zero_branch(model, prefix)
    return model


class TestGround:
    def test_single_candidate_wins_with_probability_one(self):
        model = rigged_model()
        objects = [make_object(1, [0.0, 0.0, 0.0]),
                   make_object(0, [2.0, 0.0, 0.0]),
                   make_object(2, [4.0, 0.0, 0.0])]
        scene = hand_scene(objects, target_index=1, target_class=0,
                           mentioned=(0, 1))
        result = ground(model, scene)
        assert result.winner_index == 1
        assert result.probs.shape == (1,)
        assert result.probs[0] == 1.0
        assert result.candidate_indices == (1,)
        assert result.predicted_class == 0

    def test_zero_initialized_heads_are_uniform(self):
        model = rigged_model()
        objects = [make_object(0, [float(i), 0.0, 0.0]) for i in range(3)]
        scene = hand_scene(objects, target_index=0, target_class=0,
                           mentioned=(0,))
        result = ground(model, scene)
        np.testing.assert_allclose(result.probs, np.full(3, 1 / 3), rtol=1e-12)
        assert result.winner_index == 0  # tie broken by argmax position

    def test_grounding_failure_when_predicted_class_absent(self):
        model = rigged_model()  # always predicts class 0
        objects = [make_object(1, [0.0, 0.0, 0.0]),
                   make_object(1, [2.0, 0.0, 0.0]),
                   make_object(2, [4.0, 0.0, 0.0])]
        scene = hand_scene(objects, target_index=0, target_class=1,
                           mentioned=(1, 2))
        with pytest.raises(GroundingFailure, match="cannot ground"):
            ground(model, scene)

    def test_relational_empty_flag(self):
        model = rigged_model()
        objects = [make_object(0, [0.0, 0.0, 0.0]),
                   make_object(0, [2.0, 0.0, 0.0])]
        scene = hand_scene(objects, target_index=0, target_class=0,
                           mentioned=(0,))
        result = ground(model, scene)
        # predicted mentions are every class at the 0.5 boundary, but
        # none of them except the target class is present in the scene
        assert result.predicted_mentions == (0, 1, 2, 3)
        assert result.relational_empty

    def test_audio_width_checked(self):
        model = rigged_model()
        objects = [make_object(0, [0.0, 0.0, 0.0])]
        scene = SyntheticScene(objects, np.zeros(7), 0, (0,), 0, 0)
        with pytest.raises(DataError, match="audio width"):
            ground(model, scene)

    def test_permutation_equivariance(self):
        scenes = generate_scenes(GenConfig(num_scenes=50, num_classes=5,
                                           seed=123))
        model = init_grounding_model(GroundingConfig(num_classes=5), seed=1)
        rng = np.random.default_rng(913)
        grounded = 0
        for scene in scenes:
            try:
                base = ground(model, scene)
            except GroundingFailure:
                continue
            grounded += 1
            perm = rng.permutation(len(scene.objects))
            new_target = int(np.where(perm == scene.target_index)[0][0])
            shuffled = SyntheticScene([scene.objects[p] for p in perm],
                                      scene.audio, scene.target_class,
                                      scene.mentioned_classes,
                                      scene.relation_id, new_target)
            moved = ground(model, shuffled)
            assert moved.predicted_class == base.predicted_class
            assert moved.predicted_mentions == base.predicted_mentions
            assert int(perm[moved.winner_index]) == base.winner_index
            base_probs = dict(zip(base.candidate_indices, base.probs))
            moved_probs = {int(perm[i]): p for i, p in
                           zip(moved.candidate_indices, moved.probs)}
            assert set(moved_probs) == set(base_probs)
            for idx, p in base_probs.items():
                assert abs(moved_probs[idx] - p) <= 1e-9
        assert grounded >= 10


class TestJointLoss:
    def test_total_is_weighted_sum_of_parts(self):
        model = small_model(seed=3)
        scenes = small_scenes(3, seed=20)
        total, parts, _ = loss_and_grads(model, scenes)
        assert parts.shape == (3,)
        assert np.all(parts >= 0.0)
        np.testing.assert_allclose(total, parts.sum(), rtol=1e-12)

    def test_batch_loss_is_the_scene_mean(self):
        model = small_model(seed=4)
        scenes = small_scenes(2, seed=21)
        _, parts_a, _ = loss_and_grads(model, scenes[:1])
        _, parts_b, _ = loss_and_grads(model, scenes[1:])
        _, parts_ab, _ = loss_and_grads(model, scenes)
        np.testing.assert_allclose(parts_ab, (parts_a + parts_b) / 2,
                                   rtol=1e-12)

    def test_perfect_predictions_cost_exactly_zero(self):
        # logits past +-800 underflow exp entirely, so every cross
        # entropy collapses to exactly 0.0
        model = rigged_model(num_classes=3)
        model.params["cls.b1"] = np.array([800.0, -800.0, -800.0])
        model.params["omd.b1"] = np.array([800.0, 800.0, -800.0])
        objects = [make_object(0, [0.0, 0.0, 0.0]),
                   make_object(1, [2.0, 0.0, 0.0])]
        scene = hand_scene(objects, target_index=0, target_class=0,
                           mentioned=(0, 1), num_classes=3)
        total, parts, _ = loss_and_grads(model, [scene])
        assert total == 0.0
        assert np.all(parts == 0.0)

    def test_gradients_cover_every_parameter(self):
        model = small_model(seed=5)
        scenes = small_scenes(1, seed=22)
        _, _, grads = loss_and_grads(model, scenes)
        assert set(grads) == set(model.params)
        for key, grad in grads.items():
            assert grad.shape == model.params[key].shape
            assert np.all(np.isfinite(grad))

    def test_empty_batch_rejected(self):
        with pytest.raises(UsageError, match="at least one scene"):
            loss_and_grads(small_model(), [])


class TestGradientCheck:
    def test_analytic_gradients_match_finite_differences(self):
        scenes = small_scenes(20, seed=77)
        for seed in range(20):
            model = small_model(seed=seed)
            err = gradient_check(model, [scenes[seed]],
                                 samples_per_tensor=2, seed=seed)
            assert err <= 1e-4, f"model seed {seed}: gradient error {err}"

    def test_batched_scenes_also_pass(self):
        model = small_model(seed=100)
        err = gradient_check(model, small_scenes(3, seed=78),
                             samples_per_tensor=4, seed=1)
        assert err <= 1e-4


class TestTraining:
    def test_loss_decreases_on_the_seeded_run(self):
        model = small_model(seed=0)
        records = train_toy(model, small_scenes(60, seed=5),
                            TrainConfig(epochs=8, batch_size=16, seed=0))
        assert len(records) == 8
        assert [r.epoch for r in records] == list(range(8))
        losses = [r.loss for r in records]
        assert all(np.isfinite(losses))
        assert losses[-1] < losses[0]
        for record in records:
            assert len(record.parts) == 3

    def test_zero_learning_rate_freezes_parameters(self):
        model = small_model(seed=2)
        before = {k: v.copy() for k, v in model.params.items()}
        train_toy(model, small_scenes(10, seed=6),
                  TrainConfig(epochs=3, batch_size=4, learning_rate=0.0))
        for key, old in before.items():
            np.testing.assert_array_equal(model.params[key], old)

    def test_training_is_deterministic(self):
        scenes = small_scenes(16, seed=7)
        config = TrainConfig(epochs=3, batch_size=8, seed=11)
        runs = []
        for _ in range(2):
            model = small_model(seed=4)
            records = train_toy(model, scenes, config)
            runs.append((records, model.params))
        assert [r.loss for r in runs[0][0]] == [r.loss for r in runs[1][0]]
        for key in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][key], runs[1][1][key])

    def test_duplicated_scenes_keep_the_mean_loss(self):
        model = small_model(seed=6)
        scenes = small_scenes(6, seed=8)
        total_once, parts_once, _ = loss_and_grads(model, scenes)
        total_twice, parts_twice, _ = loss_and_grads(model, scenes * 2)
        np.testing.assert_allclose(total_twice, total_once, rtol=1e-12)
        np.testing.assert_allclose(parts_twice, parts_once, rtol=1e-12)

    def test_non_finite_loss_aborts(self):
        model = small_model(seed=7)
        model.params["cls.w0"][0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            train_toy(model, small_scenes(4, seed=9),
                      TrainConfig(epochs=1, batch_size=4))

    def test_non_finite_last_step_aborts(self):
        # a gradient entry above 1.8 makes the first Adam step at 1e308 overflow
        # after a finite loss; with one step, no later loss check sees it
        model = small_model(seed=0)
        for key in ("cls.w0", "cls.b0", "cls.w1", "cls.b1"):
            model.params[key] *= 100.0
        with pytest.raises(NumericError, match="non-finite parameters after epoch 0"):
            train_toy(model, small_scenes(8, seed=5),
                      TrainConfig(epochs=1, batch_size=8, learning_rate=1e308))

    def test_config_validation(self):
        with pytest.raises(UsageError, match="positive"):
            TrainConfig(epochs=0)
        with pytest.raises(UsageError, match="positive"):
            TrainConfig(batch_size=0)
        with pytest.raises(UsageError, match="learning rate"):
            TrainConfig(learning_rate=-1e-3)
        for lr in (np.nan, np.inf):
            with pytest.raises(UsageError, match="learning rate must be finite"):
                TrainConfig(learning_rate=lr)
        with pytest.raises(UsageError, match="seed"):
            TrainConfig(seed=-1)
        with pytest.raises(UsageError, match="at least one scene"):
            train_toy(small_model(), [])

    def test_config_holds_only_the_schedule(self):
        # Adam's constants and the decay factor and period live in train.py, not here
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "epochs", "batch_size", "learning_rate", "seed"]


class TestTrainingMatchesReference:
    """train_toy against the loop that re-padded every minibatch, bit for bit."""

    @staticmethod
    def mixed_scenes():
        # generated scenes have 2-4 candidates and 1-2 relational objects;
        # every third keeps only the target among its mentions, so it has
        # none.  Two crowded scenes (6 and 9 candidates, 5 and 8 relational
        # objects) make the set's padding wider than most minibatches'.
        scenes = small_scenes(10, seed=90)
        for i in range(0, len(scenes), 3):
            s = scenes[i]
            scenes[i] = SyntheticScene(s.objects, s.audio, s.target_class,
                                       (s.target_class,), s.relation_id,
                                       s.target_index)
        for n_cand, n_rel in ((6, 5), (9, 8)):
            objects = ([make_object(2, [float(x), 1.0, 0.5]) for x in range(n_cand)]
                       + [make_object(3, [float(x), 4.0, 0.5]) for x in range(n_rel)]
                       + [make_object(1, [2.0, 6.0, 0.5])])
            scenes.append(hand_scene(objects, n_cand // 2, 2, (2, 3),
                                     num_classes=4, d_audio=16))
        return scenes

    @pytest.mark.parametrize("batch_size,learning_rate", [
        (4, 3e-3),    # divides the 12-scene set
        (5, 3e-3),    # leaves a short last batch
        (1, 3e-3),
        (7, 3e-3),
        (12, 3e-3),   # the whole set
        (20, 3e-3),   # more than the set
        (5, 0.0),
    ])
    def test_parameters_and_records_are_identical(self, batch_size, learning_rate):
        scenes = self.mixed_scenes()
        # six epochs, so the rate drops once, at epoch 5
        config = TrainConfig(epochs=6, batch_size=batch_size,
                             learning_rate=learning_rate, seed=17)
        fast = small_model(seed=23)
        slow = small_model(seed=23)
        start = {key: value.copy() for key, value in fast.params.items()}
        assert train_toy(fast, scenes, config) == reference.train_toy(slow, scenes,
                                                                      config)
        assert list(fast.params) == list(slow.params)
        for key, value in slow.params.items():
            assert np.array_equal(fast.params[key], value), key
        moved = any(not np.array_equal(fast.params[k], v) for k, v in start.items())
        assert moved == (learning_rate > 0)


class TestEvaluate:
    def test_rigged_model_scores_exactly(self):
        model = rigged_model(num_classes=3)
        model.params["omd.b1"] = np.array([500.0, -500.0, -500.0])
        objects = [make_object(0, [0.0, 0.0, 0.0]),
                   make_object(1, [2.0, 0.0, 0.0]),
                   make_object(0, [4.0, 0.0, 0.0])]
        scene = hand_scene(objects, target_index=0, target_class=0,
                           mentioned=(0, 1), num_classes=3)
        report = evaluate(model, [scene])
        # detected {0} against truth {0, 1}: one hit, one miss
        assert report == EvalReport(audio_accuracy=1.0,
                                    mention_precision=1.0,
                                    mention_recall=0.5,
                                    mention_f1=2 * 1.0 * 0.5 / 1.5,
                                    grounding_accuracy=1.0,
                                    failures=0, num_scenes=1)

    def test_failures_count_as_misses(self):
        model = rigged_model(num_classes=3)  # predicts class 0
        objects = [make_object(1, [0.0, 0.0, 0.0]),
                   make_object(1, [2.0, 0.0, 0.0])]
        scene = hand_scene(objects, target_index=0, target_class=1,
                           mentioned=(1,), num_classes=3)
        report = evaluate(model, [scene])
        assert report.failures == 1
        assert report.grounding_accuracy == 0.0
        assert report.num_scenes == 1

    def test_trained_model_report_is_consistent(self):
        model = small_model(seed=0)
        train_toy(model, small_scenes(40, seed=30),
                  TrainConfig(epochs=6, batch_size=16, seed=0))
        held_out = small_scenes(20, seed=31)
        report = evaluate(model, held_out)
        assert report.num_scenes == 20
        for value in (report.audio_accuracy, report.mention_precision,
                      report.mention_recall, report.mention_f1,
                      report.grounding_accuracy):
            assert 0.0 <= value <= 1.0
        assert 0 <= report.failures <= 20
        assert evaluate(model, held_out) == report

    def test_empty_rejected(self):
        with pytest.raises(UsageError, match="at least one scene"):
            evaluate(small_model(), [])


class TestOverflowingModel:
    """A finite model whose scores overflow is a numeric failure, not a ranking."""

    @staticmethod
    def scaled_model(scale):
        # with keys projected like queries, a candidate scores |q|^2 against
        # itself, which a 1e160 scale takes to +inf in every groundable scene
        model = small_model(seed=3)
        for key, query in (("self0.wk", "self0.wq"), ("self0.wka", "self0.wqa")):
            model.params[query] *= scale
            model.params[key][:] = model.params[query]
        return model

    def test_evaluate_and_ground_refuse_without_warnings(self):
        model, scenes = self.scaled_model(1e160), small_scenes(20, seed=31)
        # a scene with an object of its predicted class reaches attention
        groundable = next(scene for scene, (pred, _) in
                          zip(scenes, _predicted_groupings(model, scenes))
                          if any(o.class_id == pred for o in scene.objects))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match="scores are not finite"):
                evaluate(model, scenes)
            with pytest.raises(NumericError, match="scores are not finite"):
                ground(model, groundable)
        assert caught == []

    def test_overflowing_class_head_is_refused(self):
        # a constant hidden layer of tanh(1) against rows of +-1e308: logits +-inf
        model = small_model(seed=3)
        model.params["cls.w0"][:] = 0.0
        model.params["cls.b0"][:] = 1.0
        model.params["cls.w1"][:2] = [[1e308], [-1e308]]
        with pytest.raises(NumericError, match="scores are not finite"):
            evaluate(model, small_scenes(4, seed=31))

    def test_huge_but_finite_scores_still_rank(self):
        scenes = small_scenes(20, seed=31)
        report = evaluate(self.scaled_model(1e50), scenes)
        assert report.num_scenes == 20 and 0.0 <= report.grounding_accuracy <= 1.0


class TestCheckpoint:
    def test_roundtrip_is_exact(self, tmp_path):
        model = small_model(seed=9)
        train_toy(model, small_scenes(8, seed=40),
                  TrainConfig(epochs=1, batch_size=8))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert set(loaded.params) == set(model.params)
        for key, value in model.params.items():
            np.testing.assert_array_equal(loaded.params[key], value)

    def test_loaded_params_keep_initialization_order(self, tmp_path):
        # the file stores tensors by sorted name; a loaded model lays its
        # parameters out like a fresh one, so a flat buffer over them does too
        model = small_model(seed=13)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), model)
        loaded = load_checkpoint(str(path))
        assert list(loaded.params) == list(param_shapes(model.config))
        assert list(loaded.params) != sorted(loaded.params)
        again = tmp_path / "again.ckpt"
        save_checkpoint(str(again), loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_header_and_determinism(self, tmp_path):
        model = small_model(seed=10)
        path_a = tmp_path / "a.ckpt"
        path_b = tmp_path / "b.ckpt"
        save_checkpoint(str(path_a), model)
        save_checkpoint(str(path_b), model)
        blob = path_a.read_bytes()
        assert blob[:4] == b"A3VG"
        assert struct.unpack("<I", blob[4:8])[0] == 1
        assert blob == path_b.read_bytes()

    def test_bad_magic(self, tmp_path):
        model = small_model(seed=11)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model)
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"A3VG" + struct.pack("<I", 99))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(str(path))

    def test_truncated_file(self, tmp_path):
        model = small_model(seed=12)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model)
        path.write_bytes(path.read_bytes()[:-12])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(str(path))

    def test_missing_and_extra_tensors(self, tmp_path):
        model = small_model(seed=13)
        path = tmp_path / "m.ckpt"
        clipped = GroundingModel(model.config, dict(model.params))
        del clipped.params["cls.b0"]
        save_checkpoint(str(path), clipped)
        with pytest.raises(DataError, match="missing"):
            load_checkpoint(str(path))
        padded = GroundingModel(model.config, dict(model.params))
        padded.params["bogus.w9"] = np.zeros(3)
        save_checkpoint(str(path), padded)
        with pytest.raises(DataError, match="extra"):
            load_checkpoint(str(path))
        # a config tensor this build does not write is refused like a wrong one
        foreign = GroundingModel(model.config, {**model.params, "config.bogus": np.ones(1)})
        save_checkpoint(str(path), foreign)
        with pytest.raises(DataError, match="has unknown config.bogus"):
            load_checkpoint(str(path))

    def test_wrong_tensor_shape(self, tmp_path):
        model = small_model(seed=14)
        model.params["cls.w0"] = np.zeros((2, 2))
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model)
        with pytest.raises(DataError, match="cls.w0 has shape"):
            load_checkpoint(str(path))

    def test_implausible_name_length(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"A3VG" + struct.pack("<I", 1)
                         + struct.pack("<I", 100000))
        with pytest.raises(DataError, match="name length"):
            load_checkpoint(str(path))

    def test_missing_config_tensor(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"A3VG" + struct.pack("<I", 1))
        with pytest.raises(DataError, match="missing config"):
            load_checkpoint(str(path))


class TestGroundingConfig:
    def test_validation(self):
        with pytest.raises(UsageError, match="two classes"):
            GroundingConfig(num_classes=1)
        with pytest.raises(UsageError, match="at most 10000"):
            GroundingConfig(num_classes=10_001)
        with pytest.raises(UsageError, match="seed"):
            init_grounding_model(GroundingConfig(num_classes=3), seed=-1)
        for d_audio in (0, -4):
            with pytest.raises(UsageError, match="audio width must be positive"):
                GroundingConfig(num_classes=3, d_audio=d_audio)
        with pytest.raises(UsageError, match="embed_seed"):
            GroundingConfig(num_classes=3, embed_seed=-1)

    def test_representation_width(self):
        # a shape feature of 32, a label embedding of 8, the box center and size
        row = object_representation(make_object(0, [0.0, 0.0, 0.0]), embed_seed=7)
        assert row.shape == (D_REP,) == (32 + 8 + 6,)
        assert param_shapes(GroundingConfig(num_classes=3))["head.w0"] == (64, D_REP)

    def test_config_holds_only_the_settings(self):
        # the widths, loss weights and mention threshold are model.py's table
        assert [f.name for f in dataclasses.fields(GroundingConfig)] == [
            "num_classes", "d_audio", "embed_seed"]


class TestBatchedPath:
    """The padded, masked minibatch path against the per-scene loop."""

    @staticmethod
    def random_batch(rng, config, size):
        # 1-4 candidates per scene; about 30% of scenes have no
        # relational objects, the rest 1-3
        rows = []
        for _ in range(size):
            n = int(rng.integers(1, 5))
            m = 0 if rng.random() < 0.3 else int(rng.integers(1, 4))
            rows.append((rng.standard_normal(config.d_audio),
                         int(rng.integers(config.num_classes)),
                         (rng.random(config.num_classes) < 0.5).astype(np.float64),
                         rng.standard_normal((n, D_REP)),
                         rng.standard_normal((m, D_REP)),
                         int(rng.integers(n))))
        audio, target_class, mention_hot, cand, rel, target_pos = zip(*rows)
        return _Batch(np.stack(audio), np.array(target_class), np.stack(mention_hot),
                      *_pad(cand, D_REP), *_pad(rel, D_REP),
                      np.array(target_pos))

    def test_loss_and_grads_match_the_per_scene_reference(self):
        rng = np.random.default_rng(950)
        sizes = set()
        for trial in range(200):
            config = GroundingConfig(**SMALL)
            model = init_grounding_model(config, seed=trial)
            batch = self.random_batch(rng, config, int(rng.integers(1, 33)))
            sizes.add(len(batch.audio))
            grads = _zero_grads(model.params)
            total, parts = _batch_loss(model, batch, grads)
            ref_total, ref_parts, ref_grads = reference.loss_and_grads(model, batch)
            np.testing.assert_allclose(parts, ref_parts, rtol=1e-12, atol=0)
            np.testing.assert_allclose(total, ref_total, rtol=1e-12, atol=0)
            assert set(grads) == set(ref_grads)
            for key, ref_grad in ref_grads.items():
                scale = max(1.0, float(np.max(np.abs(ref_grad))))
                diff = float(np.max(np.abs(grads[key] - ref_grad)))
                assert diff <= 1e-12 * scale, f"trial {trial} {key}: {diff}"
        assert min(sizes) == 1 and max(sizes) >= 30

    def test_padded_batch_passes_gradient_check(self):
        scenes = small_scenes(4, seed=79)
        # keep only the target among the mentions: no relational objects
        first = scenes[0]
        scenes[0] = SyntheticScene(first.objects, first.audio,
                                   first.target_class, (first.target_class,),
                                   first.relation_id, first.target_index)
        model = small_model(seed=101)
        batch = _prepare_set(model.config, scenes)
        num_rel = batch.rmask.sum(axis=1)
        assert num_rel[0] == 0 and num_rel[1:].min() > 0
        assert len(set(batch.cmask.sum(axis=1).tolist())) > 1
        err = gradient_check(model, scenes, samples_per_tensor=3, seed=2)
        assert err <= 1e-4

    def test_prepared_set_matches_one_scene_batches(self):
        # more scenes than one representation chunk; every third keeps
        # only the target among its mentions, so it has no relational
        # objects, and a crowded scene sits just past the chunk boundary
        scenes = small_scenes(130, seed=91)
        for i in range(0, len(scenes), 3):
            s = scenes[i]
            scenes[i] = SyntheticScene(s.objects, s.audio, s.target_class,
                                       (s.target_class,), s.relation_id,
                                       s.target_index)
        objects = ([make_object(2, [float(x), 1.0, 0.5]) for x in range(7)]
                   + [make_object(3, [float(x), 4.0, 0.5]) for x in range(6)])
        scenes[_CHUNK + 1] = hand_scene(objects, 3, 2, (2, 3), d_audio=16)
        assert len(scenes) > 2 * _CHUNK
        config = small_model().config
        batch = _prepare_set(config, scenes)
        assert batch.cand.shape[1] == 7 and batch.rel.shape[1] == 6
        for b, scene in enumerate(scenes):
            one = prepare_scene(config, scene)
            for name in ("audio", "target_class", "mention_hot", "target_pos"):
                assert np.array_equal(getattr(batch, name)[b], getattr(one, name)[0])
            for block, mask in (("cand", "cmask"), ("rel", "rmask")):
                rows, keep = getattr(batch, block)[b], getattr(batch, mask)[b]
                alone = getattr(one, block)[0, getattr(one, mask)[0]]
                assert np.array_equal(rows[keep], alone)
                assert not rows[~keep].any()
        assert not batch.rmask[0].any() and batch.rmask[1].any()

    def test_evaluate_matches_per_scene_ground(self):
        # more scenes than one inference batch, so batch boundaries show
        scenes = generate_scenes(GenConfig(num_scenes=150, num_classes=5,
                                           seed=124))
        model = init_grounding_model(GroundingConfig(num_classes=5), seed=3)
        results = _ground_grouped(model, scenes,
                                  _predicted_groupings(model, scenes))
        hits = failures = empty = 0
        for scene, result in zip(scenes, results):
            try:
                single = ground(model, scene)
            except GroundingFailure as exc:
                assert isinstance(result, GroundingFailure)
                assert str(result) == str(exc)
                with pytest.raises(GroundingFailure):
                    reference.ground(model, scene)
                failures += 1
                continue
            assert np.array_equal(result.probs, single.probs)
            expected = reference.ground(model, scene)
            for got in (result, single):
                assert got.winner_index == expected.winner_index
                assert got.candidate_indices == expected.candidate_indices
                assert got.relational_empty == expected.relational_empty
                assert got.predicted_class == expected.predicted_class
                assert got.predicted_mentions == expected.predicted_mentions
                np.testing.assert_allclose(got.probs, expected.probs,
                                           rtol=0, atol=1e-12)
            hits += result.winner_index == scene.target_index
            empty += result.relational_empty
        assert 0 < failures < len(scenes)
        assert 0 < empty < len(scenes) - failures
        report = evaluate(model, scenes)
        assert report.failures == failures
        assert report.grounding_accuracy == hits / len(scenes)


class TestBatchInvariance:
    """A scene scores the same bits alone and in any batch, at any padded width."""

    @staticmethod
    def scenes():
        # generated scenes around hand-built ones that alternate 2 and 8-11
        # objects per class, so batch and _CHUNK boundaries fall among scenes
        # of at least 8 candidates and 24 relational objects and 2-candidate ones
        rng = np.random.default_rng(2026)
        mixed = []
        for k in range(24):
            per_class = 2 if k % 2 else 8 + k % 4
            objects = [make_object(c, rng.uniform(-3.0, 3.0, 3))
                       for c in range(4) for _ in range(per_class)]
            mixed.append(hand_scene(objects, (k % 4) * per_class, k % 4, range(4),
                                    relation_id=k % 3))
        generated = generate_scenes(GenConfig(num_scenes=110, num_classes=4, seed=77))
        return generated[:52] + mixed + generated[52:]

    def test_ground_alone_equals_its_row_in_every_batch(self):
        model = init_grounding_model(GroundingConfig(num_classes=4), seed=8)
        model.params["omd.b1"] += 20.0  # every class detected: wide relational blocks
        scenes = self.scenes()
        alone = {}
        for i, scene in enumerate(scenes):
            try:
                alone[i] = ground(model, scene)
            except GroundingFailure:
                pass
        rels = [len(group_objects(scenes[i].objects, r.predicted_class,
                                  r.predicted_mentions)[1]) for i, r in alone.items()]
        widths = [len(r.probs) for r in alone.values()]
        assert min(widths) <= 2 and max(widths) >= 8 and max(rels) >= 8
        for size in (1, 2, 63, 64, 65, len(scenes)):
            for start in range(0, len(scenes), size):
                part = scenes[start:start + size]
                results = _ground_grouped(model, part, _predicted_groupings(model, part))
                for i, result in enumerate(results, start):
                    if i in alone:
                        assert np.array_equal(result.probs, alone[i].probs), (size, i)
                    else:
                        assert isinstance(result, GroundingFailure), (size, i)

    @pytest.mark.parametrize("head", [_class_probs, _mention_probs])
    def test_head_rows_alone_equal_the_stacked_rows(self, head):
        model = init_grounding_model(GroundingConfig(num_classes=4), seed=8)
        audio = np.stack([scene.audio for scene in self.scenes()])
        stacked = head(model, audio)
        for row, expected in zip(audio, stacked):
            assert np.array_equal(head(model, row[None])[0], expected)


class TestStreamedEvaluation:
    """`evaluate` reads any iterable one chunk at a time, with the per-scene tallies."""

    @staticmethod
    def model():
        model = init_grounding_model(GroundingConfig(num_classes=4), seed=8)
        model.params["omd.b1"] += 20.0  # as in TestBatchInvariance
        return model

    def test_matches_a_tally_of_scenes_scored_alone(self):
        model, scenes = self.model(), TestBatchInvariance.scenes()
        assert len(scenes) > 2 * _CHUNK
        audio_hits = tp = fp = fn = hits = failures = 0
        for scene in scenes:
            [(pred_class, detected)] = _predicted_groupings(model, [scene])
            audio_hits += pred_class == scene.target_class
            truth, got = set(scene.mentioned_classes), set(detected)
            tp, fp, fn = tp + len(truth & got), fp + len(got - truth), fn + len(truth - got)
            try:
                hits += ground(model, scene).winner_index == scene.target_index
            except GroundingFailure:
                failures += 1
        report = evaluate(model, iter(scenes))
        assert 0 < failures < len(scenes) and 0 < hits
        assert (report.num_scenes, report.failures) == (len(scenes), failures)
        assert report.grounding_accuracy == hits / len(scenes)
        assert report.audio_accuracy == audio_hits / len(scenes)
        assert (report.mention_precision, report.mention_recall) == (tp / (tp + fp),
                                                                     tp / (tp + fn))
        assert evaluate(model, scenes) == report

    def test_reads_one_chunk_at_a_time(self, monkeypatch):
        scenes, drawn, calls = TestBatchInvariance.scenes(), [], []

        def stream():
            for scene in scenes:
                drawn.append(scene)
                yield scene

        original = train_module._predicted_groupings

        def spy(model, chunk):
            calls.append((len(drawn), len(chunk)))
            return original(model, chunk)

        monkeypatch.setattr(train_module, "_predicted_groupings", spy)
        evaluate(self.model(), stream())
        tail = len(scenes) - 2 * _CHUNK
        assert calls == [(_CHUNK, _CHUNK), (2 * _CHUNK, _CHUNK), (len(scenes), tail)]
