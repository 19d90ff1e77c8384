"""Per-object scene generator, shape feature and writer: the reference.

These are `_sample_object`, `_build_scene`, `generate_scenes`,
`object_feature_stub` and `write_scenes` as they were before
`speechground.grounding.scene._draw_scene` with `_build_scenes` (the
draws per scene, the arithmetic per chunk of scenes) and
`speechground.grounding.features.object_features` replaced them: each
object is drawn, summarized, projected and serialized by its own chain
of small numpy calls.  `read_scenes` is the reader that built and
checked every object on its own, before feature-form scenes were
checked as one block.  `verify_scene` is the verifier with one branch
for left-of and one for right-of, before right-of became left-of on the
mirrored x axis.  They are kept unchanged so the tests can compare the
two, except that `object_feature_stub` draws its own projection rather
than reading the package's cached table.  Nothing in `src/` imports
this module.
"""

import json

import numpy as np

from speechground.errors import DataError, UsageError
from speechground.grounding.features import audio_embedding
from speechground.grounding.scene import (RELATIONS, GenConfig, SceneObject,
                                          SyntheticScene, _class_tables,
                                          _json_int, group_objects)


def verify_scene(scene: SyntheticScene) -> bool:
    """True when exactly one candidate satisfies the relation: the target."""
    cands, anchors = group_objects(scene.objects, scene.target_class,
                                   scene.mentioned_classes)
    if len(cands) < 2 or not anchors:
        return False
    relation = RELATIONS[scene.relation_id]
    centers = [o.center for o in scene.objects]
    if relation == "left-of":
        bound = min(centers[a][0] for a in anchors)
        hits = [i for i in cands if centers[i][0] < bound]
    elif relation == "right-of":
        bound = max(centers[a][0] for a in anchors)
        hits = [i for i in cands if centers[i][0] > bound]
    else:
        dist = {i: min(np.linalg.norm(centers[i] - centers[a]) for a in anchors)
                for i in cands}
        best = min(cands, key=lambda i: dist[i])
        others = [dist[i] for i in cands if i != best]
        hits = [best] if dist[best] < min(others) else []
    return hits == [scene.target_index]


def object_feature_stub(obj, embed_seed: int) -> np.ndarray:
    """Shape feature of one object: a seeded projection of cloud statistics.

    The cloud is normalized into a unit ball (centered on its mean,
    scaled by the largest radius), summarized by per-axis mean, max and
    min plus the mean color, and pushed through a fixed random
    projection of 32 rows, drawn afresh from stream 0 of `embed_seed`.
    Translating the object does not change the result.
    """
    if obj.points is None:
        if obj.feature is None:
            raise DataError("object carries neither points nor a baked feature")
        feat = np.asarray(obj.feature, dtype=np.float64)
        if feat.shape != (32,):
            raise DataError(f"baked feature has length {feat.shape}, expected 32")
        return feat
    xyz = obj.points[:, :3]
    rgb = obj.points[:, 3:]
    centered = xyz - xyz.mean(axis=0)
    radius = np.max(np.linalg.norm(centered, axis=1))
    if radius > 0:
        centered = centered / radius
    stats = np.concatenate([centered.mean(axis=0), centered.max(axis=0),
                            centered.min(axis=0), rgb.mean(axis=0)])
    rng = np.random.default_rng([embed_seed, 0])
    return rng.standard_normal((32, stats.size)) / np.sqrt(stats.size) @ stats


def _sample_object(rng, class_id, center_xy, sizes, colors, num_points):
    size = sizes[class_id] * (1.0 + 0.1 * rng.uniform(-1, 1, size=3))
    center = np.array([center_xy[0], center_xy[1], size[2] / 2])
    xyz = center + (size / 2) * rng.uniform(-1, 1, size=(num_points, 3))
    rgb = np.clip(colors[class_id] + 0.05 * rng.standard_normal((num_points, 3)),
                  0.0, 1.0)
    return SceneObject.from_points(np.concatenate([xyz, rgb], axis=1), class_id)


def _build_scene(rng, config: GenConfig, sizes, colors, prior) -> SyntheticScene:
    ncls = config.num_classes
    target_class = int(rng.choice(ncls, p=prior))
    others = [c for c in range(ncls) if c != target_class]
    anchor_class = int(others[rng.integers(len(others))])
    relation_id = int(rng.integers(len(RELATIONS)))
    n_cand = int(rng.integers(2, 5))
    n_anchor = 1 if RELATIONS[relation_id] == "nearest-to" else int(rng.integers(1, 3))
    spare = [c for c in others if c != anchor_class]
    n_distract = int(rng.integers(0, 3)) if spare else 0
    # cap the population at 10 objects
    n_distract = min(n_distract, 10 - n_cand - n_anchor)

    def uniform_xy(low=0.5, high=7.5):
        return rng.uniform(low, high, size=2)

    if RELATIONS[relation_id] == "left-of":
        bound = rng.uniform(3.5, 5.5)
        anchor_xy = [np.array([bound + off, rng.uniform(0.5, 7.5)])
                     for off in [0.0] + list(rng.uniform(0.2, 2.0, size=n_anchor - 1))]
        winner_xy = np.array([rng.uniform(0.5, bound - 1.5), rng.uniform(0.5, 7.5)])
        loser_xy = [np.array([rng.uniform(bound + 0.5, 7.9), rng.uniform(0.5, 7.5)])
                    for _ in range(n_cand - 1)]
    elif RELATIONS[relation_id] == "right-of":
        bound = rng.uniform(2.5, 4.5)
        anchor_xy = [np.array([bound - off, rng.uniform(0.5, 7.5)])
                     for off in [0.0] + list(rng.uniform(0.2, 2.0, size=n_anchor - 1))]
        winner_xy = np.array([rng.uniform(bound + 1.5, 7.5), rng.uniform(0.5, 7.5)])
        loser_xy = [np.array([rng.uniform(0.1, bound - 0.5), rng.uniform(0.5, 7.5)])
                    for _ in range(n_cand - 1)]
    else:
        anchor_xy = [uniform_xy(2.5, 5.5)]
        angle = rng.uniform(0, 2 * np.pi)
        radius = rng.uniform(0.5, 1.2)
        winner_xy = anchor_xy[0] + radius * np.array([np.cos(angle), np.sin(angle)])
        loser_xy = []
        while len(loser_xy) < n_cand - 1:
            xy = uniform_xy(0.1, 7.9)
            if np.linalg.norm(xy - anchor_xy[0]) >= 3.0:
                loser_xy.append(xy)

    entries = [(target_class, winner_xy, True)]
    entries += [(target_class, xy, False) for xy in loser_xy]
    entries += [(anchor_class, xy, False) for xy in anchor_xy]
    for _ in range(n_distract):
        entries.append((int(spare[rng.integers(len(spare))]), uniform_xy(), False))
    order = rng.permutation(len(entries))
    objects, target_index = [], -1
    for slot, src in enumerate(order):
        class_id, xy, is_target = entries[src]
        objects.append(_sample_object(rng, class_id, xy, sizes, colors,
                                      config.points_per_object))
        if is_target:
            target_index = slot
    mentioned = (target_class, anchor_class)
    clean = audio_embedding(target_class, mentioned, relation_id,
                            config.num_classes, config.d_audio, config.embed_seed)
    audio = clean + 0.05 * rng.standard_normal(config.d_audio)
    return SyntheticScene(objects, audio, target_class, mentioned,
                          relation_id, target_index)


def generate_scenes(config: GenConfig) -> list[SyntheticScene]:
    """Deterministically generate verified scenes, one rng per scene."""
    sizes, colors = _class_tables(config)
    prior = np.full(config.num_classes, 1.0 / config.num_classes)
    scenes = []
    for i in range(config.num_scenes):
        rng = np.random.default_rng([config.seed, i])
        while True:
            scene = _build_scene(rng, config, sizes, colors, prior)
            if verify_scene(scene):
                break
        scenes.append(scene)
    return scenes


def write_scenes(path: str, scenes, include_points: bool = True,
                 embed_seed: int | None = None) -> None:
    """Write scenes as JSON lines.

    With include_points=False the point clouds are elided and each
    object instead carries its baked shape feature (which requires the
    embedding seed used downstream) plus the box summary.
    """
    if not include_points and embed_seed is None:
        raise UsageError("eliding points requires embed_seed to bake features")
    with open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            objs = []
            for obj in scene.objects:
                rec = {"class_id": obj.class_id,
                       "bbox": {"center": list(obj.center), "size": list(obj.size)}}
                if include_points:
                    if obj.points is None:
                        raise UsageError("scene object has no points to write")
                    rec["points"] = [list(row) for row in obj.points]
                else:
                    rec["feature"] = list(object_feature_stub(obj, embed_seed))
                objs.append(rec)
            fh.write(json.dumps({
                "objects": objs,
                "audio": list(scene.audio),
                "target_class": scene.target_class,
                "mentioned_classes": list(scene.mentioned_classes),
                "relation_id": scene.relation_id,
                "target_index": scene.target_index,
            }) + "\n")


def read_scenes(path: str) -> list[SyntheticScene]:
    """Parse JSON-line scenes, accepting both point and feature forms."""
    scenes = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {lineno}: bad JSON: {exc}") from exc
            try:
                objects = []
                for obj in rec["objects"]:
                    class_id = _json_int(obj["class_id"], "class_id")
                    if "points" in obj:
                        objects.append(SceneObject.from_points(obj["points"], class_id))
                    else:
                        bbox = obj["bbox"]
                        objects.append(SceneObject(
                            None, class_id, bbox["center"], bbox["size"],
                            feature=np.asarray(obj["feature"], dtype=np.float64)))
                scenes.append(SyntheticScene(
                    objects, rec["audio"],
                    _json_int(rec["target_class"], "target_class"),
                    tuple(_json_int(c, "mentioned class")
                          for c in rec["mentioned_classes"]),
                    _json_int(rec["relation_id"], "relation_id"),
                    _json_int(rec["target_index"], "target_index")))
            except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
                raise DataError(f"line {lineno}: bad scene record: {exc}") from exc
    return scenes
