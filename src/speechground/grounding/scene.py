"""Synthetic referring-expression scenes with verifiable geometry.

Each scene holds colored point-cloud objects plus a spoken-style
utterance record: a target class, the mentioned classes, and a spatial
relation (left-of / right-of / nearest-to an anchor of a mentioned
class) that picks out exactly one object among the target-class
candidates.  The generator rejects layouts until a geometric verifier
confirms uniqueness, so every emitted scene is solvable.
"""

import json
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..errors import DataError, UsageError
from .features import audio_embedding, object_features

RELATIONS = ("left-of", "right-of", "nearest-to")
MAX_CLASSES = 10_000  # per generator or model, so every per-class table stays small
# scenes generated, baked and written together, and scenes per stacked
# representation call when preparing or scoring; bounds the resident block
_CHUNK = 64
# standard deviation of the Gaussian noise added to each clean audio embedding
_AUDIO_NOISE = 0.05


@dataclass
class SceneObject:
    """A point cloud (K x 6, xyz+rgb) with its class and box summary."""

    points: np.ndarray | None
    class_id: int
    center: np.ndarray
    size: np.ndarray
    feature: np.ndarray | None = None  # baked shape feature when points elided

    def __post_init__(self):
        self.class_id = int(self.class_id)
        if self.class_id < 0:
            raise DataError(f"class_id must be non-negative, got {self.class_id}")
        self.center = np.asarray(self.center, dtype=np.float64)
        self.size = np.asarray(self.size, dtype=np.float64)
        if self.center.shape != (3,) or self.size.shape != (3,):
            raise DataError("bbox center and size must have three entries each")
        for name, value in (("points", self.points), ("center", self.center),
                            ("size", self.size), ("feature", self.feature)):
            if value is not None and not np.isfinite(value).all():
                raise DataError(f"object {name} must be finite")

    @classmethod
    def _unchecked(cls, points, class_id: int, center, size, feature=None
                   ) -> "SceneObject":
        """An object whose fields are already valid: skips `__post_init__`.

        The caller vouches for an int class id >= 0, float64 (3,) center
        and size, and finite arrays.
        """
        obj = cls.__new__(cls)
        obj.points, obj.class_id, obj.center, obj.size, obj.feature = (
            points, class_id, center, size, feature)
        return obj

    @classmethod
    def from_points(cls, points, class_id: int) -> "SceneObject":
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 6 or points.shape[0] == 0:
            raise DataError("object points must be a non-empty (K, 6) array")
        xyz = points[:, :3]
        return cls(points, int(class_id), xyz.mean(axis=0),
                   xyz.max(axis=0) - xyz.min(axis=0))


@dataclass
class SyntheticScene:
    """Objects plus the utterance record and its audio vector."""

    objects: list[SceneObject]
    audio: np.ndarray
    target_class: int
    mentioned_classes: tuple[int, ...]
    relation_id: int
    target_index: int

    def __post_init__(self):
        self.audio = np.asarray(self.audio, dtype=np.float64)
        if self.audio.ndim != 1 or self.audio.size == 0:
            raise DataError(
                f"audio must be a non-empty vector, got shape {self.audio.shape}")
        if not np.isfinite(self.audio).all():
            raise DataError("audio must be finite")
        self.mentioned_classes = tuple(sorted(int(c) for c in self.mentioned_classes))
        if min((self.target_class, *self.mentioned_classes)) < 0:
            raise DataError("target and mentioned classes must be non-negative")
        if not 0 <= self.relation_id < len(RELATIONS):
            raise DataError(f"relation_id {self.relation_id} outside 0..{len(RELATIONS) - 1}")
        if not 0 <= self.target_index < len(self.objects):
            raise DataError("target_index outside the object list")
        if self.objects[self.target_index].class_id != self.target_class:
            raise DataError("target_index does not point at a target_class object")


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the synthetic scene generator."""

    num_scenes: int
    num_classes: int = 6
    points_per_object: int = 64
    d_audio: int = 32
    seed: int = 0
    embed_seed: int = 7

    def __post_init__(self):
        if self.num_scenes < 0:
            raise UsageError("num_scenes must be non-negative")
        if not 2 <= self.num_classes <= MAX_CLASSES:
            raise UsageError("need at least two classes to form a relation and at "
                             f"most {MAX_CLASSES}, got {self.num_classes}")
        if min(self.seed, self.embed_seed) < 0:
            raise UsageError("seed and embed_seed must be non-negative")
        if self.points_per_object < 1:
            raise UsageError("each object needs at least one point")
        if self.d_audio < 1:
            raise UsageError(f"d_audio must be at least 1, got {self.d_audio}")


def group_objects(objects, target_class: int, mentioned_classes
                  ) -> tuple[list[int], list[int]]:
    """Split object indices into candidates and relational objects.

    Candidates share the target class; relational objects belong to the
    other mentioned classes.  Order is preserved.  Both lists may be
    empty; the caller decides whether that is an error.
    """
    mentioned = set(mentioned_classes) - {target_class}
    cands = [i for i, o in enumerate(objects) if o.class_id == target_class]
    rels = [i for i, o in enumerate(objects) if o.class_id in mentioned]
    return cands, rels


def verify_scene(scene: SyntheticScene) -> bool:
    """True when exactly one candidate satisfies the relation: the target.

    Candidates are the target-class objects; anchors are the relational
    objects (see `group_objects`).  left-of / right-of compare against
    the extreme anchor x; nearest-to asks for the strictly smallest
    distance to any anchor.
    """
    cands, anchors = group_objects(scene.objects, scene.target_class,
                                   scene.mentioned_classes)
    if len(cands) < 2 or not anchors:
        return False
    relation = RELATIONS[scene.relation_id]
    centers = [o.center for o in scene.objects]
    if relation != "nearest-to":
        # right-of is left-of on the mirrored x axis; negation is exact
        side = 1.0 if relation == "left-of" else -1.0
        bound = min(side * centers[a][0] for a in anchors)
        hits = [i for i in cands if side * centers[i][0] < bound]
    else:
        dist = {i: min(np.linalg.norm(centers[i] - centers[a]) for a in anchors)
                for i in cands}
        best = min(cands, key=lambda i: dist[i])
        others = [dist[i] for i in cands if i != best]
        hits = [best] if dist[best] < min(others) else []
    return hits == [scene.target_index]


def _class_tables(config: GenConfig):
    rng = np.random.default_rng([config.embed_seed, 10])
    sizes = 0.3 + 0.9 * rng.uniform(size=(config.num_classes, 3))
    colors = 0.1 + 0.8 * rng.uniform(size=(config.num_classes, 3))
    return sizes, colors


def _draw_scene(rng, config: GenConfig, cdf, jitter, noise, audio_draw):
    """Every draw of one attempt at a scene, in the generator's fixed order.

    Object j's size jitter and point offsets go to `jitter[j]` as unit
    draws (the doubles of `rng.uniform(-1, 1)` calls of size 3 and (K, 3)),
    its color noise to `noise[j]`, and the scene's unit audio noise to
    `audio_draw`.  Returns (target class, anchor class, relation id, the
    winner's slot, [(class id, xy)] in slot order).
    """
    ncls = config.num_classes
    target_class = int(cdf.searchsorted(rng.random(), side="right"))
    # the anchor indexes the classes other than the target, and each
    # distractor those other than the target and the anchor
    anchor_class = int(rng.integers(ncls - 1))
    anchor_class += anchor_class >= target_class
    relation_id = int(rng.integers(len(RELATIONS)))
    n_cand = int(rng.integers(2, 5))
    n_anchor = 1 if RELATIONS[relation_id] == "nearest-to" else int(rng.integers(1, 3))
    n_distract = int(rng.integers(0, 3)) if ncls > 2 else 0
    # cap the population at 10 objects
    n_distract = min(n_distract, 10 - n_cand - n_anchor)

    if RELATIONS[relation_id] == "left-of":
        bound = rng.uniform(3.5, 5.5)
        anchor_xy = [(bound + off, rng.uniform(0.5, 7.5))
                     for off in [0.0, *rng.uniform(0.2, 2.0, size=n_anchor - 1)]]
        winner_xy = (rng.uniform(0.5, bound - 1.5), rng.uniform(0.5, 7.5))
        loser_xy = [(rng.uniform(bound + 0.5, 7.9), rng.uniform(0.5, 7.5))
                    for _ in range(n_cand - 1)]
    elif RELATIONS[relation_id] == "right-of":
        bound = rng.uniform(2.5, 4.5)
        anchor_xy = [(bound - off, rng.uniform(0.5, 7.5))
                     for off in [0.0, *rng.uniform(0.2, 2.0, size=n_anchor - 1)]]
        winner_xy = (rng.uniform(bound + 1.5, 7.5), rng.uniform(0.5, 7.5))
        loser_xy = [(rng.uniform(0.1, bound - 0.5), rng.uniform(0.5, 7.5))
                    for _ in range(n_cand - 1)]
    else:
        anchor_xy = [rng.uniform(2.5, 5.5, size=2)]
        angle = rng.uniform(0, 2 * np.pi)
        radius = rng.uniform(0.5, 1.2)
        winner_xy = anchor_xy[0] + radius * np.array([np.cos(angle), np.sin(angle)])
        loser_xy = []
        while len(loser_xy) < n_cand - 1:
            xy = rng.uniform(0.1, 7.9, size=2)
            if np.linalg.norm(xy - anchor_xy[0]) >= 3.0:
                loser_xy.append(xy)

    entries = [(target_class, winner_xy)]
    entries += [(target_class, xy) for xy in loser_xy]
    entries += [(anchor_class, xy) for xy in anchor_xy]
    low, high = sorted((target_class, anchor_class))
    for _ in range(n_distract):
        c = int(rng.integers(ncls - 2))
        c += c >= low
        c += c >= high
        entries.append((c, rng.uniform(0.5, 7.5, size=2)))
    order = rng.permutation(len(entries)).tolist()
    # one call per object: the ziggurat normal sampler takes a variable number of draws
    for j in range(len(entries)):
        rng.random(out=jitter[j])
        rng.standard_normal(out=noise[j])
    rng.standard_normal(out=audio_draw)
    return (target_class, anchor_class, relation_id, order.index(0),
            [entries[src] for src in order])


def _build_scenes(rngs, config: GenConfig, sizes, colors, cdf) -> list[SyntheticScene]:
    """One attempt at a scene per rng: the draws per scene, the arithmetic once.

    Each step after the draws is elementwise or reduces over the point
    axis, so each value equals a one-object computation; all are finite,
    so the objects skip `SceneObject`'s checks.  Each scene runs
    `SyntheticScene`'s checks, as a scene read from a file does.
    """
    k = config.points_per_object
    # a scene holds at most 10 objects
    jitter = np.empty((10 * len(rngs), 3 + 3 * k))
    noise = np.empty((10 * len(rngs), k, 3))
    audio_draw = np.empty((len(rngs), config.d_audio))
    layouts, n = [], 0
    for rng, row in zip(rngs, audio_draw):
        layouts.append(_draw_scene(rng, config, cdf, jitter[n:], noise[n:], row))
        n += len(layouts[-1][-1])
    class_ids, xys = zip(*(entry for layout in layouts for entry in layout[-1]))
    # uniform(-1, 1) is low + (high - low) * u; row 0 jitters the size
    jitter = (-1.0 + 2.0 * jitter[:n]).reshape(n, k + 1, 3)
    size = sizes[list(class_ids)] * (1.0 + 0.1 * jitter[:, 0])
    center = np.column_stack([np.array(xys), size[:, 2] / 2])
    points = np.empty((n, k, 6))
    xyz = np.add(center[:, None], (size / 2)[:, None] * jitter[:, 1:], out=points[..., :3])
    np.clip(colors[list(class_ids)][:, None] + 0.05 * noise[:n], 0.0, 1.0,
            out=points[..., 3:])
    # point axis outermost: each box reduction adds whole rows in point order
    by_point = np.ascontiguousarray(xyz.transpose(1, 0, 2))
    objects = map(SceneObject._unchecked, points, class_ids, by_point.mean(axis=0),
                  by_point.max(axis=0) - by_point.min(axis=0))
    # the mentions go in (target, anchor) order, as the audio has always summed them
    audio = np.array([audio_embedding(t, (t, a), rel, config.num_classes, config.d_audio,
                                      config.embed_seed) for t, a, rel, _, _ in layouts])
    audio += _AUDIO_NOISE * audio_draw
    return [SyntheticScene(list(islice(objects, len(entries))), row, t, (t, a), rel,
                           target_index)
            for (t, a, rel, target_index, entries), row in zip(layouts, audio)]


def generate_scenes(config: GenConfig, start: int = 0, stop: int | None = None
                    ) -> list[SyntheticScene]:
    """Deterministically generate verified scenes `start..stop-1` (default: all).

    Scene i draws from its own rng `[seed, i]`, so any split of the range
    gives the same scenes.  They are built `_CHUNK` at a time; one that
    fails `verify_scene` retries alone, drawing again from its own rng,
    since no scene's values depend on the others built with it.
    """
    stop = config.num_scenes if stop is None else stop
    if not 0 <= start <= stop <= config.num_scenes:
        raise UsageError(f"scene range {start}..{stop} outside 0..{config.num_scenes}")
    sizes, colors = _class_tables(config)
    # the cdf that `rng.choice(n, p=uniform)` searches
    cdf = np.full(config.num_classes, 1.0 / config.num_classes).cumsum()
    cdf /= cdf[-1]
    scenes = []
    for first in range(start, stop, _CHUNK):
        rngs = [np.random.default_rng([config.seed, i])
                for i in range(first, min(first + _CHUNK, stop))]
        for rng, scene in zip(rngs, _build_scenes(rngs, config, sizes, colors, cdf)):
            while not verify_scene(scene):
                (scene,) = _build_scenes([rng], config, sizes, colors, cdf)
            scenes.append(scene)
    return scenes


def write_scenes(path: str, scenes, embed_seed: int | None = None) -> None:
    """Write scenes, any iterable of them, as JSON lines.

    Without `embed_seed` each object carries its point cloud.  With it
    the clouds are elided and each object carries its shape feature,
    baked under that seed (the one used downstream), plus the box
    summary.  Scenes are taken, baked and written `_CHUNK` at a time, so
    a lazy iterable keeps only a chunk or two resident.
    """
    key = "points" if embed_seed is None else "feature"
    scenes = iter(scenes)
    with open(path, "w", encoding="utf-8") as fh:
        while chunk := list(islice(scenes, _CHUNK)):
            objects = [obj for scene in chunk for obj in scene.objects]
            if embed_seed is not None:
                rows = iter(object_features(objects, embed_seed).tolist())
            elif any(obj.points is None for obj in objects):
                raise UsageError("scene object has no points to write")
            else:
                rows = (obj.points.tolist() for obj in objects)
            for scene in chunk:
                fh.write(json.dumps({
                    "objects": [{"class_id": obj.class_id,
                                 "bbox": {"center": obj.center.tolist(),
                                          "size": obj.size.tolist()},
                                 key: next(rows)}
                                for obj in scene.objects],
                    "audio": scene.audio.tolist(),
                    "target_class": scene.target_class,
                    "mentioned_classes": list(scene.mentioned_classes),
                    "relation_id": scene.relation_id,
                    "target_index": scene.target_index,
                }) + "\n")


def _json_int(value, what: str) -> int:
    """A JSON integer field; floats, strings and booleans are refused."""
    if type(value) is not int:
        raise DataError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _scene_objects(records) -> list[SceneObject]:
    """A record's objects, all in point form or all in feature form.

    A feature-form scene is checked as one block: its centers, sizes and
    features are stacked, shape-checked and tested for finiteness once.
    A block that fails any check is read again object by object, so the
    error is the one the per-object checks give.
    """
    point_form = ["points" in obj for obj in records]
    if all(point_form):
        return [SceneObject.from_points(obj["points"],
                                        _json_int(obj["class_id"], "class_id"))
                for obj in records]
    if any(point_form):
        raise DataError("scene mixes point-form and feature-form objects")
    try:
        class_ids = [_json_int(obj["class_id"], "class_id") for obj in records]
        bboxes = [obj["bbox"] for obj in records]
        centers = np.array([bbox["center"] for bbox in bboxes], dtype=np.float64)
        sizes = np.array([bbox["size"] for bbox in bboxes], dtype=np.float64)
        features = np.array([obj["feature"] for obj in records], dtype=np.float64)
        valid = (min(class_ids) >= 0
                 and centers.shape == sizes.shape == (len(records), 3)
                 and np.isfinite(centers).all() and np.isfinite(sizes).all()
                 and np.isfinite(features).all())
    except (KeyError, TypeError, ValueError, OverflowError, DataError):
        valid = False
    if not valid:
        return [SceneObject(None, _json_int(obj["class_id"], "class_id"),
                            obj["bbox"]["center"], obj["bbox"]["size"],
                            feature=np.asarray(obj["feature"], dtype=np.float64))
                for obj in records]
    return [SceneObject._unchecked(None, class_id, center, size, feature)
            for class_id, center, size, feature
            in zip(class_ids, centers, sizes, features)]


def read_scenes(path: str) -> list[SyntheticScene]:
    """Parse JSON-line scenes, accepting both point and feature forms."""
    return list(iter_scenes(path))


def iter_scenes(path: str) -> Iterator[SyntheticScene]:
    """Yield the JSON-line scenes of a file in order, one line at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {lineno}: bad JSON: {exc}") from exc
            try:
                scene = SyntheticScene(
                    _scene_objects(rec["objects"]), rec["audio"],
                    _json_int(rec["target_class"], "target_class"),
                    tuple(_json_int(c, "mentioned class")
                          for c in rec["mentioned_classes"]),
                    _json_int(rec["relation_id"], "relation_id"),
                    _json_int(rec["target_index"], "target_index"))
            except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
                raise DataError(f"line {lineno}: bad scene record: {exc}") from exc
            yield scene
