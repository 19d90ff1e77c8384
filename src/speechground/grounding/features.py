"""Deterministic stand-in features for objects, labels, and audio.

Real systems would run a point-cloud backbone and a speech encoder
here; at desk scale both are replaced by seeded constructions that
keep the downstream numerics honest: every embedding is a pure
function of (embed_seed, identity), so datasets and models agree on
features without sharing state.

The widths are fixed: a representation row holds a `D_OBJ` shape
feature, a `D_LABEL` label embedding and the box center and size,
`D_REP` numbers in all.  Every stub draws at these widths and no
caller picks another, so a baked file always fits the model.
"""

from functools import lru_cache

import numpy as np

from ..errors import DataError, UsageError

# sub-stream tags so each table draws from its own seeded stream
_STREAM_SHAPE = 0
_STREAM_LABEL = 1
_STREAM_AUDIO_TARGET = 2
_STREAM_AUDIO_MENTION = 3
_STREAM_AUDIO_RELATION = 4

D_OBJ = 32
D_LABEL = 8
D_REP = D_OBJ + D_LABEL + 6


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# The seeded tables below are pure functions of their arguments, so each
# is drawn once per process and shared read-only by every caller.

@lru_cache(maxsize=16)
def _shape_projection(embed_seed: int) -> np.ndarray:
    """Projection of a cloud's 12 statistics (see `object_features`) to D_OBJ."""
    rng = np.random.default_rng([embed_seed, _STREAM_SHAPE])
    return _frozen(rng.standard_normal((D_OBJ, 12)) / np.sqrt(12))


@lru_cache(maxsize=256)
def _label_row(embed_seed: int, class_id: int) -> np.ndarray:
    rng = np.random.default_rng([embed_seed, _STREAM_LABEL, class_id])
    return _frozen(rng.standard_normal(D_LABEL))


@lru_cache(maxsize=16)
def _audio_tables(embed_seed: int, num_classes: int, d_audio: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Target-class, mention and relation tables of the audio stub."""
    return tuple(_frozen(np.random.default_rng([embed_seed, stream])
                         .standard_normal((rows, d_audio)))
                 for stream, rows in ((_STREAM_AUDIO_TARGET, num_classes),
                                      (_STREAM_AUDIO_MENTION, num_classes),
                                      (_STREAM_AUDIO_RELATION, 3)))


def object_features(objects, embed_seed: int) -> np.ndarray:
    """(n, D_OBJ) shape features: a seeded projection of cloud statistics.

    Each cloud is normalized into a unit ball (centered on its mean,
    scaled by the largest radius), summarized by per-axis mean, max and
    min plus the mean color, and pushed through a fixed random
    projection.  Translating an object does not change its row.  Objects
    without points contribute their baked feature.  Clouds of equal
    point count are summarized as one stacked block; `proj @ col` per
    row keeps every row bit-identical to the one-object call.
    """
    out = np.empty((len(objects), D_OBJ))
    by_count: dict[int, list[int]] = {}
    for i, obj in enumerate(objects):
        if obj.points is not None:
            by_count.setdefault(obj.points.shape[0], []).append(i)
            continue
        if obj.feature is None:
            raise DataError("object carries neither points nor a baked feature")
        feat = np.asarray(obj.feature, dtype=np.float64)
        if feat.shape != (D_OBJ,):
            raise DataError(f"baked feature has length {feat.shape}, expected {D_OBJ}")
        out[i] = feat
    for rows in by_count.values():
        # (K, 6, g): the point axis outermost, so every reduction over it
        # adds whole rows in point order, as the (K, 6) one-object call does
        points = np.stack([objects[i].points for i in rows], axis=2)
        xyz = points[:, :3]
        centered = xyz - xyz.mean(axis=0)
        radius = np.max(np.linalg.norm(centered, axis=1), axis=0)
        centered = centered / np.where(radius > 0, radius, 1.0)
        stats = np.concatenate([centered.mean(axis=0), centered.max(axis=0),
                                centered.min(axis=0), points[:, 3:].mean(axis=0)]).T
        proj = _shape_projection(embed_seed)
        out[rows] = (proj @ stats[:, :, None])[:, :, 0]
    return out


def object_feature_stub(obj, embed_seed: int) -> np.ndarray:
    """Shape feature of one object (see `object_features`)."""
    return object_features([obj], embed_seed)[0]


def label_embedding(class_id: int, embed_seed: int) -> np.ndarray:
    """Fixed random (D_LABEL,) embedding of a class id."""
    if class_id < 0:
        raise UsageError(f"class_id must be non-negative, got {class_id}")
    return _label_row(embed_seed, class_id).copy()


def object_representations(objects, embed_seed: int) -> np.ndarray:
    """(n, D_REP) rows: shape feature, label embedding, box center and size."""
    return np.concatenate([
        object_features(objects, embed_seed),
        np.array([label_embedding(o.class_id, embed_seed)
                  for o in objects]).reshape(-1, D_LABEL),
        np.array([o.center for o in objects], dtype=np.float64).reshape(-1, 3),
        np.array([o.size for o in objects], dtype=np.float64).reshape(-1, 3),
    ], axis=1)


def object_representation(obj, embed_seed: int) -> np.ndarray:
    """Representation row of one object (see `object_representations`)."""
    return object_representations([obj], embed_seed)[0]


def audio_embedding(target_class: int, mentioned_classes, relation_id: int,
                    num_classes: int, d_audio: int, embed_seed: int) -> np.ndarray:
    """Noise-free audio vector for an utterance record.

    The vector is the sum of a target-class embedding, one mention
    embedding per mentioned class, and a relation embedding, all drawn
    from fixed seeded tables; callers add observation noise on top.
    """
    if not 0 <= target_class < num_classes:
        raise UsageError(f"target_class {target_class} outside 0..{num_classes - 1}")
    targets, mentions, relations = _audio_tables(embed_seed, num_classes, d_audio)
    if not 0 <= relation_id < relations.shape[0]:
        raise UsageError(f"relation_id {relation_id} outside 0..{relations.shape[0] - 1}")
    out = targets[target_class] + relations[relation_id]
    for c in mentioned_classes:
        if not 0 <= c < num_classes:
            raise UsageError(f"mentioned class {c} outside 0..{num_classes - 1}")
        out = out + mentions[c]
    return out
