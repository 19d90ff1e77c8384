"""Audio-guided grounding model: heads, attention, loss, checkpoints.

The model has three branches fed by stub features: an audio classifier
(softmax over classes), a mention detector (independent sigmoid per
class), and a grounding branch that runs audio-guided self-attention
over the target-class candidates plus audio-guided cross-attention
from candidates to relational objects, sums the three per-candidate
streams, and scores each candidate with a shared MLP before a softmax
across candidates.

Every forward and backward pass runs on a padded minibatch of B
scenes: audio is (B, d_audio), so the cls and omd heads are plain
matmuls; candidates are padded to (B, N_max, d_rep) and relational
objects to (B, M_max, d_rep), each with a (B, length) boolean mask of
real slots.  The mask rules are:

- a masked key scores -inf, so it gets exactly zero attention weight;
- a query row with no valid key (a scene without relational objects)
  gets all-zero weights and therefore a zero output;
- a padded candidate's logit is -inf before the candidate softmax, so
  it has zero probability and passes back exactly zero gradient.

A single scene (`ground`, `prepare_scene`, `audio_guided_attention`) is
a batch of one, bit for bit: each forward weight product goes through
`_dense`, whose rows round the same at any row count, and `_softmax`
sums left to right, so padding adds exact zeros after a row's own terms.
Backward passes add into a gradient dict that is already zeroed: every
key holds a view of one flat buffer, so a training step re-zeroes one
vector instead of concatenating the tensors.

The model has one architecture.  `GroundingConfig` holds only what a
caller sets; `features.D_OBJ`, `D_LABEL` and the `_ARCHITECTURE` table
(one self and one cross attention layer, the hidden widths, the loss
weights, the mention threshold) fix the rest, and `param_shapes` lists
every parameter.  A checkpoint stores the layout as its `config.*`
tensors (`_config_tensors`) and loads only if they are this build's.

All gradients are hand-written; `loss_and_grads` is validated against
central finite differences and against the per-scene loop it replaced
in the test suite.
"""

import math
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from ..errors import DataError, NumericError, UsageError
from .features import D_LABEL, D_OBJ, D_REP, object_representations
from .scene import _CHUNK, MAX_CLASSES, SyntheticScene, group_objects

CHECKPOINT_MAGIC = b"A3VG"
CHECKPOINT_VERSION = 1

# The fixed architecture, keyed by the name of its `config.<name>` tensor
_ARCHITECTURE = {"d_obj": D_OBJ, "d_label": D_LABEL, "attn_heads": 2, "attn_dim": 16,
                 "attn_layers": 1, "cls_hidden": (32,), "omd_hidden": (32,),
                 "head_hidden": (64, 32), "lambdas": (1.0, 1.0, 1.0),
                 "omd_threshold": 0.5}


class GroundingFailure(NumericError):
    """Inference cannot proceed (for example: no candidate objects)."""


@dataclass(frozen=True)
class GroundingConfig:
    """What a caller sets: the class count, the audio width (read from the
    data) and the feature seed.  The rest of the model is `_ARCHITECTURE`."""

    num_classes: int
    d_audio: int = 32
    embed_seed: int = 7

    def __post_init__(self):
        if not 2 <= self.num_classes <= MAX_CLASSES:
            raise UsageError(f"need at least two classes and at most {MAX_CLASSES}, "
                             f"got {self.num_classes}")
        if self.d_audio < 1:
            raise UsageError(f"audio width must be positive, got {self.d_audio}")
        if self.embed_seed < 0:
            raise UsageError("embed_seed must be non-negative")


def _attention_shapes(h: int, dh: int, d: int, da: int) -> dict[str, tuple[int, ...]]:
    """Field -> shape of one attention layer with h heads of width dh."""
    return {"wq": (h, dh, d), "wk": (h, dh, d), "wv": (h, dh, d),
            "wqa": (h, dh, da), "wka": (h, dh, da), "wva": (h, dh, da),
            "wo": (d, h * dh)}


@dataclass
class AttentionParams:
    """One audio-guided multi-head attention layer, head-stacked arrays."""

    wq: np.ndarray   # (heads, head_dim, d)
    wk: np.ndarray
    wv: np.ndarray
    wqa: np.ndarray  # (heads, head_dim, d_audio)
    wka: np.ndarray
    wva: np.ndarray
    wo: np.ndarray   # (d, heads * head_dim)

    def __post_init__(self):
        h, dh, d = self.wq.shape
        for name, shape in _attention_shapes(h, dh, d, self.wqa.shape[2]).items():
            if getattr(self, name).shape != shape:
                raise UsageError(f"{name} shape mismatch")


@dataclass
class GroundingModel:
    """Configuration plus a flat name -> array parameter store."""

    config: GroundingConfig
    params: dict[str, np.ndarray]


@dataclass
class GroundingResult:
    """Inference outcome for one scene."""

    winner_index: int                 # index into scene.objects
    probs: np.ndarray                 # distribution over candidates
    candidate_indices: tuple[int, ...]
    relational_empty: bool
    predicted_class: int
    predicted_mentions: tuple[int, ...]


@dataclass
class _Batch:
    """Scenes stacked row by row, object blocks padded and masked."""

    audio: np.ndarray         # (B, d_audio)
    target_class: np.ndarray  # (B,)
    mention_hot: np.ndarray   # (B, num_classes)
    cand: np.ndarray          # (B, N, d_rep)
    cmask: np.ndarray         # (B, N)
    rel: np.ndarray           # (B, M, d_rep)
    rmask: np.ndarray         # (B, M)
    target_pos: np.ndarray    # (B,)

    def take(self, idx) -> "_Batch":
        """Rows `idx`, each block cut to the longest of those rows (at least 1).

        That is the width `_pad` gives the same scenes, so a minibatch
        taken from a once-padded set has the shapes and values of one
        padded on its own.
        """
        cmask, rmask = self.cmask[idx], self.rmask[idx]
        n = max(1, int(cmask.sum(axis=1).max()))
        m = max(1, int(rmask.sum(axis=1).max()))
        return _Batch(self.audio[idx], self.target_class[idx], self.mention_hot[idx],
                      self.cand[idx, :n], cmask[:, :n], self.rel[idx, :m], rmask[:, :m],
                      self.target_pos[idx])


def param_shapes(config: GroundingConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in initialization draw order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for name, d_in, d_out in (("cls", config.d_audio, config.num_classes),
                              ("omd", config.d_audio, config.num_classes),
                              ("head", D_REP, 1)):
        dims = [d_in, *_ARCHITECTURE[f"{name}_hidden"], d_out]
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            shapes[f"{name}.w{i}"] = (fan_out, fan_in)
            shapes[f"{name}.b{i}"] = (fan_out,)
    layer_shapes = _attention_shapes(_ARCHITECTURE["attn_heads"], _ARCHITECTURE["attn_dim"],
                                     D_REP, config.d_audio)
    for name in ("self", "cross"):
        for key, shape in layer_shapes.items():
            shapes[f"{name}0.{key}"] = shape
    return shapes


def init_grounding_model(config: GroundingConfig, seed: int = 0) -> GroundingModel:
    """Seeded Gaussian initialization scaled by fan-in, biases at zero."""
    if seed < 0:
        raise UsageError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        # biases are the only 1-D tensors; fan-in is a weight's last axis
        params[name] = (np.zeros(shape) if len(shape) == 1
                        else rng.standard_normal(shape) / np.sqrt(shape[-1]))
    return GroundingModel(config, params)


def _flat_views(params: dict[str, np.ndarray], flat: np.ndarray
                ) -> dict[str, np.ndarray]:
    """Name -> view of `flat` shaped like each parameter, laid out in dict order."""
    views, start = {}, 0
    for key, p in params.items():
        views[key] = flat[start:start + p.size].reshape(p.shape)
        start += p.size
    return views


def _zero_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A zeroed gradient for every parameter, as views of one flat buffer."""
    return _flat_views(params, np.zeros(sum(p.size for p in params.values())))


def _dense(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w.T for an (out, in) weight, each row's bits independent of x's row count.

    BLAS picks a summation order by shape; with a transposed operand, one
    input row (gemv) or one output column it changes with the row count.
    """
    if w.shape[0] == 1:
        return (x * w[0]).sum(axis=-1, keepdims=True)
    wt = np.ascontiguousarray(w.T)
    return x @ wt if len(x) > 1 else (np.concatenate((x, x)) @ wt)[:1]


def _mlp_forward(model: GroundingModel, name: str, x):
    """Output of a tanh MLP and its cache: each layer's input."""
    depth = len(_ARCHITECTURE[f"{name}_hidden"]) + 1
    cache = []
    h = x
    for i in range(depth):
        cache.append(h)
        z = _dense(h, model.params[f"{name}.w{i}"]) + model.params[f"{name}.b{i}"]
        h = np.tanh(z) if i < depth - 1 else z
    return h, cache


def _mlp_backward(params, name, dout, cache, grads):
    dz = dout
    for i in range(len(cache) - 1, -1, -1):
        if i < len(cache) - 1:
            # the next layer's input is this layer's tanh output
            dz = dz * (1.0 - cache[i + 1] ** 2)
        grads[f"{name}.w{i}"] += dz.T @ cache[i]
        grads[f"{name}.b{i}"] += dz.sum(axis=0)
        dz = dz @ params[f"{name}.w{i}"]
    return dz


def _pad(blocks, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded (B, L, width) stack of (n_b, width) blocks and its mask.

    L is the longest block but at least 1, so a batch whose blocks are
    all empty still has one (masked) key column.
    """
    lens = np.array([block.shape[0] for block in blocks])
    out = np.zeros((len(blocks), max(1, int(lens.max())), width))
    for row, block in zip(out, blocks):
        row[:block.shape[0]] = block
    return out, np.arange(out.shape[1]) < lens[:, None]


def _attn_forward(p: AttentionParams, xq, xkv, kmask, audio):
    """Masked audio-guided attention of (B, Nq, d) queries over (B, Nk, d).

    Masked keys score -inf.  A query row with no valid key gets all-zero
    weights and hence a zero output.
    """
    heads, dh, d = p.wq.shape
    b, nq = xq.shape[:2]

    def project(w, wa, x):
        # object term plus the scene's audio term, as (B, heads, n, dh)
        y = _dense(x.reshape(-1, d), w.reshape(-1, d)).reshape(b, -1, heads * dh)
        y += _dense(audio, wa.reshape(heads * dh, -1))[:, None, :]
        return y.reshape(b, -1, heads, dh).transpose(0, 2, 1, 3)

    q, k, v = (project(p.wq, p.wqa, xq), project(p.wk, p.wka, xkv),
               project(p.wv, p.wva, xkv))
    att = _softmax(np.where(kmask[:, None, None, :],
                            q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh), -np.inf))
    flat = (att @ v).transpose(0, 2, 1, 3).reshape(b, nq, heads * dh)
    out = _dense(flat.reshape(-1, heads * dh), p.wo).reshape(b, nq, d)
    return out, (xq, xkv, audio, q, k, v, att, flat)


def _attn_backward(p: AttentionParams, dout, cache, grads, prefix):
    """Add the layer's weight gradients; its inputs are features, so they get none."""
    xq, xkv, audio, q, k, v, att, flat = cache
    heads, dh, d = p.wq.shape
    b, nq = xq.shape[:2]

    def unproject(dy, x, key, akey):
        # gradients of the object and audio projections
        dflat = dy.transpose(0, 2, 1, 3).reshape(-1, heads * dh)
        grads[f"{prefix}.{key}"] += (dflat.T @ x.reshape(-1, d)).reshape(heads, dh, d)
        per_scene = dflat.reshape(b, -1, heads * dh).sum(axis=1)
        grads[f"{prefix}.{akey}"] += (per_scene.T @ audio).reshape(heads, dh, -1)

    grads[f"{prefix}.wo"] += dout.reshape(-1, d).T @ flat.reshape(-1, heads * dh)
    dctx = (dout.reshape(-1, d) @ p.wo).reshape(b, nq, heads, dh).transpose(0, 2, 1, 3)
    datt = dctx @ v.transpose(0, 1, 3, 2)
    dv = att.transpose(0, 1, 3, 2) @ dctx
    tmp = datt * att
    dscores = (tmp - att * tmp.sum(axis=3, keepdims=True)) / np.sqrt(dh)
    unproject(dscores @ k, xq, "wq", "wqa")
    unproject(dscores.transpose(0, 1, 3, 2) @ q, xkv, "wk", "wka")
    unproject(dv, xkv, "wv", "wva")


def attention_params_from(model: GroundingModel, name: str) -> AttentionParams:
    """View a model's "self" or "cross" attention layer as AttentionParams."""
    return AttentionParams(**{f.name: model.params[f"{name}0.{f.name}"]
                              for f in fields(AttentionParams)})


def audio_guided_attention(objects_q, objects_kv, audio, params: AttentionParams
                           ) -> np.ndarray:
    """One layer of audio-guided multi-head attention.

    Queries, keys and values each mix an object term with a shared
    audio term; per-head contexts are concatenated and projected back
    to the object feature size.  An empty key/value set yields all-zero
    outputs (the flagged no-relational-objects condition).
    """
    oq = np.atleast_2d(np.asarray(objects_q, dtype=np.float64))
    okv = np.asarray(objects_kv, dtype=np.float64)
    if okv.size == 0:
        okv = okv.reshape(0, oq.shape[1])
    okv = np.atleast_2d(okv)
    audio = np.asarray(audio, dtype=np.float64)
    d = params.wq.shape[2]
    if oq.shape[1] != d or (okv.shape[0] and okv.shape[1] != d):
        raise UsageError(f"object features must have width {d}")
    if audio.shape != (params.wqa.shape[2],):
        raise UsageError(f"audio must have width {params.wqa.shape[2]}")
    kv, kmask = _pad([okv], d)
    out, _ = _attn_forward(params, oq[None], kv, kmask, audio[None])
    return out[0]


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; a -inf logit gets probability 0, a row of them all 0."""
    top = logits.max(axis=-1, keepdims=True)
    p = np.exp(logits - np.where(top == -np.inf, 0.0, top))
    total = np.cumsum(p, axis=-1)[..., -1:]  # left to right, so zero padding keeps the bits
    p /= np.where(total == 0.0, 1.0, total)
    return p


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp may overflow to inf for saturated logits; 1/(1+inf) is the
    # correct sigmoid limit, so only the warning needs suppressing
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _class_probs(model: GroundingModel, audio: np.ndarray) -> np.ndarray:
    """(B, num_classes) softmax of the cls head over (B, d_audio) audio."""
    return _softmax(_mlp_forward(model, "cls", audio)[0])


def _mention_probs(model: GroundingModel, audio: np.ndarray) -> np.ndarray:
    """(B, num_classes) sigmoids of the omd head over (B, d_audio) audio."""
    return _sigmoid(_mlp_forward(model, "omd", audio)[0])


def _detected(model: GroundingModel, probs: np.ndarray) -> tuple[int, ...]:
    return tuple(int(c) for c in np.where(probs >= _ARCHITECTURE["omd_threshold"])[0])


def classify_audio(model: GroundingModel, audio) -> np.ndarray:
    """Class distribution for an audio vector (softmax head)."""
    return _class_probs(model, np.asarray(audio, dtype=np.float64)[None, :])[0]


def detect_mentions(model: GroundingModel, audio) -> tuple[np.ndarray, tuple[int, ...]]:
    """Per-class mention probabilities and the thresholded detections."""
    probs = _mention_probs(model, np.asarray(audio, dtype=np.float64)[None, :])[0]
    return probs, _detected(model, probs)


def _scene_audio(config: GroundingConfig, scene: SyntheticScene) -> np.ndarray:
    """The scene's audio vector, checked against the configured width."""
    if scene.audio.shape != (config.d_audio,):
        raise DataError(f"audio width {scene.audio.shape} != {config.d_audio}")
    return scene.audio


def _object_blocks(config: GroundingConfig, scenes, groups
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Padded (candidate, relational) representation blocks and their masks.

    `groups` holds each scene's (candidate, relational) index lists.  The
    objects of `_CHUNK` scenes go through one `object_representations`
    call, whose rows equal the one-object call's.
    """
    blocks = []
    for first in range(0, len(scenes), _CHUNK):
        chunk = list(zip(scenes[first:first + _CHUNK], groups[first:first + _CHUNK]))
        reprs = object_representations(
            [scene.objects[i] for scene, (cands, rels) in chunk for i in (*cands, *rels)],
            config.embed_seed)
        # each scene's candidates, then its relational objects
        ends = np.cumsum([len(g) for _, pair in chunk for g in pair])
        blocks += np.split(reprs, ends[:-1])
    return (*_pad(blocks[0::2], D_REP), *_pad(blocks[1::2], D_REP))


def _prepare_set(config: GroundingConfig, scenes) -> _Batch:
    """The ground-truth-grouped, padded training batch of `scenes`.

    Every scene is checked, in order, before any representation is built.
    """
    if not scenes:
        raise UsageError("loss needs at least one scene")
    groups = []
    mention_hot = np.zeros((len(scenes), config.num_classes))
    for scene, hot in zip(scenes, mention_hot):
        cands, rels = group_objects(scene.objects, scene.target_class,
                                    scene.mentioned_classes)
        if scene.target_index not in cands:
            raise DataError("scene target is not among its candidates")
        for c in scene.mentioned_classes:
            if not 0 <= c < config.num_classes:
                raise DataError(f"mentioned class {c} outside the configured classes")
            hot[c] = 1.0
        if not 0 <= scene.target_class < config.num_classes:
            raise DataError("target class outside the configured classes")
        _scene_audio(config, scene)
        groups.append((cands, rels))
    return _Batch(np.stack([scene.audio for scene in scenes]),
                  np.array([scene.target_class for scene in scenes]), mention_hot,
                  *_object_blocks(config, scenes, groups),
                  np.array([cands.index(scene.target_index)
                            for scene, (cands, _) in zip(scenes, groups)]))


def prepare_scene(config: GroundingConfig, scene: SyntheticScene) -> _Batch:
    """One scene's ground-truth-grouped training tensors, as a batch of one."""
    return _prepare_set(config, [scene])


def _ground_streams(model: GroundingModel, audio, cand, cmask, rel, rmask):
    """(B, N) candidate logits of a batch, -inf at padded slots.

    `audio` is (B, d_audio); `cand` and `rel` are the padded (B, N, d_rep)
    and (B, M, d_rep) object blocks with their masks of real slots.
    """
    p_self = attention_params_from(model, "self")
    p_cross = attention_params_from(model, "cross")
    o_self, self_cache = _attn_forward(p_self, cand, cand, cmask, audio)
    o_cross, cross_cache = _attn_forward(p_cross, cand, rel, rmask, audio)
    fused = cand + o_self + o_cross
    # the head scores only real candidates; padded slots stay -inf
    scores, head_cache = _mlp_forward(model, "head", fused[cmask])
    logits = np.full(cmask.shape, -np.inf)
    logits[cmask] = scores[:, 0]
    return logits, (cmask, (p_self, self_cache), (p_cross, cross_cache), head_cache)


def _softmax_nll(logits: np.ndarray, targets: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise cross-entropy (B,) and its logit gradient (B, K)."""
    rows = np.arange(logits.shape[0])
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    dlogits = np.exp(z - lse[:, None])
    dlogits[rows, targets] -= 1.0
    return lse - z[rows, targets], dlogits


def _batch_loss(model: GroundingModel, batch: _Batch, grads=None
                ) -> tuple[float, np.ndarray]:
    """Total and mean loss parts of a batch.

    With `grads` (one array per parameter, zeroed by the caller), adds
    the batch's gradients into it in place.
    """
    audio = batch.audio
    b = audio.shape[0]

    cls_logits, cls_cache = _mlp_forward(model, "cls", audio)
    ce_audio, dcls = _softmax_nll(cls_logits, batch.target_class)

    x, omd_cache = _mlp_forward(model, "omd", audio)
    y = batch.mention_hot
    bce = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    domd = (_sigmoid(x) - y) / x.shape[1]

    ground_logits, caches = _ground_streams(model, audio, batch.cand, batch.cmask,
                                            batch.rel, batch.rmask)
    ce_ground, dground = _softmax_nll(ground_logits, batch.target_pos)
    parts = np.array([ce_audio.mean(), bce.mean(), ce_ground.mean()])

    if grads is not None:
        la, lb, lc = _ARCHITECTURE["lambdas"]
        _mlp_backward(model.params, "cls", (la / b) * dcls, cls_cache, grads)
        _mlp_backward(model.params, "omd", (lb / b) * domd, omd_cache, grads)
        cmask, (p_self, self_cache), (p_cross, cross_cache), head_cache = caches
        dfused = np.zeros((*cmask.shape, D_REP))
        dfused[cmask] = _mlp_backward(model.params, "head",
                                      (lc / b) * dground[cmask][:, None],
                                      head_cache, grads)
        _attn_backward(p_self, dfused, self_cache, grads, "self0")
        _attn_backward(p_cross, dfused, cross_cache, grads, "cross0")
    return float(np.dot(_ARCHITECTURE["lambdas"], parts)), parts


def loss_and_grads(model: GroundingModel, scenes):
    """Mean joint loss, its three parts, and parameter gradients."""
    batch = _prepare_set(model.config, scenes)
    grads = _zero_grads(model.params)
    total, parts = _batch_loss(model, batch, grads)
    return total, parts, grads


def _require_finite(*probs: np.ndarray) -> None:
    # a model whose weights overflow on an input scores it with inf or NaN
    if not all(np.isfinite(p).all() for p in probs):
        raise NumericError("grounding scores are not finite: the model overflows on this input")


@np.errstate(over="ignore", invalid="ignore")  # _require_finite reports it instead
def _predicted_groupings(model: GroundingModel, scenes
                         ) -> list[tuple[int, tuple[int, ...]]]:
    """Predicted audio class and detected mentions of every scene."""
    audio = np.stack([_scene_audio(model.config, scene) for scene in scenes])
    class_probs, mention_probs = _class_probs(model, audio), _mention_probs(model, audio)
    _require_finite(class_probs, mention_probs)
    return [(int(c), _detected(model, probs))
            for c, probs in zip(np.argmax(class_probs, axis=1), mention_probs)]


@np.errstate(over="ignore", invalid="ignore")  # _require_finite reports it instead
def _ground_grouped(model: GroundingModel, scenes, groupings
                    ) -> list[GroundingResult | GroundingFailure]:
    """Ground each scene under its (class, mentions) grouping.

    Groundable scenes are scored in padded batches; a scene with no
    object of its predicted class gets a GroundingFailure in its slot.
    """
    grouped = [group_objects(scene.objects, *grouping)
               for scene, grouping in zip(scenes, groupings)]
    results = [None if cands else GroundingFailure(
                   f"no object of predicted class {pred_class}; cannot ground")
               for (pred_class, _), (cands, _) in zip(groupings, grouped)]
    live = [i for i, result in enumerate(results) if result is None]
    for start in range(0, len(live), _CHUNK):
        batch = live[start:start + _CHUNK]
        logits, _ = _ground_streams(model, np.stack([scenes[i].audio for i in batch]),
                                    *_object_blocks(model.config,
                                                    [scenes[i] for i in batch],
                                                    [grouped[i] for i in batch]))
        probs = _softmax(logits)
        _require_finite(probs)
        for i, row, win in zip(batch, probs, np.argmax(logits, axis=1)):
            cands, rels = grouped[i]
            results[i] = GroundingResult(cands[win], row[:len(cands)].copy(),
                                         tuple(cands), not rels, *groupings[i])
    return results


def ground(model: GroundingModel, scene: SyntheticScene) -> GroundingResult:
    """Run the full inference path on one scene.

    Grouping uses the predicted audio class and detected mentions, not
    the ground truth.  Raises GroundingFailure when no candidate object
    matches the predicted class, and NumericError when a score is not finite.
    """
    (result,) = _ground_grouped(model, [scene], _predicted_groupings(model, [scene]))
    if isinstance(result, GroundingFailure):
        raise result
    return result


def _config_tensors(config: GroundingConfig) -> dict[str, np.ndarray]:
    """The `config.<name>` vectors of a checkpoint: the three settings and the
    architecture, one element for a number and one per entry for a tuple."""
    return {f"config.{name}": np.array(value, dtype=np.float64).reshape(-1)
            for name, value in (("num_classes", config.num_classes),
                                ("d_audio", config.d_audio),
                                ("embed_seed", config.embed_seed),
                                *_ARCHITECTURE.items())}


def save_checkpoint(path: str, model: GroundingModel) -> None:
    """Named-tensor container: magic, version, then (name, dims, f64 data)
    for the `_config_tensors` and every parameter, by sorted name."""
    tensors = {**_config_tensors(model.config), **model.params}
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    blob = fh.read(n)
    if len(blob) != n:
        raise DataError(f"checkpoint truncated while reading {what}")
    return blob


def _shown(arr: np.ndarray) -> str:
    """A tensor's values for an error line, or its shape if it has many."""
    return str(arr.tolist()) if arr.size <= 3 else f"shape {arr.shape}"


def load_checkpoint(path: str) -> GroundingModel:
    """Parse a checkpoint, rebuilding the config and verifying the
    architecture tensors and the parameter shapes."""
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        version = struct.unpack("<I", _read_exact(fh, 4, "version"))[0]
        if version != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        while fh.tell() < file_size:
            name_len = struct.unpack("<I", _read_exact(fh, 4, "tensor name length"))[0]
            if name_len > 4096:
                raise DataError(f"implausible tensor name length {name_len}")
            name = _read_exact(fh, name_len, "tensor name").decode("utf-8")
            rank = struct.unpack("<I", _read_exact(fh, 4, f"{name} rank"))[0]
            if rank > 8:
                raise DataError(f"implausible rank {rank} for tensor {name}")
            dims = [struct.unpack("<I", _read_exact(fh, 4, f"{name} dim"))[0]
                    for _ in range(rank)]
            nbytes = 8 * math.prod(dims)
            left = file_size - fh.tell()
            if nbytes > left:
                raise DataError(f"checkpoint truncated: tensor {name} needs "
                                f"{nbytes} bytes, {left} left")
            data = np.frombuffer(_read_exact(fh, nbytes, f"{name} data"),
                                 dtype="<f8").reshape(dims)
            if not np.all(np.isfinite(data)):
                raise DataError(f"tensor {name} has non-finite values")
            if name in tensors:
                raise DataError(f"checkpoint repeats tensor {name}")
            tensors[name] = data.copy()

    settings = {}
    for key in ("num_classes", "d_audio", "embed_seed"):
        name = f"config.{key}"
        if name not in tensors:
            raise DataError(f"checkpoint missing {name}")
        if tensors[name].size != 1 or not float(tensors[name].flat[0]).is_integer():
            raise DataError(f"checkpoint field {name} must be integral, "
                            f"got {_shown(tensors[name])}")
        settings[key] = int(tensors[name].flat[0])
    try:
        cfg = GroundingConfig(**settings)
    except UsageError as exc:
        raise DataError(f"bad checkpoint config: {exc}") from exc
    # a file of another architecture does not load, even where its shapes would fit
    expected = _config_tensors(cfg)
    names = expected.keys() | {k for k in tensors if k.startswith("config.")}
    for name in sorted(names):
        got, want = tensors.get(name), expected.get(name)
        if got is None or want is None:
            raise DataError(f"checkpoint {'missing' if got is None else 'has unknown'} {name}")
        if got.shape != want.shape or not np.array_equal(got, want):
            raise DataError(f"checkpoint {name} is {_shown(got)}, "
                            f"this build's architecture has {want.tolist()}")
    params = {k: v for k, v in tensors.items() if not k.startswith("config.")}
    shapes = param_shapes(cfg)
    if set(params) != set(shapes):
        missing = sorted(set(shapes) - set(params))
        extra = sorted(set(params) - set(shapes))
        raise DataError(f"checkpoint tensors mismatch: missing {missing}, extra {extra}")
    for key, shape in shapes.items():
        if params[key].shape != shape:
            raise DataError(
                f"tensor {key} has shape {params[key].shape}, expected {shape}")
    # in initialization order, so a loaded model lays out like a fresh one
    return GroundingModel(cfg, {key: params[key] for key in shapes})
