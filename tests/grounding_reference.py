"""Per-scene grounding: the reference for the batched path.

These are the one-scene-at-a-time forward/backward kernels, training
loss and inference path that the padded, masked minibatch code in
`speechground.grounding.model` replaced, kept unchanged so the tests
can compare the two.  `loss_and_grads` walks a padded batch one scene
at a time, over each row's mask-sliced objects, with no padding.
`train_toy` is a training loop that prepares and pads every minibatch
afresh and concatenates a fresh gradient per step; it gets its
gradients from the public batched `loss_and_grads`.  The architecture
below is written out here, not read from the package.  Nothing in `src/`
imports this module.
"""

import numpy as np

from speechground.errors import DataError, NumericError, UsageError
from speechground import grounding
from speechground.grounding import (EpochRecord, SyntheticScene, TrainConfig,
                                    group_objects, object_representations)
from speechground.grounding.model import (GroundingFailure, GroundingModel,
                                          GroundingResult, _Batch)

D_OBJ, D_LABEL = 32, 8
MLP_DEPTH = {"cls": 2, "omd": 2, "head": 3}  # hidden widths (32,), (32,), (64, 32)
LAMBDAS = (1.0, 1.0, 1.0)
OMD_THRESHOLD = 0.5


def _mlp_forward(params, name, x, n_layers):
    cache = []
    h = x
    for i in range(n_layers):
        z = h @ params[f"{name}.w{i}"].T + params[f"{name}.b{i}"]
        cache.append((h, z))
        h = np.tanh(z) if i < n_layers - 1 else z
    return h, cache


def _mlp_backward(params, name, dout, cache, grads):
    dz = dout
    for i in range(len(cache) - 1, -1, -1):
        h_in, z = cache[i]
        if i < len(cache) - 1:
            dz = dz * (1.0 - np.tanh(z) ** 2)
        grads[f"{name}.w{i}"] = grads.get(f"{name}.w{i}", 0.0) + dz.T @ h_in
        grads[f"{name}.b{i}"] = grads.get(f"{name}.b{i}", 0.0) + dz.sum(axis=0)
        dz = dz @ params[f"{name}.w{i}"]
    return dz


def _attn_forward(wq, wk, wv, wqa, wka, wva, wo, oq, okv, audio):
    if okv.shape[0] == 0:
        return np.zeros((oq.shape[0], wo.shape[0])), None
    dh = wq.shape[1]
    q = np.einsum("hij,nj->nhi", wq, oq) + np.einsum("hij,j->hi", wqa, audio)
    k = np.einsum("hij,mj->mhi", wk, okv) + np.einsum("hij,j->hi", wka, audio)
    v = np.einsum("hij,mj->mhi", wv, okv) + np.einsum("hij,j->hi", wva, audio)
    scores = np.einsum("nhi,mhi->hnm", q, k) / np.sqrt(dh)
    scores = scores - scores.max(axis=2, keepdims=True)
    att = np.exp(scores)
    att /= att.sum(axis=2, keepdims=True)
    ctx = np.einsum("hnm,mhi->nhi", att, v)
    flat = ctx.reshape(oq.shape[0], -1)
    out = flat @ wo.T
    return out, (oq, okv, audio, q, k, v, att, flat)


def _attn_backward(wq, wk, wv, wqa, wka, wva, wo, dout, cache, grads, prefix):
    if cache is None:
        return
    oq, okv, audio, q, k, v, att, flat = cache
    heads, dh = wq.shape[0], wq.shape[1]

    def bump(key, val):
        grads[key] = grads.get(key, 0.0) + val

    bump(f"{prefix}.wo", dout.T @ flat)
    dctx = (dout @ wo).reshape(oq.shape[0], heads, dh)
    datt = np.einsum("nhi,mhi->hnm", dctx, v)
    dv = np.einsum("hnm,nhi->mhi", att, dctx)
    tmp = datt * att
    dscores = (tmp - att * tmp.sum(axis=2, keepdims=True)) / np.sqrt(dh)
    dq = np.einsum("hnm,mhi->nhi", dscores, k)
    dk = np.einsum("hnm,nhi->mhi", dscores, q)
    bump(f"{prefix}.wq", np.einsum("nhi,nj->hij", dq, oq))
    bump(f"{prefix}.wqa", np.einsum("hi,j->hij", dq.sum(axis=0), audio))
    bump(f"{prefix}.wk", np.einsum("mhi,mj->hij", dk, okv))
    bump(f"{prefix}.wka", np.einsum("hi,j->hij", dk.sum(axis=0), audio))
    bump(f"{prefix}.wv", np.einsum("mhi,mj->hij", dv, okv))
    bump(f"{prefix}.wva", np.einsum("hi,j->hij", dv.sum(axis=0), audio))


def _layer_arrays(params, prefix):
    return tuple(params[f"{prefix}.{key}"]
                 for key in ("wq", "wk", "wv", "wqa", "wka", "wva", "wo"))


def _ground_streams(model: GroundingModel, cand_reprs, rel_reprs, audio):
    o_self, self_cache = _attn_forward(*_layer_arrays(model.params, "self0"),
                                       cand_reprs, cand_reprs, audio)
    o_cross, cross_cache = _attn_forward(*_layer_arrays(model.params, "cross0"),
                                         cand_reprs, rel_reprs, audio)
    fused = cand_reprs + o_self + o_cross
    logits, head_cache = _mlp_forward(model.params, "head", fused, MLP_DEPTH["head"])
    return logits[:, 0], (self_cache, cross_cache, head_cache)


def _softmax_nll(logits: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    z = logits - logits.max()
    lse = np.log(np.exp(z).sum())
    dlogits = np.exp(z - lse)
    dlogits[target] -= 1.0
    return float(lse - z[target]), dlogits


def _scene_loss(model: GroundingModel, audio, target_class, mention_hot,
                cand_reprs, rel_reprs, target_pos, grads=None):
    parts = np.zeros(3)

    cls_logits, cls_cache = _mlp_forward(model.params, "cls", audio[None, :],
                                         MLP_DEPTH["cls"])
    ce_audio, dcls = _softmax_nll(cls_logits[0], target_class)
    parts[0] = ce_audio

    omd_logits, omd_cache = _mlp_forward(model.params, "omd", audio[None, :],
                                         MLP_DEPTH["omd"])
    x = omd_logits[0]
    y = mention_hot
    bce = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    parts[1] = float(bce.mean())
    # exp may overflow to inf for saturated logits; 1/(1+inf) is the
    # correct sigmoid limit, so only the warning needs suppressing
    with np.errstate(over="ignore"):
        domd = (1.0 / (1.0 + np.exp(-x)) - y) / x.shape[0]

    ground_logits, caches = _ground_streams(model, cand_reprs, rel_reprs, audio)
    ce_ground, dground = _softmax_nll(ground_logits, target_pos)
    parts[2] = ce_ground

    if grads is not None:
        la, lb, lc = LAMBDAS
        _mlp_backward(model.params, "cls", la * dcls[None, :], cls_cache, grads)
        _mlp_backward(model.params, "omd", lb * domd[None, :], omd_cache, grads)
        self_cache, cross_cache, head_cache = caches
        dfused = _mlp_backward(model.params, "head",
                               lc * dground[:, None], head_cache, grads)
        _attn_backward(*_layer_arrays(model.params, "self0"), dfused, self_cache,
                       grads, "self0")
        _attn_backward(*_layer_arrays(model.params, "cross0"), dfused, cross_cache,
                       grads, "cross0")
    return parts


def loss_and_grads(model: GroundingModel, batch: _Batch):
    """Mean joint loss, its three parts, and parameter gradients of a batch."""
    size = len(batch.audio)
    grads: dict[str, np.ndarray] = {}
    parts = np.zeros(3)
    for b in range(size):
        parts += _scene_loss(model, batch.audio[b], batch.target_class[b],
                             batch.mention_hot[b], batch.cand[b, batch.cmask[b]],
                             batch.rel[b, batch.rmask[b]], batch.target_pos[b], grads)
    parts /= size
    for key in list(grads):
        grads[key] = grads[key] / size
    for key in model.params:
        if key not in grads:
            grads[key] = np.zeros_like(model.params[key])
    total = float(np.dot(LAMBDAS, parts))
    return total, parts, grads


def classify_audio(model: GroundingModel, audio) -> np.ndarray:
    """Class distribution for an audio vector (softmax head)."""
    audio = np.asarray(audio, dtype=np.float64)
    logits, _ = _mlp_forward(model.params, "cls", audio[None, :], MLP_DEPTH["cls"])
    z = logits[0] - logits[0].max()
    p = np.exp(z)
    return p / p.sum()


def detect_mentions(model: GroundingModel, audio) -> tuple[np.ndarray, tuple[int, ...]]:
    """Per-class mention probabilities and the thresholded detections."""
    audio = np.asarray(audio, dtype=np.float64)
    logits, _ = _mlp_forward(model.params, "omd", audio[None, :], MLP_DEPTH["omd"])
    with np.errstate(over="ignore"):
        probs = 1.0 / (1.0 + np.exp(-logits[0]))
    detected = tuple(int(c) for c in np.where(probs >= OMD_THRESHOLD)[0])
    return probs, detected


def _predicted_grouping(model: GroundingModel, scene: SyntheticScene
                        ) -> tuple[int, tuple[int, ...]]:
    """Predicted audio class and detected mentions that group the objects."""
    cfg = model.config
    if scene.audio.shape != (cfg.d_audio,):
        raise DataError(f"audio width {scene.audio.shape} != {cfg.d_audio}")
    pred_class = int(np.argmax(classify_audio(model, scene.audio)))
    _, mentions = detect_mentions(model, scene.audio)
    return pred_class, mentions


def _ground_grouped(model: GroundingModel, scene: SyntheticScene,
                    pred_class: int, mentions: tuple[int, ...]) -> GroundingResult:
    """Ground one scene under a given predicted class and mention set."""
    cands, rels = group_objects(scene.objects, pred_class, mentions)
    if not cands:
        raise GroundingFailure(
            f"no object of predicted class {pred_class}; cannot ground")
    reprs = object_representations([scene.objects[i] for i in (*cands, *rels)],
                                   model.config.embed_seed)
    assert reprs.shape[1] == D_OBJ + D_LABEL + 6
    cand_reprs, rel_reprs = reprs[:len(cands)], reprs[len(cands):]
    logits, _ = _ground_streams(model, cand_reprs, rel_reprs, scene.audio)
    z = logits - logits.max()
    probs = np.exp(z)
    probs /= probs.sum()
    winner_pos = int(np.argmax(logits))
    return GroundingResult(cands[winner_pos], probs, tuple(cands),
                           len(rels) == 0, pred_class, mentions)


def ground(model: GroundingModel, scene: SyntheticScene) -> GroundingResult:
    """Run the full inference path on one scene.

    Grouping uses the predicted audio class and detected mentions, not
    the ground truth.  Raises GroundingFailure when no candidate object
    matches the predicted class.
    """
    return _ground_grouped(model, scene, *_predicted_grouping(model, scene))


def train_toy(model: GroundingModel, scenes, config: TrainConfig = TrainConfig()
              ) -> list[EpochRecord]:
    """Train in place with Adam and a stepped learning-rate decay.

    Each minibatch of scenes is prepared (ground-truth grouping, baked
    features) and padded on its own.  Adam's (0.9, 0.999, 1e-8), the 0.9
    decay factor and its 5-epoch period are written out here, not read
    from the package.
    Returns one record per epoch; raises NumericError if the loss stops
    being finite.
    """
    if not scenes:
        raise UsageError("training needs at least one scene")
    rng = np.random.default_rng(config.seed)
    # every parameter becomes a view into one flat vector, so each Adam
    # step is a handful of whole-vector operations updating it in place
    flat = np.concatenate([p.ravel() for p in model.params.values()])
    ends = np.cumsum([p.size for p in model.params.values()])
    for (key, p), part in zip(list(model.params.items()), np.split(flat, ends[:-1])):
        model.params[key] = part.reshape(p.shape)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    step = 0
    records = []
    for epoch in range(config.epochs):
        lr = config.learning_rate * 0.9 ** (epoch // 5)
        order = rng.permutation(len(scenes))
        epoch_loss = 0.0
        epoch_parts = np.zeros(3)
        for start in range(0, len(order), config.batch_size):
            batch = [scenes[i] for i in order[start:start + config.batch_size]]
            loss, parts, grads = grounding.loss_and_grads(model, batch)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss * len(batch)
            epoch_parts += parts * len(batch)
            step += 1
            grad = np.concatenate([grads[k].ravel() for k in model.params])
            m = 0.9 * m + (1 - 0.9) * grad
            v = 0.999 * v + (1 - 0.999) * grad ** 2
            m_hat = m / (1 - 0.9 ** step)
            v_hat = v / (1 - 0.999 ** step)
            flat -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        records.append(EpochRecord(epoch, epoch_loss / len(order),
                                   tuple(epoch_parts / len(order))))
    return records
