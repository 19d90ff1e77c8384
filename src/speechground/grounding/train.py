"""Desk-scale training, evaluation and gradient checking."""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..errors import NumericError, UsageError
from .model import (GroundingFailure, GroundingModel, _batch_loss, _flat_views,
                    _ground_grouped, _predicted_groupings, _prepare_set,
                    _zero_grads)
from .scene import _CHUNK

_BETA1, _BETA2, _EPS, _DECAY, _DECAY_EVERY = 0.9, 0.999, 1e-8, 0.9, 5


@dataclass(frozen=True)
class TrainConfig:
    """Toy curriculum schedule; Adam's (`_BETA1`, `_BETA2`, `_EPS`) are (0.9, 0.999,
    1e-8), and the learning rate drops by `_DECAY` = 0.9 every `_DECAY_EVERY` = 5 epochs."""

    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 3e-3
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size) < 1:
            raise UsageError("epochs and batch size must be positive")
        if not 0 <= self.learning_rate < np.inf:
            raise UsageError(f"learning rate must be finite and non-negative, "
                             f"got {self.learning_rate}")
        if self.seed < 0:
            raise UsageError("seed must be non-negative")


@dataclass(frozen=True)
class EpochRecord:
    """Mean training loss for one epoch."""

    epoch: int
    loss: float
    parts: tuple[float, float, float]


@dataclass(frozen=True)
class EvalReport:
    """Held-out metrics for the three branches."""

    audio_accuracy: float
    mention_precision: float
    mention_recall: float
    mention_f1: float
    grounding_accuracy: float
    failures: int
    num_scenes: int


@np.errstate(over="ignore", invalid="ignore")  # the loss and parameter checks report it
def train_toy(model: GroundingModel, scenes, config: TrainConfig = TrainConfig()
              ) -> list[EpochRecord]:
    """Train in place with Adam and a stepped learning-rate decay.

    Scenes are prepared (ground-truth grouping, baked features) and
    padded once up front; each minibatch is cut from that set at its own
    width.  Returns one record per epoch; raises NumericError if the loss
    or, after the last step, a parameter stops being finite.
    """
    data = _prepare_set(model.config, scenes)
    rng = np.random.default_rng(config.seed)
    # every parameter and its gradient is a view into one flat vector, so
    # each Adam step is a handful of in-place whole-vector operations
    flat = np.concatenate([p.ravel() for p in model.params.values()])
    model.params.update(_flat_views(model.params, flat))
    grad = np.zeros_like(flat)
    grads = _flat_views(model.params, grad)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    tmp, den = np.empty_like(flat), np.empty_like(flat)  # Adam scratch
    b1, b2 = _BETA1, _BETA2
    step = 0
    records = []
    num_scenes = len(scenes)
    for epoch in range(config.epochs):
        lr = config.learning_rate * _DECAY ** (epoch // _DECAY_EVERY)
        order = rng.permutation(num_scenes)
        epoch_loss = 0.0
        epoch_parts = np.zeros(3)
        for start in range(0, num_scenes, config.batch_size):
            idx = order[start:start + config.batch_size]
            grad.fill(0.0)
            loss, parts = _batch_loss(model, data.take(idx), grads)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss * len(idx)
            epoch_parts += parts * len(idx)
            step += 1
            # m = b1·m + (1-b1)·g and v = b2·v + (1-b2)·g², then
            # flat -= (lr·m̂) / (√v̂ + eps), all in place
            m *= b1
            m += np.multiply(grad, 1 - b1, out=tmp)
            v *= b2
            v += np.multiply(np.square(grad, out=tmp), 1 - b2, out=tmp)
            np.multiply(np.divide(m, 1 - b1 ** step, out=tmp), lr, out=tmp)
            np.sqrt(np.divide(v, 1 - b2 ** step, out=den), out=den)
            den += _EPS
            flat -= np.divide(tmp, den, out=tmp)
        records.append(EpochRecord(epoch, epoch_loss / num_scenes,
                                   tuple(epoch_parts / num_scenes)))
    # the loss check sees every step's parameters but the last one's
    if not np.isfinite(flat).all():
        raise NumericError(f"non-finite parameters after epoch {config.epochs - 1}")
    return records


def evaluate(model: GroundingModel, scenes) -> EvalReport:
    """Score the full predicted pipeline on held-out scenes.

    Grounding uses the predicted class and mentions; a GroundingFailure
    counts as a miss.  Mention detection is scored micro-averaged over
    scene/class pairs.  `scenes` may be any iterable: it is read and
    scored `_CHUNK` scenes at a time, the heads and the grounding branch
    each over the whole chunk in padded batches, and a scene scores the
    same bits in any batch.  A score that is not finite raises
    NumericError.
    """
    audio_hits = tp = fp = fn = ground_hits = failures = n = 0
    stream = iter(scenes)
    while chunk := list(islice(stream, _CHUNK)):
        groupings = _predicted_groupings(model, chunk)
        results = _ground_grouped(model, chunk, groupings)
        for scene, (pred_class, detected), result in zip(chunk, groupings, results):
            if pred_class == scene.target_class:
                audio_hits += 1
            truth = set(scene.mentioned_classes)
            got = set(detected)
            tp += len(truth & got)
            fp += len(got - truth)
            fn += len(truth - got)
            if isinstance(result, GroundingFailure):
                failures += 1
            elif result.winner_index == scene.target_index:
                ground_hits += 1
        n += len(chunk)
    if not n:
        raise UsageError("evaluation needs at least one scene")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return EvalReport(audio_hits / n, precision, recall, f1,
                      ground_hits / n, failures, n)


def gradient_check(model: GroundingModel, scenes, samples_per_tensor: int = 4,
                   seed: int = 0) -> float:
    """Compare analytic gradients against central differences of step 1e-5.

    Probes a seeded sample of entries in every parameter tensor and
    returns the worst error: relative, |num - ana| / max(|num|, |ana|),
    except that entries where both magnitudes are at most 1e-4 are
    compared absolutely (a zero gradient, for example the final
    candidate-score bias under the softmax's shift invariance, would
    otherwise divide finite-difference noise by itself).  Used by the
    tests with a 1e-4 bound.
    """
    batch = _prepare_set(model.config, scenes)
    grads = _zero_grads(model.params)
    _batch_loss(model, batch, grads)
    rng = np.random.default_rng(seed)
    step, worst = 1e-5, 0.0
    for key in sorted(model.params):
        arr = model.params[key]
        flat = arr.reshape(-1)
        count = min(samples_per_tensor, flat.size)
        idx = rng.choice(flat.size, size=count, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            hi, _ = _batch_loss(model, batch)
            flat[i] = orig - step
            lo, _ = _batch_loss(model, batch)
            flat[i] = orig
            numeric = (hi - lo) / (2 * step)
            analytic = grads[key].reshape(-1)[i]
            scale = max(abs(numeric), abs(analytic))
            err = abs(numeric - analytic) / scale if scale > 1e-4 else \
                abs(numeric - analytic)
            worst = max(worst, err)
    return worst
