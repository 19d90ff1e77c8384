"""Desk-scale training, evaluation and gradient checking."""

from dataclasses import dataclass

import numpy as np

from ..errors import NumericError, UsageError
from .model import (GroundingFailure, GroundingModel, _batch_loss,
                    _ground_grouped, _predicted_groupings, loss_and_grads,
                    prepare_scene)


@dataclass(frozen=True)
class TrainConfig:
    """Adam hyperparameters for the toy curriculum."""

    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 3e-3
    decay: float = 0.9          # applied every decay_every epochs
    decay_every: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise UsageError("epochs and batch size must be positive")
        if self.learning_rate < 0:
            raise UsageError("learning rate must be non-negative")
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


def train_toy(model: GroundingModel, scenes, config: TrainConfig = TrainConfig()
              ) -> list[EpochRecord]:
    """Train in place with Adam and a stepped learning-rate decay.

    Scenes are prepared (ground-truth grouping, baked features) once up
    front.  Returns one record per epoch; raises NumericError if the
    loss stops being finite.
    """
    if not scenes:
        raise UsageError("training needs at least one scene")
    prepared = [prepare_scene(model.config, s) for s in scenes]
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
        lr = config.learning_rate * config.decay ** (epoch // config.decay_every)
        order = rng.permutation(len(prepared))
        epoch_loss = 0.0
        epoch_parts = np.zeros(3)
        for start in range(0, len(order), config.batch_size):
            batch = [prepared[i] for i in order[start:start + config.batch_size]]
            loss, parts, grads = loss_and_grads(model, None, prepared=batch)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss * len(batch)
            epoch_parts += parts * len(batch)
            step += 1
            grad = np.concatenate([grads[k].ravel() for k in model.params])
            m = config.beta1 * m + (1 - config.beta1) * grad
            v = config.beta2 * v + (1 - config.beta2) * grad ** 2
            m_hat = m / (1 - config.beta1 ** step)
            v_hat = v / (1 - config.beta2 ** step)
            flat -= lr * m_hat / (np.sqrt(v_hat) + config.eps)
        records.append(EpochRecord(epoch, epoch_loss / len(order),
                                   tuple(epoch_parts / len(order))))
    return records


def evaluate(model: GroundingModel, scenes) -> EvalReport:
    """Score the full predicted pipeline on held-out scenes.

    Grounding uses the predicted class and mentions; a GroundingFailure
    counts as a miss.  Mention detection is scored micro-averaged over
    scene/class pairs.  The heads and the grounding branch each run over
    the whole set in padded batches.
    """
    if not scenes:
        raise UsageError("evaluation needs at least one scene")
    groupings = _predicted_groupings(model, scenes)
    results = _ground_grouped(model, scenes, groupings)
    audio_hits = 0
    tp = fp = fn = 0
    ground_hits = 0
    failures = 0
    for scene, (pred_class, detected), result in zip(scenes, groupings, results):
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
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    n = len(scenes)
    return EvalReport(audio_hits / n, precision, recall, f1,
                      ground_hits / n, failures, n)


def gradient_check(model: GroundingModel, scenes, step: float = 1e-5,
                   samples_per_tensor: int = 4, seed: int = 0) -> float:
    """Compare analytic gradients against central differences.

    Probes a seeded sample of entries in every parameter tensor and
    returns the worst error: relative, |num - ana| / max(|num|, |ana|),
    except that entries where both magnitudes are at most 1e-4 are
    compared absolutely (a zero gradient, for example the final
    candidate-score bias under the softmax's shift invariance, would
    otherwise divide finite-difference noise by itself).  Used by the
    tests with a 1e-4 bound.
    """
    prepared = [prepare_scene(model.config, s) for s in scenes]
    _, _, grads = loss_and_grads(model, None, prepared=prepared)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for key in sorted(model.params):
        arr = model.params[key]
        flat = arr.reshape(-1)
        count = min(samples_per_tensor, flat.size)
        idx = rng.choice(flat.size, size=count, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            hi, _ = _batch_loss(model, prepared)
            flat[i] = orig - step
            lo, _ = _batch_loss(model, prepared)
            flat[i] = orig
            numeric = (hi - lo) / (2 * step)
            analytic = grads[key].reshape(-1)[i]
            scale = max(abs(numeric), abs(analytic))
            err = abs(numeric - analytic) / scale if scale > 1e-4 else \
                abs(numeric - analytic)
            worst = max(worst, err)
    return worst
