"""Analysis numerics for self-supervised speech representations.

Covers the pretraining objectives (contrastive and codebook-diversity
losses, quantizer concatenation) and the two similarity probes used to
compare learned representations: regularized CCA and mutual
information over seeded k-means clusters.  Logs are natural.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, UsageError

KMEANS_ITERATIONS = 50  # fixed Lloyd iteration budget, part of the contract


@dataclass
class Codebooks:
    """G groups of V entries, each entry a d-vector."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 3:
            raise UsageError("codebooks must have shape (G, V, d)")

    @property
    def num_groups(self) -> int:
        return self.entries.shape[0]

    @property
    def num_entries(self) -> int:
        return self.entries.shape[1]


@dataclass
class ContrastiveBatch:
    """One context/target pair with its distractor set."""

    context: np.ndarray
    target: np.ndarray
    negatives: np.ndarray
    temperature: float = 0.1

    def __post_init__(self):
        self.context = np.asarray(self.context, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        self.negatives = np.asarray(self.negatives, dtype=np.float64)
        if self.negatives.ndim == 1 and self.negatives.size == 0:
            self.negatives = self.negatives.reshape(0, self.target.shape[0])
        if self.context.shape != self.target.shape or self.context.ndim != 1:
            raise UsageError("context and target must be equal-length vectors")
        if self.negatives.ndim != 2 or self.negatives.shape[1] != self.target.shape[0]:
            raise UsageError("negatives must be (M, d) matching the target")
        if not 0 < self.temperature < np.inf:
            raise UsageError(f"temperature must be finite and positive, got {self.temperature}")


@dataclass
class CodebookUsage:
    """Mean softmax usage per codebook group, rows summing to one."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2:
            raise UsageError("usage must have shape (G, V)")
        if np.any(self.probs < 0):
            raise DataError("usage probabilities must be non-negative")
        slack = np.abs(self.probs.sum(axis=1) - 1.0)
        if self.probs.shape[1] and np.any(slack > 1e-6):
            raise DataError(f"usage row {int(np.argmax(slack))} does not sum to 1")


def quantize_concat(selection, codebooks: Codebooks) -> np.ndarray:
    """Concatenate the chosen entry from each group into one vector."""
    sel = [int(v) for v in selection]
    if len(sel) != codebooks.num_groups:
        raise UsageError(
            f"selection names {len(sel)} groups, expected {codebooks.num_groups}")
    for g, v in enumerate(sel):
        if not 0 <= v < codebooks.num_entries:
            raise UsageError(f"group {g}: entry {v} outside 0..{codebooks.num_entries - 1}")
    return np.concatenate([codebooks.entries[g, v] for g, v in enumerate(sel)])


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # each vector is divided by its largest |entry| so that its norm cannot overflow
    sa = np.max(np.abs(a), initial=0.0)
    sb = np.max(np.abs(b), axis=-1, keepdims=True, initial=0.0)
    if sa == 0 or np.any(sb == 0):
        raise DataError("cosine similarity undefined for zero-norm vectors")
    a, b = a / sa, b / sb
    return (b @ a) / (np.linalg.norm(a) * np.linalg.norm(b, axis=-1))


def contrastive_loss(batch: ContrastiveBatch) -> float:
    """Softmax over temperature-scaled cosine similarities, NLL of the target.

    With no negatives the softmax is over a single candidate and the
    loss is exactly zero.
    """
    sims = [_cosine(batch.context, batch.target)]
    if batch.negatives.shape[0]:
        sims.extend(_cosine(batch.context, batch.negatives))
    logits = np.asarray(sims) / batch.temperature
    logits -= np.max(logits)
    return float(np.log(np.exp(logits).sum()) - logits[0])


def diversity_loss(usage: CodebookUsage) -> float:
    """(G/V) times the summed negative entropy of the usage rows.

    Always <= 0; equals 0 exactly when every row is one-hot, and hits
    its minimum -G^2*ln(V)/V when every row is uniform.
    """
    p = usage.probs
    g, v = p.shape
    if v == 0:
        raise UsageError("usage needs at least one codebook entry")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return float((g / v) * terms.sum())


def cca_corrs(x: np.ndarray, y: np.ndarray, reg: float = 1e-6) -> np.ndarray:
    """Canonical correlations of two views, largest first.

    Solves the regularized eigenproblem by whitening both covariances
    and taking singular values of the whitened cross-covariance; the
    result is clipped into [0, 1].

    Args:
        x: observations, shape (n, p).
        y: observations, shape (n, q); same n.
        reg: ridge added to both auto-covariances; finite and >= 0, and
            0 only works when both covariances are well-conditioned.

    Returns:
        min(p, q) correlations, descending.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise UsageError("views must be 2-D with a shared number of rows")
    if x.shape[0] < 2:
        raise UsageError("need at least two observations")
    if not 0 <= reg < np.inf:
        raise UsageError(f"reg must be finite and non-negative, got {reg}")
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    sxx = xc.T @ xc / (n - 1) + reg * np.eye(x.shape[1])
    syy = yc.T @ yc / (n - 1) + reg * np.eye(y.shape[1])
    sxy = xc.T @ yc / (n - 1)

    def inv_sqrt(mat: np.ndarray, name: str) -> np.ndarray:
        vals, vecs = np.linalg.eigh(mat)
        floor = np.max(np.abs(vals)) * 1e-12
        if np.any(vals <= floor):
            raise NumericError(
                f"{name} covariance is singular; increase reg above 0")
        return vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T

    m = inv_sqrt(sxx, "x") @ sxy @ inv_sqrt(syy, "y")
    corrs = np.linalg.svd(m, compute_uv=False)
    return np.clip(corrs, 0.0, 1.0)


def _kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded k-means++-style init then a fixed 50 Lloyd iterations."""
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_ITERATIONS):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(dists, axis=1)
        for j in range(k):
            members = points[assign == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
    return assign


def mutual_information(features: np.ndarray, labels, num_clusters: int,
                       seed: int = 0) -> float:
    """MI in nats between k-means cluster ids of `features` and `labels`.

    Clustering is deterministic given the seed: k-means++-style
    initialization followed by exactly 50 Lloyd iterations.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] == 0:
        raise UsageError("features must be a non-empty (n, d) array")
    if labels.shape != (features.shape[0],):
        raise UsageError("labels must align with the feature rows")
    n = features.shape[0]
    if not 1 <= num_clusters <= n:
        raise UsageError(f"num_clusters must be in 1..{n}, got {num_clusters}")
    if seed < 0:
        raise UsageError("seed must be non-negative")
    assign = _kmeans(features, num_clusters, seed)
    _, label_ids = np.unique(labels, return_inverse=True)
    counts = np.zeros((num_clusters, label_ids.max() + 1))
    np.add.at(counts, (assign, label_ids), 1.0)
    row = counts.sum(axis=1, keepdims=True)
    col = counts.sum(axis=0, keepdims=True)
    # integer-count ratio (exact 1.0 for degenerate marginals) and an
    # exact sum, so relabelings cannot shift the result by an ulp
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(counts > 0, counts * n / (row * col), 1.0)
    terms = (counts / n) * np.log(ratio)
    return max(math.fsum(terms.ravel()), 0.0)
