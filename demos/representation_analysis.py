"""Probe learned representations: contrastive targets, CCA, clustered MI."""

import math

import numpy as np

from speechground.selfsup import (Codebooks, CodebookUsage, ContrastiveBatch,
                                  cca_corrs, contrastive_loss, diversity_loss,
                                  mutual_information, quantize_concat)

rng = np.random.default_rng(3)

# Quantized targets: two groups of four entries; a selection picks one
# entry per group and concatenates them.
books = Codebooks(rng.standard_normal((2, 4, 3)))
target = quantize_concat((1, 2), books)
print(f"quantized target dim {target.shape[0]} from "
      f"{books.num_groups} groups x {books.num_entries} entries")

# The contrastive loss ranks the true target against negatives by
# cosine similarity.  Aligned context, orthogonal negative, temperature
# one gives exactly log(1 + e^-1).
context = np.array([1.0, 0.0, 0.0])
loss = contrastive_loss(ContrastiveBatch(
    context, context, np.array([[0.0, 1.0, 0.0]]), temperature=1.0))
print(f"two-candidate loss {loss:.6f} vs log(1 + e^-1) = "
      f"{math.log1p(math.exp(-1.0)):.6f}")

# Diversity pushes codebook usage toward uniform: one-hot rows score 0,
# uniform rows hit the minimum.
print(f"diversity one-hot {diversity_loss(CodebookUsage([[1.0, 0.0]])):.4f}, "
      f"uniform {diversity_loss(CodebookUsage([[0.5, 0.5]])):.4f}")

# CCA finds how much two views share up to linear maps.  A rotated copy
# correlates perfectly; an independent view does not.
x = rng.standard_normal((500, 5))
rotated = x @ rng.standard_normal((5, 5))
independent = rng.standard_normal((500, 5))
print(f"CCA(x, rotated x):    {np.round(cca_corrs(x, rotated), 4)}")
print(f"CCA(x, independent):  {np.round(cca_corrs(x, independent), 4)}")
print(f"similarity scores (mean correlation): {cca_corrs(x, rotated).mean():.4f} vs "
      f"{cca_corrs(x, independent).mean():.4f}")

# Mutual information between k-means clusters of a feature space and
# external labels measures what the features encode.  Features built
# from the labels recover the full label entropy; independent features
# share almost nothing.
labels = rng.integers(0, 3, size=3000)
encoded = np.eye(3)[labels] + 0.05 * rng.standard_normal((3000, 3))
noise = rng.standard_normal((3000, 3))
h = -sum(f * math.log(f) for f in np.bincount(labels) / 3000)
print(f"label entropy {h:.4f} nats")
print(f"MI(encoded, labels) = "
      f"{mutual_information(encoded, labels, num_clusters=3):.4f}")
print(f"MI(noise, labels)   = "
      f"{mutual_information(noise, labels, num_clusters=3):.4f}")
