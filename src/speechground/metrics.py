"""Word error rate over unit-cost edit distance.

The (S, D, I) split is deterministic: when edit costs tie, a match is
preferred over a substitution over an insertion over a deletion, so the
split is reproducible even though the distance alone would not pin it
down.
"""

from dataclasses import dataclass

from .errors import UsageError


@dataclass(frozen=True)
class EditCounts:
    """Edit operations aligning a hypothesis to a reference."""

    substitutions: int
    deletions: int
    insertions: int
    ref_length: int

    @property
    def total(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    def __add__(self, other: "EditCounts") -> "EditCounts":
        return EditCounts(self.substitutions + other.substitutions,
                          self.deletions + other.deletions,
                          self.insertions + other.insertions,
                          self.ref_length + other.ref_length)


def _tokens(seq) -> list[str]:
    return seq.split() if isinstance(seq, str) else list(seq)


def wer(reference, hypothesis) -> tuple[EditCounts, float]:
    """Edit counts and error rate of a hypothesis against a reference.

    Accepts strings (whitespace-tokenized) or token sequences.  An
    empty reference yields rate +inf when the hypothesis is non-empty
    and 0.0 when both are empty; the counts stay valid either way.
    One row-by-row pass carries each cell's distance with its (S, D, I)
    split, so no table or backtrace is kept.
    """
    ref = _tokens(reference)
    hyp = _tokens(hypothesis)
    # one row of (distance, S, D, I) per reference prefix; each cell
    # extends the neighbour that the tie order picks first
    prev = [(j, 0, 0, j) for j in range(len(hyp) + 1)]
    for i, r in enumerate(ref, 1):
        left = (i, 0, i, 0)
        row = [left]
        for h, diag, up in zip(hyp, prev, prev[1:]):
            if r == h:
                left = diag
            elif diag[0] <= left[0] and diag[0] <= up[0]:
                left = (diag[0] + 1, diag[1] + 1, diag[2], diag[3])
            elif left[0] <= up[0]:
                left = (left[0] + 1, left[1], left[2], left[3] + 1)
            else:
                left = (up[0] + 1, up[1], up[2] + 1, up[3])
            row.append(left)
        prev = row
    _, subs, dels, ins = prev[-1]
    counts = EditCounts(subs, dels, ins, len(ref))
    if not ref:
        return counts, float("inf") if counts.total else 0.0
    return counts, counts.total / len(ref)


def corpus_wer(pairs) -> tuple[EditCounts, float]:
    """Pool edit counts over (reference, hypothesis) pairs.

    The rate is total errors over total reference length, not a mean
    of per-utterance rates.
    """
    pooled = EditCounts(0, 0, 0, 0)
    for ref, hyp in pairs:
        counts, _ = wer(ref, hyp)
        pooled = pooled + counts
    if pooled.ref_length == 0:
        raise UsageError("corpus WER needs a non-empty total reference")
    return pooled, pooled.total / pooled.ref_length
