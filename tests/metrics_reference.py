"""Reference word error rate: the full-table Levenshtein with a backtrace.

This is `speechground.metrics.wer` as it was before the one-pass form
that carries the edit counts along each row.  It is kept as the exact
oracle for that form: when edit costs tie, the backtrace prefers a
match, then a substitution, then an insertion, then a deletion.
"""

import numpy as np

from speechground.metrics import EditCounts, _tokens


def wer(reference, hypothesis) -> tuple[EditCounts, float]:
    """Edit counts and error rate of a hypothesis against a reference."""
    ref = _tokens(reference)
    hyp = _tokens(hypothesis)
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if ref[i - 1] == hyp[j - 1]:
                dist[i, j] = dist[i - 1, j - 1]
            else:
                dist[i, j] = 1 + min(dist[i - 1, j - 1], dist[i, j - 1],
                                     dist[i - 1, j])
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] \
                and dist[i, j] == dist[i - 1, j - 1]:
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + 1:
            subs += 1
            i, j = i - 1, j - 1
        elif j > 0 and dist[i, j] == dist[i, j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    counts = EditCounts(subs, dels, ins, n)
    if n == 0:
        rate = float("inf") if counts.total else 0.0
    else:
        rate = counts.total / n
    return counts, rate
