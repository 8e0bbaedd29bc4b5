"""Interest and matching scores with their bounds (Eqs. 1-2, 15, 18).

* ``Interest_Score(u_j, u_k)`` — dot product of interest vectors (Eq. 1).
* ``Match_Score(u_j, R)`` — the total interest mass of ``u_j`` on topics
  covered by the POI set ``R`` (Eq. 2): ``sum_f w_f * chi(f in ∪ o.K)``.
* ``ub_Match_Score(u_j, e_R)`` — the same sum over the keyword *superset*
  of an index entry (Eq. 15); supersets only add indicator terms, so the
  result upper-bounds the true score (Lemma 2's monotonicity).
* ``lb_Match_Score(S, e_R)`` — the max over sample objects of the min
  over users of the score against the sample's keyword *subset* (Eq. 18).

Bit-vector variants evaluate the indicator on hashed vectors; hash
collisions only turn 0-indicators into 1s, so the bit-vector score is
itself an upper bound of the exact-set score — safe wherever an upper
bound is required.
"""

from __future__ import annotations

from typing import AbstractSet, Sequence

import numpy as np

from ..index.bitvector import KeywordBitVector
from ..socialnet.interests import interest_score

__all__ = [
    "first_theta_matched_row",
    "interest_score",
    "match_score",
    "match_score_bitvector",
    "match_score_tolerance",
    "min_match_over_users",
    "theta_matched_rows",
]


def match_score(interests: np.ndarray, keywords: AbstractSet[int]) -> float:
    """``Match_Score`` of one user against a keyword set (Eq. 2).

    Args:
        interests: the user's ``d``-dimensional interest vector.
        keywords: keyword/topic ids covered by the POI set (``∪ o.K``).
    """
    total = 0.0
    for f, weight in enumerate(interests):
        if f in keywords:
            total += float(weight)
    return total


def match_score_tolerance(interests: np.ndarray) -> float:
    """How far a matmul ``Match_Score`` may sit from :func:`match_score`.

    A matmul may add a user's covered weights in any order, and any
    order of a ``d``-term sum lies within ``d·ε/2·‖w‖₁`` of the exact
    value, so two orders differ by less than ``2·d·ε·‖w‖₁``. Returns the
    largest such bound over the users in ``interests`` (one vector, or
    one ``(k, d)`` row per user).
    """
    d = interests.shape[-1]
    return 2.0 * d * float(np.finfo(np.float64).eps) * float(
        np.abs(interests).sum(axis=-1).max()
    )


def _row_matched(cover: np.ndarray, interests: np.ndarray, theta: float) -> bool:
    covered = set(np.flatnonzero(cover).tolist())
    return all(match_score(w, covered) >= theta for w in interests)


def theta_matched_rows(
    scores: np.ndarray,
    covers: np.ndarray,
    interests: np.ndarray,
    theta: float,
    tol: float,
) -> np.ndarray:
    """Per topic cover: does every user reach ``theta``, as
    :func:`match_score` decides it?

    ``scores`` is the ``(m, k)`` matmul ``covers @ interests.T`` of
    ``m`` topic-cover rows against ``k`` users and ``tol`` is
    :func:`match_score_tolerance` of ``interests``. A row whose lowest
    score is farther than ``tol`` from ``theta`` keeps the matmul's
    decision; the rare rows within it are re-scored with
    :func:`match_score`'s topic-ordered sum, so a vectorized gate never
    disagrees with the scalar one at a boundary.
    """
    mins = scores.min(axis=1)
    matched = mins >= theta
    for i in np.flatnonzero(np.abs(mins - theta) <= tol).tolist():
        matched[i] = _row_matched(covers[i], interests, theta)
    return matched


def first_theta_matched_row(
    scores: np.ndarray,
    covers: np.ndarray,
    interests: np.ndarray,
    theta: float,
    tol: float,
) -> int:
    """Index of the first row :func:`theta_matched_rows` accepts, or -1.

    Scans the row minima in Python and stops at the first decided
    match, which beats the vector form on the short, usually early-
    matching prefix scans of the refinement kernel.
    """
    lo, hi = theta - tol, theta + tol
    for i, low in enumerate(scores.min(axis=1).tolist()):
        if low < lo:
            continue
        if low > hi or _row_matched(covers[i], interests, theta):
            return i
    return -1


def match_score_bitvector(
    interests: np.ndarray, vector: KeywordBitVector
) -> float:
    """Matching score evaluated on a hashed keyword bit vector.

    Because ``might_contain`` has no false negatives, this value is an
    upper bound of :func:`match_score` against the underlying exact set,
    which is what the index-level pruning (Lemma 6) requires.
    """
    total = 0.0
    for f, weight in enumerate(interests):
        if vector.might_contain(f):
            total += float(weight)
    return total


def min_match_over_users(
    user_interest_vectors: Sequence[np.ndarray],
    keywords: AbstractSet[int],
) -> float:
    """``min_{u_j in S} Match_Score(u_j, ·)`` — the inner term of Eq. 18."""
    if not user_interest_vectors:
        return 0.0
    return min(match_score(w, keywords) for w in user_interest_vectors)
