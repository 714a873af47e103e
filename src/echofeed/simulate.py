"""Top-K recommendation plus the synthetic filter-bubble demonstration.

The fragmentation index measures how strongly recommendations stay inside a
user's own community: 1.0 means total segregation, about 1/C means none for
C equally sized communities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    IndexOutOfRangeError,
    InvalidParameterError,
)
from .model import FactorModel, _dot, _rng, check_dense, check_dimensions
from .ratings import RatingMatrix, _build, check_index


@dataclass(frozen=True)
class CommunityLabels:
    """Community id per user and per event; ids are 0..n_communities-1."""

    labels: tuple[int, ...]
    n_communities: int
    event_labels: tuple[int, ...]


@dataclass(frozen=True)
class RecommendationList:
    """Events for one user, ranked by descending predicted score."""

    user: int
    events: tuple[int, ...]
    scores: tuple[float, ...]


def check_k_recs(k_recs: int) -> None:
    """Raise InvalidParameterError unless top_k accepts k_recs."""
    if k_recs < 1:
        raise InvalidParameterError(f"k_recs must be >= 1, got {k_recs}")


def check_engagement(accept_top: int, accept_value: float) -> None:
    """Raise InvalidParameterError unless engagement_round accepts these."""
    if accept_top < 1:
        raise InvalidParameterError(f"accept_top must be >= 1, got {accept_top}")
    if not math.isfinite(accept_value):
        raise InvalidParameterError(f"accept_value must be finite, got {accept_value}")
    if accept_value <= 0:
        raise InvalidParameterError(f"accept_value must be > 0, got {accept_value}")


def top_k(
    model: FactorModel,
    matrix: RatingMatrix,
    u: int,
    k_recs: int,
    exclude_observed: bool = True,
) -> RecommendationList:
    """The k_recs highest-scoring events for user u.

    Ties break toward the lower event index, and NaN scores come last. If
    fewer candidates exist than requested, all of them are returned.
    """
    check_dimensions(model, matrix)
    check_index("user", u, model.n_users)
    check_k_recs(k_recs)
    # finite factors may still overflow when scored: such scores are inf or
    # nan, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        scores = _dot(model.event_factors, model.user_factors[u])
    candidates = np.arange(model.n_events)
    if exclude_observed:
        lo, hi = np.searchsorted(matrix.users, (u, u + 1))
        candidates = np.delete(candidates, matrix.events[lo:hi])
    key = -scores[candidates]
    if k_recs < len(key):
        # a stable sort's first k_recs keys are never above the k-th smallest,
        # so only those candidates are sorted: every tie at the boundary stays,
        # and a NaN k-th (fewer than k_recs numbers) keeps them all
        kth = np.partition(key, k_recs - 1)[k_recs - 1]
        keep = ~(key > kth)
        candidates, key = candidates[keep], key[keep]
    # a stable sort of ascending candidates breaks score ties toward the lower index
    ranked = candidates[np.argsort(key, kind="stable")[:k_recs]]
    return RecommendationList(
        user=u,
        events=tuple(ranked.tolist()),
        scores=tuple(scores[ranked].tolist()),
    )


def synth_community_matrix(
    n_users: int,
    n_events: int,
    n_communities: int,
    in_rate: float,
    cross_rate: float,
    seed: int,
) -> tuple[RatingMatrix, CommunityLabels]:
    """Planted-community synthetic data.

    Users and events are assigned to communities round-robin. A matching
    (user, event) pair is observed with probability in_rate at a value
    uniform in [3, 5]; a non-matching pair with probability cross_rate at a
    value uniform in [1, 2]. Deterministic given the seed.
    """
    if n_users < 1 or n_events < 1 or n_communities < 1:
        raise InvalidParameterError("n_users, n_events, n_communities must all be >= 1")
    # community ids are int64, like the indices they label
    if n_communities > np.iinfo(np.int64).max:
        raise InvalidParameterError(f"n_communities must fit in int64, got {n_communities}")
    check_dense("community matrix", n_users, n_events)
    if not 0 <= cross_rate <= in_rate <= 1:
        raise InvalidParameterError(
            f"need 0 <= cross_rate <= in_rate <= 1, got cross={cross_rate}, in={in_rate}"
        )
    user_labels = np.arange(n_users) % n_communities
    event_labels = np.arange(n_events) % n_communities
    same = user_labels[:, None] == event_labels[None, :]

    rng = _rng(seed)
    observed = rng.random((n_users, n_events)) < np.where(same, in_rate, cross_rate)
    values = np.where(
        same,
        rng.uniform(3.0, 5.0, size=same.shape),
        rng.uniform(1.0, 2.0, size=same.shape),
    )
    users, events = np.nonzero(observed)
    matrix = RatingMatrix(
        n_users, n_events, users.astype(np.int64), events.astype(np.int64), values[observed]
    )
    labels = CommunityLabels(
        labels=tuple(int(c) for c in user_labels),
        n_communities=n_communities,
        event_labels=tuple(int(c) for c in event_labels),
    )
    return matrix, labels


def fragmentation_index(recs: list[RecommendationList], labels: CommunityLabels) -> float:
    """Fraction of (user, recommended event) pairs inside one community."""
    total = 0
    matches = 0
    for rl in recs:
        if not 0 <= rl.user < len(labels.labels):
            raise IndexOutOfRangeError(f"user {rl.user} has no community label")
        own = labels.labels[rl.user]
        for ev in rl.events:
            if not 0 <= ev < len(labels.event_labels):
                raise IndexOutOfRangeError(f"event {ev} has no community label")
            total += 1
            if labels.event_labels[ev] == own:
                matches += 1
    if total == 0:
        raise EmptyInputError("no recommendation pairs to score")
    return matches / total


def engagement_round(
    matrix: RatingMatrix,
    model: FactorModel,
    accept_top: int,
    accept_value: float,
) -> RatingMatrix:
    """Users engage with what they are shown: append each user's top
    accept_top unobserved recommendations as new observations.

    Existing observations are never altered. The acceptance rule is
    deterministic.
    """
    check_dimensions(model, matrix)
    check_engagement(accept_top, accept_value)
    new_users: list[int] = []
    new_events: list[int] = []
    for u in range(matrix.n_users):
        recs = top_k(model, matrix, u, accept_top, exclude_observed=True)
        new_users.extend([u] * len(recs.events))
        new_events.extend(recs.events)
    # recommendations exclude observed cells, so no (user, event) repeats
    users = np.concatenate((matrix.users, np.array(new_users, dtype=np.int64)))
    events = np.concatenate((matrix.events, np.array(new_events, dtype=np.int64)))
    values = np.concatenate((matrix.values, np.full(len(new_users), float(accept_value))))
    return _build(users, events, values, matrix.n_users, matrix.n_events)
