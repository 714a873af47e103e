import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echofeed.errors import (
    EmptyInputError,
    IndexOutOfRangeError,
    InvalidParameterError,
)
from echofeed.model import FactorModel, _dot, init_model, predict
from echofeed.ratings import from_triplets
from echofeed.simulate import (
    CommunityLabels,
    RecommendationList,
    engagement_round,
    fragmentation_index,
    synth_community_matrix,
    top_k,
)
from echofeed.training import TrainConfig, train


def manual_model(user_rows, event_rows, gamma=0.0):
    uf = np.array(user_rows, dtype=float)
    ef = np.array(event_rows, dtype=float)
    return FactorModel(gamma=gamma, user_factors=uf, event_factors=ef)


# --- top_k ---


def test_top_k_all_zero_scores_tie_break_by_index():
    model = manual_model([[1.0]], [[0.0]] * 5)
    matrix = from_triplets([], 1, 5)
    recs = top_k(model, matrix, 0, 3, exclude_observed=False)
    assert recs.events == (0, 1, 2)
    assert recs.scores == (0.0, 0.0, 0.0)


def test_top_k_ranks_by_score():
    model = manual_model([[1.0]], [[3.0], [1.0], [2.0]])
    matrix = from_triplets([], 1, 3)
    recs = top_k(model, matrix, 0, 3, exclude_observed=False)
    assert recs.events == (0, 2, 1)
    assert recs.scores == (3.0, 2.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 40), st.integers(1, 64)),
    seed=st.integers(0, 2**32 - 1),
    k_recs=st.integers(1, 64),
    exclude_observed=st.booleans(),
    data=st.data(),
)
def test_top_k_matches_full_sort_oracle(shape, seed, k_recs, exclude_observed, data):
    n_users, n_events, k = shape
    rng = np.random.default_rng(seed)
    uf = rng.normal(size=(n_users, k))
    ef = rng.normal(size=(n_events, k))
    event = st.integers(0, n_events - 1)
    # duplicated event rows score exactly alike, so ties must break by index
    for dst, src in data.draw(st.lists(st.tuples(event, event), max_size=n_events)):
        ef[dst] = ef[src]
    if data.draw(st.booleans()):
        uf[-1] = 0.0  # every score of the last user is a signed zero
    model = FactorModel(gamma=0.0, user_factors=uf, event_factors=ef)
    observed = data.draw(st.sets(st.tuples(st.integers(0, n_users - 1), event)))
    if data.draw(st.booleans()):
        observed |= {(0, i) for i in range(n_events)}  # user 0 has seen every event
    matrix = from_triplets([(u, i, 1.0) for u, i in observed], n_users, n_events)
    for u in range(n_users):
        candidates = [
            i for i in range(n_events) if not (exclude_observed and (u, i) in observed)
        ]
        oracle = sorted(candidates, key=lambda i: (-predict(model, u, i), i))[:k_recs]
        recs = top_k(model, matrix, u, k_recs, exclude_observed=exclude_observed)
        assert list(recs.events) == oracle
        assert list(recs.scores) == [predict(model, u, i) for i in oracle]


def full_sort_top_k(model, matrix, u, k_recs, exclude_observed):
    """top_k's ranking as a stable sort of every candidate: events and scores."""
    with np.errstate(over="ignore", invalid="ignore"):
        scores = _dot(model.event_factors, model.user_factors[u])
    candidates = np.arange(model.n_events)
    if exclude_observed:
        lo, hi = np.searchsorted(matrix.users, (u, u + 1))
        candidates = np.delete(candidates, matrix.events[lo:hi])
    ranked = candidates[np.argsort(-scores[candidates], kind="stable")[:k_recs]]
    return ranked, scores[ranked]


# products of these overflow to +-inf, and inf - inf sums to nan
_EDGE_FACTOR = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e200, -1e200])


@st.composite
def edge_rankings(draw):
    """(user rows, event rows, observed (user, event) pairs) of one factor size."""
    k = draw(st.integers(1, 3))
    row = st.lists(_EDGE_FACTOR, min_size=k, max_size=k)
    n_events = draw(st.integers(1, 40))
    users = draw(st.lists(row, min_size=1, max_size=3))
    events = draw(st.lists(row, min_size=n_events, max_size=n_events))
    pairs = st.tuples(st.integers(0, len(users) - 1), st.integers(0, n_events - 1))
    return users, events, draw(st.sets(pairs))


@settings(max_examples=400, deadline=None)
@given(case=edge_rankings(), k_recs=st.integers(1, 50), exclude_observed=st.booleans())
# ties at the boundary: scores 0.0, -0.0, 1.0, 2.0 with k_recs 3, where
# np.argpartition's first three are events 3, 2, 1 but the answer is 3, 2, 0
@example(case=([[1.0]], [[0.0], [-0.0], [1.0], [2.0]], set()), k_recs=3, exclude_observed=False)
# scores nan, nan, nan, 2e200: fewer than k_recs numbers, so the k-th key is nan
@example(
    case=([[1e200, 1e200]], [[1e200, -1e200]] * 3 + [[1.0, 1.0]], set()),
    k_recs=3,
    exclude_observed=False,
)
# k_recs at least the number of candidates: no partition
@example(case=([[1.0], [2.0]], [[0.5], [-0.0], [1e200]], {(0, 2)}), k_recs=2, exclude_observed=True)
def test_top_k_matches_stable_full_sort_on_edge_scores(case, k_recs, exclude_observed):
    users, events, observed = case
    model = manual_model(users, events)
    matrix = from_triplets([(u, i, 1.0) for u, i in observed], len(users), len(events))
    for u in range(len(users)):
        expected, expected_scores = full_sort_top_k(model, matrix, u, k_recs, exclude_observed)
        with np.errstate(all="raise"):
            recs = top_k(model, matrix, u, k_recs, exclude_observed=exclude_observed)
        assert list(recs.events) == expected.tolist()
        # bit patterns: nan payloads and the sign of zero must match too
        got = np.array(recs.scores, dtype=np.float64)
        assert got.view(np.int64).tolist() == expected_scores.view(np.int64).tolist()


def test_top_k_excludes_observed():
    model = manual_model([[1.0]], [[3.0], [1.0], [2.0]])
    matrix = from_triplets([(0, 0, 5.0)], 1, 3)
    recs = top_k(model, matrix, 0, 3, exclude_observed=True)
    assert recs.events == (2, 1)


def test_top_k_overflowed_score_is_inf_without_warning():
    model = manual_model([[1e200]], [[1e200], [1.0]])
    matrix = from_triplets([], 1, 2)
    with np.errstate(all="raise"):
        recs = top_k(model, matrix, 0, 2, exclude_observed=False)
    assert recs.events == (0, 1)
    assert recs.scores == (math.inf, 1e200)


def test_top_k_returns_all_when_short():
    model = manual_model([[1.0]], [[1.0], [2.0]])
    matrix = from_triplets([], 1, 2)
    recs = top_k(model, matrix, 0, 10, exclude_observed=False)
    assert len(recs.events) == 2


def test_top_k_scores_non_increasing():
    model = init_model(5, 25, 2, 0.0, seed=3, scale=1.0)
    matrix = from_triplets([], 5, 25)
    for u in range(5):
        recs = top_k(model, matrix, u, 10, exclude_observed=False)
        assert all(a >= b for a, b in zip(recs.scores, recs.scores[1:]))


def test_top_k_validation():
    model = manual_model([[1.0]], [[1.0]])
    matrix = from_triplets([], 1, 1)
    with pytest.raises(IndexOutOfRangeError):
        top_k(model, matrix, 4, 1)
    with pytest.raises(InvalidParameterError):
        top_k(model, matrix, 0, 0)


# --- synthetic communities ---


def test_synth_cross_rate_zero_is_purely_intra():
    matrix, labels = synth_community_matrix(12, 12, 3, 0.7, 0.0, seed=4)
    for u, e in zip(matrix.users.tolist(), matrix.events.tolist()):
        assert labels.labels[u] == labels.event_labels[e]


def test_synth_no_rates_no_observations():
    matrix, _ = synth_community_matrix(10, 10, 2, 0.0, 0.0, seed=4)
    assert len(matrix) == 0


def test_synth_counts_within_binomial_bounds():
    matrix, labels = synth_community_matrix(40, 40, 2, 0.5, 0.05, seed=123)
    intra_pairs = sum(
        1 for u in range(40) for e in range(40)
        if labels.labels[u] == labels.event_labels[e]
    )
    inter_pairs = 1600 - intra_pairs
    intra = sum(
        1 for u, e in zip(matrix.users.tolist(), matrix.events.tolist())
        if labels.labels[u] == labels.event_labels[e]
    )
    inter = len(matrix) - intra
    for count, n, p in [(intra, intra_pairs, 0.5), (inter, inter_pairs, 0.05)]:
        mean = n * p
        sd = (n * p * (1 - p)) ** 0.5
        assert abs(count - mean) <= 3 * sd


def test_synth_value_ranges():
    matrix, labels = synth_community_matrix(20, 20, 2, 0.6, 0.2, seed=9)
    for u, e, v in zip(matrix.users.tolist(), matrix.events.tolist(), matrix.values.tolist()):
        if labels.labels[u] == labels.event_labels[e]:
            assert 3.0 <= v <= 5.0
        else:
            assert 1.0 <= v <= 2.0


def test_synth_deterministic():
    a = synth_community_matrix(15, 17, 2, 0.4, 0.1, seed=77)
    b = synth_community_matrix(15, 17, 2, 0.4, 0.1, seed=77)
    assert a == b


def test_synth_round_robin_labels():
    _, labels = synth_community_matrix(5, 4, 3, 0.5, 0.1, seed=0)
    assert labels.labels == (0, 1, 2, 0, 1)
    assert labels.event_labels == (0, 1, 2, 0)
    assert labels.n_communities == 3


def test_synth_rejects_bad_rates():
    with pytest.raises(InvalidParameterError):
        synth_community_matrix(4, 4, 2, 0.2, 0.5, seed=0)  # cross > in
    with pytest.raises(InvalidParameterError):
        synth_community_matrix(4, 4, 2, 1.2, 0.0, seed=0)
    with pytest.raises(InvalidParameterError):
        synth_community_matrix(4, 4, 0, 0.5, 0.0, seed=0)


# --- fragmentation index ---


def two_community_labels(n_users, n_events):
    return CommunityLabels(
        labels=tuple(u % 2 for u in range(n_users)),
        n_communities=2,
        event_labels=tuple(e % 2 for e in range(n_events)),
    )


def test_fragmentation_all_intra():
    labels = two_community_labels(4, 6)
    recs = [
        RecommendationList(u, tuple(e for e in range(6) if e % 2 == u % 2), (0.0,) * 3)
        for u in range(4)
    ]
    assert fragmentation_index(recs, labels) == 1.0


def test_fragmentation_all_cross():
    labels = two_community_labels(4, 6)
    recs = [
        RecommendationList(u, tuple(e for e in range(6) if e % 2 != u % 2), (0.0,) * 3)
        for u in range(4)
    ]
    assert fragmentation_index(recs, labels) == 0.0


def test_fragmentation_uniform_random_near_half():
    # >= 10^4 pairs drawn uniformly over two equal communities
    rng = random.Random(42)
    labels = two_community_labels(100, 100)
    recs = [
        RecommendationList(
            u, tuple(rng.randrange(100) for _ in range(100)), (0.0,) * 100
        )
        for u in range(100)
    ]
    assert fragmentation_index(recs, labels) == pytest.approx(0.5, abs=0.05)


def test_fragmentation_invariant_under_rec_order():
    rng = random.Random(7)
    labels = two_community_labels(10, 10)
    recs = [
        RecommendationList(u, tuple(rng.randrange(10) for _ in range(5)), (0.0,) * 5)
        for u in range(10)
    ]
    shuffled = recs[:]
    rng.shuffle(shuffled)
    assert fragmentation_index(recs, labels) == fragmentation_index(shuffled, labels)


def test_fragmentation_empty_rejected():
    labels = two_community_labels(2, 2)
    with pytest.raises(EmptyInputError):
        fragmentation_index([], labels)
    with pytest.raises(EmptyInputError):
        fragmentation_index([RecommendationList(0, (), ())], labels)


def test_fragmentation_unlabeled_event_rejected():
    labels = two_community_labels(2, 2)
    with pytest.raises(IndexOutOfRangeError):
        fragmentation_index([RecommendationList(0, (5,), (0.0,))], labels)


def test_fragmentation_unlabeled_user_rejected():
    labels = two_community_labels(2, 2)
    with pytest.raises(IndexOutOfRangeError, match="user 2 has no community label"):
        fragmentation_index([RecommendationList(2, (0,), (0.0,))], labels)


# --- engagement rounds ---


def test_engagement_fully_observed_unchanged():
    matrix = from_triplets([(u, e, 2.0) for u in range(2) for e in range(2)], 2, 2)
    model = init_model(2, 2, 1, 0.0, seed=0)
    grown = engagement_round(matrix, model, accept_top=1, accept_value=4.0)
    assert grown == matrix


def test_engagement_appends_at_most_one_per_user():
    matrix = from_triplets([(0, 0, 2.0)], 2, 3)
    model = init_model(2, 3, 1, 0.0, seed=0)
    grown = engagement_round(matrix, model, accept_top=1, accept_value=4.0)
    assert len(matrix) < len(grown) <= len(matrix) + 2


def test_engagement_preserves_existing_observations():
    matrix, _ = synth_community_matrix(10, 10, 2, 0.5, 0.1, seed=11)
    model = init_model(10, 10, 2, 0.0, seed=1)
    grown = engagement_round(matrix, model, accept_top=2, accept_value=3.0)
    before = set(zip(matrix.users.tolist(), matrix.events.tolist(), matrix.values.tolist()))
    after = set(zip(grown.users.tolist(), grown.events.tolist(), grown.values.tolist()))
    assert before <= after
    assert len(grown) >= len(matrix)
    for _, _, value in after - before:
        assert value == 3.0


def test_engagement_validation():
    matrix = from_triplets([(0, 0, 1.0)], 1, 1)
    model = init_model(1, 1, 1, 0.0, seed=0)
    with pytest.raises(InvalidParameterError):
        engagement_round(matrix, model, accept_top=0, accept_value=1.0)
    with pytest.raises(InvalidParameterError):
        engagement_round(matrix, model, accept_top=1, accept_value=0.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError, match="accept_value must be finite"):
            engagement_round(matrix, model, accept_top=1, accept_value=value)


def test_train_engage_loop_fragmentation_non_decreasing():
    # the filter-bubble feedback loop on planted two-community data
    train_m, labels = synth_community_matrix(20, 20, 2, 0.6, 0.0, seed=2)
    config = TrainConfig(epochs=60, seed=2)
    model = None
    trajectory = []
    for rnd in range(4):
        if rnd > 0:
            train_m = engagement_round(train_m, model, accept_top=1, accept_value=4.0)
        fresh = init_model(20, 20, 2, 0.0, seed=2)
        model, _ = train(fresh, train_m, config)
        recs = [top_k(model, train_m, u, 6, exclude_observed=False) for u in range(20)]
        trajectory.append(fragmentation_index(recs, labels))
    assert all(a <= b for a, b in zip(trajectory, trajectory[1:]))
    assert trajectory[-1] >= 0.9
