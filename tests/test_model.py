import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echofeed.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidDimensionError,
    InvalidParameterError,
    NonFiniteScoreError,
    ParseError,
)
from echofeed.model import (
    FactorModel,
    init_model,
    l2_penalty,
    load_model,
    objective,
    predict,
    save_model,
)
from echofeed.ratings import from_triplets
from echofeed.training import rmse


def manual_model(user_rows, event_rows, gamma=0.0):
    uf = np.array(user_rows, dtype=float)
    ef = np.array(event_rows, dtype=float)
    return FactorModel(gamma=gamma, user_factors=uf, event_factors=ef)


# --- init ---


def test_init_deterministic():
    a = init_model(2, 2, 1, 0.0, seed=7, scale=0.1)
    b = init_model(2, 2, 1, 0.0, seed=7, scale=0.1)
    assert np.array_equal(a.user_factors, b.user_factors)
    assert np.array_equal(a.event_factors, b.event_factors)


def test_init_entries_bounded_by_scale():
    m = init_model(20, 30, 3, 0.0, seed=3, scale=0.05)
    assert np.abs(m.user_factors).max() <= 0.05
    assert np.abs(m.event_factors).max() <= 0.05


def test_init_mean_near_zero():
    # Monte-Carlo check of the symmetric uniform law
    m = init_model(100, 100, 4, 0.1, seed=1, scale=0.1)
    entries = np.concatenate([m.user_factors.ravel(), m.event_factors.ravel()])
    assert abs(entries.mean()) < 0.01


@pytest.mark.parametrize("dims", [(0, 2, 1), (2, 0, 1), (2, 2, 0)])
def test_init_rejects_zero_dimensions(dims):
    with pytest.raises(InvalidDimensionError):
        init_model(*dims, gamma=0.0, seed=0)


def test_init_rejects_bad_gamma_and_scale():
    with pytest.raises(InvalidParameterError):
        init_model(2, 2, 1, gamma=-0.5, seed=0)
    with pytest.raises(InvalidParameterError):
        init_model(2, 2, 1, gamma=0.0, seed=0, scale=0.0)
    for gamma in (math.nan, math.inf):
        with pytest.raises(InvalidParameterError, match="gamma must be finite and >= 0"):
            init_model(2, 2, 1, gamma=gamma, seed=0)
    for scale in (math.nan, math.inf):
        with pytest.raises(InvalidParameterError, match="init scale must be finite and > 0"):
            init_model(2, 2, 1, gamma=0.0, seed=0, scale=scale)
    # the draw range [-scale, scale] must have a finite width
    with pytest.raises(InvalidParameterError, match="init scale must be <= "):
        init_model(2, 2, 1, gamma=0.0, seed=0, scale=1e308)
    assert init_model(1, 1, 1, gamma=0.0, seed=0, scale=1e307).k == 1


@pytest.mark.parametrize("n_users, n_events, k", [(2, 1, 10**18), (1, 2**63, 1), (2**62, 1, 2)])
def test_init_refuses_a_shape_numpy_cannot_size(n_users, n_events, k):
    with pytest.raises(InvalidDimensionError, match="float64 cells cannot be allocated"):
        init_model(n_users, n_events, k, gamma=0.0, seed=0)


# --- predict ---


def test_predict_zero_vector():
    m = manual_model([[0.0, 0.0]], [[3.0, 4.0]])
    assert predict(m, 0, 0) == 0.0


def test_predict_dot_product():
    m = manual_model([[1.0, 2.0]], [[3.0, -1.0]])
    assert predict(m, 0, 0) == pytest.approx(1.0)


def test_predict_reproduces_known_rating():
    # a perfectly fit k=1 model matches the observed strength of 4
    m = manual_model([[2.0]], [[2.0]])
    assert predict(m, 0, 0) == pytest.approx(4.0)


def test_predict_index_errors():
    m = manual_model([[1.0]], [[1.0]])
    with pytest.raises(IndexOutOfRangeError):
        predict(m, 1, 0)
    with pytest.raises(IndexOutOfRangeError):
        predict(m, 0, -1)


def test_predict_is_bilinear():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        c = rng.normal()
        m1 = manual_model([x], [y])
        m2 = manual_model([c * x], [y])
        assert predict(m2, 0, 0) == pytest.approx(c * predict(m1, 0, 0), abs=1e-12)


@pytest.mark.parametrize(
    "event_row, score", [([1e200, 1e200], "inf"), ([1e200, -1e200], "nan")], ids=["inf", "nan"]
)
def test_predict_overflow_is_a_domain_error(event_row, score):
    # finite factors whose product overflows: an error, not a numpy warning
    m = manual_model([[1.0, 1.0], [1e200, 1e200]], [[1.0, 1.0], event_row])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteScoreError, match=f"^score of user 1, event 1 is {score}$"):
            predict(m, 1, 1)
        assert predict(m, 1, 0) == 2e200


# --- objective / penalty ---


def test_objective_zero_for_exact_fit():
    m = manual_model([[2.0]], [[2.0]])
    matrix = from_triplets([(0, 0, 4.0)], 1, 1)
    assert objective(m, matrix) == 0.0


def test_objective_single_residual():
    m = manual_model([[1.0]], [[1.0]])
    matrix = from_triplets([(0, 0, 4.0)], 1, 1)
    assert objective(m, matrix) == pytest.approx(9.0)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    r=st.floats(0.5, 5.0),
    order=st.sampled_from("CF"),
)
def test_objective_one_cell_is_predict_residual(k, seed, r, order):
    rng = np.random.default_rng(seed)
    uf, ef = (np.asarray(rng.normal(size=(2, k)), order=order) for _ in range(2))
    m = FactorModel(gamma=0.0, user_factors=uf, event_factors=ef)
    matrix = from_triplets([(0, 0, r)], 2, 2)
    resid = r - predict(m, 0, 0)
    # exact: predict sums left to right from 0.0 like the SGD step's Python loop
    dot = 0.0
    for a, b in zip(uf[0].tolist(), ef[0].tolist()):
        dot = dot + a * b
    assert predict(m, 0, 0) == dot
    # exact: objective and rmse score cells with the same kernel as predict
    # (a product, not ** 2: libm's pow is not always correctly rounded)
    assert objective(m, matrix) == resid * resid
    assert rmse(m, matrix) == abs(resid)


def test_objective_with_penalty():
    m = manual_model([[1.0, 0.0]], [[0.0, 1.0]], gamma=1.0)
    matrix = from_triplets([(0, 0, 4.0)], 1, 1)
    # residual 4^2 = 16, penalty 1 + 1 = 2
    assert objective(m, matrix) == pytest.approx(18.0)


def test_objective_penalizes_rows_without_observations():
    m = manual_model([[1.0], [3.0]], [[1.0]], gamma=1.0)
    matrix = from_triplets([(0, 0, 1.0)], 2, 1)
    # exact on the one observation; penalty covers the cold user row too
    assert objective(m, matrix) == pytest.approx(1.0 + 9.0 + 1.0)


def test_objective_dimension_mismatch():
    m = manual_model([[1.0]], [[1.0]])
    matrix = from_triplets([(0, 0, 1.0)], 2, 1)
    with pytest.raises(DimensionMismatchError):
        objective(m, matrix)


def test_objective_nonnegative():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n_u, n_e, k = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 4)
        model = init_model(int(n_u), int(n_e), int(k), float(rng.uniform(0, 2)), seed=trial)
        trips = [
            (int(u), int(e), float(rng.uniform(0, 5)))
            for u in range(n_u)
            for e in range(n_e)
            if rng.random() < 0.5
        ]
        matrix = from_triplets(trips, int(n_u), int(n_e))
        assert objective(model, matrix) >= 0.0


def test_objective_rotation_invariant():
    # rotating every factor row preserves dot products and norms
    rng = np.random.default_rng(12)
    matrix = from_triplets(
        [(u, e, float(rng.uniform(1, 5))) for u in range(4) for e in range(3)], 4, 3
    )
    for trial in range(10):
        model = init_model(4, 3, 2, gamma=0.7, seed=trial, scale=1.0)
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        rotated = FactorModel(
            gamma=0.7,
            user_factors=model.user_factors @ rot,
            event_factors=model.event_factors @ rot,
        )
        assert objective(rotated, matrix) == pytest.approx(
            objective(model, matrix), abs=1e-9
        )


def test_l2_penalty_zero_factors():
    m = manual_model([[0.0, 0.0]], [[0.0, 0.0]])
    assert l2_penalty(m) == 0.0


def test_l2_penalty_small_example():
    m = manual_model([[1.0, 2.0]], [[2.0, 0.0]])
    assert l2_penalty(m) == pytest.approx(9.0)


def test_l2_penalty_matches_elementwise_sum():
    model = init_model(10, 10, 3, 0.0, seed=2, scale=0.5)
    brute = 0.0
    for row in list(model.user_factors) + list(model.event_factors):
        for v in row:
            brute += float(v) ** 2
    assert l2_penalty(model) == pytest.approx(brute, rel=1e-12)


# --- serialization ---


def test_model_json_round_trip_exact(tmp_path):
    model = init_model(5, 7, 3, 0.25, seed=9)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.k == model.k
    assert back.gamma == model.gamma
    assert np.array_equal(back.user_factors, model.user_factors)
    assert np.array_equal(back.event_factors, model.event_factors)


@pytest.mark.parametrize("k", range(1, 9))
def test_model_width_is_read_from_the_factor_arrays(tmp_path, k):
    rng = np.random.default_rng(k)
    model = FactorModel(
        gamma=0.5, user_factors=rng.normal(size=(3, k)), event_factors=rng.normal(size=(4, k))
    )
    assert model.k == k
    assert model.copy().k == k
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    back = load_model(first)
    assert back.k == k
    save_model(back, second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "text",
    ["{not json", '{"k": ' + "[" * 100_000 + "]" * 100_000 + "}", '{"k": 1e400}'],
    ids=["not-json", "deep-nesting", "k-infinite"],
)
def test_load_model_rejects_garbage(tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    with pytest.raises(ParseError):
        load_model(p)


def test_load_model_rejects_inconsistent_shapes(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"k": 2, "gamma": 0.0, "user_factors": [[1.0]], "event_factors": [[1.0, 2.0]]}')
    with pytest.raises(DimensionMismatchError):
        load_model(p)


def test_load_model_rejects_zero_width(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"k": 0, "gamma": 0.0, "user_factors": [[]], "event_factors": [[]]}')
    with pytest.raises(InvalidDimensionError, match="k must be >= 1, got 0"):
        load_model(p)


@pytest.mark.parametrize("gamma", ["-0.5", "NaN", "Infinity"])
def test_load_model_rejects_a_negative_or_non_finite_gamma(tmp_path, gamma):
    # JSON has no NaN or Infinity, but json.loads reads both tokens
    p = tmp_path / "bad.json"
    p.write_text(f'{{"k": 1, "gamma": {gamma}, "user_factors": [[1.0]], "event_factors": [[1.0]]}}')
    with pytest.raises(InvalidParameterError, match="gamma must be finite and >= 0"):
        load_model(p)
