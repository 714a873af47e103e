import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echofeed.errors import (
    EmptyMatrixError,
    IndexOutOfRangeError,
    InvalidParameterError,
    NonFiniteScoreError,
    NonFiniteUpdateError,
)
from echofeed.model import (
    FactorModel, init_model, l2_penalty, objective, predict, save_model,
)
from echofeed import training
from echofeed.ratings import from_triplets
from echofeed.training import (
    TrainConfig,
    TrainReport,
    gradient_at,
    rmse,
    sgd_step,
    train,
)


def manual_model(user_rows, event_rows, gamma=0.0):
    uf = np.array(user_rows, dtype=float)
    ef = np.array(event_rows, dtype=float)
    return FactorModel(gamma=gamma, user_factors=uf, event_factors=ef)


def finite_diff_user_grad(model, matrix, u, h=1e-5):
    """Central differences of the full objective wrt user row u."""
    grad = np.zeros(model.k)
    for j in range(model.k):
        plus = model.copy()
        plus.user_factors[u, j] += h
        minus = model.copy()
        minus.user_factors[u, j] -= h
        grad[j] = (objective(plus, matrix) - objective(minus, matrix)) / (2 * h)
    return grad


def random_setup(rng, gamma):
    n_u = rng.randint(1, 5)
    n_e = rng.randint(1, 5)
    k = rng.randint(1, 3)
    model = init_model(n_u, n_e, k, gamma, seed=rng.randint(0, 10**6), scale=1.0)
    trips = [
        (u, e, round(rng.uniform(0.5, 5.0), 3))
        for u in range(n_u)
        for e in range(n_e)
        if rng.random() < 0.6
    ]
    return model, from_triplets(trips, n_u, n_e)


# --- config ---


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0}, {"learning_rate": -1.0}, {"epochs": 0}, {"learning_rate": -0.0},
        {"learning_rate": math.nan}, {"learning_rate": math.inf},
        {"learning_rate": -math.inf}, {"epochs": -1}, {"seed": -1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        TrainConfig(**kwargs)


# --- sgd_step ---


def test_step_update_rule_matches_hand_computation():
    # r=4, x=[1], y=[1]: e=3, both rows move to 1 + 0.1*3 = 1.3
    model = manual_model([[1.0]], [[1.0]])
    sgd_step(model, 0, 0, 4.0, learning_rate=0.1)
    assert model.user_factors[0, 0] == pytest.approx(1.3)
    assert model.event_factors[0, 0] == pytest.approx(1.3)


def test_step_direction_is_half_per_sample_gradient():
    # the update follows (e*y - gamma*x), i.e. -1/2 the gradient of the
    # per-sample loss e^2 + gamma(|x|^2 + |y|^2); check against central
    # finite differences of that loss before trusting the rule
    rng = random.Random(31)
    h = 1e-6
    for _ in range(20):
        k = rng.randint(1, 3)
        gamma = rng.choice([0.0, 0.5])
        x = np.array([rng.uniform(-2, 2) for _ in range(k)])
        y = np.array([rng.uniform(-2, 2) for _ in range(k)])
        r = rng.uniform(0, 5)

        def loss(xv, yv):
            e = r - float(xv @ yv)
            return e * e + gamma * (float(xv @ xv) + float(yv @ yv))

        for j in range(k):
            dx = np.zeros(k)
            dx[j] = h
            fd = (loss(x + dx, y) - loss(x - dx, y)) / (2 * h)
            e = r - float(x @ y)
            step_dir = e * y[j] - gamma * x[j]
            assert step_dir == pytest.approx(-0.5 * fd, rel=1e-4, abs=1e-7)


def test_step_zero_learning_rate_is_identity():
    model = manual_model([[1.0, -2.0]], [[0.5, 3.0]], gamma=0.3)
    before_u = model.user_factors.copy()
    before_e = model.event_factors.copy()
    sgd_step(model, 0, 0, 4.0, learning_rate=0.0)
    assert np.array_equal(model.user_factors, before_u)
    assert np.array_equal(model.event_factors, before_e)


def test_step_exact_prediction_no_penalty_is_identity():
    model = manual_model([[2.0]], [[2.0]])
    sgd_step(model, 0, 0, 4.0, learning_rate=0.1)
    assert model.user_factors[0, 0] == 2.0
    assert model.event_factors[0, 0] == 2.0


def test_step_only_touches_two_rows():
    model = init_model(4, 5, 2, 0.1, seed=0)
    before_u = model.user_factors.copy()
    before_e = model.event_factors.copy()
    sgd_step(model, 1, 3, 4.0, learning_rate=0.05)
    untouched_u = [i for i in range(4) if i != 1]
    untouched_e = [i for i in range(5) if i != 3]
    assert np.array_equal(model.user_factors[untouched_u], before_u[untouched_u])
    assert np.array_equal(model.event_factors[untouched_e], before_e[untouched_e])


def test_step_index_out_of_range():
    model = manual_model([[1.0]], [[1.0]])
    with pytest.raises(IndexOutOfRangeError):
        sgd_step(model, 1, 0, 4.0, learning_rate=0.1)


def test_step_event_index_out_of_range():
    model = manual_model([[1.0]], [[1.0]])
    with pytest.raises(IndexOutOfRangeError, match=r"event index 1 outside \[0, 1\)"):
        sgd_step(model, 0, 1, 4.0, learning_rate=0.1)


def test_step_detects_non_finite():
    model = manual_model([[1e300]], [[1e300]])
    with pytest.raises(NonFiniteUpdateError, match="^non-finite factor update for user 0, event 0$"):
        sgd_step(model, 0, 0, 4.0, learning_rate=0.1)
    # the check comes before the write
    assert model.user_factors[0, 0] == model.event_factors[0, 0] == 1e300


def test_step_decreases_per_sample_loss():
    # first-order descent on the per-sample loss at small learning rate
    rng = random.Random(77)
    for _ in range(30):
        gamma = rng.choice([0.0, 0.2, 1.0])
        model, matrix = random_setup(rng, gamma)
        if not len(matrix):
            continue
        t = rng.randrange(len(matrix))
        u, i, r = int(matrix.users[t]), int(matrix.events[t]), float(matrix.values[t])

        def sample_loss(m):
            e = r - float(m.user_factors[u] @ m.event_factors[i])
            return e * e + gamma * (
                float(m.user_factors[u] @ m.user_factors[u])
                + float(m.event_factors[i] @ m.event_factors[i])
            )

        before = sample_loss(model)
        sgd_step(model, u, i, r, learning_rate=1e-3)
        assert sample_loss(model) <= before + 1e-12


# --- gradient_at ---


def test_gradient_single_observation():
    model = manual_model([[1.0]], [[1.0]])
    matrix = from_triplets([(0, 0, 4.0)], 1, 1)
    assert gradient_at(model, matrix, 0) == pytest.approx([-6.0])


def test_gradient_no_observations_zero():
    model = manual_model([[3.0]], [[1.0]])
    matrix = from_triplets([], 1, 1)
    assert gradient_at(model, matrix, 0) == pytest.approx([0.0])


def test_gradient_no_observations_penalty_only():
    model = manual_model([[3.0]], [[1.0]], gamma=1.0)
    matrix = from_triplets([], 1, 1)
    assert gradient_at(model, matrix, 0) == pytest.approx([6.0])


def test_gradient_matches_finite_differences():
    rng = random.Random(123)
    checked = 0
    while checked < 20:
        gamma = rng.choice([0.0, 0.5])
        model, matrix = random_setup(rng, gamma)
        u = rng.randrange(model.n_users)
        grad = gradient_at(model, matrix, u)
        fd = finite_diff_user_grad(model, matrix, u)
        scale = max(1e-8, float(np.abs(fd).max()))
        assert np.abs(grad - fd).max() / scale < 1e-4
        checked += 1


def test_gradient_index_out_of_range():
    model = manual_model([[1.0]], [[1.0]])
    matrix = from_triplets([(0, 0, 4.0)], 1, 1)
    with pytest.raises(IndexOutOfRangeError):
        gradient_at(model, matrix, 5)


# --- train ---


def test_train_single_epoch_on_exact_model():
    model = manual_model([[2.0]], [[2.0]])
    matrix = from_triplets([(0, 0, 4.0)], 1, 1)
    trained, report = train(model, matrix, TrainConfig(epochs=1, seed=0))
    assert report.loss_history == [0.0]
    assert report.epochs_run == 1
    assert np.array_equal(trained.user_factors, model.user_factors)


def test_train_does_not_mutate_input_model():
    model = init_model(3, 3, 1, 0.0, seed=0)
    snapshot = model.user_factors.copy()
    matrix = from_triplets([(0, 0, 2.0), (1, 2, 3.0)], 3, 3)
    train(model, matrix, TrainConfig(epochs=5, seed=0))
    assert np.array_equal(model.user_factors, snapshot)


def test_train_deterministic():
    matrix = from_triplets([(u, e, 1.0 + u) for u in range(4) for e in range(4)], 4, 4)
    model = init_model(4, 4, 2, 0.1, seed=5)
    out1 = train(model, matrix, TrainConfig(epochs=20, seed=3))
    out2 = train(model, matrix, TrainConfig(epochs=20, seed=3))
    assert out1[1].loss_history == out2[1].loss_history
    assert np.array_equal(out1[0].user_factors, out2[0].user_factors)
    assert np.array_equal(out1[0].event_factors, out2[0].event_factors)


def test_train_recovers_planted_rank_one():
    # x all ones, y all twos: every rating 2, exactly factorizable at k=1
    matrix = from_triplets([(u, i, 2.0) for u in range(4) for i in range(4)], 4, 4)
    model = init_model(4, 4, 1, 0.0, seed=0)
    trained, report = train(
        model, matrix, TrainConfig(learning_rate=0.05, epochs=100, seed=0)
    )
    assert report.loss_history[-1] < 1e-3
    assert report.loss_history[-1] < 0.01 * report.loss_history[0]


def test_train_matches_manual_step_sequence():
    # train is exactly repeated sgd_step in each epoch's order; at seed 0
    # every epoch runs the three cells in a different order
    matrix = from_triplets([(0, 0, 3.0), (0, 1, 1.0), (1, 1, 2.0)], 2, 2)
    model = init_model(2, 2, 2, 0.2, seed=8)
    trained, _ = train(model, matrix, TrainConfig(learning_rate=0.03, epochs=3, seed=0))
    manual = model.copy()
    for epoch in [
        [(1, 1, 2.0), (0, 1, 1.0), (0, 0, 3.0)],
        [(0, 0, 3.0), (0, 1, 1.0), (1, 1, 2.0)],
        [(1, 1, 2.0), (0, 0, 3.0), (0, 1, 1.0)],
    ]:
        for u, i, r in epoch:
            sgd_step(manual, u, i, r, learning_rate=0.03)
    assert np.array_equal(trained.user_factors, manual.user_factors)
    assert np.array_equal(trained.event_factors, manual.event_factors)


def run_waves(model, matrix, config):
    """train's result, and the (user, event) pairs of each wave it ran."""
    waves = []
    real = training._wave

    def spy(uf, ef, u, i, r, lr, gamma):
        waves.append(list(zip(u.tolist(), i.tolist())))
        return real(uf, ef, u, i, r, lr, gamma)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_wave", spy)
        trained, _ = train(model, matrix, config)
    return trained, waves


def test_train_visits_each_observation_once_per_epoch():
    matrix = from_triplets([(u, e, 1.0) for u in range(3) for e in range(3)], 3, 3)
    model = init_model(3, 3, 1, 0.0, seed=0)
    for seed in (0, 1, 99):
        _, waves = run_waves(model, matrix, TrainConfig(epochs=4, seed=seed))
        visits = [key for wave in waves for key in wave]
        assert len(visits) == 4 * 9
        expected = {(u, i): 4 for u, i in zip(matrix.users.tolist(), matrix.events.tolist())}
        counts = {}
        for key in visits:
            counts[key] = counts.get(key, 0) + 1
        assert counts == expected
        # the steps of one wave commute only if they share no row
        for wave in waves:
            users, events = zip(*wave)
            assert len(set(users)) == len(users)
            assert len(set(events)) == len(events)


def test_train_empty_matrix_rejected():
    model = init_model(2, 2, 1, 0.0, seed=0)
    with pytest.raises(EmptyMatrixError):
        train(model, from_triplets([], 2, 2), TrainConfig())


def test_report_epochs_run_is_the_loss_history_length():
    report = TrainReport(loss_history=[2.0, 1.0])
    assert report.epochs_run == 2
    assert list(report.to_dict().items()) == [
        ("loss_history", [2.0, 1.0]), ("epochs_run", 2)
    ]


def test_train_divergence_reports_context():
    matrix = from_triplets([(u, i, 5.0) for u in range(3) for i in range(3)], 3, 3)
    model = init_model(3, 3, 1, 0.0, seed=0)
    with pytest.raises(NonFiniteUpdateError) as exc:
        train(model, matrix, TrainConfig(learning_rate=50.0, epochs=100, seed=0))
    assert exc.value.epoch is not None
    assert exc.value.step is not None
    assert "epoch" in str(exc.value)


def test_train_gamma_shrinks_factors():
    matrix = from_triplets([(u, e, 3.0 + u) for u in range(4) for e in range(4)], 4, 4)
    model = init_model(4, 4, 2, 0.0, seed=2)
    penalties = []
    for gamma in (0.0, 1.0):
        reg = model.copy()
        reg.gamma = gamma
        trained, _ = train(reg, matrix, TrainConfig(epochs=50, seed=2))
        penalties.append(l2_penalty(trained))
    assert penalties[1] < penalties[0]


# --- the wave kernel against references ---


def left_to_right_dot(x, y):
    """The SGD step's dot product: a sum from 0.0, left to right."""
    pred = 0.0
    for j in range(len(x)):
        pred = pred + x[j] * y[j]
    return pred


def reference_step(uf, ef, u, i, r, lr, gamma):
    """The SGD update written out entry by entry, its dot product summed
    left to right."""
    x, y = uf[u], ef[i]
    e = r - left_to_right_dot(x, y)
    uf[u] = [x[j] + lr * (e * y[j] - gamma * x[j]) for j in range(len(x))]
    ef[i] = [y[j] + lr * (e * x[j] - gamma * y[j]) for j in range(len(y))]


def numpy_step(uf, ef, u, i, r, lr, gamma):
    """The step as it ran on numpy rows, whose dot product numpy orders."""
    x, y = uf[u], ef[i]
    e = r - float(x @ y)
    nx = x + lr * (e * y - gamma * x)
    ny = y + lr * (e * x - gamma * y)
    uf[u] = nx
    ef[i] = ny


def epoch_orders(matrix, config):
    """Each epoch's permutation of observation positions, derived in plain
    Python from the same raw PCG64 draws: the positions sorted by
    (draw >> s, position), s the bit length of the observation count."""
    n = len(matrix)
    s = n.bit_length()
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        draws = rng.bit_generator.random_raw(n).tolist()
        yield sorted(range(n), key=lambda t: (draws[t] >> s, t))


def epoch_waves(matrix, config):
    """Each epoch's waves as lists of observation positions, in the order
    train runs them: a step's level is one more than the highest level of
    the earlier steps in the permutation that share its user or its event,
    counted in dicts, and the levels run in turn."""
    users, events = matrix.users.tolist(), matrix.events.tolist()
    for order in epoch_orders(matrix, config):
        user_level, event_level, waves = {}, {}, {}
        for t in order:
            level = max(user_level.get(users[t], 0), event_level.get(events[t], 0))
            user_level[users[t]] = event_level[events[t]] = level + 1
            waves.setdefault(level, []).append(t)
        yield [waves[level] for level in range(len(waves))]


def replay(model, matrix, config, step, rows):
    """Apply `step` over config.epochs passes, one observation after another
    in the order of epoch_orders."""
    uf, ef = rows(model.user_factors), rows(model.event_factors)
    obs = list(zip(matrix.users.tolist(), matrix.events.tolist(), matrix.values.tolist()))
    for order in epoch_orders(matrix, config):
        for t in order:
            u, i, r = obs[t]
            step(uf, ef, u, i, r, config.learning_rate, model.gamma)
    return np.array(uf, dtype=np.float64), np.array(ef, dtype=np.float64)


@st.composite
def training_cases(draw):
    k = draw(st.integers(1, 8))
    gamma = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    n_users, n_events = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, n_users - 1), st.integers(0, n_events - 1)),
            min_size=1,
            unique=True,
        )
    )
    values = draw(st.lists(st.floats(0.5, 5.0), min_size=len(cells), max_size=len(cells)))
    matrix = from_triplets([(u, e, v) for (u, e), v in zip(cells, values)], n_users, n_events)
    model = init_model(n_users, n_events, k, gamma, seed=draw(st.integers(0, 2**32)), scale=1.0)
    config = TrainConfig(
        learning_rate=draw(st.floats(0.001, 0.02)),
        epochs=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32)),
    )
    return model, matrix, config


@settings(max_examples=80, deadline=None)
@given(case=training_cases())
def test_train_matches_left_to_right_oracle(case):
    # bit for bit: the factors depend on neither BLAS, numpy nor the Python
    # version's sum()
    model, matrix, config = case
    trained, _ = train(model, matrix, config)
    uf, ef = replay(model, matrix, config, reference_step, lambda a: a.tolist())
    assert np.array_equal(trained.user_factors, uf)
    assert np.array_equal(trained.event_factors, ef)
    # scoring uses the step's sum too, so a trained cell scores as it trained
    for u, i in zip(matrix.users.tolist(), matrix.events.tolist()):
        assert predict(trained, u, i) == left_to_right_dot(uf[u].tolist(), ef[i].tolist())


@settings(max_examples=80, deadline=None)
@given(case=training_cases())
def test_train_runs_the_oracle_waves(case):
    # train runs the oracle's waves in the oracle's order, and no wave
    # repeats a user or an event
    model, matrix, config = case
    _, waves = run_waves(model, matrix, config)
    cells = list(zip(matrix.users.tolist(), matrix.events.tolist()))
    assert waves == [
        [cells[t] for t in wave] for epoch in epoch_waves(matrix, config) for wave in epoch
    ]
    for wave in waves:
        users, events = zip(*wave)
        assert len(set(users)) == len(users) and len(set(events)) == len(events)


def test_first_epoch_waves_are_pinned():
    # the order depends on the raw PCG64 stream alone, which NEP 19 keeps
    # stable, so these waves hold under every numpy version
    matrix = from_triplets([(u, e, 1.0) for u in range(3) for e in range(4) if u != e], 3, 4)
    model = init_model(3, 4, 1, 0.0, seed=0)
    _, waves = run_waves(model, matrix, TrainConfig(epochs=1, seed=7))
    assert waves == [
        [(2, 0), (0, 1)],
        [(1, 0), (0, 3)],
        [(1, 2), (2, 3)],
        [(2, 1), (1, 3), (0, 2)],
    ]


@settings(max_examples=40, deadline=None)
@given(case=training_cases())
def test_train_agrees_with_numpy_step(case):
    # only the dot product's summation order differs, so the factors agree to
    # 1e-12 of their largest magnitude
    model, matrix, config = case
    trained, _ = train(model, matrix, config)
    uf, ef = replay(model, matrix, config, numpy_step, np.copy)
    for got, ref in ((trained.user_factors, uf), (trained.event_factors, ef)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def left_to_right_sum(row):
    total = 0.0
    for v in row:
        total = total + v
    return total


def first_failure(model, matrix, config):
    """(epoch, step, message) of the first step whose new rows do not sum to
    finite values when reference_step runs in train's order, else (epoch,
    None, message) of the first epoch whose objective is not finite, or None."""
    uf, ef = model.user_factors.tolist(), model.event_factors.tolist()
    obs = list(zip(matrix.users.tolist(), matrix.events.tolist(), matrix.values.tolist()))
    for epoch, order in enumerate(epoch_orders(matrix, config), start=1):
        for step, t in enumerate(order):
            u, i, r = obs[t]
            reference_step(uf, ef, u, i, r, config.learning_rate, model.gamma)
            if not all(math.isfinite(left_to_right_sum(row)) for row in (uf[u], ef[i])):
                message = f"non-finite factor update for user {u}, event {i}"
                return epoch, step, f"{message} (epoch {epoch}, step {step})"
        loss = objective(FactorModel(model.gamma, np.array(uf), np.array(ef)), matrix)
        if not math.isfinite(loss):
            return epoch, None, f"non-finite objective {loss!r} after epoch {epoch}"
    return None


def log_uniform(lo, mid, hi):
    """Powers of ten up to 10**hi, half of them at most 10**mid."""
    return (st.floats(lo, mid) | st.floats(lo, hi)).map(lambda p: 10.0**p)


@st.composite
def diverging_cases(draw):
    """Up to 20 x 20 ratings, learning rates up to 1e300 and init scales up to
    1e150. On wide matrices a wave holds many steps that may fail."""
    k = draw(st.integers(1, 8))
    gamma = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    n_users, n_events = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    density = draw(st.floats(0.1, 1.0))
    rng = random.Random(draw(st.integers(0, 2**32)))
    trips = [
        (u, e, rng.uniform(0.5, 5.0))
        for u in range(n_users)
        for e in range(n_events)
        if rng.random() < density
    ]
    matrix = from_triplets(trips or [(0, 0, 1.0)], n_users, n_events)
    scale = draw(log_uniform(-1, 1, 150))
    model = init_model(n_users, n_events, k, gamma, seed=rng.randrange(2**32), scale=scale)
    config = TrainConfig(
        learning_rate=draw(log_uniform(-2, 3, 300)),
        epochs=draw(st.integers(1, 4)),
        seed=rng.randrange(2**32),
    )
    return model, matrix, config


@settings(max_examples=200, deadline=None)
@given(case=diverging_cases())
def test_train_stops_at_the_first_non_finite_step(case):
    # the waves run a diverging epoch to its end, yet report the step at
    # which one step after another would have stopped
    model, matrix, config = case
    expected = first_failure(model, matrix, config)
    if expected is None:
        train(model, matrix, config)
        return
    with pytest.raises(NonFiniteUpdateError) as exc:
        train(model, matrix, config)
    assert (exc.value.epoch, exc.value.step, str(exc.value)) == expected


def test_train_reports_the_earliest_failing_step_not_the_earliest_wave():
    # at seed 2 the permutation is (u0, e0), (u0, e1), (u1, e2); the last two
    # both overflow, and (u1, e2) runs first, in level 0 beside (u0, e0), while
    # (u0, e1) waits for level 1; the error names (u0, e1) at step 1, where
    # running the permutation one step at a time stops, not the failure
    # that ran first
    model = manual_model([[0.0], [0.0]], [[0.0], [1e300], [1e300]])
    matrix = from_triplets([(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)], 2, 3)
    config = TrainConfig(learning_rate=1e10, epochs=1, seed=2)
    assert list(epoch_orders(matrix, config)) == [[0, 1, 2]]
    assert list(epoch_waves(matrix, config)) == [[[0, 2], [1]]]
    with pytest.raises(NonFiniteUpdateError) as exc:
        train(model, matrix, config)
    assert (exc.value.epoch, exc.value.step, str(exc.value)) == (
        1, 1, "non-finite factor update for user 0, event 1 (epoch 1, step 1)"
    )


def wide_case():
    """300 users x 300 events with 9000 ratings, k = 8: waves hundreds of
    steps wide. Built with Python's random alone, so its inputs are the same
    under every numpy version."""
    rng = random.Random(2011)
    n, k = 300, 8
    cells = rng.sample(range(n * n), 9000)
    matrix = from_triplets([(c // n, c % n, rng.uniform(0.5, 5.0)) for c in cells], n, n)
    rows = [[rng.uniform(-0.1, 0.1) for _ in range(k)] for _ in range(2 * n)]
    model = FactorModel(
        gamma=0.02, user_factors=np.array(rows[:n]), event_factors=np.array(rows[n:])
    )
    return model, matrix, TrainConfig(learning_rate=0.01, epochs=2, seed=2011)


# sha256 of save_model's bytes for the wide case, trained by reference_step
# one observation after another in the order of epoch_orders
WIDE_CASE_SHA256 = "2e341791b3264dc02a21637023f977548be700c4dbc918b7f77ad0241674ee90"


def test_wide_waves_match_oracle_and_golden_bytes(tmp_path):
    model, matrix, config = wide_case()
    trained, waves = run_waves(model, matrix, config)
    assert max(map(len, waves)) > 100
    uf, ef = replay(model, matrix, config, reference_step, lambda a: a.tolist())
    assert np.array_equal(trained.user_factors, uf)
    assert np.array_equal(trained.event_factors, ef)
    save_model(trained, tmp_path / "m.json")
    assert hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest() == WIDE_CASE_SHA256


# --- rmse ---


def test_rmse_exact_model_is_zero():
    model = manual_model([[2.0]], [[2.0]])
    assert rmse(model, from_triplets([(0, 0, 4.0)], 1, 1)) == 0.0


def test_rmse_single_residual():
    model = manual_model([[1.0]], [[1.0]])
    assert rmse(model, from_triplets([(0, 0, 4.0)], 1, 1)) == pytest.approx(3.0)


def test_rmse_matches_brute_force():
    rng = random.Random(55)
    model, matrix = random_setup(rng, 0.0)
    if not len(matrix):
        matrix = from_triplets([(0, 0, 1.0)], model.n_users, model.n_events)

    total = 0.0
    for u, i, r in zip(matrix.users.tolist(), matrix.events.tolist(), matrix.values.tolist()):
        total += (r - predict(model, u, i)) ** 2
    assert rmse(model, matrix) == pytest.approx(math.sqrt(total / len(matrix)))


@pytest.mark.parametrize("event_row", [[1e200], [-1e200], [1e200, -1e200]])
def test_rmse_that_overflows_is_an_error(event_row):
    # finite factors whose predictions overflow to inf, or to nan (inf - inf)
    model = manual_model([[1e200] * len(event_row)], [event_row])
    with np.errstate(all="raise"), pytest.raises(NonFiniteScoreError, match="rmse is (inf|nan)"):
        rmse(model, from_triplets([(0, 0, 1.0)], 1, 1))


def test_rmse_empty_matrix_rejected():
    model = manual_model([[1.0]], [[1.0]])
    with pytest.raises(EmptyMatrixError):
        rmse(model, from_triplets([], 1, 1))
