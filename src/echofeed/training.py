"""Stochastic gradient descent over observed ratings.

Each step looks at one observation, computes the prediction error, and
nudges the touched user and event rows. The per-sample loss regularizes
only those two rows; the full objective (all rows penalized) remains the
reported metric. The conventional factor 2 from differentiating the squared
error is absorbed into the learning rate, so a step moves along
(e * other_row - gamma * own_row). gradient_at, used for testing, returns
the unhalved analytic gradient of the objective itself.

An epoch is a seeded permutation of the observations, run one step after
another. It orders them by the high bits of one raw PCG64 value each, ties
broken by position; the raw stream is fixed by NEP 19, so the order depends
on the seed alone, not on the numpy version. Waves are only how the
permutation is batched, as in stratified SGD (Gemulla et al., KDD 2011): a
step's level is one more than the highest level of the earlier steps that
share its user or its event, so a level repeats no user row and no event
row, and the levels run in turn, each keeping its steps in permutation
order.

Steps on disjoint rows commute (as in Hogwild! and DSGD), so one numpy pass
per level updates them all, and each step reads the rows that exactly the
steps before it in the permutation left behind. Each new entry is computed
with the same IEEE operations, in the same order, as one scalar step, and
the dot product is summed left to right from 0.0 by model._dot, the sum
scoring uses. The trained factors are therefore bit-identical to the
permutation run one step at a time, and depend on neither BLAS, numpy,
array layout nor the Python version. The first step in the permutation
whose update is not finite also ran on its sequential inputs, so training
reports the same step as the sequential run would stop at. Only the
objective and rmse totals over observations use numpy reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyMatrixError,
    InvalidParameterError,
    NonFiniteScoreError,
    NonFiniteUpdateError,
)
from .model import FactorModel, _dot, _residuals, _rng, check_dimensions, objective
from .ratings import RatingMatrix, check_index


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters. Training always runs `epochs` epochs: there is
    no early stop. Defaults are stable on desk-scale instances."""

    learning_rate: float = 0.01
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidParameterError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1:
            raise InvalidParameterError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class TrainReport:
    loss_history: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.loss_history)

    def to_dict(self) -> dict:
        return {"loss_history": self.loss_history, "epochs_run": self.epochs_run}


def _wave(uf, ef, u, i, r, lr, gamma):
    """One SGD step per slot of the index arrays u and i, with values r:
    the new rows for uf[u] and ef[i], and each slot's finiteness flag.

    No user and no event may repeat within a wave, so its steps commute.
    Every new entry is computed from the pre-update x and y.
    """
    x = uf[u]
    y = ef[i]
    e = (r - _dot(x, y))[:, None]
    nx = x + lr * (e * y - gamma * x)
    ny = y + lr * (e * x - gamma * y)
    # inf + -inf in these left-to-right sums yields nan, so this catches
    # both poisons
    sx = sy = 0.0
    for j in range(nx.shape[1]):
        sx = sx + nx[:, j]
        sy = sy + ny[:, j]
    return nx, ny, np.isfinite(sx) & np.isfinite(sy)


def _stable_argsort(keys):
    """np.argsort(keys, kind="stable") for keys >= 0, sorted as the narrowest
    unsigned type that holds them: numpy radix-sorts 8- and 16-bit keys."""
    return np.argsort(keys.astype(np.min_scalar_type(keys.max())), kind="stable")


def _schedule(users, events, n_users, n_events, rng):
    """One epoch's permutation of observation slots, the permutation
    positions in level order, and each level's end in that order.

    The sort keys keep the high bits of each draw and put the slot in the
    low s bits, so they are unique and any sort gives the same order.
    """
    n = len(users)
    s = np.uint64(n.bit_length())
    draws = rng.bit_generator.random_raw(n)
    perm = np.argsort((draws >> s) << s | np.arange(n, dtype=np.uint64))
    user_level, event_level, level = [0] * n_users, [0] * n_events, []
    add = level.append
    # a memoryview yields Python ints one at a time, without .tolist()'s
    # list of every one
    for u, i in zip(memoryview(users[perm]), memoryview(events[perm])):
        a, b = user_level[u], event_level[i]
        step_level = a if a > b else b
        add(step_level)
        user_level[u] = event_level[i] = step_level + 1
    level = np.fromiter(level, np.int64, n)
    return perm, _stable_argsort(level), np.cumsum(np.bincount(level))


def _non_finite_message(u, i):
    return f"non-finite factor update for user {u}, event {i}"


def sgd_step(model: FactorModel, u: int, i: int, value: float, learning_rate: float) -> FactorModel:
    """Apply one SGD update for the observation (u, i, value), in place.

    Returns the same model object with rows u and i updated; all other
    rows are untouched. A non-finite update raises before any row is written.
    """
    check_index("user", u, model.n_users)
    check_index("event", i, model.n_events)
    with np.errstate(over="ignore", invalid="ignore"):
        nx, ny, ok = _wave(
            model.user_factors,
            model.event_factors,
            np.array([u]),
            np.array([i]),
            np.array([float(value)]),
            float(learning_rate),
            float(model.gamma),
        )
    if not ok[0]:
        raise NonFiniteUpdateError(_non_finite_message(u, i))
    model.user_factors[u] = nx[0]
    model.event_factors[i] = ny[0]
    return model


def gradient_at(model: FactorModel, matrix: RatingMatrix, u: int) -> np.ndarray:
    """Full-batch objective gradient with respect to user row u.

    d/dx_u [sum (r - x.y)^2 + gamma * penalty] =
        sum over u's observations of -2 e y_i, plus 2 gamma x_u.
    Testing hook; training never calls this.
    """
    check_dimensions(model, matrix)
    check_index("user", u, model.n_users)
    mask = matrix.users == u
    x = model.user_factors[u]
    grad = 2.0 * model.gamma * x
    if mask.any():
        ys = model.event_factors[matrix.events[mask]]
        errs = _residuals(model, matrix)[mask]
        grad = grad - 2.0 * (errs[:, None] * ys).sum(axis=0)
    return grad


def train(
    model: FactorModel, matrix: RatingMatrix, config: TrainConfig
) -> tuple[FactorModel, TrainReport]:
    """Run SGD for exactly config.epochs passes and return (trained copy,
    report); the only other way out is the error a non-finite update or
    objective raises.

    Every epoch visits each observation exactly once, in a permutation drawn
    from the PCG64 stream of config.seed and batched into levels as the
    module docstring says. It records the full objective afterwards. A
    non-finite update raises with the step's position in that permutation,
    where running it one step at a time would stop. The input model is not
    modified.
    """
    check_dimensions(model, matrix)
    if not len(matrix):
        raise EmptyMatrixError("cannot train on a matrix with no observations")
    work = model.copy()
    uf, ef = work.user_factors, work.event_factors
    lr = float(config.learning_rate)
    gamma = float(work.gamma)
    rng = _rng(config.seed)

    report = TrainReport()
    # a diverging epoch runs to its end on inf and nan before it is reported
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            perm, by_level, ends = _schedule(
                matrix.users, matrix.events, work.n_users, work.n_events, rng
            )
            slots = perm[by_level]
            wu = matrix.users[slots]
            wi = matrix.events[slots]
            wr = matrix.values[slots]
            ok = np.empty(len(slots), dtype=bool)
            start = 0
            for end in ends.tolist():
                u, i = wu[start:end], wi[start:end]
                uf[u], ef[i], ok[start:end] = _wave(uf, ef, u, i, wr[start:end], lr, gamma)
                start = end
            if not ok.all():
                # the earliest failing step in the permutation ran on its
                # sequential inputs: every step it depends on came earlier
                step = int(by_level[~ok].min())
                slot = perm[step]
                message = _non_finite_message(matrix.users[slot], matrix.events[slot])
                raise NonFiniteUpdateError(
                    f"{message} (epoch {epoch}, step {step})", epoch=epoch, step=step
                )
            loss = objective(work, matrix)
            if not math.isfinite(loss):
                raise NonFiniteUpdateError(
                    f"non-finite objective {loss!r} after epoch {epoch}", epoch=epoch
                )
            report.loss_history.append(loss)
    return work, report


def rmse(model: FactorModel, matrix: RatingMatrix) -> float:
    """Root mean squared prediction error over the observed cells.

    Raises NonFiniteScoreError when the predictions of finite factors
    overflow, so the error is inf or nan.
    """
    check_dimensions(model, matrix)
    if not len(matrix):
        raise EmptyMatrixError("rmse needs at least one observation")
    # as in objective: overflowed factors give inf or nan, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        resid = _residuals(model, matrix)
        value = math.sqrt(float(resid @ resid) / len(resid))
    if not math.isfinite(value):
        raise NonFiniteScoreError(f"rmse is {value!r}: the model's predictions overflow")
    return value
