"""Stochastic gradient descent over observed ratings.

Each step looks at one observation, computes the prediction error, and
nudges the touched user and event rows. The per-sample loss regularizes
only those two rows; the full objective (all rows penalized) remains the
reported metric. The conventional factor 2 from differentiating the squared
error is absorbed into the learning rate, so a step moves along
(e * other_row - gamma * own_row). gradient_at, used for testing, returns
the unhalved analytic gradient of the objective itself.

An epoch is defined as its steps run one after another in a seeded order,
and that order is built from waves, with numpy sorts alone (stratified SGD,
as in Gemulla et al., KDD 2011). A permutation of the observations is drawn
as a stable argsort of raw PCG64 draws. Within it, a is a step's rank among
its user's steps and b its rank among the steps that share its (a, event),
so an (a, b) class repeats no user row and no event row. Those classes are
the waves. They run in the order of one more raw draw per wave, and each
keeps its steps in permutation order; the epoch's order is their
concatenation. The raw PCG64 stream is fixed by NEP 19, so the order
depends on the seed alone, not on the numpy version.

Steps on disjoint rows commute (as in Hogwild! and DSGD), so one numpy pass
per wave updates them all, and each step reads the rows that exactly the
steps before it in the order left behind. Each new entry is computed with
the same IEEE operations, in the same order, as one scalar step, and the
dot product is summed left to right from 0.0 by model._dot, the sum scoring
uses. The trained factors are therefore bit-identical to the sequential
order's, and depend on neither BLAS, numpy, array layout nor the Python
version. The first step in the order whose update is not finite also ran on
its sequential inputs, so training stops at the same step as the sequential
order would. Only the objective and rmse totals over observations use numpy
reductions.
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


def _ranks(keys):
    """Each slot's rank among the slots before it with the same key."""
    by_key = _stable_argsort(keys)
    sorted_keys = keys[by_key]
    index = np.arange(len(keys))
    first = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    ranks = np.empty_like(by_key)
    ranks[by_key] = index - np.maximum.accumulate(np.where(first, index, 0))
    return ranks


def _schedule(users, events, n_events, rng):
    """One epoch's order of observation slots, and each wave's end in it.

    a and b are the ranks of the module docstring, taken in perm order. The
    rng draws perm and the wave order.
    """
    perm = np.argsort(rng.bit_generator.random_raw(len(users)), kind="stable")
    a = _ranks(users[perm])
    # a user rates an event once, so a < n_events and the key < n_events**2
    b = _ranks(a * n_events + events[perm])
    # the waves numbered in (a, b) order: level a holds max(b) + 1 of them
    per_level = np.zeros(a.max() + 2, dtype=np.int64)
    np.maximum.at(per_level, a + 1, b + 1)
    wave = np.cumsum(per_level)[a] + b
    draws = rng.bit_generator.random_raw(int(per_level.sum()))
    # each wave renumbered by its place in the stable order of the draws
    wave = np.argsort(np.argsort(draws, kind="stable"))[wave]
    by_wave = _stable_argsort(wave)
    return perm[by_wave], np.cumsum(np.bincount(wave))


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

    Every epoch visits each observation exactly once, in the wave order of
    the module docstring, drawn from the PCG64 stream of config.seed. It
    records the full objective afterwards. The input model is not modified.
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
            slots, ends = _schedule(matrix.users, matrix.events, work.n_events, rng)
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
                # the waves run in the epoch's order, so every earlier step
                # ran on its sequential inputs
                step = int(np.argmax(~ok))
                message = _non_finite_message(wu[step], wi[step])
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
