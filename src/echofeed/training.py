"""Stochastic gradient descent over observed ratings.

Each step looks at one observation, computes the prediction error, and
nudges the touched user and event rows. The per-sample loss regularizes
only those two rows; the full objective (all rows penalized) remains the
reported metric. The conventional factor 2 from differentiating the squared
error is absorbed into the learning rate, so a step moves along
(e * other_row - gamma * own_row). gradient_at, used for testing, returns
the unhalved analytic gradient of the objective itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyMatrixError,
    IndexOutOfRangeError,
    InvalidParameterError,
    NonFiniteUpdateError,
)
from .model import FactorModel, _dot, check_dimensions, objective
from .ratings import Rating, RatingMatrix


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters. Defaults are stable on desk-scale instances."""

    learning_rate: float = 0.01
    epochs: int = 100
    seed: int = 0
    shuffle: bool = True
    tolerance: float = 0.0  # relative objective change for early stop; 0 = off

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidParameterError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise InvalidParameterError(f"epochs must be >= 1, got {self.epochs}")
        if self.tolerance < 0:
            raise InvalidParameterError(f"tolerance must be >= 0, got {self.tolerance}")


@dataclass
class TrainReport:
    loss_history: list[float] = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False

    def to_dict(self) -> dict:
        return {
            "loss_history": self.loss_history,
            "epochs_run": self.epochs_run,
            "stopped_early": self.stopped_early,
        }


def _apply_step(uf, ef, u, i, r, lr, gamma):
    """One simultaneous update of rows uf[u] and ef[i]; returns them."""
    x = uf[u]
    y = ef[i]
    e = r - float(x @ y)
    nx = x + lr * (e * y - gamma * x)
    ny = y + lr * (e * x - gamma * y)  # x is the pre-update row on purpose
    # inf + -inf inside sum() yields nan, so this catches both poisons
    if not (math.isfinite(nx.sum()) and math.isfinite(ny.sum())):
        raise NonFiniteUpdateError(f"non-finite factor update for user {u}, event {i}")
    uf[u] = nx
    ef[i] = ny
    return nx, ny


def sgd_step(model: FactorModel, rating: Rating, learning_rate: float) -> FactorModel:
    """Apply one SGD update for a single observation, in place.

    Returns the same model object with rows `rating.user` and
    `rating.event` updated; all other rows are untouched.
    """
    if not 0 <= rating.user < model.n_users:
        raise IndexOutOfRangeError(f"user index {rating.user} outside [0, {model.n_users})")
    if not 0 <= rating.event < model.n_events:
        raise IndexOutOfRangeError(f"event index {rating.event} outside [0, {model.n_events})")
    # overflow is reported through NonFiniteUpdateError, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        _apply_step(
            model.user_factors,
            model.event_factors,
            rating.user,
            rating.event,
            rating.value,
            learning_rate,
            model.gamma,
        )
    return model


def gradient_at(model: FactorModel, matrix: RatingMatrix, u: int) -> np.ndarray:
    """Full-batch objective gradient with respect to user row u.

    d/dx_u [sum (r - x.y)^2 + gamma * penalty] =
        sum over u's observations of -2 e y_i, plus 2 gamma x_u.
    Testing hook; training never calls this.
    """
    check_dimensions(model, matrix)
    if not 0 <= u < model.n_users:
        raise IndexOutOfRangeError(f"user index {u} outside [0, {model.n_users})")
    mask = matrix.users == u
    x = model.user_factors[u]
    grad = 2.0 * model.gamma * x
    if mask.any():
        ys = model.event_factors[matrix.events[mask]]
        errs = matrix.values[mask] - ys @ x
        grad = grad - 2.0 * (errs[:, None] * ys).sum(axis=0)
    return grad


def train(
    model: FactorModel, matrix: RatingMatrix, config: TrainConfig
) -> tuple[FactorModel, TrainReport]:
    """Run SGD for config.epochs passes and return (trained copy, report).

    Every epoch visits each observation exactly once, in seeded
    Fisher-Yates order when shuffling (sorted order otherwise), and records
    the full objective afterwards. The input model is not modified.
    """
    check_dimensions(model, matrix)
    if not len(matrix):
        raise EmptyMatrixError("cannot train on a matrix with no observations")
    work = model.copy()
    uf = work.user_factors
    ef = work.event_factors
    lr = config.learning_rate
    gamma = work.gamma
    obs_users = matrix.users.tolist()
    obs_events = matrix.events.tolist()
    obs_values = matrix.values.tolist()
    order = list(range(len(obs_users)))
    rng = random.Random(config.seed)

    report = TrainReport()
    for epoch in range(1, config.epochs + 1):
        if config.shuffle:
            rng.shuffle(order)
        # overflow is reported through NonFiniteUpdateError, not warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for step, t in enumerate(order):
                try:
                    _apply_step(uf, ef, obs_users[t], obs_events[t], obs_values[t], lr, gamma)
                except NonFiniteUpdateError as exc:
                    raise NonFiniteUpdateError(
                        f"{exc} (epoch {epoch}, step {step})", epoch=epoch, step=step
                    ) from exc
        loss = objective(work, matrix)
        report.loss_history.append(loss)
        report.epochs_run = epoch
        if config.tolerance > 0 and epoch >= 2:
            prev = report.loss_history[-2]
            delta = abs(loss - prev)
            if (prev == 0 and delta == 0) or (prev > 0 and delta / prev < config.tolerance):
                report.stopped_early = True
                break
    return work, report


def rmse(model: FactorModel, matrix: RatingMatrix) -> float:
    """Root mean squared prediction error over the observed cells."""
    check_dimensions(model, matrix)
    if not len(matrix):
        raise EmptyMatrixError("rmse needs at least one observation")
    resid = matrix.values - _dot(
        model.user_factors[matrix.users], model.event_factors[matrix.events]
    )
    return math.sqrt(float(resid @ resid) / len(resid))
