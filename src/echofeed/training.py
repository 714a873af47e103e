"""Stochastic gradient descent over observed ratings.

Each step looks at one observation, computes the prediction error, and
nudges the touched user and event rows. The per-sample loss regularizes
only those two rows; the full objective (all rows penalized) remains the
reported metric. The conventional factor 2 from differentiating the squared
error is absorbed into the learning rate, so a step moves along
(e * other_row - gamma * own_row). gradient_at, used for testing, returns
the unhalved analytic gradient of the objective itself.

The step runs on Python lists of floats rather than numpy rows: at the
small k this model uses, numpy's per-call overhead is most of a step. Its
dot product is summed left to right from 0.0, the sum model._dot scores
with, so neither factors nor scores depend on BLAS, numpy, array layout or
the Python version (builtin sum() is compensated from Python 3.12 on). Only
the objective and rmse totals over observations use numpy reductions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyMatrixError, InvalidParameterError, NonFiniteUpdateError
from .model import FactorModel, _residuals, check_dimensions, objective
from .ratings import RatingMatrix, check_index


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters. Defaults are stable on desk-scale instances."""

    learning_rate: float = 0.01
    epochs: int = 100
    seed: int = 0
    shuffle: bool = True
    tolerance: float = 0.0  # relative objective change for early stop; 0 = off

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidParameterError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.epochs < 1:
            raise InvalidParameterError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise InvalidParameterError(
                f"tolerance must be finite and >= 0, got {self.tolerance}"
            )


@dataclass
class TrainReport:
    loss_history: list[float] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.loss_history)

    def to_dict(self) -> dict:
        return {
            "loss_history": self.loss_history,
            "epochs_run": self.epochs_run,
            "stopped_early": self.stopped_early,
        }


def _apply_step(uf, ef, u, i, r, lr, gamma):
    """One simultaneous update of rows uf[u] and ef[i], lists of floats; returns them."""
    x = uf[u]
    y = ef[i]
    dot = 0.0
    for a, b in zip(x, y):
        dot += a * b
    e = r - dot
    # every new entry is computed from the pre-update x and y on purpose
    nx = [a + lr * (e * b - gamma * a) for a, b in zip(x, y)]
    ny = [b + lr * (e * a - gamma * b) for a, b in zip(x, y)]
    # inf + -inf in these sums yields nan, so this catches both poisons
    sx = 0.0
    for v in nx:
        sx += v
    sy = 0.0
    for v in ny:
        sy += v
    if not (math.isfinite(sx) and math.isfinite(sy)):
        raise NonFiniteUpdateError(f"non-finite factor update for user {u}, event {i}")
    uf[u] = nx
    ef[i] = ny
    return nx, ny


def sgd_step(model: FactorModel, u: int, i: int, value: float, learning_rate: float) -> FactorModel:
    """Apply one SGD update for the observation (u, i, value), in place.

    Returns the same model object with rows u and i updated; all other
    rows are untouched.
    """
    check_index("user", u, model.n_users)
    check_index("event", i, model.n_events)
    nx, ny = _apply_step(
        {u: model.user_factors[u].tolist()},
        {i: model.event_factors[i].tolist()},
        u,
        i,
        float(value),
        float(learning_rate),
        float(model.gamma),
    )
    model.user_factors[u] = nx
    model.event_factors[i] = ny
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
    """Run SGD for config.epochs passes and return (trained copy, report).

    Every epoch visits each observation exactly once, in seeded
    Fisher-Yates order when shuffling (sorted order otherwise), and records
    the full objective afterwards. The input model is not modified.
    """
    check_dimensions(model, matrix)
    if not len(matrix):
        raise EmptyMatrixError("cannot train on a matrix with no observations")
    work = model.copy()
    # tolist() and np.array() are exact, so only the step's arithmetic counts;
    # numpy scalars in the step would be slower and warn on overflow
    uf = work.user_factors.tolist()
    ef = work.event_factors.tolist()
    lr = float(config.learning_rate)
    gamma = float(work.gamma)
    obs_users = matrix.users.tolist()
    obs_events = matrix.events.tolist()
    obs_values = matrix.values.tolist()
    order = list(range(len(obs_users)))
    rng = random.Random(config.seed)

    report = TrainReport()
    for epoch in range(1, config.epochs + 1):
        if config.shuffle:
            rng.shuffle(order)
        for step, t in enumerate(order):
            try:
                _apply_step(uf, ef, obs_users[t], obs_events[t], obs_values[t], lr, gamma)
            except NonFiniteUpdateError as exc:
                raise NonFiniteUpdateError(
                    f"{exc} (epoch {epoch}, step {step})", epoch=epoch, step=step
                ) from exc
        work.user_factors = np.array(uf, dtype=np.float64)
        work.event_factors = np.array(ef, dtype=np.float64)
        loss = objective(work, matrix)
        report.loss_history.append(loss)
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
    resid = _residuals(model, matrix)
    return math.sqrt(float(resid @ resid) / len(resid))
