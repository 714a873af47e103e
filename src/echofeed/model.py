"""Latent-factor model: per-user and per-event vectors whose dot products
approximate observed ratings, plus the regularized squared-error objective.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._atomic import dump_json
from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    NonFiniteScoreError,
    ParseError,
)
from .ratings import RatingMatrix, check_index


@dataclass(eq=False)
class FactorModel:
    """k-dimensional factors for every user row and event column.

    Mutable by design: the trainer updates the factor arrays in place on its
    private copy. Everything else treats a model as read-only.
    """

    gamma: float
    user_factors: np.ndarray = field(repr=False)
    event_factors: np.ndarray = field(repr=False)

    @property
    def k(self) -> int:
        return self.user_factors.shape[1]

    @property
    def n_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def n_events(self) -> int:
        return self.event_factors.shape[0]

    def copy(self) -> "FactorModel":
        return replace(
            self,
            user_factors=self.user_factors.copy(),
            event_factors=self.event_factors.copy(),
        )


def _rng(seed: int) -> np.random.Generator:
    """numpy's default generator for a seed, refusing the negative seeds
    numpy rejects with a bare ValueError."""
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def check_dense(what: str, rows: int, cols: int) -> None:
    """Raise InvalidDimensionError when a rows x cols float64 array holds
    more bytes than numpy can address, before numpy is asked to make it."""
    if rows * cols * 8 > np.iinfo(np.intp).max:
        raise InvalidDimensionError(f"{what} of {rows}x{cols} float64 cells cannot be allocated")


def init_model(
    n_users: int, n_events: int, k: int, gamma: float, seed: int, scale: float = 0.1
) -> FactorModel:
    """Fresh model with entries drawn uniformly from [-scale, +scale]."""
    if n_users < 1 or n_events < 1 or k < 1:
        raise InvalidDimensionError(
            f"need n_users, n_events, k >= 1, got ({n_users}, {n_events}, {k})"
        )
    check_dense("user factors", n_users, k)
    check_dense("event factors", n_events, k)
    if not (math.isfinite(gamma) and gamma >= 0):
        raise InvalidParameterError(f"gamma must be finite and >= 0, got {gamma}")
    if not (math.isfinite(scale) and scale > 0):
        raise InvalidParameterError(f"init scale must be finite and > 0, got {scale}")
    # numpy refuses a draw range [-scale, scale] whose width overflows
    if not math.isfinite(2 * scale):
        raise InvalidParameterError(
            f"init scale must be <= {sys.float_info.max / 2!r}, got {scale}"
        )
    rng = _rng(seed)
    return FactorModel(
        gamma=float(gamma),
        user_factors=rng.uniform(-scale, scale, size=(n_users, k)),
        event_factors=rng.uniform(-scale, scale, size=(n_events, k)),
    )


def check_dimensions(model: FactorModel, matrix: RatingMatrix) -> None:
    if model.n_users != matrix.n_users or model.n_events != matrix.n_events:
        raise DimensionMismatchError(
            f"model is {model.n_users}x{model.n_events}, "
            f"matrix is {matrix.n_users}x{matrix.n_events}"
        )


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcasting the leading axes: the
    one scoring kernel, behind predict, top_k, objective and rmse. It sums
    left to right from 0.0 like the SGD step, so a cell's bits depend on
    neither how it is batched nor BLAS, numpy or memory layout.
    """
    s = 0.0
    for j in range(a.shape[-1]):
        s = s + a[..., j] * b[..., j]
    return s


def _residuals(model: FactorModel, matrix: RatingMatrix) -> np.ndarray:
    """Observed value minus prediction, one per observation in matrix order."""
    return matrix.values - _dot(
        model.user_factors[matrix.users], model.event_factors[matrix.events]
    )


def predict(model: FactorModel, u: int, i: int) -> float:
    """Predicted engagement for (user u, event i): the factor dot product.

    Raises NonFiniteScoreError when the product of finite factors overflows.
    """
    check_index("user", u, model.n_users)
    check_index("event", i, model.n_events)
    with np.errstate(over="ignore", invalid="ignore"):
        score = float(_dot(model.user_factors[u], model.event_factors[i]))
    if not math.isfinite(score):
        raise NonFiniteScoreError(f"score of user {u}, event {i} is {score!r}")
    return score


def l2_penalty(model: FactorModel) -> float:
    """Sum of squared factor entries over all rows (gamma not applied)."""
    uf = model.user_factors
    ef = model.event_factors
    return float(np.sum(uf * uf) + np.sum(ef * ef))


def objective(model: FactorModel, matrix: RatingMatrix) -> float:
    """Squared error over observed cells plus gamma times the L2 penalty.

    The penalty covers every user and event row, observed or not.
    Observations are accumulated in ascending (user, event) order so the
    value is reproducible run to run.
    """
    check_dimensions(model, matrix)
    # overflowed factors give an inf or nan objective, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        resid = _residuals(model, matrix)
        return float(resid @ resid) + model.gamma * l2_penalty(model)


def save_model(model: FactorModel, path: str | Path) -> None:
    """Serialize to JSON, replacing the file atomically; float round-trip is exact."""
    doc = {
        "k": model.k,
        "gamma": model.gamma,
        "user_factors": model.user_factors.tolist(),
        "event_factors": model.event_factors.tolist(),
    }
    dump_json(doc, path)


def load_model(path: str | Path) -> FactorModel:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        k = int(doc["k"])
        gamma = float(doc["gamma"])
        uf = np.array(doc["user_factors"], dtype=np.float64)
        ef = np.array(doc["event_factors"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ParseError(f"{path}: not a valid model file ({exc})") from exc
    if uf.ndim != 2 or ef.ndim != 2 or uf.shape[1] != k or ef.shape[1] != k:
        raise DimensionMismatchError(
            f"{path}: factor shapes {uf.shape}/{ef.shape} inconsistent with k={k}"
        )
    if k < 1:
        raise InvalidDimensionError(f"{path}: k must be >= 1, got {k}")
    if gamma < 0 or not math.isfinite(gamma):
        raise InvalidParameterError(f"{path}: gamma must be finite and >= 0, got {gamma}")
    if not (np.isfinite(uf).all() and np.isfinite(ef).all()):
        raise ParseError(f"{path}: factor entries must be finite")
    return FactorModel(gamma=gamma, user_factors=uf, event_factors=ef)
