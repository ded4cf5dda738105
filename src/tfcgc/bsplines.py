"""Cardinal B-spline multiwavelet bases and the candidate-regressor dictionary.

The basis family is the shifted/dilated cardinal B-splines
``phi(u) = 2**(j/2) * beta_s(2**j * u - l)`` on the normalized axis
``u in [0, 1]``, with shifts ``l in {-s, ..., 2**j - 1}``.  Time-varying
model coefficients are expanded over this family, so the candidate
dictionary pairs every (variable, lag) with every basis function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DataError, Range

#: the orders, scales and lags every basis and dictionary holds to
ORDERS = Range(1)
SCALES = Range(0)
LAGS = Range(1)


def bspline_eval(order: int, u):
    """Evaluate the cardinal B-spline ``beta_s`` of the given order.

    ``beta_1`` is the indicator of [0, 1); higher orders follow the
    Cox-de Boor recursion
    ``beta_s(u) = (u*beta_{s-1}(u) + (s-u)*beta_{s-1}(u-1)) / (s-1)``
    with support [0, s].  Accepts scalars or arrays.
    """
    if not ORDERS.holds(order):
        raise ConfigError(f"B-spline order must be {ORDERS}, got {order}")
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    out = _bspline_rec(int(order), np.atleast_1d(u))
    return float(out[0]) if scalar else out


def _bspline_rec(s: int, u: np.ndarray) -> np.ndarray:
    if s == 1:
        return ((u >= 0.0) & (u < 1.0)).astype(float)
    prev = _bspline_rec(s - 1, u)
    prev_shift = _bspline_rec(s - 1, u - 1.0)
    return (u * prev + (s - u) * prev_shift) / (s - 1)


def shift_range(order: int, scale: int) -> range:
    """Admissible shifts for order ``order`` at dyadic level ``scale``."""
    return range(-order, 2**scale)


@dataclass(frozen=True)
class BSplineSpec:
    """One basis function: order ``s``, dyadic scale ``j``, shift ``l``."""

    order: int
    scale: int
    shift: int

    def __post_init__(self):
        if not ORDERS.holds(self.order):
            raise ConfigError(f"order must be {ORDERS}, got {self.order}")
        if not SCALES.holds(self.scale):
            raise ConfigError(f"scale must be {SCALES}, got {self.scale}")
        if not (-self.order <= self.shift <= 2**self.scale - 1):
            raise ConfigError(
                f"shift {self.shift} outside admissible range "
                f"[{-self.order}, {2**self.scale - 1}] for order {self.order}, "
                f"scale {self.scale}"
            )


def basis_eval(spec: BSplineSpec, u):
    """Evaluate ``2**(j/2) * beta_s(2**j * u - l)`` at ``u`` in [0, 1]."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise DataError("basis evaluation point must lie in [0, 1]")
    amp = 2.0 ** (spec.scale / 2.0)
    return amp * bspline_eval(spec.order, 2**spec.scale * u_arr - spec.shift)


@dataclass(frozen=True)
class MultiwaveletDictionary:
    """Ordered candidate set for the expanded time-invariant regression.

    Each candidate is a (variable index, lag, basis) triple naming one
    design-matrix column ``signal_v(t-k) * phi(t/N)``.  Ordering is
    variable-major, then lag, then order, then shift, so term selection
    is reproducible.
    """

    orders: tuple[int, ...]
    scale: int
    lags_per_variable: tuple[int, ...]
    candidates: tuple[tuple[int, int, BSplineSpec], ...] = field(repr=False)

    @property
    def candidate_count(self) -> int:
        return len(self.candidates)

    @property
    def bases_per_term(self) -> int:
        return basis_count(self.orders, self.scale)

    def basis_matrix(self, u: np.ndarray) -> np.ndarray:
        """Stack basis values at points ``u`` for the per-term basis list.

        Returns an array of shape (len(u), bases_per_term) following the
        (order, shift) ordering used within each (variable, lag) block.
        """
        cols = []
        for s in self.orders:
            for l in shift_range(s, self.scale):
                cols.append(basis_eval(BSplineSpec(s, self.scale, l), u))
        return np.column_stack(cols)


def basis_count(orders, scale: int) -> int:
    """Basis functions per (variable, lag): 2**scale + s shifts per order s."""
    return sum(2**scale + s for s in set(orders))


def build_dictionary(orders, scale: int, lags_per_variable) -> MultiwaveletDictionary:
    """Enumerate all (variable, lag, order, shift) candidates.

    The dictionary is frozen, so one instance per normalized (orders,
    scale, lags) serves every caller.
    """
    return _dictionary(
        tuple(sorted(set(int(s) for s in orders))),
        int(scale),
        tuple(int(k) for k in lags_per_variable),
    )


@lru_cache(maxsize=32)
def _dictionary(orders, scale: int, lags) -> MultiwaveletDictionary:
    for name, value, bound in (
        ("orders", orders, ORDERS),
        ("lags_per_variable", lags, LAGS),
        ("scale", scale, SCALES),
    ):
        if not bound.holds(value):
            raise ConfigError(f"{name} must be {bound}, got {value}")
    cands = []
    for v, max_lag in enumerate(lags):
        for k in range(1, max_lag + 1):
            for s in orders:
                for l in shift_range(s, scale):
                    cands.append((v, k, BSplineSpec(s, scale, l)))
    return MultiwaveletDictionary(
        orders=orders, scale=scale, lags_per_variable=lags, candidates=tuple(cands)
    )
