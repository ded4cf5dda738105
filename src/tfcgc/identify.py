"""Sparse time-varying ARX identification via multiwavelet expansion and ROFR.

The time-varying coefficients of one model equation are expanded over the
multiwavelet dictionary, turning the problem into a time-invariant sparse
regression.  Terms are picked by regularized orthogonal forward regression
(greedy selection on the regularized error reduction ratio), model size is
fixed by the penalized error-to-signal ratio, and coefficients come from
back-substitution on the orthogonal decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.signal import lfilter

from .bsplines import BSplineSpec, MultiwaveletDictionary, build_dictionary

__all__ = [
    "RofrConfig",
    "RofrResult",
    "RegressionProblem",
    "TvarxModel",
    "expand_regressors",
    "rofr_select",
    "solve_parameters",
    "reconstruct_coefficients",
    "recursive_covariance",
    "fit_tvarx",
]


class ShapeError(ValueError):
    pass


class InsufficientDataError(ValueError):
    pass


class EmptyModelError(RuntimeError):
    pass


class InvalidForgettingError(ValueError):
    pass


@dataclass(frozen=True)
class RofrConfig:
    """Knobs for the greedy term search.

    ``regularization=None`` means the per-fit default
    1e-4 * mean candidate column squared norm.
    """

    regularization: float | None = None
    pesr_mu: float = 8.0
    elimination_exponent: int = 12
    max_terms: int = 40
    # PESR must rise this many consecutive steps before the search stops;
    # the reported model size is the global argmin over executed steps.
    stop_patience: int = 5

    def __post_init__(self):
        if self.regularization is not None and self.regularization < 0:
            raise ValueError("regularization must be >= 0")
        if not (5.0 <= self.pesr_mu <= 10.0):
            raise ValueError("pesr_mu must lie in [5, 10]")
        if self.elimination_exponent <= 10:
            raise ValueError("elimination_exponent must exceed 10")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")

    @property
    def elimination_threshold(self) -> float:
        return 10.0 ** (-self.elimination_exponent)


@dataclass
class RegressionProblem:
    design_matrix: np.ndarray  # (usable samples, M)
    target: np.ndarray  # (usable samples,)
    dictionary: MultiwaveletDictionary
    start_sample: int  # first usable 1-based time index
    n_samples: int  # full series length N

    def __post_init__(self):
        if self.design_matrix.shape[0] != self.target.shape[0]:
            raise ShapeError("design matrix and target row counts differ")
        if self.target.shape[0] == 0:
            raise InsufficientDataError("no usable samples")


@dataclass
class RofrResult:
    selected_indices: list[int]
    rerr_sequence: np.ndarray
    pesr_trace: np.ndarray
    orthogonal_basis: np.ndarray  # Q, (usable samples, q)
    triangular_factor: np.ndarray  # V, unit upper triangular (q, q)
    coefficients: np.ndarray  # Pi, (q,)
    residual: np.ndarray  # r_q
    regularization: float  # rho actually used

    @property
    def term_count(self) -> int:
        return len(self.selected_indices)


def expand_regressors(
    signals: np.ndarray,
    target_index: int,
    predictor_indices,
    dictionary: MultiwaveletDictionary,
) -> RegressionProblem:
    """Build the expanded design matrix for one model equation.

    ``signals`` is (channels, N); the dictionary's variable order is the
    target's own lags first, then each predictor in the given order.
    Column (v, k, basis) at 1-based time t holds
    ``signal_v(t - k) * basis(t / N)``.
    """
    signals = np.asarray(signals, dtype=float)
    if signals.ndim != 2:
        raise ShapeError("signals must be a (channels, samples) array")
    predictor_indices = list(predictor_indices)
    variables = [target_index] + predictor_indices
    if len(variables) != len(dictionary.lags_per_variable):
        raise ShapeError(
            f"dictionary declares {len(dictionary.lags_per_variable)} variables, "
            f"got target plus {len(predictor_indices)} predictors"
        )
    n = signals.shape[1]
    max_lag = max(dictionary.lags_per_variable)
    if n <= max_lag:
        raise InsufficientDataError(
            f"need more than max-lag={max_lag} samples, got {n}"
        )
    start = max_lag + 1  # 1-based first usable t
    basis = _sampled_basis(dictionary.orders, dictionary.scale, start, n)
    blocks = []
    for v, max_lag_v in zip(variables, dictionary.lags_per_variable):
        sig = signals[v]
        for k in range(1, max_lag_v + 1):
            lagged = sig[start - 1 - k : n - k]
            blocks.append(lagged[:, None] * basis)
    psi = np.hstack(blocks)
    if psi.shape[1] != dictionary.candidate_count:
        raise ShapeError("candidate count mismatch while expanding regressors")
    target = signals[target_index, start - 1 :]
    return RegressionProblem(psi, target, dictionary, start, n)


@lru_cache(maxsize=8)
def _sampled_basis(orders, scale: int, start: int, n: int) -> np.ndarray:
    """Per-term basis values at u = t/N, t = start..N, shape (usable, bases).

    Every equation fitted on one series length shares this matrix (25 per
    full-scale crop), so it is built once and returned read-only.
    """
    u = np.arange(start, n + 1) / n
    basis = build_dictionary(orders, scale, [1]).basis_matrix(u)
    basis.flags.writeable = False
    return basis


# relative size below which an inner-product deflated norm is recomputed
_GRAM_GUARD = 1e-8


def _deflate(columns: np.ndarray, q: int) -> np.ndarray:
    """Modified Gram-Schmidt on a copy of ``columns``.

    Column s < q becomes q_s; every later column, including those past
    ``q``, is deflated against each q_s in turn.
    """
    h = np.array(columns, dtype=float)
    for s in range(q):
        hs = h[:, s]
        rest = h[:, s + 1 :]
        rest -= np.outer(hs, (hs @ rest) / (hs @ hs))
    return h


def rofr_select(problem: RegressionProblem, config: RofrConfig) -> RofrResult:
    """Greedy forward selection on the regularized error reduction ratio.

    RERR denominators use the fixed X^T X normalization so that
    1 - sum(RERR) equals the error-to-signal ratio fed to PESR.  Candidates
    whose orthogonalized squared norm falls below the elimination threshold
    are screened out (including at step 1, which removes all-zero columns).

    The search runs in the correlation form of orthogonal least squares
    (Chen, Billings & Luo 1989) on inner products, never deflating the
    N x M candidate matrix.  Per candidate j it keeps a_s[j] = <q_s, psi_j>,
    the deflated squared norm ||h_j||^2 and <h_j, X> (which equals
    <h_j, r> because h_j is orthogonal to every chosen q).  Step s needs
    only the Gram row G[b] = Psi^T psi_b of the column b it picks, one
    matrix-vector product: the full Psi^T Psi would cost M/2 times the
    steps taken, and a matrix product that large runs BLAS-threaded,
    which oversubscribes the cores inside the pipeline's worker pool.
    Q, V and the residual are built once the PESR argmin fixes q, by
    modified Gram-Schmidt on the chosen columns.

    Inner-product norms lose precision to cancellation, about
    1e-16 * ||psi_j||^2, while the dictionary holds exactly collinear
    columns (orders 3/4/5 share constants and linear functions).  Wherever
    a candidate's norm has fallen below ``_GRAM_GUARD * ||psi_j||^2``, it
    and <h_j, X> are recomputed from Psi and the chosen columns, so the
    absolute screen judges the explicitly deflated value.
    """
    psi = problem.design_matrix
    x = problem.target
    m = psi.shape[1]
    eps = config.elimination_threshold
    col_sq = np.einsum("ij,ij->j", psi, psi)
    rho = config.regularization
    if rho is None:
        rho = 1e-4 * float(col_sq.mean())
    xtx = float(x @ x)
    if xtx <= 0:
        raise EmptyModelError("target vector has zero energy")

    h_sq = col_sq.copy()  # ||h_j||^2 of the deflated candidates
    h_x = psi.T @ x  # <h_j, X>
    active = h_sq >= eps
    if not active.any():
        raise EmptyModelError("all candidates eliminated by the norm screen")

    n_pesr = problem.target.shape[0]
    mu = config.pesr_mu
    max_steps = min(config.max_terms, int(active.sum()))

    corr = np.empty((max_steps, m))  # row s: a_s = Psi^T q_s
    q_sq = np.empty(max_steps)  # ||q_s||^2
    selected: list[int] = []
    rerr_seq: list[float] = []
    pesr_seq: list[float] = []
    rising = 0
    for step in range(1, max_steps + 1):
        if mu * step / n_pesr >= 1.0:
            break  # PESR penalty undefined beyond this size
        if not active.any():
            break
        act_idx = np.flatnonzero(active)
        scores = h_x[act_idx] ** 2 / (xtx * (h_sq[act_idx] + rho))
        pick = int(np.argmax(scores))
        best = int(act_idx[pick])
        s = step - 1
        q_sq[s] = h_sq[best]
        corr[s] = psi.T @ psi[:, best] - (corr[:s, best] / q_sq[:s]) @ corr[:s]
        h_x -= (h_x[best] / q_sq[s]) * corr[s]
        h_sq -= corr[s] ** 2 / q_sq[s]
        selected.append(best)
        rerr_seq.append(float(scores[pick]))
        active[best] = False
        suspect = np.flatnonzero(active & (h_sq < _GRAM_GUARD * col_sq))
        if suspect.size:
            h = _deflate(psi[:, selected + suspect.tolist()], step)[:, step:]
            h_sq[suspect] = np.einsum("ij,ij->j", h, h)
            h_x[suspect] = h.T @ x
        active &= h_sq >= eps
        pesr = (1.0 - sum(rerr_seq)) / (1.0 - mu * step / n_pesr) ** 2
        pesr_seq.append(pesr)
        if len(pesr_seq) >= 2 and pesr_seq[-1] > pesr_seq[-2]:
            rising += 1
        else:
            rising = 0
        if rising >= config.stop_patience:
            break

    if not selected:
        raise EmptyModelError("no candidate survived the search")
    q = int(np.argmin(pesr_seq)) + 1
    selected = selected[:q]
    phi = psi[:, selected]
    h = _deflate(np.column_stack([phi, x]), q)
    q_mat = h[:, :q]
    # unit upper triangular V with Phi = Q V, built from the original columns
    q_norms = np.einsum("ij,ij->j", q_mat, q_mat)
    v_mat = np.triu((q_mat.T @ phi) / q_norms[:, None], 1) + np.eye(q)
    result = RofrResult(
        selected_indices=selected,
        rerr_sequence=np.array(rerr_seq[:q]),
        pesr_trace=np.array(pesr_seq),
        orthogonal_basis=q_mat,
        triangular_factor=v_mat,
        coefficients=np.empty(q),
        residual=h[:, q],
        regularization=rho,
    )
    result.coefficients = solve_parameters(result, x)
    return result


def solve_parameters(result: RofrResult, target: np.ndarray) -> np.ndarray:
    """Back-substitute V Pi = K with K the orthogonal projections of X."""
    q_mat = result.orthogonal_basis
    v_mat = result.triangular_factor
    q = q_mat.shape[1]
    q_sq = np.einsum("ij,ij->j", q_mat, q_mat)
    k = (q_mat.T @ target) / q_sq
    pi = np.empty(q)
    for i in range(q - 1, -1, -1):
        pi[i] = k[i] - v_mat[i, i + 1 :] @ pi[i + 1 :]
    return pi


def recursive_covariance(
    u1: np.ndarray, u2: np.ndarray, forgetting: float, init_window: int
) -> np.ndarray:
    """Exponentially forgetting covariance trace.

    Seeds with the sample mean of u1*u2 over the first ``init_window``
    samples, then applies sigma(t+1) = (1-zeta)*sigma(t) + zeta*u1(t)*u2(t),
    run as the one-pole filter z / (1 - (1-z) q^-1) over u1*u2.
    """
    if not (0.0 < forgetting < 1.0):
        raise InvalidForgettingError(
            f"forgetting factor must lie in (0, 1), got {forgetting}"
        )
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if u1.shape != u2.shape or u1.ndim != 1:
        raise ShapeError("series must be equal-length vectors")
    n = u1.shape[0]
    if not (1 <= init_window <= n):
        raise ValueError("init_window must lie in [1, len(series)]")
    prod = u1 * u2
    sigma0 = prod[:init_window].mean()
    z = forgetting
    tail, _ = lfilter([z], [1.0, z - 1.0], prod[:-1], zi=[(1.0 - z) * sigma0])
    return np.concatenate(([sigma0], tail))


@dataclass
class TvarxModel:
    """One fitted time-varying equation and its reconstruction."""

    target_index: int
    predictor_indices: list[int]
    dictionary: MultiwaveletDictionary
    rofr: RofrResult
    config: RofrConfig
    n_samples: int
    start_sample: int
    selected_terms: list[tuple[int, int, BSplineSpec]]  # (variable slot, lag, basis)
    expansion_coefficients: np.ndarray
    residuals: np.ndarray  # full length N, zero before start_sample
    timevarying_coefficients: dict = field(default_factory=dict)

    @property
    def variables(self) -> list[int]:
        return [self.target_index] + self.predictor_indices


def reconstruct_coefficients(model: TvarxModel) -> dict:
    """Rebuild the time-varying coefficient series a_{v,k}(t), t = 1..N.

    Keys are (channel index, lag); channels map through the model's
    variable-slot order.  Candidate i's basis is column
    ``i % bases_per_term`` of the basis sampled at t = 1..N.
    """
    n = model.n_samples
    dictionary = model.dictionary
    basis = _sampled_basis(dictionary.orders, dictionary.scale, 1, n)
    series: dict[tuple[int, int], np.ndarray] = {}
    for (slot, lag, _), index, coeff in zip(
        model.selected_terms, model.rofr.selected_indices, model.expansion_coefficients
    ):
        chan = model.variables[slot]
        key = (chan, lag)
        if key not in series:
            series[key] = np.zeros(n)
        series[key] += coeff * basis[:, index % dictionary.bases_per_term]
    return series


def fit_tvarx(
    signals: np.ndarray,
    target_index: int,
    predictor_indices,
    dictionary: MultiwaveletDictionary,
    rofr: RofrConfig | None = None,
) -> TvarxModel:
    """Fit one equation: expand, select, solve, reconstruct."""
    rofr = rofr or RofrConfig()
    problem = expand_regressors(signals, target_index, predictor_indices, dictionary)
    result = rofr_select(problem, rofr)
    terms = [problem.dictionary.candidates[i] for i in result.selected_indices]
    n = problem.n_samples
    residuals = np.zeros(n)
    fitted = problem.design_matrix[:, result.selected_indices] @ result.coefficients
    residuals[problem.start_sample - 1 :] = problem.target - fitted
    model = TvarxModel(
        target_index=target_index,
        predictor_indices=list(predictor_indices),
        dictionary=dictionary,
        rofr=result,
        config=rofr,
        n_samples=n,
        start_sample=problem.start_sample,
        selected_terms=terms,
        expansion_coefficients=result.coefficients,
        residuals=residuals,
    )
    model.timevarying_coefficients = reconstruct_coefficients(model)
    return model
