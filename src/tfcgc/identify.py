"""Sparse time-varying ARX identification via multiwavelet expansion and ROFR.

The time-varying coefficients of one model equation are expanded over the
multiwavelet dictionary, turning the problem into a time-invariant sparse
regression.  Terms are picked by regularized orthogonal forward regression
(greedy selection on the regularized error reduction ratio), model size is
fixed by the penalized error-to-signal ratio, and coefficients come from
back-substitution on the search's triangular factor.  The equations of a
crop share their candidate columns, so they are searched together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bsplines import MultiwaveletDictionary, build_dictionary
from .errors import ConfigError, DataError, NumericError, Range, check_ranges, ranged

#: the forgetting factors the recursive covariance accepts
FORGETTING = Range(0, 1, "()")
#: the most design columns a run accepts; imaging one crop peaks at 123 MB RSS
#: at m = 5,940 and 158 MB at m = 10,310, growing linearly in m
MAX_COLUMNS = 11_585
#: ``_search`` screens out a candidate whose deflated squared norm is below this
#: fraction of its own squared norm, so the screen does not depend on units
ELIMINATION_THRESHOLD = 1e-12
#: the PESR penalty: a model of q terms divides its error-to-signal ratio by
#: (1 - PESR_MU * q / usable samples)^2
PESR_MU = 8.0


@dataclass(frozen=True)
class RofrConfig:
    """Knobs for the greedy term search.

    ``regularization=None`` means the per-fit default
    1e-4 * mean candidate column squared norm.
    """

    regularization: float | None = ranged(None, Range(0))
    max_terms: int = ranged(40, Range(1))
    # PESR must rise this many consecutive steps before the search stops;
    # the reported model size is the global argmin over executed steps.
    stop_patience: int = 5

    def __post_init__(self):
        check_ranges(self)


@dataclass
class RegressionProblem:
    design_matrix: np.ndarray  # (usable samples, M)
    target: np.ndarray  # (usable samples,)
    dictionary: MultiwaveletDictionary
    start_sample: int  # first usable 1-based time index
    n_samples: int  # full series length N

    def __post_init__(self):
        if self.design_matrix.shape[0] != self.target.shape[0]:
            raise DataError("design matrix and target row counts differ")
        if self.target.shape[0] == 0:
            raise DataError("no usable samples")


@dataclass
class RofrResult:
    selected_indices: list[int]
    rerr_sequence: np.ndarray
    pesr_trace: np.ndarray
    coefficients: np.ndarray  # Pi, (q,)
    residual: np.ndarray  # X - Phi Pi
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
    psi, targets, [(_, columns)], start = _expand(
        signals, [(target_index, predictor_indices, dictionary)]
    )
    n = start - 1 + psi.shape[0]
    return RegressionProblem(psi[:, columns], targets[0], dictionary, start, n)


def _expand(signals, equations):
    """The expansion half of ``fit_equations``: (Psi, targets, layout,
    start).  Psi has one block of columns per (channel, lag) any equation
    uses, in order of first use; ``targets`` holds the usable samples of
    each distinct target channel; ``layout`` gives each equation's target
    row and its columns of Psi in dictionary order; ``start`` is the first
    usable 1-based time."""
    dictionaries = [d for _, _, d in equations]
    shared = {(d.orders, d.scale, max(d.lags_per_variable)) for d in dictionaries}
    if len(shared) > 1:
        raise DataError(
            "equations fitted together must share orders, scale and maximum lag"
        )
    signals, start = _usable(signals, dictionaries)
    blocks: dict[tuple[int, int], int] = {}  # (channel, lag) -> block, first use
    targets: dict[int, int] = {}  # channel -> target row
    layout = []
    for target, predictors, d in equations:
        variables = _variables(target, predictors, d)
        block = [
            blocks.setdefault((c, k), len(blocks))
            for c, max_lag in zip(variables, d.lags_per_variable)
            for k in range(1, max_lag + 1)
        ]
        columns = np.add.outer(np.array(block) * d.bases_per_term, np.arange(d.bases_per_term))
        layout.append((targets.setdefault(target, len(targets)), columns.ravel()))
    psi = _design(signals, blocks, dictionaries[0], start)
    return psi, signals[list(targets), start - 1 :], layout, start


def _usable(signals, dictionaries) -> tuple[np.ndarray, int]:
    """``signals`` as a float (channels, N) array, and the first 1-based
    time every dictionary's lags leave usable."""
    signals = np.asarray(signals, dtype=float)
    if signals.ndim != 2:
        raise DataError("signals must be a (channels, samples) array")
    max_lag = max(max(d.lags_per_variable) for d in dictionaries)
    n = signals.shape[1]
    if n <= max_lag:
        raise DataError(
            f"need more than max-lag={max_lag} samples, got {n}"
        )
    return signals, max_lag + 1


def _variables(target_index, predictor_indices, dictionary) -> list[int]:
    variables = [target_index] + list(predictor_indices)
    if len(variables) != len(dictionary.lags_per_variable):
        raise DataError(
            f"dictionary declares {len(dictionary.lags_per_variable)} variables, "
            f"got target plus {len(variables) - 1} predictors"
        )
    return variables


def _design(signals, blocks, dictionary, start: int) -> np.ndarray:
    """Columns ``signal_c(t - k) * basis(t / N)``, t = start..N, one block
    of ``bases_per_term`` columns per (channel c, lag k) of ``blocks``."""
    n = signals.shape[1]
    basis = _sampled_basis(dictionary.orders, dictionary.scale, n)[start - 1 :]
    return np.hstack([signals[c, start - 1 - k : n - k, None] * basis for c, k in blocks])


@lru_cache(maxsize=8)
def _sampled_basis(orders, scale: int, n: int) -> np.ndarray:
    """Per-term basis values at u = t/N, t = 1..N, shape (N, bases).

    Every equation fitted on one series length shares this matrix (25 per
    full-scale crop), so it is built once and returned read-only.
    """
    u = np.arange(1, n + 1) / n
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

    The one-equation case of ``_search``.
    """
    columns = np.arange(problem.design_matrix.shape[1])
    return _search(problem.design_matrix, problem.target[None], [(0, columns)], config)[0]


def _search(psi: np.ndarray, targets: np.ndarray, equations, config: RofrConfig):
    """ROFR for several equations whose candidates are columns of ``psi``.

    ``targets`` is (targets, usable samples); ``equations`` lists (target
    row, columns): the columns of ``psi`` the equation may choose, in its
    dictionary order, which breaks argmax ties.  Returns one RofrResult
    per equation, ``selected_indices`` counting in that order.

    RERR denominators use the fixed X^T X normalization so that
    1 - sum(RERR) equals the error-to-signal ratio fed to PESR.  Candidates
    whose orthogonalized squared norm falls below ELIMINATION_THRESHOLD
    times their own squared norm, or to 0, are screened out (so step 1
    removes all-zero columns).

    The search runs in the correlation form of orthogonal least squares
    (Chen, Billings & Luo 1989) on inner products, never deflating a
    design matrix.  Per equation and candidate j it keeps
    a_s[j] = <q_s, psi_j>, the deflated squared norm ||h_j||^2 and
    <h_j, X> (which equals <h_j, r> because h_j is orthogonal to every
    chosen q).  All equations step in lockstep on (equations, candidates)
    arrays: one argmax, one gather of the Gram rows G[b] = Psi^T psi_b of
    the columns b they pick, one update.  Each Gram row is one
    matrix-vector product, made the first time any equation picks b, kept
    as row ``row_of[b]`` of ``gram`` and shared from then on.  A crop picks
    100 to 250 of the M columns.  Psi^T Psi is never formed: OpenBLAS
    threads a matrix product that large, which stalls in the worker pool.
    An equation leaves the lockstep when its own search stops.

    Inner-product norms lose precision to cancellation, about
    1e-16 * ||psi_j||^2, while the dictionary holds exactly collinear
    columns (orders 3/4/5 share constants and linear functions).  Wherever
    a candidate's norm has fallen below ``_GRAM_GUARD * ||psi_j||^2``, it
    and <h_j, X> are recomputed from Psi and the chosen columns, so the
    screen judges the explicitly deflated value.
    """
    count = len(equations)
    width = max(len(cols) for _, cols in equations)
    cols = np.zeros((count, width), dtype=np.intp)
    active = np.zeros((count, width), dtype=bool)
    for e, (_, c) in enumerate(equations):
        cols[e, : len(c)] = c
        active[e, : len(c)] = True
    target_of = np.array([t for t, _ in equations])
    x = targets[target_of]
    col_sq_all = np.einsum("ij,ij->j", psi, psi)
    col_sq = col_sq_all[cols]
    if config.regularization is None:
        rho = np.array([1e-4 * float(col_sq_all[c].mean()) for _, c in equations])
    else:
        rho = np.full(count, float(config.regularization))
    xtx = np.array([float(t @ t) for t in targets])[target_of]
    h_sq = col_sq.copy()  # ||h_j||^2 of the deflated candidates
    h_x = np.stack([psi.T @ t for t in targets])[target_of[:, None], cols]  # <h_j, X>
    active &= (h_sq >= ELIMINATION_THRESHOLD * col_sq) & (h_sq > 0)
    for e in range(count):
        if xtx[e] <= 0:
            raise NumericError("target vector has zero energy")
        if not active[e].any():
            raise NumericError("all candidates eliminated by the norm screen")
    n_pesr = psi.shape[0]
    mu = PESR_MU
    if mu / n_pesr >= 1.0:
        raise NumericError("no candidate survived the search")
    max_steps = np.minimum(config.max_terms, active.sum(axis=1))

    m = psi.shape[1]
    steps = int(max_steps.max())
    row_of = np.full(m, -1)  # the row of ``gram`` holding G[b], once b is picked
    gram = np.empty((min(m, count * steps), m))  # one row per picked column
    rows = 0
    corr = np.empty((count, steps, width))  # corr[e, s]: a_s of equation e
    picks = np.empty((count, steps), dtype=np.intp)
    q_sq = np.empty((count, steps))  # ||q_s||^2
    q_x = np.empty((count, steps))  # <q_s, X>
    rerr = np.empty((count, steps))
    pesr = np.empty((count, steps))
    rerr_sum = np.zeros(count)
    rising = np.zeros(count, dtype=int)
    ids = np.arange(count)  # equation of each live row
    results = [None] * count
    for s in range(steps):
        live = np.arange(ids.size)
        scores = np.full(h_sq.shape, -1.0)
        np.divide(h_x**2, xtx[:, None] * (h_sq + rho[:, None]), out=scores, where=active)
        pick = np.argmax(scores, axis=1)
        best = cols[live, pick]
        for b in np.unique(best[row_of[best] < 0]):
            # only rows where psi_b is nonzero count: a B-spline spans a few
            # eighths of the series at scale 3
            nonzero = np.flatnonzero(psi[:, b])
            span = slice(nonzero[0], nonzero[-1] + 1)
            gram[rows] = psi[span].T @ psi[span, b]
            row_of[b], rows = rows, rows + 1
        picks[:, s] = pick
        q_sq[:, s] = h_sq[live, pick]
        q_x[:, s] = h_x[live, pick]
        rerr[:, s] = scores[live, pick]
        a_s = gram[row_of[best][:, None], cols]
        if s:
            back = corr[live, :s, pick] / q_sq[:, :s]
            a_s -= np.matmul(back[:, None, :], corr[:, :s])[:, 0]
        corr[:, s] = a_s
        h_x -= (q_x[:, s] / q_sq[:, s])[:, None] * a_s
        h_sq -= a_s**2 / q_sq[:, s, None]
        active[live, pick] = False
        suspect = active & (h_sq < _GRAM_GUARD * col_sq)
        for e in np.flatnonzero(suspect.any(axis=1)):
            sus = np.flatnonzero(suspect[e])
            chosen = cols[e, picks[e, : s + 1]]
            h = _deflate(psi[:, np.concatenate([chosen, cols[e, sus]])], s + 1)
            h = h[:, s + 1 :]
            h_sq[e, sus] = np.einsum("ij,ij->j", h, h)
            h_x[e, sus] = h.T @ x[e]
        active &= (h_sq >= ELIMINATION_THRESHOLD * col_sq) & (h_sq > 0)
        rerr_sum += rerr[:, s]
        pesr[:, s] = (1.0 - rerr_sum) / (1.0 - mu * (s + 1) / n_pesr) ** 2
        if s:
            rising = np.where(pesr[:, s] > pesr[:, s - 1], rising + 1, 0)
        go_on = (
            (rising < config.stop_patience)
            & (s + 1 < max_steps[ids])
            & active.any(axis=1)
        )
        if mu * (s + 2) / n_pesr >= 1.0:
            go_on[:] = False  # PESR penalty undefined beyond this size
        for i in np.flatnonzero(~go_on):
            results[ids[i]] = _result(
                psi, x[i], cols[i], picks[i, : s + 1], corr[i], q_sq[i], q_x[i],
                rerr[i], pesr[i, : s + 1], float(rho[i]),
            )
        if not go_on.all():
            state = (ids, cols, x, col_sq, rho, xtx, h_sq, h_x, active, rising)
            ids, cols, x, col_sq, rho, xtx, h_sq, h_x, active, rising = (
                a[go_on] for a in state
            )
            picks, q_sq, q_x, rerr, pesr, rerr_sum = (
                a[go_on] for a in (picks, q_sq, q_x, rerr, pesr, rerr_sum)
            )
            # move the kept equations' filled steps up in place: a new
            # array would fault in fresh pages at every compaction
            for row, kept in enumerate(np.flatnonzero(go_on)):
                if row != kept:
                    corr[row, : s + 1] = corr[kept, : s + 1]
            corr = corr[: ids.size]
        if not ids.size:
            break
    return results


def _result(psi, x, cols, picks, corr, q_sq, q_x, rerr, pesr, rho) -> RofrResult:
    """One equation's RofrResult once its search has stopped: the model
    size is the PESR argmin q over the executed steps."""
    q = int(np.argmin(pesr)) + 1
    picks = picks[:q]
    norms = q_sq[:q]
    # unit upper triangular V with Phi = Q V: V[s, t] = <q_s, phi_t> / ||q_s||^2
    v_mat = np.triu(corr[:q, picks] / norms[:, None], 1) + np.eye(q)
    coefficients, residual = solve_parameters(
        psi[:, cols[picks]], x, v_mat, norms, q_x[:q]
    )
    return RofrResult(
        selected_indices=picks.tolist(),
        rerr_sequence=rerr[:q].copy(),
        pesr_trace=pesr.copy(),
        coefficients=coefficients,
        residual=residual,
        regularization=rho,
    )


def solve_parameters(
    phi: np.ndarray,
    target: np.ndarray,
    triangular: np.ndarray,
    norms: np.ndarray,
    projections: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of ``target`` on ``phi`` = Q V, and the
    residual ``target - phi @ coefficients``.

    ``triangular`` is the unit upper triangular V, ``norms`` the
    ||q_s||^2 and ``projections`` the <q_s, target> of the search, so
    V Pi = <q_s, target> / ||q_s||^2 gives Pi by back-substitution.  As
    V and the norms come from inner products, Pi then takes one step of
    the corrected semi-normal equations (Bjorck 1987): with the explicit
    residual r, Phi^T Phi d = Phi^T r is solved through
    Phi^T Phi = V^T diag(norms) V, and Pi + d is returned.
    """
    # partial pivoting factors the unit upper triangular V as I V, so its
    # solves are back-substitutions; on V^T it may exchange rows, which
    # only rounds the small correction step differently
    pi = np.linalg.solve(triangular, projections / norms)
    gradient = phi.T @ (target - phi @ pi)
    step = np.linalg.solve(triangular.T, gradient)
    pi += np.linalg.solve(triangular, step / norms)
    return pi, target - phi @ pi


def recursive_covariance(
    u1: np.ndarray, u2: np.ndarray, forgetting: float, init_window: int
) -> np.ndarray:
    """Exponentially forgetting covariance trace.

    Seeds with the sample mean of u1*u2 over the first ``init_window``
    samples, then applies sigma(t+1) = (1-zeta)*sigma(t) + zeta*u1(t)*u2(t)
    one sample at a time, rounding as that formula reads.
    """
    if not FORGETTING.holds(forgetting):
        raise ConfigError(
            f"forgetting factor must be {FORGETTING}, got {forgetting}"
        )
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if u1.shape != u2.shape or u1.ndim != 1:
        raise DataError("series must be equal-length vectors")
    n = u1.shape[0]
    if not (1 <= init_window <= n):
        raise ConfigError("init_window must lie in [1, len(series)]")
    prod = u1 * u2
    sigma = float(prod[:init_window].mean())
    forgetting = float(forgetting)
    keep = 1.0 - forgetting
    # a sequential recursion: Python floats step faster than numpy scalars
    return np.array(
        [sigma] + [sigma := keep * sigma + v for v in (forgetting * prod[:-1]).tolist()]
    )


@dataclass
class TvarxModel:
    """One fitted time-varying equation and its reconstruction."""

    target_index: int
    predictor_indices: list[int]
    dictionary: MultiwaveletDictionary
    rofr: RofrResult
    n_samples: int
    start_sample: int
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
    basis = _sampled_basis(dictionary.orders, dictionary.scale, n)
    bases = dictionary.bases_per_term
    series: dict[tuple[int, int], np.ndarray] = {}
    for index, coeff in zip(model.rofr.selected_indices, model.rofr.coefficients):
        slot, lag, _ = dictionary.candidates[index]
        chan = model.variables[slot]
        key = (chan, lag)
        if key not in series:
            series[key] = np.zeros(n)
        series[key] += coeff * basis[:, index % bases]
    return series


def fit_equations(signals: np.ndarray, equations, rofr: RofrConfig | None = None):
    """Fit several equations on one series in one ROFR search (``_search``).

    ``equations`` lists (target_index, predictor_indices, dictionary); the
    dictionaries must share orders, scale and maximum lag, so that every
    equation uses the same samples.  Their candidates are
    columns of one design matrix with one block per (channel, lag) that
    any equation uses, built once.  Returns one TvarxModel per equation.
    """
    rofr = rofr or RofrConfig()
    psi, targets, layout, start = _expand(signals, equations)
    results = _search(psi, targets, layout, rofr)
    n = start - 1 + psi.shape[0]
    models = []
    for (target, predictors, d), result in zip(equations, results):
        residuals = np.zeros(n)  # zero before start_sample
        residuals[start - 1 :] = result.residual
        model = TvarxModel(
            target_index=target,
            predictor_indices=list(predictors),
            dictionary=d,
            rofr=result,
            n_samples=n,
            start_sample=start,
            residuals=residuals,
        )
        model.timevarying_coefficients = reconstruct_coefficients(model)
        models.append(model)
    return models


def fit_tvarx(
    signals: np.ndarray,
    target_index: int,
    predictor_indices,
    dictionary: MultiwaveletDictionary,
    rofr: RofrConfig | None = None,
) -> TvarxModel:
    """Fit one equation: expand, select, solve, reconstruct."""
    return fit_equations(signals, [(target_index, predictor_indices, dictionary)], rofr)[0]
