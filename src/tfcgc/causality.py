"""Time-frequency conditional Granger causality between channel pairs.

Builds restricted (sink + conditioning block) and full (sink + source +
conditioning block) time-varying systems, decorrelates their residuals with
the zero-lag Geweke transforms, evaluates spectral coefficient and transfer
matrices on a time x frequency grid, and decomposes the sink-innovation
spectrum into an intrinsic part and the causal remainder.  Significance is
assessed with circular-shift surrogates of the source channel.

Every map comes from one kernel, ``_pair_values``, that applies neither
normalization explicitly (Geweke 1984; Chen, Bressler & Ding 2006): with
w = v Abar^-1 (v the restricted sink row, Abar the full fit's raw
spectrum) and Sigma the full fit's residual covariance, the sink spectrum
is w Sigma w^H, its intrinsic part |w Sigma[:, k]|^2 / Sigma_kk, and the
causal rest w Sigma_{.|k} w^H.  Per block of grid times, one stacked
spectrum holds Abar and every pair's v, and one product with Abar^-1
gives every w and the Abar Abar^-1 conditioning test.  ``normalize_*``,
``combine_transfer`` and ``conditional_causality`` spell the same values
out the long way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .bsplines import LAGS, ORDERS, SCALES, build_dictionary
from .errors import ConfigError, DataError, NumericError, Range, check_ranges, ranged
from .identify import (
    FORGETTING, RofrConfig, TvarxModel, fit_equations, recursive_covariance
)

#: the paper's analysis band in Hz: the grid runs from FREQ_LO to below FREQ_HI
FREQ_LO = 6.0
FREQ_HI = 15.0


@dataclass(frozen=True)
class CgcConfig:
    """Identification and grid settings for one causality map; a setting
    outside its range is refused when the config is built."""

    orders: tuple[int, ...] = ranged((3, 4, 5), ORDERS)
    scale: int = ranged(3, SCALES)
    lags: int = ranged(3, LAGS)
    rofr: RofrConfig = field(default_factory=RofrConfig)
    forgetting: float = ranged(0.02, FORGETTING)
    init_window: int = ranged(50, Range(1))
    freq_step: float = 0.1
    time_decimation: int = ranged(1, Range(1))

    def __post_init__(self):
        check_ranges(self)

    def freq_grid(self, sampling_rate: float) -> np.ndarray:
        if not 0 < sampling_rate < np.inf:  # NaN too
            raise DataError(
                f"sampling rate must be finite and positive, got {sampling_rate:g}"
            )
        if self.freq_step <= 0:
            raise DataError("frequency step must be positive")
        n_bins = int(round((FREQ_HI - FREQ_LO) / self.freq_step))
        if n_bins < 1:
            raise DataError("frequency grid has zero bins")
        grid = FREQ_LO + self.freq_step * np.arange(n_bins)
        if grid[-1] > sampling_rate / 2:
            raise DataError(
                f"data sampled at {sampling_rate:g} Hz is too slow for the causality "
                f"grid: grid reaches {grid[-1]:g} Hz, beyond Nyquist {sampling_rate / 2:g} Hz"
            )
        return grid


@dataclass
class FittedSystem:
    """All equations of one multivariate time-varying system."""

    channel_indices: list[int]  # global channel ids, system order
    models: list[TvarxModel]  # one per equation, same order
    lag_matrices: np.ndarray  # (N, K, n, n) raw a_{iv,k}(t)
    residual_covariance: np.ndarray  # (N, n, n) recursive traces
    n_samples: int
    start_sample: int


@dataclass
class NormalizedSystem:
    """Geweke-normalized system ready for spectral evaluation."""

    zero_lag: np.ndarray  # (N, n, n) block lower-triangular, unit diagonal
    lag_coefficients: np.ndarray  # (N, K, n, n), zero_lag @ raw lag matrices
    noise_covariance: np.ndarray  # (N, n, n) transformed residual covariance


def fit_system(
    signals: np.ndarray, channel_indices, config: CgcConfig
) -> FittedSystem:
    """Fit every equation of the system spanned by ``channel_indices``, all
    in one ROFR search."""
    channels = list(channel_indices)
    (models,) = _fit_models(signals, [channels], config)
    return _assemble_system(channels, models, config)


def _fit_models(signals: np.ndarray, systems, config: CgcConfig, targets=None):
    """The fitted equations of each system (a list of channels), one model
    per target channel (by default every channel of the system), from one
    ROFR search."""
    targets = systems if targets is None else targets
    equations = []
    for channels, fitted in zip(systems, targets):
        lags = [config.lags] * len(channels)
        dictionary = build_dictionary(config.orders, config.scale, lags)
        equations += [(c, [p for p in channels if p != c], dictionary) for c in fitted]
    models = iter(fit_equations(signals, equations, config.rofr))
    return [[next(models) for _ in fitted] for fitted in targets]


def _lag_matrices(channel_indices, models, n_lags: int) -> np.ndarray:
    """(N, K, equations, n) raw lag rows of a system's fitted equations."""
    n_vars = len(channel_indices)
    lag_mats = np.zeros((models[0].n_samples, n_lags, len(models), n_vars))
    for i, model in enumerate(models):
        for (c, k), series in model.timevarying_coefficients.items():
            lag_mats[:, k - 1, i, channel_indices.index(c)] = series
    return lag_mats


def _assemble_system(channel_indices, models, config: CgcConfig) -> FittedSystem:
    """Raw lag matrices and recursive residual covariances of fitted equations."""
    n_vars = len(channel_indices)
    n = models[0].n_samples
    start = models[0].start_sample
    usable = slice(start - 1, n)
    cov = np.zeros((n, n_vars, n_vars))
    for i, j2 in combinations_with_replacement(range(n_vars), 2):
        ri = models[i].residuals[usable]
        rj = models[j2].residuals[usable]
        w = min(config.init_window, ri.shape[0])
        trace = recursive_covariance(ri, rj, config.forgetting, w)
        cov[usable, i, j2] = cov[usable, j2, i] = trace
        cov[: start - 1, i, j2] = cov[: start - 1, j2, i] = trace[0]
    lag_mats = _lag_matrices(channel_indices, models, config.lags)
    return FittedSystem(channel_indices, models, lag_mats, cov, n, start)


def _apply_zero_lag(system: FittedSystem, zero_lag: np.ndarray):
    lag = np.einsum("tij,tkjl->tkil", zero_lag, system.lag_matrices)
    cov = np.einsum("tij,tjk,tlk->til", zero_lag, system.residual_covariance, zero_lag)
    return NormalizedSystem(zero_lag, lag, cov)


def _sink_decorrelation(cov: np.ndarray) -> np.ndarray:
    """The (N, n, n) zero-lag transform that removes every other residual's
    correlation with the sink's (channel 0) in the (N, n, n) ``cov``: C(t)
    of the restricted system, D1(t) of the full one."""
    n, n_vars, _ = cov.shape
    sigma_xx = cov[:, 0, 0]
    if np.any(sigma_xx <= 0):
        t_bad = int(np.argmax(sigma_xx <= 0)) + 1
        raise NumericError(f"sink residual variance <= 0 at t={t_bad}")
    c = np.tile(np.eye(n_vars), (n, 1, 1))
    c[:, 1:, 0] = -cov[:, 1:, 0] / sigma_xx[:, None]
    return c


def normalize_restricted(system: FittedSystem) -> NormalizedSystem:
    """Zero-lag transform C(t): removes Z-block correlation with the sink."""
    return _apply_zero_lag(system, _sink_decorrelation(system.residual_covariance))


def normalize_full(system: FittedSystem) -> NormalizedSystem:
    """Zero-lag transform D(t) = D2(t) D1(t) for the sink/source/Z system.

    D1 removes residual correlation of Y and the Z block with X; D2 removes
    the remaining Z-block correlation with Y via the conditional covariance.
    Within-Z-block correlation may remain.
    """
    cov = system.residual_covariance
    n, n_vars, _ = cov.shape
    sigma_xx = cov[:, 0, 0]
    d1 = _sink_decorrelation(cov)
    # conditional (given X) covariances of (Y, Z)
    syy = cov[:, 1, 1] - cov[:, 1, 0] * cov[:, 0, 1] / sigma_xx
    if np.any(syy <= 0):
        t_bad = int(np.argmax(syy <= 0)) + 1
        raise NumericError(
            f"conditional source residual variance <= 0 at t={t_bad}"
        )
    szy = cov[:, 2:, 1] - cov[:, 2:, 0] * (cov[:, 0, 1] / sigma_xx)[:, None]
    d2 = np.tile(np.eye(n_vars), (n, 1, 1))
    d2[:, 2:, 1] = -szy / syy[:, None]
    return _apply_zero_lag(system, np.einsum("tij,tjk->tik", d2, d1))


def spectral_matrices(
    system: NormalizedSystem,
    sampling_rate: float,
    freqs: np.ndarray,
    time_indices: np.ndarray | None = None,
) -> np.ndarray:
    """Coefficient matrices on the (t, f) grid, shape (T, F, n, n) complex.

    The zero-lag term is the normalization matrix; lag k contributes
    ``-lag_coefficients[t, k] * exp(-i 2 pi k f / f_s)``.
    """
    zero_lag, lag = system.zero_lag, system.lag_coefficients
    if time_indices is not None:
        zero_lag, lag = zero_lag[time_indices], lag[time_indices]
    return _spectrum(zero_lag, lag, sampling_rate, freqs)


def _spectrum(zero_lag, lags, sampling_rate: float, freqs, out=None) -> np.ndarray:
    """(T, F, r, n) complex zero_lag - sum_k lags[:, k] e^{-i 2 pi k f / f_s}
    of (T, K, r, n) ``lags`` and a (T or 1, r, n) ``zero_lag``, as two real
    (F, K) @ (K, r*n) products per time (cos, sin), so each time's values
    are the same whatever the other times of the call.  The products are
    written straight into the real and imaginary parts of ``out`` (a new
    array if None), which is returned."""
    freqs = np.asarray(freqs, dtype=float)
    if np.any(freqs < 0) or np.any(freqs > sampling_rate / 2):
        raise DataError("frequencies must lie in [0, f_s / 2]")
    n_times, n_lags = lags.shape[:2]
    angle = 2 * np.pi * np.outer(freqs, np.arange(1, n_lags + 1)) / sampling_rate
    lags = lags.reshape(n_times, n_lags, -1)
    if out is None:
        out = np.empty((n_times, freqs.size) + zero_lag.shape[1:], dtype=complex)
    flat = (n_times, freqs.size, -1)
    np.matmul(np.cos(angle), lags, out=out.real.reshape(flat))
    np.subtract(zero_lag[:, None], out.real, out=out.real)
    np.matmul(np.sin(angle), lags, out=out.imag.reshape(flat))
    return out


def _times_inverse(rows, n: int, what: str, t0: int = 0, out=None) -> np.ndarray:
    """The rows after the first n of ``rows @ M^-1``, M = ``rows[..., :n, :]``,
    a view of the product written into ``out`` (a new array if None).

    The first n rows, M M^-1, must lie within 1e-8 of I: the one
    conditioning test of every inverse.  ``t0`` is the grid time of
    ``rows[0]``."""
    try:
        inv = np.linalg.inv(rows[..., :n, :])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular {what} matrix on the grid") from exc
    prod = np.matmul(rows, inv, out=out)
    resid = prod[..., :n, :]
    resid -= np.eye(n)
    resid = np.abs(resid).max(axis=(-2, -1))
    if not np.all(np.isfinite(inv)) or not resid.max() <= 1e-8:
        # argmax takes the first NaN cell if there is one, else the worst
        t, f = np.unravel_index(int(np.argmax(resid)), resid.shape)
        raise NumericError(
            f"ill-conditioned {what} matrix at grid point (t={t + t0}, f={f})"
        )
    return prod[..., n:, :]


def _batched_inverse(mats: np.ndarray, what: str) -> np.ndarray:
    """Inverse of each (t, f) matrix M: the rows I stacked below M give I M^-1."""
    eye = np.broadcast_to(np.eye(mats.shape[-1]), mats.shape)
    return _times_inverse(np.concatenate([mats, eye], axis=-2), mats.shape[-1], what)


def combine_transfer(
    g_restricted: np.ndarray, h_full: np.ndarray
) -> np.ndarray:
    """R = Ghat^-1 H with the restricted transfer embedded around the source.

    ``g_restricted`` is (..., 1+m, 1+m), ``h_full`` (..., 2+m, 2+m); the
    embedding inserts an identity row/column at the source slot (index 1).
    """
    m_full = h_full.shape[-1]
    g_emb = np.zeros(h_full.shape[:-2] + (m_full, m_full), dtype=complex)
    keep = np.array([0] + list(range(2, m_full)))
    g_emb[..., 1, 1] = 1.0
    g_emb[..., keep[:, None], keep[None, :]] = g_restricted
    g_emb_inv = _batched_inverse(g_emb, "embedded restricted transfer")
    return g_emb_inv @ h_full


def conditional_causality(
    r_mat: np.ndarray, noise_cov: np.ndarray
) -> np.ndarray:
    """Causality values from the combined matrix and full-system noise.

    ``r_mat`` is (T, F, 2+m, 2+m); ``noise_cov`` (T, 2+m, 2+m).  The sink
    innovation spectrum splits into intrinsic, source, and conditioning
    parts; the value is the log ratio of total to intrinsic, clamped at 0.
    """
    row = r_mat[:, :, 0, :]
    sxx = noise_cov[:, 0, 0]
    if np.any(sxx <= 0):
        raise NumericError("sink noise variance <= 0")
    syy = noise_cov[:, 1, 1]
    szz = noise_cov[:, 2:, 2:]
    rxx = row[:, :, 0]
    rxy = row[:, :, 1]
    rxz = row[:, :, 2:]
    intrinsic = np.abs(rxx) ** 2 * sxx[:, None]
    source_part = np.abs(rxy) ** 2 * syy[:, None]
    cond_part = np.einsum(
        "tfi,tij,tfj->tf", rxz, szz.astype(complex), rxz.conj()
    ).real
    total = intrinsic + source_part + np.maximum(cond_part, 0.0)
    if np.any(intrinsic <= 0):
        raise NumericError("intrinsic spectrum term <= 0 on the grid")
    vals = np.log(total / intrinsic)
    if np.any(vals < -1e-12):
        raise NumericError("causality undershoot beyond tolerance")
    return np.maximum(vals, 0.0)


@dataclass
class CgcMap:
    source: int
    sink: int
    conditioning: list[int]
    time_axis: np.ndarray  # 1-based sample indices
    freq_axis: np.ndarray  # Hz
    values: np.ndarray  # (T, F), >= 0
    sampling_rate: float

    def __post_init__(self):
        if self.values.shape != (self.time_axis.size, self.freq_axis.size):
            raise DataError("map value dimensions do not match axes")


# bytes of each block buffer of `_pair_values`.  A call makes its stacked
# spectrum and that spectrum's product with Abar^-1, each (times, F,
# n + pairs, n) complex, once, and every block writes into them.  The
# budget is 10 times of an image crop's 5 + 14 rows on a 90-frequency
# grid, under 2 MB, so the two can stay in a core's L2 cache: larger
# blocks ran slower and smaller ones no faster (timings in CHANGES.md).
_BLOCK_BYTES = 10 * 90 * 19 * 5 * 16


def peak_bound(n_samples: int) -> float:
    """(float max)^(1/4) / sqrt(n_samples): a second moment of n_samples
    samples (a Gram entry, a covariance) reaches n_samples x^2 at peak
    |sample| x, and the search and the pair kernel multiply two of them."""
    return np.finfo(float).max ** 0.25 / np.sqrt(n_samples)


def _first_sample(bad: np.ndarray, time_indices: np.ndarray) -> int:
    """1-based sample of the first grid time at which ``bad`` holds."""
    return int(time_indices[np.nonzero(bad)[0][0]]) + 1


def _pair_values(
    full: FittedSystem,
    restricted,
    sampling_rate: float,
    freqs: np.ndarray,
    time_indices: np.ndarray,
) -> np.ndarray:
    """Causality values of the directed pairs that share one full fit.

    ``restricted`` lists ``(source, sinks, lags)``: ``lags[:, :, i]`` is
    the (N, K, n - 1) raw lag row of ``sinks[i]`` in the system fitted on
    the full fit's channels without ``source``, in the full fit's order.
    Returns (pairs, T, F) values at ``time_indices``, pairs in the order
    of ``restricted`` and of each item's ``sinks``; errors name the cell
    of this grid.

    In the pair order [sink k, source j] + conditioning the normalized
    full spectrum is B = D(t) P Abar P^T, and the restricted zero-lag
    transform has a unit first row.  The sink row of R = Ghat^-1 H is
    therefore r = w P^T D(t)^-1 with w = v Abar^-1, where v is the sink
    row of the raw restricted spectrum in the full fit's channel order,
    0 at j.  D(t) has a unit first row and D Sigma D^T is block-diagonal
    over {k}, {j} and the conditioning block (Sigma: the full fit's
    residual covariance), so the sink spectrum splits without D:

    - total = r D Sigma D^T r^H = w Sigma w^H;
    - intrinsic = |r_0|^2 Sigma_kk = |w Sigma[:, k]|^2 / Sigma_kk;
    - total - intrinsic = q = w Sigma_{.|k} w^H, where
      Sigma_{.|k} = Sigma - Sigma[:, k] Sigma[k, :] / Sigma_kk is the PSD
      covariance given the sink: q >= 0 up to rounding;
    - value = log(total / intrinsic) = log1p(q / intrinsic).

    Per block of grid times, the block's full lag matrices and every sink
    row are stacked into one real (times, K, n + pairs, n) array; its
    spectrum holds Abar and every v.  The spectrum and its product with
    Abar^-1 go into two buffers, made once per call, of as many times as
    fit ``_BLOCK_BYTES`` (one at least); the last partial block uses a
    leading slice of each.
    """
    slot = {c: i for i, c in enumerate(full.channel_indices)}
    n = len(slot)
    pairs = [(source, sink) for source, sinks, _ in restricted for sink in sinks]
    k = np.array([slot[sink] for _, sink in pairs])
    j = np.array([slot[source] for source, _ in pairs])
    # the stack's zero-lag term: I over Abar, a 1 at each sink of a v row
    zero_lag = np.eye(n)[np.concatenate([np.arange(n), k])][None]
    # each item's rows of the stack and the columns its lag rows fill
    places, row = [], n
    for source, sinks, lags in restricted:
        columns = np.delete(np.arange(n), slot[source])
        places.append((slice(row, row + len(sinks)), columns, lags))
        row += len(sinks)
    values = np.empty((len(pairs), time_indices.size, len(freqs)))
    times = max(1, _BLOCK_BYTES // (16 * len(freqs) * (n + k.size) * n))
    size = (min(times, time_indices.size), len(freqs), n + k.size, n)
    spectrum, product = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    for t0 in range(0, time_indices.size, times):
        block = time_indices[t0 : t0 + times]
        rows = np.zeros(block.shape + full.lag_matrices.shape[1:2] + (n + k.size, n))
        rows[:, :, :n] = full.lag_matrices[block]
        for at, columns, lags in places:
            rows[:, :, at, columns] = lags[block]
        spec = _spectrum(zero_lag, rows, sampling_rate, freqs, spectrum[: block.size])
        w = _times_inverse(spec, n, "coefficient", t0, product[: block.size])
        values[:, t0 : t0 + times] = _block_values(
            full.residual_covariance[block], w, k, j, block
        )
    return values


def _block_values(cov, w, k, j, block):
    """(pairs, T, F) values of a block: (T, n, n) ``cov``, (T, F, pairs, n) ``w``."""
    each = np.arange(k.size)
    sigma_k = cov[:, k]  # (T, pairs, n): Sigma[k, :] of each pair's sink
    s_kk = sigma_k[:, each, k]
    if np.any(s_kk <= 0):
        raise NumericError(
            f"sink residual variance <= 0 at t={_first_sample(s_kk <= 0, block)}"
        )
    # Sigma_{.|k} per pair, its sink row and column exactly 0, so a pair
    # whose w lies on the sink alone gives q = 0 exactly
    outer = sigma_k[..., :, None] * sigma_k[..., None, :]
    cond = cov[:, None] - outer / s_kk[..., None, None]
    cond[:, each, k, :] = 0.0
    cond[:, each, :, k] = 0.0
    s_jj = cond[:, each, j, j]
    if np.any(s_jj <= 0):
        raise NumericError(
            "conditional source residual variance <= 0 at "
            f"t={_first_sample(s_jj <= 0, block)}"
        )
    # one product per (t, pair) gives w Sigma[:, k] and w Sigma_{.|k}
    w = np.swapaxes(w, 1, 2)  # (T, pairs, F, n)
    z = w @ np.concatenate([sigma_k[..., None], cond], axis=-1)
    intrinsic = (z[..., 0].real ** 2 + z[..., 0].imag ** 2) / s_kk[..., None]
    if np.any(intrinsic <= 0):
        raise NumericError("intrinsic spectrum term <= 0 on the grid")
    # q = Re(w Sigma_{.|k} w^H), a real dot product over (re, im) parts
    q = np.einsum("...i,...i->...", z[..., 1:].view(float), w.view(float))
    if np.any(q < -1e-12 * (intrinsic + q)):
        raise NumericError("causal spectrum term < 0 beyond rounding")
    return np.swapaxes(np.log1p(np.maximum(q, 0.0) / intrinsic), 0, 1)


def pairwise_maps(
    signals: np.ndarray,
    channels,
    sampling_rate: float,
    config: CgcConfig | None = None,
    pairs=None,
) -> dict[tuple[int, int], CgcMap]:
    """Maps of the ordered ``(source, sink)`` ``pairs`` among ``channels``
    (default: every ordered pair), each conditioning on the other channels.

    Fits one full system over all channels and, per source, the
    restricted system without that source at its requested sinks only,
    so n channels and all pairs cost n + n*(n-1) equation fits instead of
    refitting per pair, all in one ROFR search.  The pairs are then
    evaluated together by one ``_pair_values`` call.

    Signals whose largest |sample| reaches ``peak_bound`` of their length
    are refused before any fit.
    """
    config = config or CgcConfig()
    channels = list(channels)
    repeated = sorted({c for c in channels if channels.count(c) > 1})
    if repeated:
        raise ConfigError(f"channels {channels} repeat {repeated}")
    every = {(s, k) for s in channels for k in channels if k != s}
    wanted = every if pairs is None else set(map(tuple, pairs))
    if not wanted <= every:
        raise ConfigError(
            f"pairs {sorted(wanted - every)} must join two different channels "
            f"of {channels}"
        )
    freqs = config.freq_grid(sampling_rate)
    n = signals.shape[1]
    peak, bound = np.abs(signals[channels]).max(), peak_bound(n)
    if not peak < bound:  # NaN too
        raise DataError(
            f"largest |sample| {peak:.3g} is not below {bound:.3g}, where "
            f"products of {n}-sample second moments overflow"
        )
    time_axis = np.arange(1, n + 1, config.time_decimation)
    time_indices = time_axis - 1
    sinks = {src: [k for k in channels if (src, k) in wanted] for src in channels}
    sources = [src for src in channels if sinks[src]]
    rests = [[c for c in channels if c != src] for src in sources]
    full_models, *rest_models = _fit_models(
        signals, [channels] + rests, config, [channels] + [sinks[s] for s in sources]
    )
    full = _assemble_system(channels, full_models, config)
    # only the restricted sink rows: nothing reads their covariances
    lags = [_lag_matrices(r, m, config.lags) for r, m in zip(rests, rest_models)]
    del rest_models
    restricted = [(src, sinks[src], lag) for src, lag in zip(sources, lags)]
    pairs = [(src, sink) for src in sources for sink in sinks[src]]
    values = _pair_values(full, restricted, sampling_rate, freqs, time_indices)
    return {
        (source, sink): CgcMap(
            source=source,
            sink=sink,
            conditioning=[c for c in channels if c not in (source, sink)],
            time_axis=time_axis,
            freq_axis=freqs,
            values=pair_values,
            sampling_rate=sampling_rate,
        )
        for (source, sink), pair_values in zip(pairs, values)
    }


def tf_cgc_map(
    signals: np.ndarray,
    source: int,
    sink: int,
    conditioning,
    sampling_rate: float,
    config: CgcConfig | None = None,
) -> CgcMap:
    """Full map of causality from ``source`` to ``sink`` given ``conditioning``:
    ``pairwise_maps`` of that one pair over ``[sink, source] + conditioning``."""
    channels = [sink, source] + list(conditioning)
    maps = pairwise_maps(signals, channels, sampling_rate, config, [(source, sink)])
    return maps[(source, sink)]


def significance_test(
    cgc_map: CgcMap,
    signals: np.ndarray,
    config: CgcConfig | None = None,
    n_surrogates: int = 200,
    level: float = 0.01,
    seed: int = 0,
) -> np.ndarray:
    """Surrogate mask: circular time-shifts of the source channel.

    Each surrogate shifts the source by at least 0.1 N samples, recomputes
    the map, and the per-cell threshold is the empirical (1 - level)
    quantile of the surrogate ensemble.  Returns the boolean mask.
    """
    config = config or CgcConfig()
    if n_surrogates < 1:
        raise ConfigError("n_surrogates must be >= 1")
    if not (0.0 < level < 1.0):
        raise ConfigError("level must lie in (0, 1)")
    if level < 1.0 / (n_surrogates + 1):
        raise ConfigError(
            f"level {level} finer than 1/(n_surrogates+1) = "
            f"{1.0 / (n_surrogates + 1):.2e}"
        )
    n = signals.shape[1]
    min_shift = int(np.ceil(0.1 * n))
    rng = np.random.default_rng(seed)
    source, sink = cgc_map.source, cgc_map.sink
    conditioning = cgc_map.conditioning
    time_indices = cgc_map.time_axis - 1
    fs, freqs = cgc_map.sampling_rate, cgc_map.freq_axis
    # the restricted system excludes the source, so no shift changes it:
    # one fit of its sink equation serves every surrogate
    kept = [sink] + conditioning
    (models,) = _fit_models(signals, [kept], config, [[sink]])
    lags = _lag_matrices(kept, models, config.lags)
    restricted = [(source, [sink], lags)]
    ensemble = np.empty((n_surrogates,) + cgc_map.values.shape)
    for s in range(n_surrogates):
        shift = int(rng.integers(min_shift, n - min_shift + 1))
        surr = signals.copy()
        surr[source] = np.roll(surr[source], shift)
        full = fit_system(surr, [sink, source] + conditioning, config)
        ensemble[s] = _pair_values(full, restricted, fs, freqs, time_indices)[0]
    threshold = np.quantile(ensemble, 1.0 - level, axis=0, method="higher")
    return cgc_map.values > threshold
