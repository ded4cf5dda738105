"""Time-frequency conditional Granger causality between channel pairs.

Builds restricted (sink + conditioning block) and full (sink + source +
conditioning block) time-varying systems, decorrelates their residuals with
the zero-lag Geweke transforms, evaluates spectral coefficient and transfer
matrices on a time x frequency grid, and decomposes the sink-innovation
spectrum into an intrinsic part and the causal remainder.  Significance is
assessed with circular-shift surrogates of the source channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsplines import build_dictionary
from .identify import RofrConfig, TvarxModel, fit_tvarx, recursive_covariance

__all__ = [
    "CgcConfig",
    "CgcMap",
    "FittedSystem",
    "NormalizedSystem",
    "fit_system",
    "normalize_restricted",
    "normalize_full",
    "spectral_matrices",
    "combine_transfer",
    "conditional_causality",
    "tf_cgc_map",
    "significance_test",
]


class DegenerateVarianceError(RuntimeError):
    pass


class ConditioningError(RuntimeError):
    def __init__(self, msg, t=None, f=None):
        super().__init__(msg)
        self.t = t
        self.f = f


class DegenerateSpectrumError(RuntimeError):
    pass


class InvalidRangeError(ValueError):
    pass


class InvalidConfigurationError(ValueError):
    pass


class LevelUnachievableError(ValueError):
    pass


@dataclass(frozen=True)
class CgcConfig:
    """Identification and grid settings for one causality map."""

    orders: tuple[int, ...] = (3, 4, 5)
    scale: int = 3
    lags: int = 3
    rofr: RofrConfig = field(default_factory=RofrConfig)
    forgetting: float = 0.02
    init_window: int = 50
    freq_lo: float = 6.0
    freq_hi: float = 15.0
    freq_step: float = 0.1
    time_decimation: int = 1

    def freq_grid(self, sampling_rate: float) -> np.ndarray:
        if self.freq_hi <= self.freq_lo or self.freq_step <= 0:
            raise InvalidRangeError("frequency range must be non-empty")
        n_bins = int(round((self.freq_hi - self.freq_lo) / self.freq_step))
        if n_bins < 1:
            raise InvalidRangeError("frequency grid has zero bins")
        grid = self.freq_lo + self.freq_step * np.arange(n_bins)
        if grid[-1] > sampling_rate / 2:
            raise InvalidRangeError(
                f"grid reaches {grid[-1]} Hz, beyond Nyquist {sampling_rate / 2} Hz"
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

    kind: str  # "restricted", "full", or "raw" (identity zero-lag)
    zero_lag: np.ndarray  # (N, n, n) block lower-triangular, unit diagonal
    lag_coefficients: np.ndarray  # (N, K, n, n), zero_lag @ raw lag matrices
    noise_covariance: np.ndarray  # (N, n, n) transformed residual covariance

    @property
    def n_vars(self) -> int:
        return self.zero_lag.shape[1]


def fit_system(
    signals: np.ndarray, channel_indices, config: CgcConfig
) -> FittedSystem:
    """Fit every equation of the system spanned by ``channel_indices``."""
    channel_indices = list(channel_indices)
    n_vars = len(channel_indices)
    dictionary = build_dictionary(config.orders, config.scale, [config.lags] * n_vars)
    n = signals.shape[1]
    k_max = config.lags
    models = []
    lag_mats = np.zeros((n, k_max, n_vars, n_vars))
    for i, chan in enumerate(channel_indices):
        others = [c for c in channel_indices if c != chan]
        model = fit_tvarx(signals, chan, others, dictionary, config.rofr)
        models.append(model)
        for (c, k), series in model.timevarying_coefficients.items():
            v = channel_indices.index(c)
            lag_mats[:, k - 1, i, v] = series
    start = models[0].start_sample
    usable = slice(start - 1, n)
    cov = np.zeros((n, n_vars, n_vars))
    for i in range(n_vars):
        for j2 in range(i, n_vars):
            ri = models[i].residuals[usable]
            rj = models[j2].residuals[usable]
            w = min(config.init_window, ri.shape[0])
            trace = recursive_covariance(ri, rj, config.forgetting, w)
            cov[usable, i, j2] = trace
            cov[usable, j2, i] = trace
            cov[: start - 1, i, j2] = trace[0]
            cov[: start - 1, j2, i] = trace[0]
    return FittedSystem(channel_indices, models, lag_mats, cov, n, start)


def _apply_zero_lag(system: FittedSystem, zero_lag: np.ndarray, kind: str):
    lag = np.einsum("tij,tkjl->tkil", zero_lag, system.lag_matrices)
    cov = np.einsum("tij,tjk,tlk->til", zero_lag, system.residual_covariance, zero_lag)
    return NormalizedSystem(kind, zero_lag, lag, cov)


def normalize_restricted(system: FittedSystem) -> NormalizedSystem:
    """Zero-lag transform C(t): removes Z-block correlation with the sink."""
    cov = system.residual_covariance
    n, n_vars, _ = cov.shape
    sigma_xx = cov[:, 0, 0]
    if np.any(sigma_xx <= 0):
        t_bad = int(np.argmax(sigma_xx <= 0)) + 1
        raise DegenerateVarianceError(f"sink residual variance <= 0 at t={t_bad}")
    c = np.tile(np.eye(n_vars), (n, 1, 1))
    c[:, 1:, 0] = -cov[:, 1:, 0] / sigma_xx[:, None]
    return _apply_zero_lag(system, c, "restricted")


def _full_transform(cov: np.ndarray) -> np.ndarray:
    """D(t) = D2(t) D1(t) from the (N, n, n) residual covariance traces.

    D1 removes residual correlation of Y and the Z block with X; D2 removes
    the remaining Z-block correlation with Y via the conditional covariance.
    Within-Z-block correlation may remain.
    """
    n, n_vars, _ = cov.shape
    sigma_xx = cov[:, 0, 0]
    if np.any(sigma_xx <= 0):
        t_bad = int(np.argmax(sigma_xx <= 0)) + 1
        raise DegenerateVarianceError(f"sink residual variance <= 0 at t={t_bad}")
    d1 = np.tile(np.eye(n_vars), (n, 1, 1))
    d1[:, 1:, 0] = -cov[:, 1:, 0] / sigma_xx[:, None]
    # conditional (given X) covariances of (Y, Z)
    syy = cov[:, 1, 1] - cov[:, 1, 0] * cov[:, 0, 1] / sigma_xx
    if np.any(syy <= 0):
        t_bad = int(np.argmax(syy <= 0)) + 1
        raise DegenerateVarianceError(
            f"conditional source residual variance <= 0 at t={t_bad}"
        )
    szy = cov[:, 2:, 1] - cov[:, 2:, 0] * (cov[:, 0, 1] / sigma_xx)[:, None]
    d2 = np.tile(np.eye(n_vars), (n, 1, 1))
    d2[:, 2:, 1] = -szy / syy[:, None]
    return np.einsum("tij,tjk->tik", d2, d1)


def normalize_full(system: FittedSystem) -> NormalizedSystem:
    """Zero-lag transform D(t) = D2(t) D1(t) for the sink/source/Z system."""
    return _apply_zero_lag(
        system, _full_transform(system.residual_covariance), "full"
    )


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
    freqs = np.asarray(freqs, dtype=float)
    if np.any(freqs < 0) or np.any(freqs > sampling_rate / 2):
        raise InvalidRangeError("frequencies must lie in [0, f_s / 2]")
    zero_lag = system.zero_lag
    lag = system.lag_coefficients
    if time_indices is not None:
        zero_lag = zero_lag[time_indices]
        lag = lag[time_indices]
    k_ax = np.arange(1, lag.shape[1] + 1)
    phase = np.exp(-2j * np.pi * np.outer(k_ax, freqs) / sampling_rate)  # (K, F)
    out = np.einsum("tkij,kf->tfij", lag.astype(complex), -phase)
    out += zero_lag[:, None, :, :]
    return out


def _batched_inverse(mats: np.ndarray, what: str) -> np.ndarray:
    try:
        inv = np.linalg.inv(mats)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"singular {what} matrix on the grid") from exc
    resid = mats @ inv
    resid -= np.eye(mats.shape[-1])  # in place: the grid is the crop's largest array
    resid = np.abs(resid).max(axis=(-2, -1))
    if not np.all(np.isfinite(inv)) or resid.max() > 1e-8:
        t, f = np.unravel_index(int(np.nanargmax(resid)), resid.shape)
        raise ConditioningError(
            f"ill-conditioned {what} matrix at grid point (t={t}, f={f})", t=t, f=f
        )
    return inv


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
    return _causality_from_row(r_mat[:, :, 0, :], noise_cov)


def _causality_from_row(row: np.ndarray, noise_cov: np.ndarray) -> np.ndarray:
    """Same decomposition given only the sink row of the combined matrix."""
    sxx = noise_cov[:, 0, 0]
    if np.any(sxx <= 0):
        raise DegenerateSpectrumError("sink noise variance <= 0")
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
        raise DegenerateSpectrumError("intrinsic spectrum term <= 0 on the grid")
    vals = np.log(total / intrinsic)
    if np.any(vals < -1e-12):
        raise DegenerateSpectrumError("causality undershoot beyond tolerance")
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
    significance_mask: np.ndarray | None = None
    test_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.values.shape != (self.time_axis.size, self.freq_axis.size):
            raise InvalidRangeError("map value dimensions do not match axes")


def _raw_spectrum(
    system: FittedSystem,
    sampling_rate: float,
    freqs: np.ndarray,
    time_indices: np.ndarray,
) -> np.ndarray:
    """Abar(t, f) = I - sum_k a_k(t) exp(-i 2 pi f k / f_s) of a fitted system."""
    n, _, n_vars, _ = system.lag_matrices.shape
    raw = NormalizedSystem(
        "raw",
        np.broadcast_to(np.eye(n_vars), (n, n_vars, n_vars)),
        system.lag_matrices,
        system.residual_covariance,
    )
    return spectral_matrices(raw, sampling_rate, freqs, time_indices)


def _pair_values(
    full: FittedSystem,
    restricted_spectra,
    sampling_rate: float,
    freqs: np.ndarray,
    time_indices: np.ndarray,
):
    """Causality values of the directed pairs that share one full fit.

    ``restricted_spectra`` yields ``(source, channels, spectrum, sinks)``
    where ``channels`` are the full fit's channels without ``source`` and
    ``spectrum`` is the raw spectrum of the system fitted on them
    (``_raw_spectrum``), so a caller that reuses one restricted fit
    evaluates it once.  In the pair order ``[sink, source] + conditioning``
    (permutation P) the full system's normalized spectrum is
    B = D(t) P Abar P^T, and the restricted zero-lag transform has a unit
    first row.  The sink row of R = Ghat^-1 H is therefore
    v Abar^-1 P^T D(t)^-1, with v the sink row of the raw restricted
    spectrum placed in the full fit's channel order and 0 at the source.
    Abar is inverted once; each restricted spectrum serves all its sinks.

    Yields ``(source, sink, conditioning, values)``.
    """
    a_inv = _batched_inverse(
        _raw_spectrum(full, sampling_rate, freqs, time_indices), "coefficient"
    )
    slot = {c: i for i, c in enumerate(full.channel_indices)}
    for source, channels, spectrum, sinks in restricted_spectra:
        kept = [slot[c] for c in channels]
        for sink in sinks:
            conditioning = [c for c in channels if c != sink]
            order = np.array([slot[c] for c in [sink, source] + conditioning])
            v = np.zeros(a_inv.shape[:-1], dtype=complex)
            v[..., kept] = spectrum[:, :, channels.index(sink)]
            row = (v[..., None, :] @ a_inv)[..., 0, order]
            cov = full.residual_covariance[:, order[:, None], order]
            d = _full_transform(cov)[time_indices]
            row = (row[..., None, :] @ np.linalg.inv(d)[:, None])[..., 0, :]
            noise = d @ cov[time_indices] @ np.swapaxes(d, -1, -2)
            yield source, sink, conditioning, _causality_from_row(row, noise)


def pairwise_maps(
    signals: np.ndarray,
    channels,
    sampling_rate: float,
    config: CgcConfig | None = None,
) -> dict[tuple[int, int], CgcMap]:
    """All ordered-pair maps among ``channels``, conditioning on the rest.

    Fits one full system over all channels and, source by source, one
    restricted system without that source.  Every directed pair comes from
    the one inverse of the full fit's spectrum, so n channels cost
    n + n*(n-1) equation fits instead of refitting per pair.
    """
    config = config or CgcConfig()
    channels = list(channels)
    freqs = config.freq_grid(sampling_rate)
    n = signals.shape[1]
    time_axis = np.arange(1, n + 1, config.time_decimation)
    time_indices = time_axis - 1
    full = fit_system(signals, channels, config)

    def restricted_spectra():
        for src in channels:
            rest = [c for c in channels if c != src]
            restricted = fit_system(signals, rest, config)
            spectrum = _raw_spectrum(restricted, sampling_rate, freqs, time_indices)
            yield src, rest, spectrum, rest

    maps: dict[tuple[int, int], CgcMap] = {}
    for source, sink, conditioning, values in _pair_values(
        full, restricted_spectra(), sampling_rate, freqs, time_indices
    ):
        maps[(source, sink)] = CgcMap(
            source=source,
            sink=sink,
            conditioning=conditioning,
            time_axis=time_axis,
            freq_axis=freqs,
            values=values,
            sampling_rate=sampling_rate,
        )
    return maps


def tf_cgc_map(
    signals: np.ndarray,
    source: int,
    sink: int,
    conditioning,
    sampling_rate: float,
    config: CgcConfig | None = None,
) -> CgcMap:
    """Full map of causality from ``source`` to ``sink`` given ``conditioning``."""
    config = config or CgcConfig()
    conditioning = list(conditioning)
    if source == sink:
        raise InvalidConfigurationError("source and sink must differ")
    if source in conditioning or sink in conditioning:
        raise InvalidConfigurationError(
            "conditioning set must be disjoint from the directed pair"
        )
    freqs = config.freq_grid(sampling_rate)
    n = signals.shape[1]
    time_axis = np.arange(1, n + 1, config.time_decimation)
    time_indices = time_axis - 1
    kept = [sink] + conditioning
    restricted = fit_system(signals, kept, config)
    spectrum = _raw_spectrum(restricted, sampling_rate, freqs, time_indices)
    full = fit_system(signals, [sink, source] + conditioning, config)
    *_, values = next(
        _pair_values(
            full, [(source, kept, spectrum, [sink])], sampling_rate, freqs, time_indices
        )
    )
    return CgcMap(
        source=source,
        sink=sink,
        conditioning=conditioning,
        time_axis=time_axis,
        freq_axis=freqs,
        values=values,
        sampling_rate=sampling_rate,
    )


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
    quantile of the surrogate ensemble.  Returns the boolean mask and
    attaches it (with metadata) to the map.
    """
    config = config or CgcConfig()
    if n_surrogates < 1:
        raise InvalidConfigurationError("n_surrogates must be >= 1")
    if not (0.0 < level < 1.0):
        raise InvalidConfigurationError("level must lie in (0, 1)")
    if level < 1.0 / (n_surrogates + 1):
        raise LevelUnachievableError(
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
    # one fit and one spectrum serve every surrogate
    kept = [sink] + conditioning
    spectrum = _raw_spectrum(fit_system(signals, kept, config), fs, freqs, time_indices)
    restricted = [(source, kept, spectrum, [sink])]
    ensemble = np.empty((n_surrogates,) + cgc_map.values.shape)
    for s in range(n_surrogates):
        shift = int(rng.integers(min_shift, n - min_shift + 1))
        surr = signals.copy()
        surr[source] = np.roll(surr[source], shift)
        full = fit_system(surr, [sink, source] + conditioning, config)
        *_, ensemble[s] = next(
            _pair_values(full, restricted, fs, freqs, time_indices)
        )
    threshold = np.quantile(ensemble, 1.0 - level, axis=0, method="higher")
    mask = cgc_map.values > threshold
    cgc_map.significance_mask = mask
    cgc_map.test_meta = {
        "n_surrogates": n_surrogates,
        "level": level,
        "seed": seed,
        "mechanism": "circular-shift",
    }
    return mask
