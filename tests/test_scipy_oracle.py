"""The numpy filter, recursion and triangular solves against scipy.

scipy is a test-only dependency: the package computes these in numpy, and
these tests hold its results to the scipy routines they replace.
"""

import numpy as np
import pytest

from tfcgc import identify, pipeline
from tfcgc.identify import RofrConfig, fit_equations, recursive_covariance

signal = pytest.importorskip("scipy.signal")
lapack = pytest.importorskip("scipy.linalg.lapack")

#: (low, high, sampling rate): the paper's band, and bands near each edge
BANDS = [
    (6.0, 15.0, 250.0),
    (8.0, 30.0, 160.0),
    (0.5, 40.0, 1000.0),
    (1.0, 2.0, 512.0),
    (20.0, 49.0, 100.0),
    (6.0, 15.0, 31.0),
]


@pytest.mark.parametrize("low, high, fs", BANDS)
def test_butterworth_coefficients(low, high, fs):
    b, a = pipeline._butterworth_bandpass(low, high, fs)
    ref_b, ref_a = signal.butter(4, [low, high], btype="bandpass", fs=fs)
    np.testing.assert_array_equal(b, ref_b)
    np.testing.assert_array_equal(a, ref_a)


@pytest.mark.parametrize("low, high, fs", BANDS)
@pytest.mark.parametrize("samples", [28, 29, 500, 1001])
def test_bandpass_is_filtfilt(low, high, fs, samples):
    rng = np.random.default_rng(samples)
    trials = [
        pipeline.Trial(30.0 * rng.standard_normal((5, samples)), 1, f"t{i}")
        for i in range(4)
    ]
    # a trial of another length is filtered in its own stack
    trials.insert(2, pipeline.Trial(rng.standard_normal((5, samples + 3)), -1, "odd"))
    out = pipeline.bandpass(pipeline.TrialSet(trials, tuple("ABCDE"), fs), low, high)
    b, a = signal.butter(4, [low, high], btype="bandpass", fs=fs)
    for trial, filtered in zip(trials, out.trials):
        assert filtered.trial_id == trial.trial_id
        np.testing.assert_array_equal(
            filtered.data, signal.filtfilt(b, a, trial.data, axis=-1)
        )


@pytest.mark.parametrize("samples", [2, 3, 500])
@pytest.mark.parametrize("forgetting, init_window", [(0.02, 1), (0.3, 2), (0.999, 2)])
def test_recursive_covariance_is_lfilter(samples, forgetting, init_window):
    rng = np.random.default_rng(samples)
    scale = 10.0 ** rng.uniform(-4, 4, (2, samples))
    u1, u2 = scale * rng.standard_normal((2, samples))
    prod = u1 * u2
    sigma0 = prod[:init_window].mean()
    z = forgetting
    tail, _ = signal.lfilter([z], [1.0, z - 1.0], prod[:-1], zi=[(1.0 - z) * sigma0])
    np.testing.assert_array_equal(
        recursive_covariance(u1, u2, forgetting, init_window),
        np.concatenate(([sigma0], tail)),
    )


def dtrtrs_solve(phi, target, triangular, norms, projections):
    """``solve_parameters`` as LAPACK's unit-triangular solves compute it."""
    pi = lapack.dtrtrs(triangular, projections / norms, unitdiag=1)[0]
    gradient = phi.T @ (target - phi @ pi)
    step = lapack.dtrtrs(triangular, gradient, trans=1, unitdiag=1)[0]
    pi += lapack.dtrtrs(triangular, step / norms, unitdiag=1)[0]
    return pi, target - phi @ pi


def test_solve_parameters_matches_dtrtrs(monkeypatch):
    """Every solve of two crops' searches, at the paper's and at the
    criterion-15 dictionary: the same coefficients and residual, up to a
    relative 1e-13 (a row exchange in the LU of V^T may round the
    correction step differently from LAPACK's transposed solve)."""
    calls = []
    real = identify.solve_parameters

    def recording(*args):
        calls.append([np.array(a) for a in args])
        return real(*args)

    monkeypatch.setattr(identify, "solve_parameters", recording)
    spec = pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0)
    crop = pipeline.bandpass(pipeline.synth_generate(spec, seed=4), 6.0, 15.0).trials[0]
    for orders, scale in [((3, 4, 5), 3), ((3,), 3)]:
        lags = [2] * 5
        dictionary = identify.build_dictionary(orders, scale, lags)
        equations = [(c, [p for p in range(5) if p != c], dictionary) for c in range(5)]
        fit_equations(crop.data, equations, RofrConfig())
    assert len(calls) == 10
    for args in calls:
        pi, residual = real(*[a.copy() for a in args])
        ref_pi, ref_residual = dtrtrs_solve(*[a.copy() for a in args])
        assert np.abs(pi - ref_pi).max() <= 1e-13 * np.abs(ref_pi).max()
        assert np.abs(residual - ref_residual).max() <= 1e-13 * np.abs(ref_residual).max()
