"""Causality images for the classifier.

Per-pair causality maps for one crop are reduced to per-electrode
difference representations, stacked electrode-major, down-sampled in
frequency by block averaging, and stored as a single grayscale-style
real matrix (frequency-location rows by time columns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError
from .gridio import atomic_write

ELECTRODE_ORDER = ("Fz", "C3", "Cz", "C4", "Pz")

#: Signed map differences defining each electrode's representation.
#: Each entry is (sign, source, sink) of a directed causality map.
_REPRESENTATIONS = {
    "Fz": (
        (+1, "C3", "Fz"),
        (-1, "Fz", "C3"),
        (-1, "C4", "Fz"),
        (+1, "Fz", "C4"),
    ),
    "C3": ((+1, "C3", "C4"), (-1, "C4", "C3")),
    "Cz": (
        (+1, "C3", "Cz"),
        (-1, "Cz", "C3"),
        (-1, "C4", "Cz"),
        (+1, "Cz", "C4"),
    ),
    "C4": ((+1, "C4", "C3"), (-1, "C3", "C4")),
    "Pz": (
        (+1, "C3", "Pz"),
        (-1, "Pz", "C3"),
        (-1, "C4", "Pz"),
        (+1, "Pz", "C4"),
    ),
}

#: The (source, sink) maps the representations read, in first-use order.
IMAGE_PAIRS = tuple(
    dict.fromkeys((s, k) for terms in _REPRESENTATIONS.values() for _, s, k in terms)
)

_DOWNSAMPLE_BLOCK = 5


@dataclass(frozen=True)
class Crop:
    """One fixed-length window of a trial (1-based start sample)."""

    trial_id: str
    start_sample: int
    length_samples: int
    label: int | None = None

    def extract(self, trial: np.ndarray) -> np.ndarray:
        """Slice a (channels, samples) trial to this crop's window."""
        trial = np.asarray(trial)
        lo = self.start_sample - 1
        hi = lo + self.length_samples
        if hi > trial.shape[-1]:
            raise DataError(
                f"crop [{self.start_sample}, {hi}] exceeds trial length "
                f"{trial.shape[-1]}"
            )
        return trial[..., lo:hi]


@dataclass(frozen=True)
class CausalityImage:
    """Assembled classifier input: 90 frequency-location rows by time cols."""

    values: np.ndarray
    electrode_order: tuple[str, ...] = ELECTRODE_ORDER

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise DataError("image values must be a 2-d matrix")
        if not np.all(np.isfinite(vals)):
            raise DataError("image values must be finite")
        object.__setattr__(self, "values", vals)


def crop_trial(
    trial: np.ndarray,
    sampling_rate: float,
    crop_seconds: float = 2.0,
    stride_seconds: float = 0.5,
    trial_id: str = "trial",
    label: int | None = None,
) -> list[Crop]:
    """Slide a fixed window over a (channels, samples) trial.

    Crops start at samples 1, 1+S, 1+2S, ... (1-based) while they fit,
    with S the stride and the window length both in whole samples.
    """
    n = np.shape(trial)[-1]
    length_f = sampling_rate * crop_seconds
    stride_f = sampling_rate * stride_seconds
    if not np.isfinite((length_f, stride_f)).all():
        raise DataError(
            f"crop_seconds {crop_seconds:g} and stride_seconds {stride_seconds:g} "
            f"must each span a finite number of samples at {sampling_rate:g} Hz"
        )
    if abs(length_f - round(length_f)) > 1e-9 or abs(stride_f - round(stride_f)) > 1e-9:
        raise DataError(
            f"crop ({crop_seconds:g} s) and stride ({stride_seconds:g} s) must "
            f"span whole samples at {sampling_rate:g} Hz"
        )
    length = int(round(length_f))
    stride = int(round(stride_f))
    if length <= 0 or stride <= 0:
        raise DataError("crop and stride must be positive")
    if length > n:
        raise DataError(
            f"trial {trial_id}: crop of {length} samples exceeds trial of {n}"
        )
    return [
        Crop(trial_id, start, length, label)
        for start in range(1, n - length + 2, stride)
    ]


def electrode_representation(
    maps: Mapping[tuple[str, str], np.ndarray], electrode: str
) -> np.ndarray:
    """Signed combination of directed maps for one electrode.

    ``maps`` is keyed by (source, sink) electrode names; values are (t, F)
    arrays on identical grids.
    """
    if electrode not in _REPRESENTATIONS:
        raise DataError(f"unknown electrode {electrode!r}")
    total = None
    for sign, source, sink in _REPRESENTATIONS[electrode]:
        if (source, sink) not in maps:
            raise DataError(f"missing map {source}->{sink}")
        vals = maps[(source, sink)]
        if total is None:
            total = sign * vals
        else:
            if vals.shape != total.shape:
                raise DataError(
                    f"map {source}->{sink} has shape {vals.shape}, "
                    f"expected {total.shape}"
                )
            total = total + sign * vals
    return total


def assemble_image(
    representations: Sequence[np.ndarray],
    electrode_order: Sequence[str] = ELECTRODE_ORDER,
) -> CausalityImage:
    """Stack electrode representations and down-sample in frequency.

    The five (t, F) matrices, one per electrode of ``electrode_order`` in
    that order, are concatenated electrode-major along the frequency axis
    into (t, 5F), every block of 5 adjacent frequency rows is averaged,
    and the result is stored transposed as (F, t).
    """
    mats = [np.asarray(m, float) for m in representations]
    if len(mats) != len(electrode_order):
        raise DataError(
            f"expected {len(electrode_order)} representations, got {len(mats)}"
        )
    shape = mats[0].shape
    if any(m.ndim != 2 or m.shape != shape for m in mats):
        raise DataError("electrode representations must share one (t, F) shape")
    stacked = np.concatenate(mats, axis=1)
    t, wide = stacked.shape
    if wide % _DOWNSAMPLE_BLOCK != 0:
        raise DataError(
            f"stacked width {wide} not divisible by {_DOWNSAMPLE_BLOCK}"
        )
    pooled = stacked.reshape(t, wide // _DOWNSAMPLE_BLOCK, _DOWNSAMPLE_BLOCK)
    pooled = pooled.mean(axis=2)
    return CausalityImage(pooled.T, tuple(electrode_order))


def export_image(image: CausalityImage, path) -> None:
    """Write an 8-bit binary graymap (P5) plus a text sidecar.

    Values are min-max scaled to [0, 255]; a constant image maps to a
    uniform 128. The sidecar ``<path>.txt`` records the value range and
    axes so pixel values can be mapped back to causality units.
    """
    vals = image.values
    lo = float(vals.min())
    hi = float(vals.max())
    if hi > lo:
        pixels = np.rint((vals - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        pixels = np.full(vals.shape, 128, dtype=np.uint8)
    rows, cols = vals.shape
    sidecar = (
        f"min: {lo!r}\nmax: {hi!r}\nrows: {rows}\ncols: {cols}\n"
        f"electrodes: {' '.join(image.electrode_order)}\n"
    ).encode("ascii")
    atomic_write(path, f"P5\n{cols} {rows}\n255\n".encode("ascii") + pixels.tobytes())
    atomic_write(f"{path}.txt", sidecar)
