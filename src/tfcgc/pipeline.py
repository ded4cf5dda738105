"""End-to-end orchestration: data ingestion, preprocessing, synthetic
fixtures, per-crop causality imaging, boosted training, and run reports.

The standard pipeline band-limits whole trials, slides 2 s crops over
them, computes per crop the 14 directed causality maps the images read
(every pair with C3 or C4 at one end), folds them into causality images,
boosts the convolutional base learner on the training split, and
majority-votes crop predictions on the test split. Every unit of parallel
work derives its seed from the master seed and its unit id, so results
are independent of scheduling.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import boosting, bsplines, convnet, gridio
from .causality import CgcConfig, pairwise_maps
from .errors import ConfigError, DataError, Range, check_ranges
from .identify import MAX_COLUMNS, RofrConfig
from .images import (
    ELECTRODE_ORDER,
    IMAGE_PAIRS,
    assemble_image,
    crop_trial,
    electrode_representation,
)

LABEL_CODES = {"left": 1, "right": -1}
LABEL_NAMES = {code: name for name, code in LABEL_CODES.items()}


@dataclass
class Trial:
    data: np.ndarray  # (channels, samples)
    label: int  # +1 = left, -1 = right
    trial_id: str
    split: str = "train"


@dataclass
class TrialSet:
    trials: list[Trial]
    channel_names: tuple[str, ...]
    sampling_rate: float

    def subset(self, split: str) -> "TrialSet":
        return TrialSet(
            [t for t in self.trials if t.split == split],
            self.channel_names,
            self.sampling_rate,
        )

    def __len__(self) -> int:
        return len(self.trials)


def _tuple_of(kind):
    def parse(text):
        return tuple(kind(tok.strip()) for tok in text.split(",") if tok.strip())

    return parse


def _key(default, section, parse, bound=None, keys=None):
    """A setting of the config file: its ``[section]``, the parser of its
    value and the range it must hold. A tuple setting may instead take one
    key per item (``keys``), each parsed on its own."""
    metadata = {"section": section, "parse": parse, "range": bound, "keys": keys}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class RunConfig:
    """Everything a full run needs, with full-scale analysis defaults. Each
    field is a setting of the config file (``_key``); a component config
    built from the run (``RofrConfig``, ``CgcConfig``, ``ConvNetConfig``)
    checks the ranges of the settings it owns."""

    manifest: str | None = _key(None, "data", str)
    band: tuple[float, float] = _key(
        (6.0, 15.0), "data", float, keys=("band_low", "band_high")
    )
    electrodes: tuple[str, ...] = _key(ELECTRODE_ORDER, "data", _tuple_of(str))
    crop_seconds: float = _key(2.0, "data", float, Range(0, ends="(]"))
    stride_seconds: float = _key(0.5, "data", float, Range(0, ends="(]"))
    orders: tuple[int, ...] = _key((3, 4, 5), "causality", _tuple_of(int))
    scale: int = _key(3, "causality", int)
    lags: int = _key(3, "causality", int)
    forgetting: float = _key(0.02, "causality", float)
    init_window: int = _key(50, "causality", int)
    regularization: float | None = _key(None, "causality", float)
    time_decimation: int = _key(1, "causality", int)
    temporal_kernel: int = _key(15, "classifier", int)
    first_block_filters: int = _key(10, "classifier", int)
    block_count: int = _key(2, "classifier", int)
    batch_size: int = _key(16, "classifier", int)
    max_epochs: int = _key(60, "classifier", int, Range(1))
    early_stop_patience: int = _key(15, "classifier", int)
    chi: int = _key(5, "classifier", int, boosting.ROUNDS)
    seed: int = _key(0, "run", int, Range(0))
    threads: int = _key(1, "run", int, Range(1))
    out_dir: str | None = _key(None, "run", str)

    def __post_init__(self):
        """Reject a setting outside its range, or a design too large to
        search, before anything runs; the message names ``[section] key``."""
        try:
            check_ranges(self)
            self.cgc_config()
            self.convnet_config()
        except ConfigError as exc:
            key = {f.name: f for f in dataclasses.fields(self)}[exc.key]
            raise ConfigError(f"[{key.metadata['section']}] {exc}") from exc
        bases = bsplines.basis_count(self.orders, self.scale)
        if len(self.electrodes) * self.lags * bases > MAX_COLUMNS:
            raise ConfigError(
                f"[causality] scale {self.scale} makes a design of over "
                f"{MAX_COLUMNS:,} columns"
            )

    def _component(self, table, **settings):
        """A ``table`` config with the settings it shares with this run by
        name, then ``settings``."""
        shared = {f.name for f in dataclasses.fields(table)} & vars(self).keys()
        shared -= settings.keys()
        return table(**{name: getattr(self, name) for name in shared}, **settings)

    def cgc_config(self) -> CgcConfig:
        return self._component(CgcConfig, rofr=RofrConfig(self.regularization))

    def convnet_config(self, seed: int = 0) -> convnet.ConvNetConfig:
        return self._component(convnet.ConvNetConfig, seed=seed)


def load_trials(manifest_path) -> TrialSet:
    """Read the CSV manifest and every referenced trial file.

    The manifest starts with a ``# fs: <Hz>`` sidecar line, then a
    header ``trial_file,label,split``. Each trial file is a CSV of
    samples (rows) by channels (cols) with a channel-name header.
    """
    manifest_path = str(manifest_path)
    base = os.path.dirname(manifest_path)
    try:
        lines = _read_ascii_lines(manifest_path)
    except OSError as exc:
        raise DataError(f"cannot read manifest: {exc}") from exc
    # (line number in the file, stripped text) of each non-blank line
    lines = [(i, ln.strip()) for i, ln in enumerate(lines, start=1) if ln.strip()]
    at, sidecar = lines[0] if lines else (1, "")
    if not sidecar.startswith("#"):
        raise DataError(f"{manifest_path}:{at}: missing '# fs: <Hz>' sidecar line")
    sidecar = sidecar.lstrip("#").strip()
    if not sidecar.startswith("fs:"):
        raise DataError(f"{manifest_path}:{at}: sidecar must declare 'fs: <Hz>'")
    try:
        fs = float(sidecar.partition(":")[2])
    except ValueError as exc:
        raise DataError(f"{manifest_path}:{at}: bad sampling rate") from exc
    if not (math.isfinite(fs) and fs > 0):
        raise DataError(
            f"{manifest_path}:{at}: sampling rate must be finite and positive, "
            f"got {fs:g}"
        )
    at, header = lines[1] if len(lines) > 1 else (at + 1, "")
    if header != "trial_file,label,split":
        raise DataError(f"{manifest_path}:{at}: header must be 'trial_file,label,split'")
    if len(lines) == 2:
        raise DataError(f"{manifest_path}: manifest lists no trials")
    trials = []
    listed = {}  # real path of each trial file -> its manifest line
    ids = {}  # each trial id -> its manifest line
    for lineno, line in lines[2:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise DataError(f"{manifest_path}:{lineno}: expected 3 columns")
        fname, label, split = parts
        if label not in LABEL_CODES:
            raise DataError(
                f"{manifest_path}:{lineno}: label must be left or right"
            )
        if split not in ("train", "test"):
            raise DataError(
                f"{manifest_path}:{lineno}: split must be train or test"
            )
        path = os.path.join(base, fname)
        if not os.path.isfile(path):
            raise DataError(f"{manifest_path}:{lineno}: missing trial file: {path}")
        first = listed.setdefault(os.path.realpath(path), lineno)
        if first != lineno:
            raise DataError(
                f"{manifest_path}:{lineno}: trial file {fname} is already "
                f"listed at line {first}"
            )
        trial_id = os.path.splitext(fname)[0]
        first = ids.setdefault(trial_id, lineno)
        if first != lineno:
            raise DataError(
                f"{manifest_path}:{lineno}: trial id {trial_id} of {fname} is "
                f"already used at line {first}"
            )
        data, names = _load_trial_csv(path)
        if not trials:
            channel_names, first_path = names, path
        elif names != channel_names:
            raise DataError(
                f"{path}: channel header {','.join(names)} differs from "
                f"{first_path}'s {','.join(channel_names)}"
            )
        trials.append(Trial(data, LABEL_CODES[label], trial_id, split))
    return TrialSet(trials, channel_names, fs)


def _read_ascii_lines(path) -> list[str]:
    """The lines of an ASCII text file, split as text mode splits them; a
    byte outside ASCII is a DataError naming the file and its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(
            f"{path}:{line}: byte 0x{raw[exc.start]:02x} is not ASCII"
        ) from exc
    return io.StringIO(text, newline=None).readlines()


def _load_trial_csv(path):
    try:
        lines = _read_ascii_lines(path)
    except OSError as exc:
        raise DataError(f"missing trial file: {path}") from exc
    names = tuple(h.strip() for h in (lines[0] if lines else "").strip().split(","))
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.strip().split(",")
        if len(cells) != len(names):
            raise DataError(f"{path}:{lineno}: expected {len(names)} columns")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric cell") from exc
        if not all(map(math.isfinite, row)):
            raise DataError(f"{path}:{lineno}: non-finite sample")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no samples")
    return np.array(rows).T, names


def save_trials(trial_set: TrialSet, directory) -> str:
    """Write a TrialSet as manifest + per-trial CSV files; returns manifest."""
    directory = str(directory)
    os.makedirs(directory, exist_ok=True)
    lines = [f"# fs: {trial_set.sampling_rate:g}", "trial_file,label,split"]
    for trial in trial_set.trials:
        fname = f"{trial.trial_id}.csv"
        header = ",".join(trial_set.channel_names)
        body = "\n".join(
            ",".join(repr(float(v)) for v in row) for row in trial.data.T
        )
        gridio.atomic_write(
            os.path.join(directory, fname), (header + "\n" + body + "\n").encode()
        )
        lines.append(f"{fname},{LABEL_NAMES[trial.label]},{trial.split}")
    manifest = os.path.join(directory, "manifest.csv")
    gridio.atomic_write(manifest, ("\n".join(lines) + "\n").encode())
    return manifest


#: Butterworth order of the band-pass, which runs forward and backward
BANDPASS_ORDER = 4
#: samples of odd extension at each end of a filtered series, three filter
#: lengths; a trial must be longer
BANDPASS_PAD = 3 * (2 * BANDPASS_ORDER + 1)
#: samples per block of the filter recursion's precomputed input products
_FILTER_BLOCK = 64


def bandpass(trial_set: TrialSet, low: float, high: float) -> TrialSet:
    """Zero-phase Butterworth band-pass: the order-4 band-pass filter run
    forward and backward (squared magnitude response, zero group delay).

    Each series is extended by odd reflection of BANDPASS_PAD samples at
    each end, and each pass starts from the filter's steady state for its
    first sample, so the edges carry no start-up transient.  Trials of one
    shape are filtered together, every channel of every trial as one stack,
    so the recursion costs per sample, not per series.
    """
    fs = trial_set.sampling_rate
    if not 0 < low < high < fs / 2:
        raise DataError(f"band [{low}, {high}] invalid for fs={fs}")
    trials = trial_set.trials
    shapes: dict[tuple, list[int]] = {}
    for i, t in enumerate(trials):
        if t.data.shape[-1] <= BANDPASS_PAD:
            raise DataError(
                f"trial {t.trial_id}: {t.data.shape[-1]} samples, the band-pass "
                f"needs at least {BANDPASS_PAD + 1}"
            )
        shapes.setdefault(t.data.shape, []).append(i)
    b, a = _butterworth_bandpass(low, high, fs)
    filtered = list(trials)
    for (channels, n), rows in shapes.items():
        stack = np.concatenate([trials[i].data for i in rows], dtype=float)
        for i, data in zip(rows, _filtfilt(b, a, stack).reshape(-1, channels, n)):
            filtered[i] = dataclasses.replace(trials[i], data=data)
    return TrialSet(filtered, trial_set.channel_names, fs)


def _butterworth_bandpass(low: float, high: float, fs: float):
    """Numerator and denominator of the digital Butterworth band-pass of
    order BANDPASS_ORDER: the analog low-pass prototype's poles, moved to
    the band, then mapped to the z-plane by the bilinear transform
    s = 4 (z - 1) / (z + 1) at band edges prewarped for it."""
    order = BANDPASS_ORDER
    edges = np.array([low, high], dtype=float) / (fs / 2)
    warped = 4.0 * np.tan(np.pi * edges / 2.0)
    width = float(warped[1] - warped[0])
    centre = float(np.sqrt(warped[0] * warped[1]))
    # the prototype's poles on the left unit half-circle, scaled to the band
    m = np.arange(1 - order, order, 2, dtype=float)
    poles = -np.exp(1j * np.pi * m / (2 * order)) * width / 2
    # each pole splits in two around the band centre; ``order`` zeros sit at s = 0
    shift = np.sqrt(poles**2 - centre**2)
    poles = np.concatenate((poles + shift, poles - shift))
    gain = width**order * np.real(4.0**order / np.prod(4.0 - poles))
    # s = 0 maps to z = 1, the zeros at s = infinity to z = -1
    b = gain * np.poly([1.0] * order + [-1.0] * order)
    a = np.poly((4.0 + poles) / (4.0 - poles)).real
    return b, a


def _filtfilt(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of ``x`` (series, samples) filtered forward and backward."""
    pad = BANDPASS_PAD
    ext = np.concatenate(
        (2 * x[:, :1] - x[:, pad:0:-1], x, 2 * x[:, -1:] - x[:, -2 : -pad - 2 : -1]),
        axis=1,
    )
    ext = np.ascontiguousarray(ext.T)
    # the state at rest under a constant input: z = A z + B, A the companion
    # matrix of a, B = b[1:] - a[1:] b[0]
    companion = np.eye(len(a) - 1, k=-1)
    companion[0] = -a[1:]
    rest = np.linalg.solve(np.eye(len(a) - 1) - companion.T, b[1:] - a[1:] * b[0])
    forward = _lfilter(b, a, ext, rest[:, None] * ext[0])
    backward = _lfilter(b, a, forward[::-1], rest[:, None] * forward[-1])
    return np.ascontiguousarray(backward[::-1][pad:-pad].T)


def _lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray, state: np.ndarray):
    """The filter b / a (a[0] = 1) in direct form II transposed, run down
    the rows of ``x`` (samples, series) from ``state`` (len(a) - 1, series).

    At each sample y = z[0] + b[0] x, then z[i] = (z[i + 1] + b[i + 1] x)
    - a[i + 1] y, with z past the end zero, in this order of rounding.
    """
    z = np.zeros((len(a), x.shape[1]))
    z[:-1] = state
    y = np.empty(x.shape)
    feedback = np.empty(state.shape)
    a_tail = a[1:, None]
    for start in range(0, x.shape[0], _FILTER_BLOCK):
        # u[t] holds b x[t], then z + b x[t] with y[t] as its first row
        u = b[:, None] * x[start : start + _FILTER_BLOCK, None, :]
        for ut in u:
            np.add(z, ut, out=ut)
            np.multiply(a_tail, ut[0], out=feedback)
            np.subtract(ut[1:], feedback, out=z[:-1])
        y[start : start + _FILTER_BLOCK] = u[:, 0]
    return y


@dataclass(frozen=True)
class SynthSpec:
    """Two-class coupled generator on the five standard channels.

    The "left" class couples C4 into C3 inside the window; the "right"
    class couples C3 into C4. Every channel carries a resonant AR(2)
    rhythm near ``oscillation_freq`` so the coupling lives inside the
    analysis band. Building a spec refuses a setting outside its range.
    """

    channel_names: tuple[str, ...] = ELECTRODE_ORDER
    sampling_rate: float = _key(250.0, "synth", float, Range(0, ends="(]"))
    trial_seconds: float = _key(4.0, "synth", float, Range(0, ends="(]"))
    trials_per_class: int = _key(30, "synth", int, Range(1))
    # a test split's count; None: trials_per_class
    test_trials_per_class: int | None = _key(None, "synth", int, Range(0))
    coupling: float = _key(0.5, "synth", float, Range())
    window: tuple[float, float] = _key(
        (0.25, 0.75), "synth", float, keys=("window_low", "window_high")
    )
    oscillation_freq: float = _key(10.0, "synth", float, Range(0))
    pole_radius: float = _key(0.9, "synth", float)
    noise_scale: float = _key(1.0, "synth", float, Range(0, ends="(]"))
    split: str = "train"

    def __post_init__(self):
        try:
            check_ranges(self)
        except ConfigError as exc:
            raise ConfigError(f"[synth] {exc}") from exc
        low, high = self.window
        if not 0 <= low < high <= 1:  # NaN too
            raise ConfigError(
                "[synth] window_low and window_high must satisfy 0 <= low < high "
                f"<= 1, got {low!r} and {high!r}"
            )
        # a one-way coupling is nilpotent, so the coupled generator's
        # eigenvalues are each channel's AR(2) poles, of modulus |pole_radius|
        if not abs(self.pole_radius) < 1:
            raise ConfigError(
                f"[synth] pole_radius must be in (-1, 1), got {self.pole_radius!r}: "
                "it is the generator spectral radius"
            )

    def schedules(self, label: int) -> dict:
        src, dst = ("C4", "C3") if label == 1 else ("C3", "C4")
        return {(src, dst): self.coupling}


def synth_generate(spec: SynthSpec, seed: int = 0) -> TrialSet:
    """Seeded two-class fixture.

    Trial k of a class draws its noise from ``SeedSequence([seed, class, k])``.
    Every trial of the call is one column of a (samples, trials, channels)
    state that one time loop advances; each class couples its own block of
    trials inside the window.
    """
    omega = 2 * np.pi * spec.oscillation_freq / spec.sampling_rate
    a1, a2 = 2 * spec.pole_radius * np.cos(omega), -spec.pole_radius**2
    n = int(round(spec.sampling_rate * spec.trial_seconds))
    n_ch = len(spec.channel_names)
    index = {name: i for i, name in enumerate(spec.channel_names)}
    per_class = spec.trials_per_class
    if spec.split == "test" and spec.test_trials_per_class is not None:
        per_class = spec.test_trials_per_class
    lo = int(spec.window[0] * n)
    hi = int(spec.window[1] * n)
    labels = (1, -1)
    # x[t] = (a1 x[t-1] + a2 x[t-2]) + e[t] from x[0] = x[1] = 0, rounded in
    # that order; the state overwrites the noise it starts as, time-major so
    # that each step reads and writes contiguous (trials, channels) rows
    x = np.empty((n, len(labels) * per_class, n_ch))
    for c, label in enumerate(labels):
        for k in range(per_class):
            rng = np.random.default_rng(np.random.SeedSequence([seed, c, k]))
            x[:, c * per_class + k] = rng.standard_normal((n_ch, n)).T
    x *= spec.noise_scale
    x[:2] = 0.0
    couplings = [
        (slice(c * per_class, (c + 1) * per_class), index[src], index[dst], strength)
        for c, label in enumerate(labels)
        for (src, dst), strength in spec.schedules(label).items()
    ]
    lagged = np.empty(x.shape[1:])
    for t in range(2, n):
        np.multiply(a1, x[t - 1], out=lagged)
        lagged += a2 * x[t - 2]
        x[t] += lagged
        if lo <= t < hi:
            for block, src, dst, strength in couplings:
                x[t, block, dst] += strength * x[t - 1, block, src]
    trials = []
    for c, label in enumerate(labels):
        for k in range(per_class):
            trial_id = f"{spec.split}_{LABEL_NAMES[label]}_{k:03d}"
            data = np.ascontiguousarray(x[:, c * per_class + k].T)
            trials.append(Trial(data, label, trial_id, spec.split))
    return TrialSet(trials, spec.channel_names, spec.sampling_rate)


def _crop_image_unit(args):
    """One (trial crop -> causality image) unit; pure and picklable.

    An exception keeps its type (and so its exit code) and gains a note
    naming the crop: ``trial <id>, crop at sample <start>``.
    """
    crop_data, electrodes, pairs, fs, cgc_config, crop_name = args
    try:
        maps = pairwise_maps(crop_data, range(len(electrodes)), fs, cgc_config, pairs)
        named = {
            (electrodes[s], electrodes[k]): m.values for (s, k), m in maps.items()
        }
        reps = [electrode_representation(named, e) for e in electrodes]
        return assemble_image(reps, electrodes).values
    except Exception as exc:
        # Set directly rather than with add_note, which needs Python 3.11.
        exc.__notes__ = [*getattr(exc, "__notes__", []), crop_name]
        raise


def trial_images(
    trial_set: TrialSet, config: RunConfig
) -> tuple[np.ndarray, np.ndarray, list[str], list[list[int]]]:
    """Causality images for every crop of every trial.

    Returns (images, crop_labels, trial_ids, crops_per_trial) where
    ``crops_per_trial[i]`` indexes the rows of ``images`` belonging to
    trial i, in crop order.
    """
    with _imaging([_crop_units(trial_set, config)], config.threads) as images:
        return next(images)


@contextlib.contextmanager
def _imaging(splits, threads: int):
    """Yields an iterator of each cropped split's ``trial_images`` result in
    turn, given the splits as ``_crop_units`` returns them.

    All their crops are queued at once, in order, on one pool of
    ``threads`` workers, which images later splits while the caller works
    on earlier ones (one thread images each crop as it is read).  Leaving
    the block cancels the crops still queued and waits for the workers to
    exit.
    """
    units = [unit for split in splits for unit in split[0]]
    pool = None
    if threads > 1:
        # imported here, so a single-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # only the workers keep freed memory: the parent trains, and a
        # forked worker would inherit whatever heap the parent kept
        pool = ProcessPoolExecutor(threads, initializer=_keep_freed_memory)
    else:
        _keep_freed_memory()
    try:
        images = (pool.map if pool else map)(_crop_image_unit, units)
        yield (
            (np.stack(list(islice(images, len(crops)))), *rest)
            for crops, *rest in splits
        )
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


#: glibc's ``mallopt`` parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Make glibc serve arrays up to 8 MB from the heap and keep up to
    16 MB of freed heap, so that every crop of an imaging process reuses the
    pages the last crop touched instead of faulting in fresh zeroed ones
    (about 2,450 faults a full-scale crop, 1,000 a criterion-15 crop).
    8 MB covers a full-scale crop's largest array, its (14, 500, 90) map
    values.  A full-scale crop needs more than 8 MB kept; keeping 32 MB,
    or serving arrays up to 32 MB from the heap, let a scale-7 crop peak
    10% higher.  Does nothing where libc has no ``mallopt``."""
    import ctypes  # numpy has loaded it already

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 8 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


def _crop_units(trial_set: TrialSet, config: RunConfig):
    """Check a trial set against the run's settings and crop it: the imaging
    unit of every crop, trial by trial, then ``trial_images``' other results."""
    electrodes = list(config.electrodes)
    if sorted(electrodes) != sorted(ELECTRODE_ORDER):
        raise ConfigError(
            f"[data] electrodes must list each of {', '.join(ELECTRODE_ORDER)} "
            f"exactly once, got {config.electrodes!r}"
        )
    missing = [e for e in electrodes if e not in trial_set.channel_names]
    if missing:
        raise DataError(f"channels missing from data: {missing}")
    sel = [trial_set.channel_names.index(e) for e in electrodes]
    pairs = [(electrodes.index(s), electrodes.index(k)) for s, k in IMAGE_PAIRS]
    fs = trial_set.sampling_rate
    cgc = config.cgc_config()
    cgc.freq_grid(fs)
    units, labels, groups = [], [], []
    for trial in trial_set.trials:
        crops = crop_trial(
            trial.data, fs, config.crop_seconds, config.stride_seconds, trial.trial_id
        )
        groups.append(list(range(len(units), len(units) + len(crops))))
        labels += [trial.label] * len(crops)
        for crop in crops:
            name = f"trial {trial.trial_id}, crop at sample {crop.start_sample}"
            data = crop.extract(trial.data)[sel]
            units.append((data, electrodes, pairs, fs, cgc, name))
    return units, np.array(labels), [t.trial_id for t in trial_set.trials], groups


def run_pipeline(config: RunConfig, trial_set: TrialSet | None = None) -> dict:
    """Execute the full decode and return the run report as a dict.

    Stages: load, band-pass, then ``decode``.  Artifacts (config snapshot,
    images, ensemble, report) are written to ``config.out_dir`` when one is
    set.
    """
    if trial_set is None:
        if config.manifest is None:
            raise DataError("need a manifest path or an in-memory trial set")
        trial_set = load_trials(config.manifest)
    ensemble, report, stacks = decode(config, bandpass(trial_set, *config.band))
    if config.out_dir:
        _write_artifacts(config, report, ensemble, stacks)
    return report


#: the evaluation's metrics, in the order ``report.csv`` lists them
EVALUATION_KEYS = tuple("tp fp tn fn sensitivity specificity accuracy kappa".split())


def decode(config: RunConfig, filtered: TrialSet, ensemble=None, model_path=None):
    """Boost ConvNets on the causality images of the band-passed set's train
    split, unless a loaded ``ensemble`` (read from ``model_path``) is given,
    then label each test trial by the majority vote over its crops.

    Every check that needs the data runs before any crop is imaged, in one
    order: the train split holds both classes (or, with a loaded ensemble,
    there are test trials); the test split crops (``_crop_units``) and each
    test trial has an odd crop count; the classifier, or each loaded
    member, reads images of the run's shape; the train split crops.
    Returns the ensemble, the report and the image stack of each split.
    """
    train_set, test_set = filtered.subset("train"), filtered.subset("test")
    if ensemble is None:
        present = {t.label for t in train_set.trials}
        if len(present) < 2:
            has = f"only {LABEL_NAMES[present.pop()]} trials" if present else "no trials"
            raise DataError(f"training split must hold both classes, has {has}")
    elif len(test_set) == 0:
        raise DataError("no test trials in manifest")
    test = _crop_units(test_set, config)
    for trial_id, rows in zip(test[2], test[3]):
        if len(rows) % 2 == 0:
            raise DataError(
                f"trial {trial_id}: {len(rows)} crops, but majority voting "
                "needs an odd crop count"
            )
    # an image has one column per grid time of a crop
    crop = filtered.sampling_rate * config.crop_seconds
    if not np.isfinite(crop):  # without test trials, no crop refused it yet
        raise DataError(
            f"crop_seconds {config.crop_seconds:g} must span a finite number of "
            f"samples at {filtered.sampling_rate:g} Hz"
        )
    crop = round(crop)
    width = -(-crop // config.time_decimation)
    made = f"crops of {crop} samples, time_decimation {config.time_decimation}"
    if ensemble is None:
        classifier = config.convnet_config()
        try:  # every convolution and pooling stage must leave a column
            convnet._time_lengths(classifier, width)
        except ConfigError as exc:
            raise ConfigError(
                f"images of {width} time columns ({made}) are too short for "
                f"the classifier: {exc}"
            ) from exc
    else:
        shape = (config.convnet_config().spatial_height, width)
        for member in ensemble.members:
            if member.model.input_shape != shape:
                raise DataError(
                    f"model {model_path} reads images of shape "
                    f"{member.model.input_shape}, this run makes {shape} ({made})"
                )

    splits = [test] if ensemble is not None else [_crop_units(train_set, config), test]
    stacks = {}
    # the pool images the test crops while the ensemble trains
    with _imaging(splits, config.threads) as images:
        if ensemble is None:
            stacks["train"], labels, _, _ = next(images)
            ensemble = boosting.adaboost_train(
                stacks["train"],
                labels,
                chi=config.chi,
                base_config=config.convnet_config(),
                seed=config.seed,
            )
        report: dict = {
            "n_train_trials": len(train_set),
            "n_train_crops": len(stacks.get("train", ())),
            "n_test_trials": len(test_set),
            "members": len(ensemble.members),
            "best_joint": ensemble.best_joint,
            "validation_accuracy": ensemble.validation_accuracy,
            "preprocessing": "zero-phase band-pass "
            f"{config.band[0]:g}-{config.band[1]:g} Hz (order 4, forward-backward)",
        }
        if len(test_set) > 0:
            stacks["test"], _, _, groups = next(images)
            predictions = [
                boosting.predict_trial(ensemble, stacks["test"][rows])
                for rows in groups
            ]
            ev = boosting.evaluate(predictions, [t.label for t in test_set.trials])
            report["evaluation"] = {key: getattr(ev, key) for key in EVALUATION_KEYS}
            report["evaluation"]["per_trial"] = [
                {"trial_id": t.trial_id, "predicted": int(p), "truth": int(t.label)}
                for t, p in zip(test_set.trials, predictions)
            ]
    return ensemble, report, stacks


def _write_artifacts(config, report, ensemble, stacks):
    out = str(config.out_dir)
    os.makedirs(out, exist_ok=True)
    snapshot = dataclasses.asdict(config)
    gridio.atomic_write(
        os.path.join(out, "config.json"),
        json.dumps(snapshot, indent=2, sort_keys=True, default=repr).encode(),
    )
    for tag, stack in stacks.items():
        gridio.write_grid(os.path.join(out, f"{tag}_images.grid"), {"images": stack})
    gridio.save_ensemble(os.path.join(out, "model"), ensemble)
    gridio.atomic_write(
        os.path.join(out, "report.json"),
        json.dumps(report, indent=2, sort_keys=True).encode(),
    )
    lines = ["metric,value"]
    if "evaluation" in report:
        lines += [f"{key},{report['evaluation'][key]!r}" for key in EVALUATION_KEYS]
    gridio.atomic_write(
        os.path.join(out, "report.csv"), ("\n".join(lines) + "\n").encode()
    )
    text = [
        "run report",
        "==========",
        f"training trials: {report['n_train_trials']}",
        f"training crops:  {report['n_train_crops']}",
        f"test trials:     {report['n_test_trials']}",
        f"ensemble members: {report['members']} (best prefix {report['best_joint']})",
        f"preprocessing:   {report['preprocessing']}",
    ]
    if "evaluation" in report:
        ev = report["evaluation"]
        text += [
            f"accuracy:    {ev['accuracy']!r} %",
            f"sensitivity: {ev['sensitivity']!r} %",
            f"specificity: {ev['specificity']!r} %",
            f"kappa:       {ev['kappa']!r}",
        ]
    gridio.atomic_write(
        os.path.join(out, "report.txt"), ("\n".join(text) + "\n").encode()
    )


def gridsearch(
    images: np.ndarray,
    labels: np.ndarray,
    kernels=(10, 15, 20),
    filter_counts=(5, 10),
    block_counts=(1, 2),
    folds: int = 10,
    seed: int = 0,
    max_epochs: int = 20,
) -> list[dict]:
    """K-fold cross-validated search over the architecture grid.

    Returns one record per configuration with its mean fold accuracy,
    best first.
    """
    images = np.asarray(images, float)
    labels = np.asarray(labels)
    n = len(labels)
    folds = min(folds, n)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    fold_of = np.empty(n, int)
    fold_of[order] = np.arange(n) % folds
    results = []
    for tau in kernels:
        for p1 in filter_counts:
            for blocks in block_counts:
                try:
                    cfg = convnet.ConvNetConfig(
                        temporal_kernel=tau,
                        first_block_filters=p1,
                        block_count=blocks,
                        spatial_height=images.shape[1],
                        max_epochs=max_epochs,
                        early_stop_patience=max_epochs,
                        seed=seed,
                    )
                    convnet._time_lengths(cfg, images.shape[2])
                except ConfigError:
                    continue
                accs = []
                for f in range(folds):
                    va = fold_of == f
                    tr = ~va
                    if len(set(labels[tr].tolist())) < 2 or va.sum() == 0:
                        continue
                    model = convnet.build_convnet(cfg, images.shape[1:])
                    trained = convnet.train(
                        model,
                        images[tr],
                        labels[tr],
                        validation=(images[va], labels[va]),
                    )
                    accs.append(convnet.accuracy(trained, images[va], labels[va]))
                if accs:
                    results.append(
                        {
                            "temporal_kernel": tau,
                            "first_block_filters": p1,
                            "block_count": blocks,
                            "mean_accuracy": float(np.mean(accs)),
                            "folds": len(accs),
                        }
                    )
    results.sort(key=lambda r: -r["mean_accuracy"])
    return results
