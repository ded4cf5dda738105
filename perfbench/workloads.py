"""The four benchmark workloads.

Each workload builds its inputs from the run's seed in ``setup``, runs one
closed-loop operation at a time in ``op`` (one caller, the next operation
starts when the last returns), and checks each result in ``check``.  The
program sees only the generated inputs.  See README.md for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
import time

import numpy as np

from tfcgc import boosting, causality, convnet, pipeline
from tfcgc.images import crop_trial
from tfcgc.pipeline import RunConfig, SynthSpec, TrialSet

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "crop_fullscale.npz")
# seed of the fixed trial whose image is stored in REFERENCE
REFERENCE_SEED = 20181025
# image agreement with REFERENCE, relative to the largest reference value
REFERENCE_RTOL = 1e-6

# criterion-15 settings of tests/test_acceptance.py, workers aside
DECODE_CONFIG = dict(
    orders=(3,),
    lags=2,
    time_decimation=10,
    temporal_kernel=15,
    first_block_filters=8,
    block_count=2,
    batch_size=16,
    max_epochs=30,
    early_stop_patience=10,
    chi=3,
)
DECODE_TRIALS_PER_CLASS = {"train": 5, "test": 1}
DECODE_TRIAL_SECONDS = 4.0  # five crops per trial
# Criterion 15 asks for 90% on 40 test trials after training on 60; at
# this size one of the two test trials is misclassified on about one seed
# in ten, so a run only requires that the decode is not wholly wrong.
DECODE_MIN_ACCURACY = 50.0

CROP_TRIALS = 6
SURROGATES = 99
SURROGATE_LEVEL = 0.01

TRAIN_IMAGES = 160
TEST_IMAGES = 400
IMAGE_WIDTH = 50
CONFLICTS = 16
CHI = 5


def workers() -> int:
    return len(os.sched_getaffinity(0))


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class Decode:
    """``run_pipeline`` end to end, as ``tfcgc run`` does it."""

    name = "decode"
    op_label = "decode_s"

    def __init__(self, scratch: str):
        self.scratch = scratch
        self.pool_workers = workers()
        self.first_report: bytes | None = None

    def setup(self, seed: int):
        s_train, s_test = _seeds(seed, 2)
        parts = [
            pipeline.synth_generate(
                SynthSpec(
                    trials_per_class=DECODE_TRIALS_PER_CLASS[split],
                    trial_seconds=DECODE_TRIAL_SECONDS,
                    split=split,
                ),
                seed=s,
            )
            for split, s in (("train", s_train), ("test", s_test))
        ]
        data = TrialSet(
            parts[0].trials + parts[1].trials, parts[0].channel_names, 250.0
        )
        config = RunConfig(**DECODE_CONFIG, seed=seed, threads=self.pool_workers)
        crops = {
            split: sum(
                len(crop_trial(t.data, 250.0, config.crop_seconds, config.stride_seconds))
                for t in data.trials
                if t.split == split
            )
            for split in ("train", "test")
        }
        return data, config, crops

    def op(self, inputs, i: int) -> dict:
        data, config, crops = inputs
        out = tempfile.mkdtemp(prefix="decode-", dir=self.scratch)
        try:
            report = pipeline.run_pipeline(
                dataclasses.replace(config, out_dir=out), trial_set=data
            )
            with open(os.path.join(out, "report.json"), "rb") as fh:
                raw = fh.read()
        finally:
            shutil.rmtree(out)
        ev = report["evaluation"]
        return {
            "report": raw,
            "trials": report["n_train_trials"] + report["n_test_trials"],
            "train_crops": report["n_train_crops"],
            "crops": sum(crops.values()),
            "accuracy_pct": ev["accuracy"],
            "kappa": ev["kappa"],
            "members": report["members"],
        }

    def check(self, inputs, result: dict) -> list[str]:
        data, _, crops = inputs
        problems = []
        if (result["trials"], result["train_crops"]) != (len(data.trials), crops["train"]):
            problems.append(
                f"report counts {result['trials']} trials, {result['train_crops']} "
                f"training crops; input has {len(data.trials)}, {crops['train']}"
            )
        if result["accuracy_pct"] < DECODE_MIN_ACCURACY:
            problems.append(
                f"accuracy {result['accuracy_pct']:.1f}% < {DECODE_MIN_ACCURACY}%"
            )
        # every decode of a run has the same input: the report must repeat
        if self.first_report is None:
            self.first_report = result["report"]
        elif result["report"] != self.first_report:
            problems.append("report.json differs from the first run at this seed")
        return problems


def _bandpassed_trials(seed: int, count: int, seconds: float) -> list:
    spec = SynthSpec(trials_per_class=(count + 1) // 2, trial_seconds=seconds)
    trials = pipeline.bandpass(pipeline.synth_generate(spec, seed=seed), 6.0, 15.0)
    # alternate classes so any prefix holds both couplings
    left = [t for t in trials.trials if t.label == 1]
    right = [t for t in trials.trials if t.label == -1]
    mixed = [t for pair in zip(left, right) for t in pair][:count]
    return [TrialSet([t], trials.channel_names, trials.sampling_rate) for t in mixed]


class CropFullscale:
    """``trial_images`` on one 2 s crop at the paper's analysis config.

    Every run starts with the fixed reference trial, whose image must
    match REFERENCE, and goes on with trials made from the run's seed.
    """

    name = "crop_fullscale"
    op_label = "crop_s"

    def __init__(self, scratch: str):
        self.config = RunConfig(threads=1)

    def setup(self, seed: int):
        reference = _bandpassed_trials(REFERENCE_SEED, 1, 2.0)
        return reference + _bandpassed_trials(seed, CROP_TRIALS, 2.0)

    def op(self, inputs, i: int) -> dict:
        k = i % len(inputs)
        images, _, _, _ = pipeline.trial_images(inputs[k], self.config)
        return {"images": images, "reference": k == 0}

    def check(self, inputs, result: dict) -> list[str]:
        images = result["images"]
        if images.shape != (1, 90, 500):
            return [f"image stack shape {images.shape} != (1, 90, 500)"]
        if not np.all(np.isfinite(images)):
            return ["image holds non-finite values"]
        if result["reference"]:
            return compare_reference(images[0])
        return []


def compare_reference(image: np.ndarray) -> list[str]:
    """Compare the reference trial's image with the stored REFERENCE."""
    ref = np.load(REFERENCE)
    if image.shape != tuple(ref["shape"]):
        return [f"reference image shape {image.shape} != {tuple(ref['shape'])}"]
    tol = REFERENCE_RTOL * float(ref["max_abs"])
    diffs = [
        np.abs(image.sum(axis=1) - ref["row_sums"]).max() / image.shape[1],
        np.abs(image.sum(axis=0) - ref["col_sums"]).max() / image.shape[0],
        np.abs(image[:, :: ref["stride"]] - ref["columns"]).max(),
    ]
    worst = max(float(d) for d in diffs)
    if not worst <= tol:
        return [f"reference image differs by {worst:.3e} > {tol:.3e}"]
    return []


class Significance:
    """One C4->C3 map given Fz/Cz/Pz, then its circular-shift surrogates."""

    name = "significance"
    op_label = "map_plus_surrogates_s"

    def __init__(self, scratch: str):
        self.cgc = RunConfig(**DECODE_CONFIG).cgc_config()

    def setup(self, seed: int):
        # a "left" trial couples C4 into C3 over samples 250..749
        trial = _bandpassed_trials(seed, 1, 4.0)[0]
        names = list(trial.channel_names)
        crop = trial.trials[0].data[:, 250:750]
        return crop, [names.index(c) for c in ("C4", "C3", "Fz", "Cz", "Pz")]

    def op(self, inputs, i: int) -> dict:
        crop, (src, dst, *cond) = inputs
        t0 = time.perf_counter()
        cgc_map = causality.tf_cgc_map(crop, src, dst, cond, 250.0, self.cgc)
        t1 = time.perf_counter()
        mask = causality.significance_test(
            cgc_map, crop, self.cgc, SURROGATES, SURROGATE_LEVEL, seed=i
        )
        t2 = time.perf_counter()
        return {
            "mask": mask,
            "grid": cgc_map.values.shape,
            "map_s": t1 - t0,
            "surrogate_s": (t2 - t1) / SURROGATES,
            "significant_pct": 100.0 * float(np.mean(mask)),
        }

    def check(self, inputs, result: dict) -> list[str]:
        mask = result["mask"]
        if mask.shape != result["grid"] or mask.dtype != bool:
            return [f"mask {mask.shape}/{mask.dtype} does not match grid {result['grid']}"]
        return []


def band_images(rng, n: int, conflicts: int):
    """Generated 90-row images whose class sets which band of rows is active.

    Label +1 raises rows 10..29 and label -1 rows 55..74, each over a
    random half of the columns, on unit noise.  The last ``conflicts``
    images repeat earlier ones with the opposite label.  A learner can
    memorize noise, but not both labels of one image, so no learner fits
    the training set exactly and boosting goes on past its first round.
    """
    k = n - conflicts
    labels = rng.choice([-1, 1], size=k)
    images = rng.standard_normal((k, 90, IMAGE_WIDTH))
    for i, label in enumerate(labels):
        rows = slice(10, 30) if label == 1 else slice(55, 75)
        start = rng.integers(0, IMAGE_WIDTH // 2)
        images[i, rows, start : start + IMAGE_WIDTH // 2] += 0.6
    twins = rng.choice(k, size=conflicts, replace=False)
    return (
        np.concatenate([images, images[twins]]),
        np.concatenate([labels, -labels[twins]]),
    )


class Train:
    """Boosted ConvNet training and ensemble prediction, no imaging."""

    name = "train"
    op_label = "train_s per optimizer step"

    def __init__(self, scratch: str):
        self.base = RunConfig().convnet_config()

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        train = band_images(rng, TRAIN_IMAGES, CONFLICTS)
        test = band_images(rng, TEST_IMAGES, 0)
        return train, test, seed

    def op(self, inputs, i: int) -> dict:
        (x, y), (x_test, y_test), seed = inputs
        batches = 0
        step = convnet.loss_and_gradients

        def counted(*args, **kwargs):
            nonlocal batches
            batches += 1
            return step(*args, **kwargs)

        # count the optimizer steps that early stopping and boosting let run
        convnet.loss_and_gradients = counted
        try:
            t0 = time.perf_counter()
            ensemble = boosting.adaboost_train(
                x, y, chi=CHI, base_config=self.base, seed=seed
            )
            pred = boosting.ensemble_predict(ensemble, x_test)
            elapsed = time.perf_counter() - t0
        finally:
            convnet.loss_and_gradients = step
        return {
            "units": batches,
            "train_s": elapsed,
            "members": len(ensemble.members),
            "accuracy_pct": 100.0 * float(np.mean(pred == y_test)),
        }

    def check(self, inputs, result: dict) -> list[str]:
        if result["members"] < 2:
            return [f"boosting stopped after {result['members']} member"]
        return []


WORKLOADS = {w.name: w for w in (Decode, CropFullscale, Significance, Train)}
