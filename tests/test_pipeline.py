import ctypes
import multiprocessing
import os
import subprocess
import sys
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfcgc import boosting, causality, pipeline
from tfcgc.images import (
    ELECTRODE_ORDER,
    IMAGE_PAIRS,
    assemble_image,
    electrode_representation,
)
from tfcgc.pipeline import (
    ConfigError,
    DataError,
    RunConfig,
    SynthSpec,
    TrialSet,
    bandpass,
    gridsearch,
    load_trials,
    run_pipeline,
    save_trials,
    synth_generate,
    trial_images,
)

CHEAP_RUN = RunConfig(orders=(3,), scale=2, lags=2, init_window=20)


def tiny_synth(trials_per_class=2, seconds=2.0, split="train", seed=0):
    return synth_generate(
        SynthSpec(
            trials_per_class=trials_per_class,
            trial_seconds=seconds,
            split=split,
        ),
        seed=seed,
    )


class TestManifestIO:
    def test_save_load_round_trip(self, tmp_path):
        ts = tiny_synth()
        manifest = save_trials(ts, tmp_path / "data")
        back = load_trials(manifest)
        assert back.sampling_rate == ts.sampling_rate
        assert back.channel_names == ts.channel_names
        assert len(back) == len(ts)
        for a, b in zip(ts.trials, back.trials):
            np.testing.assert_array_equal(a.data, b.data)
            assert a.label == b.label
            assert a.split == b.split

    def test_split_subsets(self, tmp_path):
        train = tiny_synth(split="train")
        test = tiny_synth(trials_per_class=1, split="test", seed=1)
        merged = TrialSet(
            train.trials + test.trials, train.channel_names, 250.0
        )
        manifest = save_trials(merged, tmp_path / "d")
        back = load_trials(manifest)
        assert len(back.subset("train")) == 4
        assert len(back.subset("test")) == 2

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("trial_file,label,split\nx.csv,left,train\n")
        with pytest.raises(DataError, match="sidecar"):
            load_trials(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# fs: 250\nfile,lab,split\n")
        with pytest.raises(DataError, match="header"):
            load_trials(path)

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# fs: 250\ntrial_file,label,split\n")
        with pytest.raises(DataError, match="no trials"):
            load_trials(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# fs: 250\ntrial_file,label,split\nx.csv,up,train\n")
        with pytest.raises(DataError, match="left or right"):
            load_trials(path)

    def test_missing_trial_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# fs: 250\ntrial_file,label,split\nnope.csv,left,train\n")
        with pytest.raises(DataError, match="missing trial file"):
            load_trials(path)

    def test_non_numeric_cell(self, tmp_path):
        (tmp_path / "t.csv").write_text("Fz,C3\n0.1,0.2\n0.3,oops\n")
        path = tmp_path / "m.csv"
        path.write_text("# fs: 250\ntrial_file,label,split\nt.csv,left,train\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_trials(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, tmp_path, cell):
        (tmp_path / "t.csv").write_text(f"Fz,C3\n0.1,0.2\n0.3,{cell}\n")
        path = tmp_path / "m.csv"
        path.write_text("# fs: 250\ntrial_file,label,split\nt.csv,left,train\n")
        with pytest.raises(DataError, match=r"t\.csv:3: non-finite sample"):
            load_trials(path)

    def test_superset_channels_load(self, tmp_path):
        names = "Fz,C3,Cz,C4,Pz,EOG"
        rows = "\n".join(",".join("0.1" for _ in range(6)) for _ in range(20))
        (tmp_path / "t.csv").write_text(names + "\n" + rows + "\n")
        path = tmp_path / "m.csv"
        path.write_text("# fs: 250\ntrial_file,label,split\nt.csv,right,test\n")
        back = load_trials(path)
        assert back.channel_names == ("Fz", "C3", "Cz", "C4", "Pz", "EOG")
        assert back.trials[0].data.shape == (6, 20)


class TestBandpass:
    def make_set(self, signal):
        return TrialSet(
            [pipeline.Trial(signal[None], 1, "t0")], ("C3",), 250.0
        )

    def test_passband_amplitude(self):
        t = np.arange(2500) / 250.0
        sine = np.sin(2 * np.pi * 10.0 * t)
        out = bandpass(self.make_set(sine), 6.0, 15.0).trials[0].data[0]
        mid = slice(250, 2250)
        assert np.abs(out[mid]).max() == pytest.approx(1.0, rel=0.02)

    def test_stopband_attenuation(self):
        t = np.arange(2500) / 250.0
        sine = np.sin(2 * np.pi * 2.0 * t)
        out = bandpass(self.make_set(sine), 6.0, 15.0).trials[0].data[0]
        mid = slice(250, 2250)
        assert np.abs(out[mid]).max() < 0.1

    def test_zero_phase_symmetry(self):
        impulse = np.zeros(1001)
        impulse[500] = 1.0
        out = bandpass(self.make_set(impulse), 6.0, 15.0).trials[0].data[0]
        # symmetric up to the filter's own round-off at the padded edges
        np.testing.assert_allclose(out, out[::-1], atol=1e-6 * np.abs(out).max())

    def test_shortest_trial(self):
        rng = np.random.default_rng(5)
        out = bandpass(self.make_set(rng.standard_normal(28)), 6.0, 15.0)
        assert out.trials[0].data.shape == (1, 28)
        with pytest.raises(DataError, match="^trial t0: 27 samples, the band-pass needs at least 28$"):
            bandpass(self.make_set(rng.standard_normal(27)), 6.0, 15.0)

    def test_invalid_band(self):
        ts = self.make_set(np.zeros(100))
        with pytest.raises(DataError):
            bandpass(ts, 15.0, 6.0)
        with pytest.raises(DataError):
            bandpass(ts, 6.0, 200.0)


class TestSynthGenerate:
    def test_deterministic(self):
        a = tiny_synth(seed=5)
        b = tiny_synth(seed=5)
        c = tiny_synth(seed=6)
        np.testing.assert_array_equal(a.trials[0].data, b.trials[0].data)
        assert not np.array_equal(a.trials[0].data, c.trials[0].data)

    def test_instability_rejected(self):
        with pytest.raises(ConfigError, match="generator spectral radius"):
            synth_generate(SynthSpec(pole_radius=1.01))
        with pytest.raises(ConfigError, match="generator spectral radius"):
            synth_generate(SynthSpec(pole_radius=1.0))
        # one-directional coupling is block-triangular: it cannot move the
        # eigenvalues, so even a huge strength stays stable
        synth_generate(SynthSpec(trials_per_class=1, trial_seconds=0.1, coupling=5.0))

    @settings(max_examples=200, deadline=None)
    @given(
        radius=st.floats(-1, 1, exclude_min=True, exclude_max=True),
        omega=st.floats(allow_nan=False, allow_infinity=False),
        strength=st.floats(-1e6, 1e6),
        label=st.sampled_from([1, -1]),
    )
    def test_coupled_radius_is_pole_radius(self, radius, omega, strength, label):
        """The coupled companion matrix has the uncoupled characteristic
        polynomial (z^2 - a1 z - a2)^5, so every eigenvalue has modulus
        |pole_radius|, the one bound ``SynthSpec`` checks.  Near omega = 0 or
        pi the matrix is nearly defective, and LAPACK's eigenvalues carry
        rounding of order (eps (1 + |coupling|))^(1/4)."""
        spec = SynthSpec(pole_radius=radius, coupling=strength)
        n_ch = len(spec.channel_names)
        index = {name: i for i, name in enumerate(spec.channel_names)}
        a1, a2 = 2 * radius * np.cos(omega), -(radius**2)
        lag1 = np.diag(np.full(n_ch, a1))
        for (src, dst), value in spec.schedules(label).items():
            lag1[index[dst], index[src]] = value
        companion = np.block(
            [[lag1, a2 * np.eye(n_ch)], [np.eye(n_ch), np.zeros((n_ch, n_ch))]]
        )
        eps = np.finfo(float).eps
        z = 2 * np.exp(2j * np.pi * np.arange(2 * n_ch + 1) / (2 * n_ch + 1))
        det = np.linalg.det(z[:, None, None] * np.eye(2 * n_ch) - companion)
        np.testing.assert_allclose(det, (z**2 - a1 * z - a2) ** n_ch, rtol=np.sqrt(eps))
        moduli = np.abs(np.linalg.eigvals(companion))
        assert np.abs(moduli - abs(radius)).max() <= 4 * (eps * (1 + abs(strength))) ** 0.25

    def test_trial_shapes_and_labels(self):
        ts = tiny_synth()
        assert len(ts) == 4
        assert all(t.data.shape == (5, 500) for t in ts.trials)
        assert sorted(t.label for t in ts.trials) == [-1, -1, 1, 1]


def reference_synth(spec, seed):
    """The generator one trial at a time, one recursion step per sample:
    the oracle for ``synth_generate``.  Returns (data, label, id, split)
    per trial."""
    n = int(round(spec.sampling_rate * spec.trial_seconds))
    n_ch = len(spec.channel_names)
    index = {name: i for i, name in enumerate(spec.channel_names)}
    omega = 2 * np.pi * spec.oscillation_freq / spec.sampling_rate
    a1 = 2 * spec.pole_radius * np.cos(omega)
    a2 = -spec.pole_radius**2
    per_class = spec.trials_per_class
    if spec.split == "test" and spec.test_trials_per_class is not None:
        per_class = spec.test_trials_per_class
    trials = []
    for label in (1, -1):
        schedules = spec.schedules(label)
        lo = int(spec.window[0] * n)
        hi = int(spec.window[1] * n)
        for k in range(per_class):
            trial_id = f"{spec.split}_{'left' if label == 1 else 'right'}_{k:03d}"
            seed_seq = np.random.SeedSequence([seed, 0 if label == 1 else 1, k])
            rng = np.random.default_rng(seed_seq)
            e = spec.noise_scale * rng.standard_normal((n_ch, n))
            x = np.zeros((n_ch, n))
            for t in range(2, n):
                x[:, t] = a1 * x[:, t - 1] + a2 * x[:, t - 2] + e[:, t]
                if lo <= t < hi:
                    for (src, dst), strength in schedules.items():
                        x[index[dst], t] += strength * x[index[src], t - 1]
            trials.append((x, label, trial_id, spec.split))
    return trials


class TestSynthReference:
    """One time loop over every trial equals the per-trial recursion bit for bit."""

    @pytest.mark.parametrize(
        "spec, seed",
        [
            (SynthSpec(trials_per_class=30, trial_seconds=4.0), 11),
            (SynthSpec(trials_per_class=20, split="test"), 77),
            (SynthSpec(trials_per_class=5, trial_seconds=4.0), 2001),
            (
                SynthSpec(
                    trials_per_class=5, test_trials_per_class=1,
                    trial_seconds=4.0, split="test",
                ),
                2002,
            ),
            (SynthSpec(trials_per_class=3, test_trials_per_class=0, split="test"), 5),
            (
                SynthSpec(
                    trials_per_class=2, trial_seconds=1.0, window=(0.0, 1.0),
                    coupling=0.3, noise_scale=2.5, oscillation_freq=12.0,
                    pole_radius=0.8,
                ),
                3,
            ),
            (SynthSpec(trials_per_class=2, trial_seconds=0.004), 1),
        ],
        ids=["crit15-train", "crit15-test", "decode-train", "decode-test",
             "empty-test", "whole-window", "one-sample"],
    )
    def test_equals_per_trial_recursion(self, spec, seed):
        got = synth_generate(spec, seed)
        trials = reference_synth(spec, seed)
        assert len(got.trials) == len(trials)
        for trial, (data, label, trial_id, split) in zip(got.trials, trials):
            assert (trial.label, trial.trial_id, trial.split) == (label, trial_id, split)
            assert trial.data.shape == data.shape
            assert trial.data.flags.c_contiguous
            assert trial.data.tobytes() == data.tobytes()
        assert got.channel_names == spec.channel_names
        assert got.sampling_rate == spec.sampling_rate


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


#: images one 4 s trial (5 crops) twice on one process, at criterion-15
#: settings; prints whether the images repeat and the second call's minor
#: page faults per crop
REIMAGE_PROBE = """
import resource
import numpy as np
from tfcgc import pipeline

spec = pipeline.SynthSpec(trials_per_class=1, trial_seconds=4.0)
data = pipeline.bandpass(pipeline.synth_generate(spec, seed=5), 6.0, 15.0)
trial = pipeline.TrialSet(data.trials[:1], data.channel_names, data.sampling_rate)
config = pipeline.RunConfig(orders=(3,), lags=2, time_decimation=10, threads=1)
first = pipeline.trial_images(trial, config)[0]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
second = pipeline.trial_images(trial, config)[0]
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(np.array_equal(first, second), (after - before) / len(second))
"""


class TestTrialImages:
    def test_images_from_synth(self):
        ts = tiny_synth(trials_per_class=1, seconds=2.0)
        filtered = bandpass(ts, 6.0, 15.0)
        images, labels, ids, groups = trial_images(filtered, CHEAP_RUN)
        assert images.shape == (2, 90, 500)
        assert np.isfinite(images).all()
        assert labels.tolist() == [1, -1]
        assert groups == [[0], [1]]
        assert ids[0].startswith("train_left")

    def test_missing_channel_rejected(self):
        ts = TrialSet(
            [pipeline.Trial(np.zeros((2, 500)), 1, "t")], ("Fz", "C3"), 250.0
        )
        with pytest.raises(DataError, match="missing"):
            trial_images(ts, CHEAP_RUN)

    @pytest.mark.skipif(not has_mallopt(), reason="libc has no mallopt")
    def test_later_crops_reuse_freed_memory(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, "-c", REIMAGE_PROBE],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        same, faults_per_crop = done.stdout.split()
        assert same == "True"
        # each crop faulted in about 1,000 fresh pages when glibc gave
        # freed arrays back to the system
        assert float(faults_per_crop) < 100

    def test_keep_freed_memory_without_mallopt(self, monkeypatch):
        def no_libc(name):
            raise OSError("no C library")

        for cdll in (no_libc, lambda name: object()):  # object() has no mallopt
            monkeypatch.setattr(ctypes, "CDLL", cdll)
            assert pipeline._keep_freed_memory() is None


def all_pairs_image(crop, electrodes, config):
    """A crop's image from every ordered pair's map, and those maps."""
    maps = causality.pairwise_maps(crop, range(5), 250.0, config.cgc_config())
    named = {(electrodes[s], electrodes[k]): m.values for (s, k), m in maps.items()}
    reps = [electrode_representation(named, e) for e in electrodes]
    return assemble_image(reps, electrodes).values, maps


class TestImagePairs:
    @pytest.mark.parametrize(
        "config",
        [
            RunConfig(
                orders=(3,),
                lags=2,
                time_decimation=10,
                electrodes=("Pz", "C4", "Fz", "C3", "Cz"),
            ),
            RunConfig(),
        ],
        ids=["criterion15", "fullscale"],
    )
    def test_image_equals_all_pairs_image(self, monkeypatch, config):
        trials = bandpass(tiny_synth(trials_per_class=1, seed=5), 6.0, 15.0)
        trials.trials = trials.trials[:1]
        read = []
        real = pipeline.pairwise_maps

        def keeping(*args, **kwargs):
            read.append(real(*args, **kwargs))
            return read[-1]

        monkeypatch.setattr(pipeline, "pairwise_maps", keeping)
        images, _, _, _ = trial_images(trials, config)
        electrodes = list(config.electrodes)
        crop = trials.trials[0].data[[ELECTRODE_ORDER.index(e) for e in electrodes]]
        expected, every = all_pairs_image(crop, electrodes, config)
        np.testing.assert_array_equal(images[0], expected)
        (maps,) = read
        assert sorted(maps) == sorted(
            (electrodes.index(s), electrodes.index(k)) for s, k in IMAGE_PAIRS
        )
        for pair, cgc_map in maps.items():
            np.testing.assert_array_equal(cgc_map.values, every[pair].values)

    def test_crop_fits_19_equations_and_evaluates_14_pairs(self, monkeypatch):
        equations, pairs = [], []
        fit_equations, pair_values = causality.fit_equations, causality._pair_values

        def counting_fits(signals, eqs, rofr):
            equations.extend(eqs)
            return fit_equations(signals, eqs, rofr)

        def counting_pairs(full, restricted, *args):
            pairs.extend((src, k) for src, sinks, _ in restricted for k in sinks)
            return pair_values(full, restricted, *args)

        monkeypatch.setattr(causality, "fit_equations", counting_fits)
        monkeypatch.setattr(causality, "_pair_values", counting_pairs)
        trials = bandpass(tiny_synth(trials_per_class=1), 6.0, 15.0)
        trials.trials = trials.trials[:1]
        trial_images(trials, CHEAP_RUN)
        assert len(equations) == 19  # 5 full + 14 restricted
        assert len(pairs) == 14
        named = {(ELECTRODE_ORDER[s], ELECTRODE_ORDER[k]) for s, k in pairs}
        assert named == set(IMAGE_PAIRS)


def fake_crop_image(unit):
    """Orchestration stand-in for one crop: a label-coded image."""
    *_, name = unit
    base = np.zeros((90, 64))
    # synthetic trial ids name their class
    rows = slice(0, 45) if "_left_" in name else slice(45, 90)
    base[rows] += 1.0
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    return base + 0.05 * rng.standard_normal((90, 64))


class TestRunPipeline:
    def run_config(self, tmp_path=None):
        return RunConfig(
            max_epochs=10,
            early_stop_patience=5,
            chi=2,
            batch_size=8,
            out_dir=str(tmp_path) if tmp_path else None,
        )

    def make_data(self):
        # 4 s trials: 5 crops each
        train = tiny_synth(trials_per_class=4, seconds=4.0, split="train")
        test = tiny_synth(trials_per_class=2, seconds=4.0, split="test", seed=9)
        return TrialSet(
            train.trials + test.trials, train.channel_names, 250.0
        )

    def test_full_report_and_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_crop_image_unit", fake_crop_image)
        config = self.run_config(tmp_path / "out")
        report = run_pipeline(config, trial_set=self.make_data())
        assert report["n_train_trials"] == 8
        assert report["n_train_crops"] == 40
        ev = report["evaluation"]
        assert ev["tp"] + ev["fp"] + ev["tn"] + ev["fn"] == 4
        assert ev["accuracy"] == 100.0
        out = tmp_path / "out"
        for name in (
            "config.json",
            "report.json",
            "report.csv",
            "report.txt",
            "train_images.grid",
            "test_images.grid",
            "model.ensemble.json",
        ):
            assert (out / name).exists(), name

    def test_empty_test_split(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_crop_image_unit", fake_crop_image)
        data = tiny_synth(trials_per_class=4, split="train")
        report = run_pipeline(self.run_config(), trial_set=data)
        assert "evaluation" not in report
        assert report["n_test_trials"] == 0

    def test_crop_parity(self, monkeypatch):
        """A test trial of 5 crops is voted on; one of 6 is refused, naming
        the trial, before any crop is imaged."""
        train = tiny_synth(trials_per_class=4, split="train")

        def data(seconds):
            test = tiny_synth(1, seconds=seconds, split="test", seed=9)
            return TrialSet(train.trials + test.trials, train.channel_names, 250.0)

        monkeypatch.setattr(pipeline, "_crop_image_unit", fake_crop_image)
        report = run_pipeline(self.run_config(), trial_set=data(4.0))
        assert len(report["evaluation"]["per_trial"]) == 2

        def no_imaging(unit):
            raise AssertionError("imaging started")

        monkeypatch.setattr(pipeline, "_crop_image_unit", no_imaging)
        with pytest.raises(DataError, match="^trial test_left_000: 6 crops"):
            run_pipeline(self.run_config(), trial_set=data(4.5))

    def test_empty_train_split_rejected(self):
        data = tiny_synth(trials_per_class=2, split="test")
        with pytest.raises(DataError, match="training split"):
            run_pipeline(self.run_config(), trial_set=data)

    def test_deterministic_reports(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_crop_image_unit", fake_crop_image)
        data = self.make_data()
        reports = []
        for sub in ("a", "b"):
            config = self.run_config(tmp_path / sub)
            run_pipeline(config, trial_set=data)
            reports.append((tmp_path / sub / "report.csv").read_bytes())
        assert reports[0] == reports[1]


CROP_LOG = None  # the file ``logged_crop_image`` appends each crop's name to


def logged_crop_image(unit):
    """``fake_crop_image`` that first records its crop, then takes 50 ms;
    a pool's forked workers see the log path the test set."""
    with open(CROP_LOG, "a") as fh:
        fh.write(unit[-1] + "\n")
    time.sleep(0.05)
    return fake_crop_image(unit)


class TestOverlappedSchedule:
    """One pool per run: test crops queue behind training crops and are
    imaged while the ensemble trains."""

    def data(self, test_per_class):
        train = tiny_synth(trials_per_class=1, split="train")
        test = tiny_synth(test_per_class, seconds=4.0, split="test", seed=9)
        return TrialSet(train.trials + test.trials, train.channel_names, 250.0)

    def logged_crops(self, tmp_path, monkeypatch):
        log = tmp_path / "crops.log"
        monkeypatch.setattr(sys.modules[__name__], "CROP_LOG", str(log))
        monkeypatch.setattr(pipeline, "_crop_image_unit", logged_crop_image)
        return lambda: log.read_text().splitlines()

    def config(self):
        return RunConfig(max_epochs=2, chi=1, batch_size=8, threads=2)

    def test_every_crop_imaged_once(self, tmp_path, monkeypatch):
        crops = self.logged_crops(tmp_path, monkeypatch)
        report = run_pipeline(self.config(), trial_set=self.data(1))
        assert report["n_train_crops"] == 2
        assert len(report["evaluation"]["per_trial"]) == 2
        names = crops()
        assert len(names) == len(set(names)) == 2 + 2 * 5
        assert multiprocessing.active_children() == []

    def test_training_error_cancels_queued_test_crops(self, tmp_path, monkeypatch):
        crops = self.logged_crops(tmp_path, monkeypatch)

        def failing(*args, **kwargs):
            raise RuntimeError("training failed")

        monkeypatch.setattr(boosting, "adaboost_train", failing)
        with pytest.raises(RuntimeError, match="training failed"):
            run_pipeline(self.config(), trial_set=self.data(4))
        imaged = [name for name in crops() if name.startswith("trial test_")]
        # 40 test crops were queued; only those already handed to a
        # worker (at most a few) may still run
        assert len(imaged) < 20
        assert multiprocessing.active_children() == []


class TestGridsearch:
    def test_search_records(self):
        rng = np.random.default_rng(1)
        n = 20
        labels = np.array([1, -1] * (n // 2))
        images = 0.1 * rng.standard_normal((n, 90, 64))
        images[labels == 1, :45] += 1.0
        images[labels == -1, 45:] += 1.0
        results = gridsearch(
            images,
            labels,
            kernels=(15,),
            filter_counts=(2,),
            block_counts=(1, 2),
            folds=4,
            max_epochs=5,
        )
        assert len(results) == 2
        assert results[0]["mean_accuracy"] >= results[1]["mean_accuracy"]
        assert all(r["folds"] == 4 for r in results)

    def test_infeasible_configs_skipped(self):
        rng = np.random.default_rng(2)
        labels = np.array([1, -1] * 4)
        images = rng.standard_normal((8, 90, 20))
        results = gridsearch(
            images, labels, kernels=(15,), filter_counts=(2,),
            block_counts=(2, 5), folds=2, max_epochs=1,
        )
        assert results == []
