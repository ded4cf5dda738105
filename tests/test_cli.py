import collections
import configparser
import dataclasses
import itertools
import json
import multiprocessing
import pathlib
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from tfcgc import boosting, causality, cli, convnet, gridio, identify, pipeline
from tfcgc.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    build_run_config,
    main,
)
from tfcgc.errors import ConfigError, NumericError
from tfcgc.images import ELECTRODE_ORDER

CHEAP_CFG = """
[causality]
orders = 3
scale = 2
lags = 2
init_window = 20
"""


#: a stand-in for a saved ensemble, so `eval` passes its model check
NO_MEMBERS = boosting.BoostEnsemble([], 0, [], [], 0, 0)


def write_cfg(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self):
        assert main(["synth", "--bogus"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK


class TestConfigFile:
    def test_unknown_section(self, tmp_path):
        cfg = write_cfg(tmp_path, "[mystery]\nx = 1\n")
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "d")]) == EXIT_USAGE

    def test_unknown_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "[run]\nwarp_speed = 9\n")
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "d")]) == EXIT_USAGE

    def test_bad_value(self, tmp_path):
        cfg = write_cfg(tmp_path, "[run]\nseed = notanumber\n")
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "d")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[causality]\nlags = 2\n[causality]\norders = 3\n", "[line 3]"),
            ("[causality]\nlags = 2\nlags = 3\n", "[line 3]"),
            ("lags = 2\n[causality]\n", "line: 1"),
        ],
        ids=["duplicate-section", "duplicate-key", "no-section-header"],
    )
    def test_malformed_file(self, tmp_path, capsys, text, where):
        cfg = write_cfg(tmp_path, text)
        code = main(["synth", "--config", cfg, "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: malformed config file: ")
        assert repr(cfg) in err and where in err
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(
            ["synth", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "d")]
        ) == EXIT_DATA

    def test_values_applied(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[data]\nband_low = 7\nband_high = 13\n"
            "[causality]\norders = 3,4\nscale = 2\n"
            "[run]\nseed = 11\nthreads = 2\n",
        )

        class Args:
            config = cfg
            seed = None
            threads = None
            out = None
            manifest = None

        rc = build_run_config(Args())
        assert rc.band == (7.0, 13.0)
        assert rc.orders == (3, 4)
        assert rc.scale == 2
        assert rc.seed == 11
        assert rc.threads == 2

    def test_cli_flags_override_config(self, tmp_path):
        cfg = write_cfg(tmp_path, "[run]\nseed = 11\n")

        class Args:
            config = cfg
            seed = 99
            threads = None
            out = "outdir"
            manifest = None

        rc = build_run_config(Args())
        assert rc.seed == 99
        assert rc.out_dir == "outdir"


class TestSynthCommand:
    def test_writes_manifest(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "[synth]\ntrials_per_class = 2\ntest_trials_per_class = 1\n"
            "trial_seconds = 1.0\n",
        )
        out = tmp_path / "fixture"
        assert main(["synth", "--config", cfg, "--out", str(out), "--seed", "3"]) == EXIT_OK
        manifest = capsys.readouterr().out.strip()
        ts = pipeline.load_trials(manifest)
        assert len(ts.subset("train")) == 4
        assert len(ts.subset("test")) == 2
        assert ts.sampling_rate == 250.0

    def test_deterministic(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "[synth]\ntrials_per_class = 1\ntrial_seconds = 0.5\n"
        )
        for sub in ("a", "b"):
            assert main(
                ["synth", "--config", cfg, "--out", str(tmp_path / sub), "--seed", "5"]
            ) == EXIT_OK
        a = (tmp_path / "a" / "manifest.csv").read_bytes()
        b = (tmp_path / "b" / "manifest.csv").read_bytes()
        assert a == b
        ta = (tmp_path / "a" / "train_left_000.csv").read_bytes()
        tb = (tmp_path / "b" / "train_left_000.csv").read_bytes()
        assert ta == tb

    @pytest.mark.parametrize(
        "setting, message",
        [
            (
                "pole_radius = nan",
                "[synth] pole_radius must be in (-1, 1), got nan: it is the "
                "generator spectral radius",
            ),
            (
                "oscillation_freq = nan",
                "[synth] oscillation_freq must be at least 0, got nan",
            ),
            ("coupling = nan", "[synth] coupling must be finite, got nan"),
            (
                "trials_per_class = -2",
                "[synth] trials_per_class must be at least 1, got -2",
            ),
            (
                "sampling_rate = 0",
                "[synth] sampling_rate must be greater than 0, got 0.0",
            ),
            ("noise_scale = nan", "[synth] noise_scale must be greater than 0, got nan"),
            (
                "trials_per_class = 0",
                "[synth] trials_per_class must be at least 1, got 0",
            ),
            (
                "trial_seconds = 0.001",
                "[synth] trial_seconds 0.001 at sampling_rate 250 makes trials of 0 "
                "samples, the band-pass needs at least 28",
            ),
            (
                "window_low = 0.9",
                "[synth] window_low and window_high must satisfy 0 <= low < high "
                "<= 1, got 0.9 and 0.75",
            ),
            (
                "sampling_rate = 1e308",
                "[synth] trial_seconds 4 at sampling_rate 1e+308 makes trials of inf "
                "samples",
            ),
            (
                "trial_seconds = 1e308",
                "[synth] trial_seconds 1e+308 at sampling_rate 250 makes trials of inf "
                "samples",
            ),
        ],
    )
    def test_bad_setting_refused_before_writing(self, tmp_path, capsys, setting, message):
        cfg = write_cfg(tmp_path, f"[synth]\n{setting}\n")
        out = tmp_path / "fixture"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["coupling", "noise_scale", "oscillation_freq"])
    def test_overflowing_samples_refused_before_writing(self, tmp_path, capsys, key):
        # each setting is finite and in range, but its samples overflow
        cfg = write_cfg(tmp_path, f"[synth]\ntrials_per_class = 1\n{key} = 1e308\n")
        out = tmp_path / "fixture"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings too
            code = main(["synth", "--config", cfg, "--out", str(out)])
        shown = {"coupling": "0.5", "noise_scale": "1", "oscillation_freq": "10", key: "1e+308"}
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip() == (
            f"error: [synth] coupling {shown['coupling']}, noise_scale "
            f"{shown['noise_scale']} and oscillation_freq {shown['oscillation_freq']} "
            "make non-finite samples"
        )
        assert not out.exists()

    def test_negative_seed_refused_before_writing(self, tmp_path, capsys):
        out = tmp_path / "fixture"
        assert main(["synth", "--seed", "-1", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.strip() == "error: --seed must be at least 0, got -1"
        assert not out.exists()


class TestCausalityCommand:
    def test_map_serialization(self, tmp_path, capsys):
        ts = pipeline.synth_generate(
            pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0), seed=0
        )
        data_dir = tmp_path / "data"
        pipeline.save_trials(ts, data_dir)
        cfg = write_cfg(tmp_path, CHEAP_CFG)
        out = str(tmp_path / "map.grid")
        code = main(
            [
                "causality",
                "--config", cfg,
                "--trial", str(data_dir / "train_left_000.csv"),
                "--source", "C4",
                "--sink", "C3",
                "--out", out,
            ]
        )
        assert code == EXIT_OK
        arrays, axes, meta = gridio.read_grid(out)
        assert arrays["values"].shape == (500, 90)
        assert meta["source"] == "C4" and meta["sink"] == "C3"
        assert axes["freq"][0] == 6.0

    def test_unknown_electrode(self, tmp_path):
        ts = pipeline.synth_generate(
            pipeline.SynthSpec(trials_per_class=1, trial_seconds=0.5), seed=0
        )
        data_dir = tmp_path / "data"
        pipeline.save_trials(ts, data_dir)
        code = main(
            [
                "causality",
                "--trial", str(data_dir / "train_left_000.csv"),
                "--source", "Oz",
                "--sink", "C3",
            ]
        )
        assert code == EXIT_DATA

    def test_missing_trial_file(self, tmp_path):
        code = main(
            [
                "causality",
                "--trial", str(tmp_path / "nope.csv"),
                "--source", "C4",
                "--sink", "C3",
            ]
        )
        assert code == EXIT_DATA

    def test_same_source_and_sink(self, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit started")

        monkeypatch.setattr(causality, "fit_equations", no_fit)
        monkeypatch.setattr(pipeline, "_load_trial_csv", no_fit)
        code = main(
            [
                "causality",
                "--trial", str(tmp_path / "trial.csv"),
                "--source", "C3",
                "--sink", "C3",
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.strip() == "error: --source and --sink must differ, both are C3"
        assert "Traceback" not in err

    @pytest.mark.parametrize("fs", ["nan", "inf", "-inf", "0", "-250"])
    def test_rate_not_finite_and_positive(self, tmp_path, capsys, monkeypatch, fs):
        def no_reading(*args, **kwargs):
            raise AssertionError("trial read")

        monkeypatch.setattr(pipeline, "_load_trial_csv", no_reading)
        code = main(
            ["causality", "--trial", str(tmp_path / "trial.csv"), "--source", "C4",
             "--sink", "C3", f"--fs={fs}"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.strip() == f"error: --fs must be finite and positive, got {float(fs):g}"

    def test_flat_sink_channel(self, tmp_path, capsys):
        ts = pipeline.synth_generate(
            pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0), seed=0
        )
        c3 = ts.channel_names.index("C3")
        for trial in ts.trials:
            trial.data[c3] = 0.0
        data_dir = tmp_path / "data"
        pipeline.save_trials(ts, data_dir)
        code = main(
            [
                "causality",
                "--config", write_cfg(tmp_path, CHEAP_CFG),
                "--trial", str(data_dir / "train_left_000.csv"),
                "--source", "C4",
                "--sink", "C3",
                "--out", str(tmp_path / "map.grid"),
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert err.startswith("numeric failure: ")
        assert "Traceback" not in err


class TestImageCommand:
    def test_missing_manifest(self, tmp_path):
        code = main(["image", "--manifest", str(tmp_path / "nope.csv")])
        assert code == EXIT_DATA

    def test_exports_images(self, tmp_path, capsys):
        ts = pipeline.synth_generate(
            pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0), seed=1
        )
        data_dir = tmp_path / "data"
        manifest = pipeline.save_trials(ts, data_dir)
        cfg = write_cfg(tmp_path, CHEAP_CFG)
        out = tmp_path / "imgs"
        code = main(
            ["image", "--config", cfg, "--manifest", manifest, "--out", str(out)]
        )
        assert code == EXIT_OK
        arrays, _, meta = gridio.read_grid(out / "images.grid")
        assert arrays["images"].shape == (2, 90, 500)
        pgms = sorted(out.glob("*.pgm"))
        assert len(pgms) == 2
        header = pgms[0].read_bytes()[:14]
        assert header.startswith(b"P5\n500 90\n255\n")


class TestGridsearchCommand:
    def test_search_over_saved_images(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        n = 12
        labels = np.array([1, -1] * (n // 2))
        images = 0.1 * rng.standard_normal((n, 90, 64))
        images[labels == 1, :45] += 1.0
        images[labels == -1, 45:] += 1.0
        grid_path = tmp_path / "images.grid"
        gridio.write_grid(
            grid_path, {"images": images, "labels": labels.astype(float)}
        )
        out = tmp_path / "search.csv"
        code = main(
            [
                "gridsearch",
                "--images", str(grid_path),
                "--folds", "3",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("temporal_kernel,")
        assert len(lines) > 1


    @pytest.mark.parametrize("folds", ["1", "0", "-1"])
    def test_fewer_than_two_folds_refused_before_reading(self, tmp_path, capsys, folds):
        grid = str(tmp_path / "missing.grid")
        code = main(["gridsearch", "--images", grid, "--folds", folds])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip() == (
            f"error: --folds must be at least 2, got {folds}"
        )


class TestRunCommand:
    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_even_crop_count_rejected_before_imaging(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_imaging(*args, **kwargs):
            raise AssertionError("imaging started")

        monkeypatch.setattr(pipeline, "_crop_image_unit", no_imaging)
        monkeypatch.setattr(gridio, "load_ensemble", lambda path: NO_MEMBERS)
        # 4.5 s trials give 6 crops of 2 s at a 0.5 s stride
        cfg = write_cfg(
            tmp_path,
            CHEAP_CFG + "[synth]\ntrials_per_class = 1\ntest_trials_per_class = 1\n"
            "trial_seconds = 4.5\n",
        )
        data = tmp_path / "data"
        assert main(["synth", "--config", cfg, "--out", str(data)]) == EXIT_OK
        manifest = capsys.readouterr().out.strip()
        inputs = ["--model", str(tmp_path / "model.json")] if command == "eval" else []
        code = main([command, "--config", cfg, "--manifest", manifest] + inputs)
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: trial test_left_000: 6 crops")
        assert "Traceback" not in err

    def test_trial_shorter_than_crop_rejected(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            CHEAP_CFG + "[synth]\ntrials_per_class = 1\ntest_trials_per_class = 1\n"
            "trial_seconds = 1.5\n",
        )
        data = tmp_path / "data"
        assert main(["synth", "--config", cfg, "--out", str(data)]) == EXIT_OK
        manifest = capsys.readouterr().out.strip()
        code = main(["run", "--config", cfg, "--manifest", manifest])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith(
            "data error: trial test_left_000: crop of 500 samples exceeds trial of 375"
        )
        assert "Traceback" not in err

    def test_fractional_crop_rejected(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            CHEAP_CFG + "[synth]\ntrials_per_class = 1\ntest_trials_per_class = 1\n"
            "[data]\ncrop_seconds = 2.001\n",
        )
        data = tmp_path / "data"
        assert main(["synth", "--config", cfg, "--out", str(data)]) == EXIT_OK
        manifest = capsys.readouterr().out.strip()
        code = main(["run", "--config", cfg, "--manifest", manifest])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: crop (2.001 s) and stride (0.5 s) must span")
        assert "Traceback" not in err

    def test_worker_failure_names_trial_and_crop(self, tmp_path, capsys):
        ts = pipeline.synth_generate(
            pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0), seed=0
        )
        c3 = ts.channel_names.index("C3")
        for trial in ts.trials:
            trial.data[c3] = 0.0
        manifest = pipeline.save_trials(ts, tmp_path / "data")
        code = main(
            [
                "run",
                "--config", write_cfg(tmp_path, CHEAP_CFG),
                "--manifest", manifest,
                "--threads", "2",
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert err.startswith(
            "numeric failure: trial train_left_000, crop at sample 1: "
        )
        assert "Traceback" not in err

    def test_sample_past_the_magnitude_bound_names_trial_and_crop(
        self, tmp_path, capsys
    ):
        ts = pipeline.synth_generate(
            pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0), seed=0
        )
        ts.trials[1].data[1, 250] = 1e158  # finite, so the CSV loads
        manifest = pipeline.save_trials(ts, tmp_path / "data")
        cfg = write_cfg(tmp_path, CHEAP_CFG)
        code = main(["run", "--config", cfg, "--manifest", manifest])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert re.match(
            r"data error: trial train_right_000, crop at sample 1: largest \|sample\| "
            r"\S+ is not below 5.18e\+75, where products of 500-sample second "
            r"moments overflow$",
            err.strip(),
        )

    def test_test_crop_failure_while_training_names_trial_and_crop(
        self, tmp_path, capsys
    ):
        train = pipeline.synth_generate(
            pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0), seed=0
        )
        test = pipeline.synth_generate(
            pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0, split="test"),
            seed=1,
        )
        c3 = test.channel_names.index("C3")
        for trial in test.trials:
            trial.data[c3] = 0.0
        data = pipeline.TrialSet(
            train.trials + test.trials, train.channel_names, 250.0
        )
        manifest = pipeline.save_trials(data, tmp_path / "data")
        cfg = write_cfg(
            tmp_path,
            CHEAP_CFG + "time_decimation = 25\n[classifier]\nfirst_block_filters = 4\n"
            "block_count = 1\nmax_epochs = 2\nchi = 1\n",
        )
        code = main(
            ["run", "--config", cfg, "--manifest", manifest, "--threads", "2"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert err.startswith(
            "numeric failure: trial test_left_000, crop at sample 1: "
        )
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["run", "train"])
    @pytest.mark.parametrize(
        "settings, message",
        [
            (
                "time_decimation = 25\n",
                "error: images of 20 time columns (crops of 500 samples, "
                "time_decimation 25) are too short for the classifier: block 2: "
                "temporal convolution needs 15 samples, have 3",
            ),
            (
                "[classifier]\ntemporal_kernel = 30\n",
                "error: [classifier] temporal_kernel must be in [10, 20], got 30",
            ),
            (
                "time_decimation = 0\n",
                "error: [causality] time_decimation must be at least 1, got 0",
            ),
            (
                "[classifier]\nbatch_size = 0\n",
                "error: [classifier] batch_size must be at least 1, got 0",
            ),
            (
                "[classifier]\nmax_epochs = 0\n",
                "error: [classifier] max_epochs must be at least 1, got 0",
            ),
            (
                "[classifier]\nchi = -1\n",
                "error: [classifier] chi must be at least 1, got -1",
            ),
        ],
    )
    def test_classifier_checked_before_imaging(
        self, tmp_path, capsys, monkeypatch, command, settings, message
    ):
        def no_imaging(*args, **kwargs):
            raise AssertionError("imaging started")

        monkeypatch.setattr(pipeline, "_crop_image_unit", no_imaging)
        cfg = write_cfg(
            tmp_path,
            CHEAP_CFG + settings + "[synth]\ntrials_per_class = 1\n"
            "test_trials_per_class = 1\ntrial_seconds = 2.0\n",
        )
        data = tmp_path / "data"
        assert main(["synth", "--config", cfg, "--out", str(data)]) == EXIT_OK
        manifest = capsys.readouterr().out.strip()
        code = main([command, "--config", cfg, "--manifest", manifest])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.strip() == message
        assert "Traceback" not in err


    def test_train_and_run_word_an_uncountable_crop_alike(
        self, tmp_path, capsys, monkeypatch
    ):
        # 1e308 s is finite, but not as a count of samples at 250 Hz; `run`
        # crops the test split first, `train` the train split only
        monkeypatch.setattr(pipeline, "_crop_image_unit", no_imaging)
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(
            tmp_path,
            "[synth]\ntrials_per_class = 1\ntrial_seconds = 2.0\n"
            "[data]\ncrop_seconds = 1e308\n",
        )
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "data")]) == EXIT_OK
        manifest = capsys.readouterr().out.strip()
        for command in ("train", "run"):
            code = main([command, "--config", cfg, "--manifest", manifest])
            assert code == EXIT_DATA, command
            assert capsys.readouterr().err == (
                "data error: crop_seconds 1e+308 and stride_seconds 0.5 must each "
                "span a finite number of samples at 250 Hz\n"
            ), command


class TestTrainEval:
    def test_train_then_eval_matches_run(self, tmp_path, capsys):
        """`train` saves the model `run` saves, and `eval` of it prints the
        evaluation `run` reports."""
        cfg = write_cfg(
            tmp_path,
            CHEAP_CFG + "time_decimation = 25\n[classifier]\nfirst_block_filters = 4\n"
            "block_count = 1\nmax_epochs = 3\nchi = 2\n[synth]\ntrials_per_class = 3\n"
            "test_trials_per_class = 1\ntrial_seconds = 2.0\n",
        )
        assert main(["synth", "--config", cfg, "--seed", "4", "--out", str(tmp_path)]) == EXIT_OK
        manifest = capsys.readouterr().out.strip()
        common = ["--config", cfg, "--seed", "4", "--manifest", manifest]
        run, model, scores = tmp_path / "run", tmp_path / "model", tmp_path / "eval.json"
        assert main(["run", *common, "--out", str(run)]) == EXIT_OK
        assert main(["train", *common, "--out", str(model)]) == EXIT_OK
        capsys.readouterr()
        saved = str(model / "model.ensemble.json")
        assert main(["eval", *common, "--model", saved, "--out", str(scores)]) == EXIT_OK
        printed = capsys.readouterr().out
        report = json.loads((run / "report.json").read_text())
        files = sorted(p.name for p in model.iterdir())
        members = [f"model.member{j}.ckpt" for j in range(1, report["members"] + 1)]
        assert files == ["model.ensemble.json", *members]
        for name in files:
            assert (model / name).read_bytes() == (run / name).read_bytes(), name
        assert json.loads(scores.read_text()) == json.loads(printed)
        assert json.loads(printed) == report["evaluation"]

    def test_artifacts_identical_across_threads(self, tmp_path, capsys):
        """Every file `run` writes but `config.json`, which records the
        thread count, is byte-identical at 1 and 2 threads."""
        cfg = write_cfg(
            tmp_path,
            CHEAP_CFG + "time_decimation = 25\n[classifier]\nfirst_block_filters = 4\n"
            "block_count = 1\nmax_epochs = 3\nchi = 2\n[synth]\ntrials_per_class = 3\n"
            "test_trials_per_class = 1\ntrial_seconds = 2.0\n",
        )
        assert main(["synth", "--config", cfg, "--seed", "4", "--out", str(tmp_path)]) == EXIT_OK
        manifest = capsys.readouterr().out.strip()
        outs = [tmp_path / "one", tmp_path / "two"]
        for threads, out in zip(("1", "2"), outs):
            args = ["--seed", "4", "--threads", threads, "--out", str(out)]
            assert main(["run", "--config", cfg, "--manifest", manifest, *args]) == EXIT_OK
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        assert {"train_images.grid", "test_images.grid", "report.json"} <= set(files)
        for name in files:
            if name != "config.json":
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.fixture(scope="module")
def saved_trials(tmp_path_factory):
    ts = pipeline.synth_generate(
        pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0), seed=0
    )
    data_dir = tmp_path_factory.mktemp("data")
    return pipeline.save_trials(ts, data_dir), str(data_dir / "train_left_000.csv")


#: one out-of-range setting per ranged key, with the message naming it
RANGE_CASES = [
    ("[causality]\nlags = 0\n", "[causality] lags must be at least 1, got 0"),
    (
        "[causality]\norders = 3, 0\n",
        "[causality] orders must be at least 1 each, got (3, 0)",
    ),
    ("[causality]\nscale = -1\n", "[causality] scale must be at least 0, got -1"),
    (
        "[causality]\nforgetting = 1.5\n",
        "[causality] forgetting must be in (0, 1), got 1.5",
    ),
    (
        "[causality]\ninit_window = 0\n",
        "[causality] init_window must be at least 1, got 0",
    ),
    (
        "[causality]\nregularization = -1\n",
        "[causality] regularization must be at least 0, got -1.0",
    ),
    (
        "[causality]\ntime_decimation = 0\n",
        "[causality] time_decimation must be at least 1, got 0",
    ),
    (
        "[classifier]\ntemporal_kernel = 0\n",
        "[classifier] temporal_kernel must be in [10, 20], got 0",
    ),
    (
        "[classifier]\ntemporal_kernel = 30\n",
        "[classifier] temporal_kernel must be in [10, 20], got 30",
    ),
    (
        "[classifier]\nfirst_block_filters = 0\n",
        "[classifier] first_block_filters must be at least 1, got 0",
    ),
    (
        "[classifier]\nblock_count = 9\n",
        "[classifier] block_count must be in [1, 5], got 9",
    ),
    (
        "[classifier]\nbatch_size = 0\n",
        "[classifier] batch_size must be at least 1, got 0",
    ),
    (
        "[classifier]\nmax_epochs = 0\n",
        "[classifier] max_epochs must be at least 1, got 0",
    ),
    ("[classifier]\nchi = 0\n", "[classifier] chi must be at least 1, got 0"),
    (
        "[classifier]\nearly_stop_patience = -1\n",
        "[classifier] early_stop_patience must be at least 0, got -1",
    ),
    ("[run]\nthreads = 0\n", "[run] threads must be at least 1, got 0"),
    ("[run]\nseed = -1\n", "[run] seed must be at least 0, got -1"),
    ("[data]\ncrop_seconds = nan\n", "[data] crop_seconds must be greater than 0, got nan"),
    (
        "[data]\nstride_seconds = inf\n",
        "[data] stride_seconds must be greater than 0, got inf",
    ),
]


class TestConfigRanges:
    def test_cases_cover_every_ranged_key(self):
        run_keys = {f.name for f in dataclasses.fields(pipeline.RunConfig)}
        ranged = {
            f.name
            for table in (
                pipeline.RunConfig,
                causality.CgcConfig,
                convnet.ConvNetConfig,
                identify.RofrConfig,
            )
            for f in dataclasses.fields(table)
            if f.metadata.get("range") is not None
        }
        covered = {message.split()[1] for _, message in RANGE_CASES}
        assert ranged & run_keys == covered

    @pytest.mark.parametrize("command", ["run", "train", "image", "eval", "causality"])
    @pytest.mark.parametrize("settings, message", RANGE_CASES)
    def test_rejected_before_imaging(
        self, tmp_path, capsys, monkeypatch, saved_trials, command, settings, message
    ):
        def no_imaging(*args, **kwargs):
            raise AssertionError("imaging started")

        monkeypatch.setattr(pipeline, "_crop_image_unit", no_imaging)
        monkeypatch.setattr(pipeline, "pairwise_maps", no_imaging)
        monkeypatch.setattr(cli, "tf_cgc_map", no_imaging)
        manifest, trial = saved_trials
        inputs = {
            "causality": ["--trial", trial, "--source", "C4", "--sink", "C3"],
            "eval": ["--manifest", manifest, "--model", str(tmp_path / "model.json")],
        }.get(command, ["--manifest", manifest])
        cfg = write_cfg(tmp_path, settings)
        out = str(tmp_path / "out")
        code = main([command, "--config", cfg, "--out", out] + inputs)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.strip() == f"error: {message}"
        assert "Traceback" not in err


#: the values every config key is given, as config file text
SURFACE_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308")
#: the command that reads each config table; `train` also crops without a
#: test split, so it tries the [data] keys a second time
SURFACE_COMMANDS = [
    ("synth" if section == "synth" else "run", section, key)
    for section, keys in cli._SCHEMA.items()
    for key in keys
] + [("train", "data", key) for key in cli._SCHEMA["data"] if key != "manifest"]


class TestConfigSurface:
    """Each config key, given each of SURFACE_VALUES, ends with exit 0, 1, 2
    or 3 and no traceback; an error names the key or the file. Imaging is
    stubbed to fail, so a run that reaches it exits 3 at once."""

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("surface")
        cfg = write_cfg(data, "[synth]\ntrials_per_class = 1\n")
        assert main(["synth", "--config", cfg, "--out", str(data / "d")]) == EXIT_OK
        return str(data / "d" / "manifest.csv")

    @pytest.mark.parametrize("command, section, key", SURFACE_COMMANDS)
    def test_every_value(self, tmp_path, capsys, monkeypatch, manifest, command, section, key):
        def imaging_fails(*args, **kwargs):
            raise NumericError("imaging reached")

        monkeypatch.setattr(pipeline, "_crop_image_unit", imaging_fails)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        field = cli._SCHEMA[section][key][1].name
        for value in SURFACE_VALUES:
            tables = {"synth": {"trials_per_class": "1"}}
            tables.setdefault(section, {})[key] = value
            text = "".join(
                f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                for name, keys in tables.items()
            )
            cfg = write_cfg(tmp_path, text)
            # a flag would override the key it is tried on
            args = [command, "--config", cfg]
            if key != "out_dir":
                args += ["--out", str(tmp_path / value)]
            if command != "synth" and key != "manifest":
                args += ["--manifest", manifest]
            code = main(args)
            err = capsys.readouterr().err
            case = f"{command} [{section}] {key} = {value}: exit {code}, {err!r}"
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC), case
            assert "Traceback" not in err, case
            if code != EXIT_OK and err != "numeric failure: imaging reached\n":
                named = [key, field, cfg] + ([value] if key == "manifest" else [])
                assert any(name in err for name in named), case


class TestConfigElectrodes:
    @pytest.mark.parametrize("command", ["run", "train", "image", "eval"])
    def test_incomplete_set_rejected_before_imaging(
        self, tmp_path, capsys, monkeypatch, saved_trials, command
    ):
        def no_imaging(*args, **kwargs):
            raise AssertionError("imaging started")

        monkeypatch.setattr(pipeline, "pairwise_maps", no_imaging)
        monkeypatch.setattr(gridio, "load_ensemble", lambda path: NO_MEMBERS)
        manifest, _ = saved_trials
        inputs = []
        if command == "eval":  # eval reads the test split
            spec = pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0, split="test")
            manifest = pipeline.save_trials(
                pipeline.synth_generate(spec, seed=0), tmp_path / "test_data"
            )
            inputs = ["--model", str(tmp_path / "model.json")]
        inputs += ["--manifest", manifest]
        cfg = write_cfg(tmp_path, "[data]\nelectrodes = Fz, C3\n")
        out = str(tmp_path / "out")
        code = main([command, "--config", cfg, "--out", out] + inputs)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.strip() == (
            "error: [data] electrodes must list each of Fz, C3, Cz, C4, Pz "
            "exactly once, got ('Fz', 'C3')"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["causality", "run"])
    def test_repeated_electrode_refused_before_reading(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.csv")
        inputs = {
            "causality": ["--trial", missing, "--source", "C4", "--sink", "C3"],
            "run": ["--manifest", missing],
        }[command]
        cfg = write_cfg(tmp_path, "[data]\nelectrodes = C3, C3, C4, Cz\n")
        code = main([command, "--config", cfg] + inputs)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip() == (
            "error: [data] electrodes must name each electrode once, got "
            "('C3', 'C3', 'C4', 'Cz')"
        )

    def test_causality_accepts_any_electrodes(self, tmp_path, saved_trials):
        _, trial = saved_trials
        cfg = write_cfg(tmp_path, CHEAP_CFG + "[data]\nelectrodes = Fz, C3\n")
        out = str(tmp_path / "map.grid")
        code = main(
            ["causality", "--config", cfg, "--trial", trial, "--source", "C3",
             "--sink", "Fz", "--out", out]
        )
        assert code == EXIT_OK
        assert gridio.read_grid(out)[0]["values"].shape == (500, 90)


class TestSlowSampling:
    SLOW_CFG = (
        "[data]\nband_low = 1\nband_high = 8\n[causality]\norders = 3\nlags = 2\n"
        "[classifier]\ntemporal_kernel = 10\nblock_count = 1\n"
    )

    @pytest.mark.parametrize("command", ["run", "train", "image", "eval", "causality"])
    def test_grid_beyond_nyquist_rejected_before_imaging(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_imaging(*args, **kwargs):
            raise AssertionError("imaging started")

        monkeypatch.setattr(pipeline, "pairwise_maps", no_imaging)
        monkeypatch.setattr(cli, "tf_cgc_map", no_imaging)
        monkeypatch.setattr(gridio, "load_ensemble", lambda path: NO_MEMBERS)
        sets = [
            pipeline.synth_generate(
                pipeline.SynthSpec(
                    sampling_rate=24.0,
                    oscillation_freq=5.0,
                    trials_per_class=1,
                    split=split,
                ),
                seed=0,
            )
            for split in ("train", "test")
        ]
        data = pipeline.TrialSet(
            sets[0].trials + sets[1].trials, sets[0].channel_names, 24.0
        )
        manifest = pipeline.save_trials(data, tmp_path / "data")
        inputs = {
            "causality": [
                "--trial", str(tmp_path / "data" / "train_left_000.csv"),
                "--source", "C4", "--sink", "C3", "--fs", "24",
            ],
            "eval": ["--manifest", manifest, "--model", str(tmp_path / "model.json")],
        }.get(command, ["--manifest", manifest])
        cfg = write_cfg(tmp_path, self.SLOW_CFG)
        out = str(tmp_path / "out")
        code = main([command, "--config", cfg, "--out", out] + inputs)
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip() == (
            "data error: data sampled at 24 Hz is too slow for the causality "
            "grid: grid reaches 14.9 Hz, beyond Nyquist 12 Hz"
        )
        assert "Traceback" not in err


def no_imaging(*args, **kwargs):
    raise AssertionError("imaging started")


class TestConfigTable:
    README = pathlib.Path(__file__).parent.parent / "README.md"

    def test_settable_key_count(self):
        tables = collections.Counter(
            table for keys in cli._SCHEMA.values() for table, _, _ in keys.values()
        )
        assert tables == {pipeline.RunConfig: 23, pipeline.SynthSpec: 10}

    def test_readme_block_lists_every_key(self):
        """The block shows every key of the four run sections, those
        without a default as comments, so none goes undocumented."""
        block = re.search(r"```ini\n(.*?)```", self.README.read_text(), re.S)
        listed, section = set(), None
        for line in block.group(1).splitlines():
            header = re.fullmatch(r"\[(\w+)\]", line)
            key = re.fullmatch(r";? ?(\w+) = .*", line)
            if header:
                section = header.group(1)
            elif key:
                listed.add((section, key.group(1)))
        sections = ("data", "causality", "classifier", "run")
        assert listed == {(s, key) for s in sections for key in cli._SCHEMA[s]}

    def test_readme_block_parses_to_defaults(self):
        block = re.search(r"```ini\n(.*?)```", self.README.read_text(), re.S)
        parser = configparser.ConfigParser()
        parser.read_string(block.group(1))
        keys = 0
        for section in parser.sections():
            for key, raw in parser.items(section):
                _, f, item = cli._SCHEMA[section][key]
                default = f.default if item is None else f.default[item]
                assert f.metadata["parse"](raw) == default, f"[{section}] {key}"
                keys += 1
        assert keys >= 20


class TestRejectedBeforeImaging:
    def one_class_manifest(self, tmp_path):
        train = pipeline.synth_generate(
            pipeline.SynthSpec(trials_per_class=2, trial_seconds=2.0), seed=0
        )
        test = pipeline.synth_generate(
            pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0, split="test"),
            seed=1,
        )
        trials = [t for t in train.trials if t.label == 1] + test.trials
        data = pipeline.TrialSet(trials, train.channel_names, 250.0)
        return pipeline.save_trials(data, tmp_path / "data")

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_one_class_training_split(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(pipeline, "_crop_image_unit", no_imaging)
        manifest = self.one_class_manifest(tmp_path)
        cfg = write_cfg(tmp_path, CHEAP_CFG)
        out = str(tmp_path / "out")
        code = main([command, "--config", cfg, "--manifest", manifest, "--out", out])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip() == (
            "data error: training split must hold both classes, has only left trials"
        )

    def test_eval_model_of_other_image_width(self, tmp_path, capsys, monkeypatch):
        model = convnet.build_convnet(convnet.ConvNetConfig(), (90, 50))
        ensemble = boosting.BoostEnsemble(
            members=[boosting.BoostMember(model, 1.0, 0.1)],
            best_joint=1,
            validation_accuracy=[1.0],
            sample_weight_history=[],
            n_train=2,
            n_val=0,
        )
        path = gridio.save_ensemble(str(tmp_path / "model"), ensemble)
        test = pipeline.synth_generate(
            pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0, split="test"),
            seed=1,
        )
        manifest = pipeline.save_trials(test, tmp_path / "data")
        monkeypatch.setattr(pipeline, "_crop_image_unit", no_imaging)
        cfg = write_cfg(tmp_path, CHEAP_CFG + "time_decimation = 5\n")
        code = main(["eval", "--config", cfg, "--manifest", manifest, "--model", path])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip() == (
            f"data error: model {path} reads images of shape (90, 50), this run "
            "makes (90, 100) (crops of 500 samples, time_decimation 5)"
        )

    @pytest.mark.parametrize("missing", ["images", "labels"])
    def test_gridsearch_grid_without_array(self, tmp_path, capsys, missing):
        arrays = {"images": np.zeros((4, 90, 64)), "labels": np.ones(4)}
        del arrays[missing]
        grid = str(tmp_path / "images.grid")
        gridio.write_grid(grid, arrays)
        code = main(["gridsearch", "--images", grid, "--folds", "2"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip() == f"data error: {grid}: no {missing!r} array"

    @pytest.mark.parametrize("scale", [8, 12, 100000])
    def test_oversized_design(self, tmp_path, capsys, monkeypatch, scale):
        def no_reading(*args, **kwargs):
            raise AssertionError("trials read")

        monkeypatch.setattr(pipeline, "load_trials", no_reading)
        cfg = write_cfg(tmp_path, f"[causality]\nscale = {scale}\n")
        tracemalloc.start()
        try:
            code = main(["run", "--config", cfg, "--manifest", str(tmp_path / "m.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.strip() == (
            f"error: [causality] scale {scale} makes a design of over 11,585 columns"
        )
        assert peak < 2**20

    def test_design_bound_by_columns(self):
        """A run accepts a design of m = electrodes x lags x sum over orders
        s of (2**scale + s) columns exactly while m <= 11,585."""
        orders = [
            subset
            for size in (1, 2, 3)
            for subset in itertools.combinations((3, 4, 5), size)
        ]
        verdicts = set()
        for scale, lags, subset in itertools.product(range(10), (1, 2, 3), orders):
            m = 5 * lags * sum(2**scale + s for s in subset)
            try:
                pipeline.RunConfig(scale=scale, lags=lags, orders=subset)
                accepted = True
            except ConfigError as exc:
                assert "design of over 11,585 columns" in str(exc)
                accepted = False
            assert accepted == (m <= 11_585), (scale, lags, subset, m)
            verdicts.add(accepted)
        assert verdicts == {True, False}


class TestShortTrial:
    """A trial too short for the band-pass's edge extension exits 2 naming it."""

    @pytest.mark.parametrize("command", ["run", "image"])
    def test_rejected_with_its_length(self, tmp_path, capsys, command):
        rng = np.random.default_rng(0)
        trials = [
            pipeline.Trial(rng.standard_normal((5, 500)), 1, "long", "train"),
            pipeline.Trial(rng.standard_normal((5, 20)), -1, "short", "train"),
        ]
        manifest = pipeline.save_trials(
            pipeline.TrialSet(trials, ELECTRODE_ORDER, 250.0), tmp_path / "data"
        )
        cfg = write_cfg(tmp_path, CHEAP_CFG)
        out = str(tmp_path / "out")
        code = main([command, "--config", cfg, "--manifest", manifest, "--out", out])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip() == (
            "data error: trial short: 20 samples, the band-pass needs at least 28"
        )


class TestMalformedEnsemble:
    @pytest.mark.parametrize(
        "text, problem",
        [
            ("members: none\n", "not a JSON file (Expecting value: line 1 column 1 (char 0))"),
            ('{"kind": "ensemble", "version": 1}', "ensemble manifest has no 'members' field"),
        ],
        ids=["not-json", "no-members"],
    )
    def test_eval_exits_2_naming_the_file(self, tmp_path, capsys, monkeypatch, text, problem):
        def no_reading(*args, **kwargs):
            raise AssertionError("trials read")

        monkeypatch.setattr(pipeline, "load_trials", no_reading)
        model = tmp_path / "model.ensemble.json"
        model.write_text(text)
        code = main(
            ["eval", "--manifest", str(tmp_path / "m.csv"), "--model", str(model)]
        )
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip() == f"data error: {model}: {problem}"


    @pytest.mark.parametrize("best_joint", [9, 0, 1.0, True])
    def test_best_joint_outside_members(self, tmp_path, capsys, monkeypatch, best_joint):
        """Refused naming the manifest before any member or trial loads."""

        def no_reading(*args, **kwargs):
            raise AssertionError("member or trials read")

        model = convnet.build_convnet(convnet.ConvNetConfig(), (90, 50))
        ensemble = boosting.BoostEnsemble(
            [boosting.BoostMember(model, 1.0, 0.1)], 1, [1.0], [], 2, 0
        )
        path = pathlib.Path(gridio.save_ensemble(str(tmp_path / "model"), ensemble))
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, "best_joint": best_joint}))
        monkeypatch.setattr(pipeline, "load_trials", no_reading)
        monkeypatch.setattr(gridio, "load_convnet", no_reading)
        code = main(["eval", "--manifest", str(tmp_path / "m.csv"), "--model", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip() == (
            f"data error: {path}: best_joint must be an integer in [1, 1], "
            f"the member count, got {best_joint!r}"
        )

    @pytest.mark.parametrize(
        "weight, shown",
        [
            ('"heavy"', "'heavy'"),
            ("null", "None"),
            ("true", "True"),
            ("NaN", "nan"),
            ("-Infinity", "-inf"),
            ("1" + "0" * 400, "1" + "0" * 400),
        ],
        ids=["string", "null", "bool", "nan", "infinity", "past-float-range"],
    )
    def test_weight_not_a_finite_number(self, tmp_path, capsys, monkeypatch, weight, shown):
        """Refused naming the manifest and the member before any member or
        trial loads."""

        def no_reading(*args, **kwargs):
            raise AssertionError("member or trials read")

        model = convnet.build_convnet(convnet.ConvNetConfig(), (90, 50))
        ensemble = boosting.BoostEnsemble(
            [boosting.BoostMember(model, 1.0, 0.1)] * 2, 2, [1.0, 1.0], [], 2, 0
        )
        path = pathlib.Path(gridio.save_ensemble(str(tmp_path / "model"), ensemble))
        head, _, tail = path.read_text().rpartition('"weight": 1.0')
        path.write_text(f'{head}"weight": {weight}{tail}')
        monkeypatch.setattr(pipeline, "load_trials", no_reading)
        monkeypatch.setattr(gridio, "load_convnet", no_reading)
        code = main(["eval", "--manifest", str(tmp_path / "m.csv"), "--model", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip() == (
            f"data error: {path}: member model.member2.ckpt weight must be a finite "
            f"number, got {shown}"
        )


def grid_bytes(header, payload=b""):
    """A grid file: the magic, the header's length and text, then ``payload``."""
    head = header if isinstance(header, bytes) else json.dumps(header).encode()
    return gridio.GRID_MAGIC + struct.pack("<Q", len(head)) + head + payload


LABELS_ONLY = {"entries": [{"name": "labels", "shape": [2]}]}


class TestMalformedGrid:
    """Every malformed grid exits 2 from `gridsearch --images`, naming the file."""

    @pytest.mark.parametrize(
        "content, problem",
        [
            (gridio.GRID_MAGIC, "8 bytes, too short for a grid header"),
            (b"NOTAGRID" + bytes(16), "bad magic, expected b'TFCGRID1'"),
            (
                gridio.GRID_MAGIC + struct.pack("<Q", 1000) + b"{}",
                "grid header of 1000 bytes runs past the file",
            ),
            (grid_bytes(b"\xff{}"), "grid header is not JSON ("),
            (grid_bytes(b"{entries"), "grid header is not JSON ("),
            (grid_bytes([1, 2]), "grid header is not an object with a list of entries"),
            (grid_bytes({"kind": "grid"}), "grid header is not an object with a list of entries"),
            (
                grid_bytes({"entries": [{"shape": [2]}]}),
                "grid entry {'shape': [2]} needs a name and a shape of non-negative integers",
            ),
            (
                grid_bytes({"entries": [{"name": "labels"}]}),
                "grid entry {'name': 'labels'} needs a name and a shape of "
                "non-negative integers",
            ),
            (
                grid_bytes({"entries": [{"name": "labels", "shape": [-1, 2]}]}),
                "grid entry {'name': 'labels', 'shape': [-1, 2]} needs a name and a "
                "shape of non-negative integers",
            ),
            (
                grid_bytes(LABELS_ONLY, bytes(8)),
                "truncated grid payload, 8 bytes where the header declares 16",
            ),
            (
                grid_bytes(LABELS_ONLY, bytes(24)),
                "oversized grid payload, 24 bytes where the header declares 16",
            ),
            (
                grid_bytes({**LABELS_ONLY, "version": 2}, bytes(16)),
                "unsupported grid version 2",
            ),
        ],
        ids=[
            "magic-only", "bad-magic", "header-past-end", "header-not-utf8",
            "header-not-json", "header-not-object", "no-entries", "entry-no-name",
            "entry-no-shape", "negative-dimension", "short-payload", "long-payload",
            "version-2",
        ],
    )
    def test_exits_2_naming_the_file(self, tmp_path, capsys, content, problem):
        grid = tmp_path / "images.grid"
        grid.write_bytes(content)
        code = main(["gridsearch", "--images", str(grid), "--folds", "2"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip().startswith(f"data error: {grid}: {problem}")
        assert "Traceback" not in err


class TestMalformedCheckpoint:
    """A member checkpoint that does not build its network, or holds a
    non-finite tensor, exits 2 from `eval`."""

    def damaged_model(self, tmp_path, damage):
        model = convnet.build_convnet(convnet.ConvNetConfig(), (90, 50))
        ensemble = boosting.BoostEnsemble(
            members=[boosting.BoostMember(model, 1.0, 0.1)],
            best_joint=1,
            validation_accuracy=[1.0],
            sample_weight_history=[],
            n_train=2,
            n_val=0,
        )
        path = gridio.save_ensemble(str(tmp_path / "model"), ensemble)
        member = str(tmp_path / "model.member1.ckpt")
        config, tensors, extra = gridio.load_checkpoint(member)
        damage(config, tensors)
        gridio.save_checkpoint(member, config, tensors, extra)
        return path, member

    @pytest.mark.parametrize(
        "damage, problem",
        [
            (
                lambda config, tensors: tensors.pop("dense/b"),
                "checkpoint has no tensor 'dense/b'",
            ),
            (
                lambda config, tensors: tensors.pop("running:block1/var"),
                "checkpoint has no tensor 'running:block1/var'",
            ),
            (
                lambda config, tensors: config.update(width=3),
                "checkpoint does not build a network (TypeError(",
            ),
            (
                # a checkpoint of the days the optimizer constants were settings
                lambda config, tensors: config.update(
                    learning_rate=1e-3, input_scaling=False
                ),
                "checkpoint does not build a network (TypeError(",
            ),
            (
                lambda config, tensors: config.update(block_count=0),
                "checkpoint does not build a network (ConfigError("
                "'block_count must be in [1, 5], got 0'))",
            ),
            (
                lambda config, tensors: tensors.update({"dense/b": np.zeros(3)}),
                "tensor 'dense/b' has shape (3,), the network needs (2,)",
            ),
            (
                lambda config, tensors: tensors["block1/W"].put(4, np.nan),
                "tensor 'block1/W' holds NaN or infinity",
            ),
            (
                lambda config, tensors: tensors["running:block2/var"].fill(-np.inf),
                "tensor 'running:block2/var' holds NaN or infinity",
            ),
        ],
        ids=[
            "no-tensor", "no-running-tensor", "unknown-config-key",
            "former-config-keys", "zero-block-count",
            "tensor-shape", "nan-tensor", "infinite-running-tensor",
        ],
    )
    def test_eval_exits_2_naming_the_checkpoint(
        self, tmp_path, capsys, monkeypatch, damage, problem
    ):
        def no_reading(*args, **kwargs):
            raise AssertionError("trials read")

        monkeypatch.setattr(pipeline, "load_trials", no_reading)
        path, member = self.damaged_model(tmp_path, damage)
        code = main(["eval", "--manifest", str(tmp_path / "m.csv"), "--model", path])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip().startswith(f"data error: {member}: {problem}")
        assert "Traceback" not in err


class TestMalformedText:
    """Manifests and trial CSVs with a byte outside ASCII, or a sampling rate
    that is not finite and positive, exit 2 naming the file and line; a
    line's number counts the blank lines before it."""

    def saved(self, tmp_path):
        ts = pipeline.synth_generate(
            pipeline.SynthSpec(trials_per_class=1, trial_seconds=0.5), seed=0
        )
        manifest = pathlib.Path(pipeline.save_trials(ts, tmp_path / "data"))
        return manifest, tmp_path / "data" / "train_left_000.csv"

    def test_manifest_not_ascii(self, tmp_path, capsys):
        manifest, _ = self.saved(tmp_path)
        lines = manifest.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"left", b"l\xc3\xa9ft")
        manifest.write_bytes(b"\n".join(lines))
        code = main(["image", "--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip() == f"data error: {manifest}:3: byte 0xc3 is not ASCII"

    @pytest.mark.parametrize("command", ["image", "causality"])
    def test_trial_csv_not_ascii(self, tmp_path, capsys, command):
        manifest, trial = self.saved(tmp_path)
        lines = trial.read_bytes().split(b"\n")
        lines[2] += b"\xb5"
        trial.write_bytes(b"\n".join(lines))
        if command == "image":
            argv = ["image", "--manifest", str(manifest)]
        else:
            argv = ["causality", "--trial", str(trial), "--source", "C4", "--sink", "C3"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip() == f"data error: {trial}:3: byte 0xb5 is not ASCII"

    def test_first_trial_header_differs(self, tmp_path, capsys):
        """A damaged header in the first trial file, the one the others are
        checked against, is reported with both files and both headers."""
        manifest, first = self.saved(tmp_path)
        first.write_text(first.read_text().replace("Fz,", "Fx,", 1))
        code = main(["image", "--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip() == (
            f"data error: {first.parent / 'train_right_000.csv'}: channel header "
            f"Fz,C3,Cz,C4,Pz differs from {first}'s Fx,C3,Cz,C4,Pz"
        )

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("\n\n# fs: fast\n", "3: bad sampling rate"),
            ("# fs: 250\n\nfile,lab,split\n", "3: header must be 'trial_file,label,split'"),
            (
                "# fs: 250\n\ntrial_file,label,split\n\nx.csv,up,train\n",
                "5: label must be left or right",
            ),
        ],
        ids=["sidecar", "header", "row"],
    )
    def test_lines_numbered_as_in_the_file(self, tmp_path, capsys, text, problem):
        manifest = tmp_path / "m.csv"
        manifest.write_text(text)
        code = main(["image", "--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip() == f"data error: {manifest}:{problem}"

    @pytest.mark.parametrize(
        "name", ["train_left_000.csv", "./train_left_000.csv", "train_left_000.txt"]
    )
    def test_trial_listed_twice(self, tmp_path, capsys, monkeypatch, name):
        """A trial file listed twice, or a copy of it under another extension
        (so of the same trial id), is refused before any band-pass, naming
        the manifest and both of its lines."""

        def no_filtering(*args, **kwargs):
            raise AssertionError("band-pass started")

        manifest, trial = self.saved(tmp_path)
        trial.with_suffix(".txt").write_bytes(trial.read_bytes())
        manifest.write_text(manifest.read_text() + f"\n{name},left,test\n")
        monkeypatch.setattr(pipeline, "bandpass", no_filtering)
        code = main(["run", "--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        problem = (
            f"trial id train_left_000 of {name} is already used"
            if name.endswith(".txt")
            else f"trial file {name} is already listed"
        )
        assert err.strip() == f"data error: {manifest}:6: {problem} at line 3"

    @pytest.mark.parametrize("fs", ["nan", "inf", "-250", "0"])
    def test_sampling_rate_refused(self, tmp_path, capsys, fs):
        manifest, _ = self.saved(tmp_path)
        text = manifest.read_text().replace("# fs: 250", f"# fs: {fs}")
        manifest.write_text(text)
        code = main(["image", "--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.strip() == (
            f"data error: {manifest}:1: sampling rate must be finite and positive, "
            f"got {float(fs):g}"
        )
