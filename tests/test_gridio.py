import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tfcgc import convnet, pipeline
from tfcgc.boosting import BoostEnsemble, BoostMember, adaboost_train, ensemble_predict
from tfcgc.errors import DataError
from tfcgc.gridio import (
    load_checkpoint,
    load_convnet,
    load_ensemble,
    read_grid,
    save_checkpoint,
    save_convnet,
    save_ensemble,
    write_grid,
)


class TestGrid:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "values": rng.standard_normal((37, 18)),
            "mask": rng.integers(0, 2, size=(37, 18)).astype(float),
        }
        axes = {"time": np.arange(1, 38), "freq": np.linspace(6, 14.5, 18)}
        meta = {"source": "C3", "sink": "C4"}
        path = tmp_path / "map.grid"
        write_grid(path, arrays, axes, meta)
        back, back_axes, back_meta = read_grid(path)
        for name in arrays:
            np.testing.assert_array_equal(back[name], arrays[name])
            assert back[name].dtype == np.float64
        np.testing.assert_array_equal(back_axes["freq"], axes["freq"])
        assert back_meta == meta

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.grid"
        path.write_bytes(b"NOTAGRID" + b"\0" * 32)
        with pytest.raises(DataError, match="junk.grid: bad magic"):
            read_grid(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "map.grid"
        write_grid(path, {"v": np.ones((4, 4))})
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(DataError, match="truncated grid payload"):
            read_grid(path)

    def test_no_temp_leftovers(self, tmp_path):
        write_grid(tmp_path / "a.grid", {"v": np.zeros((2, 2))})
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert leftovers == []


def small_grid(path):
    """A valid grid of two arrays with axes and metadata."""
    write_grid(
        path,
        {"values": np.arange(6.0).reshape(2, 3), "labels": np.array([1.0, -1.0])},
        axes={"time": [1, 2]},
        meta={"source": "C3"},
    )


def small_network():
    """A one-block network."""
    cfg = convnet.ConvNetConfig(
        temporal_kernel=3, first_block_filters=2, block_count=1, spatial_height=4
    )
    return convnet.build_convnet(cfg, (4, 20))


def small_checkpoint(path):
    """A valid checkpoint of a one-block network."""
    save_convnet(path, small_network())


def small_ensemble(path):
    """A valid ensemble manifest of one small member, its checkpoint beside it."""
    member = BoostMember(small_network(), 0.5, 0.25)
    ensemble = BoostEnsemble([member], 1, [0.75], [], 4, 2)
    os.replace(save_ensemble(path, ensemble), path)


SMALL_TRIALS = pipeline.synth_generate(
    pipeline.SynthSpec(trials_per_class=1, trial_seconds=0.5), seed=0
)


def small_trial_manifest(path):
    """A valid trial manifest of two trials, their CSV files beside it."""
    os.replace(pipeline.save_trials(SMALL_TRIALS, os.path.dirname(path)), path)


def small_trial_csv(path):
    """A valid trial CSV, listed second in a trial manifest beside it, so a
    trial whose header differs from the first is this one."""
    manifest = pipeline.save_trials(SMALL_TRIALS, os.path.dirname(path))
    os.replace(os.path.join(os.path.dirname(path), "train_right_000.csv"), path)
    with open(manifest) as fh:
        text = fh.read().replace("train_right_000.csv", os.path.basename(path))
    with open(manifest, "w") as fh:
        fh.write(text)


#: 0.2 s crops, so that a 0.5 s trial holds some
SHORT_CROPS = pipeline.RunConfig(crop_seconds=0.2, stride_seconds=0.2)


def load_and_crop(path):
    """Load, band-pass and crop the trials of the manifest beside ``path``."""
    trials = pipeline.load_trials(os.path.join(os.path.dirname(path), "manifest.csv"))
    pipeline._crop_units(pipeline.bandpass(trials, 6.0, 15.0), SHORT_CROPS)


DAMAGED = [
    pytest.param(small_grid, read_grid, id="grid"),
    pytest.param(small_checkpoint, load_convnet, id="checkpoint"),
    pytest.param(small_ensemble, load_ensemble, id="ensemble-manifest"),
    pytest.param(small_trial_manifest, pipeline.load_trials, id="trial-manifest"),
]


class TestDamagedFile:
    """Every truncation of a small valid grid, checkpoint, ensemble manifest
    or trial manifest, and random single-byte changes of these and of a
    trial CSV, either load or raise a DataError that names the file (a
    trial CSV by its path, or by its trial id once it has loaded)."""

    @pytest.mark.parametrize("write, load", DAMAGED)
    def test_every_truncation(self, tmp_path, write, load):
        path = tmp_path / "cut"
        write(path)
        data = path.read_bytes()
        for length in range(len(data)):
            path.write_bytes(data[:length])
            try:
                load(path)
            except DataError as exc:
                assert str(path) in str(exc)
            else:  # only a trial manifest cut at the end of a row still loads
                assert write is small_trial_manifest
                assert b"\n" in data[length - 1 : length + 1]

    @pytest.mark.parametrize(
        "write, load",
        DAMAGED + [pytest.param(small_trial_csv, load_and_crop, id="trial-csv")],
    )
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(position=st.integers(min_value=0), byte=st.integers(0, 255))
    def test_single_byte_change(self, tmp_path, write, load, position, byte):
        path = tmp_path / "changed"
        write(path)
        data = bytearray(path.read_bytes())
        data[position % len(data)] = byte
        path.write_bytes(bytes(data))
        try:
            load(path)
        except DataError as exc:
            assert names(exc, path)


def names(exc, path):
    """Whether a DataError names the file at ``path`` or, as a trial CSV's
    trial id, its base name."""
    return str(path) in str(exc) or f"trial {os.path.basename(path)}:" in str(exc)


class TestCheckpoint:
    def test_raw_round_trip(self, tmp_path):
        tensors = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([1.5])}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"lr": 0.001}, tensors, extra={"note": "x"})
        config, back, extra = load_checkpoint(path)
        assert config == {"lr": 0.001}
        assert extra == {"note": "x"}
        for name in tensors:
            np.testing.assert_array_equal(back[name], tensors[name])

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {}, {"w": np.ones((3, 3))})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated checkpoint payload"):
            load_checkpoint(path)

    def test_convnet_round_trip(self, tmp_path):
        cfg = convnet.ConvNetConfig(
            temporal_kernel=3,
            first_block_filters=2,
            block_count=2,
            spatial_height=4,
            seed=7,
        )
        model = convnet.build_convnet(cfg, (4, 20))
        rng = np.random.default_rng(1)
        images = rng.standard_normal((3, 4, 20))
        # perturb running stats so restoration is actually exercised
        forward_out = convnet.forward(model, images, mode="train", rng=rng)
        path = tmp_path / "net.ckpt"
        save_convnet(path, model)
        restored = load_convnet(path)
        np.testing.assert_array_equal(
            convnet.forward(restored, images), convnet.forward(model, images)
        )
        assert restored.config == model.config

    def test_ensemble_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 16
        labels = np.array([1, -1] * (n // 2))
        images = 0.1 * rng.standard_normal((n, 4, 20))
        images[labels == 1, :2] += 1.0
        images[labels == -1, 2:] += 1.0
        cfg = convnet.ConvNetConfig(
            temporal_kernel=3,
            first_block_filters=2,
            block_count=1,
            spatial_height=4,
            batch_size=4,
            max_epochs=15,
            early_stop_patience=5,
        )
        ens = adaboost_train(images, labels, chi=2, base_config=cfg, seed=3)
        manifest = save_ensemble(tmp_path / "boost", ens)
        restored = load_ensemble(manifest)
        np.testing.assert_array_equal(
            ensemble_predict(restored, images), ensemble_predict(ens, images)
        )
        assert restored.best_joint == ens.best_joint

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {}, {"w": np.zeros(2)})
        data = bytearray(path.read_bytes())
        # corrupt the version field inside the JSON header
        idx = bytes(data).find(b'"version": 1')
        data[idx : idx + len(b'"version": 1')] = b'"version": 9'
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="unsupported checkpoint version 9"):
            load_checkpoint(path)
