import numpy as np
import pytest

from tfcgc.images import (
    ELECTRODE_ORDER,
    CausalityImage,
    Crop,
    DataError,
    assemble_image,
    crop_trial,
    electrode_representation,
    export_image,
)


def read_image(path):
    """Read back an exported graymap and its sidecar value range."""
    path = str(path)
    with open(path, "rb") as fh:
        assert fh.readline().strip() == b"P5"
        cols, rows = (int(tok) for tok in fh.readline().split())
        assert int(fh.readline()) == 255
        pixels = np.frombuffer(fh.read(rows * cols), dtype=np.uint8)
    pixels = pixels.reshape(rows, cols).astype(float)
    meta = {}
    with open(path + ".txt", encoding="ascii") as fh:
        for line in fh:
            key, _, raw = line.partition(":")
            meta[key.strip()] = raw.strip()
    lo = float(meta["min"])
    hi = float(meta["max"])
    if hi > lo:
        values = lo + pixels / 255.0 * (hi - lo)
    else:
        values = np.full(pixels.shape, lo)
    return values, lo, hi


def full_map_set(rng=None, t=20, f=90):
    pairs = [
        (s, k)
        for s in ELECTRODE_ORDER
        for k in ELECTRODE_ORDER
        if s != k
    ]
    if rng is None:
        return {p: np.zeros((t, f)) for p in pairs}
    return {p: rng.standard_normal((t, f)) for p in pairs}


class TestCropTrial:
    def test_standard_five_crops(self):
        trial = np.zeros((5, 1000))
        crops = crop_trial(trial, 250.0, 2.0, 0.5, trial_id="t0", label=1)
        assert [c.start_sample for c in crops] == [1, 126, 251, 376, 501]
        assert all(c.length_samples == 500 for c in crops)
        assert all(c.label == 1 for c in crops)

    def test_full_length_single_crop(self):
        trial = np.zeros((3, 750))
        crops = crop_trial(trial, 250.0, 3.0, 0.5)
        assert len(crops) == 1
        assert crops[0].start_sample == 1

    def test_closed_form_count(self):
        trial = np.zeros((2, 1000))
        crops = crop_trial(trial, 250.0, 2.0, 0.5)
        assert len(crops) == (1000 - 500) // 125 + 1 == 5

    def test_crop_longer_than_trial(self):
        with pytest.raises(DataError, match="crop of 500 samples exceeds trial of 400"):
            crop_trial(np.zeros((2, 400)), 250.0, 2.0, 0.5)

    def test_fractional_samples_rejected(self):
        with pytest.raises(DataError, match="must span whole samples at 250 Hz"):
            crop_trial(np.zeros((2, 1000)), 250.0, 2.0, 0.5001)

    def test_extract_window(self):
        trial = np.arange(2 * 1000).reshape(2, 1000)
        crop = Crop("t", 126, 500)
        window = crop.extract(trial)
        assert window.shape == (2, 500)
        np.testing.assert_array_equal(window, trial[:, 125:625])

    def test_extract_out_of_range(self):
        with pytest.raises(DataError, match=r"crop \[600, 1099\] exceeds trial length 1000"):
            Crop("t", 600, 500).extract(np.zeros((2, 1000)))


class TestElectrodeRepresentation:
    def test_zero_maps_zero_output(self):
        maps = full_map_set()
        for e in ELECTRODE_ORDER:
            np.testing.assert_array_equal(
                electrode_representation(maps, e), 0.0
            )

    def test_c3_c4_antisymmetry(self):
        rng = np.random.default_rng(0)
        maps = full_map_set(rng)
        c3 = electrode_representation(maps, "C3")
        c4 = electrode_representation(maps, "C4")
        np.testing.assert_array_equal(c4, -c3)

    def test_fz_formula(self):
        rng = np.random.default_rng(1)
        maps = full_map_set(rng)
        expected = (maps[("C3", "Fz")] - maps[("Fz", "C3")]) - (
            maps[("C4", "Fz")] - maps[("Fz", "C4")]
        )
        np.testing.assert_allclose(
            electrode_representation(maps, "Fz"), expected, atol=1e-14
        )

    def test_dominant_flow_sign(self):
        maps = full_map_set()
        maps[("C4", "C3")] = np.full((20, 90), 2.0)
        assert electrode_representation(maps, "C3").mean() < 0
        assert electrode_representation(maps, "C4").mean() > 0

    def test_missing_map(self):
        maps = full_map_set()
        del maps[("C3", "Fz")]
        with pytest.raises(DataError, match="missing map C3->Fz"):
            electrode_representation(maps, "Fz")

    def test_grid_mismatch(self):
        maps = full_map_set()
        maps[("Fz", "C4")] = np.zeros((21, 90))
        with pytest.raises(DataError, match=r"map Fz->C4 has shape \(21, 90\)"):
            electrode_representation(maps, "Fz")


class TestAssembleImage:
    def test_standard_shape(self):
        reps = [np.zeros((500, 90)) for _ in range(5)]
        img = assemble_image(reps)
        assert img.values.shape == (90, 500)
        assert img.values.shape == (90, 500)

    def test_constant_blocks(self):
        consts = [1.0, -2.0, 3.0, 0.5, 7.0]
        reps = [np.full((10, 90), c) for c in consts]
        img = assemble_image(reps)
        for e, c in enumerate(consts):
            block = img.values[e * 18 : (e + 1) * 18]
            np.testing.assert_array_equal(block, c)

    def test_block_average_oracle(self):
        rng = np.random.default_rng(3)
        reps = [rng.standard_normal((12, 90)) for _ in range(5)]
        img = assemble_image(reps)
        stacked = np.concatenate(reps, axis=1)
        for row in range(90):
            expected = stacked[:, 5 * row : 5 * row + 5].mean(axis=1)
            np.testing.assert_allclose(img.values[row], expected, atol=1e-12)

    def test_electrode_locality(self):
        rng = np.random.default_rng(4)
        reps = [rng.standard_normal((8, 90)) for _ in range(5)]
        base = assemble_image(reps).values
        perm = rng.permutation(90)
        reps2 = list(reps)
        reps2[2] = reps[2][:, perm]
        changed = assemble_image(reps2).values
        diff_rows = np.nonzero(np.any(changed != base, axis=1))[0]
        assert set(diff_rows).issubset(set(range(36, 54)))

    def test_electrode_order_labels_image(self):
        rng = np.random.default_rng(5)
        reps = [rng.standard_normal((6, 90)) for _ in ELECTRODE_ORDER]
        order = ELECTRODE_ORDER[::-1]
        img = assemble_image(reps, order)
        assert img.electrode_order == order
        np.testing.assert_array_equal(img.values, assemble_image(reps).values)

    def test_wrong_count(self):
        with pytest.raises(DataError, match="expected 5 representations, got 4"):
            assemble_image([np.zeros((5, 90))] * 4)

    def test_shape_mismatch(self):
        reps = [np.zeros((5, 90))] * 4 + [np.zeros((6, 90))]
        with pytest.raises(DataError, match="must share one"):
            assemble_image(reps)

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError, match="image values must be finite"):
            CausalityImage(np.array([[np.nan, 1.0]]))


class TestExportImage:
    def test_p5_header_and_size(self, tmp_path):
        rng = np.random.default_rng(6)
        img = CausalityImage(rng.standard_normal((90, 500)))
        out = tmp_path / "img.pgm"
        export_image(img, out)
        data = out.read_bytes()
        assert data.startswith(b"P5\n500 90\n255\n")
        assert len(data) == len(b"P5\n500 90\n255\n") + 45000

    def test_constant_maps_to_128(self, tmp_path):
        img = CausalityImage(np.full((10, 20), 3.7))
        out = tmp_path / "const.pgm"
        export_image(img, out)
        values, lo, hi = read_image(out)
        raw = out.read_bytes()
        assert set(raw[len(b"P5\n20 10\n255\n") :]) == {128}
        assert lo == hi == 3.7

    def test_quantization_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        img = CausalityImage(rng.uniform(-4.0, 9.0, size=(30, 40)))
        out = tmp_path / "rt.pgm"
        export_image(img, out)
        values, lo, hi = read_image(out)
        step = (hi - lo) / 255.0
        assert np.max(np.abs(values - img.values)) <= step

    def test_failed_export_leaves_no_file(self, tmp_path):
        """A sidecar that cannot be written as ASCII fails the export before
        either file is written, so no graymap or partial sidecar is left."""
        img = CausalityImage(np.zeros((2, 2)), ("Fz", "C3", "Cz", "C4", "P\u017e"))
        with pytest.raises(UnicodeEncodeError):
            export_image(img, tmp_path / "img.pgm")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path(self, tmp_path):
        img = CausalityImage(np.zeros((2, 2)))
        with pytest.raises(OSError):
            export_image(img, tmp_path / "missing_dir" / "img.pgm")
