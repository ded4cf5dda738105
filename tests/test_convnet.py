import numpy as np
import pytest

from tfcgc.convnet import (
    BN_EPSILON,
    ConfigError,
    ConvNetConfig,
    DataError,
    _temporal_conv,
    _temporal_conv_backward,
    _time_lengths,
    accuracy,
    build_convnet,
    forward,
    loss_and_gradients,
    predict,
    train,
    train_val_split,
)

TINY = ConvNetConfig(
    temporal_kernel=3,
    first_block_filters=2,
    block_count=2,
    spatial_height=4,
    batch_size=4,
    seed=0,
)


def einsum_conv(x, w, b):
    """Reference temporal convolution: one einsum per kernel tap."""
    tau = w.shape[2]
    l_out = x.shape[2] - tau + 1
    out = np.zeros((x.shape[0], w.shape[0], l_out))
    for k in range(tau):
        out += np.einsum("qp,bpt->bqt", w[:, :, k], x[:, :, k : k + l_out])
    return out + b[None, :, None]


def einsum_conv_backward(grad, x, w):
    tau = w.shape[2]
    l_out = grad.shape[2]
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for k in range(tau):
        xs = x[:, :, k : k + l_out]
        dw[:, :, k] = np.einsum("bqt,bpt->qp", grad, xs)
        dx[:, :, k : k + l_out] += np.einsum("qp,bqt->bpt", w[:, :, k], grad)
    db = grad.sum(axis=(0, 2))
    return dx, dw, db


def separable_set(rng, n=20, height=6, t=30):
    labels = np.array([1, -1] * (n // 2))
    images = 0.1 * rng.standard_normal((n, height, t))
    images[labels == 1, : height // 2] += 1.0
    images[labels == -1, height // 2 :] += 1.0
    return images, labels


class TestArchitecture:
    def test_standard_shape_arithmetic(self):
        cfg = ConvNetConfig(block_count=1)
        assert _time_lengths(cfg, 500) == [243]
        model = build_convnet(cfg, (90, 500))
        probs, cache = forward(
            model, np.zeros((1, 90, 500)), mode="eval", return_cache=True
        )
        assert cache["b1/conv_in"].shape == (1, 10, 500)
        assert cache["b1/xhat"].shape == (1, 10, 486)
        assert cache["b1/out"].shape == (1, 10, 243)

    def test_filter_doubling(self):
        cfg = ConvNetConfig(block_count=3)
        model = build_convnet(cfg, (90, 500))
        assert model.params["block1/W"].shape[0] == 10
        assert model.params["block2/W"].shape[0] == 20
        assert model.params["block3/W"].shape[0] == 40
        assert cfg.block_filters(2) == 2 * cfg.block_filters(1)

    def test_infeasible_stack(self):
        cfg = ConvNetConfig(temporal_kernel=20, block_count=5)
        with pytest.raises(
            ConfigError, match="block 5: temporal convolution needs 20 samples, have 13"
        ):
            build_convnet(cfg, (90, 500))

    def test_feasible_deep_stack(self):
        cfg = ConvNetConfig(temporal_kernel=10, block_count=5)
        model = build_convnet(cfg, (90, 500))
        assert model.params["block5/W"].shape[0] == 160

    def test_invalid_config(self):
        with pytest.raises(ConfigError, match=r"temporal_kernel must be in \[10, 20\]"):
            ConvNetConfig(temporal_kernel=9)
        with pytest.raises(ConfigError, match=r"block_count must be in \[1, 5\]"):
            ConvNetConfig(block_count=0)

    def test_batch_size_refused_when_built(self):
        with pytest.raises(ConfigError, match="batch_size must be at least 1, got 0"):
            ConvNetConfig(batch_size=0)

    def test_shape_mismatch_rejected(self):
        model = build_convnet(ConvNetConfig(block_count=1), (90, 500))
        with pytest.raises(DataError, match="expected images of shape"):
            forward(model, np.zeros((1, 90, 400)))


class TestForward:
    def test_softmax_normalization(self):
        rng = np.random.default_rng(1)
        model = build_convnet(TINY, (4, 20))
        probs = forward(model, rng.standard_normal((7, 4, 20)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    def test_zero_weights_symmetric(self):
        model = build_convnet(TINY, (4, 20))
        for key in model.params:
            model.params[key][...] = 0.0
        probs = forward(model, np.random.default_rng(2).standard_normal((3, 4, 20)))
        np.testing.assert_allclose(probs, 0.5, atol=1e-12)

    def test_hand_computed_forward(self):
        cfg = ConvNetConfig(
            temporal_kernel=2,
            first_block_filters=1,
            block_count=1,
            spatial_height=2,
        )
        model = build_convnet(cfg, (2, 4))
        model.params["spatial/W"] = np.array([[1.0, -1.0]])
        model.params["spatial/b"] = np.array([0.5])
        model.params["block1/W"] = np.array([[[1.0, 2.0]]])
        model.params["block1/b"] = np.array([-0.25])
        model.params["block1/gamma"] = np.array([2.0])
        model.params["block1/beta"] = np.array([0.1])
        model.running["block1/mean"] = np.array([0.3])
        model.running["block1/var"] = np.array([0.5])
        model.params["dense/W"] = np.array([[1.5], [-0.5]])
        model.params["dense/b"] = np.array([0.2, -0.1])
        x = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, 0.0, 1.0, -1.0]])
        # spatial: row0 - row1 + 0.5
        s = np.array([1.0 - 0.5, 2.0, 3.0 - 1.0, 4.0 + 1.0]) + 0.5
        # temporal conv, valid, kernel (1, 2): c[t] = s[t] + 2 s[t+1] - 0.25
        c = np.array([s[0] + 2 * s[1], s[1] + 2 * s[2], s[2] + 2 * s[3]]) - 0.25
        xhat = (c - 0.3) / np.sqrt(0.5 + BN_EPSILON)
        a = 2.0 * xhat + 0.1
        a = np.where(a > 0, a, np.expm1(a))
        pooled = max(a[0], a[1])  # trailing element dropped
        logits = np.array([1.5 * pooled + 0.2, -0.5 * pooled - 0.1])
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        probs = forward(model, x[None], mode="eval")
        np.testing.assert_allclose(probs[0], expected, atol=1e-10)

    def test_eval_does_not_touch_running_stats(self):
        model = build_convnet(TINY, (4, 20))
        before = {k: v.copy() for k, v in model.running.items()}
        forward(model, np.random.default_rng(3).standard_normal((5, 4, 20)))
        for k in before:
            np.testing.assert_array_equal(model.running[k], before[k])

    def test_train_updates_running_stats(self):
        model = build_convnet(TINY, (4, 20))
        rng = np.random.default_rng(4)
        forward(model, rng.standard_normal((5, 4, 20)), mode="train", rng=rng)
        assert not np.allclose(model.running["block1/mean"], 0.0)


class TestTemporalConv:
    """The matrix-product kernels against the per-tap einsum reference."""

    # (batch, in channels, out channels, length, kernel): the two blocks
    # of the default classifier on 50-sample images, a toy block, and a
    # kernel as long as the input
    SHAPES = [
        (16, 10, 10, 50, 15),
        (16, 10, 20, 18, 15),
        (3, 2, 3, 20, 3),
        (4, 3, 2, 7, 7),
    ]

    @staticmethod
    def assert_close(actual, expected):
        assert actual.shape == expected.shape
        scale = np.abs(expected).max()
        assert np.abs(actual - expected).max() <= 1e-12 * scale

    @pytest.mark.parametrize("batch, c_in, c_out, length, tau", SHAPES)
    def test_matches_einsum_reference(self, batch, c_in, c_out, length, tau):
        rng = np.random.default_rng(length * tau)
        x = rng.standard_normal((batch, c_in, length))
        w = rng.standard_normal((c_out, c_in, tau))
        b = rng.standard_normal(c_out)
        grad = rng.standard_normal((batch, c_out, length - tau + 1))
        self.assert_close(_temporal_conv(x, w, b), einsum_conv(x, w, b))
        for actual, expected in zip(
            _temporal_conv_backward(grad, x, w), einsum_conv_backward(grad, x, w)
        ):
            self.assert_close(actual, expected)

    def test_eval_batch_is_sample_independent(self):
        rng = np.random.default_rng(12)
        model = build_convnet(ConvNetConfig(), (90, 50))
        for key in model.running:
            model.running[key] = rng.uniform(0.5, 1.5, model.running[key].shape)
        images = rng.standard_normal((40, 90, 50))
        whole = forward(model, images)
        chunks = np.concatenate(
            [forward(model, images[a:b]) for a, b in ((0, 16), (16, 32), (32, 40))]
        )
        self.assert_close(chunks, whole)


class TestGradients:
    def test_finite_difference_check(self):
        rng = np.random.default_rng(5)
        model = build_convnet(TINY, (4, 14))
        images = rng.standard_normal((3, 4, 14))
        labels = np.array([1, -1, 1])
        weights = np.array([0.5, 0.3, 0.2])
        # fixed dropout masks so the loss is a deterministic function
        drop_shape = (3, 2, _time_lengths(TINY, 14)[0])
        keep = rng.random(drop_shape) >= TINY.dropout_rate
        masks = [keep / (1.0 - TINY.dropout_rate)]
        _, grads = loss_and_gradients(
            model, images, labels, weights, dropout_masks=masks
        )
        step = 1e-5
        worst = 0.0
        for key, tensor in model.params.items():
            flat = tensor.ravel()
            gflat = grads[key].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                lp, _ = loss_and_gradients(
                    model, images, labels, weights, dropout_masks=masks
                )
                flat[i] = orig - step
                lm, _ = loss_and_gradients(
                    model, images, labels, weights, dropout_masks=masks
                )
                flat[i] = orig
                numeric = (lp - lm) / (2 * step)
                if max(abs(numeric), abs(gflat[i])) < 1e-7:
                    # batch norm cancels per-channel constants, so conv
                    # biases have an exactly zero gradient; the quotient
                    # would compare pure round-off noise
                    continue
                denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                worst = max(worst, abs(numeric - gflat[i]) / denom)
        assert worst < 1e-4


class TestTraining:
    def test_overfit_small_set(self):
        rng = np.random.default_rng(6)
        images, labels = separable_set(rng)
        cfg = ConvNetConfig(
            temporal_kernel=5,
            first_block_filters=2,
            block_count=1,
            spatial_height=6,
            batch_size=5,
            max_epochs=200,
            early_stop_patience=50,
            seed=1,
        )
        model = build_convnet(cfg, (6, 30))
        trained = train(model, images, labels)
        assert accuracy(trained, images, labels) == 1.0

    def test_zero_epochs_unchanged(self):
        cfg = ConvNetConfig(
            temporal_kernel=3,
            first_block_filters=2,
            block_count=1,
            spatial_height=4,
            max_epochs=0,
            early_stop_patience=0,
        )
        model = build_convnet(cfg, (4, 20))
        rng = np.random.default_rng(7)
        images = rng.standard_normal((6, 4, 20))
        labels = np.array([1, -1, 1, -1, 1, -1])
        trained = train(model, images, labels)
        for key in model.params:
            np.testing.assert_array_equal(trained.params[key], model.params[key])

    def test_single_class_rejected(self):
        model = build_convnet(TINY, (4, 20))
        with pytest.raises(DataError, match="training fold must contain both classes"):
            train(model, np.zeros((4, 4, 20)), np.array([1, 1, 1, 1]))

    def test_deterministic_history(self):
        rng = np.random.default_rng(8)
        images, labels = separable_set(rng, n=12)
        cfg = ConvNetConfig(
            temporal_kernel=5,
            first_block_filters=2,
            block_count=1,
            spatial_height=6,
            batch_size=4,
            max_epochs=10,
            early_stop_patience=10,
            seed=3,
        )
        runs = []
        for _ in range(2):
            trained = train(build_convnet(cfg, (6, 30)), images, labels)
            runs.append(trained)
        assert runs[0].history == runs[1].history
        for key in runs[0].params:
            np.testing.assert_array_equal(runs[0].params[key], runs[1].params[key])

    def test_validation_early_stop_returns_best(self):
        rng = np.random.default_rng(9)
        images, labels = separable_set(rng, n=20)
        tr, va = train_val_split(20, 0.2, seed=0)
        assert len(va) == 4 and len(tr) == 16
        cfg = ConvNetConfig(
            temporal_kernel=5,
            first_block_filters=2,
            block_count=1,
            spatial_height=6,
            batch_size=8,
            max_epochs=40,
            early_stop_patience=5,
            seed=4,
        )
        trained = train(
            build_convnet(cfg, (6, 30)),
            images[tr],
            labels[tr],
            validation=(images[va], labels[va]),
        )
        best = max(h["score"] for h in trained.history)
        assert accuracy(trained, images[va], labels[va]) == pytest.approx(best)

    def test_predict_labels(self):
        model = build_convnet(TINY, (4, 20))
        labels = predict(model, np.random.default_rng(10).standard_normal((5, 4, 20)))
        assert set(labels.tolist()).issubset({-1, 1})
