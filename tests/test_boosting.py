import numpy as np
import pytest

from tfcgc.boosting import (
    BoostEnsemble,
    BoostMember,
    EvalReport,
    adaboost_train,
    ensemble_predict,
    evaluate,
    predict_trial,
)
from tfcgc.convnet import ConvNetConfig, train_val_split
from tfcgc.errors import DataError


class RuleStub:
    """Base learner that labels images by thresholding their mean value."""

    def __init__(self, rule):
        self.rule = rule

    def predict(self, images):
        vals = np.asarray(images).reshape(len(images), -1).mean(axis=1)
        return np.array([self.rule(v) for v in vals])


def stub_factory(rules):
    iterator = iter(rules)

    def factory(round_index, images, labels, weights, validation):
        return RuleStub(next(iterator))

    return factory


def value_images(values):
    return np.asarray(values, dtype=float).reshape(-1, 1, 1)


class TestAdaboostTrace:
    def setup_method(self):
        self.values = [0, 1, 2, 3, 4]
        self.labels = np.array([1, 1, 1, -1, -1])
        self.images = value_images(self.values)

    def by_value(self, weight_vec, seed):
        """Reorder a permuted-fold weight vector back to value order."""
        tr_idx, _ = train_val_split(5, 0.0, seed)
        out = np.empty(5)
        out[tr_idx] = weight_vec
        return out

    def test_two_round_hand_trace(self):
        # round 1 misclassifies only v=3; round 2 misclassifies only v=2
        rules = [
            lambda v: 1 if v < 3.5 else -1,
            lambda v: 1 if v < 1.5 else -1,
        ]
        ens = adaboost_train(
            self.images, self.labels, chi=2, seed=0, val_fraction=0.0,
            learner_factory=stub_factory(rules),
        )
        assert [m.weighted_error for m in ens.members] == [
            pytest.approx(0.2), pytest.approx(0.125)
        ]
        assert ens.members[0].weight == pytest.approx(0.5 * np.log(4.0))
        assert ens.members[1].weight == pytest.approx(0.5 * np.log(7.0))
        w1 = self.by_value(ens.sample_weight_history[1], seed=0)
        np.testing.assert_allclose(
            w1, [0.125, 0.125, 0.125, 0.5, 0.125], atol=1e-12
        )
        w2 = self.by_value(ens.sample_weight_history[2], seed=0)
        # round 2: v=2 doubles in relative weight, others halve
        unnorm = np.array([0.125, 0.125, 0.125 * 7, 0.5, 0.125]) / np.sqrt(7)
        np.testing.assert_allclose(w2, unnorm / unnorm.sum(), atol=1e-12)

    def test_weight_normalization_every_round(self):
        rules = [
            lambda v: 1 if v < 3.5 else -1,
            lambda v: 1 if v < 1.5 else -1,
        ]
        ens = adaboost_train(
            self.images, self.labels, chi=2, seed=0, val_fraction=0.0,
            learner_factory=stub_factory(rules),
        )
        for w in ens.sample_weight_history:
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_weight_direction(self):
        rules = [lambda v: 1 if v < 3.5 else -1]
        ens = adaboost_train(
            self.images, self.labels, chi=1, seed=0, val_fraction=0.0,
            learner_factory=stub_factory(rules),
        )
        tr_idx, _ = train_val_split(5, 0.0, 0)
        before = self.by_value(ens.sample_weight_history[0], 0)
        after = self.by_value(ens.sample_weight_history[1], 0)
        wrong_value = 3
        for v in self.values:
            if v == wrong_value:
                assert after[v] > before[v]
            else:
                assert after[v] < before[v]

    def test_perfect_learner_clamped_and_terminates(self):
        rules = [lambda v: 1 if v < 2.5 else -1, lambda v: 1]
        ens = adaboost_train(
            self.images, self.labels, chi=5, seed=0, val_fraction=0.0,
            learner_factory=stub_factory(rules),
        )
        assert len(ens.members) == 1
        n_t = 5
        clamped = 1.0 / (2 * n_t)
        assert ens.members[0].weight == pytest.approx(
            0.5 * np.log((1 - clamped) / clamped)
        )
        assert ens.members[0].weighted_error == 0.0

    def test_bad_first_learner_rejected(self):
        rules = [lambda v: -self.labels[self.values.index(int(v))]]
        with pytest.raises(DataError, match="no usable base learner"):
            adaboost_train(
                self.images, self.labels, chi=3, seed=0, val_fraction=0.0,
                learner_factory=stub_factory(rules),
            )

    def test_half_error_terminates_loop(self):
        # round 2 is exactly at chance under the updated weights: it gets
        # v=3 (weight 0.5) wrong, so it is discarded and the loop stops
        rules = [
            lambda v: 1 if v < 3.5 else -1,
            lambda v: 1 if v < 4.5 else -1,
            lambda v: 1 if v < 2.5 else -1,
        ]
        ens = adaboost_train(
            self.images, self.labels, chi=3, seed=0, val_fraction=0.0,
            learner_factory=stub_factory(rules),
        )
        assert len(ens.members) == 1


class TestEnsemblePredict:
    def make_ensemble(self, rules_weights):
        members = [BoostMember(RuleStub(r), w, 0.1) for r, w in rules_weights]
        return BoostEnsemble(
            members, len(members), [0.5] * len(members), [], 4, 0
        )

    def test_weighted_vote(self):
        ens = self.make_ensemble(
            [(lambda v: 1, 0.4), (lambda v: -1, 0.3), (lambda v: -1, 0.2)]
        )
        pred = ensemble_predict(ens, value_images([0.0]))
        assert pred[0] == -1
        ens.best_joint = 1
        pred1 = ensemble_predict(ens, value_images([0.0]))
        assert pred1[0] == 1

    def test_prefix_bounds(self):
        ens = self.make_ensemble([(lambda v: 1, 1.0)])
        ens.best_joint = 2
        with pytest.raises(DataError, match="prefix 2 out of range"):
            ensemble_predict(ens, value_images([0.0]))

    def test_best_joint_tracks_max_prefix_accuracy(self):
        # validation fold behaviour with real stubs through adaboost_train
        values = list(range(10))
        labels = np.array([1] * 5 + [-1] * 5)
        rules = [
            lambda v: 1 if v < 4.5 else -1,  # perfect on everything
        ]
        ens = adaboost_train(
            value_images(values), labels, chi=1, seed=3, val_fraction=0.2,
            learner_factory=stub_factory(rules),
        )
        assert ens.n_val == 2 and ens.n_train == 8
        assert ens.validation_accuracy[ens.best_joint - 1] == max(ens.validation_accuracy)


class TestPredictTrial:
    def make_ensemble(self, rule):
        return BoostEnsemble(
            [BoostMember(RuleStub(rule), 1.0, 0.1)], 1, [1.0], [], 4, 0
        )

    def test_unanimous(self):
        ens = self.make_ensemble(lambda v: 1)
        assert predict_trial(ens, np.zeros((5, 2, 3))) == 1

    def test_majority_split(self):
        ens = self.make_ensemble(lambda v: 1 if v > 0 else -1)
        crops = np.concatenate(
            [np.ones((2, 2, 3)), -np.ones((3, 2, 3))], axis=0
        )
        assert predict_trial(ens, crops) == -1

    def test_even_crop_count_rejected(self):
        ens = self.make_ensemble(lambda v: 1)
        with pytest.raises(DataError, match="crop count must be odd"):
            predict_trial(ens, np.zeros((4, 2, 3)))


class TestEvaluate:
    def test_perfect(self):
        rep = evaluate([1, -1, 1, -1], [1, -1, 1, -1])
        assert rep.sensitivity == 100.0
        assert rep.specificity == 100.0
        assert rep.accuracy == 100.0
        assert rep.kappa == 1.0

    def test_all_one_class_balanced(self):
        rep = evaluate([1] * 10, [1] * 5 + [-1] * 5)
        assert rep.accuracy == 50.0
        assert rep.kappa == 0.0

    def test_subject_spot_check(self):
        rep = EvalReport(tp=56, fn=16, tn=67, fp=5)
        assert rep.accuracy == pytest.approx(85.42, abs=0.005)
        assert rep.kappa == pytest.approx(0.7083, abs=5e-4)
        assert rep.sensitivity == pytest.approx(100 * 56 / 72)
        assert rep.specificity == pytest.approx(100 * 67 / 72)

    def test_balanced_symmetric_kappa_identity(self):
        # with symmetric confusion counts kappa = 2*ACC - 1
        for tp, fn in [(61, 11), (50, 22), (70, 2)]:
            rep = EvalReport(tp=tp, fn=fn, tn=tp, fp=fn)
            assert rep.kappa == pytest.approx(2 * rep.accuracy / 100 - 1, abs=1e-12)
        mean_row = EvalReport(tp=61, fn=11, tn=61, fp=11)
        assert mean_row.accuracy == pytest.approx(84.72, abs=0.005)
        assert mean_row.kappa == pytest.approx(0.6944, abs=5e-4)

    def test_confusion_counts(self):
        rep = evaluate([1, 1, -1, -1, 1], [1, -1, 1, -1, 1])
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (2, 1, 1, 1)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="need equal-length, non-empty label lists"):
            evaluate([], [])
        with pytest.raises(DataError, match="need equal-length, non-empty label lists"):
            evaluate([1, -1], [1])


class TestConvNetIntegration:
    def test_boost_real_learners(self):
        rng = np.random.default_rng(12)
        n, height, t = 24, 6, 30
        labels = np.array([1, -1] * (n // 2))
        images = 0.1 * rng.standard_normal((n, height, t))
        images[labels == 1, :3] += 1.0
        images[labels == -1, 3:] += 1.0
        cfg = ConvNetConfig(
            temporal_kernel=5,
            first_block_filters=2,
            block_count=1,
            spatial_height=height,
            batch_size=6,
            max_epochs=30,
            early_stop_patience=10,
        )
        ens = adaboost_train(images, labels, chi=3, base_config=cfg, seed=5)
        assert 1 <= len(ens.members) <= 3
        assert all(m.weight > 0 for m in ens.members)
        preds = ensemble_predict(ens, images)
        assert np.mean(preds == labels) >= 0.9
