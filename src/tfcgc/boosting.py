"""AdaBoost over the convolutional base learner, plus evaluation metrics.

Labels are coded {-1, +1} throughout; the ensemble decision is the sign
of the member-weighted vote. The training pool is split 80/20 into the
boosting fold and a held-out validation fold; the returned classifier is
the member prefix with the best validation accuracy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import convnet
from .errors import DataError, Range


#: the boosting rounds ``adaboost_train`` accepts
ROUNDS = Range(1)


@dataclass
class BoostMember:
    """One trained base learner with its vote weight."""

    model: object
    weight: float
    weighted_error: float


@dataclass
class BoostEnsemble:
    members: list[BoostMember]
    best_joint: int
    validation_accuracy: list[float]
    sample_weight_history: list[np.ndarray]
    n_train: int
    n_val: int


def _member_predict(model, images) -> np.ndarray:
    if hasattr(model, "predict"):
        return np.asarray(model.predict(images))
    return convnet.predict(model, images)


def ensemble_predict(ensemble: BoostEnsemble, images: np.ndarray) -> np.ndarray:
    """Sign of the weighted member vote over the best prefix, ``best_joint``."""
    prefix = ensemble.best_joint
    if prefix < 1 or prefix > len(ensemble.members):
        raise DataError(f"best prefix {prefix} out of range")
    score = np.zeros(np.asarray(images).shape[0])
    for member in ensemble.members[:prefix]:
        score += member.weight * _member_predict(member.model, images)
    return np.where(score >= 0, 1, -1)


def _default_learner_factory(base_config: convnet.ConvNetConfig, master_seed: int):
    def factory(round_index, images, labels, weights, validation):
        seed_seq = np.random.SeedSequence([master_seed, round_index])
        seed = int(seed_seq.generate_state(1)[0])
        cfg_seeded = dataclasses.replace(base_config, seed=seed)
        model = convnet.build_convnet(cfg_seeded, images.shape[1:])
        return convnet.train(model, images, labels, weights, validation)

    return factory


def adaboost_train(
    images: np.ndarray,
    labels: np.ndarray,
    chi: int = 20,
    base_config: convnet.ConvNetConfig | None = None,
    seed: int = 0,
    val_fraction: float = 0.2,
    learner_factory=None,
) -> BoostEnsemble:
    """Boost base learners over a crop-level training set.

    Each round trains a learner under the current sample weights,
    measures its weighted training error, reweights samples, and records
    the validation accuracy of the weighted-vote prefix. Degenerate
    rounds terminate the loop: a perfect learner keeps a clamped finite
    weight, a learner at or above 0.5 weighted error is discarded.
    """
    images = np.asarray(images, dtype=float)
    labels = np.asarray(labels)
    if images.shape[0] != labels.shape[0] or labels.shape[0] == 0:
        raise DataError("images and labels must be equal-length, non-empty")
    if not set(np.unique(labels)).issubset({-1, 1}):
        raise DataError("labels must be coded -1/+1")
    if not ROUNDS.holds(chi):
        raise DataError(f"chi must be {ROUNDS}, got {chi}")
    if learner_factory is None:
        if base_config is None:
            raise DataError("need a base config or a learner factory")
        learner_factory = _default_learner_factory(base_config, seed)

    tr_idx, va_idx = convnet.train_val_split(len(labels), val_fraction, seed)
    x_tr, y_tr = images[tr_idx], labels[tr_idx]
    x_va, y_va = images[va_idx], labels[va_idx]
    n_t = len(y_tr)
    weights = np.full(n_t, 1.0 / n_t)
    members: list[BoostMember] = []
    weight_history = [weights.copy()]
    val_accuracy: list[float] = []
    vote = np.zeros(len(y_va))
    for j in range(1, chi + 1):
        model = learner_factory(j, x_tr, y_tr, weights.copy(), (x_va, y_va))
        pred = _member_predict(model, x_tr)
        wrong = pred != y_tr
        error = float(weights[wrong].sum())
        if error >= 0.5:
            break
        terminate = False
        if error == 0.0:
            clamped = 1.0 / (2 * n_t)
            alpha = 0.5 * np.log((1.0 - clamped) / clamped)
            terminate = True
        else:
            alpha = 0.5 * np.log((1.0 - error) / error)
            weights = weights * np.exp(-alpha * y_tr * pred)
            weights = weights / weights.sum()
            weight_history.append(weights.copy())
        members.append(BoostMember(model, float(alpha), error))
        if len(y_va) > 0:
            vote = vote + alpha * _member_predict(model, x_va)
            joint = np.where(vote >= 0, 1, -1)
            val_accuracy.append(float(np.mean(joint == y_va)))
        else:
            val_accuracy.append(float("nan"))
        if terminate:
            break
    if not members:
        raise DataError(
            "no usable base learner: first round had weighted error >= 0.5"
        )
    if len(y_va) > 0:
        best_joint = int(np.argmax(val_accuracy)) + 1
    else:
        best_joint = len(members)
    return BoostEnsemble(
        members=members,
        best_joint=best_joint,
        validation_accuracy=val_accuracy,
        sample_weight_history=weight_history,
        n_train=n_t,
        n_val=len(y_va),
    )


def predict_trial(ensemble: BoostEnsemble, crop_images: np.ndarray) -> int:
    """Majority vote of the ensemble's hard labels over a trial's crops."""
    crop_images = np.asarray(crop_images, dtype=float)
    if crop_images.ndim != 3 or crop_images.shape[0] == 0:
        raise DataError("expected a (crops, height, time) stack")
    if crop_images.shape[0] % 2 == 0:
        raise DataError("crop count must be odd for majority voting")
    votes = ensemble_predict(ensemble, crop_images)
    return 1 if votes.sum() > 0 else -1


@dataclass(frozen=True)
class EvalReport:
    """Confusion counts and the derived agreement metrics.

    Percentages for sensitivity, specificity, and accuracy; Cohen's
    kappa from the marginal distributions. The +1 class is "positive".
    """

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def sensitivity(self) -> float:
        pos = self.tp + self.fn
        return 100.0 * self.tp / pos if pos else float("nan")

    @property
    def specificity(self) -> float:
        neg = self.tn + self.fp
        return 100.0 * self.tn / neg if neg else float("nan")

    @property
    def accuracy(self) -> float:
        return 100.0 * (self.tp + self.tn) / self.total

    @property
    def kappa(self) -> float:
        n = self.total
        p_o = (self.tp + self.tn) / n
        p_yes = ((self.tp + self.fp) / n) * ((self.tp + self.fn) / n)
        p_no = ((self.tn + self.fn) / n) * ((self.tn + self.fp) / n)
        p_e = p_yes + p_no
        if p_e == 1.0:
            return 1.0 if p_o == 1.0 else 0.0
        return (p_o - p_e) / (1.0 - p_e)


def evaluate(predictions, truths) -> EvalReport:
    """Confusion-matrix metrics for {-1,+1} labels; +1 is positive."""
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    if predictions.shape != truths.shape or predictions.size == 0:
        raise DataError("need equal-length, non-empty label lists")
    tp = int(np.sum((predictions == 1) & (truths == 1)))
    fp = int(np.sum((predictions == 1) & (truths == -1)))
    tn = int(np.sum((predictions == -1) & (truths == -1)))
    fn = int(np.sum((predictions == -1) & (truths == 1)))
    return EvalReport(tp, fp, tn, fn)
