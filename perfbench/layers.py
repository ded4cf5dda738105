"""Which public functions the traced run wraps, and the per-layer metrics.

Layers are the modules of ``src/tfcgc``.  ``cli`` is left out: the
benchmark calls the library directly.
"""

from __future__ import annotations

from collections import defaultdict

from tfcgc import (
    boosting,
    bsplines,
    causality,
    convnet,
    gridio,
    identify,
    images,
    pipeline,
)

from spans import Patcher, Recorder, Span, self_times

MODULES = (bsplines, identify, causality, images, convnet, boosting, pipeline, gridio)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)


def _rofr_counts(args, kwargs, result):
    problem = args[0]
    return {
        "steps": len(result.pesr_trace),
        "terms": result.term_count,
        "candidates": problem.design_matrix.shape[1],
    }


# (module, function, counts of one call); every span is named module.function
FUNCTIONS = [
    (bsplines, "build_dictionary", None),
    (bsplines, "basis_eval", None),
    (identify, "expand_regressors", None),
    (identify, "rofr_select", _rofr_counts),
    (identify, "solve_parameters", None),
    (identify, "recursive_covariance", None),
    (identify, "reconstruct_coefficients", None),
    (identify, "fit_tvarx", None),
    (causality, "fit_system", None),
    (causality, "permute_system", None),
    (causality, "normalize_restricted", None),
    (causality, "normalize_full", None),
    (
        causality,
        "spectral_matrices",
        lambda a, k, r: {"cells": r.shape[0] * r.shape[1]},
    ),
    (causality, "pairwise_maps", None),
    (causality, "tf_cgc_map", None),
    (causality, "significance_test", None),
    (images, "crop_trial", None),
    (images, "electrode_representation", None),
    (images, "assemble_image", None),
    (convnet, "build_convnet", None),
    (convnet, "forward", None),
    (convnet, "loss_and_gradients", None),
    (convnet, "predict", None),
    (convnet, "accuracy", None),
    (convnet, "train", None),
    (
        boosting,
        "adaboost_train",
        lambda a, k, r: {"members": len(r.members)},
    ),
    (boosting, "ensemble_predict", None),
    (boosting, "predict_trial", None),
    (boosting, "evaluate", None),
    (pipeline, "bandpass", None),
    (pipeline, "trial_images", None),
    # the unit the process pool runs; its span is one crop's busy time
    (pipeline, "_crop_image_unit", None),
    (pipeline, "run_pipeline", None),
    (gridio, "config_hash", None),
    (gridio, "write_grid", None),
    (gridio, "save_checkpoint", None),
    (gridio, "save_convnet", None),
    (gridio, "save_ensemble", None),
    (gridio, "atomic_write", lambda a, k, r: {"bytes": len(a[1])}),
]


def install(spool_dir: str) -> tuple[Recorder, Patcher]:
    recorder = Recorder(spool_dir)
    patcher = Patcher(recorder, MODULES)
    for module, attr, counts in FUNCTIONS:
        name = f"{module.__name__.rsplit('.', 1)[1]}.{attr.lstrip('_')}"
        patcher.function(module, attr, name, counts)
    patcher.method(
        bsplines.MultiwaveletDictionary, "basis_matrix", "bsplines.basis_matrix"
    )
    return recorder, patcher


class Totals:
    """Per span name: calls, inclusive and self seconds, summed counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.own = defaultdict(float)
        self.counts = defaultdict(float)
        self.busy = 0.0  # seconds inside any span, summed over processes
        self.top_gridio = 0.0

    def add(self, spans: list[Span]) -> None:
        """Fold in the spans of one recorder."""
        own = self_times(spans)
        by_id = {s.sid: s for s in spans}
        for s in spans:
            parent = by_id.get(s.parent)
            self.calls[s.name] += 1
            self.own[s.name] += own[s.sid]
            self.busy += own[s.sid]
            # inclusive time once per outermost span of a name
            if parent is None or parent.name != s.name:
                self.incl[s.name] += s.duration
            for key, value in s.counts.items():
                self.counts[f"{s.name}.{key}"] += value
            if s.name.startswith("gridio.") and not (
                parent is not None and parent.name.startswith("gridio.")
            ):
                self.top_gridio += s.duration

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.own.items() if k.startswith(layer + "."))


def per_layer(totals: Totals, ops: int, op_wall: float, untraced_wall: float,
              pool_workers: int) -> dict:
    """Per-layer metrics per operation, plus tracing overhead and shares.

    ``op_wall`` is the summed wall time of the traced operations and
    ``untraced_wall`` that of the same operations run without tracing.
    """
    t = totals
    rofr_calls = t.calls["identify.rofr_select"]
    pair_self = sum(
        t.own[n]
        for n in ("causality.pairwise_maps", "causality.tf_cgc_map",
                  "causality.significance_test")
    )
    trial_wall = t.incl["pipeline.trial_images"]
    raw = {
        "identify.rofr_select_s": t.incl["identify.rofr_select"],
        "identify.rofr_select_calls": rofr_calls,
        "identify.rofr_steps": t.counts["identify.rofr_select.steps"],
        "identify.expand_regressors_s": t.incl["identify.expand_regressors"],
        "identify.recursive_covariance_s": t.incl["identify.recursive_covariance"],
        "identify.recursive_covariance_calls": t.calls["identify.recursive_covariance"],
        "identify.fit_tvarx_self_s": t.own["identify.fit_tvarx"],
        "bsplines.basis_matrix_s": t.incl["bsplines.basis_matrix"],
        "bsplines.basis_matrix_calls": t.calls["bsplines.basis_matrix"],
        "bsplines.basis_eval_calls": t.calls["bsplines.basis_eval"],
        "causality.fit_system_s": t.incl["causality.fit_system"],
        "causality.fit_system_calls": t.calls["causality.fit_system"],
        "causality.normalize_s": t.incl["causality.normalize_restricted"]
        + t.incl["causality.normalize_full"],
        "causality.spectral_matrices_s": t.incl["causality.spectral_matrices"],
        "causality.spectral_matrices_calls": t.calls["causality.spectral_matrices"],
        "causality.pair_eval_self_s": pair_self,
        "causality.grid_cells": t.counts["causality.spectral_matrices.cells"],
        "images.assemble_s": t.incl["images.assemble_image"]
        + t.incl["images.electrode_representation"],
        "images.crops": t.calls["images.assemble_image"],
        "pipeline.trial_images_s": trial_wall,
        "pipeline.bandpass_s": t.incl["pipeline.bandpass"],
        "convnet.train_s": t.incl["convnet.train"],
        "convnet.batches": t.calls["convnet.loss_and_gradients"],
        "convnet.loss_and_gradients_s": t.incl["convnet.loss_and_gradients"],
        "convnet.predict_s": t.incl["convnet.predict"],
        "convnet.predict_calls": t.calls["convnet.predict"],
        "boosting.adaboost_train_self_s": t.own["boosting.adaboost_train"],
        "boosting.members": t.counts["boosting.adaboost_train.members"],
        "boosting.ensemble_predict_s": t.incl["boosting.ensemble_predict"],
        "gridio.write_s": t.top_gridio,
        "gridio.bytes_written": t.counts["gridio.atomic_write.bytes"],
    }
    for layer in LAYERS:
        raw[f"{layer}.self_s"] = t.layer_self(layer)
    out = {k: v / ops for k, v in raw.items()}
    # averages over fits, not sums per operation
    out["identify.terms_per_fit"] = (
        t.counts["identify.rofr_select.terms"] / rofr_calls if rofr_calls else 0.0
    )
    out["identify.candidates_per_fit"] = (
        t.counts["identify.rofr_select.candidates"] / rofr_calls if rofr_calls else 0.0
    )
    busy = t.incl["pipeline.crop_image_unit"]
    out["pipeline.worker_busy_ratio"] = (
        busy / (pool_workers * trial_wall) if trial_wall else 0.0
    )
    # 100% when the spans of one process cover the wall time; a pool of
    # n busy workers takes it towards n * 100%
    out["trace.accounted_pct"] = 100.0 * t.busy / op_wall
    out["trace.overhead_pct"] = 100.0 * (op_wall / untraced_wall - 1.0)
    # shares of busy time, so that pool workers count once each
    out["share.rofr_pct"] = 100.0 * t.incl["identify.rofr_select"] / t.busy
    out["share.spectral_sink_pct"] = (
        100.0 * (t.incl["causality.spectral_matrices"] + pair_self) / t.busy
    )
    return out
