"""Causality-image decoding of two-class motor imagery EEG.

The package identifies time-varying autoregressive models over a
multiwavelet B-spline dictionary, derives time-frequency conditional
Granger causality maps from them, folds the maps into per-electrode
causality images, and classifies trials with a boosted convolutional
network.
"""

from .bsplines import BSplineSpec, MultiwaveletDictionary, build_dictionary
from .causality import CgcConfig, CgcMap, pairwise_maps, significance_test, tf_cgc_map
from .identify import RofrConfig, TvarxModel, fit_tvarx, rofr_select
from .images import CausalityImage, Crop, assemble_image, crop_trial
from .boosting import BoostEnsemble, EvalReport, adaboost_train, evaluate
from .convnet import ConvNetConfig, ConvNetModel, build_convnet
from .pipeline import RunConfig, SynthSpec, TrialSet, run_pipeline, synth_generate

__version__ = "0.1.0"
