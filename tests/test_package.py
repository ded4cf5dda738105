import os
import subprocess
import sys

import pytest

import tfcgc

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert tfcgc.__version__ == project["version"]


#: imports the CLI, then band-passes, fits and maps a tiny input
NO_SCIPY_PROBE = """
import sys
import numpy as np
import tfcgc.cli
from tfcgc import causality, identify, pipeline

rng = np.random.default_rng(0)
trials = [pipeline.Trial(rng.standard_normal((3, 120)), 1, "t")]
data = pipeline.bandpass(pipeline.TrialSet(trials, ("A", "B", "C"), 250.0), 6, 15)
signals = data.trials[0].data
config = causality.CgcConfig(orders=(3,), scale=1, lags=2, init_window=20, freq_step=1.0)
dictionary = identify.build_dictionary((3,), 1, [2, 2, 2])
identify.fit_equations(signals, [(0, [1, 2], dictionary)], config.rofr)
causality.pairwise_maps(signals, range(3), 250.0, config)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_imports_no_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


#: images one short trial on one process, then lists the pool's modules
NO_POOL_PROBE = """
import sys
import tfcgc
from tfcgc import pipeline

spec = pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0)
trials = pipeline.bandpass(pipeline.synth_generate(spec), 6.0, 15.0)
config = pipeline.RunConfig(
    orders=(3,), scale=1, lags=2, init_window=20, time_decimation=10, threads=1
)
pipeline.trial_images(trials, config)
print(sorted(
    m for m in sys.modules
    if m == "concurrent.futures.process" or m.split(".")[0] == "multiprocessing"
))
"""


def test_single_process_run_loads_no_pool():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", NO_POOL_PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
