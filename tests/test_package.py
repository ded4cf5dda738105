import os

import pytest

import tfcgc

tomllib = pytest.importorskip("tomllib")

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def test_version_matches_pyproject():
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert tfcgc.__version__ == project["version"]
