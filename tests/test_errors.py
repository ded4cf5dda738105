import importlib
import pkgutil

import tfcgc
from tfcgc import pipeline
from tfcgc.errors import ConfigError, DataError, NumericError, Range, check_ranges

BASES = (ConfigError, DataError, NumericError)


def package_errors():
    """Every exception class a module of the package defines."""
    for info in pkgutil.iter_modules(tfcgc.__path__):
        module = importlib.import_module(f"tfcgc.{info.name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__
            ):
                yield obj


def test_package_defines_exactly_the_three_bases():
    assert set(package_errors()) == set(BASES)
    assert not any(issubclass(a, b) for a in BASES for b in BASES if a is not b)


def test_pipeline_names_stay_importable():
    assert pipeline.ConfigError is ConfigError
    assert pipeline.DataError is DataError


class TestRange:
    def test_text(self):
        assert str(Range(1)) == "at least 1"
        assert str(Range(10, ends="(]")) == "greater than 10"
        assert str(Range(0, 1, "()")) == "in (0, 1)"
        assert str(Range(0, 1, "[)")) == "in [0, 1)"

    def test_ends(self):
        assert Range(0, 1, "[)").holds(0) and not Range(0, 1, "[)").holds(1)
        assert not Range(0, 1, "()").holds(0) and Range(0, 1, "(]").holds(1)

    def test_tuples_and_none(self):
        assert Range(1).holds((1, 2)) and not Range(1).holds((1, 0))
        assert not Range(1).holds(())
        assert Range(1).holds(None)

    def test_check_names_field(self):
        config = tfcgc.RofrConfig(max_terms=5)
        check_ranges(config)
        try:
            check_ranges(config, max_terms=Range(10))
        except ConfigError as exc:
            assert exc.key == "max_terms"
            assert str(exc) == "max_terms must be at least 10, got 5"
        else:
            raise AssertionError("no error")
