"""The names the benchmark's tracer wraps (bench/tracer.py) exist in the package.

The tracer replaces functions by attribute name, so renaming one of them
breaks traced benchmark runs; this test makes the rename fail here instead.
"""
import importlib.util
import pathlib

import softscore
import softscore.cli  # noqa: F401  (binds softscore.cli, which the tracer wraps)
from softscore.design import CohortDesign

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for path, _ in _tracer_module()._TARGETS:
        module, attr = path.split(".")
        assert callable(getattr(getattr(softscore, module), attr)), path


def test_every_traced_design_method_is_defined_on_the_class():
    for attr in _tracer_module()._DESIGN_METHODS:
        assert attr in CohortDesign.__dict__, attr
