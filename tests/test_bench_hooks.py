"""The names the benchmark's tracer wraps (bench/tracer.py) exist in the
package, and the kernels among them are still called.

The tracer replaces functions by attribute name, so renaming one of them
breaks traced benchmark runs, and a kernel the code no longer calls leaves its
per-layer metric at 0; these tests make either fail here instead.
"""
import importlib.util
import pathlib

import numpy as np
import pytest

import softscore
import softscore.cli  # noqa: F401  (binds softscore.cli, which the tracer wraps)
from softscore.design import CohortDesign
from softscore.optimizer import OptimizerConfig
from softscore.presets import preset, preset_cohort

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


@pytest.mark.parametrize("cores", [1, 2], ids=["1-core", "2-cores"])
def test_cross_validation_calls_every_traced_kernel(monkeypatch, cores):
    """A traced a,t,w cross-validation reaches every wrapped design method and
    optimizer function, so no per-layer metric of the benchmark reads 0
    because the code stopped calling the name it wraps.  The tracer sees only
    this process, so with worker processes it must still fit folds here."""
    monkeypatch.setattr("softscore.evaluation._available_cores", lambda: cores)
    tracer_module = _tracer_module()
    cohort, _, _ = preset_cohort("pediatric_icu", n=90, seed=4)
    d = preset("pediatric_icu").definition()
    config = OptimizerConfig(optimize_over=("a", "t", "w"), max_outer_iters=3)
    tracer = tracer_module.Tracer()
    tracer.install(softscore)
    try:
        softscore.evaluation.cross_validate(CohortDesign(cohort, d), config, folds=3)
    finally:
        tracer.uninstall()
    names = list(tracer_module._DESIGN_METHODS.values())
    names += [n for _, n in tracer_module._TARGETS if n.startswith("optimizer.")]
    assert {name: tracer.calls(name) for name in names if not tracer.calls(name)} == {}


def test_every_line_search_ends_in_a_step_or_a_stall():
    """``optimizer.line_searches`` counts ``backtracking_step`` calls, and a
    fit searches only the blocks with a nonzero gradient, each search ending
    in one accepted step or one stall; the count must keep that meaning."""
    tracer_module = _tracer_module()
    cohort, _, _ = preset_cohort("pediatric_icu", n=90, seed=4)
    design = CohortDesign(cohort, preset("pediatric_icu").definition())
    config = OptimizerConfig(optimize_over=("a", "t", "w"), max_outer_iters=20)
    tracer = tracer_module.Tracer()
    tracer.install(softscore)
    try:
        _, trace = softscore.optimizer.fit(design, config)
    finally:
        tracer.uninstall()
    assert trace.steps
    searches = tracer.calls("optimizer.backtracking_step")
    assert searches == len(trace.steps) + trace.stall_count


def _traced(name, *args, **kwargs):
    """Call ``softscore.evaluation.<name>`` with the benchmark's tracer
    installed; return the tracer and the result."""
    tracer = _tracer_module().Tracer()
    tracer.install(softscore)
    try:
        result = getattr(softscore.evaluation, name)(*args, **kwargs)
    finally:
        tracer.uninstall()
    return tracer, result


def test_one_evaluation_makes_one_roc_pass():
    """``evaluation.roc_calls`` counts ROC passes per ``evaluate_scores``:
    one, with Youden's J and the precision-recall balance read from it."""
    rng = np.random.default_rng(5)
    s = rng.normal(size=200)
    y = np.where(rng.uniform(size=200) < 0.3, 1, -1)
    tracer, _ = _traced("evaluate_scores", s, y)
    assert tracer.calls("evaluation.evaluate_scores") == 1
    assert tracer.calls("evaluation.roc_and_auc") == 1
    assert tracer.calls("evaluation.youden") == 0
    assert tracer.calls("evaluation.prec_rec_balance") == 0


def test_kfold_cross_validation_makes_one_roc_pass_per_fold_and_pooled():
    cohort, _, _ = preset_cohort("pediatric_icu", n=90, seed=4)
    d = preset("pediatric_icu").definition()
    config = OptimizerConfig(optimize_over=("a",), max_outer_iters=2)
    tracer, (report, _) = _traced(
        "cross_validate", CohortDesign(cohort, d), config, folds=3
    )
    assert all(f.auc is not None for f in report.folds)  # both classes in each
    assert tracer.calls("evaluation.roc_and_auc") == 4
    assert tracer.calls("evaluation.youden") == 0
    assert tracer.calls("evaluation.prec_rec_balance") == 0
