"""Traced runs: wrappers at the names softscore's callers look up.

Each wrapper times its call and charges the time to its caller, so every
name gets a call count, a total and a self time (total minus the time of the
wrapped calls made inside it).  Calls at layer boundaries are also kept as
spans (id, parent span id, name, start, end) and written out when the run
ends.  The leaf kernels called tens of thousands of times per fit
(``step_z``, ``nll_of_scores``, ``backtracking_step``, ``hard_score`` and
the projections) are counted and timed but kept as no span, which keeps the
traced run's memory and overhead small.
"""
from __future__ import annotations

import functools
import json
import time

_HOT = {
    "design.step_z", "design.step_diff", "design.nll_of_scores",
    "optimizer.backtracking_step", "optimizer.project_slopes",
    "optimizer.project_thresholds", "model.hard_score",
}

# (module attribute path, traced name); the same function bound under several
# names shares one wrapper.
_TARGETS = [
    ("cli.load_cohort", "io.load_cohort"),
    ("cli.load_fitted", "io.load_fitted"),
    ("cli.load_score_definition", "io.load_score_definition"),
    ("cli.save_cohort", "io.save_cohort"),
    ("cli.save_fitted", "io.save_fitted"),
    ("cli.save_report", "io.save_report"),
    ("cli.save_scores", "io.save_scores"),
    ("cli.validate_cohort", "model.validate_cohort"),
    ("model.hard_score", "model.hard_score"),
    ("cli.soft_scores", "design.soft_scores"),
    ("cli.hard_scores", "design.hard_scores"),
    ("cli.fit_params", "optimizer.fit"),
    ("evaluation.fit", "optimizer.fit"),
    ("optimizer.backtracking_step", "optimizer.backtracking_step"),
    ("optimizer.project_slopes", "optimizer.project_slopes"),
    ("optimizer.project_thresholds", "optimizer.project_thresholds"),
    ("cli.cross_validate", "evaluation.cross_validate"),
    ("cli.evaluate_scores", "evaluation.evaluate_scores"),
    ("evaluation.evaluate_scores", "evaluation.evaluate_scores"),
    ("evaluation.roc_and_auc", "evaluation.roc_and_auc"),
    ("evaluation.youden", "evaluation.youden"),
    ("evaluation.prec_rec_balance", "evaluation.prec_rec_balance"),
    ("evaluation.platt_scale", "evaluation.platt_scale"),
    ("cli.platt_probabilities", "evaluation.platt_probabilities"),
    ("evaluation.platt_probabilities", "evaluation.platt_probabilities"),
    ("evaluation.brier", "evaluation.brier"),
    ("cli.impute", "imputation.impute"),
    ("imputation.knn_distances", "imputation.knn_distances"),
    ("cli.generate", "synthetic.generate"),
]

_DESIGN_METHODS = {
    "__init__": "design.build",
    "step_z": "design.step_z",
    "step_diff": "design.step_diff",
    "scores": "design.scores",
    "scores_for": "design.scores_for",
    "z_matrix": "design.z_matrix",
    "nll_of_scores": "design.nll_of_scores",
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.fit_traces: list = []  # FitTrace of every fit
        self.cells_imputed = 0
        self.distance_matrix_bytes = 0
        self._stack: list[list] = []  # [start, child seconds, span id]
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        span_id = parent = None
        if name not in _HOT:
            span_id = len(self.spans)
            self.spans.append(None)
            parent = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
        frame = [time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[0]
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += duration
            st[2] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if span_id is not None:
                self.spans[span_id] = (span_id, parent, name, frame[0], end)

    def _wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if name == "optimizer.fit":
                tracer.fit_traces.append(result[1])
            return result

        if name == "imputation.knn_distances":

            @functools.wraps(fn)
            def traced_knn(X, observed):
                tracer.cells_imputed += int((~observed).sum())
                n = X.shape[0]
                tracer.distance_matrix_bytes = max(tracer.distance_matrix_bytes, n * n * 8)
                return tracer.call(name, fn, X, observed)

            return traced_knn
        return traced

    def install(self, softscore):
        """Wrap the package's layer entry points in place."""
        wrappers = {}
        for path, name in _TARGETS:
            module_name, attr = path.split(".")
            module = getattr(softscore, module_name)
            fn = getattr(module, attr)
            key = (id(fn), name)
            if key not in wrappers:
                wrappers[key] = self._wrapper(name, fn)
            self._restore.append((module, attr, fn))
            setattr(module, attr, wrappers[key])
        design = softscore.design.CohortDesign
        for attr, name in _DESIGN_METHODS.items():
            fn = design.__dict__[attr]
            self._restore.append((design, attr, fn))
            setattr(design, attr, self._wrapper(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    # -- per-layer metrics ---------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def per_call(self, name, scale=1e3):
        n = self.calls(name)
        return self.total(name) / n * scale if n else 0.0

    def layer_metrics(self, rounds: int, bytes_written: int, setup_stats: dict):
        """Per-layer metrics of the timed phase; counts are per round."""
        c, per = self.calls, self.per_call
        fits = c("optimizer.fit")
        searches = c("optimizer.backtracking_step")
        evals = c("design.nll_of_scores")
        accepted = sum(len(t.steps) for t in self.fit_traces)
        at_cap = sum(t.converged_reason == "max outer iterations" for t in self.fit_traces)
        optimizer_self = sum(
            self.self_time(n) for n in self.stats if n.startswith("optimizer.")
        )

        def ratio(a, b):
            return a / b if b else 0.0

        gen = setup_stats.get("synthetic.generate", [0, 0.0, 0.0])
        return {
            "cli.command_ms": per("cli.command"),
            "cli.self_ms": ratio(self.self_time("cli.command") * 1e3, c("cli.command")),
            "io.load_cohort_ms": per("io.load_cohort"),
            "io.save_report_ms": per("io.save_report"),
            "io.save_scores_ms": per("io.save_scores"),
            "io.save_cohort_ms": per("io.save_cohort"),
            "io.bytes_written": bytes_written,
            "model.validate_cohort_ms": per("model.validate_cohort"),
            "model.hard_score_calls": c("model.hard_score") / rounds,
            "model.hard_score_us": per("model.hard_score", 1e6),
            "design.builds": c("design.build") / rounds,
            "design.build_ms": per("design.build"),
            "design.step_z_calls": c("design.step_z") / rounds,
            "design.step_z_us": per("design.step_z", 1e6),
            "design.nll_calls": evals / rounds,
            "design.nll_us": per("design.nll_of_scores", 1e6),
            "design.scores_ms": per("design.scores"),
            "optimizer.fits": fits / rounds,
            "optimizer.fit_ms": per("optimizer.fit"),
            "optimizer.outer_iters": ratio(
                sum(t.outer_iterations for t in self.fit_traces), fits),
            "optimizer.fits_at_cap": at_cap / rounds,
            "optimizer.line_searches": ratio(searches, fits),
            "optimizer.objective_evals": ratio(evals, fits),
            "optimizer.accepted_per_search": ratio(accepted, searches),
            "optimizer.evals_per_accepted_step": ratio(evals, accepted),
            "optimizer.stalls": ratio(sum(t.stall_count for t in self.fit_traces), fits),
            "optimizer.self_ms": ratio(optimizer_self * 1e3, fits),
            "evaluation.cv_ms": per("evaluation.cross_validate"),
            "evaluation.cv_self_ms": ratio(
                self.self_time("evaluation.cross_validate") * 1e3,
                c("evaluation.cross_validate")),
            "evaluation.roc_calls": ratio(
                c("evaluation.roc_and_auc"), c("evaluation.evaluate_scores")),
            "evaluation.roc_ms": per("evaluation.roc_and_auc"),
            "evaluation.platt_calls": c("evaluation.platt_scale") / rounds,
            "evaluation.platt_ms": per("evaluation.platt_scale"),
            "evaluation.evaluate_ms": per("evaluation.evaluate_scores"),
            "imputation.impute_ms": per("imputation.impute"),
            "imputation.knn_distances_ms": per("imputation.knn_distances"),
            "imputation.donor_search_ms": ratio(
                self.self_time("imputation.impute") * 1e3, c("imputation.impute")),
            "imputation.cells_imputed": self.cells_imputed / rounds,
            "imputation.distance_matrix_mb": self.distance_matrix_bytes / 1e6,
            "synthetic.generate_ms": gen[1] / gen[0] * 1e3 if gen[0] else 0.0,
        }
