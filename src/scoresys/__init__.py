"""Sparse linear integer scoring systems: exact training, analysis,
generalization bounds, and MIP export.

Names are resolved on first access (PEP 562) instead of being imported
here, so that a fresh interpreter compiles only the layers it uses: a
program that loads a table and a coefficient set imports ``errors``,
``exactnum``, ``coefset`` and ``data``, and not the solver, the MIP
writer and parser, the harness, the report code or the bounds.  A name
is cached in the module globals once resolved.  ``scoresys.cli``
imports every layer.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "bounds": ("BoundReport", "coprime_class_gap", "farey_count", "finite_class_gap"),
    "coefset": ("CoefficientDomain", "CoefficientSet", "Tier", "bounded_integers",
                "coprime_reduce", "digit_values", "explicit_values", "load_domains",
                "signed_integers", "uniform"),
    "data": ("Dataset", "FoldAssignment", "load_csv", "split_folds", "to_csv"),
    "errors": ("ConfigError", "DataError", "DomainError", "ReportError",
               "ScoresysError", "VerifyError"),
    "exactnum": (),
    "harness": ("CvAggregate", "CvRecord", "CvReport", "FrontierPoint",
                "default_c0_grid", "frontier", "frontier_from_report", "run_cv",
                "select_c0"),
    "mipmodel": ("MipModel", "build_model", "complete_assignment", "parse_lp",
                 "read_solution", "verify_solution", "write_lp"),
    "objective": ("ObjectiveValue", "TrainConfig", "c0_range", "default_c1",
                  "default_weights", "evaluate"),
    "report": ("DecisionTable", "ScoringSystem", "induce_decision_table",
               "parse_label_map", "parse_score_sheet", "render_results_table",
               "render_score_sheet"),
    "solver": ("SearchState", "SolveResult", "TracePoint", "lower_bound_of", "solve",
               "warm_start"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS or name == "cli":
        # importing a submodule binds it in the package globals
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
