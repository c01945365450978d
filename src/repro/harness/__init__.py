"""Experiment harness: mechanism registry, per-figure drivers, reporting.

The figure drivers pull in :mod:`repro.apps`, whose kernels need numpy.
Everything else in the harness — and both simulation cores — is pure
stdlib, so the figure names below are resolved lazily (PEP 562):
``run_trace`` and friends import cleanly on a numpy-free install, and
only touching a figure driver raises ImportError.
"""

from repro.harness.experiment import (
    MECHANISM_ORDER,
    RunResult,
    benchmark_trace,
    make_scheme,
    run_synthetic,
    run_trace,
)
from repro.harness.parallel import (
    RunSpec,
    SpecOutcome,
    execute_spec,
    parallel_map,
    run_specs,
    run_suite_parallel,
    suite_specs,
)
from repro.harness.report import format_series, format_table
from repro.harness.sweeps import (
    SeedStats,
    mechanism_comparison_with_error_bars,
    seed_sweep,
    significantly_better,
)

#: Names served lazily from repro.harness.figures (numpy-dependent).
_FIGURE_EXPORTS = frozenset({
    "SuiteResult",
    "area_overhead",
    "figure9", "figure10", "figure11", "figure12", "figure13",
    "figure14", "figure15", "figure16", "figure17",
    "format_area_overhead",
    "format_figure9", "format_figure10", "format_figure11",
    "format_figure12", "format_figure13", "format_figure14",
    "format_figure15", "format_figure16", "format_figure17",
    "format_table1",
    "run_benchmark_suite",
    "saturation_throughput",
    "table1",
})


def __getattr__(name: str):
    if name in _FIGURE_EXPORTS:
        from repro.harness import figures
        return getattr(figures, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _FIGURE_EXPORTS)


__all__ = [
    "MECHANISM_ORDER",
    "RunResult",
    "benchmark_trace",
    "make_scheme",
    "run_synthetic",
    "run_trace",
    "SuiteResult",
    "area_overhead",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "format_area_overhead",
    "format_figure9",
    "format_figure10",
    "format_figure11",
    "format_figure12",
    "format_figure13",
    "format_figure14",
    "format_figure15",
    "format_figure16",
    "format_figure17",
    "format_table1",
    "run_benchmark_suite",
    "saturation_throughput",
    "table1",
    "RunSpec",
    "SpecOutcome",
    "execute_spec",
    "parallel_map",
    "run_specs",
    "run_suite_parallel",
    "suite_specs",
    "format_series",
    "format_table",
    "SeedStats",
    "mechanism_comparison_with_error_bars",
    "seed_sweep",
    "significantly_better",
]
