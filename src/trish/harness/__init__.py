"""Experiment harness: configs, grid tuning, CSV traces, verification suites."""

from .config import load_config, validate_config
from .experiment import CSV_COLUMNS, run_experiment, write_trace_csv
from .grid import GridSpec, HyperGrid, baseline_gradient_norm, build_grid, tune
from .suites import SUITES, SuiteReport, verify
