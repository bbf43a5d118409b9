"""Benchmark harness reproducing the paper's complexity claims (E1-E12).

Each ``bench_*.py`` module is both

* a pytest-benchmark target: ``pytest benchmarks/ --benchmark-only`` runs a
  representative configuration of every experiment and attaches the measured
  message counts to the benchmark's ``extra_info``;
* a printable experiment: ``python -m benchmarks.bench_<name>`` sweeps the
  full parameter grid and prints its experiment table (measured counts next
  to the paper's bound and the baselines).

``examples/message_complexity_study.py`` maps the experiment IDs to modules
and prints every table in one run.
"""
