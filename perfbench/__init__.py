"""Benchmark of diffalg's passivity decision; run perfbench/run.py."""
