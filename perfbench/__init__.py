"""Benchmark of the covertime package; the entry point is ``perfbench/run.py``."""
