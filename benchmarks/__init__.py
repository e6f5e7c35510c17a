"""Benchmark harness for nckey; see benchmarks/run.py."""
