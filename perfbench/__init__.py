"""Benchmark of admmo: workloads, tracing and independent checks."""
