"""Benchmark for dpaccel: workloads, correctness checks and tracing."""
