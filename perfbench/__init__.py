"""The repository benchmark: named workloads, end-to-end and per-layer metrics."""
