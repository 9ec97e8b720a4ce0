"""End-to-end benchmark of the repro workloads (see README.md)."""
