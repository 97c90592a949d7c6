"""End-to-end and per-layer benchmark of the task runtime (see README.md)."""
