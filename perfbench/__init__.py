"""Repository benchmark: flagship, job and serve workloads (see run.py)."""
