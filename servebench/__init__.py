"""Served-workload benchmark of the CQA service (see run.py)."""
