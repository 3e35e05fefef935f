"""Seeded benchmark of the cforbits toolkit; run it with ``python3 perfbench/run.py``."""
