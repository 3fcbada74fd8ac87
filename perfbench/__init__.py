"""Served-survey benchmark; ``python3 perfbench/run.py --help``."""
