from .engine import is_assisted  # noqa: F401  (imported by benchmarks/e2e/layers.py)
