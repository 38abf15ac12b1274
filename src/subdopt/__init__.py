"""D-optimal subdata selection for linear regression on large datasets.

Seed a size-k subsample (uniform, IBOSS or OSS), improve it with
determinant-maximizing point exchanges, and evaluate the result with
D-/A-efficiencies, generalized variance and estimation error under
reproducible simulation and bootstrap harnesses.
"""

__version__ = "0.1.0"
