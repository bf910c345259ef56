"""Linear-algebra substrate used by the spectral ranking algorithms.

This package provides the numerical building blocks that the paper's
algorithms are assembled from:

* :mod:`repro.linalg.normalize` -- row/column normalization of (sparse)
  response matrices and vector normalization helpers.
* :mod:`repro.linalg.power_iteration` -- the power method with convergence
  tracking, used by HND-power and ABH-power.
* :mod:`repro.linalg.deflation` -- Hotelling matrix deflation used by the
  HND-deflation variant (Section III-F of the paper).
* :mod:`repro.linalg.spectral` -- direct eigen-solvers (Arnoldi / Lanczos
  wrappers) and Fiedler-vector computation used by HND-direct / ABH-direct.
* :mod:`repro.linalg.operators` -- the difference (``S``) and cumulative-sum
  (``T``) operators from Figure 3 of the paper, implemented as matrix-free
  callables as well as explicit matrices.
"""

from repro.linalg.normalize import (
    normalize_rows,
    normalize_columns,
    l2_normalize,
    safe_divide,
)
from repro.linalg.operators import (
    difference_matrix,
    cumulative_matrix,
    apply_difference,
    apply_cumulative,
)
from repro.linalg.power_iteration import (
    PowerIterationResult,
    power_iteration,
    power_iteration_matvec,
)
from repro.linalg.deflation import hotelling_deflation, dominant_pair
from repro.linalg.spectral import (
    second_largest_eigenvector,
    fiedler_vector,
    laplacian,
    orderings_equivalent,
)

__all__ = [
    "normalize_rows",
    "normalize_columns",
    "l2_normalize",
    "safe_divide",
    "difference_matrix",
    "cumulative_matrix",
    "apply_difference",
    "apply_cumulative",
    "PowerIterationResult",
    "power_iteration",
    "power_iteration_matvec",
    "hotelling_deflation",
    "dominant_pair",
    "second_largest_eigenvector",
    "fiedler_vector",
    "laplacian",
    "orderings_equivalent",
]
