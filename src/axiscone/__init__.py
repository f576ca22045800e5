"""Numerical toolkit for positivity and ergodicity of symmetric operators.

Core objects: dense symmetric operators with cached spectra, the 45-degree
axis cone and the nonnegative orthant, verdict-producing verifiers for
positivity preservation/improvement and ergodicity, quantitative drift and
spectral-gap budgets for heat semigroups, and a discrete 1-D magnetic
Hamiltonian pipeline that exercises the whole chain.
"""

import os

__version__ = "0.1.0"

# One BLAS thread unless the caller chose otherwise: threaded BLAS sums in an
# order that depends on the thread count, and reports must not.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cones import AxisCone, MoreauSplit, OrthantCone, Region
from .errors import AxisConeError
from .operators import SpectralDecomposition, SymmetricOperator
from .positivity import Verdict, VerdictStatus

__all__ = [
    "__version__",
    "AxisCone",
    "AxisConeError",
    "MoreauSplit",
    "OrthantCone",
    "Region",
    "SpectralDecomposition",
    "SymmetricOperator",
    "Verdict",
    "VerdictStatus",
]
