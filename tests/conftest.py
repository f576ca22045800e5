"""Import axiscone before any test module imports numpy.

Importing axiscone pins BLAS to one thread (OPENBLAS_NUM_THREADS and its
kin), which takes effect only if numpy has not been loaded yet; test modules
import numpy first, so the package is imported here, where no numpy is
loaded.  `numpy_loaded_before_pin` records whether that still holds.
"""

import sys

NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules

import axiscone  # noqa: E402,F401  (pins BLAS threads)

import pytest  # noqa: E402


@pytest.fixture
def numpy_loaded_before_pin():
    return NUMPY_LOADED_BEFORE_PIN
