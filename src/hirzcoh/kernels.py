"""The lattice-enumeration kernel used by the oracle in hirzcoh.cohomology.

There is one backend, the pure-Python point walk in ``_kernels_py``;
``BACKEND`` names it.
"""

from ._kernels_py import lattice_point_count

BACKEND = "python"

__all__ = ["lattice_point_count", "BACKEND"]
