"""Import the package before any test module imports numpy, so that
in-process tests run with the one BLAS thread the package pins."""

import aoi_uav  # noqa: F401
