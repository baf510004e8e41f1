"""haarforge: sample matrices from the classical compact groups with invariant
(Haar) measure and verify them against closed-form moments, densities, volumes
and limit laws.

Subpackages
-----------
linalg      dense matrix helpers: residuals, determinants, eigenphases
randstream  seeded counter-based randomness and the special angle laws
euler       Euler-angle factorizations of SO(N), U(N), Sp(2N) and densities
samplers    Haar samplers (Euler / QR / Householder), permutations, COE/CSE,
            and the (group, method) table SAMPLERS
spectra     eigenvalue-only models: Hessenberg, CMV, trace series
analytics   closed-form moments, volumes, normalizations, statistical tests
cli         the ``haar-forge`` command line front end
"""

from haarforge.linalg import SquareMatrix, EigenPhaseList
from haarforge.randstream import RandomStream

__version__ = "0.1.0"

__all__ = ["SquareMatrix", "EigenPhaseList", "RandomStream", "__version__"]
