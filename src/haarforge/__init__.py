"""haarforge: sample matrices from the classical compact groups with invariant
(Haar) measure and verify them against closed-form moments, densities, volumes
and limit laws.

Subpackages
-----------
linalg      dense matrix helpers: residuals, charpolys, eigenphases
randstream  seeded counter-based randomness and the special angle laws
euler       Euler-angle composition (SO(N), U(N), Sp(2N)) and extraction
            (SO(N), U(N)) on (B, n, n) stacks, and the invariant densities
samplers    Haar samplers (Euler / QR / Householder), permutations, COE/CSE,
            and the (group, method) table SAMPLERS
spectra     eigenvalue-only models: Hessenberg, CMV, trace series
analytics   closed-form moments, volumes, normalizations, statistical tests
verify      the 12-criterion acceptance battery behind ``haar-forge verify``
fileio      JSON and CSV serialization, each format one float view of the
            (B, n, n) sample stack
cli         the ``haar-forge`` command line front end
"""

from haarforge.randstream import RandomStream

__version__ = "0.1.0"

__all__ = ["RandomStream", "__version__"]
