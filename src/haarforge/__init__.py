"""haarforge: sample matrices from the classical compact groups with invariant
(Haar) measure and verify them against closed-form moments, densities, volumes
and limit laws.  README's "Library layout" lists the modules.
"""

from haarforge.randstream import RandomStream

__version__ = "0.1.0"

__all__ = ["RandomStream", "__version__"]
