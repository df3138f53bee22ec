"""Information-theoretic secret sharing: GF(p) algebra on plain ints.

Everything lives in :mod:`repro.crypto.kernels`.
"""

from repro.crypto import kernels

__all__ = ["kernels"]
