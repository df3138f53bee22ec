"""Protocol parameterisation shared by every protocol in the library.

The central object is :class:`ProtocolParams`, which carries the number of
parties ``n``, the corruption bound ``t`` and the finite field used by the
secret-sharing layer.  The paper's protocols require optimal resilience,
``n >= 3t + 1``, and a prime field larger than ``n``; the constructor
validates both, so a bad modulus fails here and nowhere deeper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import ConfigurationError

#: Default prime modulus for the secret-sharing field.  Large enough that the
#: ``mod 2`` reduction used by CoinFlip (step 6 of Algorithm 1) is essentially
#: unbiased, small enough that arithmetic stays cheap in pure Python.
DEFAULT_PRIME = 2_147_483_647  # 2**31 - 1, a Mersenne prime


def validate_resilience(n: int, t: int) -> None:
    """Raise :class:`ConfigurationError` unless ``n >= 3t + 1`` and ``t >= 0``."""
    if n <= 0:
        raise ConfigurationError(f"number of parties must be positive, got n={n}")
    if t < 0:
        raise ConfigurationError(f"corruption bound must be non-negative, got t={t}")
    if n < 3 * t + 1:
        raise ConfigurationError(
            f"optimal resilience requires n >= 3t + 1; got n={n}, t={t}"
        )


@lru_cache(maxsize=256)
def is_probable_prime(value: int) -> bool:
    """Miller-Rabin primality test, deterministic for 64-bit inputs.

    Memoised per modulus: every trial and beacon request builds its
    :class:`ProtocolParams`, and only the first one per modulus pays the test.
    """
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if value < 2:
        return False
    for prime in witnesses:
        if value % prime == 0:
            return value == prime
    d, r = value - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # These witnesses are sufficient for all 64-bit integers.
    for a in witnesses:
        x = pow(a, d, value)
        if x in (1, value - 1):
            continue
        for _ in range(r - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            return False
    return True


def max_faults(n: int) -> int:
    """Return the largest ``t`` with ``3t + 1 <= n`` (optimal resilience)."""
    if n < 1:
        raise ConfigurationError(f"number of parties must be positive, got n={n}")
    return (n - 1) // 3


@dataclass(frozen=True)
class ProtocolParams:
    """Immutable protocol parameters.

    Attributes:
        n: total number of parties, indexed ``0 .. n-1``.
        t: maximum number of corrupted parties tolerated.
        prime: modulus of the finite field used for secret sharing; a prime
            integer above ``n``.
    """

    n: int
    t: int
    prime: int = field(default=DEFAULT_PRIME)

    def __post_init__(self) -> None:
        validate_resilience(self.n, self.t)
        if not isinstance(self.prime, int) or not is_probable_prime(self.prime):
            raise ConfigurationError(
                f"field modulus must be a prime integer, got prime={self.prime!r}"
            )
        if self.prime <= self.n:
            raise ConfigurationError(
                f"field modulus must exceed the number of parties; "
                f"got prime={self.prime}, n={self.n}"
            )

    @classmethod
    def for_parties(cls, n: int, prime: int = DEFAULT_PRIME) -> "ProtocolParams":
        """Build parameters for ``n`` parties with the maximum tolerated ``t``."""
        return cls(n=n, t=max_faults(n), prime=prime)

    @property
    def quorum(self) -> int:
        """Size of an ``n - t`` quorum (at least ``2t + 1`` honest-capable set)."""
        return self.n - self.t

    @property
    def party_ids(self) -> range:
        """Iterable of all party identifiers."""
        return range(self.n)

    def is_valid_party(self, pid: int) -> bool:
        """Return True when ``pid`` names an existing party."""
        return 0 <= pid < self.n
