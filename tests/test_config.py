"""Tests for protocol parameter validation (repro.core.config)."""

from __future__ import annotations

import pytest

from repro.core.config import (
    DEFAULT_PRIME,
    ProtocolParams,
    is_probable_prime,
    max_faults,
    validate_resilience,
)
from repro.errors import ConfigurationError


class TestValidateResilience:
    def test_minimum_configuration(self):
        validate_resilience(4, 1)

    def test_crash_free_configuration(self):
        validate_resilience(1, 0)

    def test_exact_boundary(self):
        validate_resilience(7, 2)

    def test_rejects_n_equal_3t(self):
        with pytest.raises(ConfigurationError):
            validate_resilience(3, 1)

    def test_rejects_n_below_3t_plus_1(self):
        with pytest.raises(ConfigurationError):
            validate_resilience(6, 2)

    def test_rejects_negative_t(self):
        with pytest.raises(ConfigurationError):
            validate_resilience(4, -1)

    def test_rejects_zero_parties(self):
        with pytest.raises(ConfigurationError):
            validate_resilience(0, 0)


class TestMaxFaults:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 0), (2, 0), (3, 0), (4, 1), (6, 1), (7, 2), (10, 3), (13, 4), (100, 33)],
    )
    def test_values(self, n, expected):
        assert max_faults(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            max_faults(0)

    def test_consistent_with_validation(self):
        for n in range(1, 50):
            validate_resilience(n, max_faults(n))


class TestProtocolParams:
    def test_for_parties_uses_max_faults(self):
        params = ProtocolParams.for_parties(10)
        assert params.n == 10
        assert params.t == 3

    def test_quorum_is_n_minus_t(self):
        params = ProtocolParams(n=7, t=2)
        assert params.quorum == 5

    def test_party_ids(self):
        params = ProtocolParams.for_parties(4)
        assert list(params.party_ids) == [0, 1, 2, 3]

    def test_is_valid_party(self):
        params = ProtocolParams.for_parties(4)
        assert params.is_valid_party(0)
        assert params.is_valid_party(3)
        assert not params.is_valid_party(4)
        assert not params.is_valid_party(-1)

    def test_default_prime(self):
        assert ProtocolParams.for_parties(4).prime == DEFAULT_PRIME

    def test_rejects_bad_resilience(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(n=4, t=2)

    def test_rejects_tiny_prime(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(n=7, t=2, prime=5)

    @pytest.mark.parametrize("prime", [15, 100, 561, 2_147_483_646, 1, 0, -7, 101.0, "101"])
    def test_rejects_a_modulus_that_is_not_a_prime_integer(self, prime):
        with pytest.raises(ConfigurationError, match="prime integer"):
            ProtocolParams.for_parties(4, prime=prime)

    def test_frozen(self):
        params = ProtocolParams.for_parties(4)
        with pytest.raises(AttributeError):
            params.n = 5  # type: ignore[misc]


class TestPrimality:
    @pytest.mark.parametrize(
        "value",
        [
            2, 3, 5, 7, 37, 41, 101, 997, 65_537, 1_000_003, 2_147_483_647,
            4_294_967_291,  # the largest 32-bit prime
            2**61 - 1,  # a Mersenne prime
            18_446_744_073_709_551_557,  # the largest 64-bit prime
        ],
    )
    def test_accepts_primes(self, value):
        assert is_probable_prime(value)

    @pytest.mark.parametrize(
        "value",
        [
            0, 1, 4, 15, 49, 100, 561, 1105, 1729, 2465, 41_041, 1_000_001,
            2_147_483_646, 1_000_003**2, 2047, 1_373_653, 25_326_001,
            3_215_031_751, 3_825_123_056_546_413_051,
        ],
    )
    def test_rejects_composites(self, value):
        """561, 1105, 1729, 2465 and 41 041 are Carmichael numbers (they fool
        Fermat's test to every coprime base).  The strong pseudoprimes need
        more than one Miller-Rabin witness: 2047 fools base 2, 1 373 653 bases
        2 and 3, 25 326 001 bases 2, 3 and 5, 3 215 031 751 bases 2 to 7, and
        3 825 123 056 546 413 051 every prime base up to 23."""
        assert not is_probable_prime(value)

    def test_agrees_with_trial_division(self):
        def trial(value):
            return value >= 2 and all(value % d for d in range(2, int(value**0.5) + 1))

        assert [v for v in range(2000) if is_probable_prime(v)] == [
            v for v in range(2000) if trial(v)
        ]

    def test_one_test_per_modulus(self):
        """Every trial and beacon request builds ProtocolParams; only the first
        build per modulus runs Miller-Rabin."""
        ProtocolParams.for_parties(4, prime=1_000_003)
        before = is_probable_prime.cache_info()
        for n in (4, 7, 16, 4):
            ProtocolParams.for_parties(n, prime=1_000_003)
        after = is_probable_prime.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 4
