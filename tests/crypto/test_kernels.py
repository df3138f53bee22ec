"""The GF(p) kernels against textbook formulas on plain ints.

Every oracle here is written out directly -- ``sum(c * pow(x, i, p))``,
``pow(v, p - 2, p)``, the Lagrange sum, the bivariate double sum -- and never
calls the kernel it checks, so the kernels are pinned by an independent
implementation rather than by a wrapper around themselves.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import kernels
from repro.errors import DecodingError, FieldError, InterpolationError

PRIME = 101
BIG_PRIME = 2_147_483_647

coeff_lists = st.lists(st.integers(0, PRIME - 1), min_size=1, max_size=8)


def naive_eval(coeffs, x, prime=PRIME):
    """Oracle: ``sum_i c_i x^i`` mod p."""
    return sum(c * pow(x, i, prime) for i, c in enumerate(coeffs)) % prime


def inverse(value, prime=PRIME):
    """Oracle: Fermat's little theorem."""
    return pow(value, prime - 2, prime)


def naive_lagrange(points, prime=PRIME):
    """Oracle: ``L(x) = sum_i y_i prod_{j != i} (x - x_j) / (x_i - x_j)``."""

    def evaluate(x):
        total = 0
        for i, (xi, yi) in enumerate(points):
            term = yi
            for j, (xj, _) in enumerate(points):
                if j != i:
                    term = term * (x - xj) * inverse(xi - xj, prime) % prime
            total += term
        return total % prime

    return evaluate


def naive_bivariate(matrix, x, y, prime=PRIME):
    """Oracle: ``F(x, y) = sum_{a, b} c[a][b] x^a y^b`` mod p."""
    return sum(
        c * pow(x, a, prime) * pow(y, b, prime)
        for a, row in enumerate(matrix)
        for b, c in enumerate(row)
    ) % prime


def with_errors(ys, positions, rng, prime=PRIME):
    """``ys`` with the value at each of ``positions`` changed."""
    out = list(ys)
    for position in positions:
        out[position] = (out[position] + rng.randrange(1, prime)) % prime
    return out


class TestScalarKernels:
    @given(value=st.integers(1, PRIME - 1))
    def test_mod_inv_is_fermat_inverse(self, value):
        assert kernels.mod_inv(PRIME, value) == inverse(value)
        assert kernels.mod_inv(PRIME, value + 7 * PRIME) == inverse(value)

    def test_mod_inv_zero_raises(self):
        with pytest.raises(FieldError):
            kernels.mod_inv(PRIME, 0)
        with pytest.raises(FieldError):
            kernels.mod_inv(PRIME, PRIME)

    @given(values=st.lists(st.integers(1, PRIME - 1), max_size=12))
    def test_batch_inverse_is_fermat_inverse(self, values):
        assert kernels.batch_inverse(PRIME, values) == [inverse(v) for v in values]

    def test_batch_inverse_rejects_zero(self):
        with pytest.raises(FieldError):
            kernels.batch_inverse(PRIME, [3, 0, 5])

    def test_batch_inverse_of_nothing_is_empty(self):
        assert kernels.batch_inverse(PRIME, []) == []

    @pytest.mark.parametrize("prime", [2, 3, PRIME, 1_000_003, BIG_PRIME])
    def test_value_times_its_inverse_is_one(self, prime):
        values = sorted({1, prime - 1, prime // 2, 7 % prime} - {0})
        for value, inv in zip(values, kernels.batch_inverse(prime, values)):
            assert value * kernels.mod_inv(prime, value) % prime == 1
            assert value * inv % prime == 1


class TestPolynomialKernels:
    def test_trim(self):
        assert kernels.poly_trim((1, 2, 0, 0)) == (1, 2)
        assert kernels.poly_trim((0, 0, 0)) == (0,)
        assert kernels.poly_trim((0,)) == (0,)

    @given(coeffs=coeff_lists, x=st.integers(0, PRIME - 1))
    def test_horner_matches_naive(self, coeffs, x):
        assert kernels.horner(PRIME, coeffs, x) == naive_eval(coeffs, x)

    def test_horner_on_a_literal_cubic(self):
        for x in range(10):
            assert kernels.horner(PRIME, (3, 0, 2, 5), x) == (3 + 2 * x**2 + 5 * x**3) % PRIME

    @given(coeffs=coeff_lists, xs=st.lists(st.integers(0, PRIME - 1), max_size=10))
    def test_eval_at_many_matches_naive(self, coeffs, xs):
        assert kernels.eval_at_many(PRIME, coeffs, xs) == [naive_eval(coeffs, x) for x in xs]

    def test_eval_at_many_on_a_literal_line(self):
        assert kernels.eval_at_many(PRIME, (1, 1), [0, 1, 2, PRIME - 1]) == [1, 2, 3, 0]

    @given(
        f=st.lists(st.integers(0, PRIME - 1), min_size=6, max_size=6),
        g=st.lists(st.integers(0, PRIME - 1), min_size=6, max_size=6),
        x=st.integers(0, PRIME - 1),
        scalar=st.integers(0, PRIME - 1),
    )
    def test_evaluation_is_linear(self, f, g, x, scalar):
        """``(f + g)(x) = f(x) + g(x)`` and ``(c f)(x) = c f(x)``."""
        total = [(a + b) % PRIME for a, b in zip(f, g)]
        assert kernels.horner(PRIME, total, x) == (
            kernels.horner(PRIME, f, x) + kernels.horner(PRIME, g, x)
        ) % PRIME
        assert kernels.horner(PRIME, kernels.poly_scale(PRIME, f, scalar), x) == (
            scalar * kernels.horner(PRIME, f, x) % PRIME
        )

    @given(coeffs=coeff_lists, scalar=st.integers(-PRIME, 2 * PRIME))
    def test_scale_is_pointwise(self, coeffs, scalar):
        scaled = kernels.poly_scale(PRIME, coeffs, scalar)
        for x in range(0, PRIME, 13):
            assert naive_eval(scaled, x) == naive_eval(coeffs, x) * scalar % PRIME

    @given(a=coeff_lists, b=coeff_lists)
    def test_divmod_is_division_with_remainder(self, a, b):
        """``a(x) = q(x) b(x) + r(x)`` at every point, with ``deg r < deg b``."""
        if all(c == 0 for c in b):
            with pytest.raises(InterpolationError):
                kernels.poly_divmod(PRIME, a, b)
            return
        quotient, remainder = kernels.poly_divmod(PRIME, a, b)
        for x in range(PRIME):
            assert naive_eval(a, x) == (
                naive_eval(quotient, x) * naive_eval(b, x) + naive_eval(remainder, x)
            ) % PRIME
        assert len(kernels.poly_trim(remainder)) < len(kernels.poly_trim(b)) or (
            kernels.poly_trim(remainder) == (0,)
        )

    def test_divmod_on_a_literal_difference_of_squares(self):
        """``1 - x^2 = (1 - x)(1 + x)`` and ``x^2 + 1 = (x - 1)(x + 1) + 2``."""
        quotient, remainder = kernels.poly_divmod(PRIME, (1, 0, PRIME - 1), (1, 1))
        assert kernels.poly_trim(quotient) == (1, PRIME - 1)
        assert kernels.poly_trim(remainder) == (0,)
        quotient, remainder = kernels.poly_divmod(PRIME, (1, 0, 1), (1, 1))
        assert kernels.poly_trim(quotient) == (PRIME - 1, 1)
        assert kernels.poly_trim(remainder) == (2,)

    def test_division_by_the_zero_polynomial_raises(self):
        for zero in ((0,), (0, 0, 0), (PRIME, 2 * PRIME)):
            with pytest.raises(InterpolationError):
                kernels.poly_divmod(PRIME, (1, 2), zero)


class TestInterpolation:
    @given(data=st.data())
    def test_interpolate_matches_naive_lagrange(self, data):
        k = data.draw(st.integers(1, 7))
        xs = data.draw(
            st.lists(
                st.integers(0, PRIME - 1), min_size=k, max_size=k, unique=True
            )
        )
        ys = data.draw(st.lists(st.integers(0, PRIME - 1), min_size=k, max_size=k))
        coeffs = kernels.interpolate(PRIME, tuple(xs), ys)
        assert len(coeffs) == k
        oracle = naive_lagrange(list(zip(xs, ys)))
        for x in range(0, PRIME, 7):
            assert naive_eval(coeffs, x) == oracle(x)

    @settings(max_examples=30)
    @given(coeffs=st.lists(st.integers(0, PRIME - 1), min_size=1, max_size=6), seed=st.integers(0, 10_000))
    def test_degree_plus_one_points_recover_the_polynomial(self, coeffs, seed):
        xs = tuple(random.Random(seed).sample(range(PRIME), len(coeffs)))
        ys = [naive_eval(coeffs, x) for x in xs]
        assert kernels.poly_trim(kernels.interpolate(PRIME, xs, ys)) == kernels.poly_trim(
            coeffs
        )

    @given(data=st.data())
    def test_interpolate_at_zero_matches_naive_lagrange(self, data):
        k = data.draw(st.integers(1, 7))
        xs = tuple(
            data.draw(
                st.lists(st.integers(0, PRIME - 1), min_size=k, max_size=k, unique=True)
            )
        )
        ys = data.draw(st.lists(st.integers(0, PRIME - 1), min_size=k, max_size=k))
        assert kernels.interpolate_at_zero(PRIME, xs, ys) == naive_lagrange(
            list(zip(xs, ys))
        )(0)

    @pytest.mark.parametrize("prime", [97, PRIME, 1_000_003, BIG_PRIME])
    def test_five_points_recover_a_quartic(self, prime):
        rng = random.Random(prime)
        coeffs = [rng.randrange(prime) for _ in range(4)] + [rng.randrange(1, prime)]
        xs = (1, 2, 3, 4, 5)
        ys = [naive_eval(coeffs, x, prime) for x in xs]
        assert kernels.interpolate(prime, xs, ys) == tuple(coeffs)
        assert kernels.interpolate_at_zero(prime, xs, ys) == coeffs[0]

    def test_through_a_literal_line(self):
        """The line through ``(1, 2)`` and ``(2, 4)`` is ``y = 2x``."""
        assert kernels.interpolate(PRIME, (1, 2), [2, 4]) == (0, 2)
        assert kernels.interpolate_at_zero(PRIME, (1, 2), [2, 4]) == 0

    def test_unreduced_values_interpolate_as_their_residues(self):
        xs, ys = (1, 2, 3), [5, 17, 60]
        shifted = [y + k * PRIME for y, k in zip(ys, (3, -2, 11))]
        assert kernels.interpolate(PRIME, xs, shifted) == kernels.interpolate(PRIME, xs, ys)
        assert kernels.interpolate_at_zero(PRIME, xs, shifted) == naive_lagrange(
            list(zip(xs, ys))
        )(0)

    def test_single_point_is_constant(self):
        assert kernels.interpolate(PRIME, (5,), [9]) == (9,)

    def test_duplicate_points_raise(self):
        with pytest.raises(InterpolationError):
            kernels.interpolate(PRIME, (1, 1), [2, 3])
        with pytest.raises(InterpolationError):
            kernels.interpolate_at_zero(PRIME, (4, 2, 4), [1, 2, 3])

    def test_empty_raises(self):
        with pytest.raises(InterpolationError):
            kernels.interpolate(PRIME, (), [])
        with pytest.raises(InterpolationError):
            kernels.interpolate_at_zero(PRIME, (), [])

    def test_basis_is_memoised(self):
        kernels.clear_lagrange_cache()
        first = kernels.lagrange_basis(PRIME, (1, 2, 3))
        second = kernels.lagrange_basis(PRIME, (1, 2, 3))
        assert first is second
        assert kernels.lagrange_cache_info().hits >= 1


class TestSharing:
    """A degree-t polynomial with ``f(0) = s``, evaluated at the party points."""

    @settings(max_examples=40)
    @given(
        secret=st.integers(0, BIG_PRIME - 1),
        n=st.integers(4, 10),
        seed=st.integers(0, 100_000),
    )
    def test_any_t_plus_one_shares_reconstruct(self, secret, n, seed):
        t = (n - 1) // 3
        rng = random.Random(seed)
        coeffs = [secret] + [rng.randrange(BIG_PRIME) for _ in range(t)]
        shares = kernels.eval_at_many(BIG_PRIME, coeffs, range(1, n + 1))
        assert shares == [naive_eval(coeffs, x, BIG_PRIME) for x in range(1, n + 1)]
        for chosen in itertools.islice(itertools.combinations(range(n), t + 1), 20):
            xs = tuple(pid + 1 for pid in chosen)
            ys = [shares[pid] for pid in chosen]
            assert kernels.interpolate_at_zero(BIG_PRIME, xs, ys) == secret

    def test_exactly_t_plus_one_shares_reconstruct(self):
        """n = 7, t = 2: the shares of parties 1, 4 and 6 give ``f(0)``."""
        coeffs = [777, 123_456, 98_765]
        xs = (1, 4, 6)
        ys = [naive_eval(coeffs, x, BIG_PRIME) for x in xs]
        assert kernels.interpolate_at_zero(BIG_PRIME, xs, ys) == 777

    def test_t_shares_are_consistent_with_every_secret(self):
        """Hiding: one share of a degree-1 sharing pins no secret."""
        observed = 4242
        for candidate in (0, 1, 999):
            line = kernels.interpolate(BIG_PRIME, (0, 2), [candidate, observed])
            assert naive_eval(line, 2, BIG_PRIME) == observed
            assert naive_eval(line, 0, BIG_PRIME) == candidate


class TestBerlekampWelch:
    @settings(deadline=None)
    @given(data=st.data())
    def test_corrects_up_to_e_errors(self, data):
        degree = data.draw(st.integers(0, 3))
        max_errors = data.draw(st.integers(0, 3))
        n = degree + 1 + 2 * max_errors + data.draw(st.integers(0, 2))
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        coeffs = tuple(rng.randrange(PRIME) for _ in range(degree + 1))
        xs = list(range(1, n + 1))
        error_positions = data.draw(
            st.lists(st.integers(0, n - 1), max_size=max_errors, unique=True)
        )
        ys = with_errors([naive_eval(coeffs, x) for x in xs], error_positions, rng)
        decoded = kernels.berlekamp_welch_raw(PRIME, xs, ys, degree, max_errors)
        assert decoded == kernels.poly_trim(coeffs)

    def test_no_errors_within_the_slack(self):
        """Seven clean points of a quadratic decode with two errors allowed."""
        xs = list(range(1, 8))
        ys = [naive_eval((5, 7, 11), x) for x in xs]
        assert kernels.berlekamp_welch_raw(PRIME, xs, ys, 2, 2) == (5, 7, 11)

    def test_zero_errors_allowed_on_clean_points(self):
        xs = list(range(1, 7))
        ys = [naive_eval((4, 0, 9), x) for x in xs]
        assert kernels.berlekamp_welch_raw(PRIME, xs, ys, 2, 0) == (4, 0, 9)
        assert kernels.berlekamp_welch_raw(PRIME, xs, ys, 3, 0) == (4, 0, 9)

    def test_a_single_error_at_n_4(self):
        xs = [1, 2, 3, 4]
        ys = [naive_eval((9, 3), x) for x in xs]
        ys[2] = (ys[2] + 40) % PRIME
        assert kernels.berlekamp_welch_raw(PRIME, xs, ys, 1, 1) == (9, 3)

    def test_two_errors_among_seven(self):
        """n = 7, t = 2: party 1 reports 0 and party 5 reports 123456."""
        coeffs = [555, 31_337, 2_024]
        xs = list(range(1, 8))
        ys = [naive_eval(coeffs, x, BIG_PRIME) for x in xs]
        ys[0], ys[4] = 0, 123_456
        decoded = kernels.berlekamp_welch_raw(BIG_PRIME, xs, ys, 2, 2)
        assert decoded == tuple(coeffs)

    @settings(max_examples=25, deadline=None)
    @given(secret=st.integers(0, 1_000_000), seed=st.integers(0, 100_000))
    def test_one_adversarial_share_at_n_4(self, secret, seed):
        """Berlekamp-Welch corrects any single bad share at n = 4, t = 1."""
        rng = random.Random(seed)
        coeffs = [secret, rng.randrange(BIG_PRIME)]
        xs = [1, 2, 3, 4]
        ys = with_errors(
            [naive_eval(coeffs, x, BIG_PRIME) for x in xs], [rng.randrange(4)], rng, BIG_PRIME
        )
        decoded = kernels.berlekamp_welch_raw(BIG_PRIME, xs, ys, 1, 1)
        assert decoded[0] == secret
        assert decoded == kernels.poly_trim(coeffs)

    @settings(max_examples=40, deadline=None)
    @given(degree=st.integers(1, 3), seed=st.integers(0, 100_000))
    def test_up_to_t_errors_at_n_3t_plus_1(self, degree, seed):
        """Any ``<= t`` corruptions of a degree-t sharing at ``n = 3t + 1``."""
        rng = random.Random(seed)
        n = 3 * degree + 1
        coeffs = [rng.randrange(PRIME) for _ in range(degree + 1)]
        xs = list(range(1, n + 1))
        errors = rng.sample(range(n), rng.randint(0, degree))
        ys = with_errors([naive_eval(coeffs, x) for x in xs], errors, rng)
        assert kernels.berlekamp_welch_raw(PRIME, xs, ys, degree, degree) == kernels.poly_trim(
            coeffs
        )

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6, 8, 10])
    def test_optimal_resilience_corrects_t_errors(self, t):
        """n = 3t + 1 points correct exactly t errors of a degree-t sharing."""
        rng = random.Random(t)
        n = 3 * t + 1
        coeffs = [424242] + [rng.randrange(BIG_PRIME) for _ in range(t)]
        xs = list(range(1, n + 1))
        clean = [naive_eval(coeffs, x, BIG_PRIME) for x in xs]
        ys = with_errors(clean, rng.sample(range(n), t), rng, BIG_PRIME)
        decoded = kernels.berlekamp_welch_raw(BIG_PRIME, xs, ys, t, t)
        assert decoded == kernels.poly_trim(coeffs) and decoded[0] == 424242

    @settings(max_examples=40, deadline=None)
    @given(degree=st.integers(1, 3), seed=st.integers(0, 100_000))
    def test_beyond_e_errors_never_decodes_silently_wrong(self, degree, seed):
        """With more than ``e`` corrupted points the decoder raises, or returns
        a polynomial that explains all but at most ``e`` of them."""
        rng = random.Random(seed)
        max_errors = 1
        n = degree + 1 + 2 * max_errors
        coeffs = [rng.randrange(PRIME) for _ in range(degree + 1)]
        xs = list(range(1, n + 1))
        errors = rng.randint(max_errors + 1, n)
        ys = with_errors([naive_eval(coeffs, x) for x in xs], rng.sample(range(n), errors), rng)
        try:
            decoded = kernels.berlekamp_welch_raw(PRIME, xs, ys, degree, max_errors)
        except DecodingError:
            return
        assert len(decoded) <= degree + 1
        assert sum(naive_eval(decoded, x) != y for x, y in zip(xs, ys)) <= max_errors

    def test_too_many_errors_raise(self):
        xs = list(range(1, 6))
        ys = [naive_eval((5, 7), x) for x in xs]
        ys = [(y + 3) % PRIME for y in ys[:3]] + ys[3:]  # 3 errors, 1 tolerated
        with pytest.raises(DecodingError):
            kernels.berlekamp_welch_raw(PRIME, xs, ys, 1, 1)

    def test_zero_errors_with_inconsistent_points_raise(self):
        with pytest.raises(DecodingError):
            kernels.berlekamp_welch_raw(PRIME, [1, 2, 3], [1, 2, 100], 1, 0)

    def test_too_few_points_raise(self):
        xs = [1, 2, 3]
        with pytest.raises(DecodingError, match="at least 4 points"):
            kernels.berlekamp_welch_raw(PRIME, xs, [naive_eval((1, 2), x) for x in xs], 1, 1)

    def test_duplicate_x_raises(self):
        with pytest.raises(DecodingError):
            kernels.berlekamp_welch_raw(PRIME, [1, 1, 2, 3], [1, 2, 3, 4], 1, 1)

    def test_negative_max_errors_raises(self):
        with pytest.raises(DecodingError):
            kernels.berlekamp_welch_raw(PRIME, [1], [1], 0, -1)


class TestLinearSystems:
    @settings(max_examples=40)
    @given(data=st.data())
    def test_a_returned_solution_satisfies_every_equation(self, data):
        rows = data.draw(st.integers(1, 5))
        cols = data.draw(st.integers(1, 5))
        entries = st.integers(0, PRIME - 1)
        matrix = data.draw(
            st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
        )
        planted = data.draw(st.lists(entries, min_size=cols, max_size=cols))
        rhs = [sum(a * x for a, x in zip(row, planted)) % PRIME for row in matrix]
        solution = kernels.solve_linear_system(PRIME, matrix, rhs)
        assert solution is not None and len(solution) == cols
        for row, b in zip(matrix, rhs):
            assert sum(a * x for a, x in zip(row, solution)) % PRIME == b

    def test_an_inconsistent_system_has_no_solution(self):
        """``x + y = 1`` and ``2x + 2y = 3`` contradict each other."""
        assert kernels.solve_linear_system(PRIME, [[1, 1], [2, 2]], [1, 3]) is None
        assert kernels.solve_linear_system(PRIME, [[0, 0]], [5]) is None


class TestSymmetricBivariate:
    def test_draw_order_is_pinned(self):
        """The dealer's draws, literally: every golden depends on this order
        (one randrange per (i, j >= i), row-major, then the secret at [0][0])."""
        matrix = kernels.random_symmetric_matrix(PRIME, 2, random.Random(7), 1234)
        assert matrix == [[22, 19, 50], [19, 83, 6], [50, 6, 9]]

    @given(
        degree=st.integers(0, 5),
        secret=st.integers(-10 * PRIME, 10 * PRIME),
        seed=st.integers(0, 10_000),
    )
    def test_draws_one_value_per_upper_entry(self, degree, secret, seed):
        fast_rng, slow_rng = random.Random(seed), random.Random(seed)
        matrix = kernels.random_symmetric_matrix(PRIME, degree, fast_rng, secret)
        upper = {
            (i, j): slow_rng.randrange(PRIME)
            for i in range(degree + 1)
            for j in range(i, degree + 1)
        }
        assert fast_rng.getstate() == slow_rng.getstate()
        for i in range(degree + 1):
            for j in range(degree + 1):
                expected = secret % PRIME if i == j == 0 else upper[min(i, j), max(i, j)]
                assert matrix[i][j] == expected
                assert type(matrix[i][j]) is int

    @given(seed=st.integers(0, 500), degree=st.integers(0, 3))
    def test_row_matches_the_double_sum(self, seed, degree):
        matrix = kernels.random_symmetric_matrix(PRIME, degree, random.Random(seed), 7)
        for x in range(0, degree + 3):
            row = kernels.bivariate_row(PRIME, matrix, x)
            assert len(row) == degree + 1
            for y in range(0, degree + 3):
                assert naive_eval(row, y) == naive_bivariate(matrix, x, y)

    @given(seed=st.integers(0, 500), degree=st.integers(0, 4), secret=st.integers(0, PRIME - 1))
    def test_the_dealt_polynomial_is_symmetric_and_embeds_the_secret(self, seed, degree, secret):
        matrix = kernels.random_symmetric_matrix(PRIME, degree, random.Random(seed), secret)
        assert naive_bivariate(matrix, 0, 0) == secret
        for x in range(degree + 2):
            for y in range(degree + 2):
                assert naive_bivariate(matrix, x, y) == naive_bivariate(matrix, y, x)

    def test_row_zero_is_the_first_coefficient_row(self):
        """``f_0(y) = F(0, y)`` has coefficients ``c[0][j]``; ``f_0(0)`` is the secret."""
        matrix = kernels.random_symmetric_matrix(PRIME, 3, random.Random(11), 42)
        assert kernels.bivariate_row(PRIME, matrix, 0) == tuple(matrix[0])
        assert kernels.bivariate_row(PRIME, matrix, 0)[0] == 42

    def test_a_row_depends_on_the_point_modulo_p(self):
        matrix = kernels.random_symmetric_matrix(PRIME, 2, random.Random(12), 5)
        for x in (1, 4, 9):
            assert kernels.bivariate_row(PRIME, matrix, x + PRIME) == kernels.bivariate_row(
                PRIME, matrix, x
            )

    @given(seed=st.integers(0, 500), n=st.integers(4, 13))
    def test_rows_cross_check(self, seed, n):
        """``f_i(alpha_j) = f_j(alpha_i)``: the pairwise check SVSS relies on."""
        t = (n - 1) // 3
        matrix = kernels.random_symmetric_matrix(PRIME, t, random.Random(seed), seed)
        rows = [kernels.bivariate_row(PRIME, matrix, x) for x in range(1, n + 1)]
        for i in range(n):
            for j in range(n):
                assert naive_eval(rows[i], j + 1) == naive_eval(rows[j], i + 1)

    @given(seed=st.integers(0, 500), degree=st.integers(0, 4), secret=st.integers(0, PRIME - 1))
    def test_t_plus_one_rows_determine_the_secret(self, seed, degree, secret):
        """``f_i(0) = F(alpha_i, 0)`` lies on the degree-t ``F(x, 0)``, so any
        t+1 rows give ``F(0, 0)``; column by column they give all of ``F``."""
        rng = random.Random(seed)
        matrix = kernels.random_symmetric_matrix(PRIME, degree, rng, secret)
        xs = tuple(sorted(rng.sample(range(1, PRIME), degree + 1)))
        rows = [kernels.bivariate_row(PRIME, matrix, x) for x in xs]
        assert kernels.interpolate_at_zero(PRIME, xs, [row[0] for row in rows]) == secret
        columns = [kernels.interpolate(PRIME, xs, [row[j] for row in rows]) for j in range(degree + 1)]
        assert [[columns[j][i] for j in range(degree + 1)] for i in range(degree + 1)] == matrix

    @given(seed=st.integers(0, 500), degree=st.integers(1, 4), candidate=st.integers(0, PRIME - 1))
    def test_t_rows_leave_the_secret_open(self, seed, degree, candidate):
        """Hiding: ``F + (s' - s) h(x) h(y)`` with ``h(z) = prod_i (1 - z / a_i)``
        is symmetric, of degree t, deals the same t rows and has secret ``s'``."""
        rng = random.Random(seed)
        matrix = kernels.random_symmetric_matrix(PRIME, degree, rng, rng.randrange(PRIME))
        points = rng.sample(range(1, PRIME), degree)
        h = [1]
        for a in points:  # h <- h * (1 - z / a)
            factor = -inverse(a) % PRIME
            h = [
                ((h[k] if k < len(h) else 0) + (factor * h[k - 1] if k else 0)) % PRIME
                for k in range(len(h) + 1)
            ]
        delta = candidate - matrix[0][0]
        other = [
            [(matrix[i][j] + delta * h[i] * h[j]) % PRIME for j in range(degree + 1)]
            for i in range(degree + 1)
        ]
        assert naive_bivariate(other, 0, 0) == candidate
        assert all(other[i][j] == other[j][i] for i in range(degree + 1) for j in range(i))
        for a in points:
            assert kernels.bivariate_row(PRIME, other, a) == kernels.bivariate_row(
                PRIME, matrix, a
            )
