"""Batched evaluation plane == scalar kernels, byte for byte.

The batched crypto plane (``EvalPlan`` / ``CryptoPlane``) promises exact
agreement with the scalar kernels it amortises: same validation verdicts,
same evaluations, same reconstruction weights, for every prime and every
degenerate input.  The scalar kernels are the oracle -- these tests pin the
equivalence on random inputs across all three plan modes (int64 matmul,
16-bit split, scalar fallback), from the vectorisation cutoff (n=7) up.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.crypto import kernels
from repro.protocols.svss import _validate_row_ints

#: Million-scale (single matmul), the library default 2^31 - 1 (hi/lo split)
#: and a tiny field (matmul with room to spare; scalar below the cutoff).
MATMUL_PRIME = 1_000_003
SPLIT_PRIME = 2_147_483_647
SMALL_PRIME = 97
PRIMES = (MATMUL_PRIME, SPLIT_PRIME, SMALL_PRIME)

#: The sizes the repo's traffic runs at (scenarios, campaigns, E1-E9), all
#: vectorised since the cutoff moved to n=7.
TRAFFIC_SIZES = (7, 8, 10, 13, 16, 22)


def plans():
    sized = [(MATMUL_PRIME, 64), (SPLIT_PRIME, 32), (SMALL_PRIME, 4)]
    sized += [(prime, n) for n in TRAFFIC_SIZES for prime in PRIMES]
    return [kernels.get_eval_plan(prime, n) for prime, n in sized]


def plan_id(plan):
    return f"p{plan.prime}-n{plan.n}"


def _symmetric(size, draw):
    matrix = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            matrix[i][j] = matrix[j][i] = draw(i, j)
    return matrix


def dealer_matrices(plan):
    """Coefficient matrices an SVSS dealer can hold, degenerate ones included."""
    rng = random.Random(4)
    size = (plan.n - 1) // 3 + 1
    high = size // 2  # coefficients at or above this index are zero
    return {
        "random": _symmetric(size, lambda i, j: rng.randrange(plan.prime)),
        "extreme": _symmetric(size, lambda i, j: plan.prime - 1),
        "all-zero": _symmetric(size, lambda i, j: 0),
        # F(x, y) = s: every row is the same one-coefficient tuple.
        "secret-only": _symmetric(size, lambda i, j: 5 if i == j == 0 else 0),
        # Rows trim shorter than t + 1.
        "low-degree": _symmetric(
            size, lambda i, j: rng.randrange(plan.prime) if j < high else 0
        ),
    }


class TestPlanModes:
    def test_mode_selection(self, monkeypatch):
        vectorised = {MATMUL_PRIME: "matmul", SPLIT_PRIME: "split", SMALL_PRIME: "matmul"}
        if kernels.numpy_module() is not None:
            assert kernels.get_eval_plan(MATMUL_PRIME, 64).mode == "matmul"
            assert kernels.get_eval_plan(SPLIT_PRIME, 32).mode == "split"
            # The cutoff, on purpose (kernels._NUMPY_MIN_N): n=7 is the first
            # size whose dealer grid and share batch win vectorised.
            for prime, mode in vectorised.items():
                assert kernels.get_eval_plan(prime, 6).mode == "scalar"
                assert kernels.get_eval_plan(prime, 7).mode == mode
        # Without numpy the scalar kernels are the only plane.
        monkeypatch.setattr(kernels, "numpy_module", lambda: None)
        for prime in PRIMES:
            for n in (4, 7, 16, 64):
                assert kernels.EvalPlan(prime, n).mode == "scalar"

    def test_plan_is_shared_per_prime_n(self):
        assert kernels.get_eval_plan(MATMUL_PRIME, 64) is kernels.get_eval_plan(
            MATMUL_PRIME, 64
        )


class TestEvalAllPoints:
    @pytest.mark.parametrize("plan", plans(), ids=plan_id)
    def test_matches_eval_at_many(self, plan):
        rng = random.Random(1)
        t = (plan.n - 1) // 3
        for _ in range(25):
            length = rng.randrange(1, t + 2)
            coeffs = tuple(rng.randrange(plan.prime) for _ in range(length))
            assert plan.eval_all_points(coeffs) == kernels.eval_at_many(
                plan.prime, coeffs, range(1, plan.n + 1)
            )

    @pytest.mark.parametrize("plan", plans(), ids=plan_id)
    def test_extreme_coefficients(self, plan):
        # Max-value coefficients stress the int64 overflow analysis.
        coeffs = tuple([plan.prime - 1] * ((plan.n - 1) // 3 + 1))
        assert plan.eval_all_points(coeffs) == kernels.eval_at_many(
            plan.prime, coeffs, range(1, plan.n + 1)
        )
        assert plan.eval_all_points((0,)) == [0] * plan.n


class TestEvalGridAndShares:
    @pytest.mark.parametrize("plan", plans(), ids=plan_id)
    def test_bivariate_rows_match_scalar(self, plan):
        points = range(1, plan.n + 1)
        for kind, matrix in dealer_matrices(plan).items():
            expected = [
                kernels.poly_trim(kernels.bivariate_row(plan.prime, matrix, x))
                for x in points
            ]
            rows, evals = plan.bivariate_grid(matrix)
            assert rows == plan.bivariate_rows(matrix) == expected, kind
            assert all(type(c) is int for row in rows for c in row), kind
            assert evals == [
                kernels.eval_at_many(plan.prime, row, points) for row in rows
            ], kind
            if kind == "low-degree":
                assert max(map(len, rows)) < len(matrix)

    @pytest.mark.parametrize("plan", plans(), ids=plan_id)
    def test_dealt_records_equal_first_sight_records(self, plan):
        """``deal_rows`` seeds exactly what the miss path would have built."""
        t = (plan.n - 1) // 3
        for kind, matrix in dealer_matrices(plan).items():
            plane = kernels.CryptoPlane(plan.prime, plan.n, t)
            rows = plane.deal_rows(matrix)
            assert rows == plan.bivariate_rows(matrix), kind
            assert plane.stats["row_misses"] == plane.stats["eval_misses"] == 0
            for row in rows:
                seeded = plane.validate_row_record(row)
                fresh = kernels.CryptoPlane(plan.prime, plan.n, t).validate_row_record(
                    tuple(list(row))  # an equal copy, seen for the first time
                )
                assert seeded == fresh, kind
                assert seeded[0] is row, kind  # equal rows: one held object
                assert plane.row_evals(row) == fresh[1], kind
            # Every sighting above was a lookup, also where rows are equal.
            assert plane.stats["row_misses"] == plane.stats["eval_misses"] == 0, kind
            assert plane.stats["row_hits"] == plan.n, kind
            # A second dealer holding equal rows changes no record.
            before = {row: plane.row_cache[row] for row in rows}
            assert plane.deal_rows(matrix) == rows
            assert all(plane.row_cache[row] is before[row] for row in rows), kind

    @pytest.mark.parametrize("plan", plans(), ids=plan_id)
    def test_a_random_dealing_is_the_textbook_sharing(self, plan):
        """The dealer's matrix, dealt on the plan: wire row ``i`` has
        coefficients ``sum_a c[a][j] i^a`` and the grid holds the double sum
        ``F(i, j) = sum_{a, b} c[a][b] i^a j^b``, at sampled party points."""
        prime, t = plan.prime, (plan.n - 1) // 3
        sample = random.Random(plan.n).sample(range(1, plan.n + 1), min(plan.n, 5))
        for secret in (0, 12345, -1, prime + 7):
            rng = random.Random(13)
            matrix = kernels.random_symmetric_matrix(prime, t, rng, secret)
            assert matrix[0][0] == secret % prime
            rows, evals = plan.bivariate_grid(matrix)
            for i in sample:
                row = [
                    sum(matrix[a][j] * pow(i, a, prime) for a in range(t + 1)) % prime
                    for j in range(t + 1)
                ]
                assert rows[i - 1] == kernels.poly_trim(row)
                for j in sample:
                    assert evals[i - 1][j - 1] == sum(
                        c * pow(i, a, prime) * pow(j, b, prime)
                        for a, coefficients in enumerate(matrix)
                        for b, c in enumerate(coefficients)
                    ) % prime
                    assert evals[i - 1][j - 1] == evals[j - 1][i - 1]


def _coefficient(prime):
    return st.sampled_from((0, 1, prime - 1)) | st.integers(0, prime - 1)


@st.composite
def sized_inputs(draw):
    """A plan of 7..32 parties with a dealer matrix and a ragged batch of rows,
    zero, empty and extreme coefficients included."""
    n = draw(st.integers(7, 32))
    prime = draw(st.sampled_from(PRIMES))
    t = (n - 1) // 3
    upper = draw(
        st.lists(
            st.lists(_coefficient(prime), min_size=t + 1, max_size=t + 1),
            min_size=t + 1,
            max_size=t + 1,
        )
    )
    matrix = _symmetric(t + 1, lambda i, j: upper[i][j])
    rows = draw(
        st.lists(
            st.lists(_coefficient(prime), max_size=t + 1).map(tuple), max_size=n + 2
        )
    )
    return kernels.get_eval_plan(prime, n), matrix, rows


@settings(max_examples=150, deadline=None)
@given(sized_inputs())
def test_every_batched_shape_equals_the_scalar_kernels(inputs):
    """Every size from the cutoff up, every shape the plan batches: the answer
    is the scalar kernel's (with numpy these plans are matmul / split)."""
    plan, matrix, rows = inputs
    prime, points = plan.prime, range(1, plan.n + 1)
    wire_rows = [
        kernels.poly_trim(kernels.bivariate_row(prime, matrix, x)) for x in points
    ]
    grid = [kernels.eval_at_many(prime, row, points) for row in wire_rows]
    assert plan.bivariate_grid(matrix) == (wire_rows, grid)
    assert plan.bivariate_rows(matrix) == wire_rows
    for row in rows:
        assert plan.eval_all_points(row) == kernels.eval_at_many(prime, row, points)


class TestValidateRows:
    @pytest.mark.parametrize("prime,n", [(MATMUL_PRIME, 64), (SPLIT_PRIME, 32), (SMALL_PRIME, 7)])
    def test_agrees_with_scalar_validator(self, prime, n):
        t = (n - 1) // 3
        plane = kernels.CryptoPlane(prime, n, t)
        rng = random.Random(6)
        payloads = [
            # Valid random rows, twice (the second pass must hit the cache).
            *[tuple(rng.randrange(prime) for _ in range(t + 1)) for _ in range(8)],
            # Degenerate: empty payload normalises to the zero polynomial.
            (),
            [],
            # Trailing zeros trim away; all-zero rows collapse to (0,).
            (0,) * (t + 1),
            (5,) + (0,) * t,
            # Unreduced and negative coefficients reduce mod p.
            (prime, prime + 3, -1),
            # Degree above t is rejected...
            tuple(range(1, t + 3)),
            # ...unless the excess coefficients are zeros that trim away.
            tuple(range(1, t + 2)) + (0, 0),
            # Malformed payloads: wrong container or non-int coefficients.
            "not-a-row",
            123,
            None,
            (1, "x", 3),
            (1, 2.5),
            # bools are ints in Python; the scalar path accepted them.
            (True, False),
            # Lists are valid wire containers (and unhashable-safe).
            [1, 2, 3],
            # Unhashable nested payload must fall back gracefully.
            (1, [2], 3),
        ]
        for payload in payloads + payloads:
            expected = _validate_row_ints(prime, t, payload)
            assert plane.validate_row(payload) == expected, payload
            record = plane.validate_row_record(payload)
            if expected is None:
                assert record is None
            else:
                row, evals = record
                assert row == expected
                assert evals == kernels.eval_at_many(prime, row, range(1, n + 1))

    def test_row_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(kernels, "_PLANE_ROW_CACHE_LIMIT", 8)
        plane = kernels.CryptoPlane(SMALL_PRIME, 7, 2)
        for value in range(40):
            plane.validate_row((value % SMALL_PRIME,))
        assert len(plane.row_cache) <= 8
        # Dealing respects the same bound, and the latest deal is held in full.
        rng = random.Random(11)
        for _ in range(10):
            matrix = _symmetric(3, lambda i, j: rng.randrange(SMALL_PRIME))
            rows = plane.deal_rows(matrix)
            assert len(plane.row_cache) <= 8 and len(plane.eval_cache) <= 8
            assert all(plane.row_cache[row][0] is row for row in rows)
            assert rows == plane.plan.bivariate_rows(matrix)

    @pytest.mark.parametrize("alias", [float, Fraction, bool], ids=lambda a: a.__name__)
    @pytest.mark.parametrize("valid_first", [True, False], ids=["int-first", "alias-first"])
    def test_equal_payloads_of_another_type_get_their_own_verdict(self, alias, valid_first):
        """``(5.0, 7.0) == (5, 7)`` and ``(True,) == (1,)``, hashes included: a
        value-keyed cache must not let either stand in for the other."""
        prime, n, t = SMALL_PRIME, 7, 2
        honest = (1,) if alias is bool else (5, 7)
        twin = tuple(alias(c) for c in honest)
        assert twin == honest and hash(twin) == hash(honest)
        plane = kernels.CryptoPlane(prime, n, t)
        plane.deal_rows(_symmetric(t + 1, lambda i, j: i + j))  # seeded rows beside
        order = (honest, twin) if valid_first else (twin, honest)
        for payload in order + order:
            expected = _validate_row_ints(prime, t, payload)
            row = plane.validate_row(payload)
            assert row == expected, payload
            if expected is not None:
                assert all(type(c) is int for c in row), payload
        # Whatever came first, the plane holds canonical rows only, each
        # under the very tuple its record names.
        for key, record in plane.row_cache.items():
            assert type(key) is tuple and all(type(c) is int for c in key)
            assert key is record[0]

    def test_tag_table_is_bounded(self, monkeypatch):
        """Row tags live and die with the row cache they index."""
        monkeypatch.setattr(kernels, "_PLANE_ROW_CACHE_LIMIT", 8)
        plane = kernels.CryptoPlane(SMALL_PRIME, 7, 2)
        rng = random.Random(12)
        for step in range(30):
            if step % 3 == 0:
                plane.validate_row((step, 1))  # an untagged row in the same cache
            matrix = _symmetric(3, lambda i, j: rng.randrange(SMALL_PRIME))
            rows = plane.deal_rows(matrix)
            assert len(plane.row_tags) <= len(plane.row_cache) <= 8
            for row, (_, dealt) in plane.row_tags.items():
                assert plane.row_cache[row][0] is row and any(r is row for r in dealt)
            assert plane.dealt_secret(range(3), rows[:3]) == matrix[0][0]
        for value in range(2):  # the second overflows: clears rows and tags
            plane.validate_row((SMALL_PRIME - 1 - value, 1))
        assert not plane.row_tags and len(plane.row_cache) == 1


def _scalar_plan(prime, n):
    """The plain-int plan for ``(prime, n)``, as on a box without numpy."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "numpy_module", lambda: None)
        return kernels.EvalPlan(prime, n)


@st.composite
def two_dealings(draw):
    """Two honest dealings on one plane at n in {4, 7, 16} on either plan, and
    ``t + 1`` distinct pids in any order."""
    n = draw(st.sampled_from((4, 7, 16)))
    prime = draw(st.sampled_from(PRIMES))
    t = (n - 1) // 3
    plane = kernels.CryptoPlane(prime, n, t)
    if draw(st.booleans()):
        plane.plan = _scalar_plan(prime, n)
    rng = random.Random(draw(st.integers(0, 2**32)))
    matrices = [
        kernels.random_symmetric_matrix(prime, t, rng, rng.randrange(prime)) for _ in range(2)
    ]
    pids = draw(st.permutations(range(n)))[: t + 1]
    return plane, matrices, pids


@settings(max_examples=120, deadline=None)
@given(two_dealings())
def test_a_dealing_names_its_secret_only_for_its_own_rows(inputs):
    """``dealt_secret`` answers the dealing's ``F(0, 0)`` -- the interpolation
    of the rows' constant terms -- for any ``t + 1`` of its rows at their own
    pids, and None for anything else."""
    plane, (first, second), pids = inputs
    rows = plane.deal_rows(first)
    others = plane.deal_rows(second)
    assume(len(set(rows + others)) == 2 * plane.n)  # no row dealt twice
    secret = first[0][0]
    mine = [rows[pid] for pid in pids]
    assert plane.reconstruct_at_zero(tuple(pids), [row[0] for row in mine]) == secret
    assert plane.dealt_secret(pids, mine) == secret
    assert plane.dealt_secret(pids, [others[pid] for pid in pids]) == second[0][0]
    # Rows handed to the wrong pids.
    shifted = [rows[(pid + 1) % plane.n] for pid in pids]
    assert plane.dealt_secret(pids, shifted) is None
    # Rows mixed from two dealings.
    assert plane.dealt_secret(pids, mine[:-1] + [others[pids[-1]]]) is None
    # An equal but different tuple.
    assert plane.dealt_secret(pids, [tuple(list(mine[0]))] + mine[1:]) is None
    assert plane.stats["secret_hits"] == 2
    # The row cache overflows (one new miss-path row at the limit): the tags
    # go too.
    fresh = next(row for row in ((c, 1) for c in range(3)) if row not in plane.row_cache)
    saved, kernels._PLANE_ROW_CACHE_LIMIT = kernels._PLANE_ROW_CACHE_LIMIT, len(plane.row_cache)
    try:
        plane.validate_row(fresh)
    finally:
        kernels._PLANE_ROW_CACHE_LIMIT = saved
    assert plane.dealt_secret(pids, mine) is None


class TestReconstructionWeights:
    @pytest.mark.parametrize("prime,n", [(MATMUL_PRIME, 64), (SPLIT_PRIME, 32), (SMALL_PRIME, 7)])
    def test_subset_weights_match_lagrange(self, prime, n):
        plan = kernels.get_eval_plan(prime, n)
        rng = random.Random(8)
        subsets = [
            tuple(sorted(rng.sample(range(n), rng.randrange(1, n // 3 + 2))))
            for _ in range(20)
        ]
        subsets += [(), (0,), (n - 1,), tuple(range(n))]  # k = 0, 1, n
        subsets += [tuple(rng.sample(range(n), n // 3 + 1)) for _ in range(5)]  # unsorted
        for pids in subsets:
            xs = tuple(pid + 1 for pid in pids)
            assert plan.subset_weights(pids) == kernels.lagrange_weights_at_zero(prime, xs)
            assert plan.subset_weights(list(pids)) == plan.subset_weights(pids)

    def test_reconstruct_at_zero_matches_interpolate(self):
        plane = kernels.CryptoPlane(MATMUL_PRIME, 64, 21)
        rng = random.Random(9)
        for _ in range(10):
            pids = tuple(sorted(rng.sample(range(64), 22)))
            ys = [rng.randrange(MATMUL_PRIME) for _ in pids]
            xs = tuple(pid + 1 for pid in pids)
            assert plane.reconstruct_at_zero(pids, ys) == kernels.interpolate_at_zero(
                MATMUL_PRIME, xs, ys
            )

    def test_direct_weights_match_basis_column(self):
        # The rewritten lagrange_weights_at_zero must equal basis[i][0].
        rng = random.Random(10)
        for _ in range(10):
            xs = tuple(sorted(rng.sample(range(1, 200), rng.randrange(1, 12))))
            kernels.clear_lagrange_cache()
            basis = kernels.lagrange_basis(SPLIT_PRIME, xs)
            assert kernels.lagrange_weights_at_zero(SPLIT_PRIME, xs) == tuple(
                b[0] for b in basis
            )


class TestLagrangeCacheInfo:
    def test_info_shape(self):
        kernels.clear_lagrange_cache()
        kernels.lagrange_weights_at_zero(SMALL_PRIME, (1, 2, 3))
        kernels.lagrange_weights_at_zero(SMALL_PRIME, (1, 2, 3))
        info = kernels.lagrange_cache_info()
        assert info.hits >= 1
        payload = info.to_dict()
        assert set(payload) >= {"hits", "misses", "currsize", "basis", "weights_at_zero"}
        assert payload["weights_at_zero"]["hits"] >= 1
