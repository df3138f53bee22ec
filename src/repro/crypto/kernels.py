"""The crypto layer: GF(p) algebra on plain ints.

The paper's protocols need one piece of algebra: the SVSS dealer's random
symmetric bivariate polynomial of degree ``t``, row checks against it and
reconstruction at zero, all over a prime field.  Every function here works on
plain ``int`` values (and tuples of them) with the modulus passed explicitly,
so the inner loops are nothing but native big-int arithmetic; the modulus is
checked prime once, where it enters (:class:`~repro.core.config.ProtocolParams`).
``tests/crypto/test_kernels.py`` pins the scalar functions against textbook
formulas, and ``tests/crypto/test_eval_plan.py`` pins the batched plane
against the scalar functions.

Conventions:

* polynomial coefficients are low-degree-first sequences of ints in
  ``[0, prime)``; a bivariate polynomial is its square coefficient matrix
  ``c[i][j]``, ``F(x, y) = sum c[i][j] x^i y^j``;
* evaluation points handed to the cached Lagrange helpers must already be
  reduced modulo ``prime`` (callers reduce once, the cache key stays small).

Party evaluation points are fixed for the lifetime of a run (ids ``1..n``),
so the Lagrange basis / reconstruction weights for a given ``(prime, xs)``
pair are computed once and memoised; afterwards a reconstruction is a single
dot product.

numpy is optional and loaded late: importing this module never imports it.
:func:`numpy_module` does, the first time an :class:`EvalPlan` would
vectorise (``n >= _NUMPY_MIN_N`` and a prime the matmul or split mode fits),
so a process that only ever runs below n = 7 -- a 4-party beacon shard, a
small trial -- never carries it.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import prod
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import DecodingError, FieldError, InterpolationError

#: numpy once :func:`numpy_module` has looked for it: the module, or False
#: when it is not importable; None until a plan first asks to vectorise.
_np: Any = None

#: Upper bound on memoised Lagrange bases.  Each entry is O(k^2) ints; runs
#: use a handful of distinct share subsets, so this is far more than enough
#: while still bounding memory for adversarial workloads.
_LAGRANGE_CACHE_SIZE = 4096


# ---------------------------------------------------------------------------
# Modular scalar helpers.
# ---------------------------------------------------------------------------
def mod_inv(prime: int, value: int) -> int:
    """Multiplicative inverse of ``value`` modulo ``prime``.

    Raises:
        FieldError: when ``value`` is zero modulo ``prime``.
    """
    value %= prime
    if value == 0:
        raise FieldError("zero has no multiplicative inverse")
    return pow(value, -1, prime)


def batch_inverse(prime: int, values: Sequence[int]) -> List[int]:
    """Invert many values with one modular exponentiation (Montgomery trick).

    Costs ``3(k-1)`` multiplications plus a single :func:`mod_inv` instead of
    ``k`` exponentiations.

    Raises:
        FieldError: when any value is zero modulo ``prime``.
    """
    if not values:
        return []
    prefix: List[int] = []
    acc = 1
    for value in values:
        value %= prime
        if value == 0:
            raise FieldError("zero has no multiplicative inverse")
        acc = acc * value % prime
        prefix.append(acc)
    inverse = mod_inv(prime, acc)
    out = [0] * len(values)
    for index in range(len(values) - 1, 0, -1):
        out[index] = inverse * prefix[index - 1] % prime
        inverse = inverse * (values[index] % prime) % prime
    out[0] = inverse
    return out


# ---------------------------------------------------------------------------
# Dense univariate polynomial arithmetic (low-degree-first int sequences).
# ---------------------------------------------------------------------------
def poly_trim(coeffs: Sequence[int]) -> Tuple[int, ...]:
    """Drop trailing zero coefficients; the zero polynomial stays ``(0,)``."""
    end = len(coeffs)
    while end > 1 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def poly_scale(prime: int, coeffs: Sequence[int], scalar: int) -> Tuple[int, ...]:
    """Multiply every coefficient by ``scalar``."""
    scalar %= prime
    return tuple(c * scalar % prime for c in coeffs)


def poly_divmod(
    prime: int, numerator: Sequence[int], divisor: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Polynomial long division; returns ``(quotient, remainder)`` untrimmed.

    The remainder keeps the numerator's length and the quotient has
    ``max(1, len(num) - len(div) + 1)`` slots.

    Raises:
        InterpolationError: when the divisor is the zero polynomial.
    """
    divisor = poly_trim([c % prime for c in divisor])
    if divisor == (0,):
        raise InterpolationError("polynomial division by zero")
    remainder = [c % prime for c in numerator]
    quotient = [0] * max(1, len(remainder) - len(divisor) + 1)
    divisor_degree = len(divisor) - 1
    lead_inv = mod_inv(prime, divisor[-1])
    for index in range(len(remainder) - 1, divisor_degree - 1, -1):
        coefficient = remainder[index] * lead_inv % prime
        if coefficient == 0:
            continue
        position = index - divisor_degree
        quotient[position] = coefficient
        for offset, dcoeff in enumerate(divisor):
            remainder[position + offset] = (
                remainder[position + offset] - coefficient * dcoeff
            ) % prime
    return tuple(quotient), tuple(remainder)


def horner(prime: int, coeffs: Sequence[int], x: int) -> int:
    """Evaluate a polynomial at ``x`` by Horner's rule."""
    acc = 0
    for coefficient in reversed(coeffs):
        acc = (acc * x + coefficient) % prime
    return acc


def eval_at_many(prime: int, coeffs: Sequence[int], xs: Sequence[int]) -> List[int]:
    """Evaluate one polynomial at several points."""
    rev = tuple(reversed(coeffs))
    out = []
    for x in xs:
        acc = 0
        for coefficient in rev:
            acc = (acc * x + coefficient) % prime
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Lagrange interpolation with a cached basis per (prime, evaluation points).
# ---------------------------------------------------------------------------
@lru_cache(maxsize=_LAGRANGE_CACHE_SIZE)
def lagrange_basis(prime: int, xs: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """Normalised Lagrange basis polynomials ``L_i`` for the points ``xs``.

    ``L_i(xs[i]) = 1`` and ``L_i(xs[j]) = 0`` for ``j != i``; any
    interpolation through ``(xs[i], ys[i])`` is then ``sum_i ys[i] * L_i``.

    Built in ``O(k^2)``: one master product ``P(X) = prod (X - x_i)``, one
    synthetic division per point, one batched inversion of the denominators.
    Memoised because party ids are fixed per run, so the same ``xs`` tuple
    recurs for every reconstruction.

    Raises:
        InterpolationError: on duplicate points (callers pre-reduce mod p).
    """
    k = len(xs)
    if len(set(xs)) != k:
        raise InterpolationError("interpolation points must have distinct x values")
    # Master product P(X) = prod_i (X - x_i), low-degree-first, monic degree k.
    master = [1]
    for x in xs:
        nxt = [0] * (len(master) + 1)
        for index, coeff in enumerate(master):
            nxt[index] = (nxt[index] - x * coeff) % prime
            nxt[index + 1] = (nxt[index + 1] + coeff) % prime
        master = nxt
    numerators: List[List[int]] = []
    denominators: List[int] = []
    for x in xs:
        # Synthetic division: N_i(X) = P(X) / (X - x_i), exact since x_i is a root.
        quotient = [0] * k
        quotient[k - 1] = master[k]
        for index in range(k - 1, 0, -1):
            quotient[index - 1] = (master[index] + x * quotient[index]) % prime
        numerators.append(quotient)
        denominators.append(horner(prime, quotient, x))
    try:
        inverses = batch_inverse(prime, denominators)
    except FieldError:  # pragma: no cover - impossible for distinct xs
        raise InterpolationError("interpolation points must have distinct x values")
    return tuple(
        poly_scale(prime, numerator, inverse)
        for numerator, inverse in zip(numerators, inverses)
    )


@lru_cache(maxsize=_LAGRANGE_CACHE_SIZE)
def lagrange_weights_at_zero(prime: int, xs: Tuple[int, ...]) -> Tuple[int, ...]:
    """Weights ``w_i`` with ``f(0) = sum_i w_i * f(xs[i])``.

    Computed directly as ``w_i = prod_{j != i} x_j / (x_j - x_i)`` -- the same
    residues as ``lagrange_basis(prime, xs)[i][0]`` (property-tested) at a
    fraction of the cost: prefix/suffix products for the numerators, one
    O(k^2) sweep of difference products and a single :func:`batch_inverse`
    for the denominators, with no polynomial construction at all.  Each cache
    entry is O(k) ints where a basis entry is O(k^2), so reconstruction-heavy
    sweeps hit a bounded cache of small entries.

    Raises:
        InterpolationError: on duplicate points (callers pre-reduce mod p).
    """
    k = len(xs)
    if len(set(xs)) != k:
        raise InterpolationError("interpolation points must have distinct x values")
    # Numerators: prod_{j != i} x_j via prefix/suffix products.
    prefix = [1] * (k + 1)
    for index, x in enumerate(xs):
        prefix[index + 1] = prefix[index] * x % prime
    suffix = 1
    numerators = [0] * k
    for index in range(k - 1, -1, -1):
        numerators[index] = prefix[index] * suffix % prime
        suffix = suffix * xs[index] % prime
    # Denominators: prod_{j != i} (x_j - x_i), inverted in one batch sweep.
    denominators = [1] * k
    for i in range(k):
        x_i = xs[i]
        acc = 1
        for j in range(k):
            if j != i:
                acc = acc * (xs[j] - x_i) % prime
        denominators[i] = acc
    try:
        inverses = batch_inverse(prime, denominators)
    except FieldError:  # pragma: no cover - impossible for distinct xs
        raise InterpolationError("interpolation points must have distinct x values")
    return tuple(n * inv % prime for n, inv in zip(numerators, inverses))


def interpolate(prime: int, xs: Tuple[int, ...], ys: Sequence[int]) -> Tuple[int, ...]:
    """Coefficients of the unique degree-``< k`` polynomial through the points.

    Args:
        prime: field modulus.
        xs: evaluation points, already reduced modulo ``prime``.
        ys: values at those points.

    Raises:
        InterpolationError: on empty input or duplicate x values.
    """
    if not xs:
        raise InterpolationError("cannot interpolate through zero points")
    basis = lagrange_basis(prime, xs)
    out = [0] * len(xs)
    for y, base in zip(ys, basis):
        y %= prime
        if y == 0:
            continue
        for index, coeff in enumerate(base):
            out[index] += y * coeff
    return tuple(c % prime for c in out)


def interpolate_at_zero(prime: int, xs: Tuple[int, ...], ys: Sequence[int]) -> int:
    """``f(0)`` of the interpolated polynomial -- the reconstruction map.

    With a warm weight cache this is a ``k``-term dot product.

    Raises:
        InterpolationError: on empty input or duplicate x values.
    """
    if not xs:
        raise InterpolationError("cannot interpolate through zero points")
    weights = lagrange_weights_at_zero(prime, xs)
    total = 0
    for weight, y in zip(weights, ys):
        total += weight * y
    return total % prime


class LagrangeCacheInfo:
    """Combined statistics of the bounded Lagrange caches.

    Attribute-compatible with ``functools.CacheInfo`` (``hits``, ``misses``,
    ``maxsize``, ``currsize`` summed over the basis and weight caches) and
    JSON-able via :meth:`to_dict`, which also breaks the numbers out per
    cache.
    """

    __slots__ = ("hits", "misses", "maxsize", "currsize", "per_cache")

    def __init__(self) -> None:
        basis = lagrange_basis.cache_info()
        weights = lagrange_weights_at_zero.cache_info()
        self.hits = basis.hits + weights.hits
        self.misses = basis.misses + weights.misses
        self.maxsize = (basis.maxsize or 0) + (weights.maxsize or 0)
        self.currsize = basis.currsize + weights.currsize
        self.per_cache = {
            "basis": basis._asdict(),
            "weights_at_zero": weights._asdict(),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "maxsize": self.maxsize,
            "currsize": self.currsize,
            **self.per_cache,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"LagrangeCacheInfo(hits={self.hits}, misses={self.misses}, "
            f"maxsize={self.maxsize}, currsize={self.currsize})"
        )


def lagrange_cache_info() -> LagrangeCacheInfo:
    """Hit/size statistics for the bounded Lagrange caches (tests/benchmarks)."""
    return LagrangeCacheInfo()


def clear_lagrange_cache() -> None:
    """Drop memoised bases and weights (benchmarks measure cold paths with this)."""
    lagrange_basis.cache_clear()
    lagrange_weights_at_zero.cache_clear()


# ---------------------------------------------------------------------------
# Gaussian elimination and Berlekamp-Welch on raw ints.
# ---------------------------------------------------------------------------
def solve_linear_system(
    prime: int, matrix: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[List[int]]:
    """Solve ``matrix @ x = rhs`` over GF(prime) by Gaussian elimination.

    Returns one solution (free variables set to zero) or None when the system
    is inconsistent.  Pivots are the first nonzero entry of each column, so
    the selected solution is a function of the system alone.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    augmented = [[c % prime for c in row] + [rhs[r] % prime] for r, row in enumerate(matrix)]
    pivot_cols: List[int] = []
    pivot_row = 0
    width = cols + 1
    for col in range(cols):
        pivot = None
        for row in range(pivot_row, rows):
            if augmented[row][col] != 0:
                pivot = row
                break
        if pivot is None:
            continue
        augmented[pivot_row], augmented[pivot] = augmented[pivot], augmented[pivot_row]
        inverse = pow(augmented[pivot_row][col], -1, prime)
        pivot_entries = [entry * inverse % prime for entry in augmented[pivot_row]]
        augmented[pivot_row] = pivot_entries
        for row in range(rows):
            if row != pivot_row and augmented[row][col] != 0:
                factor = augmented[row][col]
                target = augmented[row]
                for index in range(width):
                    target[index] = (target[index] - factor * pivot_entries[index]) % prime
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == rows:
            break
    for row in range(pivot_row, rows):
        if all(entry == 0 for entry in augmented[row][:-1]) and augmented[row][-1] != 0:
            return None
    solution = [0] * cols
    for row_index, col in enumerate(pivot_cols):
        solution[col] = augmented[row_index][-1]
    return solution


def berlekamp_welch_raw(
    prime: int,
    xs: Sequence[int],
    ys: Sequence[int],
    degree: int,
    max_errors: int,
) -> Tuple[int, ...]:
    """Berlekamp-Welch decoding on raw ints; returns trimmed coefficients.

    Shares of a degree-``degree`` polynomial form a Reed-Solomon codeword, so
    with ``len(xs) >= degree + 1 + 2 * max_errors`` points this returns the
    unique polynomial agreeing with all but at most ``max_errors`` of them --
    exactly tight at ``n = 3t + 1``, ``e = t``.

    Raises:
        DecodingError: when no degree-``degree`` polynomial explains all but
            at most ``max_errors`` of the points.
    """
    n = len(xs)
    if max_errors < 0:
        raise DecodingError("max_errors must be non-negative")
    if n < degree + 1 + 2 * max_errors:
        raise DecodingError(
            f"Berlekamp-Welch needs at least {degree + 1 + 2 * max_errors} points "
            f"for degree {degree} with {max_errors} errors; got {n}"
        )
    xs = [x % prime for x in xs]
    ys = [y % prime for y in ys]
    if len(set(xs)) != n:
        raise DecodingError("decoding points must have distinct x values")

    if max_errors == 0:
        coeffs = interpolate(prime, tuple(xs[: degree + 1]), ys[: degree + 1])
        for x, y in zip(xs, ys):
            if horner(prime, coeffs, x) != y:
                raise DecodingError("points are not on a single polynomial")
        return poly_trim(coeffs)

    # Unknowns: the non-leading coefficients of the monic error locator E
    # (degree max_errors) and all coefficients of Q (degree degree+max_errors),
    # satisfying Q(x_i) = y_i * E(x_i) at every point.
    num_e = max_errors
    num_q = degree + max_errors + 1
    matrix: List[List[int]] = []
    rhs: List[int] = []
    for x, y in zip(xs, ys):
        row: List[int] = []
        x_power = 1
        for _ in range(num_e):
            row.append(y * x_power % prime)
            x_power = x_power * x % prime
        leading = y * x_power % prime  # y * x^max_errors moves to the RHS
        x_power = 1
        for _ in range(num_q):
            row.append(-x_power % prime)
            x_power = x_power * x % prime
        matrix.append(row)
        rhs.append(-leading % prime)

    solution = solve_linear_system(prime, matrix, rhs)
    if solution is None:
        raise DecodingError("Berlekamp-Welch system is inconsistent (too many errors)")
    error_locator = tuple(solution[:num_e]) + (1,)
    q_coeffs = poly_trim(solution[num_e:])
    quotient, remainder = poly_divmod(prime, q_coeffs, error_locator)
    if any(c != 0 for c in remainder):
        raise DecodingError("error locator does not divide Q; too many errors")
    quotient = poly_trim(quotient)
    if len(quotient) - 1 > degree:
        raise DecodingError("decoded polynomial exceeds the expected degree")
    disagreements = sum(1 for x, y in zip(xs, ys) if horner(prime, quotient, x) != y)
    if disagreements > max_errors:
        raise DecodingError(
            f"decoded polynomial disagrees with {disagreements} points "
            f"(> {max_errors} allowed)"
        )
    return quotient


# ---------------------------------------------------------------------------
# Symmetric bivariate polynomials (the SVSS sharing).
# ---------------------------------------------------------------------------
def random_symmetric_matrix(
    prime: int, degree: int, rng: random.Random, secret: int
) -> List[List[int]]:
    """A random symmetric ``F`` of degree ``degree`` in each variable, ``F(0, 0) = secret``.

    The SVSS dealer's draw: one ``rng.randrange(prime)`` per ``(i, j >= i)``
    in row-major order, then ``c[0][0] = secret % prime``.  Symmetry gives the
    pairwise check ``f_i(j) = F(i, j) = F(j, i) = f_j(i)`` that parties use
    to validate each other's rows.
    """
    size = degree + 1
    randrange = rng.randrange
    matrix = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            matrix[i][j] = matrix[j][i] = randrange(prime)
    matrix[0][0] = secret % prime
    return matrix


def bivariate_row(
    prime: int, matrix: Sequence[Sequence[int]], x: int
) -> Tuple[int, ...]:
    """Coefficients of the row polynomial ``f_x(y) = F(x, y)`` (``O(t^2)``)."""
    size = len(matrix)
    out = [0] * size
    x_power = 1
    for i in range(size):
        row = matrix[i]
        if x_power:
            for j in range(size):
                out[j] += row[j] * x_power
        x_power = x_power * x % prime
    return tuple(c % prime for c in out)


# ---------------------------------------------------------------------------
# Batched evaluation plane.
#
# Every coin flip runs O(n^2) concurrent SVSS instances over the *same* field
# and the *same* canonical party points 1..n.  The scalar kernels above
# re-derive the evaluation machinery (point powers, Lagrange denominators)
# per call; the plane below precomputes it once per (prime, n) and batches
# whole-row work into exact int64 matrix products when numpy is available.
# The scalar kernels remain the oracle: every plane result is byte-identical
# to the corresponding scalar computation (property-tested in
# ``tests/crypto/test_eval_plan.py``).
# ---------------------------------------------------------------------------

#: Entry bound for the per-trial row/eval caches of a CryptoPlane.  A weak
#: coin at n=64 produces ~n^2 distinct rows; adversarial floods of distinct
#: junk rows are bounded by the network's max_steps, but the cap keeps even
#: those from growing a plane without limit (the cache is cleared, not LRU --
#: hits immediately repopulate the working set).
_PLANE_ROW_CACHE_LIMIT = 65536

#: Smallest ``n`` whose plan is vectorised (with numpy importable).  Set by
#: the *batched* shapes, because those are what an honest trial runs: a
#: dealer is one :meth:`EvalPlan.bivariate_grid` call (two products for all
#: ``n`` rows and ``n^2`` cross-points), which at the default prime measures,
#: scalar -> vectorised, 18 -> 12 us at n=6, 32 -> 15 at n=7 and 204 -> 21
#: at n=16.  n=7 is the first size with t=2 and the first where the grid
#: wins by about 2x; below it either side is within a few us.  The single-row
#: :meth:`EvalPlan.eval_all_points` crosses later (2.7 -> 4.3 us at n=7,
#: even at n=10) but runs only on the miss path -- tampered, Byzantine-dealt
#: and recovered rows -- which an honest trial never enters.  Full table:
#: CHANGES.md, PR 22.  Re-measure whenever the plane's batch shapes change:
#: this sat at 24, the crossover of one numpy call per *row*, long after
#: dealing stopped making one.  It is also when numpy is imported at all: a
#: plan below it never calls :func:`numpy_module`.  A campaign builds its
#: cells' plans before it forks its workers (``CellExecutor.warm``), so they
#: inherit numpy and the plans; a beacon shard builds a plan on the first
#: cold request of its shape, and so imports numpy there, once per shard.
_NUMPY_MIN_N = 7


def numpy_module() -> Any:
    """numpy, imported on the first call; None when it is not importable.

    The one place the kernels load numpy.  Tests ask it whether numpy is
    importable, and force the scalar plane by patching it to return None.
    """
    global _np
    if _np is None:
        try:
            import numpy
        except ImportError:
            _np = False
        else:
            _np = numpy
    return _np or None


class EvalPlan:
    """Immutable per-``(prime, n)`` evaluation tables, shared process-wide.

    Holds the party-point power table ``x^j`` for every ``x in 1..n`` and
    ``j in 0..n-1`` (so row validation and share generation become dot
    products against precomputed columns) and the Lagrange-weight factor
    table ``weight_rows[i][j] = x_j / (x_j - x_i)`` (1 on the diagonal).
    Party points are the consecutive ints ``1..n``, so every difference is
    plus or minus one of ``1..n`` and a **single** :func:`batch_inverse` sweep
    at plan-construction time covers every denominator any reconstruction
    will ever need; a subset's weights are then products of table entries.

    Three evaluation modes, chosen once per plan:

    * ``"matmul"`` -- one exact int64 matrix product: every intermediate is
      bounded by ``n * (prime-1)^2 < 2^63``;
    * ``"split"`` -- coefficients are split into 16-bit halves and combined
      after two products, exact for any ``prime <= 2^31`` (the library
      default ``2^31 - 1`` included);
    * ``"scalar"`` -- the plain-int kernels, used when numpy is unavailable
      or the system is too small for vectorisation to pay.
    """

    __slots__ = ("prime", "n", "points", "mode", "weight_rows", "_pow", "_pow_t", "stats")

    def __init__(self, prime: int, n: int) -> None:
        self.prime = prime
        self.n = n
        self.points: Tuple[int, ...] = tuple(range(1, n + 1))
        #: Batched-call dispatch counters (vectorised vs scalar fallback),
        #: read by the metrics registry.  Plans are shared process-wide, so
        #: per-run numbers are deltas against a captured baseline.
        self.stats: Dict[str, int] = {"vector_calls": 0, "scalar_calls": 0}
        if n < _NUMPY_MIN_N:
            self.mode = "scalar"
        elif (prime - 1) * (prime - 1) * n < 2**63:
            self.mode = "matmul"
        elif prime <= 2**31:
            self.mode = "split"
        else:
            self.mode = "scalar"
        np = numpy_module() if self.mode != "scalar" else None
        if np is None:
            self.mode = "scalar"
            self._pow = None
            self._pow_t = None
        else:
            self._pow = np.array(
                [[pow(x, j, prime) for j in range(n)] for x in self.points],
                dtype=np.int64,
            )
            self._pow_t = self._pow.T.copy()
        # signed[d] = (d mod prime)^-1 for d in [-n, n], d != 0 (negative d
        # indexes from the end): the single batch_inverse sweep behind every
        # subset-weight denominator.
        inverses = batch_inverse(prime, self.points)
        signed = [0] + inverses + [prime - inv for inv in reversed(inverses)]
        self.weight_rows: List[List[int]] = [
            [x * signed[x - x_i] % prime if x != x_i else 1 for x in self.points]
            for x_i in self.points
        ]

    # -- batched evaluations -------------------------------------------
    def _times(self, left: Any, right: Any) -> Any:
        """``left @ right % prime``, exact in int64, on a vectorised plan.

        Both operands hold residues and the inner dimension is at most ``n``:
        ``"matmul"`` plans fit the whole product, ``"split"`` plans take
        ``right`` in 16-bit halves (each partial sum is below ``n * 2^47``).
        """
        prime = self.prime
        if self.mode == "matmul":
            return left @ right % prime
        return (left @ (right >> 16) % prime * 65536 + left @ (right & 0xFFFF)) % prime

    def eval_all_points(self, coeffs: Sequence[int]) -> List[int]:
        """``[f(1), ..., f(n)]`` for one reduced-coefficient polynomial."""
        if self.mode == "scalar":
            self.stats["scalar_calls"] += 1
            return eval_at_many(self.prime, coeffs, self.points)
        self.stats["vector_calls"] += 1
        return self._times(
            self._pow[:, : len(coeffs)], _np.array(coeffs, dtype=_np.int64)
        ).tolist()

    def bivariate_grid(
        self, matrix: Sequence[Sequence[int]]
    ) -> Tuple[List[Tuple[int, ...]], List[List[int]]]:
        """A dealer's whole sharing: the ``n`` wire rows and the point grid.

        ``rows[i]`` equals ``poly_trim(bivariate_row(prime, matrix, i + 1))``
        -- the tuple the dealer sends party ``i`` -- and ``evals[i][j]`` is
        ``F(i + 1, j + 1)``, the list ``eval_all_points(rows[i])`` returns:
        every value any party ever checks for this dealer.  Two matrix
        products on a vectorised plan (``powers @ matrix``, then ``@ powers^T``;
        the second has the same overflow bound as the first).
        """
        return self._grid(matrix, True)

    def bivariate_rows(self, matrix: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
        """The rows half of :meth:`bivariate_grid` (one product, no evals)."""
        return self._grid(matrix, False)[0]

    def _grid(
        self, matrix: Sequence[Sequence[int]], with_evals: bool
    ) -> Tuple[List[Tuple[int, ...]], Optional[List[List[int]]]]:
        prime = self.prime
        evals = None
        if self.mode == "scalar":
            self.stats["scalar_calls"] += 1
            rows = [poly_trim(bivariate_row(prime, matrix, x)) for x in self.points]
            if with_evals:
                evals = [eval_at_many(prime, row, self.points) for row in rows]
            return rows, evals
        self.stats["vector_calls"] += 1
        width = len(matrix)
        grid = self._times(self._pow[:, :width], _np.array(matrix, dtype=_np.int64))
        if with_evals:
            evals = self._times(grid, self._pow_t[:width]).tolist()
        return [poly_trim(row) for row in grid.tolist()], evals

    # -- reconstruction weights ----------------------------------------
    def subset_weights(self, pids: Sequence[int]) -> Tuple[int, ...]:
        """Lagrange weights at zero for the party subset ``pids`` (0-based).

        Byte-identical to ``lagrange_weights_at_zero(prime, xs)`` for
        ``xs = tuple(pid + 1 for pid in pids)``: member ``i``'s weight is the
        product of its ``weight_rows`` entries over the subset (the diagonal
        entry is 1), so a fixed-set signature costs ``k`` table picks and
        products and **zero** modular inversions.
        """
        if len(pids) < 2:  # itemgetter of one index returns a bare item
            return (1,) * len(pids)
        prime = self.prime
        pick = itemgetter(*pids)
        rows = self.weight_rows
        return tuple(prod(pick(rows[pid])) % prime for pid in pids)


@lru_cache(maxsize=64)
def get_eval_plan(prime: int, n: int) -> EvalPlan:
    """The process-wide shared :class:`EvalPlan` for ``(prime, n)``."""
    return EvalPlan(prime, n)


#: One honest dealing as :meth:`CryptoPlane.deal_rows` tags it: its secret
#: ``F(0, 0)`` and the row objects it handed parties ``0..n-1``.
_Dealing = Tuple[int, Tuple[Tuple[int, ...], ...]]


class CryptoPlane:
    """Per-network batched-crypto state: a shared plan plus bounded caches.

    One plane serves every party of a simulated network (it is interned on
    the :class:`~repro.net.network.Network` beside the session table), which
    is what amortises work *across parties*: an honest in-process dealer's
    whole sharing is computed once (:meth:`deal_rows`) and every row and
    cross-point any party later checks for that dealer is a lookup; a RECROW
    broadcast reaches ``n`` receivers that each resolve it through one dict
    hit.  Everything else -- tampered, Byzantine-dealt, recovered rows --
    takes the miss path, which validates and evaluates from scratch.

    The plane is *simulator* memory, not any party's: a dealt row is in it
    before it is delivered, so adversary behaviours must never read it.
    Sharing is semantically invisible because every answer equals the scalar
    kernel's on the same payload (``tests/crypto/test_eval_plan.py``):

    * ``validate_row`` -- wire payload -> reduced trimmed row (or None for a
      malformed/over-degree payload), replacing the per-receiver coefficient
      scan of ``_validate_row_ints``.  Only canonical rows (tuples of exact
      ints, reduced and trimmed) are stored, and a stored answer is trusted
      only for the very object it is stored under: ``(5.0, 7.0) == (5, 7)``
      and hashes alike, so an equal-but-not-identical payload is validated
      from scratch;
    * ``row_evals`` -- trimmed row -> its evaluations at every party point,
      computed once per distinct row network-wide (one batched product) and
      turning every POINT/RECROW consistency check into a list index;
    * ``dealt_secret`` -- ``t + 1`` rows of one honest dealing -> that
      dealing's secret, read off the dealer's matrix instead of
      interpolated; any other row set falls back to
      :meth:`reconstruct_at_zero`, whose weights come from the plan's
      factor table.
    """

    __slots__ = (
        "plan",
        "prime",
        "n",
        "t",
        "row_cache",
        "eval_cache",
        "row_tags",
        "stats",
    )

    def __init__(self, prime: int, n: int, t: int) -> None:
        self.plan = get_eval_plan(prime, n)
        self.prime = prime
        self.n = n
        self.t = t
        #: Hit/miss counters, read by the metrics registry.  Undercounts row
        #: hits slightly: the hottest handler (SVSSRec's RECROW path) probes
        #: ``row_cache`` directly, bypassing :meth:`validate_row_record` on a
        #: warm hit by design.  ``secret_hits`` counts reconstructions
        #: answered by :meth:`dealt_secret`, ``weight_misses`` those that
        #: computed Lagrange weights (:meth:`reconstruct_at_zero`).
        self.stats: Dict[str, int] = {
            "row_hits": 0,
            "row_misses": 0,
            "eval_hits": 0,
            "eval_misses": 0,
            "secret_hits": 0,
            "weight_misses": 0,
        }
        #: Canonical row -> ``(that same tuple, evals at all party points)``;
        #: public so the hottest handlers can resolve validation AND
        #: cross-point evaluation with one dict get.  A probe is a hit only
        #: when ``record[0] is payload``.
        self.row_cache: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], List[int]]] = {}
        #: Trimmed row -> its evaluations at every party point.
        self.eval_cache: Dict[Tuple[int, ...], List[int]] = {}
        #: Dealt row -> its dealing, the ``(secret, rows)`` pair one
        #: :meth:`deal_rows` call shares among its rows: ``rows[pid]`` is the
        #: very object it handed ``pid``.  Keys are a subset of
        #: ``row_cache``'s, and the two are cleared together.
        self.row_tags: Dict[Tuple[int, ...], _Dealing] = {}

    # ------------------------------------------------------------------
    def deal_rows(self, matrix: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
        """An honest dealer's ``n`` wire rows, entered into the caches.

        ``matrix`` is the dealer's ``(t + 1) x (t + 1)`` coefficient matrix
        ``F`` (:func:`random_symmetric_matrix`).  The dealer's grid product
        yields every row *and* its evaluations, so each row gets the record
        :meth:`validate_row_record` would build on first sight (dealt rows
        are reduced, trimmed and of degree <= t by construction).  A row
        equal to one already held is returned as the held object, which is
        what makes its later sightings hits.  Each returned object is tagged
        with this dealing: its secret ``F(0, 0) = matrix[0][0]`` and the
        returned rows (see :meth:`dealt_secret`); an object already tagged
        keeps its first tag.
        """
        rows, evals = self.plan.bivariate_grid(matrix)
        row_cache, eval_cache, tags = self.row_cache, self.eval_cache, self.row_tags
        if len(row_cache) > _PLANE_ROW_CACHE_LIMIT - len(rows):
            row_cache.clear()
            tags.clear()
        if len(eval_cache) > _PLANE_ROW_CACHE_LIMIT - len(rows):
            eval_cache.clear()
        for index, (row, values) in enumerate(zip(rows, evals)):
            values = eval_cache.setdefault(row, values)
            rows[index] = row_cache.setdefault(row, (row, values))[0]
        dealing = (matrix[0][0] % self.prime, tuple(rows))
        for row in rows:
            tags.setdefault(row, dealing)
        return rows

    def dealt_secret(
        self, pids: Sequence[int], rows: Sequence[Tuple[int, ...]]
    ) -> Optional[int]:
        """The secret behind ``rows`` when they are one dealing's, else None.

        ``rows[i]`` is the row party ``pids[i]`` holds.  The first row's
        value names a dealing ``D``; the answer is ``D``'s secret exactly
        when every row is the very object :meth:`deal_rows` handed its pid
        in ``D``.  A row of another pid or dealing, an equal but different
        tuple, a row no dealing produced or a tag cleared with the row cache
        gives None.  The answer equals :meth:`reconstruct_at_zero` on the
        rows' constant terms: the row ``D`` handed pid ``j`` equals
        ``F_D(x_j, .)``, whose constant term is ``g(x_j)`` for
        ``g = F_D(., 0)`` of degree at most ``t``, so ``t + 1`` distinct pids
        (what the callers pass) interpolate to ``g(0) = F_D(0, 0) mod p``.
        A row two dealings share is handed out by both as one object and
        keeps its first dealing's tag; either way the rows are ``D``'s, so
        the argument holds.
        """
        dealing = self.row_tags.get(rows[0])
        if dealing is None:
            return None
        secret, dealt = dealing
        for pid, row in zip(pids, rows):
            if dealt[pid] is not row:
                return None
        self.stats["secret_hits"] += 1
        return secret

    def _validate_uncached(self, coefficients: Any) -> Optional[Tuple[int, ...]]:
        if not isinstance(coefficients, (tuple, list)) or not all(
            isinstance(c, int) for c in coefficients
        ):
            return None
        prime = self.prime
        trimmed = poly_trim(tuple(c % prime for c in coefficients)) or (0,)
        if len(trimmed) - 1 > self.t:
            return None
        return trimmed

    def validate_row_record(
        self, coefficients: Any
    ) -> Optional[Tuple[Tuple[int, ...], List[int]]]:
        """Validate one wire row and return ``(trimmed, evals)`` (or None).

        The record bundles the validated coefficients with their evaluations
        at every party point -- every consumer of a valid row needs both, so
        the hot handlers resolve the whole thing through one cache probe.
        Same validity contract as the scalar ``_validate_row_ints`` check.
        """
        rows = self.row_cache
        try:
            record = rows.get(coefficients)
        except TypeError:  # unhashable payload, e.g. a list
            record = None
        if record is not None and record[0] is coefficients:
            self.stats["row_hits"] += 1
            return record
        self.stats["row_misses"] += 1
        trimmed = self._validate_uncached(coefficients)
        if trimmed is None:
            return None
        record = rows.get(trimmed)
        if record is None:
            if (
                type(coefficients) is tuple
                and coefficients == trimmed
                and all(type(c) is int for c in coefficients)
            ):
                # Already canonical: the payload *is* the row, so the same
                # object seen again (a re-broadcast, a RECROW) hits.
                trimmed = coefficients
            if len(rows) >= _PLANE_ROW_CACHE_LIMIT:
                rows.clear()
                self.row_tags.clear()
            record = rows[trimmed] = (trimmed, self.row_evals(trimmed))
        return record

    def validate_row(self, coefficients: Any) -> Optional[Tuple[int, ...]]:
        """Validate one wire-format row (same contract as the scalar check)."""
        record = self.validate_row_record(coefficients)
        return None if record is None else record[0]

    def row_evals(self, row: Tuple[int, ...]) -> List[int]:
        """``row`` evaluated at every party point (cached per distinct row)."""
        evals = self.eval_cache
        values = evals.get(row)
        if values is None:
            self.stats["eval_misses"] += 1
            values = self.plan.eval_all_points(row)
            if len(evals) >= _PLANE_ROW_CACHE_LIMIT:
                evals.clear()
            evals[row] = values
        else:
            self.stats["eval_hits"] += 1
        return values

    def reconstruct_at_zero(self, pids: Tuple[int, ...], ys: Sequence[int]) -> int:
        """``f(0)`` from the shares of ``pids`` -- the SVSS-Rec completion map.

        The weights are computed afresh (``plan.subset_weights``: table
        picks and products, no inversion): a coin's reconstructions settle
        on too many distinct subsets for a cache of them to hit.
        """
        self.stats["weight_misses"] += 1
        total = 0
        for weight, y in zip(self.plan.subset_weights(pids), ys):
            total += weight * y
        return total % self.prime
