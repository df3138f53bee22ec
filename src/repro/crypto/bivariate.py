"""Symmetric bivariate polynomials over a prime field.

The shunning VSS (`repro.protocols.svss`) follows the classical bivariate
construction: the dealer embeds the secret as ``F(0, 0)`` of a random
*symmetric* bivariate polynomial of degree ``t`` in each variable, and hands
party ``i`` the row polynomial ``f_i(y) = F(i, y)``.  Symmetry gives the
pairwise consistency check ``f_i(j) = F(i, j) = F(j, i) = f_j(i)`` that
parties use to validate each other's shares.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.crypto import kernels
from repro.crypto.field import Field, FieldElement, IntoField
from repro.crypto.polynomial import Polynomial
from repro.errors import FieldError, InterpolationError


class SymmetricBivariatePolynomial:
    """A symmetric polynomial ``F(x, y)`` of degree ``t`` in each variable.

    Stored as the full ``(t+1) x (t+1)`` coefficient matrix ``c[i][j]`` with
    ``c[i][j] == c[j][i]``, i.e. ``F(x, y) = sum c[i][j] x^i y^j``.
    """

    def __init__(self, field: Field, coefficients: Sequence[Sequence[IntoField]]) -> None:
        self.field = field
        matrix = [[field(c) for c in row] for row in coefficients]
        size = len(matrix)
        for row in matrix:
            if len(row) != size:
                raise InterpolationError("coefficient matrix must be square")
        for i in range(size):
            for j in range(size):
                if matrix[i][j] != matrix[j][i]:
                    raise InterpolationError("coefficient matrix must be symmetric")
        self._coefficients: Optional[List[List[FieldElement]]] = matrix
        #: The raw-int coefficient matrix: what every query and the kernel
        #: fast paths read (the object is immutable after construction).
        self._ints: List[List[int]] = [[c.value for c in row] for row in matrix]

    # Construction ------------------------------------------------------
    @classmethod
    def random(
        cls,
        field: Field,
        degree: int,
        rng: random.Random,
        secret: IntoField | None = None,
    ) -> "SymmetricBivariatePolynomial":
        """A random symmetric bivariate polynomial with ``F(0,0) = secret``.

        One ``rng.randrange(prime)`` per ``(i, j >= i)`` straight into the int
        matrix: square, reduced and symmetric by construction, so the
        coercing, checking constructor (for matrices from outside) is skipped.
        """
        size = degree + 1
        prime = field.prime
        randrange = rng.randrange
        ints = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                ints[i][j] = ints[j][i] = randrange(prime)
        if secret is not None:
            ints[0][0] = field.raw(secret)
        self = cls.__new__(cls)
        self.field = field
        self._coefficients = None
        self._ints = ints
        return self

    # Queries ------------------------------------------------------------
    @property
    def coefficients(self) -> List[List[FieldElement]]:
        """The coefficient matrix as field elements (built on first access)."""
        if self._coefficients is None:
            field = self.field
            self._coefficients = [[FieldElement(v, field) for v in row] for row in self._ints]
        return self._coefficients

    @property
    def degree(self) -> int:
        """Degree bound in each variable."""
        return len(self._ints) - 1

    @property
    def int_matrix(self) -> List[List[int]]:
        """The raw-int coefficient matrix (kernel-side mirror, do not mutate).

        This is what the batched plane's grid evaluation consumes when the
        SVSS dealer generates all ``n`` wire rows in one product.
        """
        return self._ints

    def __call__(self, x: IntoField, y: IntoField) -> FieldElement:
        """Evaluate ``F(x, y)`` (Horner in x of Horners in y, on raw ints)."""
        raw = self.field.raw
        value = kernels.bivariate_eval(self.field.prime, self._ints, raw(x), raw(y))
        return FieldElement(value, self.field)

    @property
    def secret(self) -> FieldElement:
        """``F(0, 0)``, the embedded secret."""
        return FieldElement(self._ints[0][0], self.field)

    def row(self, index: IntoField) -> Polynomial:
        """The row polynomial ``f_index(y) = F(index, y)`` handed to a party."""
        coeffs = kernels.bivariate_row(
            self.field.prime, self._ints, self.field.raw(index)
        )
        return Polynomial._from_int_coeffs(self.field, coeffs)

    def rows(self, n: int) -> List[Polynomial]:
        """Row polynomials for parties ``1..n`` (index 0 of the list is party 1)."""
        return [self.row(i) for i in range(1, n + 1)]

    # ------------------------------------------------------------------
    @classmethod
    def interpolate_from_rows(
        cls, field: Field, rows: Sequence[Tuple[IntoField, Polynomial]], degree: int
    ) -> "SymmetricBivariatePolynomial":
        """Reconstruct ``F`` from ``degree + 1`` row polynomials.

        Args:
            field: coefficient field.
            rows: pairs ``(i, f_i)`` of row index and row polynomial.
            degree: the degree bound ``t``.

        Raises:
            InterpolationError: if fewer than ``degree + 1`` rows are supplied
                or the rows are not consistent with a symmetric polynomial.
        """
        if len(rows) < degree + 1:
            raise InterpolationError(
                f"need {degree + 1} rows to reconstruct, got {len(rows)}"
            )
        selected = list(rows[: degree + 1])
        # For each coefficient position j of y, interpolate across x.  All
        # columns share the same x tuple, so the memoised Lagrange basis is
        # computed once and reused degree+1 times.
        prime = field.prime
        raw = field.raw
        xs = tuple(raw(x_value) for x_value, _ in selected)
        for _, row_poly in selected:
            if row_poly.field != field:
                raise FieldError("cannot coerce an element of a different field")
        row_ints = [row_poly.int_coefficients for _, row_poly in selected]
        matrix: List[List[int]] = [
            [0] * (degree + 1) for _ in range(degree + 1)
        ]
        for j in range(degree + 1):
            ys = [coeffs[j] if j < len(coeffs) else 0 for coeffs in row_ints]
            column_coeffs = kernels.interpolate(prime, xs, ys)
            for i in range(degree + 1):
                matrix[i][j] = column_coeffs[i] if i < len(column_coeffs) else 0
        # Symmetrise defensively: if the rows came from a genuine symmetric
        # polynomial this is a no-op; otherwise constructing the object would
        # raise, which is the behaviour we want for corrupted inputs.
        return cls(field, matrix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetricBivariatePolynomial):
            return NotImplemented
        return self.field == other.field and self._ints == other._ints

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SymmetricBivariatePolynomial(degree={self.degree})"
