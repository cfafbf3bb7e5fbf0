"""Extremal counts of sign vectors of k-dimensional subspaces of R^n.

Reproduces the closed forms at desk scale: the 2-dimensional maximum
4n+1 (with the explicit stacked witness pattern), the coordinate-subspace
minimum 3^k, the hyperplane maximum 3^n - 2(2^n - 1), and the rank-3
lower-bound construction 3(4n-3) from a direct sum.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .covectors import sign_vectors
from .errors import DimensionError
from .rank2 import mr_le_2, realize_rank2, type_sign_sets
from .rational import RationalMatrix, RationalSubspace, orth_complement
from .signs import SignPattern, SignVector, set_perp

__all__ = [
    "ExtremalReport",
    "t1t2_pattern",
    "s2_witness_count",
    "s2_exhaustive_max",
    "s_min_witness",
    "s_hyperplane_max",
    "s3_lower_witness",
    "hyperplane_count_formula",
    "perp_count_formula",
]


def perp_count_formula(n: int, t: int) -> int:
    """Number of sign vectors orthogonal to one vector with t nonzeros."""
    return 3 ** (n - t) * (3**t - 2 * (2**t - 1))


def hyperplane_count_formula(n: int) -> int:
    return 3**n - 2 * (2**n - 1)


@dataclass(frozen=True)
class ExtremalReport:
    """One reproduced extremal value; count is always recomputed from an
    actual enumeration, formula_value from the closed form."""

    n: int
    k: int
    kind: str
    count: int
    formula_value: int
    witness: Optional[object] = None
    detail: Optional[object] = None


def t1t2_pattern(n: int) -> SignPattern:
    """The 2n x n stack: zero diagonal with + above and - below, on top of
    a - diagonal with + above and - below."""
    if n < 2:
        raise DimensionError("the stacked witness needs n >= 2")
    rows = []
    for i in range(n):
        rows.append(SignVector.from_signs(
            [-1] * i + [0] + [1] * (n - i - 1)
        ))
    for i in range(n):
        rows.append(SignVector.from_signs(
            [-1] * i + [-1] + [1] * (n - i - 1)
        ))
    return SignPattern(rows, cols=n)


def _row_space(matrix: RationalMatrix) -> RationalSubspace:
    return RationalSubspace.from_spanning(matrix.cols, list(matrix.data))


def s2_witness_count(n: int) -> ExtremalReport:
    """Counts sign vectors of the plane realizing the stacked witness: the
    rank-2 realization's row space is a 2-dimensional subspace of R^n whose
    sign set meets the 4n+1 maximum."""
    pattern = t1t2_pattern(n)
    cert = mr_le_2(pattern)
    if cert is None:
        raise DimensionError(f"stacked witness unexpectedly not of minimum rank 2 at n={n}")
    realization = realize_rank2(pattern, cert)
    plane = _row_space(realization)
    count = len(sign_vectors(plane).signs)
    return ExtremalReport(n=n, k=2, kind="max-witness", count=count,
                          formula_value=4 * n + 1, witness=plane)


def s2_exhaustive_max(n: int) -> ExtremalReport:
    """Maximum sign-set size over every 2-dimensional type of R^n; the
    detail carries the full set of achieved cardinalities."""
    if not 2 <= n <= 6:
        raise DimensionError("exhaustive 2-dimensional search supported for 2 <= n <= 6")
    achieved = {len(sign_set) for sign_set in type_sign_sets(n, min_classes=2)}
    return ExtremalReport(n=n, k=2, kind="max", count=max(achieved),
                          formula_value=4 * n + 1, detail=tuple(sorted(achieved)))


def s_min_witness(k: int, n: int) -> ExtremalReport:
    """Counts sign vectors of the coordinate subspace span{e_1..e_k}, the
    3^k minimum."""
    if not 1 <= k <= n:
        raise DimensionError("need 1 <= k <= n")
    cols = [[Fraction(int(i == j)) for i in range(n)] for j in range(k)]
    coordinate = RationalSubspace(n, RationalMatrix.from_columns(cols, rows=n))
    count = len(sign_vectors(coordinate).signs)
    return ExtremalReport(n=n, k=k, kind="min", count=count,
                          formula_value=3**k, witness=coordinate)


def s_hyperplane_max(n: int) -> ExtremalReport:
    """Counts sign vectors of the hyperplane orthogonal to the all-ones
    vector, double-checked against the orthogonal-complement count of the
    all-+ sign vector."""
    if n < 2:
        raise DimensionError("need n >= 2")
    ones = RationalSubspace(n, RationalMatrix.from_columns([[Fraction(1)] * n], rows=n))
    hyperplane = orth_complement(ones)
    count = len(sign_vectors(hyperplane).signs)
    all_plus = SignVector.from_signs([1] * n)
    perp_count = len(set_perp([all_plus], n=n))
    return ExtremalReport(n=n, k=n - 1, kind="max", count=count,
                          formula_value=hyperplane_count_formula(n),
                          witness=hyperplane, detail={"perp_count": perp_count})


def s3_lower_witness(n: int) -> ExtremalReport:
    """Direct sum of a 1x1 + block with the stacked witness on n-1
    coordinates, realized at rank 3 block-diagonally; its row space is a
    3-dimensional subspace with at least 3(4n-3) sign vectors."""
    if n < 3:
        raise DimensionError("need n >= 3")
    tail = t1t2_pattern(n - 1)
    cert = mr_le_2(tail)
    if cert is None:
        raise DimensionError("stacked witness unexpectedly not of minimum rank 2")
    tail_real = realize_rank2(tail, cert)
    rows = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
    for i in range(tail_real.rows):
        rows.append([Fraction(0)] + list(tail_real.row(i)))
    block = RationalMatrix(rows, cols=n)
    space = _row_space(block)
    count = len(sign_vectors(space).signs)
    return ExtremalReport(n=n, k=3, kind="lower-bound", count=count,
                          formula_value=3 * (4 * n - 3), witness=space)
