"""Constructive rational realization.

realize_corank2 reads an n x m pattern columnwise (columns are sign
vectors of R^n) and builds a rational matrix with those signs and rank at
most n-2: rank2.find_plane_type finds a 2-dimensional type whose sign set
is orthogonal to every column (the same search, and so the same first
hit, that minrank.mr_le_n_minus_2 runs on the transpose); the rational
orthogonal complement K of the type's plane then realizes each column by
an exact witness inside K: member_witness sums the cocircuits of K
conformal to the column, and builds those cocircuits once for all the
columns. Exhausting the finite type space without a hit is a definitive
negative (minimum rank exceeds n-2), distinct from running out of budget.

rationalize_equation lifts this to matrix equations B C = E whose E has
two columns (or two rows, via transposition): a block pattern with an
identity block has rank-n realizations exactly when the equation has a
real solution with those signs, and the zero Schur complement of any such
realization yields the exact rational triple.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .covectors import member_witness
from .errors import BudgetExceededError, DimensionError, InternalCheckError
from .rank2 import Rank2Type, find_plane_type
from .rational import RationalMatrix, RationalSubspace, orth_complement, rank, schur_complement
from .signs import SignPattern, SignVector, sign_of

__all__ = [
    "RealizationResult",
    "RealizeOutcome",
    "RationalizeOutcome",
    "realize_corank2",
    "rationalize_equation",
]

STATUS_OK = "ok"
STATUS_EXHAUSTED = "exhausted"
STATUS_BUDGET = "budget-exceeded"


@dataclass(frozen=True)
class RealizationResult:
    """A realization along with the pipeline data that re-verifies it."""

    matrix: RationalMatrix
    claimed_rank: int
    plane_type: Rank2Type
    plane: RationalSubspace
    complement: RationalSubspace
    column_witnesses: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class _Outcome:
    status: str

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def definitive(self) -> bool:
        return self.status in (STATUS_OK, STATUS_EXHAUSTED)


@dataclass(frozen=True)
class RealizeOutcome(_Outcome):
    result: Optional[RealizationResult]


@dataclass(frozen=True)
class RationalizeOutcome(_Outcome):
    factors: Optional[tuple[RationalMatrix, RationalMatrix, RationalMatrix]]


def realize_corank2(pattern: SignPattern, budget_ms: int | None = None) -> RealizeOutcome:
    """Rational realization of rank <= n-2 for an n x m pattern read
    columnwise, or a definitive/inconclusive negative."""
    n = pattern.rows
    if n < 2:
        raise DimensionError("corank-2 realization needs at least 2 rows")
    try:
        plane_type = find_plane_type(pattern.column_vectors(), n, budget_ms)
    except BudgetExceededError:
        return RealizeOutcome(STATUS_BUDGET, None)
    if plane_type is None:
        return RealizeOutcome(STATUS_EXHAUSTED, None)
    plane = plane_type.representative()
    complement = orth_complement(plane)
    witnesses = []
    for j in range(pattern.cols):
        x = member_witness(complement, pattern.column(j))
        if x is None:
            raise InternalCheckError(
                "column accepted by the type search has no witness in the complement"
            )
        witnesses.append(x)
    basis = complement.basis
    matrix = RationalMatrix.from_columns([basis.apply(x) for x in witnesses], rows=n)
    if sign_of(matrix) != pattern:
        raise InternalCheckError("assembled realization has wrong signs")
    realized_rank = rank(matrix)
    if realized_rank > n - 2:
        raise InternalCheckError("assembled realization exceeds the target rank")
    return RealizeOutcome(
        STATUS_OK,
        RealizationResult(
            matrix=matrix,
            claimed_rank=realized_rank,
            plane_type=plane_type,
            plane=plane,
            complement=complement,
            column_witnesses=tuple(witnesses),
        ),
    )


def _compose_shapes(sB: SignPattern, sC: SignPattern, sE: SignPattern) -> None:
    if sC.cols != 2 or sE.cols != 2:
        raise DimensionError("C and E must have exactly 2 columns in this orientation")
    if sB.rows != sE.rows:
        raise DimensionError("B and E row counts differ")
    if sB.cols != sC.rows:
        raise DimensionError("inner dimensions of B and C differ")


def rationalize_equation(
    sB: SignPattern, sC: SignPattern, sE: SignPattern, budget_ms: int | None = None
) -> RationalizeOutcome:
    """Rational matrices with the given signs satisfying B~ C~ = E~ exactly,
    when E has 2 columns or 2 rows.

    Builds the block pattern [[I_n, C], [B, E]], realizes its transpose at
    corank 2 (rank n), and splits the result: the leading block is a
    positive diagonal D, so the zero Schur complement gives B~ = B1,
    C~ = D^{-1} C1, E~ = E1 with B~ C~ = E~. The two-rows case transposes
    all inputs and outputs.
    """
    if sE.cols != 2 and sE.rows == 2:
        flipped = rationalize_equation(
            sC.transpose(), sB.transpose(), sE.transpose(), budget_ms=budget_ms
        )
        if flipped.factors is None:
            return flipped
        tb, tc, te = flipped.factors
        return RationalizeOutcome(
            flipped.status, (tc.transpose(), tb.transpose(), te.transpose())
        )
    _compose_shapes(sB, sC, sE)
    n = sB.cols
    p = sB.rows

    block_rows = []
    for i in range(n):
        identity_row = [0] * n
        identity_row[i] = 1
        block_rows.append(SignVector.from_signs(identity_row + list(sC.row(i).signs())))
    for i in range(p):
        block_rows.append(SignVector.from_signs(list(sB.row(i).signs()) + list(sE.row(i).signs())))
    block = SignPattern(block_rows, cols=n + 2)

    outcome = realize_corank2(block.transpose(), budget_ms=budget_ms)
    if outcome.result is None:
        return RationalizeOutcome(outcome.status, None)
    realized = outcome.result.matrix.transpose()  # (n+p) x (n+2), in Q(block)
    if rank(realized) != n:
        raise InternalCheckError("block realization has unexpected rank")
    if not schur_complement(realized, n).is_zero():
        raise InternalCheckError("Schur complement of the block realization is nonzero")

    d_diag = [realized.entry(i, i) for i in range(n)]
    c_top = [[realized.entry(i, n + j) / d_diag[i] for j in range(2)] for i in range(n)]
    b_bottom = [[realized.entry(n + i, j) for j in range(n)] for i in range(p)]
    e_bottom = [[realized.entry(n + i, n + j) for j in range(2)] for i in range(p)]
    b_mat = RationalMatrix(b_bottom, cols=n)
    c_mat = RationalMatrix(c_top, cols=2)
    e_mat = RationalMatrix(e_bottom, cols=2)
    if b_mat.mul(c_mat) != e_mat:
        raise InternalCheckError("rationalized factors do not multiply exactly")
    if sign_of(b_mat) != sB or sign_of(c_mat) != sC or sign_of(e_mat) != sE:
        raise InternalCheckError("rationalized factors have wrong signs")
    return RationalizeOutcome(STATUS_OK, (b_mat, c_mat, e_mat))
