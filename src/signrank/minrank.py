"""Minimum-rank decision procedures.

The entry point min_rank runs a decision ladder on the orientation with
the fewer columns d: zero pattern; condensation collapse (mr <= 1); the
rank-2 certificate, which needs no budget; past it, [3, term rank] when
d > WIDTH_CAP, or d > UNBUDGETED_WIDTH_CAP without a budget; the
L-matrix test (mr = d, else a null vector gives mr <= d-1); the rank-3
chirotope search (rank3.rank3_search), asking whether mr <= 3 (cov)
and, for 7 <= d <= 8, whether mr <= d-3 (vec); the 2-dimensional type
search (mr <= d-2), only while that question is open; and the term rank
as a last upper bound. A rank-3 hit is a re-verified realization; an
exhausted rank-3 search raises the lower bound past its question. The
ladder is exact whenever it closes the gap, which is guaranteed for
d <= 5; a rank-3 hit that cannot be placed, or a budget cut, leaves a
bracket.

Each call has one Deadline for the whole of budget_ms: each search
receives what the rungs before it left. is_L_matrix takes no budget.

The type search itself lives in rank2.find_plane_type, shared with the
rank n-2 realization in realize; mr_le_n_minus_2 runs it on the rows.
"""

from dataclasses import dataclass
from random import Random
from typing import Any, Optional

from .errors import BudgetExceededError, Deadline, InternalCheckError
from .rank2 import Rank2Type, find_plane_type, mr_le_2, realize_rank2
from .rank3 import COV, VEC, rank3_search
from .rational import RationalMatrix
from .signs import SignPattern, SignVector, condense_with_trace, max_rank_matching, set_perp, sign_of

__all__ = [
    "Certificate",
    "MinRankBracket",
    "is_L_matrix",
    "mr_le_n_minus_2",
    "mr_eq_n_minus_1",
    "min_rank",
    "random_upper_bound",
]


@dataclass(frozen=True)
class Certificate:
    """Tagged, independently re-verifiable evidence for a bracket bound."""

    kind: str
    payload: Any


@dataclass(frozen=True)
class MinRankBracket:
    lower: int
    upper: int
    exact: bool
    transposed: bool
    certificates: tuple[Certificate, ...]

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper:
            raise InternalCheckError("bad bracket bounds")
        if self.exact != (self.lower == self.upper):
            raise InternalCheckError("exactness flag disagrees with the bounds")

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("bracket is not exact")
        return self.lower


def is_L_matrix(pattern: SignPattern) -> tuple[bool, Optional[SignVector]]:
    """Whether every real matrix with these signs has full column rank.

    Equivalent formulation used here: no nonzero sign vector is orthogonal
    to every row. The falsifying witness, when one exists, is the
    canonically least nonzero vector orthogonal to all rows. The perp set
    comes back as bits from the bitsliced `set_perp` and decodes lazily,
    so the loop stops at the first nonzero member after decoding two.
    """
    perp = set_perp(pattern.row_vectors, n=pattern.cols)
    for v in perp:
        if not v.is_zero():
            return False, v
    return True, None


def mr_le_n_minus_2(
    pattern: SignPattern, budget_ms: int | None = None
) -> Optional[Rank2Type]:
    """A 2-dimensional type whose sign set is orthogonal to every row, iff
    the minimum rank is at most cols-2 (see rank2.find_plane_type).

    Returns None after exhausting the finite type space (a definitive
    negative) and raises BudgetExceededError when budget_ms runs out.
    """
    return find_plane_type(pattern.row_vectors, pattern.cols, budget_ms)


def mr_eq_n_minus_1(pattern: SignPattern, budget_ms: int | None = None) -> bool:
    """Both characterizing conditions for minimum rank cols-1: some nonzero
    sign vector is orthogonal to every row, and no 2-dimensional type
    absorbs the rows. budget_ms caps the whole call: the type search
    receives what is_L_matrix left of it."""
    deadline = Deadline(budget_ms)
    full_rank, _ = is_L_matrix(pattern)
    if full_rank:
        return False
    return mr_le_n_minus_2(pattern, budget_ms=deadline.left_ms()) is None


def random_upper_bound(
    pattern: SignPattern, r: int, seed: int = 0, iterations: int = 2000
) -> Optional[RationalMatrix]:
    """Search random integer factorizations U (m x r) times V (r x n) on the
    {-3..3} lattice for a matrix with the pattern's signs; any hit is an
    exact rank <= r witness.

    Each iteration draws U and then V, row-major, from
    Random(seed).randint(-3, 3) and returns the first product whose signs
    are the pattern's.
    """
    if r < 1:
        raise ValueError("rank bound must be at least 1")
    rng = Random(seed)
    m, n = pattern.rows, pattern.cols
    for _ in range(iterations):
        u = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        product = [[sum(u[i][k] * v[k][j] for k in range(r)) for j in range(n)] for i in range(m)]
        candidate = RationalMatrix(product, cols=n)
        if sign_of(candidate) == pattern:
            return candidate
    return None


# The later rungs are exponential in d: is_L_matrix builds 3^d-bit masks.
WIDTH_CAP = 16
UNBUDGETED_WIDTH_CAP = 12
# The widths at which the rank-3 vec search (mr <= d-3) runs: at d = 6 it
# asks what cov asks, and past d = 8 it rarely finishes.
VEC_WIDTHS = (7, 8)


def _bracket(lower, upper, transposed, certs) -> MinRankBracket:
    return MinRankBracket(lower, upper, lower == upper, transposed, tuple(certs))


def min_rank(pattern: SignPattern, budget_ms: int | None = None) -> MinRankBracket:
    """Exact minimum rank when the decision ladder closes (always for
    min(m, n) <= 5 and whenever an early rung fires), else a bracket. Each
    search receives what the rungs before it left of budget_ms."""
    deadline = Deadline(budget_ms)
    transposed = pattern.cols > pattern.rows
    working = pattern.transpose() if transposed else pattern
    d = working.cols

    if working.is_zero():
        return _bracket(0, 0, transposed, [Certificate("zero", None)])
    trace = condense_with_trace(working)
    if trace.pattern.rows <= 1:
        return _bracket(1, 1, transposed, [Certificate("condensation", trace)])

    cert2 = mr_le_2(working)
    if cert2 is not None:
        realization = realize_rank2(working, cert2)
        return _bracket(
            2, 2, transposed,
            [Certificate("rank2", cert2), Certificate("realization", realization)],
        )
    if d > WIDTH_CAP or (budget_ms is None and d > UNBUDGETED_WIDTH_CAP):
        cap, matching = max_rank_matching(working)
        return _bracket(3, min(d, cap), transposed, [Certificate("matching", matching)])

    full_rank, null_vector = is_L_matrix(working)
    if full_rank:
        return _bracket(d, d, transposed, [Certificate("L-matrix", None)])
    certs = [Certificate("null-vector", null_vector)]
    if d <= 3:
        # d = 3 with mr not in {0, 1, 2} is an L-matrix; getting here means a bug
        raise InternalCheckError("ladder fell through on a small pattern")
    if d == 4:
        return _bracket(3, 3, transposed, certs)

    lower, upper = 3, d - 1
    questions = [(COV, 3)] + ([(VEC, d - 3)] if VEC_WIDTHS[0] <= d <= VEC_WIDTHS[1] else [])
    for question, bound in questions:
        try:
            found = rank3_search(working, question, budget_ms=deadline.left_ms())
        except BudgetExceededError:
            continue
        if found.realization is not None:
            upper = bound
            certs.append(Certificate("realization", found.realization))
        elif found.exhausted:
            lower = max(lower, bound + 1)
            certs.append(Certificate("rank3-exhausted", found))
        if lower == upper:
            return _bracket(lower, upper, transposed, certs)

    if lower <= d - 2 < upper:
        try:
            plane_type = mr_le_n_minus_2(working, budget_ms=deadline.left_ms())
        except BudgetExceededError:
            pass
        else:
            if plane_type is None:
                return _bracket(d - 1, d - 1, transposed, certs)
            upper = d - 2
            certs.append(Certificate("rank2-type", plane_type))
    if lower < upper:
        cap, matching = max_rank_matching(working)
        if cap < upper:
            upper = cap
            certs.append(Certificate("matching", matching))
    return _bracket(lower, upper, transposed, certs)
