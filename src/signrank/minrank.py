"""Minimum-rank decision procedures.

The entry point min_rank runs a decision ladder on the orientation with
the fewer columns d: zero pattern; condensation collapse (mr <= 1); the
rank-2 certificate; the L-matrix test (mr = d); the 2-dimensional type
search (mr <= d-2); and the leftover rung mr = d-1. The ladder is exact
whenever it closes the gap, which is guaranteed for d <= 5; for d >= 6 a
bracket [3, d-2] remains, refined by the term rank and by randomized
low-rank factorization witnesses.

random_upper_bound draws each factorization U V from the stream of
Random(seed).randint(-3, 3), replayed in batches by lattice_draws, and
rejects it at the first entry of U V whose sign is wrong, using integer
dot products; only a hit becomes a RationalMatrix, re-verified by sign_of.

The type search itself lives in rank2.find_plane_type, shared with the
rank n-2 realization in realize; mr_le_n_minus_2 runs it on the rows.
"""

import time
from dataclasses import dataclass
from operator import mul
from random import Random
from typing import Any, Optional

from .errors import BudgetExceededError, InternalCheckError
from .rank2 import Rank2Type, find_plane_type, mr_le_2, realize_rank2
from .rational import RationalMatrix
from .signs import SignPattern, SignVector, condense_with_trace, max_rank_matching, set_perp, sign_of

__all__ = [
    "Certificate",
    "MinRankBracket",
    "is_L_matrix",
    "lattice_draws",
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
    absorbs the rows."""
    full_rank, _ = is_L_matrix(pattern)
    if full_rank:
        return False
    return mr_le_n_minus_2(pattern, budget_ms=budget_ms) is None


# CPython's Random.randint(-3, 3) is getrandbits(3), the top 3 bits of one
# 32-bit Mersenne Twister word, with 7 rejected, minus 3. These tables
# replay that on the top byte of each word: translate deletes the bytes
# whose top bits are 7 and maps the rest to value - 3 as a signed byte.
_LATTICE_VALUE = bytes(((b >> 5) - 3) & 0xFF for b in range(256))
_LATTICE_REJECTED = bytes(range(0xE0, 0x100))
_BATCH_VALUES = 4096


def lattice_draws(rng: Random, count: int) -> list[int]:
    """The next count values of rng.randint(-3, 3), leaving rng in the state
    that count such calls would; each round draws one word per value still
    missing with a single getrandbits call."""
    values: list[int] = []
    while len(values) < count:
        words = count - len(values)
        top_bytes = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        kept = top_bytes.translate(_LATTICE_VALUE, _LATTICE_REJECTED)
        values.extend(memoryview(kept).cast("b").tolist())
    return values


def random_upper_bound(
    pattern: SignPattern, r: int, seed: int = 0, iterations: int = 2000
) -> Optional[RationalMatrix]:
    """Search random integer factorizations U (m x r) times V (r x n) on the
    {-3..3} lattice for a matrix with the pattern's signs; any hit is an
    exact rank <= r witness.

    Each iteration takes the next (m + n) r values of
    Random(seed).randint(-3, 3), U row-major and then V row-major, whether
    or not it hits. A draw is rejected at the first entry of U V whose sign
    is wrong; entries are tested as integer dot products, the pattern's zero
    entries first. A hit is rebuilt as a RationalMatrix and re-verified by
    sign_of before it is returned.
    """
    if r < 1:
        raise ValueError("rank bound must be at least 1")
    rng = Random(seed)
    m, n = pattern.rows, pattern.cols
    u_size = m * r
    need = u_size + r * n
    # per entry: U's row i and V's column j as slice bounds into one draw
    zeros, signed = [], []
    for i, row in enumerate(pattern.row_vectors):
        for j, s in enumerate(row):
            (signed if s else zeros).append((i * r, (i + 1) * r, u_size + j, s))
    checks = zeros + signed
    batch = max(1, _BATCH_VALUES // max(need, 1))
    draws: list[int] = []
    for t in range(iterations):
        base = (t % batch) * need
        if base == 0:
            draws = lattice_draws(rng, need * min(batch, iterations - t))
        w = draws[base : base + need]
        for u_start, u_end, v_start, s in checks:
            dot = sum(map(mul, w[u_start:u_end], w[v_start:need:n]))
            if (dot > 0) - (dot < 0) != s:
                break
        else:
            u = [w[i * r : (i + 1) * r] for i in range(m)]
            v = [w[u_size + k * n : u_size + (k + 1) * n] for k in range(r)]
            product = [
                [sum(u[i][k] * v[k][j] for k in range(r)) for j in range(n)] for i in range(m)
            ]
            candidate = RationalMatrix(product, cols=n)
            if sign_of(candidate) != pattern:
                raise InternalCheckError("integer sign check disagrees with sign_of")
            return candidate
    return None


def _bracket(lower, upper, transposed, certs) -> MinRankBracket:
    return MinRankBracket(lower, upper, lower == upper, transposed, tuple(certs))


def min_rank(
    pattern: SignPattern, budget_ms: int | None = None, seed: int = 0
) -> MinRankBracket:
    """Exact minimum rank when the decision ladder closes (always for
    min(m, n) <= 5 and whenever an early rung fires), else a bracket. The
    type search receives what the rungs before it left of budget_ms."""
    start = time.monotonic()
    transposed = pattern.cols > pattern.rows
    working = pattern.transpose() if transposed else pattern
    d = working.cols

    if working.is_zero():
        return _bracket(0, 0, transposed, [Certificate("zero", None)])
    trace = condense_with_trace(working)
    if trace.pattern.rows <= 1:
        return _bracket(1, 1, transposed, [Certificate("condensation", trace)])

    try:
        cert2 = mr_le_2(working, budget_ms=budget_ms)
    except BudgetExceededError:
        cap, matching = max_rank_matching(working)
        return _bracket(2, min(d, cap), transposed, [Certificate("matching", matching)])
    if cert2 is not None:
        realization = realize_rank2(working, cert2)
        return _bracket(
            2, 2, transposed,
            [Certificate("rank2", cert2), Certificate("realization", realization)],
        )

    full_rank, null_vector = is_L_matrix(working)
    if full_rank:
        return _bracket(d, d, transposed, [Certificate("L-matrix", None)])
    certs = [Certificate("null-vector", null_vector)]
    if d <= 3:
        # d = 3 with mr not in {0, 1, 2} is an L-matrix; getting here means a bug
        raise InternalCheckError("ladder fell through on a small pattern")
    if d == 4:
        return _bracket(3, 3, transposed, certs)

    if budget_ms is not None:
        budget_ms = max(0, budget_ms - int((time.monotonic() - start) * 1000))
    try:
        plane_type = mr_le_n_minus_2(working, budget_ms=budget_ms)
    except BudgetExceededError:
        cap, matching = max_rank_matching(working)
        certs.append(Certificate("matching", matching))
        return _bracket(3, min(d - 1, cap), transposed, certs)
    if plane_type is None:
        return _bracket(d - 1, d - 1, transposed, certs)
    certs.append(Certificate("rank2-type", plane_type))
    if d == 5:
        return _bracket(3, 3, transposed, certs)

    upper = d - 2
    cap, matching = max_rank_matching(working)
    if cap < upper:
        upper = cap
        certs.append(Certificate("matching", matching))
    for r in range(3, upper):
        witness = random_upper_bound(working, r, seed=seed)
        if witness is not None:
            upper = r
            certs.append(Certificate("realization", witness))
            break
    return _bracket(3, upper, transposed, certs)
