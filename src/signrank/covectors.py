"""Sign vectors of rational subspaces.

For a subspace L given by a basis matrix B (columns spanning L), sign(L)
is enumerated exactly, in integers. B is scaled by the lcm D of its
denominators (`rational.integer_rows`), which changes no sign and no ray.
The cocircuits, the minimal-support sign vectors, are e -> chi(S, e) over
the (k-1)-sets S of rows, read off one table chi of the maximal minors of
D B (`rational.maximal_minors`; Bjorner et al., Oriented Matroids, 3.5).
Only a witness needs the kernel of the rows S, a cocircuit's coefficient.

The full set is the conformal cover of the cocircuits: a nonzero X is in
sign(L) exactly when the cocircuits conformal to X (each nonzero
coordinate of one agrees with X) cover supp(X), since every covector is a
conformal composition of cocircuits (Bjorner, Las Vergnas, Sturmfels,
White & Ziegler, Oriented Matroids, 3.7). `signs.conformal_cover` decides
it for every candidate, bitsliced over the last six coordinates and walked
over the leading ones, and composes nothing.

Witnesses come from one routine, `_cover`: it picks the cocircuits
conformal to X by ANDing one bitmask per coordinate, sums their integer
coefficients into x, and re-checks sign(D B x) = X in integers; when
their supports miss part of supp(X), X is not in sign(L). member_witness
returns that x, made primitive, from a per-basis index kept in a small
cache. `SubspaceSignReport.witnesses`, built on first read, gives each X
the primitive integer point on the ray of (x, B x): the same ray, scaled.
A caller that reads only signs or sizes builds neither the masks nor any
witness, and no vector needs a feasibility solve.

Strict feasibility is the same query. An x with a.x = 0 on the equality
rows and a.x > 0 on the positive rows exists exactly when the sign vector
that is 0 on the former and + on the latter lies in sign(L), for L the
column space of the stacked rows; strict_feasibility asks member_witness
and needs no elimination.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd
from operator import mul
from random import Random
from typing import Optional, Sequence

from .errors import DimensionError, InternalCheckError
from .rational import (
    RationalMatrix, RationalSubspace, integer_nullspace, integer_rows, maximal_minors, orth_complement, rref,
)
from .signs import SignVector, SignVectorSet, bit_columns, conformal_cover, set_perp, sign_of_vector

__all__ = [
    "SubspaceSignReport",
    "DualityCheck",
    "sign_vectors",
    "member_witness",
    "strict_feasibility",
    "verify_duality",
    "same_sign_dim_check",
    "random_subspace",
]


@dataclass(frozen=True)
class SubspaceSignReport:
    """sign(L), with one integer witness per sign vector built on first read.

    `sign_vectors` finds the signs alone and keeps the cover index it
    found them from. witnesses[s], in canonical order, is the coefficient
    vector x (in terms of the basis columns) that `_cover` finds for s,
    scaled so that (x, basis . x) is a primitive integer vector.
    """

    subspace: RationalSubspace
    signs: SignVectorSet
    # the index determines nothing that subspace does not: left out of ==
    _index: "_CoverIndex" = field(repr=False, compare=False)

    def __post_init__(self):
        if len(self.signs) % 2 != 1:
            raise InternalCheckError("sign set has even cardinality")
        if not self.signs.contains_zero():
            raise InternalCheckError("sign set misses the zero vector")
        if not self.signs.is_negation_closed():
            raise InternalCheckError("sign set is not closed under negation")

    @cached_property
    def witnesses(self) -> dict[SignVector, tuple[int, ...]]:
        index = self._index
        witnesses = {}
        for s in self.signs:
            found = _cover(index, s.pos, s.neg)
            if found is None:
                raise InternalCheckError("a sign vector of the cover has no conformal cover")
            # (D x, D B x) is an integer point on the ray of (x, B x)
            witnesses[s] = _reduce_int_pair([index.scale * v for v in found[0]], found[1])[0]
        return witnesses

    def verify_witnesses(self) -> bool:
        """Recompute sign(B x) for every witness; exact, for tests."""
        basis = self.subspace.basis
        for sv, x in self.witnesses.items():
            image = basis.apply(x)
            if sign_of_vector(image) != sv:
                return False
        return True


def _reduce_int_pair(coeff: list[int], image: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    g = gcd(*coeff, *image)
    if g > 1:
        coeff = [v // g for v in coeff]
        image = [v // g for v in image]
    return tuple(coeff), tuple(image)


def _pack_signs(values: Sequence[int]) -> tuple[int, int]:
    pos = neg = 0
    for i, v in enumerate(values):
        if v > 0:
            pos |= 1 << i
        elif v < 0:
            neg |= 1 << i
    return pos, neg


class _CoverIndex:
    """What the conformal cover reads of a basis B: D, the lcm of its
    denominators; the rows of D B; and the cocircuits as (pos, neg), each
    next to its negation.

    The cocircuit of a (k-1)-set S of rows of full rank is e -> chi(S, e),
    for chi the maximal minors of D B; these are all the cocircuits. The
    integer coefficient of one, the primitive integer point (coeff,
    B coeff) on its ray, is the kernel of the rows of its first S, found on
    first use; `masks` is built on the first cover query. So a caller that
    reads only the signs builds neither and eliminates no block.
    """

    def __init__(self, basis: RationalMatrix):
        n, k = basis.rows, basis.cols
        scale, rows = integer_rows(basis.data)
        chi = maximal_minors(rows)
        found: dict[tuple[int, int], int] = {}  # signs -> the mask of the first S
        bits = [1 << e for e in range(n)]
        for block in combinations(bits, k - 1) if k else ():
            held = sum(block)
            pos = neg = 0
            above = (k - 1) & 1  # parity of the members of S above e: moving e past them
            for bit in bits:
                if held & bit:
                    above ^= 1
                elif value := chi[held | bit]:
                    if (value > 0) ^ above:
                        pos |= bit
                    else:
                        neg |= bit
            if (pos or neg) and (pos, neg) not in found:
                found[(pos, neg)] = found[(neg, pos)] = held
        self.dim, self.scale, self.rows = k, scale, rows
        self.cocircuits, self._blocks = tuple(found), tuple(found.values())
        self._coefficients: list[Optional[tuple[int, ...]]] = [None] * len(found)

    def coefficient(self, g: int) -> tuple[int, ...]:
        """The integer coefficient of cocircuit g; that of g ^ 1, its
        negation, comes with it."""
        if self._coefficients[g] is None:
            block = [row for i, row in enumerate(self.rows) if self._blocks[g] >> i & 1]
            (c,) = integer_nullspace(block, self.dim)
            image = [sum(map(mul, row, c)) for row in self.rows]
            # (D c, D B c) is an integer point on the ray of (c, B c)
            coeff, image = _reduce_int_pair([self.scale * v for v in c], image)
            key = _pack_signs(image)
            if key == self.cocircuits[g ^ 1]:
                coeff = tuple(-v for v in coeff)
            elif key != self.cocircuits[g]:
                raise InternalCheckError("a block's kernel does not have the signs of its minors")
            self._coefficients[g], self._coefficients[g ^ 1] = coeff, tuple(-v for v in coeff)
        return self._coefficients[g]

    @cached_property
    def masks(self) -> tuple[tuple[int, int, int], ...]:
        """Per coordinate, bitmasks over the cocircuits that a sign vector
        with +, - and 0 there may use: those not - there, not + there, and
        0 there."""
        n = len(self.rows)
        every = (1 << len(self.cocircuits)) - 1
        columns = bit_columns(2 * n, [p | q << n for p, q in self.cocircuits])
        return tuple((every ^ q, every ^ p, every ^ (p | q)) for p, q in zip(columns[:n], columns[n:]))


# bases whose cover index member_witness keeps: realize_corank2 asks one
# complement once per column, and the witness benchmark cycles 19 bases
_cached_index = lru_cache(maxsize=32)(_CoverIndex)


def _cover(index: _CoverIndex, pos: int, neg: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(x, D B x) for the sign vector X = (pos, neg), or None when X is not
    in sign(L).

    The cocircuits conformal to X are the AND of one mask per coordinate.
    Each agrees with X wherever it is nonzero, so when their supports cover
    supp(X) the sum x of their coefficients has sign(B x) = X (Bjorner,
    Las Vergnas, Sturmfels, White & Ziegler, Oriented Matroids, 3.7), and
    otherwise X is not in sign(L). x is made primitive and sign(D B x),
    which is sign(B x), is re-checked in integers.
    """
    cocircuits = index.cocircuits
    conformal = (1 << len(cocircuits)) - 1
    for i, (plus, minus, zero) in enumerate(index.masks):
        conformal &= plus if pos >> i & 1 else minus if neg >> i & 1 else zero
    chosen = []
    covered = 0
    while conformal:
        low = conformal & -conformal
        conformal ^= low
        g = low.bit_length() - 1
        p, q = cocircuits[g]
        covered |= p | q
        chosen.append(g)
    if covered != pos | neg:
        return None
    # read only now: a coefficient's first use costs an elimination
    x = [sum(column) for column in zip([0] * index.dim, *map(index.coefficient, chosen))]
    g = gcd(*x)
    if g > 1:
        x = [v // g for v in x]
    image = tuple(sum(map(mul, row, x)) for row in index.rows)
    if _pack_signs(image) != (pos, neg):
        raise InternalCheckError("conformal cover does not realize the requested signs")
    return tuple(x), image


def sign_vectors(subspace: RationalSubspace) -> SubspaceSignReport:
    """The exact set {sign(v) : v in L}, as the conformal cover of its
    cocircuits; each vector's integer witness is built when the report's
    `witnesses` is first read."""
    index = _CoverIndex(subspace.basis)
    signs = conformal_cover(subspace.ambient_dim, index.cocircuits)
    return SubspaceSignReport(subspace, signs, index)


def member_witness(
    subspace: RationalSubspace, s: SignVector
) -> Optional[tuple[Fraction, ...]]:
    """A rational x with sign(B x) = s, or None when s is not in sign(L):
    the primitive integer x that `_cover` finds, from the basis's cached
    index."""
    if s.n != subspace.ambient_dim:
        raise DimensionError(
            f"sign vector of length {s.n} against ambient dimension {subspace.ambient_dim}"
        )
    found = _cover(_cached_index(subspace.basis), s.pos, s.neg)
    return None if found is None else tuple(Fraction(v) for v in found[0])


def strict_feasibility(
    equalities: Sequence[Sequence], positives: Sequence[Sequence]
) -> Optional[tuple[Fraction, ...]]:
    """Exact homogeneous strict feasibility.

    Finds a rational x with a.x = 0 for every equality row and a.x >= 1 for
    every positive row, or returns None when no such x exists. The pivot
    columns of M = [equalities; positives] are a basis of its column space
    L; member_witness looks for the 0/+ sign vector in sign(L), and its
    witness, placed on those columns and scaled so that the least positive
    row value is 1, is x.
    """
    equalities, positives = list(equalities), list(positives)
    matrix = RationalMatrix(equalities + positives)  # DimensionError on ragged rows
    if not positives:
        return (Fraction(0),) * matrix.cols
    _, pivots = rref(matrix)
    basis = RationalMatrix([[row[j] for j in pivots] for row in matrix.data])
    space = RationalSubspace(matrix.rows, basis)
    mask = (1 << matrix.rows) - (1 << len(equalities))
    y = member_witness(space, SignVector(matrix.rows, mask, 0))
    if y is None:
        return None
    x = [Fraction(0)] * matrix.cols
    for j, v in zip(pivots, y):
        x[j] = v
    least = min(matrix.apply(x)[len(equalities) :])
    return tuple(v / least for v in x)


@dataclass(frozen=True)
class DualityCheck:
    """Outcome of comparing sign(L^perp) with sign(L)^perp."""

    ok: bool
    complement_only: tuple[SignVector, ...]
    perp_only: tuple[SignVector, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_duality(subspace: RationalSubspace) -> DualityCheck:
    """Check sign(L^perp) = sign(L)^perp by computing both sides exactly.

    The identity always holds, so a failure points at the implementation;
    the discrepancy report says which side holds the extra vectors.
    """
    complement_signs = sign_vectors(orth_complement(subspace)).signs
    perp_signs = set_perp(sign_vectors(subspace).signs)
    return DualityCheck(
        ok=complement_signs == perp_signs,
        complement_only=complement_signs.difference(perp_signs),
        perp_only=perp_signs.difference(complement_signs),
    )


def same_sign_dim_check(first: RationalSubspace, second: RationalSubspace) -> bool:
    """Whether the two sign sets coincide; equal sign sets force equal dims."""
    if first.ambient_dim != second.ambient_dim:
        raise DimensionError("subspaces live in different ambient dimensions")
    equal = sign_vectors(first).signs == sign_vectors(second).signs
    if equal and first.dim != second.dim:
        raise InternalCheckError("equal sign sets with different dimensions")
    return equal


def random_subspace(n: int, k: int, rng: Random) -> RationalSubspace:
    """Seeded random k-dimensional rational subspace of Q^n.

    Basis entries are uniform over {-5..5}/{1,2,3}; rank-deficient draws
    are rejected, so the result always has dimension exactly k.
    """
    if not 0 <= k <= n:
        raise DimensionError(f"cannot take a {k}-dimensional subspace of Q^{n}")
    while True:
        cols = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(k)
        ]
        matrix = RationalMatrix.from_columns(cols, rows=n)
        try:
            return RationalSubspace(n, matrix)
        except DimensionError:
            continue
