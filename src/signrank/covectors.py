"""Sign vectors of rational subspaces.

For a subspace L given by a basis matrix B (columns spanning L), sign(L)
is enumerated exactly, in integers. B is scaled by the lcm D of its
denominators, which changes no sign and no ray. The cocircuits, the
minimal-support sign vectors, come from the (k-1)-row submatrices: the
signed maximal minors of such a (k-1) x k block of D B, computed by
Bareiss elimination, span its null space. The full set is the closure of
the cocircuits under sign-vector composition (u then v fills the zeros of
u with v), since every covector is a composition of cocircuits. The
closure works breadth first; for each zero set z of a vector u it caches
the distinct nonzero restrictions of the generators to z, so u is
composed only with generators that give something new.

Every enumerated sign vector carries an exact integer witness x with
sign(Bx) equal to it, chosen so that (x, Bx) is a primitive integer
vector. Witnesses are built along the same closure by adding a positive
step of the generator, chosen by cross-multiplication so that every
nonzero coordinate keeps its sign; no feasibility solve is needed per
vector.

Membership queries go the other way: member_witness reduces sign(Bx) = s
to an exact strict-feasibility system, independently of the enumeration.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from random import Random
from typing import Optional, Sequence

from .errors import DimensionError, InternalCheckError
from .rational import (
    RationalMatrix,
    RationalSubspace,
    integer_determinant,
    orth_complement,
    strict_feasibility,
)
from .signs import SignVector, SignVectorSet, set_perp, sign_of_vector

__all__ = [
    "SubspaceSignReport",
    "DualityCheck",
    "sign_vectors",
    "member_witness",
    "verify_duality",
    "same_sign_dim_check",
    "random_subspace",
]


@dataclass(frozen=True)
class SubspaceSignReport:
    """sign(L) together with one integer witness per sign vector.

    witnesses[s] is a coefficient vector x (in terms of the basis columns)
    with sign(basis . x) = s, scaled to primitive integers.
    """

    subspace: RationalSubspace
    signs: SignVectorSet
    witnesses: dict[SignVector, tuple[int, ...]]

    def __post_init__(self):
        if len(self.signs) % 2 != 1:
            raise InternalCheckError("sign set has even cardinality")
        if not self.signs.contains_zero():
            raise InternalCheckError("sign set misses the zero vector")
        if not self.signs.is_negation_closed():
            raise InternalCheckError("sign set is not closed under negation")
        if len(self.witnesses) != len(self.signs) or not all(s in self.signs for s in self.witnesses):
            raise InternalCheckError("witness map does not cover the sign set")

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


def _cocircuit_candidates(basis: RationalMatrix) -> list[tuple[int, int, tuple, tuple]]:
    """Sign vectors of B c for c spanning null spaces of (k-1)-row submatrices.

    c is the vector of signed maximal minors of the (k-1) x k block of the
    integer matrix D B, where D is the lcm of B's denominators. Covers every
    minimal-support nonzero sign vector of the column span; extra
    non-minimal hits are harmless for the closure.
    """
    n, k = basis.rows, basis.cols
    scale = lcm(*(e.denominator for row in basis.data for e in row))
    rows = [tuple(e.numerator * (scale // e.denominator) for e in row) for row in basis.data]
    found: dict[tuple[int, int], tuple[tuple, tuple]] = {}
    for subset in combinations(range(n), k - 1):
        sub = [rows[i] for i in subset]
        minors = [
            (-1) ** j * integer_determinant([row[:j] + row[j + 1 :] for row in sub])
            for j in range(k)
        ]
        if not any(minors):
            continue  # dependent rows; the line is covered by a smaller independent subset
        # (D c, D B c) is an integer point on the ray of (c, B c)
        coeff, img = _reduce_int_pair(
            [scale * c for c in minors],
            [sum(a * b for a, b in zip(row, minors)) for row in rows],
        )
        key = _pack_signs(img)
        if key not in found:
            found[key] = (coeff, img)
            found[(key[1], key[0])] = (
                tuple(-v for v in coeff),
                tuple(-v for v in img),
            )
    return [(p, q, c, v) for (p, q), (c, v) in found.items()]


def _compose_witness(
    u_coeff: tuple, u_img: tuple, g_coeff: tuple, g_img: tuple
) -> tuple[tuple, tuple]:
    """Integer witness for the composition: u plus a small positive step of g.

    The step a/b = min |u_i| / (2 |g_i|) over the common support keeps every
    nonzero coordinate of u's sign while zeros of u take g's sign; the
    minimum is found by cross-multiplication and the result is reduced to
    the primitive integer point, so a/b need not be in lowest terms.
    """
    a, b = 0, 1
    for ui, gi in zip(u_img, g_img):
        if ui and gi:
            num = ui if ui > 0 else -ui
            den = 2 * gi if gi > 0 else -2 * gi
            if not a or num * b < a * den:
                a, b = num, den
    if not a:
        a = 1
    coeff = [b * u + a * g for u, g in zip(u_coeff, g_coeff)]
    image = [b * u + a * g for u, g in zip(u_img, g_img)]
    return _reduce_int_pair(coeff, image)


def sign_vectors(subspace: RationalSubspace) -> SubspaceSignReport:
    """The exact set {sign(v) : v in L}, each vector with an integer witness."""
    n = subspace.ambient_dim
    k = subspace.dim
    zero_key = (0, 0)
    zero_witness = (tuple(0 for _ in range(k)), tuple(0 for _ in range(n)))
    known: dict[tuple[int, int], tuple[tuple, tuple]] = {zero_key: zero_witness}
    if k > 0:
        gens = _cocircuit_candidates(subspace.basis)
        # deterministic order: canonical order of the packed sign vectors
        gens.sort(key=lambda g: SignVector(n, g[0], g[1]).sort_key())
        # the candidates are distinct and nonzero, so each seeds the queue
        known.update(((p, q), (coeff, img)) for p, q, coeff, img in gens)
        queue = deque((p, q) for p, q, _, _ in gens)
        full = (1 << n) - 1
        # zero set of u -> generators whose restrictions to it are distinct
        # and nonzero, each the first in generator order; composing u with any
        # other generator gives u itself or a vector the first one already gave
        restrictions: dict[int, list] = {}
        while queue:
            u = queue.popleft()
            up, uq = u
            u_coeff, u_img = known[u]
            zeros = full & ~(up | uq)
            moves = restrictions.get(zeros)
            if moves is None:
                moves = []
                seen = set()
                for g in gens:
                    r = (g[0] & zeros, g[1] & zeros)
                    if r != zero_key and r not in seen:
                        seen.add(r)
                        moves.append(g)
                restrictions[zeros] = moves
            for gp, gq, g_coeff, g_img in moves:
                w = (up | (gp & zeros), uq | (gq & zeros))
                if w in known:
                    continue
                known[w] = _compose_witness(u_coeff, u_img, g_coeff, g_img)
                queue.append(w)

    witnesses = {}
    for (p, q), (coeff, img) in known.items():
        if _pack_signs(img) != (p, q):
            raise InternalCheckError("witness image does not match its sign vector")
        witnesses[SignVector(n, p, q)] = coeff
    return SubspaceSignReport(subspace, SignVectorSet(n, witnesses.keys()), witnesses)


def member_witness(
    subspace: RationalSubspace, s: SignVector
) -> Optional[tuple[Fraction, ...]]:
    """A rational x with sign(B x) = s, or None when s is not in sign(L)."""
    if s.n != subspace.ambient_dim:
        raise DimensionError(
            f"sign vector of length {s.n} against ambient dimension {subspace.ambient_dim}"
        )
    basis = subspace.basis
    equalities = []
    positives = []
    for i in range(subspace.ambient_dim):
        row = basis.row(i)
        sign = s[i]
        if sign == 0:
            equalities.append(row)
        elif sign > 0:
            positives.append(row)
        else:
            positives.append(tuple(-e for e in row))
    if subspace.dim == 0:
        return () if s.is_zero() else None
    x = strict_feasibility(equalities, positives)
    if x is None:
        return None
    image = basis.apply(x)
    if sign_of_vector(image) != s:
        raise InternalCheckError("feasible point does not realize the requested signs")
    return x


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
