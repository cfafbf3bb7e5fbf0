"""Sign vectors of rational subspaces.

For a subspace L given by a basis matrix B (columns spanning L), sign(L)
is enumerated exactly, in integers. B is scaled by the lcm D of its
denominators, which changes no sign and no ray. The cocircuits, the
minimal-support sign vectors, come from the (k-1)-row submatrices: the
signed maximal minors of such a (k-1) x k block of D B, computed by
Bareiss elimination, span its null space. The full set is the closure of
the cocircuits under sign-vector composition (u then v fills the zeros of
u with v), since every covector is a composition of cocircuits (Bjorner,
Las Vergnas, Sturmfels, White & Ziegler, Oriented Matroids, 3.7).

The closure is sign-only. It works breadth first over packed (pos, neg)
masks and canonical indices (`SignVector.sort_key`): base-3 digits on
disjoint supports add, so the index of u then g is the index of u plus
that of g restricted to the zeros of u. For each zero set z it caches the
distinct nonzero restrictions of the generators to z, so u is composed
only with generators that give something new. Each new vector records
only the vector and the generator that first reached it, and the indices
go straight into a bits-backed SignVectorSet.

Witnesses are replayed on first read. `SubspaceSignReport.witnesses`
walks that record in closure order and gives every sign vector an exact
integer witness x with sign(Bx) equal to it, chosen so that (x, Bx) is a
primitive integer vector: the parent's witness plus a positive step of
the generator, chosen by cross-multiplication so that every nonzero
coordinate keeps its sign. No feasibility solve is needed per vector,
and a caller that reads only signs or sizes does no witness arithmetic.

Membership queries need no closure. A nonzero X is in sign(L) exactly
when the cocircuits conformal to X (each nonzero coordinate of one agrees
with X) cover supp(X), since every covector is a conformal composition of
cocircuits (Bjorner et al. 3.7); the sum of their integer witnesses then
has image signs X. member_witness reads the cocircuits of a basis from a
small cache, so repeated queries against one subspace build them once.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
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
    # not called: bench/workloads.py traces it, tests/test_imports.py pins it
    strict_feasibility,
)
from .signs import SignVector, SignVectorSet, canonical_index, set_perp, sign_of_vector

__all__ = [
    "SubspaceSignReport",
    "DualityCheck",
    "sign_vectors",
    "member_witness",
    "verify_duality",
    "same_sign_dim_check",
    "random_subspace",
]

# sign(L) is kept as 3^n bits over the canonical index while that costs at
# most this many bits per member, well under the hundred-odd bytes of
# objects a member of a vector-backed set costs; a sparser set (a line in a
# long ambient space, say) stays vector-backed and never allocates 3^n bits.
_BITS_PER_MEMBER = 256

# bases whose cocircuits member_witness keeps: realize_corank2 asks one
# complement once per column, and the witness benchmark cycles 19 bases
_COCIRCUIT_CACHE_SIZE = 32


@dataclass(frozen=True)
class SubspaceSignReport:
    """sign(L), with one integer witness per sign vector built on first read.

    `sign_vectors` closes over signs alone and records how it reached each
    vector. `witnesses` replays the witness steps along that record the
    first time it is read and keeps the result: witnesses[s] is a
    coefficient vector x (in terms of the basis columns) with
    sign(basis . x) = s, scaled to primitive integers, in closure order.
    """

    subspace: RationalSubspace
    signs: SignVectorSet
    # the record: (coeff, image) of each generator, and (pos, neg, canonical
    # index, parent, generator) of each nonzero vector in the order the
    # closure reached it; parent indexes the steps, -1 for a generator itself
    _generators: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = field(repr=False)
    _steps: tuple[tuple[int, int, int, int, int], ...] = field(repr=False)

    def __post_init__(self):
        if len(self.signs) % 2 != 1:
            raise InternalCheckError("sign set has even cardinality")
        if not self.signs.contains_zero():
            raise InternalCheckError("sign set misses the zero vector")
        if not self.signs.is_negation_closed():
            raise InternalCheckError("sign set is not closed under negation")

    @cached_property
    def witnesses(self) -> dict[SignVector, tuple[int, ...]]:
        n, k = self.subspace.ambient_dim, self.subspace.dim
        witnesses = {SignVector.zero(n): (0,) * k}
        built = []
        for p, q, _, parent, gen in self._steps:
            coeff, img = self._generators[gen]
            if parent >= 0:
                coeff, img = _compose_witness(*built[parent], coeff, img)
            built.append((coeff, img))
            if _pack_signs(img) != (p, q):
                raise InternalCheckError("witness image does not match its sign vector")
            witnesses[SignVector(n, p, q)] = coeff
        if len(witnesses) != len(self.signs) or not all(s in self.signs for s in witnesses):
            raise InternalCheckError("witness map does not cover the sign set")
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


def _cocircuit_candidates(basis: RationalMatrix) -> tuple[tuple[int, int, tuple, tuple], ...]:
    """Sign vectors of B c for c spanning null spaces of (k-1)-row submatrices.

    c is the vector of signed maximal minors of the (k-1) x k block of the
    integer matrix D B, where D is the lcm of B's denominators. Covers every
    minimal-support nonzero sign vector of the column span; extra
    non-minimal hits are covectors too, so harmless for the closure and
    for the conformal cover.
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
    return tuple((p, q, c, v) for (p, q), (c, v) in found.items())


_cached_cocircuits = lru_cache(maxsize=_COCIRCUIT_CACHE_SIZE)(_cocircuit_candidates)


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
    """The exact set {sign(v) : v in L}; each vector's integer witness is
    built when the report's `witnesses` is first read."""
    n = subspace.ambient_dim
    gens = []
    if subspace.dim > 0:
        # deterministic order: canonical order of the packed sign vectors
        gens = sorted(
            (canonical_index(n, p, q), p, q, coeff, img)
            for p, q, coeff, img in _cocircuit_candidates(subspace.basis)
        )
    # the candidates are distinct and nonzero, so each seeds the queue; the
    # queue is the record itself, read in order while it grows
    steps = [(p, q, key, -1, j) for j, (key, p, q, _, _) in enumerate(gens)]
    seen = {0}
    seen.update(key for key, *_ in gens)
    full = (1 << n) - 1
    # zero set of u -> restrictions of the generators to it that are distinct
    # and nonzero, each from the first generator in order that gives it;
    # composing u with any other generator gives u itself or a vector the
    # first one already gave
    restrictions: dict[int, list] = {}
    for i, (up, uq, ukey, _, _) in enumerate(steps):
        zeros = full & ~(up | uq)
        moves = restrictions.get(zeros)
        if moves is None:
            moves = []
            found = set()
            for j, (_, gp, gq, _, _) in enumerate(gens):
                rp, rq = gp & zeros, gq & zeros
                if (rp or rq) and (rp, rq) not in found:
                    found.add((rp, rq))
                    moves.append((rp, rq, canonical_index(n, rp, rq), j))
            restrictions[zeros] = moves
        for rp, rq, rkey, j in moves:
            # base-3 digits on disjoint supports add: key(u o g) = key(u) + key(r)
            wkey = ukey + rkey
            if wkey not in seen:
                seen.add(wkey)
                steps.append((up | rp, uq | rq, wkey, i, j))

    if 3**n <= _BITS_PER_MEMBER * len(seen):
        signs = SignVectorSet.from_indices(n, seen)
    else:
        signs = SignVectorSet(n, [SignVector.zero(n)] + [SignVector(n, p, q) for p, q, *_ in steps])
    return SubspaceSignReport(
        subspace,
        signs,
        tuple((coeff, img) for *_, coeff, img in gens),
        tuple(steps),
    )


def member_witness(
    subspace: RationalSubspace, s: SignVector
) -> Optional[tuple[Fraction, ...]]:
    """A rational x with sign(B x) = s, or None when s is not in sign(L).

    x is the primitive integer sum of the witnesses of the cocircuits
    conformal to s: each image agrees with s wherever it is nonzero, so
    the sum has s's signs on the union of their supports.
    """
    if s.n != subspace.ambient_dim:
        raise DimensionError(
            f"sign vector of length {s.n} against ambient dimension {subspace.ambient_dim}"
        )
    k = subspace.dim
    if k == 0:
        return () if s.is_zero() else None
    if s.is_zero():
        return tuple(Fraction(0) for _ in range(k))
    pos, neg = s.pos, s.neg
    covered = 0
    total = [0] * k
    for p, q, coeff, _ in _cached_cocircuits(subspace.basis):
        if p & ~pos or q & ~neg:
            continue
        covered |= p | q
        total = [a + b for a, b in zip(total, coeff)]
    if covered != pos | neg:
        return None
    g = gcd(*total)
    x = tuple(Fraction(v // g) for v in total)
    if sign_of_vector(subspace.basis.apply(x)) != s:
        raise InternalCheckError("conformal cover does not realize the requested signs")
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
