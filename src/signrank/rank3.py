"""Rank-3 chirotopes: minimum rank at most 3, or at most d-3.

A real matrix M with d columns and rank at most 3 has its rows in the row
space of some 3 x d matrix V of rank 3; one of rank at most d-3 has them
in the kernel of such a V. The signs chi(a, b, c) = sign det(V_a, V_b, V_c)
of the 3 x 3 minors of V form a chirotope: alternating, with the bases of
a matroid as support, and satisfying the 3-term Grassmann-Pluecker
relations (Bjoerner, Las Vergnas, Sturmfels, White & Ziegler, Oriented
Matroids, 1993, Thm 3.6.2). So the two questions become searches over
sign assignments to the C(d, 3) triples:

* cov (mr <= 3): every row is a covector of chi, that is, orthogonal to
  the Cramer vector C(x_i) = (-1)^i chi(S - x_i) of every 4-set
  S = {x_0 < x_1 < x_2 < x_3}, which lies in the kernel of V;
* vec (mr <= d-3): every row is a vector of chi, that is, orthogonal to
  the cocircuit e -> chi(a, b, e) of every pair a < b, the signs of the
  linear form (V_a x V_b) . V_e.

The search backtracks over the triples, trying +, - and 0 in that order,
with the first nonzero value pinned to + (-chi has the same covectors
and vectors). A relation is checked as soon as its last triple is set: a
3-term relation fails when its three products hold exactly one of + and
-, and an orthogonality check fails when the row's nonzero products with
a circuit or cocircuit are all of one sign. cov walks the triples in
colex order, so 4-sets complete early; vec walks them in lex order, so
the triples of each pair come together.

Soundness needs no theorem. Every real V passes every check, so an
exhausted search proves that the minimum rank exceeds the bound. A hit
counts only once it is realized. Integer points V_j are placed one at a
time with the hit's signs: a basis triple at e1, e2, +-e3, then each
further point inside its cell, the cone that the signs against the
points already placed cut out of the span the zero signs force. The
extreme rays of the cell are exact integer vectors, so an empty cell is
detected, not sampled; the point is the cell's centre, or failing later
points a point between the centre and one ray, rounded to the coarsest
grid from [-6, 6]^3 that keeps it inside. Each row's factor comes from
member_witness on the row space of V (cov) or its orthogonal complement
(vec), and the product A = U V is re-checked with sign_of and rank. A
hit that cannot be placed leaves the search inconclusive, never
exhausted. Each call has one Deadline, shared by search and placement.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, gcd
from operator import itemgetter, mul
from typing import Iterator, Optional

from .covectors import member_witness
from .errors import Deadline, DimensionError, InternalCheckError
from .rational import RationalMatrix, RationalSubspace, integer_rows, orth_complement, rank
from .signs import SignPattern, sign_of

__all__ = ["COV", "VEC", "Rank3Result", "rank3_search"]

COV = "cov"
VEC = "vec"

# the coarsest grid, [-_GRID, _GRID]^3, that a cell's centre is rounded to
_GRID = 6
# hits that pass every check but cannot be placed before the search gives up
_UNPLACED_LIMIT = 8
# candidate points one placement tests before it gives up on a hit
_PLACEMENT_TESTS = 20_000


@dataclass(frozen=True)
class Rank3Result:
    """Outcome of one rank-3 search.

    realization is a re-verified matrix with the pattern's signs and rank
    at most 3 (cov) or d-3 (vec), or None. unplaced counts the hits that
    passed every check but could not be placed; the search is exhausted
    only when it found neither. An exhausted result is the certificate
    that the minimum rank exceeds 3 (cov) or d-3 (vec), and nodes counts
    the assignments the search visited. It is not independently
    checkable: only a rerun of the search re-verifies it.
    """

    question: str
    nodes: int
    realization: Optional[RationalMatrix]
    unplaced: int

    @property
    def exhausted(self) -> bool:
        return self.realization is None and not self.unplaced


def _triple_sign(a: int, b: int, c: int) -> tuple[tuple[int, int, int], int]:
    """The sorted triple and the sign of the permutation that sorts a, b, c."""
    sign = 1
    if a > b:
        a, b, sign = b, a, -sign
    if b > c:
        b, c, sign = c, b, -sign
        if a > b:
            a, b, sign = b, a, -sign
    return (a, b, c), sign


@lru_cache(maxsize=16)
def _walk(d: int, question: str):
    """The triples in walk order, the position of each, and the blocks as
    (first position, top): the checks of a block are those on the element
    sets whose largest element is top (every set when top is None), and
    the search builds them when it first reaches the block. In colex
    order the triples inside range(c + 1) come first, so every check on a
    set with largest element c is complete once the triples containing c
    are set, and cov takes one block per c; an early exhaustion then
    builds few checks."""
    triples = list(combinations(range(d), 3))
    if question == COV:
        triples.sort(key=lambda t: t[::-1])
        blocks = tuple((comb(c, 3), c) for c in range(2, d))
    else:
        blocks = ((0, None),)
    return tuple(triples), {t: p for p, t in enumerate(triples)}, blocks


def _sets(d: int, top: Optional[int], size: int) -> Iterator[tuple]:
    """The subsets of range(d) of this size whose largest element is top,
    or all of them when top is None."""
    if top is None:
        return combinations(range(d), size)
    return (s + (top,) for s in combinations(range(top), size - 1))


@lru_cache(maxsize=64)
def _relations(d: int, question: str, top: Optional[int]) -> tuple:
    """The 3-term relations of a block as (position they complete at,
    check tuple): one for each element a of a 5-set and the other four
    x1 < x2 < x3 < x4."""
    position = _walk(d, question)[1]
    relations = []
    for five in _sets(d, top, 5):
        for a in five:
            x1, x2, x3, x4 = (x for x in five if x != a)
            # chi(a,x1,x2) chi(a,x3,x4) - chi(a,x1,x3) chi(a,x2,x4) + chi(a,x1,x4) chi(a,x2,x3)
            check = []
            for sign, (u, v), (w, z) in (
                (1, (x1, x2), (x3, x4)),
                (-1, (x1, x3), (x2, x4)),
                (1, (x1, x4), (x2, x3)),
            ):
                t, s = _triple_sign(a, u, v)
                t2, s2 = _triple_sign(a, w, z)
                check += [sign * s * s2, position[t], position[t2]]
            relations.append((max(check[1::3] + check[2::3]), tuple(check)))
    return tuple(relations)


def _orthogonality_checks(
    rows: set, d: int, question: str, position: dict, top: Optional[int]
) -> list:
    """Each row against each circuit (cov) or cocircuit (vec) of a block,
    as (position, terms): terms are (coefficient, position) pairs whose
    products coefficient * chi must not all share one sign. Only the
    triples on the row's support matter, so a check completes at the last
    of those. Rows that agree, up to sign, where a circuit or cocircuit
    can be nonzero give one check."""
    groups = []
    if question == COV:
        # C(x_i) = (-1)^i chi(S - x_i) on each 4-set S
        for subset in _sets(d, top, 4):
            places = [position[subset[:i] + subset[i + 1 :]] for i in range(4)]
            groups.append((subset, (1, -1, 1, -1), places))
    else:
        # the cocircuit of a, b is e -> chi(a, b, e)
        for a, b in _sets(d, top, 2):
            others = tuple(e for e in range(d) if e != a and e != b)
            signed = [_triple_sign(a, b, e) for e in others]
            groups.append((others, [s for _, s in signed], [position[t] for t, _ in signed]))
    checks = []
    for coords, signs, places in groups:
        # itemgetter of one index returns the entry itself, not a 1-tuple
        restrict = itemgetter(*coords) if len(coords) > 1 else lambda row: (row[coords[0]],)
        seen = set()
        for row in rows:
            key = restrict(row)
            if key in seen or not any(key):
                continue
            seen.add(key)
            seen.add(tuple(-v for v in key))
            terms = [(s * v, p) for s, v, p in zip(signs, key, places) if v]
            checks.append((max(p for _, p in terms), terms))
    return checks


def _chirotopes(
    pattern: SignPattern, question: str, deadline: Deadline, nodes: list
) -> Iterator[dict]:
    """Every sign assignment to the triples that passes every check, with a
    nonzero value and the first nonzero value +, in search order, as a map
    from sorted triple to sign. nodes[0] counts the values tried."""
    d = pattern.cols
    triples, position, blocks = _walk(d, question)
    rows = {tuple(r) for r in pattern.row_vectors}
    size = len(triples)
    gp = [[] for _ in range(size)]
    orth = [[] for _ in range(size)]
    built = 0
    val = [0] * size
    choice = [-1] * size
    lead = size  # position of the first nonzero value, size while there is none
    count = nodes[0]
    spend, every = deadline.spend, Deadline.READ_EVERY
    p = 0
    while p >= 0:
        if built < len(blocks) and p == blocks[built][0]:
            spend(every)  # always reads: building a block's checks can take long
            start, top = blocks[built]
            built += 1
            # a check that completes before the block's start waits for it
            for q, check in _relations(d, question, top):
                gp[max(q, start)].append(check)
            for q, terms in _orthogonality_checks(rows, d, question, position, top):
                orth[max(q, start)].append(terms)
        c = choice[p] + 1
        if c == (3 if lead < p else 2):
            choice[p] = -1
            val[p] = 0
            p -= 1
            continue
        choice[p] = c
        v = (1, -1, 0)[c] if lead < p else (1, 0)[c]
        val[p] = v
        if lead >= p:
            lead = p if v else size
        count += 1
        if not count % every:  # spent in batches: a call per node costs a sixth of a node
            spend(every)
        failed = False
        for s1, i1, j1, s2, i2, j2, s3, i3, j3 in gp[p]:
            t1 = s1 * val[i1] * val[j1]
            t2 = s2 * val[i2] * val[j2]
            t3 = s3 * val[i3] * val[j3]
            if (t1 > 0 or t2 > 0 or t3 > 0) != (t1 < 0 or t2 < 0 or t3 < 0):
                failed = True
                break
        if not failed:
            for terms in orth[p]:
                agree = oppose = False
                for coef, q in terms:
                    t = coef * val[q]
                    if t > 0:
                        agree = True
                    elif t < 0:
                        oppose = True
                if agree != oppose:
                    failed = True
                    break
        if failed:
            continue
        if p + 1 < size:
            p += 1
        elif lead < size:
            nodes[0] = count
            yield {t: val[position[t]] for t in triples}
    nodes[0] = count


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


class _Placement:
    """The candidate points one placement has tested, against its cap; each
    is spent from the call's deadline."""

    def __init__(self, deadline: Deadline):
        self.deadline = deadline
        self.tests = 0

    def tick(self) -> bool:
        """Count one test; False once the cap is reached."""
        self.tests += 1
        self.deadline.spend(1)
        return self.tests <= _PLACEMENT_TESTS


def _span_basis(normals: list) -> tuple:
    """Integer basis of the points orthogonal to every normal."""
    if not normals:
        return ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    first = normals[0]
    for n in normals[1:]:
        line = _cross(first, n)
        if any(line):
            if any(_dot(m, line) for m in normals):
                return ()
            return (_primitive(line),)
    u = next(c for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if any(c := _cross(first, e)))
    return (_primitive(u), _primitive(_cross(first, u)))


def _balanced_sum(rays: list) -> tuple:
    """A positive combination of the rays with each scaled to about the
    same largest coordinate, so that no ray dominates."""
    top = max(max(map(abs, r)) for r in rays)
    return _primitive(
        [sum(r[x] * (top // max(map(abs, r))) for r in rays) for x in range(len(rays[0]))]
    )


def _clip(rays: list, normal: tuple) -> list:
    """The cyclic rays of a pointed cone in R^3 cut by normal . x >= 0
    (one Sutherland-Hodgman pass, exact in integers)."""
    out = []
    values = [_dot(normal, r) for r in rays]
    for idx, (r, f) in enumerate(zip(rays, values)):
        s, g = rays[idx - len(rays) + 1], values[idx - len(rays) + 1]
        if f >= 0:
            out.append(r)
        if (f > 0 > g) or (f < 0 < g):
            out.append(_primitive([abs(f) * s[x] + abs(g) * r[x] for x in range(3)]))
    return out


def _cone_rays(normals: list) -> Optional[list]:
    """Rays whose positive combinations are the closure of the cone
    {x : o . x > 0 for every o in normals} in Z^3 or Z^2, when it is not
    empty; their balanced sum then lies inside it. None when it is empty."""
    if len(normals[0]) == 3:
        # the simplicial cone of three independent normals, cut by the rest;
        # the three pairs of the first basis triple always give three
        first = normals[0]
        second = next((n for n in normals if any(_cross(first, n))), None)
        line = _cross(first, second) if second else None
        third = next((n for n in normals if _dot(n, line)), None) if line else None
        if third is None:
            raise InternalCheckError("a 3-dimensional cell without three independent walls")
        corner = (first, second, third)
        rays = []
        for i in range(3):
            r = _cross(corner[(i + 1) % 3], corner[(i + 2) % 3])
            rays.append(r if _dot(corner[i], r) > 0 else tuple(-x for x in r))
        for normal in normals:
            rays = _clip(rays, normal)
            if not rays:
                return None
    else:
        # in the plane the extreme rays lie on the walls
        rays = []
        for o in normals:
            for r in ((-o[1], o[0]), (o[1], -o[0])):
                if all(n[0] * r[0] + n[1] * r[1] >= 0 for n in normals):
                    rays.append(r)
        if not rays:
            o = normals[0]  # parallel walls: a half-plane, or nothing
            rays = [(-o[1], o[0]), o, (o[1], -o[0])]
    if not all(sum(map(mul, o, _balanced_sum(rays))) > 0 for o in normals):
        return None
    return rays


def _rounded(direction: tuple) -> Iterator[tuple]:
    """The direction on the grid [-_GRID, _GRID]^dim, then on grids four
    times finer each, then the direction itself."""
    top = max(map(abs, direction))
    scale = _GRID
    while scale < top:
        point = tuple((2 * c * scale + top) // (2 * top) for c in direction)
        if any(point):
            yield point
        scale *= 4
    yield direction


def _candidates(placed: tuple, chi_of, k: int, placement: _Placement) -> Iterator[tuple]:
    """Integer points p with sign det(V_i, V_j, p) = chi(i, j, k) for every
    pair of placed points, inside the span that the zero signs force: the
    centre of that cell, then points between the centre and each extreme
    ray, each on the coarsest grid that keeps it inside."""
    zero, strict = [], []
    for (i, vi), (j, vj) in combinations(placed, 2):
        normal = _cross(vi, vj)
        sign = chi_of(i, j, k)
        if not any(normal):
            if sign:
                return  # V_i and V_j are parallel, so every such minor vanishes
        elif sign:
            strict.append(normal if sign > 0 else tuple(-x for x in normal))
        else:
            zero.append(normal)
    basis = _span_basis(zero)
    if not basis:
        if not strict:
            yield (0, 0, 0)
        return
    # the strict constraints in the coordinates of the basis
    local = [tuple(_dot(o, b) for b in basis) for o in strict]
    if len(basis) == 1:
        directions = [(1,), (-1,)]
    elif not local:
        directions = [tuple(int(i == j) for j in range(len(basis))) for i in range(len(basis))]
    else:
        rays = _cone_rays(local)
        if rays is None:
            return
        directions = [_balanced_sum(rays)] + [_balanced_sum(rays + [r] * len(rays)) for r in rays]
    for direction in directions:
        for coeffs in _rounded(direction):
            if not placement.tick():
                return
            if all(sum(map(mul, o, coeffs)) > 0 for o in local):
                yield tuple(sum(c * b[x] for c, b in zip(coeffs, basis)) for x in range(3))
                break


def _place(chi: dict, d: int, deadline: Deadline) -> Optional[list]:
    """Integer points V_0..V_{d-1} of Z^3 whose 3 x 3 determinants have the
    signs chi, or None when the bounded backtracking finds none. Each basis
    triple in turn anchors the frame e1, e2, +-e3 until one placement
    succeeds: a frame that leaves no room for a later point often has a
    neighbour that does."""

    def chi_of(i, j, k):
        t, s = _triple_sign(i, j, k)
        return s * chi[t]

    placement = _Placement(deadline)
    for base in sorted(chi):
        if not chi[base]:
            continue
        a, b, c = base
        placed = [(a, (1, 0, 0)), (b, (0, 1, 0)), (c, (0, 0, chi[base]))]
        rest = [k for k in range(d) if k not in base]
        pending = []  # the candidates of rest[0..level]; placed holds the base and rest[:level]
        level = 0
        while level < len(rest):
            if len(pending) == level:
                pending.append(_candidates(tuple(placed), chi_of, rest[level], placement))
            point = next(pending[level], None)
            if point is None:
                if placement.tests > _PLACEMENT_TESTS:
                    return None
                if level == 0:
                    break
                pending.pop()
                placed.pop()
                level -= 1
                continue
            placed.append((rest[level], point))
            level += 1
        else:
            points = [None] * d
            for j, point in placed:
                points[j] = point
            return points
    return None


def _factor(pattern: SignPattern, question: str, points: list) -> RationalMatrix:
    """A = U V with the pattern's signs: row i of U is the member_witness
    of row i of the pattern in the row space of V (cov) or its kernel
    (vec), whose basis B, scaled to the integer matrix D B, is V^T."""
    d = pattern.cols
    space = RationalSubspace(d, RationalMatrix(points, cols=3))
    bound = 3
    if question == VEC:
        space, bound = orth_complement(space), d - 3
    _, v_columns = integer_rows(space.basis.data)
    rows = []
    for row in pattern.row_vectors:
        x = member_witness(space, row)
        if x is None:
            raise InternalCheckError("a row that passed every check is not in the realized space")
        u = [int(e) for e in x]
        rows.append([sum(map(mul, column, u)) for column in v_columns])
    matrix = RationalMatrix(rows, cols=d)
    if sign_of(matrix) != pattern:
        raise InternalCheckError("rank-3 factorization has the wrong signs")
    if rank(matrix) > bound:
        raise InternalCheckError("rank-3 factorization exceeds its rank bound")
    return matrix


def rank3_search(
    pattern: SignPattern, question: str, budget_ms: int | None = None
) -> Rank3Result:
    """Search the rank-3 chirotopes on the pattern's columns for one that
    realizes the rows as covectors (question COV: minimum rank at most 3)
    or as vectors (question VEC: minimum rank at most cols-3).

    Returns the first hit that places, re-verified, or an exhausted or
    inconclusive result. One Deadline built from budget_ms raises
    BudgetExceededError once the budget has passed: it reads the clock at
    each block start and at least once per 1024 nodes or placement tests.
    """
    if question not in (COV, VEC):
        raise ValueError(f"unknown rank-3 question {question!r}")
    d = pattern.cols
    if d < 3:
        raise DimensionError("a rank-3 search needs at least 3 columns")
    deadline = Deadline(budget_ms)
    nodes = [0]
    unplaced = 0
    for chi in _chirotopes(pattern, question, deadline, nodes):
        points = _place(chi, d, deadline)
        if points is not None:
            return Rank3Result(question, nodes[0], _factor(pattern, question, points), unplaced)
        unplaced += 1
        if unplaced >= _UNPLACED_LIMIT:
            break
    return Rank3Result(question, nodes[0], None, unplaced)
