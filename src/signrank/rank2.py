"""Everything two-dimensional.

Three related pieces live here:

* the polynomial test for minimum rank exactly 2, via condensation plus a
  signature/column-order search for simultaneous row monotonicity;
* a constructive rational rank-2 realization for every certificate the
  test produces;
* the space of combinatorial types of 2-dimensional subspaces of R^n
  (zero coordinates, signed parallel classes of the inducing directions
  in slope order), each with a small integer representative subspace.
  The sign set of a type is read off a circular walk around the
  2-dimensional parameter plane: crossing the c class lines in slope
  order visits c sectors-plus-rays whose class-level signs are a
  +prefix/-suffix; expanding classes through their member orientations
  and closing under negation gives the full 4c+1 vectors.

The type space is walked in one canonical order by every consumer:
enumerate_rank2_types pairs each type with its representative,
type_sign_sets yields the sign sets alone, and find_plane_type is the
one search for a plane whose sign set is orthogonal to a list of sign
vectors. That search decides mr <= n-2 in minrank and supplies the plane
of the rank n-2 realization in realize; its first hit is the certificate.

Orientation canon: only the lowest-indexed nonzero coordinate is pinned
to +, which quotients exactly the global-negation symmetry (a basis and
its negation span the same subspace). Pinning one sign per class would
lose sign sets once three or more classes exist.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceededError, DimensionError, InternalCheckError
from .rational import RationalMatrix, RationalSubspace, rank
from .signs import (
    CondensationTrace,
    SignPattern,
    SignVector,
    SignVectorSet,
    condense_with_trace,
    sign_of,
)

__all__ = [
    "Rank2Type",
    "Mr2Certificate",
    "mr_le_2",
    "realize_rank2",
    "enumerate_rank2_types",
    "find_plane_type",
    "sign_set_of_type",
    "type_sign_sets",
]

# Width of the signature/permutation search beyond which an explicit
# wall-clock budget is required; the search is exponential in columns.
UNBUDGETED_WIDTH_CAP = 12


@dataclass(frozen=True)
class Rank2Type:
    """Combinatorial type of (at most) 2-dimensional subspaces of R^n.

    zero_set lists coordinates that vanish identically; classes is the
    ordered tuple of parallel classes (by slope order of the inducing
    directions); orientations[i] is the sign carried by coordinate i
    (0 on the zero set). Types with fewer than two classes are degenerate
    and describe subspaces of their true, smaller dimension.
    """

    n: int
    zero_set: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    orientations: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def dim(self) -> int:
        return min(2, len(self.classes))

    @property
    def is_degenerate(self) -> bool:
        return len(self.classes) < 2

    def representative_matrix(self) -> RationalMatrix:
        """n x 2 integer matrix whose column space realizes the type.

        Row i is 0 on the zero set and orientation * (1, j) for the member
        of class j; the distinct slopes 1..c realize the class order.
        """
        rows = [[Fraction(0), Fraction(0)] for _ in range(self.n)]
        for slope, members in enumerate(self.classes, start=1):
            for i in members:
                o = self.orientations[i]
                rows[i] = [Fraction(o), Fraction(o * slope)]
        return RationalMatrix(rows, cols=2)

    def representative(self) -> RationalSubspace:
        matrix = self.representative_matrix()
        return RationalSubspace.from_spanning(self.n, list(matrix.columns()))

    def _raw(self) -> tuple[tuple[int, ...], int]:
        masks = tuple(sum(1 << i for i in members) for members in self.classes)
        neg = sum(1 << i for i, o in enumerate(self.orientations) if o < 0)
        return masks, neg


def _raw_to_type(n: int, zero_mask: int, class_masks: tuple[int, ...], neg_mask: int) -> Rank2Type:
    zero_set = tuple(i for i in range(n) if zero_mask >> i & 1)
    classes = tuple(
        tuple(i for i in range(n) if mask >> i & 1) for mask in class_masks
    )
    orientations = tuple(
        0 if zero_mask >> i & 1 else (-1 if neg_mask >> i & 1 else 1) for i in range(n)
    )
    return Rank2Type(n, zero_set, classes, orientations)


def _iter_raw_types(n: int, min_classes: int = 0) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """All (zero_mask, class_masks, neg_mask) triples, deterministically.

    Order: class count ascending, then zero mask ascending, then the
    ordered partition as a lexicographic class assignment, then the
    orientation mask ascending. The lowest nonzero index always carries
    orientation +.
    """
    full = (1 << n) - 1
    if min_classes == 0:
        yield (full, (), 0)
    for c in range(max(1, min_classes), n + 1):
        for zero_mask in range(full + 1):
            support = [i for i in range(n) if not zero_mask >> i & 1]
            if len(support) < c:
                continue
            flip_positions = support[1:]
            flip_count = 1 << len(flip_positions)
            for assignment in product(range(c), repeat=len(support)):
                if len(set(assignment)) != c:
                    continue
                masks = [0] * c
                for idx, cls in zip(support, assignment):
                    masks[cls] |= 1 << idx
                class_masks = tuple(masks)
                for combo in range(flip_count):
                    neg_mask = 0
                    for b in range(len(flip_positions)):
                        if combo >> b & 1:
                            neg_mask |= 1 << flip_positions[b]
                    yield (zero_mask, class_masks, neg_mask)


def _walk_covectors(class_masks: tuple[int, ...], neg_mask: int) -> list[tuple[int, int]]:
    """One representative per +/- covector pair of the type (zero excluded).

    Sectors i = 1..c have the first i classes positive and the rest
    negative; rays j = 1..c zero out class j. Sector 0 is skipped as the
    negation of sector c. One pass moves each class in slope order from
    the "after" union to the "before" one, reading its ray in between.
    """
    support = sum(class_masks)  # the classes are disjoint
    after_p, after_n = support & ~neg_mask, support & neg_mask
    before_p = before_n = 0
    sectors, rays = [], []
    for m in class_masks:
        after_p &= ~m
        after_n &= ~m
        rays.append((before_p | after_n, before_n | after_p))
        before_p |= m & ~neg_mask
        before_n |= m & neg_mask
        sectors.append((before_p | after_n, before_n | after_p))
    return sectors + rays


def _packed_sign_set(class_masks: tuple[int, ...], neg_mask: int) -> set[tuple[int, int]]:
    half = _walk_covectors(class_masks, neg_mask)
    out = {(0, 0)}
    for p, q in half:
        out.add((p, q))
        out.add((q, p))
    return out


def sign_set_of_type(t: Rank2Type) -> SignVectorSet:
    """The sign set of the type's representative subspace, built directly
    from the circular walk (cross-checked against the subspace route in
    the test suite)."""
    class_masks, neg_mask = t._raw()
    return SignVectorSet(
        t.n, (SignVector(t.n, p, q) for p, q in _packed_sign_set(class_masks, neg_mask))
    )


def enumerate_rank2_types(n: int) -> Iterator[tuple[Rank2Type, RationalSubspace]]:
    """Every combinatorial type once, paired with its rational representative.

    Degenerate types (fewer than two classes) are included with their true
    dimension; consumers quantifying over genuinely 2-dimensional subspaces
    filter on num_classes >= 2.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    for zero_mask, class_masks, neg_mask in _iter_raw_types(n):
        t = _raw_to_type(n, zero_mask, class_masks, neg_mask)
        yield t, t.representative()


def type_sign_sets(n: int, min_classes: int = 0) -> Iterator[set[tuple[int, int]]]:
    """The packed sign set, as (pos, neg) mask pairs, of every type with at
    least min_classes classes, in the canonical type order."""
    for _, class_masks, neg_mask in _iter_raw_types(n, min_classes):
        yield _packed_sign_set(class_masks, neg_mask)


def _type_admits(lines: list[tuple[int, int]], covectors: list[tuple[int, int]]) -> bool:
    for wp, wq in covectors:
        for sp, sq in lines:
            if bool((sp & wp) | (sq & wq)) != bool((sp & wq) | (sq & wp)):
                return False
    return True


def find_plane_type(
    lines: Sequence[SignVector], n: int, budget_ms: int | None = None
) -> Optional[Rank2Type]:
    """The first type with at least two classes, in the canonical order,
    whose sign set is orthogonal to every line; None once the type space
    is exhausted.

    A hit puts every line inside sign(M^perp) for the type's plane M, a
    subspace of dimension n-2; no hit is a definitive negative because
    every real 2-dimensional plane has some type's sign set. Raises
    BudgetExceededError once budget_ms has passed, checked before the first
    type and then every 1024 types, so budget_ms=0 stops any search that
    has a type to test. Raises DimensionError for a line whose length is
    not n.
    """
    for v in lines:
        if v.n != n:
            raise DimensionError(f"sign vector of length {v.n} against ambient length {n}")
    packed = [(v.pos, v.neg) for v in lines]
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
    for counter, (zero_mask, class_masks, neg_mask) in enumerate(
        _iter_raw_types(n, min_classes=2)
    ):
        if deadline is not None and counter % 1024 == 0 and time.monotonic() >= deadline:
            raise BudgetExceededError("type search ran out of budget")
        if _type_admits(packed, _walk_covectors(class_masks, neg_mask)):
            return _raw_to_type(n, zero_mask, class_masks, neg_mask)
    return None


@dataclass(frozen=True)
class Mr2Certificate:
    """Witness that a pattern has minimum rank exactly 2.

    Applying the per-column signature and then the column order to the
    condensed pattern makes every row monotone nondecreasing in the order
    - <= 0 <= +; each condensed row carries at most one zero.
    """

    signature: tuple[int, ...]
    column_order: tuple[int, ...]
    trace: CondensationTrace


class _ParityUnionFind:
    """Union-find over boolean variables with XOR edge constraints."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.parity = [0] * size  # parity to the parent

    def find(self, v: int) -> tuple[int, int]:
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        root = v
        p = 0
        for node in reversed(path):
            p ^= self.parity[node]
            self.parent[node] = root
            self.parity[node] = p
        return root, self.parity[path[0]] if path else 0

    def merge(self, a: int, b: int, parity: int) -> bool:
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return (pa ^ pb) == parity
        self.parent[ra] = rb
        self.parity[ra] = pa ^ pb ^ parity
        return True


def _chain_order(cond: SignPattern, signature: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """A column order making every signed row monotone (each row in its own
    direction), or None.

    Row i is monotone along the order iff some row flip makes it
    nondecreasing, so the existence question is a parity system: for rows
    i and column pairs (j, l) with distinct signed entries, "j before l"
    xor "row i flipped" is forced by the sign of the entry difference.
    Any consistent assignment orders the columns totally (a cycle would
    force two distinct columns equal).
    """
    mc, nc = cond.rows, cond.cols
    grid = [
        [cond.entry(i, j) * signature[j] for j in range(nc)] for i in range(mc)
    ]
    pair_index = {}
    for j in range(nc - 1):
        for l in range(j + 1, nc):
            pair_index[(j, l)] = mc + len(pair_index)
    uf = _ParityUnionFind(mc + len(pair_index))
    for (j, l), var in pair_index.items():
        for i in range(mc):
            diff = grid[i][j] - grid[i][l]
            if diff == 0:
                continue
            # placement of the pair and the flip state of row i are tied by
            # the sign of the entry difference; the parity constant only
            # fixes which chain direction "1" means, and a reversed chain
            # is also a chain
            if not uf.merge(i, var, 1 if diff > 0 else 0):
                return None
    before_count = [0] * nc
    for (j, l), var in pair_index.items():
        _, bit = uf.find(var)
        if bit:
            before_count[l] += 1  # j before l
        else:
            before_count[j] += 1
    order = tuple(sorted(range(nc), key=before_count.__getitem__))
    if sorted(before_count) != list(range(nc)):
        raise InternalCheckError("pairwise column order is not total")
    return order


def mr_le_2(pattern: SignPattern, budget_ms: int | None = None) -> Optional[Mr2Certificate]:
    """Certificate iff the pattern has minimum rank exactly 2.

    Patterns of minimum rank <= 1 (condensation empty or 1x1) never get a
    certificate. Column signatures are enumerated (first column pinned +,
    the rest covered through row flips and order reversal); for each one
    the simultaneous per-row monotonicity question is the polynomial
    parity system of _chain_order. A condensed pattern with more rows
    than twice its columns can never have minimum rank 2, so it is
    rejected up front.
    """
    trace = condense_with_trace(pattern)
    cond = trace.pattern
    if cond.rows < 2:
        return None
    nc = cond.cols
    for r in cond.row_vectors:
        if nc - r.support_size() > 1:
            return None
    if cond.rows > 2 * nc:
        return None
    if budget_ms is None and nc > UNBUDGETED_WIDTH_CAP:
        raise BudgetExceededError(
            f"condensed width {nc} exceeds the unbudgeted cap {UNBUDGETED_WIDTH_CAP}; pass budget_ms"
        )
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
    for counter, tail in enumerate(product((1, -1), repeat=nc - 1)):
        if deadline is not None and counter % 64 == 0 and time.monotonic() > deadline:
            raise BudgetExceededError("signature search ran out of budget")
        signature = (1,) + tail
        order = _chain_order(cond, signature)
        if order is not None:
            return Mr2Certificate(signature, order, trace)
    return None


def realize_rank2(pattern: SignPattern, cert: Mr2Certificate) -> RationalMatrix:
    """Rational matrix with the pattern's signs and rank exactly 2.

    In the certificate's monotone coordinates, column `pos` gets abscissa
    pos+1 and each condensed row becomes abscissa minus a rational
    threshold (at its zero column, or halfway between its - and + blocks),
    so rows are affine in the abscissa and the matrix has rank 2.
    Signature, column order, and condensation are then undone.
    """
    cond = cert.trace.pattern
    nc = cond.cols
    order = cert.column_order
    signature = cert.signature
    if len(signature) != nc or sorted(order) != list(range(nc)):
        raise ValueError("certificate does not match the condensed pattern")
    condensed_values: list[list[Fraction]] = [
        [Fraction(0)] * nc for _ in range(cond.rows)
    ]
    for i in range(cond.rows):
        signed_row = tuple(
            cond.entry(i, order[pos]) * signature[order[pos]] for pos in range(nc)
        )
        if signed_row.count(0) > 1:
            raise ValueError("certificate row carries more than one zero")
        ascending = all(signed_row[p] <= signed_row[p + 1] for p in range(nc - 1))
        descending = all(signed_row[p] >= signed_row[p + 1] for p in range(nc - 1))
        if not (ascending or descending):
            raise ValueError("certificate does not make this row monotone")
        scale = 1 if ascending else -1
        oriented = signed_row if ascending else tuple(-e for e in signed_row)
        if 0 in oriented:
            threshold = Fraction(oriented.index(0) + 1)
        else:
            threshold = Fraction(2 * sum(1 for e in oriented if e < 0) + 1, 2)
        for pos in range(nc):
            condensed_values[i][order[pos]] = (
                (Fraction(pos + 1) - threshold) * scale * signature[order[pos]]
            )
    out = [[Fraction(0)] * pattern.cols for _ in range(pattern.rows)]
    for i in range(pattern.rows):
        row_ref = cert.trace.row_map[i]
        if row_ref is None:
            continue
        for j in range(pattern.cols):
            col_ref = cert.trace.col_map[j]
            if col_ref is None:
                continue
            out[i][j] = condensed_values[row_ref[0]][col_ref[0]] * row_ref[1] * col_ref[1]
    result = RationalMatrix(out, cols=pattern.cols)
    if sign_of(result) != pattern:
        raise ValueError("certificate does not fit the pattern")
    if rank(result) != 2:
        raise InternalCheckError("rank-2 construction produced a different rank")
    return result
