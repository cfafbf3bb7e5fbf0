"""Everything two-dimensional.

Three related pieces live here:

* the polynomial test for minimum rank exactly 2, via condensation plus
  one column signature and one column order making every row monotone;
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

The type space is walked in one canonical order by every consumer. One
generator yields its structures (zero mask, ordered partition of the
support into classes), with the partitions generated directly as
surjective class assignments; each structure carries 2^(s-1)
orientations of its support of size s. enumerate_rank2_types pairs each
type with its representative, type_sign_sets yields the sign sets alone,
and find_plane_type is the one search for a plane whose sign set is
orthogonal to a list of sign vectors. That search decides mr <= n-2 in
minrank and supplies the plane of the rank n-2 realization in realize;
its first hit is the certificate. It is bitsliced: one Python int holds
a bit per orientation of a structure, up to 1024 of them, so those
orientations are decided together, and each is tested against the c rays
of the type only (its cocircuits), which is equivalent to testing its
whole sign set. Before any orientation is tried, the search cuts the
structures that the line supports alone rule out: (a) a zero mask on
whose support some line has a single coordinate, since every type there
has a sector with full support; (b) a partition with a class holding all
but one of the coordinates that a line has in the support, since the ray
that zeroes that class meets the line once. Neither cut drops a structure
with a hit, and the survivors keep their order, so the first hit is the
uncut walk's. Each search has one Deadline for its budget_ms, charged for
the cut work as well as for the orientations decided.

Orientation canon: only the lowest-indexed nonzero coordinate is pinned
to +, which quotients exactly the global-negation symmetry (a basis and
its negation span the same subspace). Pinning one sign per class would
lose sign sets once three or more classes exist.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .errors import Deadline, DimensionError, InternalCheckError
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


class _Cuts:
    """Cuts (a) and (b) of find_plane_type, which read only the supports of
    its lines, for one search.

    enter(zero_mask) applies cut (a) and, for a live mask, lists in at[p]
    the tests of cut (b) due at position p of the support: one per set T
    (a line's support inside it) whose highest coordinate is there, as (T,
    T less that coordinate, |T| - 1, position of the lowest coordinate of
    T), for _ordered_partitions to apply. masks and nodes count the dead
    zero masks and the cut partition nodes; each count is charged to the
    deadline in batches of Deadline.READ_EVERY units, a batch being spent
    at its first cut, so that a search whose every structure is cut still
    reads the clock.
    """

    def __init__(self, packed: Sequence[tuple[int, int]], n: int, deadline: Deadline):
        self.reaches = list({pos | neg for pos, neg in packed} - {0})
        self.n = n
        self.spend = deadline.spend
        self.masks = self.nodes = 0
        self.at: list[tuple] = []

    def enter(self, zero_mask: int) -> bool:
        """False, and the cut charged, if cut (a) kills zero_mask."""
        live = ~zero_mask
        seen = set()
        for reach in self.reaches:
            t = reach & live
            if t & (t - 1):
                seen.add(t)
            elif t:
                if not self.masks % Deadline.READ_EVERY:
                    self.spend(Deadline.READ_EVERY)
                self.masks += 1
                return False
        at = [()] * self.n
        for t in seen:
            top, low = 1 << t.bit_length() - 1, t & -t
            p = (live & top - 1).bit_count()
            at[p] += ((t, t ^ top, t.bit_count() - 1, (live & low - 1).bit_count()),)
        self.at = at
        return True


def _ordered_partitions(
    bits: Sequence[int], c: int, cuts: Optional[_Cuts] = None
) -> Iterator[tuple[int, ...]]:
    """Class masks of every ordered partition of the coordinates in bits
    into c nonempty classes.

    Position p of bits goes to class a[p]; the assignments a are exactly
    the surjections onto range(c), generated in lexicographic order by a
    depth-first walk that only offers an already used class while enough
    positions remain to fill every empty one.

    With cuts, entered at the zero mask of bits, the walk also leaves every
    branch that cut (b) kills. It tests a set T at the position of its
    highest coordinate, where the class counts of T are final, so it cuts
    whole subtrees and the survivors keep their order. There, with v the
    class just assigned, some class holds |T| - 1 of T exactly when class
    v does, or when v holds only the highest coordinate and the class of
    the lowest holds all the rest.
    """
    s = len(bits)
    if cuts is None:
        at = [()] * s
    else:
        at, spend, every = cuts.at, cuts.spend, Deadline.READ_EVERY
    masks = [0] * c
    counts = [0] * c
    assignment = [-1] * s
    missing = c  # classes still empty
    p = 0
    while p >= 0:
        v = assignment[p]
        if v >= 0:
            masks[v] ^= bits[p]
            counts[v] -= 1
            if not counts[v]:
                missing += 1
        v += 1
        if missing > s - 1 - p:  # every later position must open a class
            while v < c and counts[v]:
                v += 1
        if v == c:
            assignment[p] = -1
            p -= 1
            continue
        assignment[p] = v
        masks[v] |= bits[p]
        if not counts[v]:
            missing -= 1
        counts[v] += 1
        for t, rest, need, low in at[p]:
            r = masks[v] & t
            if r != t and (
                masks[assignment[low]] & t == rest if r == bits[p] else r.bit_count() == need
            ):
                if not cuts.nodes % every:
                    spend(every)
                cuts.nodes += 1
                break
        else:
            if p == s - 1:
                yield tuple(masks)
            else:
                p += 1


def _iter_structures(
    n: int, min_classes: int = 0, cuts: Optional[_Cuts] = None
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """All (zero_mask, support, class_masks) triples, deterministically;
    with cuts, only those that neither cut kills.

    Order: class count ascending, then zero mask ascending, then the
    ordered partition of the support as a lexicographic class assignment.
    support lists the coordinates outside the zero mask, ascending.
    """
    full = (1 << n) - 1
    if min_classes == 0:
        yield (full, (), ())
    for c in range(max(1, min_classes), n + 1):
        for zero_mask in range(full + 1):
            if n - zero_mask.bit_count() < c or cuts is not None and not cuts.enter(zero_mask):
                continue
            support = tuple(i for i in range(n) if not zero_mask >> i & 1)
            for class_masks in _ordered_partitions([1 << i for i in support], c, cuts):
                yield (zero_mask, support, class_masks)


def _orientation_masks(support: tuple[int, ...]) -> list[int]:
    """neg_mask of every orientation of the support, indexed by its combo:
    bit b of the combo negates support[b + 1]; support[0] stays +."""
    masks = [0]
    for i in support[1:]:
        masks += [m | 1 << i for m in masks]
    return masks


def _iter_raw_types(n: int, min_classes: int = 0) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """All (zero_mask, class_masks, neg_mask) triples, deterministically.

    Each structure of _iter_structures in turn, expanded over its
    orientation masks in ascending combo order. The lowest nonzero index
    always carries orientation +.
    """
    last_support, neg_masks = None, [0]
    for zero_mask, support, class_masks in _iter_structures(n, min_classes):
        if support != last_support:
            last_support, neg_masks = support, _orientation_masks(support)
        for neg_mask in neg_masks:
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


_SLICE_BITS = 10  # orientation flip bits decided together: 1024 combos per int


@lru_cache(maxsize=32)
def _orientation_slices(k: int) -> tuple[int, tuple[int, ...]]:
    """Bitsets over the 2^k combos of the flip bits of support positions
    1..k.

    Returns (every combo, plus) where plus[p] holds the combos that keep
    support position p positive: all of them for p = 0, which is pinned,
    and those with bit p-1 clear for p = 1..k.
    """
    width = 1 << k
    every = (1 << width) - 1
    plus = [every]
    for b in range(k):
        half = 1 << b
        period = (1 << 2 * half) - 1  # a block of 2^(b+1) combos
        flipped = ((1 << half) - 1) << half  # its upper half has bit b set
        plus.append(every ^ flipped * (every // period))
    return every, tuple(plus)


def _fold_lines(
    support: tuple[int, ...], packed: list[tuple[int, int]]
) -> tuple[int, tuple[int, ...], list[tuple[int, int, dict[int, tuple[int, int]], int, int]]]:
    """The lines as every structure on this support sees them.

    The orientation combo of the support splits into its low _SLICE_BITS
    flip bits, held as the bits of one int, and the high ones, which the
    search walks one value at a time. Returns (all low combos, high),
    where high lists the coordinate bit that each high flip bit negates,
    and per line its reach (its support inside the support), the low part
    of its reach, a map from each low reached coordinate bit to the pair
    (low combos where the oriented line is + there, low combos where it is
    -), and the line's + and - coordinates among the high ones before any
    flip. Lines that reach nothing are orthogonal to every covector and
    are dropped; a line and its negation admit the same combos, so only
    the first of the two is kept.
    """
    k = min(len(support) - 1, _SLICE_BITS)
    every, plus = _orientation_slices(k)
    low = sum(1 << i for i in support[: k + 1])
    inside = sum(1 << i for i in support)
    folded = {}
    for pos, neg in packed:
        lp, lq = pos & inside, neg & inside
        key = min((lp, lq), (lq, lp))
        if not lp | lq or key in folded:
            continue
        oriented = {}
        for i, kept in zip(support, plus):
            if lp >> i & 1:
                oriented[1 << i] = (kept, every ^ kept)
            elif lq >> i & 1:
                oriented[1 << i] = (every ^ kept, kept)
        folded[key] = (lp | lq, (lp | lq) & low, oriented, lp & ~low, lq & ~low)
    high = tuple(1 << i for i in support[k + 1 :])
    return every, high, list(folded.values())


def find_plane_type(
    lines: Sequence[SignVector], n: int, budget_ms: int | None = None
) -> Optional[Rank2Type]:
    """The first type with at least two classes, in the canonical order,
    whose sign set is orthogonal to every line; None once the type space
    is exhausted.

    A hit puts every line inside sign(M^perp) for the type's plane M, a
    subspace of dimension n-2; no hit is a definitive negative because
    every real 2-dimensional plane has some type's sign set.

    The search decides one ordered partition at a time, for up to 1024
    orientations of its support together: each orientation combo of the
    low 10 flip bits is one bit of a Python int, and the higher flip bits,
    if the support has more than 11 coordinates, are walked in ascending
    order outside it. A line is orthogonal to every covector of a type
    exactly when it is orthogonal to every cocircuit (Bjoerner, Las
    Vergnas, Sturmfels, White & Ziegler, Oriented Matroids, 1993, 3.7),
    and the cocircuits of a type are its c rays: ray j zeroes class j and
    is + on the earlier classes, - on the later ones, times the
    orientation. With P_i (N_i) the combos where the oriented line is +
    (-) somewhere on class i, the combos that ray j admits are
    (OR_{i<j} P_i | OR_{i>j} N_i) & (OR_{i<j} N_i | OR_{i>j} P_i); a line
    whose support lies inside class j is orthogonal to ray j under every
    orientation and skips it. The lowest bit of the AND over all lines and
    rays is the first orientation of the canonical order, so the first hit
    is the type-by-type walk's.

    The structure walk skips what two cuts on the line supports rule out
    (see _Cuts), with S the support of a zero mask and T the part of a
    line's support inside S: (a) the zero mask, if some line has |T| = 1;
    (b) the branch of the partition walk, at the position of max(T), if
    some class holds exactly |T| - 1 coordinates of T. A cut structure has
    a ray that meets a line in one coordinate under every orientation, and
    the surviving structures keep their order, so the first hit is the
    same as without the cuts.

    One Deadline built from budget_ms raises BudgetExceededError once the
    budget has passed. It reads the clock at the first block of
    orientations or the first cut, whichever comes first, and then once
    the work spent since the last reading holds 1024 or more units: a type
    of a block decided, or a dead zero mask or cut partition node, each cut
    charged in batches of 1024 as its batch begins. So budget_ms=0 stops
    any search that has a structure to decide or cut. Raises DimensionError
    for a line whose length is not n.
    """
    for v in lines:
        if v.n != n:
            raise DimensionError(f"sign vector of length {v.n} against ambient length {n}")
    packed = [(v.pos, v.neg) for v in lines]
    deadline = Deadline(budget_ms)
    current = None
    for zero_mask, support, class_masks in _iter_structures(n, 2, _Cuts(packed, n, deadline)):
        if zero_mask != current:
            current = zero_mask
            every, high, folded = _fold_lines(support, packed)
            width = every.bit_length()
        c = len(class_masks)
        for h in range(1 << len(high)):
            deadline.spend(width)
            flip = sum(bit for b, bit in enumerate(high) if h >> b & 1)
            admitted = every
            for reach, low, oriented, hp, hq in folded:
                if flip:
                    hp, hq = hp & ~flip | hq & flip, hq & ~flip | hp & flip
                pos, neg = [], []
                for m in class_masks:
                    p = every if hp & m else 0
                    q = every if hq & m else 0
                    rest = low & m
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        plus, minus = oriented[bit]
                        p |= plus
                        q |= minus
                    pos.append(p)
                    neg.append(q)
                after = [None] * c
                after_p = after_n = 0
                for j in range(c - 1, -1, -1):
                    after[j] = (after_p, after_n)
                    after_p |= pos[j]
                    after_n |= neg[j]
                before_p = before_n = 0
                for j, m in enumerate(class_masks):
                    if reach & ~m:  # else the line lies in class j, orthogonal to ray j
                        after_p, after_n = after[j]
                        admitted &= (before_p | after_n) & (before_n | after_p)
                        if not admitted:
                            break
                    before_p |= pos[j]
                    before_n |= neg[j]
                if not admitted:
                    break
            if admitted:
                combo = h * width + (admitted & -admitted).bit_length() - 1
                neg_mask = sum(1 << i for b, i in enumerate(support[1:]) if combo >> b & 1)
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


def mr_le_2(pattern: SignPattern) -> Optional[Mr2Certificate]:
    """Certificate iff the pattern has minimum rank exactly 2.

    Patterns of minimum rank <= 1 (condensation empty or 1x1) never get a
    certificate. The column signature is the first condensed row's signs,
    + at its zero (a row has at most one), scaled so column 0 is +: flip
    each column v_j of a rank-2 realization by the sign of r_1 . v_j, and
    all lie in the half-plane r_1 . x >= 0, at most one on its boundary.
    Sorted by angle, each row then changes sign at most once, so every
    signed row is monotone, which is what _chain_order decides.
    """
    trace = condense_with_trace(pattern)
    cond = trace.pattern
    if cond.rows < 2:
        return None
    nc = cond.cols
    for r in cond.row_vectors:
        if nc - r.support_size() > 1:
            return None
    first = [s or 1 for s in cond.row_vectors[0]]
    signature = tuple(s * first[0] for s in first)
    order = _chain_order(cond, signature)
    return None if order is None else Mr2Certificate(signature, order, trace)


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
