"""Sign vectors, sign patterns, and the combinatorial calculus on them.

Signs are the ints -1, 0, +1. A SignVector stores two bit masks (positive
and negative support), which keeps orthogonality tests and the exponential
enumerations elsewhere in the package cheap. The canonical total order on
sign vectors is lexicographic under the entry encoding 0 -> 0, + -> 1,
- -> 2; `SignVector.sort_key` realizes it as a base-3 integer, the
canonical index of the vector among all 3^n.

`set_perp` is bitsliced over that index: a set of length-n vectors is one
3^n-bit int, and the per-coordinate bitsets P_i / N_i (the indices with +
/ - at coordinate i) turn each member's orthogonality test into a few
big-int operations. A SignVectorSet is either built from vectors (a
sorted tuple and a frozenset, no 3^n allocation, however long the
vectors) or holds the 3^n bits that `set_perp` produced and decodes its
members lazily, in canonical order, by base-3 arithmetic. 3^n-bit ints
live only in `set_perp`, its result, its subset tables (n <= 8) and a
vector-built set compared with such a result; no coordinate mask is cached.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionError, ParseError

PLUS = 1
ZERO = 0
MINUS = -1

_CHAR_FOR_SIGN = {1: "+", 0: "0", -1: "-"}
_SIGN_FOR_CHAR = {"+": 1, "0": 0, "-": -1}

__all__ = [
    "PLUS",
    "ZERO",
    "MINUS",
    "SignVector",
    "SignPattern",
    "SignVectorSet",
    "CondensationTrace",
    "sign_of",
    "sign_of_vector",
    "orthogonal",
    "set_perp",
    "all_sign_vectors",
    "condense",
    "condense_with_trace",
    "max_rank",
]


@lru_cache(maxsize=32)
def _sort_key_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """For each byte of an n-bit mask, the sum of 3^(n-1-i) over the
    coordinates i set in each of its 256 values."""
    tables = []
    for start in range(0, n, 8):
        weights = [3 ** (n - 1 - i) for i in range(start, min(start + 8, n))]
        tables.append(
            tuple(sum(w for t, w in enumerate(weights) if b >> t & 1) for b in range(256))
        )
    return tuple(tables)


class SignVector:
    """An element of {+, 0, -}^n, stored as (positive, negative) bit masks."""

    __slots__ = ("n", "pos", "neg")

    def __init__(self, n: int, pos: int, neg: int):
        if pos & neg:
            raise ValueError("positive and negative supports overlap")
        if n < 0 or (pos | neg) >> n:
            raise ValueError("support mask out of range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    def __setattr__(self, name, value):
        raise AttributeError("SignVector is immutable")

    @classmethod
    def from_signs(cls, signs: Iterable[int]) -> "SignVector":
        pos = neg = 0
        n = 0
        for s in signs:
            if s > 0:
                pos |= 1 << n
            elif s < 0:
                neg |= 1 << n
            n += 1
        return cls(n, pos, neg)

    @classmethod
    def from_string(cls, text: str) -> "SignVector":
        try:
            return cls.from_signs(_SIGN_FOR_CHAR[ch] for ch in text)
        except KeyError as exc:
            raise ParseError(f"invalid sign character {exc.args[0]!r}") from None

    @classmethod
    def zero(cls, n: int) -> "SignVector":
        return cls(n, 0, 0)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        bit = 1 << i
        if self.pos & bit:
            return 1
        if self.neg & bit:
            return -1
        return 0

    def __iter__(self) -> Iterator[int]:
        return (self[i] for i in range(self.n))

    def signs(self) -> tuple[int, ...]:
        return tuple(self)

    def __neg__(self) -> "SignVector":
        return SignVector(self.n, self.neg, self.pos)

    def is_zero(self) -> bool:
        return not (self.pos | self.neg)

    def support_size(self) -> int:
        return (self.pos | self.neg).bit_count()

    def support(self) -> tuple[int, ...]:
        mask = self.pos | self.neg
        return tuple(i for i in range(self.n) if mask >> i & 1)

    def sort_key(self) -> int:
        """The base-3 number whose digits, coordinate 0 first, are 0, 1, 2
        for 0, +, -; it orders vectors canonically."""
        pos, neg = self.pos, self.neg
        key = 0
        for table in _sort_key_tables(self.n):
            key += table[pos & 0xFF] + 2 * table[neg & 0xFF]
            pos >>= 8
            neg >>= 8
        return key

    def to_string(self) -> str:
        return "".join(_CHAR_FOR_SIGN[s] for s in self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignVector)
            and self.n == other.n
            and self.pos == other.pos
            and self.neg == other.neg
        )

    def __hash__(self) -> int:
        return hash((self.n, self.pos, self.neg))

    def __repr__(self) -> str:
        return f"SignVector({self.to_string()!r})"


def sign_of_vector(values: Sequence) -> SignVector:
    """Entrywise sign of a real (rational) vector."""
    return SignVector.from_signs((v > 0) - (v < 0) for v in values)


def sign_of(matrix) -> "SignPattern":
    """Entrywise sign pattern of a rational matrix."""
    return SignPattern([sign_of_vector(matrix.row(i)) for i in range(matrix.rows)], cols=matrix.cols)


def orthogonal(c: SignVector, x: SignVector) -> bool:
    """Sign orthogonality: disjoint supports, or an agreeing and an opposing
    nonzero coordinate both exist."""
    if c.n != x.n:
        raise DimensionError(f"sign vectors of lengths {c.n} and {x.n}")
    agree = (c.pos & x.pos) | (c.neg & x.neg)
    oppose = (c.pos & x.neg) | (c.neg & x.pos)
    return bool(agree) == bool(oppose)


class SignPattern:
    """An m x n grid over {+, 0, -}, stored as a tuple of row SignVectors."""

    __slots__ = ("rows", "cols", "row_vectors")

    def __init__(self, row_vectors: Sequence[SignVector], cols: int | None = None):
        rows = tuple(row_vectors)
        if rows:
            width = rows[0].n
            if any(r.n != width for r in rows):
                raise DimensionError("pattern rows have unequal lengths")
            if cols is not None and cols != width:
                raise DimensionError(f"declared {cols} columns, rows have {width}")
        else:
            width = cols or 0
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "row_vectors", rows)

    def __setattr__(self, name, value):
        raise AttributeError("SignPattern is immutable")

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "SignPattern":
        return cls([SignVector.from_string(r) for r in rows])

    @classmethod
    def from_grid(cls, grid: Iterable[Iterable[int]]) -> "SignPattern":
        return cls([SignVector.from_signs(row) for row in grid])

    @classmethod
    def parse(cls, text: str) -> "SignPattern":
        """Parse the text format: one row per line, characters + - 0,
        optional whitespace between entries, # starts a comment."""
        rows = []
        width = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            chars = []
            for colno, ch in enumerate(line, start=1):
                if ch.isspace():
                    continue
                if ch not in _SIGN_FOR_CHAR:
                    raise ParseError(f"invalid sign character {ch!r}", line=lineno, col=colno)
                chars.append(_SIGN_FOR_CHAR[ch])
            if not chars:
                continue
            if width is None:
                width = len(chars)
            elif len(chars) != width:
                raise ParseError(f"row has {len(chars)} entries, expected {width}", line=lineno)
            rows.append(SignVector.from_signs(chars))
        if not rows:
            raise ParseError("empty pattern")
        return cls(rows)

    def entry(self, i: int, j: int) -> int:
        return self.row_vectors[i][j]

    def row(self, i: int) -> SignVector:
        return self.row_vectors[i]

    def column(self, j: int) -> SignVector:
        bit = 1 << j
        pos = neg = 0
        for i, r in enumerate(self.row_vectors):
            if r.pos & bit:
                pos |= 1 << i
            elif r.neg & bit:
                neg |= 1 << i
        return SignVector(self.rows, pos, neg)

    def column_vectors(self) -> tuple[SignVector, ...]:
        return tuple(self.column(j) for j in range(self.cols))

    def transpose(self) -> "SignPattern":
        return SignPattern(self.column_vectors(), cols=self.rows)

    def is_zero(self) -> bool:
        return all(r.is_zero() for r in self.row_vectors)

    def to_strings(self) -> list[str]:
        return [r.to_string() for r in self.row_vectors]

    def to_text(self) -> str:
        return "\n".join(self.to_strings()) + "\n"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignPattern)
            and self.cols == other.cols
            and self.row_vectors == other.row_vectors
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.row_vectors))

    def __repr__(self) -> str:
        return f"SignPattern({self.to_strings()!r})"


class SignVectorSet:
    """A deduplicated set of equal-length sign vectors in canonical order.

    A set has one of two sources and the same behaviour either way. Built
    from vectors, it keeps them as a sorted tuple plus a frozenset and
    never allocates 3^n bits. Built by `set_perp`, it keeps the kernel's
    3^n-bit int (bit k set iff the vector whose `sort_key` is k is a
    member) and decodes members lazily, in canonical order, as they are
    iterated; `len`, `in`, `contains_zero` and `==` read the bits. A
    vector-backed set compared with a bits-backed one of the same length
    derives (and keeps) its own bits.
    """

    __slots__ = ("n", "_vectors", "_lookup", "_bits")

    def __init__(self, n: int, vectors: Iterable[SignVector] = ()):
        vecs = set(vectors)
        for v in vecs:
            if v.n != n:
                raise DimensionError(f"vector of length {v.n} in a length-{n} set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_vectors", tuple(sorted(vecs, key=SignVector.sort_key)))
        object.__setattr__(self, "_lookup", frozenset(vecs))
        object.__setattr__(self, "_bits", None)

    @classmethod
    def _from_bits(cls, n: int, bits: int) -> "SignVectorSet":
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_vectors", None)
        object.__setattr__(self, "_lookup", None)
        object.__setattr__(self, "_bits", bits)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SignVectorSet is immutable")

    def _bitset(self) -> int:
        """The members as a 3^n-bit int, derived once for a vector-backed set."""
        if self._bits is None:
            index = bytearray((3**self.n + 7) // 8)
            for v in self._vectors:
                k = v.sort_key()
                index[k >> 3] |= 1 << (k & 7)
            object.__setattr__(self, "_bits", int.from_bytes(index, "little"))
        return self._bits

    @property
    def vectors(self) -> tuple[SignVector, ...]:
        return self._vectors if self._lookup is not None else tuple(self)

    def __contains__(self, v) -> bool:
        if self._lookup is not None:
            return v in self._lookup
        return isinstance(v, SignVector) and v.n == self.n and bool(self._bits >> v.sort_key() & 1)

    def __len__(self) -> int:
        return len(self._vectors) if self._lookup is not None else self._bits.bit_count()

    def __iter__(self) -> Iterator[SignVector]:
        if self._lookup is not None:
            return iter(self._vectors)
        n = self.n
        return (SignVector(n, p, q) for p, q in _iter_index_masks(n, self._bits))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignVectorSet) or self.n != other.n:
            return False
        if self._lookup is not None and other._lookup is not None:
            return self._lookup == other._lookup
        return len(self) == len(other) and self._bitset() == other._bitset()

    def __hash__(self) -> int:
        return hash((self.n, self._lookup if self._lookup is not None else frozenset(self)))

    def to_strings(self) -> list[str]:
        return [v.to_string() for v in self]

    def is_negation_closed(self) -> bool:
        lookup = self if self._lookup is None else self._lookup
        return all(-v in lookup for v in self)

    def contains_zero(self) -> bool:
        if self._lookup is not None:
            return SignVector.zero(self.n) in self._lookup
        return bool(self._bits & 1)

    def difference(self, other: "SignVectorSet") -> tuple[SignVector, ...]:
        if (self._lookup is not None and other._lookup is not None) or self.n != other.n:
            return tuple(v for v in self if v not in other)
        n = self.n
        rest = self._bitset() & ~other._bitset()
        return tuple(SignVector(n, p, q) for p, q in _iter_index_masks(n, rest))

    def __repr__(self) -> str:
        return f"SignVectorSet(n={self.n}, size={len(self)})"


# Canonical index k of a length-n sign vector: its `sort_key`, the base-3
# number whose digit for coordinate i (weight 3^(n-1-i)) is 0, 1, 2 for
# 0, +, -. Sets of vectors are 3^n-bit ints over this index.

_LOW_DIGITS = 6  # decode in chunks of 3^6 indices that share their leading digits


def _digit_masks(index: int, count: int, first: int) -> tuple[int, int]:
    """(pos, neg) masks of the `count` base-3 digits of `index`, read as
    coordinates first .. first+count-1, most significant digit first."""
    pos = neg = 0
    for i in range(first + count - 1, first - 1, -1):
        index, digit = divmod(index, 3)
        if digit == 1:
            pos |= 1 << i
        elif digit == 2:
            neg |= 1 << i
    return pos, neg


@lru_cache(maxsize=16)
def _low_digit_masks(n: int) -> tuple[tuple[int, int], ...]:
    """(pos, neg) of every index below 3^m over the last m = min(n, 6)
    coordinates of a length-n vector."""
    m = min(n, _LOW_DIGITS)
    return tuple(_digit_masks(j, m, n - m) for j in range(3**m))


def _iter_index_masks(n: int, bits: int) -> Iterator[tuple[int, int]]:
    """(pos, neg) of every set bit of a 3^n-bit index set, in canonical
    order, decoded arithmetically one 3^6-index chunk at a time."""
    low = _low_digit_masks(n)
    m = min(n, _LOW_DIGITS)
    width = 3**m
    chunk_mask = (1 << width) - 1
    data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    for chunk in range(-(-bits.bit_length() // width)):
        start = chunk * width
        word = int.from_bytes(data[start >> 3 : (start + width + 7) >> 3], "little")
        word = word >> (start & 7) & chunk_mask
        if not word:
            continue
        hp, hn = _digit_masks(chunk, n - m, 0)
        while word:
            lowest = word & -word
            p, q = low[lowest.bit_length() - 1]
            yield hp | p, hn | q
            word ^= lowest


def all_sign_vectors(n: int) -> Iterator[SignVector]:
    """All 3^n sign vectors of length n, in canonical order."""
    return (SignVector(n, p, q) for p, q in _iter_index_masks(n, (1 << 3**n) - 1))


def _tile(block: int, width: int, count: int) -> int:
    """`count` copies of a `width`-bit block side by side, by doubling."""
    out = filled = 0
    while count:
        if count & 1:
            out |= block << filled
            filled += width
        block |= block << width
        width *= 2
        count >>= 1
    return out


_SUBSET_WIDTH = 8  # up to this length, the ORs over every support are tabulated


def _coordinate_masks(n: int) -> tuple[tuple[int, int], ...]:
    """(P_i, N_i) for each coordinate i: the 3^n-bit index sets of the
    vectors with + (P_i) and with - (N_i) at coordinate i."""
    masks = []
    for i in range(n):
        w = 3 ** (n - 1 - i)
        plus = _tile(((1 << w) - 1) << w, 3 * w, 3**i)
        masks.append((plus, plus << w))
    return tuple(masks)


@lru_cache(maxsize=8)
def _subset_masks(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For every coordinate mask s < 2^n, the OR of P_i (and of N_i) over
    the coordinates i in s: 2^(n+1) ints of 3^n bits, so small n only."""
    plus, minus = [0] * (1 << n), [0] * (1 << n)
    for i, (p, q) in enumerate(_coordinate_masks(n)):
        bit = 1 << i
        for s in range(bit):
            plus[bit | s] = plus[s] | p
            minus[bit | s] = minus[s] | q
    return tuple(plus), tuple(minus)


def set_perp(vectors, n: int | None = None) -> SignVectorSet:
    """All sign vectors orthogonal to every member of the given set.

    Accepts a SignVectorSet (preferred) or any iterable of SignVector plus
    the ambient length n; every member must have length n.

    Bitsliced: the 3^n candidates are the bits of one int over the
    canonical index (`SignVector.sort_key`). A candidate agrees with a
    member x at some coordinate iff it lies in the OR of P_i over x's +
    coordinates and N_i over its - coordinates, and opposes x iff it lies
    in the same OR with P and N swapped (see `_coordinate_masks`). It is
    orthogonal to x unless exactly one of the two holds, so each member
    costs a few big-int operations, whatever the size of the result. Up
    to length 8 the ORs come from a table over all supports. The result
    is bits-backed and decodes lazily, so a caller that reads one member
    decodes one. 3^n-bit ints live only here, in that result and in the
    subset tables for n <= 8; longer vectors rebuild their P_i / N_i per call.
    """
    if isinstance(vectors, SignVectorSet):
        n = vectors.n
    else:
        vectors = list(vectors)
        if n is None:
            if not vectors:
                raise DimensionError("ambient length needed for an empty vector collection")
            n = vectors[0].n
        for v in vectors:
            if v.n != n:
                raise DimensionError(f"sign vector of length {v.n} against ambient length {n}")
    bad = 0  # candidates not orthogonal to some member
    if n <= _SUBSET_WIDTH:
        plus, minus = _subset_masks(n)
        for v in vectors:
            xp, xn = v.pos, v.neg
            bad |= (plus[xp] | minus[xn]) ^ (minus[xp] | plus[xn])
    else:
        masks = _coordinate_masks(n)
        for v in vectors:
            xp, xn = v.pos, v.neg
            agree = oppose = 0
            for i, (p, q) in enumerate(masks):
                if xp >> i & 1:
                    agree |= p
                    oppose |= q
                elif xn >> i & 1:
                    agree |= q
                    oppose |= p
            bad |= agree ^ oppose
    return SignVectorSet._from_bits(n, ((1 << 3**n) - 1) & ~bad)


@dataclass(frozen=True)
class CondensationTrace:
    """Condensed pattern plus the line bookkeeping needed to undo it.

    row_map[i] is None when original row i was dropped as a zero row, else
    (condensed row index, sign) where sign is -1 when the row survives as
    the negation of its representative. col_map is the column analogue.
    """

    pattern: SignPattern
    row_map: tuple[Optional[tuple[int, int]], ...]
    col_map: tuple[Optional[tuple[int, int]], ...]


def _line_pass(grid: list[list[int]]) -> tuple[list[list[int]], list[Optional[tuple[int, int]]]]:
    """Drop zero rows and rows duplicating/negating an earlier kept row."""
    kept: list[list[int]] = []
    mapping: list[Optional[tuple[int, int]]] = []
    for row in grid:
        if not any(row):
            mapping.append(None)
            continue
        neg = [-e for e in row]
        for idx, existing in enumerate(kept):
            if existing == row:
                mapping.append((idx, 1))
                break
            if existing == neg:
                mapping.append((idx, -1))
                break
        else:
            mapping.append((len(kept), 1))
            kept.append(row)
    return kept, mapping


def _compose(outer: Sequence[Optional[tuple[int, int]]], inner: Optional[tuple[int, int]]):
    if inner is None:
        return None
    step = outer[inner[0]]
    if step is None:
        return None
    return (step[0], step[1] * inner[1])


def condense_with_trace(pattern: SignPattern) -> CondensationTrace:
    grid = [list(r.signs()) for r in pattern.row_vectors]
    row_map: list[Optional[tuple[int, int]]] = [(i, 1) for i in range(pattern.rows)]
    col_map: list[Optional[tuple[int, int]]] = [(j, 1) for j in range(pattern.cols)]
    while True:
        kept, mapping = _line_pass(grid)
        row_changed = len(kept) != len(grid)
        grid = kept
        row_map = [_compose(mapping, m) for m in row_map]
        if not grid:
            col_map = [None] * pattern.cols
            break

        cols = [list(col) for col in zip(*grid)]
        kept_cols, mapping = _line_pass(cols)
        col_changed = len(kept_cols) != len(cols)
        grid = [list(row) for row in zip(*kept_cols)]
        col_map = [_compose(mapping, m) for m in col_map]
        if not (row_changed or col_changed):
            break
    condensed = SignPattern.from_grid(grid) if grid else SignPattern([], cols=0)
    return CondensationTrace(condensed, tuple(row_map), tuple(col_map))


def condense(pattern: SignPattern) -> SignPattern:
    """Remove zero lines and duplicate/opposite lines, iterating row passes
    then column passes to a fixpoint; first occurrences are kept."""
    return condense_with_trace(pattern).pattern


def max_rank(pattern: SignPattern) -> int:
    """Term rank: maximum matching of rows to columns over nonzero entries."""
    size, _ = max_rank_matching(pattern)
    return size


def max_rank_matching(pattern: SignPattern) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Term rank along with one maximum matching as (row, col) pairs."""
    adjacency = [r.support() for r in pattern.row_vectors]
    match_of_col: list[int] = [-1] * pattern.cols

    def augment(r: int, seen: list[bool]) -> bool:
        for j in adjacency[r]:
            if not seen[j]:
                seen[j] = True
                if match_of_col[j] < 0 or augment(match_of_col[j], seen):
                    match_of_col[j] = r
                    return True
        return False

    size = 0
    for r in range(pattern.rows):
        if augment(r, [False] * pattern.cols):
            size += 1
    pairs = tuple(
        (match_of_col[j], j) for j in range(pattern.cols) if match_of_col[j] >= 0
    )
    return size, pairs
