"""Sign vectors, sign patterns, and the combinatorial calculus on them.

Signs are the ints -1, 0, +1. A SignVector stores two bit masks (positive
and negative support), which keeps orthogonality tests and the exponential
enumerations elsewhere in the package cheap. The canonical total order on
sign vectors is lexicographic under the entry encoding 0 -> 0, + -> 1,
- -> 2; `SignVector.sort_key` realizes it as a base-3 integer, the
canonical index of the vector among all 3^n.

A set of length-n vectors is one 3^n-bit int over that index, and Z_i,
the indices with digit 0 at coordinate i, is the one per-coordinate mask:
shifted up by 3^(n-1-i) it marks the + digits there, by twice that the -
digits. `set_perp` is one transform over the index, n steps of a few
big-int operations each, whatever the size of the set. `conformal_cover`
is bitsliced the same way over the last six coordinates and walks the
leading ones, so it builds sign(L) from the cocircuits of L a 3^6-bit
chunk at a time. A SignVectorSet is either built from vectors (a sorted
tuple and a frozenset, no 3^n allocation, however long the vectors) or
holds 3^n bits, from `set_perp`, `conformal_cover` or the canonical
indices of its members (`SignVectorSet.from_indices`), and decodes its
members lazily, in canonical order, by base-3 arithmetic. 3^n-bit ints
live only in `set_perp`, the negation of a bits-backed set, the
bits-backed sets themselves and a vector-built set compared with a
bits-backed one; the masks Z_i are cached up to length 10 and built one
at a time past it.
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
    "canonical_index",
    "sign_of",
    "sign_of_vector",
    "orthogonal",
    "set_perp",
    "conformal_cover",
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


def canonical_index(n: int, pos: int, neg: int) -> int:
    """`SignVector(n, pos, neg).sort_key()`, without building the vector."""
    key = 0
    for table in _sort_key_tables(n):
        key += table[pos & 0xFF] + 2 * table[neg & 0xFF]
        pos >>= 8
        neg >>= 8
    return key


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
        return canonical_index(self.n, self.pos, self.neg)

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
    never allocates 3^n bits. Built by `set_perp` or `from_indices`, it
    keeps a 3^n-bit int (bit k set iff the vector whose `sort_key` is k is
    a member) and decodes members lazily, in canonical order, as they are
    iterated; `len`, `in`, `contains_zero`, `is_negation_closed` and `==`
    read the bits. A vector-backed set compared with a bits-backed one of
    the same length derives (and keeps) its own bits.
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
    def _from_sorted(cls, n: int, vectors: Sequence[SignVector]) -> "SignVectorSet":
        """The vector-backed set of distinct vectors already in canonical order."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_vectors", tuple(vectors))
        object.__setattr__(self, "_lookup", frozenset(vectors))
        object.__setattr__(self, "_bits", None)
        return self

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

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "SignVectorSet":
        """The bits-backed set of the length-n vectors with the given
        canonical indices (`SignVector.sort_key`); allocates 3^n bits."""
        return cls._from_bits(n, _index_bits(n, indices))

    def _bitset(self) -> int:
        """The members as a 3^n-bit int, derived once for a vector-backed set."""
        if self._bits is None:
            object.__setattr__(self, "_bits", _index_bits(self.n, (v.sort_key() for v in self._vectors)))
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
        if self._lookup is not None:
            # -v swaps the masks: compare the pairs, build no negated vector
            pairs = {(v.pos, v.neg) for v in self._vectors}
            return pairs == {(q, p) for p, q in pairs}
        return _negated_bits(self.n, self._bits) == self._bits

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


def _index_bits(n: int, indices: Iterable[int]) -> int:
    """The 3^n-bit int with the given canonical indices set."""
    index = bytearray((3**n + 7) // 8)
    for k in indices:
        index[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(index, "little")


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


# Up to this length the zero masks are cached: the minimum-rank ladder asks
# set_perp for up to 10 columns, and 10 masks of 3^10 bits take 74 KB.
_CACHED_WIDTH = 10


def _zero_mask(n: int, i: int) -> int:
    """Z_i: the 3^n-bit index set of the length-n vectors with 0 at
    coordinate i, blocks of 3^(n-1-i) indices every 3^(n-i)."""
    w = 3 ** (n - 1 - i)
    return _tile((1 << w) - 1, 3 * w, 3**i)


@lru_cache(maxsize=16)
def _cached_zero_masks(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((3 ** (n - 1 - i), _zero_mask(n, i)) for i in range(n))


def _zero_masks(n: int) -> Iterable[tuple[int, int]]:
    """(3^(n-1-i), Z_i) for each coordinate i. Shifting an index in Z_i up
    by w = 3^(n-1-i) sets its digit i to 1 (+), by 2w to 2 (-). Cached up to
    length `_CACHED_WIDTH`; a longer call builds one mask at a time."""
    if n <= _CACHED_WIDTH:
        return _cached_zero_masks(n)
    return ((3 ** (n - 1 - i), _zero_mask(n, i)) for i in range(n))


def _negated_bits(n: int, bits: int) -> int:
    """The index set of the negations of the members of `bits`: at each
    coordinate, the digit-1 (+) and digit-2 (-) blocks swap."""
    for w, zero in _zero_masks(n):
        bits = bits & zero | (bits >> w & zero) << 2 * w | (bits >> 2 * w & zero) << w
    return bits


def _closed_indices(vectors, n: Optional[int]) -> tuple[int, int]:
    """n and the index set of the members of a set_perp input and of their
    negations, after the input checks."""
    if isinstance(vectors, SignVectorSet):
        if n is not None and n != vectors.n:
            raise DimensionError(f"sign vectors of length {vectors.n} against ambient length {n}")
        n = vectors.n
        if vectors._lookup is None:
            return n, vectors._bits | _negated_bits(n, vectors._bits)
        vectors = vectors._vectors
    else:
        vectors = list(vectors)
        if n is None:
            if not vectors:
                raise DimensionError("ambient length needed for an empty vector collection")
            n = vectors[0].n
        for v in vectors:
            if v.n != n:
                raise DimensionError(f"sign vector of length {v.n} against ambient length {n}")
    pairs = ((p, q) for v in vectors for p, q in ((v.pos, v.neg), (v.neg, v.pos)))
    return n, _index_bits(n, (canonical_index(n, p, q) for p, q in pairs))


def set_perp(vectors, n: int | None = None) -> SignVectorSet:
    """All sign vectors orthogonal to every member of the given set.

    Accepts a SignVectorSet (preferred) or any iterable of SignVector plus
    the ambient length n; every member must have length n.

    One transform over the canonical index (`SignVector.sort_key`), in the
    manner of Yates's algorithm: n steps of a few 3^n-bit operations each,
    however many members the set has. Let T be the members and their
    negations. Y is orthogonal to every member unless some X in T has
    x_i y_i >= 0 at every coordinate and x_i y_i > 0 at one (Bjorner, Las
    Vergnas, Sturmfels, White & Ziegler, Oriented Matroids, 3.4).

    Step i turns digit i of every index from an X digit into a Y digit.
    After it, an index whose digits up to i are Y's and past i are X's is
    in U when some X in T with those last digits has x_j y_j >= 0 at each
    j <= i, and in B when some such X also has x_j y_j > 0 at one of them.
    A Y digit 0 takes any X digit, and the product is 0; a Y digit + takes
    the X digits 0 and +, the latter with a positive product, and - takes
    0 and - alike. After the last step B holds the vectors that are not
    orthogonal to some member, and the result is its complement,
    bits-backed and decoded lazily.
    """
    n, compatible = _closed_indices(vectors, n)  # U before the first step: T
    agree = 0  # B
    for w, zero in _zero_masks(n):
        u0, b0 = compatible & zero, agree & zero
        # digit 0 ORs the three X digits; digits + and - take X digit 0
        # (u0, b0, moved up) and their own X digit, already in place, which
        # puts every index of U with a nonzero digit i into B
        agree = (agree | agree >> w | agree >> 2 * w) & zero | (b0 | b0 << w) << w | compatible ^ u0
        compatible |= (compatible >> w | compatible >> 2 * w) & zero | (u0 | u0 << w) << w
    return SignVectorSet._from_bits(n, ((1 << 3**n) - 1) ^ agree)


# A set is kept as 3^n bits while that costs at most this many bits per
# member, well under the hundred-odd bytes of objects a member of a
# vector-backed set costs; a sparser set (a line in a long ambient space,
# say) stays vector-backed and never allocates 3^n bits.
_BITS_PER_MEMBER = 256


def conformal_cover(n: int, generators: Iterable[tuple[int, int]]) -> SignVectorSet:
    """The length-n sign vectors X whose conformal generators cover supp(X).

    Each generator is a (pos, neg) mask pair; it is conformal to X when X
    agrees with it on its support. The zero vector is always a member. For
    generators that include the cocircuits of a subspace L and lie in
    sign(L), the result is sign(L), since every covector is a conformal
    composition of cocircuits (Bjorner, Las Vergnas, Sturmfels, White &
    Ziegler, Oriented Matroids, 3.7).

    The last m = min(n, 6) coordinates are bitsliced: the 3^m indices that
    share their leading digits form one chunk. Over them, the vectors a
    generator is conformal to are the AND of the P_i / N_i masks on its low
    support. A coordinate is covered in a chunk by the OR of that set over
    the generators alive there whose support holds it; the chunk is the AND
    of that cover over the nonzero leading coordinates and of (zero or
    covered) over the low ones. The leading n - m coordinates are walked
    depth first with the digits 0, +, - in that order, so chunks come in
    canonical order. A generator stays alive while it is conformal to the
    prefix; a prefix whose nonzero coordinate lies in no alive support has
    no member below it and is cut, and a nonzero prefix with one alive
    generator has that generator as its one member. Every prefix that
    survives extends to a member when the generators are the covectors
    above, so the walk costs in proportion to the result, and a sparse
    result at large n (see `_BITS_PER_MEMBER`) is vector-backed and never
    allocates 3^n bits.
    """
    m = min(n, _LOW_DIGITS)
    lead = n - m
    lead_mask = (1 << lead) - 1
    full = (1 << 3**m) - 1
    plus_and, minus_and, low_zero = _conjunction_masks(m)
    generators = list(generators)
    # per generator, the low-digit vectors it is conformal to and its
    # support coordinates; per coordinate, bitmasks over the generators that
    # are + there, and - there
    conformal = [plus_and[gp >> lead] & minus_and[gq >> lead] for gp, gq in generators]
    coords = [[i for i in range(n) if (gp | gq) >> i & 1] for gp, gq in generators]
    columns = bit_columns(2 * n, [gp | gq << n for gp, gq in generators])
    pos, neg = columns[:n], columns[n:]
    support = [p | q for p, q in zip(pos, neg)]
    chunks = []  # (chunk index, leading pos, leading neg, chunk bits), in canonical order

    def live(alive: int, nonzero: tuple) -> bool:
        """Whether each nonzero coordinate of a prefix lies in the support
        of an alive generator."""
        for j in nonzero:
            if not alive & support[j]:
                return False
        return True

    # prefixes (length, alive generators, chunk index, pos, neg, nonzero
    # coordinates), children pushed -, +, 0 so that they pop in canonical order
    stack = [(0, (1 << len(generators)) - 1, 0, 0, 0, ())]
    push = stack.append
    while stack:
        i, alive, index, hp, hn, nonzero = stack.pop()
        if not alive:
            # no generator is left to cover a nonzero coordinate, so the
            # prefix is zero and its one member the zero vector
            chunks.append((index * 3 ** (lead - i), hp, hn, 1))
            continue
        if nonzero and not alive & (alive - 1):
            # one generator covers a nonzero prefix, so it is the one member
            gp, gq = generators[alive.bit_length() - 1]
            hp, hn = gp & lead_mask, gq & lead_mask
            word = 1 << canonical_index(m, gp >> lead, gq >> lead)
            chunks.append((canonical_index(lead, hp, hn), hp, hn, word))
            continue
        if i == lead:
            # alive generators are conformal to the prefix, so their support
            # lies in its nonzero coordinates and the low ones
            cover = [0] * n
            while alive:
                lowest = alive & -alive
                g = lowest.bit_length() - 1
                alive ^= lowest
                allowed = conformal[g]
                for j in coords[g]:
                    cover[j] |= allowed
            word = full
            for j in nonzero:
                word &= cover[j]
            for j in range(lead, n):
                word &= low_zero[j - lead] | cover[j]
            if word:
                chunks.append((index, hp, hn, word))
            continue
        bit = 1 << i
        index *= 3
        grown = nonzero + (i,)
        rest = alive & ~pos[i]
        if rest & neg[i] and (rest == alive or live(rest, nonzero)):
            push((i + 1, rest, index + 2, hp, hn | bit, grown))
        rest = alive & ~neg[i]
        if rest & pos[i] and (rest == alive or live(rest, nonzero)):
            push((i + 1, rest, index + 1, hp | bit, hn, grown))
        rest = alive & ~support[i]
        if rest == alive or live(rest, nonzero):
            push((i + 1, rest, index, hp, hn, nonzero))

    size = sum(word.bit_count() for *_, word in chunks)
    if 3**n <= _BITS_PER_MEMBER * size:
        return SignVectorSet._from_bits(n, _join_chunks(n, chunks))
    low = _low_digit_masks(n)
    members = []
    for _, hp, hn, word in chunks:
        while word:
            lowest = word & -word
            p, q = low[lowest.bit_length() - 1]
            members.append(SignVector(n, hp | p, hn | q))
            word ^= lowest
    return SignVectorSet._from_sorted(n, members)


def bit_columns(n: int, masks: Sequence[int]) -> list[int]:
    """For each bit position i < n, the mask whose bit g is bit i of
    masks[g]: the transpose of the masks read as rows of n bits."""
    if not masks:
        return [0] * n
    # the binary digits of mask | 1 << n, past "0b1", are bits n-1 .. 0, so
    # the rows go in reversed and the columns come out reversed
    top = 1 << n
    columns = list(zip(*[bin(mask | top)[3:] for mask in reversed(masks)]))
    return [int("".join(column), 2) for column in reversed(columns)]


@lru_cache(maxsize=8)
def _conjunction_masks(m: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Over 3^m bits: for every coordinate mask s < 2^m, the AND over the
    coordinates i in s of the indices with + at i (and of those with - at
    i), all 3^m indices for s = 0; and for each coordinate, the indices
    with 0 there. m <= 6 only."""
    full = (1 << 3**m) - 1
    plus, minus = [full] * (1 << m), [full] * (1 << m)
    zeros = []
    for i, (w, zero) in enumerate(_zero_masks(m)):
        bit, p, q = 1 << i, zero << w, zero << 2 * w
        for s in range(bit):
            plus[bit | s] = plus[s] & p
            minus[bit | s] = minus[s] & q
        zeros.append(zero)
    return tuple(plus), tuple(minus), tuple(zeros)


def _join_chunks(n: int, chunks: Sequence[tuple[int, int, int, int]]) -> int:
    """The 3^n-bit int of the 3^m-bit chunks (index, leading pos, leading
    neg, bits) of `conformal_cover`, in canonical order."""
    m = min(n, _LOW_DIGITS)
    if m == n:
        return chunks[0][3] if chunks else 0
    width = 3**m  # eight chunks fill `width` bytes
    data = bytearray((3**n + 7) // 8)

    def flush(group: int, block: int) -> None:
        start = group * width
        end = min(start + width, len(data))
        data[start:end] = block.to_bytes(width, "little")[: end - start]

    group, block = 0, 0
    for index, _, _, word in chunks:
        here, slot = divmod(index, 8)
        if here != group:
            flush(group, block)
            group, block = here, 0
        block |= word << (slot * width)
    flush(group, block)
    return int.from_bytes(data, "little")


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
