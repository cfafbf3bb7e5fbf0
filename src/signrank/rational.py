"""Exact rational linear algebra, eliminated in integers.

Everything is immutable and pure: operations return new objects and never
round. Matrices are dense on purpose; dimensions in this package stay at
desk scale (well under ~20 in each direction). A RationalMatrix holds
Fractions, but no elimination divides by them: every one scales the rows
to integers (`integer_rows`) and runs the one fraction-free Gauss-Jordan
elimination below, and Fractions appear again only in what it returns.
There is no feasibility solver here: strict feasibility is a sign-vector
question, answered in covectors by a conformal cover of cocircuits.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import DimensionError, ParseError, SingularBlockError

__all__ = [
    "RationalMatrix",
    "RationalSubspace",
    "parse_rational",
    "format_rational",
    "rref",
    "rank",
    "integer_rows",
    "integer_nullspace",
    "maximal_minors",
    "nullspace_basis",
    "orth_complement",
    "schur_complement",
]


def parse_rational(token: str) -> Fraction:
    """Parse an optionally signed integer or `p/q` fraction; rejects q = 0."""
    text = token.strip()
    num, slash, den = text.partition("/")
    try:
        if slash:
            n, d = int(num), int(den)
            if d == 0:
                raise ParseError(f"zero denominator in {token!r}")
            return Fraction(n, d)
        return Fraction(int(num))
    except ValueError:
        raise ParseError(f"invalid rational literal {token!r}") from None


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class RationalMatrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "data", "_hash")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        # a Fraction entry is kept as it is: re-wrapping it costs more than
        # eliminating a small matrix
        grid = tuple(tuple(e if type(e) is Fraction else Fraction(e) for e in row) for row in data)
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise DimensionError("ragged rows in matrix literal")
            if cols is not None and cols != width:
                raise DimensionError(f"declared {cols} columns, rows have {width}")
        else:
            width = cols or 0
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", grid)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        zero = Fraction(0)
        return cls([[zero] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "RationalMatrix":
        cols = [tuple(c) for c in columns]
        if cols:
            height = len(cols[0])
            if any(len(c) != height for c in cols):
                raise DimensionError("ragged columns")
        else:
            height = rows or 0
        return cls([[c[i] for c in cols] for i in range(height)], cols=len(cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def columns(self) -> Iterator[tuple]:
        return (self.column(j) for j in range(self.cols))

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        tdata = other.data
        out = []
        for row in self.data:
            out.append(
                [
                    sum((row[k] * tdata[k][j] for k in range(self.cols)), Fraction(0))
                    for j in range(other.cols)
                ]
            )
        return RationalMatrix(out, cols=other.cols)

    def apply(self, vector: Sequence) -> tuple:
        """Matrix-vector product, returned as a tuple of Fractions."""
        if len(vector) != self.cols:
            raise DimensionError(f"vector of length {len(vector)} against {self.shape}")
        vec = [Fraction(e) for e in vector]
        return tuple(
            sum((row[k] * vec[k] for k in range(self.cols)), Fraction(0)) for row in self.data
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.data for e in row)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.shape == other.shape and self.data == other.data

    def __hash__(self) -> int:
        # kept after the first call: hashing every Fraction entry would
        # dominate a cache lookup keyed on the matrix
        try:
            return self._hash
        except AttributeError:
            value = hash((self.shape, self.data))
            object.__setattr__(self, "_hash", value)
            return value

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(e) for e in row) for row in self.data)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    @classmethod
    def parse(cls, text: str) -> "RationalMatrix":
        """Parse the row-per-line whitespace-separated text format."""
        rows = []
        width = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            tokens = line.split()
            if not tokens:
                continue
            entries = []
            for colno, tok in enumerate(tokens, start=1):
                try:
                    entries.append(parse_rational(tok))
                except ParseError as exc:
                    raise ParseError(str(exc), line=lineno, col=colno) from None
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ParseError(
                    f"row has {len(entries)} entries, expected {width}", line=lineno
                )
            rows.append(entries)
        if not rows:
            raise ParseError("empty matrix")
        return cls(rows)

    def to_text(self) -> str:
        return "\n".join(" ".join(format_rational(e) for e in row) for row in self.data) + "\n"


def integer_rows(rows: Sequence[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """D, the lcm of the entries' denominators, and the rows of D times
    the matrix, which are integers. Scaling changes no sign, rank or
    kernel."""
    scale = lcm(*(e.denominator for row in rows for e in row))
    return scale, tuple(tuple(e.numerator * (scale // e.denominator) for e in row) for row in rows)


def _eliminate(grid: list) -> tuple[tuple[int, ...], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss,
    Math. Comp. 22, 1968); returns the pivot columns and the last pivot d.

    The list is reduced in place: rows are swapped and replaced, never
    mutated. Afterwards each pivot row holds d at its pivot and 0 at the
    other pivots, and the rows below the pivot rows are zero, so the rows
    over d are the reduced row echelon form. Every entry stays a minor of
    the input, so each division by the previous pivot is exact.
    """
    nrows = len(grid)
    ncols = len(grid[0]) if grid else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if grid[i][c]), None)
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        lead = grid[r]
        pivot = lead[c]
        for i in range(nrows):
            if i != r:
                f = grid[i][c]
                grid[i] = [(pivot * a - f * b) // prev for a, b in zip(grid[i], lead)]
        pivots.append(c)
        prev = pivot
        r += 1
        if r == nrows:
            break
    return tuple(pivots), prev


def rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Unique reduced row echelon form and its pivot columns."""
    grid = list(integer_rows(matrix.data)[1])
    pivots, d = _eliminate(grid)
    return RationalMatrix([[Fraction(e, d) for e in row] for row in grid], cols=matrix.cols), pivots


def rank(matrix: RationalMatrix) -> int:
    pivots, _ = _eliminate(list(integer_rows(matrix.data)[1]))
    return len(pivots)


def integer_nullspace(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Integer basis of {x : Rx = 0} for integer rows R of length ncols.

    One vector per non-pivot column f of R's elimination: d at f, 0 at the
    other non-pivot columns, and minus the reduced row's entry in column f
    at each pivot. Its last nonzero entry is d, at f. The input is not
    modified.
    """
    grid = list(rows)
    pivots, d = _eliminate(grid)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[f] = d
        for row, p in zip(grid, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis


def maximal_minors(rows: Sequence[Sequence[int]]) -> dict[int, int]:
    """chi(T) = det of the rows T, for every k-set T of n x k integer rows,
    up to one global sign; keyed by the bitmask of T. Rows of rank below k
    give 0 on every T.

    One elimination of the transpose leaves pivot columns P, each d on its
    own row and 0 elsewhere; det G[:, T] of the reduced grid G is chi(T)
    times one factor. From chi(P) = d, a T expands along its top non-pivot
    column q: only the rows r of the pivots T leaves out give nonzero
    minors, each det G[:, T - q + p_r] over d up to sign. So every state
    reads states with one non-pivot column fewer, C(n, k) states in all.
    """
    n = len(rows)
    grid = [list(column) for column in zip(*rows)]
    k = len(grid)
    pivots, d = _eliminate(grid)
    if len(pivots) < k:
        return dict.fromkeys((sum(1 << i for i in t) for t in combinations(range(n), k)), 0)
    kept = sum(1 << p for p in pivots)
    table = {kept: d}
    for j in range(1, min(k, n - k) + 1):
        left = [(sum(1 << p for _, p in out), out) for out in combinations(enumerate(pivots), j)]
        for taken in combinations([c for c in range(n) if not kept >> c & 1], j):
            q = taken[-1]
            column = [row[q] for row in grid]
            into = sum(1 << c for c in taken)
            for mask, out in left:
                t = kept ^ mask | into
                at = (t & (1 << q) - 1).bit_count()  # the position of q in T
                total = 0
                for r, p in out:
                    if column[r]:
                        swapped = t ^ (1 << q | 1 << p)
                        term = column[r] * table[swapped]
                        # the Laplace signs of q in T and of p_r in T - q + p_r
                        total += -term if (at + (swapped & (1 << p) - 1).bit_count()) & 1 else term
                table[t] = total // d
    return table


class RationalSubspace:
    """A subspace of Q^n given by a full-column-rank rational basis matrix."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: RationalMatrix):
        if basis.rows != ambient_dim:
            raise DimensionError(f"basis has {basis.rows} rows, ambient dimension is {ambient_dim}")
        if rank(basis) != basis.cols:
            raise DimensionError("basis columns are linearly dependent")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("RationalSubspace is immutable")

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "RationalSubspace":
        """Span of possibly dependent vectors, reduced to a basis."""
        rows = [tuple(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise DimensionError("spanning vector length does not match ambient dimension")
        reduced, pivots = rref(RationalMatrix(rows, cols=ambient_dim))
        return cls(ambient_dim, RationalMatrix.from_columns(reduced.data[: len(pivots)], rows=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "RationalSubspace":
        return cls(ambient_dim, RationalMatrix.zeros(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim: int) -> "RationalSubspace":
        return cls(ambient_dim, RationalMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def canonical_basis(self) -> RationalMatrix:
        """Reduced column echelon basis; equal subspaces give equal matrices."""
        reduced, _ = rref(self.basis.transpose())
        cols = [reduced.row(i) for i in range(self.dim)]
        return RationalMatrix.from_columns(cols, rows=self.ambient_dim)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalSubspace)
            and self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and self.canonical_basis() == other.canonical_basis()
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.canonical_basis()))

    def __repr__(self) -> str:
        return f"RationalSubspace(dim {self.dim} of Q^{self.ambient_dim})"


def nullspace_basis(matrix: RationalMatrix) -> RationalSubspace:
    """The solution space {x : Mx = 0} as a subspace of Q^cols.

    The basis vector of each non-pivot column of M's reduced form is 1
    there and 0 at the other non-pivot columns: the integer kernel vector
    over its last nonzero entry.
    """
    cols = []
    for vec in integer_nullspace(integer_rows(matrix.data)[1], matrix.cols):
        d = next(v for v in reversed(vec) if v)
        cols.append(tuple(Fraction(v, d) for v in vec))
    return RationalSubspace(matrix.cols, RationalMatrix.from_columns(cols, rows=matrix.cols))


def orth_complement(subspace: RationalSubspace) -> RationalSubspace:
    """Orthogonal complement, again with a rational basis."""
    return nullspace_basis(subspace.basis.transpose())


def schur_complement(matrix: RationalMatrix, block: int) -> RationalMatrix:
    """E - B D^{-1} C for the partition [[D, C], [B, E]] with D the leading block x block."""
    if block > min(matrix.rows, matrix.cols):
        raise DimensionError(f"leading block {block} exceeds matrix shape {matrix.shape}")
    n = block
    q = matrix.cols - n
    # solve D X = C by reducing [D | C]; no inverse of D is formed
    reduced, pivots = rref(RationalMatrix(matrix.data[:n], cols=matrix.cols))
    if pivots != tuple(range(n)):
        raise SingularBlockError("leading block is singular")
    x = RationalMatrix([row[n:] for row in reduced.data], cols=q)
    bottom = matrix.data[n:]
    bx = RationalMatrix([row[:n] for row in bottom], cols=n).mul(x)
    return RationalMatrix([[e - v for e, v in zip(row[n:], r)] for row, r in zip(bottom, bx.data)], cols=q)
