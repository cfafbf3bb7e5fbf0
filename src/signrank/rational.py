"""Exact rational linear algebra on dense Fraction matrices.

Everything is immutable and pure: operations return new objects and never
round. Matrices are dense on purpose; dimensions in this package stay at
desk scale (well under ~20 in each direction). strict_feasibility eliminates
on primitive integer rows and back-substitutes its witness in rationals.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionError, ParseError, SingularBlockError

__all__ = [
    "RationalMatrix",
    "RationalSubspace",
    "parse_rational",
    "format_rational",
    "rref",
    "rank",
    "integer_determinant",
    "nullspace_basis",
    "orth_complement",
    "schur_complement",
    "strict_feasibility",
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
        grid = tuple(tuple(Fraction(e) for e in row) for row in data)
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
        cols = [tuple(Fraction(e) for e in c) for c in columns]
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


def _rref_grid(grid: list[list[Fraction]]) -> tuple[int, ...]:
    """In-place reduced row echelon form; returns the pivot columns."""
    nrows = len(grid)
    ncols = len(grid[0]) if grid else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if grid[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        pv = grid[r][c]
        if pv != 1:
            grid[r] = [e / pv for e in grid[r]]
        lead = grid[r]
        for i in range(nrows):
            f = grid[i][c]
            if i != r and f:
                grid[i] = [a - f * b for a, b in zip(grid[i], lead)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(pivots)


def rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Unique reduced row echelon form and its pivot columns."""
    grid = [list(row) for row in matrix.data]
    pivots = _rref_grid(grid)
    return RationalMatrix(grid, cols=matrix.cols), pivots


def rank(matrix: RationalMatrix) -> int:
    grid = [list(row) for row in matrix.data]
    return len(_rref_grid(grid))


def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Fraction-free: every intermediate entry is a minor of the input, so each
    division by the previous pivot is exact. A zero pivot is replaced by a
    lower row, flipping the sign. The empty 0x0 matrix has determinant 1.
    """
    grid = [list(row) for row in rows]
    size = len(grid)
    if any(len(row) != size for row in grid):
        raise DimensionError("determinant of a non-square matrix")
    if not size:
        return 1
    sign = 1
    prev = 1
    for c in range(size - 1):
        if not grid[c][c]:
            swap = next((i for i in range(c + 1, size) if grid[i][c]), None)
            if swap is None:
                return 0
            grid[c], grid[swap] = grid[swap], grid[c]
            sign = -sign
        lead = grid[c]
        pivot = lead[c]
        for i in range(c + 1, size):
            row = grid[i]
            f = row[c]
            for j in range(c + 1, size):
                row[j] = (pivot * row[j] - f * lead[j]) // prev
        prev = pivot
    return sign * grid[-1][-1]


def _nullspace_columns(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple]:
    """Basis columns of {x : Rx = 0} for the given constraint rows."""
    grid = [list(r) for r in rows]
    pivots = _rref_grid(grid) if grid else ()
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -grid[r][f]
        basis.append(tuple(vec))
    return basis


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
        rows = [tuple(Fraction(e) for e in v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise DimensionError("spanning vector length does not match ambient dimension")
        grid = [list(v) for v in rows]
        pivots = _rref_grid(grid) if grid else ()
        independent = [tuple(grid[i]) for i in range(len(pivots))]
        return cls(ambient_dim, RationalMatrix.from_columns(independent, rows=ambient_dim))

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
    """The solution space {x : Mx = 0} as a subspace of Q^cols."""
    cols = _nullspace_columns(matrix.data, matrix.cols)
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
    grid = [list(row) for row in matrix.data[:n]]
    if _rref_grid(grid) != tuple(range(n)):
        raise SingularBlockError("leading block is singular")
    x = RationalMatrix([row[n:] for row in grid], cols=q)
    bottom = matrix.data[n:]
    bx = RationalMatrix([row[:n] for row in bottom], cols=n).mul(x)
    return RationalMatrix([[e - v for e, v in zip(row[n:], r)] for row, r in zip(bottom, bx.data)], cols=q)


def _primitive_row(coeffs: Sequence[int], rhs: int) -> tuple[tuple[int, ...], int]:
    """Divide an integer inequality a.y >= b by gcd(a, b); keeping b inside
    the gcd makes the division exact, so no bound is rounded."""
    g = gcd(*coeffs, rhs) or 1
    return tuple(v // g for v in coeffs), rhs // g


def strict_feasibility(
    equalities: Sequence[Sequence], positives: Sequence[Sequence]
) -> Optional[tuple[Fraction, ...]]:
    """Exact homogeneous strict feasibility.

    Finds a rational x with a.x = 0 for every equality row and a.x >= 1 for
    every positive row, or returns None when no such x exists. ("> 0" and
    ">= 1" are interchangeable by homogeneous scaling.) Equalities are
    eliminated by substitution through their null space, and each reduced
    row is scaled once to primitive integers. Fourier-Motzkin elimination
    then runs on integer rows only, each combined row divided by its gcd;
    the witness is rebuilt by rational back-substitution, picking the
    midpoint of each bounded interval.
    """
    eq = [tuple(Fraction(e) for e in row) for row in equalities]
    pos = [tuple(Fraction(e) for e in row) for row in positives]
    lengths = {len(r) for r in chain(eq, pos)}
    if len(lengths) > 1:
        raise DimensionError("constraint rows have unequal lengths")
    dim = lengths.pop() if lengths else 0
    if not pos:
        return tuple(Fraction(0) for _ in range(dim))

    null_cols = _nullspace_columns(eq, dim)
    free = len(null_cols)
    reduced = []
    for row in pos:
        coeffs = tuple(
            sum((row[i] * col[i] for i in range(dim)), Fraction(0)) for col in null_cols
        )
        if not any(coeffs):
            return None  # the row is forced to 0 on the feasible set
        mult = lcm(*(e.denominator for e in coeffs))
        reduced.append(
            _primitive_row([e.numerator * (mult // e.denominator) for e in coeffs], mult)
        )

    stages = [reduced]
    system = reduced
    for var in range(free):
        merged: dict[tuple[int, ...], int] = {}
        lowers = []
        uppers = []
        for coeffs, rhs in system:
            c = coeffs[var]
            if c > 0:
                lowers.append((coeffs, rhs))
            elif c < 0:
                uppers.append((coeffs, rhs))
            elif coeffs not in merged or rhs > merged[coeffs]:
                merged[coeffs] = rhs
        for lc, lr in lowers:
            for uc, ur in uppers:
                scale_l = -uc[var]
                scale_u = lc[var]
                coeffs, rhs = _primitive_row(
                    [scale_l * a + scale_u * b for a, b in zip(lc, uc)],
                    scale_l * lr + scale_u * ur,
                )
                if not any(coeffs):
                    if rhs > 0:
                        return None
                    continue
                if coeffs not in merged or rhs > merged[coeffs]:
                    merged[coeffs] = rhs
        system = list(merged.items())
        stages.append(system)

    for coeffs, rhs in stages[-1]:
        if rhs > 0:
            return None

    y = [Fraction(0)] * free
    for var in range(free - 1, -1, -1):
        lo = None
        hi = None
        for coeffs, rhs in stages[var]:
            c = coeffs[var]
            if c == 0:
                continue
            rest = sum(
                (coeffs[j] * y[j] for j in range(var + 1, free)), Fraction(0)
            )
            bound = (rhs - rest) / c
            if c > 0:
                lo = bound if lo is None or bound > lo else lo
            else:
                hi = bound if hi is None or bound < hi else hi
        if lo is not None and hi is not None:
            y[var] = (lo + hi) / 2
        elif lo is not None:
            y[var] = lo + 1
        elif hi is not None:
            y[var] = hi - 1

    x = [Fraction(0)] * dim
    for j, col in enumerate(null_cols):
        if y[j]:
            for i in range(dim):
                x[i] += y[j] * col[i]
    return tuple(x)
