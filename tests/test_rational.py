"""Exact linear algebra kernel."""

from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import gcd
from random import Random
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signrank import covectors
from signrank.covectors import sign_vectors, strict_feasibility
from signrank.errors import DimensionError, ParseError, SingularBlockError
from signrank.rational import (
    RationalMatrix,
    RationalSubspace,
    format_rational,
    integer_nullspace,
    integer_rows,
    maximal_minors,
    nullspace_basis,
    orth_complement,
    parse_rational,
    rank,
    rref,
    schur_complement,
)
from signrank.signs import SignVector, sign_of_vector

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def small_matrix(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_fractions, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(RationalMatrix)
        )
    )


class TestParsing:
    def test_parse_fraction(self):
        assert parse_rational("-3/7") == Fraction(-3, 7)
        assert parse_rational(" 5 ") == 5
        assert parse_rational("+2/4") == Fraction(1, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_bad_literal(self):
        with pytest.raises(ParseError):
            parse_rational("a/b")

    def test_format_round_trip(self):
        for q in (Fraction(3), Fraction(-5, 7), Fraction(0)):
            assert parse_rational(format_rational(q)) == q

    def test_matrix_parse_diagnostics(self):
        with pytest.raises(ParseError) as exc:
            RationalMatrix.parse("1 2\n3 1/0\n")
        assert exc.value.line == 2 and exc.value.col == 2

    def test_matrix_text_round_trip(self):
        m = RationalMatrix([[Fraction(1, 2), -3], [0, Fraction(7, 5)]])
        assert RationalMatrix.parse(m.to_text()) == m

    def test_matrix_parse_comments(self):
        m = RationalMatrix.parse("# header\n1 2 # trailing\n3 4\n")
        assert m.data == ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParseError):
            RationalMatrix.parse("1 2\n3\n")


class TestConstruction:
    def test_ints_bools_and_fractions_give_equal_matrices(self):
        ints = [[1, 0], [1, 1]]
        bools = [[True, False], [True, True]]
        fractions = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
        built = [RationalMatrix(grid) for grid in (ints, bools, fractions)]
        built += [RationalMatrix.from_columns(list(zip(*grid))) for grid in (ints, bools, fractions)]
        for m in built:
            assert m == built[0] and hash(m) == hash(built[0])
            assert all(type(e) is Fraction for row in m.data for e in row)

    def test_a_fraction_entry_is_kept_as_it_is(self):
        half = Fraction(1, 2)
        assert RationalMatrix([[half, 3]]).entry(0, 0) is half
        assert RationalMatrix.from_columns([[half], [3]]).entry(0, 0) is half

    def test_other_entries_are_converted(self):
        m = RationalMatrix([[2, "3/4", 0.5]])
        assert m.data == ((Fraction(2), Fraction(3, 4), Fraction(1, 2)),)
        assert all(type(e) is Fraction for e in m.row(0))


def reference_rref(grid: list[list[Fraction]]) -> tuple[int, ...]:
    """In-place reduced row echelon form over Fractions, dividing by each
    pivot as it goes; returns the pivot columns. The elimination that the
    fraction-free kernel replaced, kept as its oracle."""
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


def assert_matches_reference(m: RationalMatrix):
    """rref, rank, nullspace_basis, from_spanning and schur_complement
    (every leading block) of m against what reference_rref gives."""
    cols = m.cols
    grid = [list(row) for row in m.data]
    pivots = reference_rref(grid)
    reduced, got_pivots = rref(m)
    assert got_pivots == pivots and reduced.data == tuple(map(tuple, grid))
    assert rank(m) == len(pivots)
    null = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -grid[r][f]
        null.append(tuple(vec))
    assert list(nullspace_basis(m).basis.columns()) == null
    spanned = RationalSubspace.from_spanning(cols, m.data).basis
    assert list(spanned.columns()) == list(map(tuple, grid[: len(pivots)]))
    for n in range(min(m.rows, cols) + 1):
        top = [list(row) for row in m.data[:n]]
        if reference_rref(top) != tuple(range(n)):
            with pytest.raises(SingularBlockError):
                schur_complement(m, n)
            continue
        expected = tuple(
            tuple(row[n + j] - sum((row[i] * top[i][n + j] for i in range(n)), Fraction(0)) for j in range(cols - n))
            for row in m.data[n:]
        )
        assert schur_complement(m, n).data == expected


class TestAgainstReferenceRref:
    @pytest.mark.parametrize("shape", [(3, 3), (2, 4)], ids=["3x3", "2x4"])
    def test_every_small_sign_matrix(self, shape):
        rows, cols = shape
        for entries in product((-1, 0, 1), repeat=rows * cols):
            assert_matches_reference(
                RationalMatrix([entries[i * cols : (i + 1) * cols] for i in range(rows)], cols=cols)
            )

    def test_seeded_matrices_up_to_six_by_seven(self):
        # denominators up to 7, zero columns and planted dependent rows
        rng = Random(18)
        for _ in range(2000):
            nrows, cols = rng.randint(0, 6), rng.randint(1, 7)
            den = rng.randint(1, 7)
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(cols)] for _ in range(nrows)]
            if nrows and rng.random() < 0.3:
                j = rng.randrange(cols)
                for row in rows:
                    row[j] = Fraction(0)
            if nrows > 1 and rng.random() < 0.4:
                a, b = rng.sample(range(nrows), 2)
                t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                rows[a] = [t * v for v in rows[b]]
            assert_matches_reference(RationalMatrix(rows, cols=cols))

    @settings(max_examples=100, deadline=None)
    @given(small_matrix(max_dim=5))
    def test_property(self, m):
        assert_matches_reference(m)


class TestRref:
    def test_identity_fixed(self):
        m = RationalMatrix.identity(2)
        reduced, pivots = rref(m)
        assert reduced == m and pivots == (0, 1)

    def test_proportional_rows(self):
        reduced, pivots = rref(RationalMatrix([[1, 2], [2, 4]]))
        assert reduced == RationalMatrix([[1, 2], [0, 0]])
        assert pivots == (0,)

    def test_swap_case(self):
        reduced, pivots = rref(RationalMatrix([[0, 1], [1, 1]]))
        assert reduced == RationalMatrix.identity(2)
        assert pivots == (0, 1)

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_rref_idempotent_and_row_space_preserved(self, m):
        reduced, pivots = rref(m)
        again, pivots2 = rref(reduced)
        assert again == reduced and pivots2 == pivots
        # row space preserved: stacking changes no rank
        stacked = RationalMatrix(list(m.data) + list(reduced.data), cols=m.cols)
        assert rank(stacked) == rank(m) == len(pivots)


class TestRank:
    def test_zero(self):
        assert rank(RationalMatrix.zeros(3, 3)) == 0

    def test_identity(self):
        assert rank(RationalMatrix.identity(4)) == 4

    def test_proportional(self):
        assert rank(RationalMatrix([[1, 1], [1, 1], [2, 2]])) == 1

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_rank_transpose_and_nullity(self, m):
        r = rank(m)
        assert r == rank(m.transpose())
        assert r + nullspace_basis(m).dim == m.cols


def leibniz_determinant(rows):
    """Sum over permutations; independent of any elimination order."""
    size = len(rows)
    total = 0
    for perm in permutations(range(size)):
        inversions = sum(
            1 for i in range(size) for j in range(i + 1, size) if perm[i] > perm[j]
        )
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


class TestIntegerRows:
    def test_scales_by_the_lcm_of_the_denominators(self):
        rows = [[Fraction(1, 2), Fraction(-2, 3)], [3, 0]]
        assert integer_rows(rows) == (6, ((3, -4), (18, 0)))
        assert integer_rows([]) == (1, ())


def cofactor_vector(rows):
    """The signed maximal minors of a (k-1) x k block, by Leibniz: a
    vector in its kernel that owes nothing to elimination."""
    k = len(rows) + 1
    return tuple((-1) ** j * leibniz_determinant([row[:j] + row[j + 1 :] for row in rows]) for j in range(k))


def assert_integer_kernel(rows, ncols):
    kernel = integer_nullspace(rows, ncols)
    r = rank(RationalMatrix(rows, cols=ncols))
    assert len(kernel) == ncols - r
    for vec in kernel:
        assert len(vec) == ncols and all(isinstance(v, int) for v in vec)
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
    # independent: together they span a space of dimension ncols - rank
    assert rank(RationalMatrix(kernel, cols=ncols)) == len(kernel)
    return kernel


def assert_on_the_cofactor_line(rows):
    (vec,) = assert_integer_kernel(rows, len(rows) + 1)
    cof = cofactor_vector(rows)
    assert any(cof)
    j = next(i for i, v in enumerate(cof) if v)
    # vec = t * cof for a nonzero rational t
    assert vec[j] != 0
    assert all(v * cof[j] == c * vec[j] for v, c in zip(vec, cof))


class TestIntegerNullspace:
    def test_empty_block_spans_the_line(self):
        # the 0 x 1 block of a k = 1 cocircuit
        assert integer_nullspace([], 1) == [(1,)]

    def test_one_row(self):
        assert_on_the_cofactor_line([[-7, 3]])
        assert integer_nullspace([[-7, 3]], 2) == [(-3, -7)]

    def test_zero_leading_pivot_swaps_rows(self):
        assert_on_the_cofactor_line([[0, 2, 1], [3, 1, 0]])
        assert_on_the_cofactor_line([[0, 2, 1, 5], [3, 1, 0, 2], [1, 0, 4, 1]])

    def test_zero_pivot_deeper_in_the_elimination(self):
        # the second column has no pivot below the first row
        assert_on_the_cofactor_line([[1, 2, 3, 0], [2, 4, 7, 1], [1, 5, 1, 2]])

    def test_dependent_blocks_have_several_vectors(self):
        for rows in ([[1, 2, 0], [2, 4, 0]], [[0, 0, 1, 3], [0, 0, 2, 6], [3, 4, 5, 0]], [[0, 0, 0], [0, 0, 0]]):
            assert not any(cofactor_vector(rows))
            assert len(assert_integer_kernel(rows, len(rows) + 1)) >= 2

    def test_every_shape_has_nullity_many_vectors(self):
        # any row count is accepted, wider and taller than (k-1) x k alike
        rng = Random(62)
        for _ in range(300):
            nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
            rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.4:
                a, b = rng.sample(range(nrows), 2)
                rows[a] = [rng.randint(-2, 2) * v for v in rows[b]]
            assert_integer_kernel(rows, ncols)

    def test_does_not_modify_input(self):
        rows = [[0, 1, 2], [1, 1, 0]]
        integer_nullspace(rows, 3)
        assert rows == [[0, 1, 2], [1, 1, 0]]

    def test_full_rank_blocks_give_the_cofactor_line(self):
        rng = Random(61)
        seen = 0
        for _ in range(300):
            k = rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k - 1)]
            if k > 1 and rng.random() < 0.3:
                rows[0][0] = 0
            if rank(RationalMatrix(rows, cols=k)) == k - 1:
                assert_on_the_cofactor_line(rows)
                seen += 1
            else:
                assert len(assert_integer_kernel(rows, k)) >= 2
        assert seen > 200


def assert_minor_table(rows):
    """maximal_minors(rows) holds every k-set of rows, and is the Leibniz
    determinant of each times one global nonzero factor (0 everywhere when
    the rows have rank below k). Returns the Leibniz table."""
    n, k = len(rows), len(rows[0]) if rows else 0
    table = maximal_minors(rows)
    subsets = combinations(range(n), k)
    exact = {sum(1 << i for i in t): leibniz_determinant([rows[i] for i in t]) for t in subsets}
    assert table.keys() == exact.keys()
    if not any(exact.values()):
        assert not any(table.values())
        return exact
    anchor = next(t for t, v in exact.items() if v)
    factor = Fraction(table[anchor], exact[anchor])
    assert factor != 0
    assert all(table[t] == factor * v for t, v in exact.items())
    return exact


class TestMaximalMinors:
    def test_empty_and_square_shapes(self):
        assert maximal_minors([]) == {0: 1}
        assert maximal_minors([[], []]) == {0: 1}
        assert maximal_minors([[0, 1], [1, 0]]).keys() == {0b11}
        assert_minor_table([[5]])

    def test_seeded_matrices_up_to_7x5(self):
        rng = Random(63)
        for n in range(1, 8):
            for k in range(1, min(n, 5) + 1):
                for _ in range(6):
                    assert_minor_table([[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)])

    def test_rank_deficient_row_subsets_give_zero(self):
        rng = Random(64)
        dependent = 0
        for _ in range(120):
            n, k = rng.randint(2, 7), rng.randint(2, 4)
            if k > n:
                continue
            rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            a, b = rng.sample(range(n), 2)
            factor = rng.randint(-2, 2)
            rows[a] = [factor * v for v in rows[b]]
            exact = assert_minor_table(rows)
            table = maximal_minors(rows)
            # every k-set holding both a and b has dependent rows
            for t, v in table.items():
                if t >> a & 1 and t >> b & 1:
                    assert v == 0 == exact[t]
                    dependent += 1
        assert dependent > 100

    def test_rank_deficient_matrices_give_zero_everywhere(self):
        for rows in ([[1, 2], [2, 4], [-3, -6]], [[0, 0, 0], [1, 1, 1], [2, 2, 2], [0, 0, 0]], [[0], [0]]):
            table = assert_minor_table(rows)
            assert not any(maximal_minors(rows).values()) and not any(table.values())

    def test_input_is_not_modified(self):
        rows = [[0, 1], [2, 3], [4, 5]]
        maximal_minors(rows)
        assert rows == [[0, 1], [2, 3], [4, 5]]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 6).flatmap(
            lambda n: st.integers(0, min(n, 4)).flatmap(
                lambda k: st.lists(
                    st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=n, max_size=n
                )
            )
        )
    )
    def test_leibniz_property(self, rows):
        if rows and not rows[0]:
            assert maximal_minors(rows) == {0: 1}
        else:
            assert_minor_table(rows)


class TestNullspace:
    def test_sum_functional(self):
        m = RationalMatrix([[1, 1, 1]])
        space = nullspace_basis(m)
        assert space.dim == 2
        for j in range(space.dim):
            assert all(v == 0 for v in m.apply(space.basis.column(j)))

    def test_identity_trivial(self):
        assert nullspace_basis(RationalMatrix.identity(3)).dim == 0

    def test_difference_functional_contains_expected_directions(self):
        space = nullspace_basis(RationalMatrix([[1, -1, 0]]))
        assert space.dim == 2
        # both directions lie in the span: appending them does not grow it
        for vec in [(1, 1, 0), (0, 0, 1)]:
            joined = RationalSubspace.from_spanning(
                3, [space.basis.column(j) for j in range(space.dim)] + [vec]
            )
            assert joined.dim == 2


class TestOrthComplement:
    def test_axis(self):
        space = RationalSubspace.from_spanning(3, [(1, 0, 0)])
        assert orth_complement(space).dim == 2

    def test_full_space(self):
        assert orth_complement(RationalSubspace.full(4)).dim == 0

    def test_diagonal_line(self):
        space = RationalSubspace.from_spanning(3, [(1, 1, 0)])
        comp = orth_complement(space)
        expected = RationalSubspace.from_spanning(3, [(1, -1, 0), (0, 0, 1)])
        assert comp == expected

    def test_dot_products_vanish(self):
        space = RationalSubspace.from_spanning(
            4, [(1, 2, 3, 4), (0, 1, 0, Fraction(1, 2))]
        )
        comp = orth_complement(space)
        assert comp.dim == 2
        for i in range(space.dim):
            u = space.basis.column(i)
            for j in range(comp.dim):
                v = comp.basis.column(j)
                assert sum(a * b for a, b in zip(u, v)) == 0

    @settings(max_examples=40, deadline=None)
    @given(small_matrix())
    def test_involution(self, m):
        cols = [m.column(j) for j in range(m.cols)]
        space = RationalSubspace.from_spanning(m.rows, cols)
        twice = orth_complement(orth_complement(space))
        assert twice.canonical_basis() == space.canonical_basis()


class TestSchurComplement:
    def test_all_ones(self):
        assert schur_complement(RationalMatrix([[1, 1], [1, 1]]), 1) == RationalMatrix([[0]])

    def test_hand_value(self):
        out = schur_complement(RationalMatrix([[2, 1], [1, 1]]), 1)
        assert out == RationalMatrix([[Fraction(1, 2)]])

    def test_singular_block(self):
        with pytest.raises(SingularBlockError):
            schur_complement(RationalMatrix([[0, 1], [1, 1]]), 1)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_zero_on_planted_rank_n_blocks(self, data):
        # M = [[D, C], [B, B D^{-1} C]] has rank n, so the complement is 0
        n = data.draw(st.integers(1, 3))
        p = data.draw(st.integers(1, 3))
        q = data.draw(st.integers(1, 3))
        rows = st.lists(
            st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n
        )
        d = data.draw(rows.map(RationalMatrix).filter(lambda m: rank(m) == n))
        c = RationalMatrix(
            data.draw(st.lists(st.lists(small_fractions, min_size=q, max_size=q), min_size=n, max_size=n))
        )
        b = RationalMatrix(
            data.draw(st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=p, max_size=p))
        )
        # solve D X = C exactly via rref on [D | C]
        aug = RationalMatrix(
            [list(d.data[i]) + list(c.data[i]) for i in range(n)], cols=n + q
        )
        reduced, pivots = rref(aug)
        assert pivots == tuple(range(n))
        x = RationalMatrix([list(reduced.data[i][n:]) for i in range(n)], cols=q)
        e = b.mul(x)
        top = [list(d.data[i]) + list(c.data[i]) for i in range(n)]
        bottom = [list(b.data[i]) + list(e.data[i]) for i in range(p)]
        m = RationalMatrix(top + bottom, cols=n + q)
        assert rank(m) == n
        assert schur_complement(m, n).is_zero()

    @pytest.mark.parametrize(
        "rows, cols, block",
        [(0, 0, 0), (2, 3, 0), (2, 4, 2), (3, 3, 3), (4, 2, 2), (3, 1, 1)],
        ids=["empty", "zero-block", "no-rows-below", "square", "no-columns-right", "single-column"],
    )
    def test_edge_shapes_match_the_rref_solution(self, rows, cols, block):
        rng = Random(rows * 100 + cols * 10 + block)
        while True:
            m = RationalMatrix(
                [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            if rank(RationalMatrix([row[:block] for row in m.data[:block]], cols=block)) == block:
                break
        n = block
        # X from the rref of [D | C], then E - B X entry by entry
        reduced, pivots = rref(RationalMatrix(m.data[:n], cols=cols))
        assert pivots == tuple(range(n))
        x = [reduced.data[i][n:] for i in range(n)]
        expected = RationalMatrix(
            [
                [row[n + j] - sum((row[k] * x[k][j] for k in range(n)), Fraction(0)) for j in range(cols - n)]
                for row in m.data[n:]
            ],
            cols=cols - n,
        )
        out = schur_complement(m, n)
        assert out.shape == (rows - n, cols - n)
        assert out == expected


def brute_force_infeasible(equalities, positives, k):
    """Grid search over small rationals; True when nothing satisfies."""
    values = sorted(
        {Fraction(p, q) for p in range(-8, 9) for q in range(1, 5)}
    )
    for point in product(values, repeat=k):
        if all(sum(a * x for a, x in zip(row, point)) == 0 for row in equalities) and all(
            sum(a * x for a, x in zip(row, point)) >= 1 for row in positives
        ):
            return False
    return True


class TestStrictFeasibility:
    def test_single_positive(self):
        x = strict_feasibility([], [(1, 0)])
        assert x is not None and x[0] >= 1

    def test_equality_plus_positive(self):
        x = strict_feasibility([(1, 0)], [(1, 1)])
        assert x is not None and x[0] == 0 and x[1] >= 1

    def test_contradictory(self):
        assert strict_feasibility([], [(1, 0), (-1, 0)]) is None

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DimensionError):
            strict_feasibility([(1, 0)], [(1, 1, 1)])

    def test_no_positives_returns_zero(self):
        assert strict_feasibility([(1, 2, 3)], []) == (0, 0, 0)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_exactness_and_infeasibility_oracle(self, data):
        k = data.draw(st.integers(1, 3))
        n_eq = data.draw(st.integers(0, 2))
        n_pos = data.draw(st.integers(1, 3))
        row = st.lists(st.integers(-2, 2), min_size=k, max_size=k).map(tuple)
        equalities = [data.draw(row) for _ in range(n_eq)]
        positives = [data.draw(row) for _ in range(n_pos)]
        x = strict_feasibility(equalities, positives)
        if x is not None:
            assert all(sum(a * v for a, v in zip(r, x)) == 0 for r in equalities)
            assert all(sum(a * v for a, v in zip(r, x)) >= 1 for r in positives)
        else:
            assert brute_force_infeasible(equalities, positives, k)


class TestStrictFeasibilityPlanted:
    def test_planted_systems_stay_feasible(self):
        # build systems around a hidden solution, then only verify that the
        # returned point (not necessarily the hidden one) is exactly feasible
        from random import Random

        rng = Random(107)
        for _ in range(40):
            k = rng.randint(3, 5)
            hidden = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
            if all(v == 0 for v in hidden):
                hidden[0] = Fraction(1)
            norm = sum(v * v for v in hidden)
            equalities = []
            for _ in range(rng.randint(0, 2)):
                raw = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
                dot = sum(a * v for a, v in zip(raw, hidden))
                equalities.append(tuple(a - dot / norm * v for a, v in zip(raw, hidden)))
            positives = []
            for _ in range(rng.randint(1, 4)):
                raw = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
                dot = sum(a * v for a, v in zip(raw, hidden))
                if dot == 0:
                    raw[0] += 1 if hidden[0] > 0 else -1
                    dot = sum(a * v for a, v in zip(raw, hidden))
                    if dot == 0:
                        continue
                positives.append(tuple(a / abs(dot) * (1 if dot > 0 else -1) for a in raw))
            if not positives:
                continue
            x = strict_feasibility(equalities, positives)
            assert x is not None
            assert all(sum(a * v for a, v in zip(r, x)) == 0 for r in equalities)
            assert all(sum(a * v for a, v in zip(r, x)) >= 1 for r in positives)


# ------------------------------------------------ the Fraction reference

def _reference_normalize_row(coeffs, rhs):
    """Scale an inequality a.y >= b by a positive rational to primitive integers."""
    denoms = [e.denominator for e in coeffs] + [rhs.denominator]
    mult = 1
    for d in denoms:
        mult = mult * d // gcd(mult, d)
    ints = [int(e * mult) for e in coeffs]
    r = rhs * mult
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    g = gcd(g, abs(r.numerator))
    if g > 1:
        ints = [v // g for v in ints]
        r = r / g
    return tuple(Fraction(v) for v in ints), r


def reference_strict_feasibility(equalities, positives):
    """The Fourier-Motzkin elimination on Fraction rows that strict_feasibility
    once ran, kept as the verdict oracle: None exactly when it gives None."""
    eq = [tuple(Fraction(e) for e in row) for row in equalities]
    pos = [tuple(Fraction(e) for e in row) for row in positives]
    lengths = {len(r) for r in chain(eq, pos)}
    if len(lengths) > 1:
        raise DimensionError("constraint rows have unequal lengths")
    dim = lengths.pop() if lengths else 0
    if not pos:
        return tuple(Fraction(0) for _ in range(dim))

    if eq:
        null_cols = [tuple(c) for c in nullspace_basis(RationalMatrix(eq, cols=dim)).basis.columns()]
    else:
        null_cols = [tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)]
    free = len(null_cols)
    reduced = []
    one = Fraction(1)
    for row in pos:
        coeffs = tuple(
            sum((row[i] * col[i] for i in range(dim)), Fraction(0)) for col in null_cols
        )
        if not any(coeffs):
            return None
        reduced.append(_reference_normalize_row(coeffs, one))

    stages = [reduced]
    system = reduced
    for var in range(free):
        zero_rows = {}
        lowers = []
        uppers = []
        for coeffs, rhs in system:
            c = coeffs[var]
            if c > 0:
                lowers.append((coeffs, rhs))
            elif c < 0:
                uppers.append((coeffs, rhs))
            else:
                key = coeffs
                if key not in zero_rows or rhs > zero_rows[key]:
                    zero_rows[key] = rhs
        merged = dict(zero_rows)
        for lc, lr in lowers:
            for uc, ur in uppers:
                scale_l = -uc[var]
                scale_u = lc[var]
                coeffs = tuple(scale_l * a + scale_u * b for a, b in zip(lc, uc))
                rhs = scale_l * lr + scale_u * ur
                coeffs, rhs = _reference_normalize_row(coeffs, rhs)
                if not any(coeffs):
                    if rhs > 0:
                        return None
                    continue
                if coeffs not in merged or rhs > merged[coeffs]:
                    merged[coeffs] = rhs
        system = [(c, r) for c, r in merged.items()]
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
            rest = sum((coeffs[j] * y[j] for j in range(var + 1, free)), Fraction(0))
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


def assert_exact_witness(equalities, positives, x):
    assert all(type(v) is Fraction for v in x)
    assert all(sum(a * v for a, v in zip(r, x)) == 0 for r in equalities)
    assert all(sum(a * v for a, v in zip(r, x)) >= 1 for r in positives)


def assert_same_as_reference(equalities, positives):
    got = strict_feasibility(equalities, positives)
    assert (got is None) == (reference_strict_feasibility(equalities, positives) is None)
    if got is not None:
        assert_exact_witness(equalities, positives, got)
    return got


def seeded_systems(rng, count):
    """count systems of 0..3 equality and 1..8 positive rows in Q^1..Q^6."""
    for _ in range(count):
        dim = rng.randint(1, 6)

        def rows(count):
            return [
                tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim))
                for _ in range(count)
            ]

        yield rows(rng.randint(0, 3)), rows(rng.randint(1, 8))


# Fourier-Motzkin on 8 rows in R^6 can grow doubly exponentially, and a
# single such draw can take the Fraction reference close to a minute. This
# seed keeps the whole check to a few seconds.
CROSS_CHECK_SEED = 2024


class TestStrictFeasibilityAgainstReference:
    def test_seeded_systems(self):
        feasible = infeasible = 0
        for equalities, positives in seeded_systems(Random(CROSS_CHECK_SEED), 500):
            if assert_same_as_reference(equalities, positives) is None:
                infeasible += 1
            else:
                feasible += 1
        assert feasible >= 100 and infeasible >= 100

    def test_parallel_rows_keep_the_tighter_bound(self):
        # positive multiples of a row share its primitive coefficients but
        # not its bound; the reference dedupes them at every elimination
        # stage, and strict_feasibility, which has no stages, must reach
        # the same verdicts on these systems of parallel rows
        rng = Random(CROSS_CHECK_SEED + 1)
        for _ in range(200):
            dim = rng.randint(1, 4)
            positives = [
                tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
                for _ in range(rng.randint(1, 4))
            ]
            for row in list(positives):
                scale = Fraction(rng.randint(1, 4), rng.randint(1, 4))
                positives.append(tuple(scale * e for e in row))
            rng.shuffle(positives)
            assert_same_as_reference([], positives)

    def test_member_witness_systems_in_r8(self):
        # the systems member_witness once solved by Fourier-Motzkin: equality
        # rows where the target is 0, rows negated where it is -; conformal
        # membership must decide each one alike
        rng = Random(8)
        n = 8
        systems = []
        hits = 0
        for k in (3, 4, 5):
            for _ in range(2):
                basis = RationalMatrix.from_columns(
                    [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
                )
                if rank(basis) < k:
                    continue
                space = RationalSubspace(n, basis)
                for planted in (True, False) * 6:
                    if planted:
                        x = [0] * k
                        while not any(x):
                            x = [rng.randint(-3, 3) for _ in range(k)]
                        target = sign_of_vector(basis.apply(x))
                    else:
                        target = SignVector.from_signs(rng.choice((1, 0, -1)) for _ in range(n))
                    equalities = [basis.row(i) for i in range(n) if target[i] == 0]
                    positives = [
                        tuple(target[i] * e for e in basis.row(i)) for i in range(n) if target[i]
                    ]
                    witness = covectors.member_witness(space, target)
                    if witness is not None:
                        assert sign_of_vector(basis.apply(witness)) == target
                    systems.append((equalities, positives, witness))
                    hits += witness is not None
        assert len(systems) >= 60 and 0 < hits < len(systems)
        for equalities, positives, witness in systems:
            feasible = assert_same_as_reference(equalities, positives) is not None
            assert (witness is not None) == feasible


class TestStrictFeasibilityAgainstClosure:
    # an independent mechanism: the 0/+ target against all of sign(L),
    # closed under composition, rather than the conformal cover
    def test_verdicts_match_the_sign_closure(self):
        feasible = infeasible = 0
        for equalities, positives in seeded_systems(Random(5), 500):
            rows = equalities + positives
            space = RationalSubspace.from_spanning(len(rows), RationalMatrix(rows).columns())
            target = SignVector.from_signs([0] * len(equalities) + [1] * len(positives))
            got = strict_feasibility(equalities, positives)
            assert (got is not None) == (target in sign_vectors(space).signs)
            if got is None:
                infeasible += 1
            else:
                assert_exact_witness(equalities, positives, got)
                feasible += 1
        assert feasible >= 100 and infeasible >= 100

    def test_the_slowest_fourier_motzkin_draw(self):
        # draw 380 of Random(5): 8 positive rows in Q^6, infeasible, 2.7 s
        # for integer Fourier-Motzkin on a 2-core container
        equalities, positives = list(seeded_systems(Random(5), 381))[-1]
        assert not equalities and len(positives) == 8 and len(positives[0]) == 6
        covectors._cached_index.cache_clear()
        start = perf_counter()
        assert strict_feasibility(equalities, positives) is None
        assert perf_counter() - start < 1


class TestSubspace:
    def test_dependent_basis_rejected(self):
        with pytest.raises(DimensionError):
            RationalSubspace(2, RationalMatrix([[1, 2], [2, 4]]))

    def test_from_spanning_reduces(self):
        space = RationalSubspace.from_spanning(3, [(1, 0, 0), (2, 0, 0), (0, 1, 0)])
        assert space.dim == 2

    def test_equality_by_canonical_basis(self):
        a = RationalSubspace.from_spanning(3, [(1, 1, 0), (0, 0, 2)])
        b = RationalSubspace.from_spanning(3, [(2, 2, 2), (0, 0, 1)])
        assert a == b
