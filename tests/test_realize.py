"""Corank-2 realization and rationalization of matrix equations."""

from fractions import Fraction
from random import Random

import pytest

from signrank.covectors import sign_vectors
from signrank.errors import DimensionError
from signrank.minrank import mr_le_n_minus_2
from signrank.rational import RationalMatrix, rank
from signrank.realize import (
    STATUS_BUDGET,
    STATUS_EXHAUSTED,
    STATUS_OK,
    rationalize_equation,
    realize_corank2,
)
from signrank.signs import SignPattern, set_perp, sign_of
from signrank.rank2 import sign_set_of_type


def planted_pattern(rng, n, m):
    u = RationalMatrix(
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n - 2)] for _ in range(n)]
    )
    v = RationalMatrix(
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)] for _ in range(n - 2)]
    )
    return sign_of(u.mul(v))


class TestRealizeCorank2:
    def test_columns_on_a_coordinate_plane(self):
        pattern = SignPattern.from_strings(["++0", "+-0", "000", "000"])
        outcome = realize_corank2(pattern)
        assert outcome.ok
        assert outcome.result.claimed_rank <= 2
        assert sign_of(outcome.result.matrix) == pattern

    def test_identity_is_definitively_absent(self):
        pattern = SignPattern.from_strings(["+000", "0+00", "00+0", "000+"])
        outcome = realize_corank2(pattern)
        assert outcome.status == STATUS_EXHAUSTED and outcome.result is None
        assert outcome.definitive

    def test_planted_round_trip(self):
        rng = Random(61)
        for trial in range(12):
            n = rng.randint(3, 6)
            m = rng.randint(2, 10)
            pattern = planted_pattern(rng, n, m)
            outcome = realize_corank2(pattern)
            assert outcome.ok, (n, m, pattern.to_strings())
            result = outcome.result
            assert sign_of(result.matrix) == pattern
            assert result.claimed_rank <= n - 2
            assert rank(result.matrix) == result.claimed_rank

    def test_pipeline_duality_consistency(self):
        # the complement's enumerated signs equal the perp of the type's signs
        rng = Random(67)
        pattern = planted_pattern(rng, 5, 6)
        outcome = realize_corank2(pattern)
        assert outcome.ok
        result = outcome.result
        direct = sign_vectors(result.complement).signs
        dual = set_perp(sign_set_of_type(result.plane_type))
        assert direct == dual

    def test_witnesses_stored_per_column(self):
        pattern = SignPattern.from_strings(["++0", "+-0", "000", "000"])
        result = realize_corank2(pattern).result
        assert len(result.column_witnesses) == pattern.cols
        basis = result.complement.basis
        from signrank.signs import sign_of_vector

        for j, witness in enumerate(result.column_witnesses):
            assert sign_of_vector(basis.apply(witness)) == pattern.column(j)

    def test_assembly_matches_the_fraction_product(self):
        # the integer assembly gives exactly B x for each column witness x
        rng = Random(71)
        for _ in range(50):
            n = rng.randint(3, 7)
            pattern = planted_pattern(rng, n, rng.randint(2, 8))
            result = realize_corank2(pattern).result
            basis = result.complement.basis
            columns = [basis.apply(x) for x in result.column_witnesses]
            assert result.matrix == RationalMatrix.from_columns(columns, rows=n)

    def test_budget_can_interrupt(self):
        # the 6x6 identity admits no plane, so a zero budget must cut the search
        identity = SignPattern.from_grid([[int(i == j) for j in range(6)] for i in range(6)])
        outcome = realize_corank2(identity, budget_ms=0)
        assert outcome.status == STATUS_BUDGET and outcome.result is None
        assert not outcome.definitive

    def test_zero_budget_cuts_before_the_first_type(self):
        # n = 4 has only 808 types, fewer than the 1024 between clock reads,
        # so only the check before the first type can cut this search
        identity = SignPattern.from_grid([[int(i == j) for j in range(4)] for i in range(4)])
        outcome = realize_corank2(identity, budget_ms=0)
        assert outcome.status == STATUS_BUDGET and outcome.result is None

    def test_plane_is_the_type_search_hit_on_the_transpose(self):
        # realize_corank2 reads columns and mr_le_n_minus_2 reads rows; both
        # run one search, so the plane is the same first hit
        rng = Random(83)
        statuses = set()
        for _ in range(60):
            n = rng.randint(3, 5)
            m = rng.randint(1, 6)
            pattern = SignPattern.from_grid(
                [[rng.choice((-1, 0, 1)) for _ in range(m)] for _ in range(n)]
            )
            outcome = realize_corank2(pattern)
            searched = mr_le_n_minus_2(pattern.transpose())
            statuses.add(outcome.status)
            if searched is None:
                assert outcome.status == STATUS_EXHAUSTED and outcome.result is None
            else:
                assert outcome.ok and outcome.result.plane_type == searched
        assert statuses == {STATUS_OK, STATUS_EXHAUSTED}

    def test_single_row_rejected(self):
        with pytest.raises(DimensionError):
            realize_corank2(SignPattern.from_strings(["+"]))


class TestRationalizeEquation:
    def test_all_positive(self):
        outcome = rationalize_equation(
            SignPattern.from_strings(["+", "+"]),
            SignPattern.from_strings(["++"]),
            SignPattern.from_strings(["++", "++"]),
        )
        assert outcome.ok
        b, c, e = outcome.factors
        assert b.mul(c) == e
        assert all(v > 0 for row in e.data for v in row)

    def test_planted_with_zero_structure(self):
        b = RationalMatrix([[1, 1], [1, -1]])
        c = RationalMatrix([[1, 1], [-1, 1]])
        e = b.mul(c)
        assert e == RationalMatrix([[0, 2], [2, 0]])
        outcome = rationalize_equation(sign_of(b), sign_of(c), sign_of(e))
        assert outcome.ok
        bt, ct, et = outcome.factors
        assert bt.mul(ct) == et
        assert sign_of(bt) == sign_of(b)
        assert sign_of(ct) == sign_of(c)
        assert sign_of(et) == sign_of(e)

    def test_impossible_zero_is_definitive(self):
        outcome = rationalize_equation(
            SignPattern.from_strings(["+"]),
            SignPattern.from_strings(["++"]),
            SignPattern.from_strings(["0+"]),
        )
        assert outcome.status == STATUS_EXHAUSTED and outcome.factors is None

    def test_two_rows_orientation(self):
        # E with 2 rows routes through transposition of everything
        b = RationalMatrix([[1, -1], [2, 1]])
        c = RationalMatrix([[1, 2, 0], [1, -1, 3]])
        e = b.mul(c)
        assert e.rows == 2 and e.cols == 3
        outcome = rationalize_equation(sign_of(b), sign_of(c), sign_of(e))
        assert outcome.ok
        bt, ct, et = outcome.factors
        assert bt.mul(ct) == et
        assert sign_of(bt) == sign_of(b)
        assert sign_of(ct) == sign_of(c)
        assert sign_of(et) == sign_of(e)

    def test_transpose_symmetry(self):
        rng = Random(73)
        for _ in range(6):
            p = rng.randint(1, 3)
            n = rng.randint(1, 3)
            b = RationalMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(p)])
            c = RationalMatrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(n)])
            e = b.mul(c)
            direct = rationalize_equation(sign_of(b), sign_of(c), sign_of(e))
            flipped = rationalize_equation(
                sign_of(c).transpose(), sign_of(b).transpose(), sign_of(e).transpose()
            )
            assert direct.ok and flipped.ok
            fb, fc, fe = flipped.factors
            assert fb.mul(fc) == fe
            assert sign_of(fe) == sign_of(e).transpose()

    def test_random_planted_batch(self):
        rng = Random(79)
        for _ in range(10):
            p = rng.randint(1, 4)
            n = rng.randint(1, 4)
            b = RationalMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(p)])
            c = RationalMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(n)])
            e = b.mul(c)
            outcome = rationalize_equation(sign_of(b), sign_of(c), sign_of(e))
            assert outcome.ok
            bt, ct, et = outcome.factors
            assert bt.mul(ct) == et
            assert sign_of(bt) == sign_of(b)
            assert sign_of(ct) == sign_of(c)
            assert sign_of(et) == sign_of(e)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            rationalize_equation(
                SignPattern.from_strings(["++"]),
                SignPattern.from_strings(["++"]),
                SignPattern.from_strings(["++"]),
            )
