"""Minimum-rank decision ladder and its certificates."""

import time
from itertools import product
from random import Random

import pytest

import signrank.minrank
from signrank.errors import BudgetExceededError
from signrank.minrank import (
    is_L_matrix,
    lattice_draws,
    min_rank,
    mr_eq_n_minus_1,
    mr_le_n_minus_2,
    random_upper_bound,
)
from signrank.rank2 import sign_set_of_type
from signrank.rational import RationalMatrix, rank
from signrank.signs import (
    SignPattern,
    SignVector,
    condense,
    max_rank,
    orthogonal,
    sign_of,
)

EXAMPLE = SignPattern.from_strings(["+++", "0++"])


def identity_pattern(n):
    return SignPattern.from_grid([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def reference_random_upper_bound(pattern, r, seed=0, iterations=2000):
    """The original search, kept as the reference: every iteration builds
    the whole product as a RationalMatrix and compares its signs."""
    if r < 1:
        raise ValueError("rank bound must be at least 1")
    rng = Random(seed)
    m, n = pattern.rows, pattern.cols
    for _ in range(iterations):
        u = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        product = [
            [sum(u[i][k] * v[k][j] for k in range(r)) for j in range(n)] for i in range(m)
        ]
        candidate = RationalMatrix(product, cols=n)
        if sign_of(candidate) == pattern:
            return candidate
    return None


class TestIsLMatrix:
    def test_identity(self):
        for n in (2, 4, 6):
            ok, witness = is_L_matrix(identity_pattern(n))
            assert ok and witness is None

    def test_zero_column_gives_unit_witness(self):
        ok, witness = is_L_matrix(SignPattern.from_strings(["+0", "-0"]))
        assert not ok
        assert witness == SignVector.from_string("0+")

    def test_hand_checked_two_by_two(self):
        ok, witness = is_L_matrix(SignPattern.from_strings(["++", "+-"]))
        assert ok and witness is None

    def test_witness_orthogonal_to_all_rows(self):
        rng = Random(3)
        seen = 0
        while seen < 40:
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            pattern = SignPattern.from_grid(
                [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
            )
            ok, witness = is_L_matrix(pattern)
            if ok:
                continue
            seen += 1
            assert not witness.is_zero()
            assert all(orthogonal(r, witness) for r in pattern.row_vectors)


def dense_fourteen():
    rng = Random(14)
    return SignPattern.from_grid([[rng.choice((-1, 0, 1)) for _ in range(14)] for _ in range(14)])


class TestDenseFourteen:
    # 3^14 candidates: the L-matrix rung reads one null vector of the
    # bitsliced perp set instead of building all of its members
    def test_is_L_matrix_returns_the_least_null_vector(self):
        ok, witness = is_L_matrix(dense_fourteen())
        assert not ok
        assert witness.to_string() == "000000000+++-+"

    def test_min_rank_brackets_within_the_budget(self):
        start = time.perf_counter()
        bracket = min_rank(dense_fourteen(), budget_ms=1000)
        assert time.perf_counter() - start < 5
        assert (bracket.lower, bracket.upper) == (3, 12)
        assert [c.kind for c in bracket.certificates] == ["null-vector", "rank2-type"]


class TestMrLeNMinus2:
    def test_wide_zero_heavy_row(self):
        t = mr_le_n_minus_2(SignPattern.from_strings(["00++"]))
        assert t is not None

    def test_example_has_none(self):
        assert mr_le_n_minus_2(EXAMPLE) is None

    def test_zero_pattern(self):
        assert mr_le_n_minus_2(SignPattern.from_strings(["000", "000"])) is not None

    def test_returned_type_reverifies(self):
        rng = Random(7)
        seen = 0
        while seen < 25:
            m = rng.randint(1, 4)
            n = rng.randint(3, 5)
            pattern = SignPattern.from_grid(
                [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
            )
            t = mr_le_n_minus_2(pattern)
            if t is None:
                continue
            seen += 1
            sign_set = sign_set_of_type(t)
            for r in pattern.row_vectors:
                assert all(orthogonal(r, w) for w in sign_set)

    def test_zero_budget_raises_on_identity(self):
        # the 6x6 identity admits no plane, so a zero budget must stop the search
        with pytest.raises(BudgetExceededError):
            mr_le_n_minus_2(identity_pattern(6), budget_ms=0)

    def test_zero_budget_raises_before_the_first_type(self):
        # 808 types at n = 4 never reach the check at type 1024
        with pytest.raises(BudgetExceededError):
            mr_le_n_minus_2(identity_pattern(4), budget_ms=0)


class TestMrEqNMinus1:
    def test_example(self):
        assert mr_eq_n_minus_1(EXAMPLE)

    def test_pairwise_perp_membership_does_not_give_corank_two(self):
        # both rows of the example are orthogonal to each of two independent
        # nonzero vectors, yet no single plane's sign set absorbs them
        u = SignVector.from_string("++-")
        v = SignVector.from_string("0+-")
        for row in EXAMPLE.row_vectors:
            assert orthogonal(row, u) and orthogonal(row, v)
        assert mr_le_n_minus_2(EXAMPLE) is None

    def test_identity(self):
        assert not mr_eq_n_minus_1(identity_pattern(3))

    def test_zero(self):
        assert not mr_eq_n_minus_1(SignPattern.from_strings(["000", "000"]))

    def test_agrees_with_ladder(self):
        rng = Random(11)
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(2, 4)
            pattern = SignPattern.from_grid(
                [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
            )
            bracket = min_rank(pattern)
            assert bracket.exact
            working_cols = min(m, n)
            if n == working_cols or m == working_cols:
                # compare on the stated (column-count) orientation
                assert mr_eq_n_minus_1(pattern) == (bracket.value == n - 1)


class TestMinRank:
    def test_example_exact_two(self):
        bracket = min_rank(EXAMPLE)
        assert bracket.exact and bracket.value == 2

    def test_identity_five(self):
        assert min_rank(identity_pattern(5)).value == 5

    def test_zero(self):
        assert min_rank(SignPattern.from_strings(["000"])).value == 0

    def test_rank_one(self):
        assert min_rank(SignPattern.from_strings(["++", "--"])).value == 1

    def test_transpose_invariance(self):
        rng = Random(13)
        for _ in range(500):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            pattern = SignPattern.from_grid(
                [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
            )
            a = min_rank(pattern)
            b = min_rank(pattern.transpose())
            assert (a.lower, a.upper, a.exact) == (b.lower, b.upper, b.exact)

    def test_line_operations_preserve_min_rank(self):
        rng = Random(17)
        for _ in range(40):
            m = rng.randint(2, 4)
            n = rng.randint(2, 4)
            grid = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
            base = min_rank(SignPattern.from_grid(grid)).value
            negated = [row[:] for row in grid]
            negated[0] = [-e for e in negated[0]]
            assert min_rank(SignPattern.from_grid(negated)).value == base
            perm = list(range(m))
            rng.shuffle(perm)
            permuted = [grid[i] for i in perm]
            assert min_rank(SignPattern.from_grid(permuted)).value == base
            duplicated = grid + [grid[0]]
            assert min_rank(SignPattern.from_grid(duplicated)).value == base

    def test_bounded_by_term_rank(self):
        rng = Random(19)
        for _ in range(80):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            pattern = SignPattern.from_grid(
                [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
            )
            bracket = min_rank(pattern)
            assert bracket.lower <= bracket.upper <= max_rank(pattern)

    def test_certificates_reverify(self):
        rng = Random(23)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            pattern = SignPattern.from_grid(
                [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
            )
            bracket = min_rank(pattern)
            working = pattern.transpose() if bracket.transposed else pattern
            for cert in bracket.certificates:
                if cert.kind == "null-vector":
                    assert all(orthogonal(r, cert.payload) for r in working.row_vectors)
                elif cert.kind == "realization":
                    assert sign_of(cert.payload) == working
                    assert rank(cert.payload) <= bracket.upper
                elif cert.kind == "rank2-type":
                    sign_set = sign_set_of_type(cert.payload)
                    for r in working.row_vectors:
                        assert all(orthogonal(r, w) for w in sign_set)
                elif cert.kind == "matching":
                    seen_rows = set()
                    seen_cols = set()
                    for i, j in cert.payload:
                        assert working.entry(i, j) != 0
                        assert i not in seen_rows and j not in seen_cols
                        seen_rows.add(i)
                        seen_cols.add(j)

    def test_six_column_bracket_or_exact(self):
        # d = 6 leaves a gap unless a rung or refinement closes it
        rng = Random(29)
        for _ in range(6):
            pattern = SignPattern.from_grid(
                [[rng.choice((-1, 0, 1)) for _ in range(6)] for _ in range(7)]
            )
            bracket = min_rank(pattern)
            assert 0 <= bracket.lower <= bracket.upper <= 6
            if not bracket.exact:
                assert bracket.lower == 3 and bracket.upper in (4,)

    def test_budget_caps_the_whole_call(self, monkeypatch):
        # time spent in the earlier rungs comes off the type search's budget
        budgets = []

        def slow_rank2(pattern, budget_ms=None):
            time.sleep(0.2)
            return None

        def recording_type_search(pattern, budget_ms=None):
            budgets.append(budget_ms)
            return None

        monkeypatch.setattr(signrank.minrank, "mr_le_2", slow_rank2)
        monkeypatch.setattr(signrank.minrank, "mr_le_n_minus_2", recording_type_search)
        pattern = SignPattern.from_strings(
            ["-+0++-", "-++++-", "+----+", "--0+-+", "+++-+-", "+++--+"]
        )
        min_rank(pattern, budget_ms=300)
        assert len(budgets) == 1
        assert isinstance(budgets[0], int) and 0 <= budgets[0] <= 100


class TestRandomUpperBound:
    def test_all_plus_rank_one(self):
        pattern = SignPattern.from_strings(["++++"] * 4)
        found = random_upper_bound(pattern, 1, seed=0)
        assert found is not None and sign_of(found) == pattern and rank(found) <= 1

    def test_identity_rank_two_absent(self):
        assert random_upper_bound(identity_pattern(3), 2, seed=0, iterations=500) is None

    def test_plant_and_recover(self):
        # zero-free planted pattern; exact zeros are rarely hit by the lattice
        rng = Random(20)
        u = RationalMatrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(4)])
        v = RationalMatrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)])
        pattern = sign_of(u.mul(v))
        assert all("0" not in s for s in pattern.to_strings())
        found = random_upper_bound(pattern, 2, seed=5, iterations=4000)
        assert found is not None
        assert sign_of(found) == pattern and rank(found) <= 2

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            random_upper_bound(EXAMPLE, 0)

    def test_draws_replay_randint(self):
        # certificates depend on this stream: a change to CPython's randint
        # must fail here rather than silently change them
        for seed in (0, 1, 5, 2013, 123456789):
            expected = Random(seed)
            assert lattice_draws(Random(seed), 10_000) == [
                expected.randint(-3, 3) for _ in range(10_000)
            ]
        rng, expected = Random(8), Random(8)
        drawn = [x for count in (0, 1, 7, 300, 2) for x in lattice_draws(rng, count)]
        assert drawn == [expected.randint(-3, 3) for _ in range(310)]
        assert rng.getstate() == expected.getstate()

    def test_agrees_with_reference(self):
        rng = Random(41)
        cases = hits = zero_cases = zero_hits = 0
        for m, n, r in product(range(1, 8), range(1, 8), range(1, 5)):
            for _ in range(3):
                planted = rng.randint(1, 4)
                u = RationalMatrix([[rng.randint(-2, 2) for _ in range(planted)] for _ in range(m)])
                v = RationalMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(planted)])
                pattern = sign_of(u.mul(v))
                seed, iterations = rng.randrange(1000), rng.choice((15, 40, 100))
                found = random_upper_bound(pattern, r, seed=seed, iterations=iterations)
                assert found == reference_random_upper_bound(
                    pattern, r, seed=seed, iterations=iterations
                )
                has_zero = any("0" in row for row in pattern.to_strings())
                cases += 1
                hits += found is not None
                zero_cases += has_zero
                zero_hits += has_zero and found is not None
        assert cases >= 400 and hits > 50
        assert zero_cases > 100 and zero_hits > 10

    def test_min_rank_calls_the_module_binding(self, monkeypatch):
        # the rung is looked up on the module at call time, so a wrapper
        # installed there (as the benchmark's tracer does) sees every call
        calls = []
        real = signrank.minrank.random_upper_bound

        def counting(pattern, r, **kwargs):
            calls.append(r)
            return real(pattern, r, **kwargs)

        monkeypatch.setattr(signrank.minrank, "random_upper_bound", counting)
        pattern = SignPattern.from_strings(
            ["-+0++-", "-++++-", "+----+", "--0+-+", "+++-+-", "+++--+"]
        )
        bracket = min_rank(pattern, budget_ms=1000)
        assert calls == [3]
        assert (bracket.lower, bracket.upper) == (3, 4)


class TestExhaustiveTwoByTwo:
    def test_all_two_by_two_patterns(self):
        # small enough to verify the whole ladder by hand rules:
        # mr 0 iff zero; mr 1 iff condensation is 1x1; else 2
        for entries in product((-1, 0, 1), repeat=4):
            pattern = SignPattern.from_grid([entries[:2], entries[2:]])
            value = min_rank(pattern).value
            if pattern.is_zero():
                assert value == 0
            elif condense(pattern).rows <= 1:
                assert value == 1
            else:
                assert value == 2
