"""The rank-3 chirotope rung, cross-checked against slower paths: the
exact ladder at d <= 5, cov against vec at d = 6, and planted patterns."""

from random import Random

import pytest

import signrank.errors
import signrank.rank3
from signrank.errors import BudgetExceededError, DimensionError
from signrank.minrank import min_rank
from signrank.rank3 import COV, VEC, rank3_search
from signrank.rational import RationalMatrix, rank
from signrank.selftest import _cell_rng
from signrank.signs import SignPattern, sign_of


def random_pattern(rng, m, n):
    return SignPattern.from_grid([[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)])


def planted(rng, m, d, r):
    """sign(U V) for integer U (m x r) and V (r x d) with entries in -2..2."""
    u = RationalMatrix([[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)])
    v = RationalMatrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(r)])
    return sign_of(u.mul(v))


def assert_realizes(result, pattern, bound):
    assert result.realization is not None
    assert sign_of(result.realization) == pattern
    assert rank(result.realization) <= bound


def decided(result):
    """True for a hit, False for an exhausted search; never inconclusive here."""
    assert result.realization is not None or result.exhausted
    return result.realization is not None


class TestAgainstTheLadder:
    def test_small_patterns_match_the_exact_ladder(self):
        # the selftest's seeded patterns up to 5x5, on the orientation with
        # the fewer columns d >= 3: cov hits iff mr <= 3, vec iff mr <= d-3
        rng = _cell_rng(8)
        compared = 0
        for _ in range(500):
            pattern = random_pattern(rng, rng.randint(1, 5), rng.randint(1, 5))
            working = pattern.transpose() if pattern.cols > pattern.rows else pattern
            d = working.cols
            if d < 3:
                continue
            mr = min_rank(pattern).value
            cov = rank3_search(working, COV)
            vec = rank3_search(working, VEC)
            assert decided(cov) == (mr <= 3)
            assert decided(vec) == (mr <= d - 3)
            if cov.realization is not None:
                assert_realizes(cov, working, 3)
            if vec.realization is not None:
                assert_realizes(vec, working, d - 3)
            compared += 1
        assert compared > 150

    def test_cov_and_vec_agree_at_six_columns(self):
        # at d = 6 both ask whether mr <= 3; half the set is planted rank 3
        rng = Random(606)
        hits = 0
        for i in range(120):
            m = rng.randint(6, 8)
            pattern = planted(rng, m, 6, 3) if i % 2 else random_pattern(rng, m, 6)
            cov = rank3_search(pattern, COV)
            vec = rank3_search(pattern, VEC)
            assert decided(cov) == decided(vec)
            hits += decided(cov)
        assert hits >= 60


class TestPlanted:
    @pytest.mark.parametrize(
        "d, r, question",
        [(6, 3, COV), (7, 3, COV), (8, 3, COV), (7, 4, VEC), (8, 5, VEC)],
    )
    def test_planted_patterns_are_realized(self, d, r, question):
        # rank r = 3 (cov) or d - 3 (vec): a hit must exist and must place
        rng = Random(100 * d + r)
        for _ in range(50):
            pattern = planted(rng, rng.randint(d, d + 2), d, r)
            assert_realizes(rank3_search(pattern, question), pattern, r)


    def test_a_frame_without_room_moves_to_the_next_basis(self):
        # the first hit's points placed from the frame on columns 0, 1, 2
        # leave no cell for column 7; another basis triple as the frame
        # places them all
        pattern = SignPattern.from_strings([
            "00000000", "-0--+000", "++++++--", "++++0-0-", "+++++0--", "+-+00+-+",
            "+-+00+-+", "+++0++--", "-++-+0--", "0+++--+-", "0---++-+",
        ])
        result = rank3_search(pattern, VEC)
        assert result.unplaced == 0
        assert_realizes(result, pattern, 5)


class TestSoundness:
    def test_unplaceable_hits_never_exhaust(self, monkeypatch):
        # with every placement failing, a hit is inconclusive: the bracket
        # keeps lower <= 3 and carries no exhaustion certificate
        monkeypatch.setattr(signrank.rank3, "_place", lambda chi, d, deadline: None)
        rng = Random(61)
        for _ in range(10):
            pattern = planted(rng, 6, 6, 3)
            result = rank3_search(pattern, COV)
            assert result.realization is None and result.unplaced and not result.exhausted
            bracket = min_rank(pattern, budget_ms=1000)
            assert bracket.lower <= 3
            assert all(c.kind != "rank3-exhausted" for c in bracket.certificates)

    def test_exhausted_search_certificate(self):
        # the corpus pattern p00 has mr = 4: no rank-3 chirotope absorbs it
        pattern = SignPattern.from_strings(["+0+--", "+0++-", "+-++0", "---+0", "-+0+0"])
        assert min_rank(pattern).value == 4
        result = rank3_search(pattern, COV)
        assert result.exhausted and result.question == COV
        assert rank3_search(pattern, COV) == result  # deterministic, nodes included
        # the exhausted result is itself the certificate that the ladder keeps
        kept = [c.payload for c in min_rank(pattern).certificates if c.kind == "rank3-exhausted"]
        assert kept == [result]

    def test_zero_budget_raises(self):
        rng = Random(8)
        pattern = random_pattern(rng, 8, 8)
        with pytest.raises(BudgetExceededError):
            rank3_search(pattern, VEC, budget_ms=0)

    @pytest.mark.parametrize("pattern, question", [
        # the corpus pattern p14 (10 x 10): cov is exhausted after 447 nodes in 8 blocks
        (SignPattern.from_strings([
            "-0-+0+-+--", "+00++++0+-", "--0+0-0-++", "-+-++-+-00", "+++00+++0-",
            "-++-0--+0-", "--00-0---+", "++0---+0+-", "+0---+-+0+", "+-00-0-+++",
        ]), COV),
        # dense Random(7001) at 7 x 7: vec is exhausted after 2086 nodes in one block
        (random_pattern(Random(7001), 7, 7), VEC),
    ])
    def test_clock_is_read_at_each_block_and_once_per_1024_nodes(self, monkeypatch, pattern, question):
        class Clock:
            reads = 0

            @classmethod
            def monotonic(cls):
                cls.reads += 1
                return 0.0

        blocks = []
        relations = signrank.rank3._relations

        def counting(d, question, top):
            blocks.append(top)
            return relations(d, question, top)

        monkeypatch.setattr(signrank.errors, "time", Clock)
        monkeypatch.setattr(signrank.rank3, "_relations", counting)
        result = rank3_search(pattern, question, budget_ms=1000)
        assert result.exhausted and result.nodes > 400
        reads = Clock.reads - 1  # the first builds the deadline
        assert len(blocks) <= reads <= len(blocks) + result.nodes // 1024
        assert reads > result.nodes // 1024

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            rank3_search(SignPattern.from_strings(["+++"]), "both")
        with pytest.raises(DimensionError):
            rank3_search(SignPattern.from_strings(["++"]), COV)

    def test_three_columns(self):
        # one triple: every pattern lies in the row space of a rank-3 V,
        # and only the zero pattern lies in its kernel
        pattern = SignPattern.from_strings(["+-0", "0++"])
        assert_realizes(rank3_search(pattern, COV), pattern, 3)
        assert rank3_search(pattern, VEC).exhausted
        zero = SignPattern.from_strings(["000"])
        assert_realizes(rank3_search(zero, VEC), zero, 0)
