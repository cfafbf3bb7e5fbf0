"""Extremal sign-vector counts."""

from random import Random

import pytest

from signrank.covectors import random_subspace, sign_vectors
from signrank.errors import DimensionError
from signrank.extremal import (
    hyperplane_count_formula,
    perp_count_formula,
    s2_exhaustive_max,
    s2_witness_count,
    s3_lower_witness,
    s_hyperplane_max,
    s_min_witness,
    t1t2_pattern,
)
from signrank.minrank import min_rank


class TestT1T2Pattern:
    def test_n2_display(self):
        assert t1t2_pattern(2).to_strings() == ["0+", "-0", "-+", "--"]

    def test_n3_first_row(self):
        assert t1t2_pattern(3).row(0).to_string() == "0++"

    def test_shape(self):
        p = t1t2_pattern(5)
        assert (p.rows, p.cols) == (10, 5)

    def test_minimum_rank_two(self):
        for n in range(2, 9):
            assert min_rank(t1t2_pattern(n)).value == 2

    def test_too_small(self):
        with pytest.raises(DimensionError):
            t1t2_pattern(1)


class TestS2Witness:
    @pytest.mark.parametrize("n,expected", [(2, 9), (3, 13), (8, 33)])
    def test_counts(self, n, expected):
        report = s2_witness_count(n)
        assert report.count == expected == report.formula_value

    def test_witness_is_a_plane(self):
        report = s2_witness_count(4)
        assert report.witness.dim == 2
        assert len(sign_vectors(report.witness).signs) == report.count


class TestS2ExhaustiveMax:
    @pytest.mark.parametrize("n,expected", [(2, 9), (3, 13), (5, 21)])
    def test_max(self, n, expected):
        assert s2_exhaustive_max(n).count == expected

    def test_n3_spectrum(self):
        assert tuple(s2_exhaustive_max(3).detail) == (9, 13)

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            s2_exhaustive_max(7)


class TestSMin:
    @pytest.mark.parametrize("k,n,expected", [(1, 5, 3), (3, 5, 27), (4, 4, 81)])
    def test_counts(self, k, n, expected):
        report = s_min_witness(k, n)
        assert report.count == expected == report.formula_value

    def test_full_dimension_matches_cube(self):
        for n in (2, 3, 4):
            assert s_min_witness(n, n).count == 3**n


class TestHyperplaneMax:
    @pytest.mark.parametrize("n,expected", [(3, 13), (4, 51), (5, 181)])
    def test_counts(self, n, expected):
        report = s_hyperplane_max(n)
        assert report.count == expected == report.formula_value
        assert report.detail["perp_count"] == expected

    def test_formula_values(self):
        assert [hyperplane_count_formula(n) for n in (2, 3, 4, 5)] == [3, 13, 51, 181]

    def test_perp_formula_extremes(self):
        for n in (2, 3, 4, 5, 6):
            values = [perp_count_formula(n, t) for t in range(1, n + 1)]
            assert max(values) == hyperplane_count_formula(n) == values[-1]
            assert min(values) == 3 ** (n - 1) == values[0]


class TestS3Lower:
    @pytest.mark.parametrize("n,bound", [(3, 27), (4, 39), (5, 51)])
    def test_counts(self, n, bound):
        report = s3_lower_witness(n)
        assert report.formula_value == bound
        assert report.count >= bound
        assert report.witness.dim == 3

    def test_too_small(self):
        with pytest.raises(DimensionError):
            s3_lower_witness(2)


class TestMonotonicityAndOddness:
    def test_sampled_extremes_monotone_in_k(self):
        rng = Random(83)
        for n in (3, 4, 5):
            maxima = []
            minima = []
            for k in range(1, n + 1):
                counts = [
                    len(sign_vectors(random_subspace(n, k, rng)).signs) for _ in range(30)
                ]
                maxima.append(max(counts))
                minima.append(min(counts))
            assert maxima == sorted(maxima)
            assert minima == sorted(minima)

    def test_reported_counts_are_odd(self):
        reports = [
            s2_witness_count(4),
            s2_exhaustive_max(4),
            s_min_witness(2, 4),
            s_hyperplane_max(4),
            s3_lower_witness(4),
        ]
        for report in reports:
            assert report.count % 2 == 1
