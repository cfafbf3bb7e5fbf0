"""Sign vector / sign pattern calculus."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signrank.signs
from signrank.covectors import sign_vectors
from signrank.errors import DimensionError, ParseError
from signrank.rational import RationalMatrix, RationalSubspace
from signrank.signs import (
    SignPattern,
    SignVector,
    SignVectorSet,
    all_sign_vectors,
    condense,
    condense_with_trace,
    max_rank,
    orthogonal,
    set_perp,
    sign_of,
    sign_of_vector,
)

sign_entries = st.sampled_from((-1, 0, 1))

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def patterns(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(sign_entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(SignPattern.from_grid)
        )
    )


class TestSignVector:
    def test_round_trip(self):
        v = SignVector.from_string("+-0+")
        assert v.to_string() == "+-0+"
        assert v.signs() == (1, -1, 0, 1)
        assert (-v).to_string() == "-+0-"

    def test_bad_character(self):
        with pytest.raises(ParseError):
            SignVector.from_string("+x")

    def test_canonical_order(self):
        ordered = [v.to_string() for v in all_sign_vectors(2)]
        assert ordered == ["00", "0+", "0-", "+0", "++", "+-", "-0", "-+", "--"]

    def test_sort_key_matches_lexicographic_encoding(self):
        code = {0: 0, 1: 1, -1: 2}

        def expected(v):
            return int("".join(str(code[s]) for s in v.signs()) or "0", 3)

        for n in range(7):
            keys = [v.sort_key() for v in all_sign_vectors(n)]
            assert keys == [expected(v) for v in all_sign_vectors(n)]
            assert keys == list(range(3**n))
        rng = Random(16)
        for _ in range(5000):
            v = SignVector.from_signs(rng.choice((-1, 0, 1)) for _ in range(rng.randint(7, 16)))
            assert v.sort_key() == expected(v)

    def test_sign_of_vector(self):
        v = sign_of_vector([Fraction(2), Fraction(-1, 3), 0])
        assert v.to_string() == "+-0"


class TestSignOf:
    def test_matrix(self):
        m = RationalMatrix([[2, Fraction(-1, 3)], [0, 5]])
        assert sign_of(m) == SignPattern.from_strings(["+-", "0+"])

    def test_zero_matrix(self):
        assert sign_of(RationalMatrix.zeros(2, 3)).is_zero()

    def test_identity(self):
        assert sign_of(RationalMatrix.identity(3)) == SignPattern.from_strings(
            ["+00", "0+0", "00+"]
        )


class TestOrthogonal:
    def test_disjoint_supports(self):
        assert orthogonal(SignVector.from_string("+0"), SignVector.from_string("0+"))

    def test_agree_and_oppose(self):
        assert orthogonal(SignVector.from_string("++"), SignVector.from_string("+-"))

    def test_agree_only(self):
        assert not orthogonal(SignVector.from_string("++"), SignVector.from_string("+0"))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            orthogonal(SignVector.from_string("+"), SignVector.from_string("++"))

    def test_symmetry_exhaustive_small(self):
        for n in range(1, 5):
            vectors = list(all_sign_vectors(n))
            for c in vectors:
                for x in vectors:
                    assert orthogonal(c, x) == orthogonal(x, c)

    def test_real_orthogonality_implies_sign_orthogonality(self):
        rng = Random(5)
        for _ in range(200):
            n = rng.randint(2, 6)
            u = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            v = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            # project v against u to force an exact zero dot product
            uu = sum(a * a for a in u)
            if uu == 0:
                continue
            uv = sum(a * b for a, b in zip(u, v))
            w = [b - uv / uu * a for a, b in zip(u, v)]
            assert sum(a * b for a, b in zip(u, w)) == 0
            assert orthogonal(sign_of_vector(u), sign_of_vector(w))


def brute_perp(vectors, n):
    """Definition-level filter, kept independent of the library path."""
    out = []
    for candidate in product((-1, 0, 1), repeat=n):
        ok = True
        for x in vectors:
            xs = x.signs()
            cond1 = all(c == 0 or s == 0 for c, s in zip(candidate, xs))
            agree = any(c == s and c != 0 for c, s in zip(candidate, xs))
            oppose = any(c == -s and c != 0 for c, s in zip(candidate, xs))
            if not (cond1 or (agree and oppose)):
                ok = False
                break
        if ok:
            out.append(candidate)
    return out


@lru_cache(maxsize=None)
def reference_mask_pairs(n):
    """All (pos, neg) mask pairs of length n in canonical order."""
    pairs = [(0, 0)]
    for i in range(n):
        bit = 1 << i
        pairs = [
            (p | pb, q | qb) for (p, q) in pairs for (pb, qb) in ((0, 0), (bit, 0), (0, bit))
        ]
    return tuple(pairs)


def reference_set_perp(vectors, n):
    """The candidate loop that set_perp ran before its bitsliced kernel, kept
    as the reference: each of the 3^n candidates, in canonical order, is
    tested against every nonzero member (one of each +/- pair, narrowest
    first) until one is not orthogonal to it."""
    seen = set()
    for v in vectors:
        pn = (v.pos, v.neg)
        if v.is_zero() or pn in seen or (v.neg, v.pos) in seen:
            continue
        seen.add(pn)
    xs = sorted(seen, key=lambda pn: (pn[0] | pn[1]).bit_count())
    out = []
    for cp, cn in reference_mask_pairs(n):
        for xp, xn in xs:
            if bool((cp & xp) | (cn & xn)) != bool((cp & xn) | (cn & xp)):
                break
        else:
            out.append(SignVector(n, cp, cn))
    return SignVectorSet(n, out)


def random_vector(rng, n, zero_share):
    return SignVector.from_signs(
        0 if rng.random() < zero_share else rng.choice((-1, 1)) for _ in range(n)
    )


def seeded_member_lists(seed, widths, per_width):
    """Member lists with duplicates, +/- pairs and zero vectors mixed in."""
    rng = Random(seed)
    for n in widths:
        for _ in range(per_width):
            zero_share = rng.random()
            members = [random_vector(rng, n, zero_share) for _ in range(rng.randint(0, 2 * n + 2))]
            extra = []
            for v in members:
                roll = rng.random()
                if roll < 0.2:
                    extra.append(v)
                elif roll < 0.4:
                    extra.append(-v)
            if rng.random() < 0.3:
                extra.append(SignVector.zero(n))
            members += extra
            rng.shuffle(members)
            yield n, members


def duality_corpus_sign_sets():
    for path in sorted((CORPUS / "duality").glob("k*.mat")):
        matrix = RationalMatrix.parse(path.read_text(encoding="utf-8"))
        yield path.name, sign_vectors(RationalSubspace(matrix.rows, matrix)).signs


class TestSetPerpAgainstReference:
    def test_seeded_sets_up_to_eight(self):
        sizes = set()
        for n, members in seeded_member_lists(81, range(9), 24):
            expected = list(reference_set_perp(members, n))
            assert list(set_perp(members, n=n)) == expected
            assert list(set_perp(SignVectorSet(n, members))) == expected
            sizes.add(len(expected))
        assert len(sizes) > 50

    def test_seeded_sets_on_the_coordinate_path(self):
        # lengths above the subset tables OR the per-coordinate masks
        for n, members in seeded_member_lists(82, (9, 10), 3):
            assert list(set_perp(members, n=n)) == list(reference_set_perp(members, n))

    def test_coordinate_and_uncached_paths(self, monkeypatch):
        # no subset table: every length takes the per-call coordinate masks
        monkeypatch.setattr(signrank.signs, "_SUBSET_WIDTH", 0)
        for n, members in seeded_member_lists(83, range(7), 10):
            assert list(set_perp(members, n=n)) == list(reference_set_perp(members, n))

    def test_every_single_vector_and_pair_up_to_three(self):
        for n in range(4):
            vectors = list(all_sign_vectors(n))
            for members in combinations_with_replacement(vectors, 2):
                for chosen in (members[:1], members):
                    assert list(set_perp(chosen, n=n)) == list(reference_set_perp(chosen, n))

    def test_duality_corpus_sign_sets(self):
        names = []
        for name, signs in duality_corpus_sign_sets():
            assert list(set_perp(signs)) == list(reference_set_perp(signs, signs.n))
            names.append(name)
        assert len(names) == 36


def bits_of(model):
    return sum(1 << v.sort_key() for v in model)


def model_sets(seed):
    """Frozenset models: empty, zero only, the full cube, seeded subsets."""
    rng = Random(seed)
    for n in range(5):
        cube = list(all_sign_vectors(n))
        yield n, frozenset()
        yield n, frozenset([SignVector.zero(n)])
        yield n, frozenset(cube)
        for _ in range(6):
            yield n, frozenset(rng.sample(cube, rng.randint(1, len(cube))))


def both_sources(n, model):
    return SignVectorSet(n, model), SignVectorSet._from_bits(n, bits_of(model))


class TestSignVectorSetSources:
    def test_queries_match_the_model(self):
        for n, model in model_sets(91):
            cube = list(all_sign_vectors(n))
            ordered = sorted(model, key=SignVector.sort_key)
            for s in both_sources(n, model):
                assert len(s) == len(model)
                assert list(s) == ordered
                assert s.vectors == tuple(ordered)
                assert s.to_strings() == [v.to_string() for v in ordered]
                assert s.contains_zero() == (SignVector.zero(n) in model)
                assert [v in s for v in cube] == [v in model for v in cube]
                assert SignVector.zero(n + 1) not in s
                assert "0" * n not in s
                assert s.is_negation_closed() == all(-v in model for v in model)
                assert repr(s) == f"SignVectorSet(n={n}, size={len(model)})"

    def test_equality_and_hash_across_sources(self):
        models = list(model_sets(92))
        for n, model in models:
            vec, bits = both_sources(n, model)
            assert vec == bits and bits == vec
            assert hash(vec) == hash(bits)
            assert vec != SignVectorSet(n + 1, ()) and bits != SignVectorSet._from_bits(n + 1, 0)
        for (n, a), (m, b) in combinations(models[:40], 2):
            for x in both_sources(n, a):
                for y in both_sources(m, b):
                    assert (x == y) == (n == m and a == b)

    def test_difference_in_both_directions(self):
        models = list(model_sets(93))
        for (n, a), (m, b) in combinations(models, 2):
            if n != m:
                continue
            for x in both_sources(n, a):
                for y in both_sources(n, b):
                    assert x.difference(y) == tuple(sorted(a - b, key=SignVector.sort_key))
                    assert y.difference(x) == tuple(sorted(b - a, key=SignVector.sort_key))

    def test_perp_sets_equal_their_vector_built_copies(self):
        for n, members in seeded_member_lists(94, range(6), 10):
            perp = set_perp(members, n=n)
            copy = SignVectorSet(n, list(perp))
            assert perp == copy and copy == perp
            assert perp.difference(copy) == () == copy.difference(perp)
            assert perp.is_negation_closed() and perp.contains_zero()

    def test_sparse_sets_never_allocate_the_cube(self):
        # 3^40 bits would not fit in memory; a vector-built set never asks
        zero = SignVector.zero(40)
        s = SignVectorSet(40, [zero])
        assert len(s) == 1 and zero in s and s.contains_zero() and s.is_negation_closed()
        assert list(s) == [zero]
        assert s == SignVectorSet(40, [zero]) and s.difference(SignVectorSet(40, ())) == (zero,)

    def test_wide_line_has_three_sign_vectors(self):
        line = RationalSubspace.from_spanning(18, [[i + 1 for i in range(18)]])
        report = sign_vectors(line)
        assert report.signs.to_strings() == ["0" * 18, "+" * 18, "-" * 18]
        assert report.verify_witnesses()


class TestSetPerp:
    def test_empty_set_full_cube(self):
        assert len(set_perp([], n=3)) == 27

    def test_single_support_one(self):
        assert len(set_perp([SignVector.from_string("+00")], n=3)) == 9

    def test_all_plus_is_thirteen(self):
        s = set_perp([SignVector.from_string("+++")], n=3)
        assert len(s) == 13
        assert {v.signs() for v in s} == set(brute_perp([SignVector.from_string("+++")], 3))

    def test_matches_definition_filter_on_random_sets(self):
        rng = Random(11)
        for _ in range(40):
            n = rng.randint(1, 4)
            members = [
                SignVector.from_signs([rng.choice((-1, 0, 1)) for _ in range(n)])
                for _ in range(rng.randint(1, 4))
            ]
            got = {v.signs() for v in set_perp(members, n=n)}
            assert got == set(brute_perp(members, n))

    def test_triple_application_stabilizes(self):
        # exhaustive over all subsets at n=2
        vectors2 = list(all_sign_vectors(2))
        for bits in range(1 << len(vectors2)):
            subset = [v for i, v in enumerate(vectors2) if bits >> i & 1]
            once = set_perp(subset, n=2)
            assert set_perp(set_perp(once)) == once
        # singletons and pairs at n=3, then seeded random subsets
        vectors3 = list(all_sign_vectors(3))
        for v in vectors3:
            once = set_perp([v], n=3)
            assert set_perp(set_perp(once)) == once
        for a, b in combinations(vectors3, 2):
            once = set_perp([a, b], n=3)
            assert set_perp(set_perp(once)) == once
        rng = Random(13)
        for _ in range(50):
            subset = rng.sample(vectors3, rng.randint(3, 10))
            once = set_perp(subset, n=3)
            assert set_perp(set_perp(once)) == once

    def test_requires_length_for_empty_iterable(self):
        with pytest.raises(DimensionError):
            set_perp([])

    def test_member_longer_than_n_rejected(self):
        with pytest.raises(DimensionError):
            set_perp([SignVector.from_string("+-+-+")], n=3)

    def test_mixed_lengths_rejected(self):
        mixed = [SignVector.from_string("+"), SignVector.from_string("++-")]
        with pytest.raises(DimensionError):
            set_perp(mixed, n=3)
        with pytest.raises(DimensionError):
            set_perp(mixed)


class TestCondense:
    def test_duplicate_row_then_column(self):
        assert condense(SignPattern.from_strings(["++", "++"])) == SignPattern.from_strings(["+"])

    def test_opposite_row_then_column(self):
        assert condense(SignPattern.from_strings(["+-", "-+"])) == SignPattern.from_strings(["+"])

    def test_already_condensed(self):
        p = SignPattern.from_strings(["++", "0+"])
        assert condense(p) == p

    def test_duplicate_column_in_example(self):
        # columns 2 and 3 coincide, so the two-row example is not condensed
        p = SignPattern.from_strings(["+++", "0++"])
        assert condense(p) == SignPattern.from_strings(["++", "0+"])

    def test_zero_pattern_collapses_to_empty(self):
        c = condense(SignPattern.from_strings(["00", "00"]))
        assert c.rows == 0 and c.cols == 0

    def test_iterates_to_fixpoint(self):
        # removing the duplicate column makes rows collapse too
        p = SignPattern.from_strings(["+-+", "+0+"])
        c = condense(p)
        assert c == SignPattern.from_strings(["+-", "+0"])

    @settings(max_examples=80, deadline=None)
    @given(patterns())
    def test_idempotent(self, p):
        once = condense(p)
        assert condense(once) == once

    @settings(max_examples=80, deadline=None)
    @given(patterns())
    def test_trace_reconstructs_pattern(self, p):
        trace = condense_with_trace(p)
        cond = trace.pattern
        for i in range(p.rows):
            for j in range(p.cols):
                rm = trace.row_map[i]
                cm = trace.col_map[j]
                if rm is None or cm is None:
                    # dropped lines are zero or mapped through their twin;
                    # zero rows/cols really are zero in the original
                    continue
                assert p.entry(i, j) == cond.entry(rm[0], cm[0]) * rm[1] * cm[1]

    @settings(max_examples=60, deadline=None)
    @given(patterns())
    def test_condensed_property_holds(self, p):
        c = condense(p)
        rows = [r.signs() for r in c.row_vectors]
        cols = [c.column(j).signs() for j in range(c.cols)]
        for lines in (rows, cols):
            for line in lines:
                assert any(line)
            for a, b in combinations(lines, 2):
                assert a != b and a != tuple(-e for e in b)


def brute_term_rank(p):
    """Max nonzero selection, no two sharing a line; independent recursion."""
    cols_nonzero = [
        [j for j in range(p.cols) if p.entry(i, j) != 0] for i in range(p.rows)
    ]

    def best(i, used):
        if i == p.rows:
            return 0
        top = best(i + 1, used)
        for j in cols_nonzero[i]:
            if not used >> j & 1:
                top = max(top, 1 + best(i + 1, used | 1 << j))
        return top

    return best(0, 0)


class TestMaxRank:
    def test_identity(self):
        assert max_rank(SignPattern.from_strings(["+00", "0+0", "00+"])) == 3

    def test_full_pattern(self):
        assert max_rank(SignPattern.from_strings(["+++", "+++"])) == 2

    def test_single_column_support(self):
        assert max_rank(SignPattern.from_strings(["+0", "+0"])) == 1

    @settings(max_examples=100, deadline=None)
    @given(patterns(max_rows=5, max_cols=5))
    def test_matches_brute_force(self, p):
        assert max_rank(p) == brute_term_rank(p)


class TestPatternParsing:
    def test_parse_with_whitespace_and_comments(self):
        text = "# heading\n+ - 0\n0 + +  # tail\n"
        assert SignPattern.parse(text) == SignPattern.from_strings(["+-0", "0++"])

    def test_bad_character_diagnostics(self):
        with pytest.raises(ParseError) as exc:
            SignPattern.parse("+-\n+x\n")
        assert exc.value.line == 2 and exc.value.col == 2

    def test_ragged_rejected(self):
        with pytest.raises(ParseError):
            SignPattern.parse("+-\n+\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            SignPattern.parse("# nothing\n")

    def test_json_form(self):
        p = SignPattern.from_strings(["++0", "-0+"])
        assert p.to_strings() == ["++0", "-0+"]


class TestSignVectorSet:
    def test_sorted_and_deduplicated(self):
        a = SignVector.from_string("+-")
        b = SignVector.from_string("00")
        s = SignVectorSet(2, [a, b, a])
        assert len(s) == 2
        assert s.to_strings() == ["00", "+-"]

    def test_negation_closure_predicate(self):
        closed = SignVectorSet(2, [SignVector.from_string("+-"), SignVector.from_string("-+")])
        assert closed.is_negation_closed()
        open_set = SignVectorSet(2, [SignVector.from_string("+-")])
        assert not open_set.is_negation_closed()

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            SignVectorSet(2, [SignVector.from_string("+")])
