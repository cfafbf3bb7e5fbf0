"""Sign vectors of subspaces: enumeration, witnesses, membership, duality."""

from collections import deque
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path
from random import Random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signrank import covectors
from signrank.covectors import (
    member_witness,
    random_subspace,
    same_sign_dim_check,
    sign_vectors,
    verify_duality,
)
from signrank.errors import DimensionError
from signrank.rational import (
    RationalMatrix,
    RationalSubspace,
    integer_nullspace,
    integer_rows,
    nullspace_basis,
    orth_complement,
    rank,
)
from signrank.realize import realize_corank2
from signrank.signs import SignPattern, SignVector, all_sign_vectors, sign_of_vector


def span(n, *vectors):
    return RationalSubspace.from_spanning(n, list(vectors))


def brute_force_plane_signs(basis_cols, n, span_range=8):
    """Sign vectors met by small integer combinations of the basis columns."""
    out = set()
    k = len(basis_cols)
    coeffs = range(-span_range, span_range + 1)

    def rec(i, acc):
        if i == k:
            out.add(sign_of_vector(acc))
            return
        for c in coeffs:
            rec(i + 1, [a + c * b for a, b in zip(acc, basis_cols[i])])

    rec(0, [Fraction(0)] * n)
    return out


# Reference enumerator: the original Fraction implementation of
# sign_vectors. Cocircuits come from Fraction null spaces of (k-1)-row
# submatrices, and the closure composes every vector with every generator
# until nothing new appears. sign_vectors must reproduce its sign sets.
# The reference witness of a sign vector is the primitive integer sum of
# the reference cocircuits conformal to it; sign_vectors must reproduce
# those witnesses, in canonical order, exactly.


def _ref_primitive(coeff, image):
    mult = 1
    for f in list(coeff) + list(image):
        mult = mult * f.denominator // gcd(mult, f.denominator)
    ints = [int(f * mult) for f in coeff] + [int(f * mult) for f in image]
    g = gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    return tuple(ints[: len(coeff)]), tuple(ints[len(coeff) :])


def _ref_pack(values):
    sv = sign_of_vector(values)
    return sv.pos, sv.neg


def _ref_cocircuit_candidates(basis):
    n, k = basis.rows, basis.cols
    found = {}
    for subset in combinations(range(n), k - 1):
        sub = RationalMatrix([basis.row(i) for i in subset], cols=k)
        null = nullspace_basis(sub)
        if null.dim != 1:
            continue
        z = null.basis.column(0)
        coeff, img = _ref_primitive(z, basis.apply(z))
        key = _ref_pack(img)
        if key not in found:
            found[key] = (coeff, img)
            found[(key[1], key[0])] = (
                tuple(-v for v in coeff),
                tuple(-v for v in img),
            )
    return [(p, q, c, v) for (p, q), (c, v) in found.items()]


def reference_cocircuits(basis):
    """The cocircuits as (pos, neg, coeff), from one integer kernel per
    (k-1)-row block of D B: the build that the table of maximal minors
    replaced. coeff is the primitive integer point (coeff, B coeff) on the
    cocircuit's ray."""
    n, k = basis.rows, basis.cols
    scale, rows = integer_rows(basis.data)
    found = {}
    for subset in combinations(range(n), k - 1) if k else ():
        kernel = integer_nullspace([rows[i] for i in subset], k)
        if len(kernel) != 1:
            continue
        (c,) = kernel
        coeff = [scale * v for v in c]
        image = [sum(a * b for a, b in zip(row, c)) for row in rows]
        g = gcd(*coeff, *image)
        key = _ref_pack(image)
        if key not in found:
            found[key] = tuple(v // g for v in coeff)
            found[(key[1], key[0])] = tuple(-v // g for v in coeff)
    return {(p, q, c) for (p, q), c in found.items()}


def table_cocircuits(basis):
    """The cover index's cocircuits as (pos, neg, coeff); each appears once."""
    index = covectors._CoverIndex(basis)
    found = {(p, q, index.coefficient(g)) for g, (p, q) in enumerate(index.cocircuits)}
    assert len(found) == len(index.cocircuits)
    return found



def reference_masks(index):
    """The cover index's per-coordinate masks, by the loop over coordinates
    and cocircuits that bit_columns replaced."""
    n = len(index.rows)
    every = (1 << len(index.cocircuits)) - 1
    plus_at, minus_at = [0] * n, [0] * n
    for g, (p, q) in enumerate(index.cocircuits):
        for i in range(n):
            if p >> i & 1:
                plus_at[i] |= 1 << g
            elif q >> i & 1:
                minus_at[i] |= 1 << g
    return tuple((every ^ m, every ^ p, every ^ (p | m)) for p, m in zip(plus_at, minus_at))

def duality_corpus_bases():
    """The duality benchmark's 36 bases and their 36 complements."""
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus" / "duality"
    spaces = []
    for path in sorted(corpus.glob("*.mat")):
        matrix = RationalMatrix.parse(path.read_text(encoding="utf-8"))
        space = RationalSubspace(matrix.rows, matrix)
        spaces += [space.basis, orth_complement(space).basis]
    return spaces


def reference_sign_vectors(subspace):
    """sign(L) in canonical order, by breadth-first composition closure."""
    n, k = subspace.ambient_dim, subspace.dim
    known = {(0, 0)}
    if k > 0:
        generators = [(p, q) for p, q, _, _ in _ref_cocircuit_candidates(subspace.basis)]
        known.update(generators)
        queue = deque(generators)
        # u then g depends only on g restricted to the zeros of u
        restrictions = {}
        while queue:
            up, uq = queue.popleft()
            zeros = ~(up | uq)
            if zeros not in restrictions:
                restrictions[zeros] = {(gp & zeros, gq & zeros) for gp, gq in generators}
            for rp, rq in restrictions[zeros]:
                w = (up | rp, uq | rq)
                if w not in known:
                    known.add(w)
                    queue.append(w)
    return sorted((SignVector(n, p, q) for p, q in known), key=SignVector.sort_key)


def reference_cover_witnesses(subspace):
    """(sign vector, witness) over sign(L) in canonical order: the sum of
    the reference cocircuits conformal to it, made primitive."""
    n, k = subspace.ambient_dim, subspace.dim
    cocircuits = _ref_cocircuit_candidates(subspace.basis) if k > 0 else []
    out = []
    for sv in reference_sign_vectors(subspace):
        coeff, image = [0] * k, [0] * n
        for p, q, c, v in cocircuits:
            if p & ~sv.pos or q & ~sv.neg:
                continue
            coeff = [a + b for a, b in zip(coeff, c)]
            image = [a + b for a, b in zip(image, v)]
        coeff, image = _ref_primitive(coeff, image)
        assert sign_of_vector(image) == sv
        out.append((sv, coeff))
    return out


def assert_one_cover(space, vectors):
    """member_witness(space, X) is None exactly when X is not in sign(L),
    and otherwise the report's witness of X is the primitive integer point
    on the ray of (x, B x)."""
    report = sign_vectors(space)
    for s in vectors:
        x = member_witness(space, s)
        assert (x is not None) == (s in report.signs)
        if x is not None:
            assert report.witnesses[s] == _ref_primitive(x, space.basis.apply(x))[0]


class TestSignVectors:
    def test_coordinate_plane(self):
        report = sign_vectors(span(3, (1, 0, 0), (0, 1, 0)))
        assert len(report.signs) == 9
        assert all(v[2] == 0 for v in report.signs)

    def test_diagonal_line(self):
        report = sign_vectors(span(3, (1, 1, 1)))
        assert report.signs.to_strings() == ["000", "+++", "---"]

    def test_sum_zero_plane_is_thirteen(self):
        plane = nullspace_basis(RationalMatrix([[1, 1, 1]]))
        report = sign_vectors(plane)
        assert len(report.signs) == 13
        cols = [plane.basis.column(j) for j in range(plane.dim)]
        assert set(report.signs) == brute_force_plane_signs(cols, 3)

    def test_zero_subspace(self):
        report = sign_vectors(RationalSubspace.zero(4))
        assert report.signs.to_strings() == ["0000"]

    def test_full_space(self):
        assert len(sign_vectors(RationalSubspace.full(3)).signs) == 27

    def test_grid_sampler_never_escapes_enumeration(self):
        # every sign vector hit by explicit combinations must be enumerated;
        # exactness in the other direction is covered by the feasibility
        # cross-check in TestMemberWitness
        rng = Random(23)
        for _ in range(25):
            n = rng.randint(2, 4)
            k = rng.randint(1, n)
            space = random_subspace(n, k, rng)
            report = sign_vectors(space)
            cols = [space.basis.column(j) for j in range(k)]
            brute = brute_force_plane_signs(cols, n, span_range=6)
            assert brute <= set(report.signs)

    def test_matches_fraction_reference(self):
        rng = Random(67)
        for n in range(1, 8):
            for k in range(0, n + 1):
                for _ in range(3):
                    space = random_subspace(n, k, rng)
                    report = sign_vectors(space)
                    assert list(report.signs.vectors) == reference_sign_vectors(space)
                    assert list(report.witnesses.items()) == reference_cover_witnesses(space)

    def test_matches_fraction_reference_on_complements(self):
        rng = Random(71)
        for n in range(2, 7):
            for k in range(1, n):
                space = orth_complement(random_subspace(n, k, rng))
                report = sign_vectors(space)
                assert list(report.signs.vectors) == reference_sign_vectors(space)
                assert list(report.witnesses.items()) == reference_cover_witnesses(space)

    def test_matches_the_reference_past_the_first_chunk(self):
        # from n = 7 on, the leading coordinates are walked and the last six
        # bitsliced; n = 10 has 81 chunks and crosses the 3^n <= 256 |set|
        # switch between bits- and vector-backed results
        rng = Random(73)
        for n in range(7, 11):
            for k in range(0, n + 1):
                space = random_subspace(n, k, rng)
                signs = sign_vectors(space).signs
                assert list(signs) == reference_sign_vectors(space)
                # bits-backed exactly when 3^n bits cost at most 256 per member
                assert (signs._lookup is None) == (3**n <= 256 * len(signs))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=n
            )
        )
    )
    def test_matches_the_reference_on_small_integer_spans(self, columns):
        space = RationalSubspace.from_spanning(len(columns[0]), columns)
        assert list(sign_vectors(space).signs) == reference_sign_vectors(space)

    def test_sparse_sets_in_long_ambient_spaces_stay_vector_backed(self):
        # 3^20 bits would be 436 MB; a line has 3 sign vectors, a plane at
        # most 4n + 1
        rng = Random(79)
        for k in (1, 2):
            space = random_subspace(20, k, rng)
            tracemalloc.start()
            try:
                signs = sign_vectors(space).signs
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 5 * 2**20
            assert signs._lookup is not None
            assert list(signs) == reference_sign_vectors(space)

    def test_vector_backed_sets_come_in_canonical_order(self):
        # the cover emits its members in canonical order and the set keeps it
        rng = Random(81)
        checked = 0
        for n in range(12, 21):
            for k in (2, 3):
                signs = sign_vectors(random_subspace(n, k, rng)).signs
                if signs._lookup is None:
                    continue
                checked += 1
                assert list(signs) == sorted(signs, key=SignVector.sort_key)
                assert len(set(signs)) == len(signs)
        assert checked >= 12

    def test_witness_is_primitive_on_the_rational_ray(self):
        # (x, Bx) = (6, (3, 2)) is the primitive integer point; scaling each
        # row of B to integers separately would keep the signs but give x = 1
        line = RationalSubspace(2, RationalMatrix([[Fraction(1, 2)], [Fraction(1, 3)]]))
        assert sign_vectors(line).witnesses[SignVector.from_string("++")] == (6,)

    def test_witnesses_verify_exactly(self):
        rng = Random(29)
        for _ in range(30):
            n = rng.randint(1, 6)
            k = rng.randint(0, n)
            report = sign_vectors(random_subspace(n, k, rng))
            assert report.verify_witnesses()

    def test_structural_invariants_randomized(self):
        rng = Random(31)
        for _ in range(60):
            n = rng.randint(1, 6)
            k = rng.randint(0, n)
            signs = sign_vectors(random_subspace(n, k, rng)).signs
            assert len(signs) % 2 == 1
            assert signs.contains_zero()
            assert signs.is_negation_closed()

    def test_monotone_under_basis_extension(self):
        rng = Random(37)
        for _ in range(25):
            n = rng.randint(2, 5)
            k = rng.randint(1, n - 1)
            small = random_subspace(n, k, rng)
            extra = random_subspace(n, 1, rng)
            big = RationalSubspace.from_spanning(
                n,
                [small.basis.column(j) for j in range(k)]
                + [extra.basis.column(0)],
            )
            small_signs = set(sign_vectors(small).signs)
            big_signs = set(sign_vectors(big).signs)
            assert small_signs <= big_signs

    def test_cardinality_bounds_randomized(self):
        rng = Random(41)
        for _ in range(40):
            n = rng.randint(2, 6)
            k = rng.randint(1, n)
            count = len(sign_vectors(random_subspace(n, k, rng)).signs)
            assert count >= 3**k
            if k == 2:
                assert count <= 4 * n + 1
            if k == n - 1:
                assert count <= 3**n - 2 * (2**n - 1)


class TestCocircuitTable:
    # the cocircuits read off the minor table, with their coefficients, are
    # exactly those of one kernel per (k-1)-row block

    def test_every_small_matrix_over_three_signs(self):
        checked = 0
        for n, k in ((3, 2), (4, 2), (3, 3)):
            for entries in product((-1, 0, 1), repeat=n * k):
                basis = RationalMatrix([entries[i * k : (i + 1) * k] for i in range(n)])
                if rank(basis) == k:
                    assert table_cocircuits(basis) == reference_cocircuits(basis)
                    checked += 1
        assert checked == 18_672

    def test_seeded_subspaces_of_every_dimension(self):
        shapes = [(n, k) for n in range(1, 9) for k in range(n + 1)]
        rng = Random(1301)
        for i in range(280):
            n, k = shapes[i % len(shapes)]
            basis = random_subspace(n, k, rng).basis
            assert table_cocircuits(basis) == reference_cocircuits(basis)

    def test_duality_corpus_bases_and_complements(self):
        bases = duality_corpus_bases()
        assert len(bases) == 72
        for basis in bases:
            assert table_cocircuits(basis) == reference_cocircuits(basis)

    def test_masks_match_the_per_coordinate_loop(self):
        bases = []
        for n, k in ((3, 2), (4, 2), (3, 3)):
            for entries in product((-1, 0, 1), repeat=n * k):
                basis = RationalMatrix([entries[i * k : (i + 1) * k] for i in range(n)])
                if rank(basis) == k:
                    bases.append(basis)
        shapes = [(n, k) for n in range(1, 9) for k in range(n + 1)]
        rng = Random(1301)
        bases += [random_subspace(*shapes[i % len(shapes)], rng).basis for i in range(280)]
        bases += duality_corpus_bases()
        for basis in bases:
            index = covectors._CoverIndex(basis)
            assert index.masks == reference_masks(index)


class TestSignOnlyCallers:
    def test_build_no_witness(self, monkeypatch):
        # the cover is sign-only; witnesses, the per-coordinate masks that
        # select their cocircuits and the cocircuits' integer coefficients
        # are built only when read
        def forbidden(owner):
            raise AssertionError(f"a sign-only caller built {type(owner).__name__} data")

        def eliminated(rows, ncols):
            raise AssertionError("a sign-only caller eliminated a block")

        rng = Random(83)
        spaces = [random_subspace(n, k, rng) for n in range(1, 8) for k in range(n + 1)]
        reports = []
        with monkeypatch.context() as patch:
            patch.setattr(covectors.SubspaceSignReport, "witnesses", property(forbidden))
            patch.setattr(covectors._CoverIndex, "masks", property(forbidden))
            patch.setattr(covectors, "integer_nullspace", eliminated)
            for space in spaces:
                assert verify_duality(space).ok
                assert same_sign_dim_check(space, space)
                report = sign_vectors(space)
                assert len(report.signs) >= 3**space.dim
                reports.append(report)
        for space, report in zip(spaces, reports):
            assert list(report.signs.vectors) == reference_sign_vectors(space)
            assert list(report.witnesses.items()) == reference_cover_witnesses(space)


class TestMemberWitness:
    def test_on_the_line(self):
        line = span(3, (1, 1, 1))
        x = member_witness(line, SignVector.from_string("+++"))
        assert x is not None and line.basis.apply(x) == (x[0], x[0], x[0]) and x[0] > 0

    def test_absent_off_the_line(self):
        assert member_witness(span(3, (1, 1, 1)), SignVector.from_string("+-+")) is None

    def test_plane_witness(self):
        plane = nullspace_basis(RationalMatrix([[1, 1, 1]]))
        x = member_witness(plane, SignVector.from_string("+-0"))
        assert x is not None
        image = plane.basis.apply(x)
        assert image[0] > 0 and image[1] < 0 and image[2] == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            member_witness(span(2, (1, 0)), SignVector.from_string("+"))

    def test_agrees_with_enumeration(self):
        # the conformal cover decides every one of the 3^n candidates on its own
        rng = Random(43)
        for n in range(1, 6):
            for k in range(0, n + 1):
                for _ in range(2):
                    space = random_subspace(n, k, rng)
                    assert_one_cover(space, all_sign_vectors(n))

    def test_agrees_with_enumeration_for_n6_to_n8(self):
        # 150 random candidates and 150 planted members sign(B x) per subspace
        rng = Random(44)
        for n in range(6, 9):
            for k in range(0, n + 1):
                space = random_subspace(n, k, rng)
                candidates = [SignVector.from_signs(rng.choice((1, 0, -1)) for _ in range(n)) for _ in range(150)]
                candidates += [
                    sign_of_vector(space.basis.apply([rng.randint(-3, 3) for _ in range(k)]))
                    for _ in range(150)
                ]
                assert_one_cover(space, candidates)

    def test_large_ambient_dimensions(self):
        # n = 12..14 is the desk-scale top; planted targets are members and
        # their witnesses re-verify
        rng = Random(1214)
        for n in (12, 13, 14):
            for k in (3, 5, 7):
                space = random_subspace(n, k, rng)
                for _ in range(4):
                    x = [0] * k
                    while not any(x):
                        x = [rng.randint(-3, 3) for _ in range(k)]
                    target = sign_of_vector(space.basis.apply(x))
                    witness = member_witness(space, target)
                    assert witness is not None
                    assert sign_of_vector(space.basis.apply(witness)) == target

    def test_agrees_with_enumeration_in_r12(self):
        rng = Random(12)
        for k in (3, 5):
            space = random_subspace(12, k, rng)
            signs = sign_vectors(space).signs
            targets = [
                SignVector.from_signs(rng.choice((1, 0, -1)) for _ in range(12)) for _ in range(40)
            ]
            targets += [
                sign_of_vector(space.basis.apply([rng.randint(-3, 3) for _ in range(k)]))
                for _ in range(40)
            ]
            members = 0
            for s in targets:
                witness = member_witness(space, s)
                assert (witness is not None) == (s in signs)
                if witness is not None:
                    members += 1
                    assert sign_of_vector(space.basis.apply(witness)) == s
            assert 40 <= members < len(targets)


class TestCocircuitCache:
    def test_realize_corank2_builds_the_complement_cocircuits_once(self):
        corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus" / "witness"
        pattern = SignPattern.parse((corpus / "real-n7-1.sp").read_text(encoding="utf-8"))
        covectors._cached_index.cache_clear()
        assert realize_corank2(pattern).ok
        info = covectors._cached_index.cache_info()
        assert (info.misses, info.hits) == (1, pattern.cols - 1)

    def test_repeat_query_does_not_rebuild(self):
        space = random_subspace(6, 3, Random(61))
        target = sign_of_vector(space.basis.apply([1, 2, -1]))
        first = member_witness(space, target)
        before = covectors._cached_index.cache_info()
        assert member_witness(space, target) == first
        # the cache is keyed on the basis by value, not on the subspace object
        same_basis = RationalSubspace(6, RationalMatrix(space.basis.data))
        assert member_witness(same_basis, -target) is not None
        after = covectors._cached_index.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 2)

    def test_zero_vector_and_zero_subspace(self):
        space = random_subspace(4, 2, Random(67))
        assert member_witness(space, SignVector.zero(4)) == (Fraction(0), Fraction(0))
        assert member_witness(RationalSubspace.zero(4), SignVector.zero(4)) == ()
        assert member_witness(RationalSubspace.zero(4), SignVector.from_string("+000")) is None


class TestVerifyDuality:
    def test_diagonal_line_in_r3(self):
        check = verify_duality(span(3, (1, 1, 0)))
        assert check.ok

    def test_full_space(self):
        assert verify_duality(RationalSubspace.full(3)).ok

    def test_zero_subspace(self):
        assert verify_duality(RationalSubspace.zero(3)).ok

    def test_randomized(self):
        rng = Random(47)
        for _ in range(60):
            n = rng.randint(1, 5)
            k = rng.randint(0, n)
            check = verify_duality(random_subspace(n, k, rng))
            assert check.ok, (check.complement_only, check.perp_only)


class TestDeterminism:
    def test_reports_identical_across_calls(self):
        rng_a = Random(97)
        rng_b = Random(97)
        first = sign_vectors(random_subspace(5, 3, rng_a))
        second = sign_vectors(random_subspace(5, 3, rng_b))
        assert first.signs == second.signs
        assert first.witnesses == second.witnesses


class TestSameSignDimCheck:
    def test_equal_subspaces(self):
        a = span(2, (1, 2))
        assert same_sign_dim_check(a, a)

    def test_different_axes(self):
        assert not same_sign_dim_check(span(2, (1, 0)), span(2, (0, 1)))

    def test_different_lines_same_signs(self):
        assert same_sign_dim_check(span(2, (1, 2)), span(2, (1, 3)))

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            same_sign_dim_check(span(2, (1, 0)), span(3, (1, 0, 0)))


class TestRandomSubspace:
    def test_exact_dimension_and_entry_lattice(self):
        rng = Random(53)
        for _ in range(30):
            n = rng.randint(1, 6)
            k = rng.randint(0, n)
            space = random_subspace(n, k, rng)
            assert space.dim == k and space.ambient_dim == n
            for row in space.basis.data:
                for e in row:
                    assert abs(e.numerator) <= 5 * 3 and 1 <= e.denominator <= 3

    def test_deterministic_for_seed(self):
        a = random_subspace(4, 2, Random(99)).basis
        b = random_subspace(4, 2, Random(99)).basis
        assert a == b

    def test_bad_dimension(self):
        with pytest.raises(DimensionError):
            random_subspace(2, 3, Random(0))

    def test_duality_consistency_with_complement(self):
        # sign(K) computed directly equals sign(L)^perp for K = L^perp
        from signrank.signs import set_perp

        rng = Random(59)
        for _ in range(20):
            n = rng.randint(2, 5)
            k = rng.randint(1, n - 1)
            space = random_subspace(n, k, rng)
            direct = sign_vectors(orth_complement(space)).signs
            dual = set_perp(sign_vectors(space).signs)
            assert direct == dual
