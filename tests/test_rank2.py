"""Rank-2 certificates, realizations, and type enumeration."""

import signal
import time
from contextlib import contextmanager
from itertools import combinations, product
from pathlib import Path
from random import Random

import pytest

from signrank import errors, minrank, rank2, realize
from signrank.covectors import sign_vectors
from signrank.errors import BudgetExceededError, Deadline, DimensionError
from signrank.rank2 import (
    enumerate_rank2_types,
    find_plane_type,
    mr_le_2,
    realize_rank2,
    sign_set_of_type,
    type_sign_sets,
)
from signrank.rational import RationalMatrix, RationalSubspace, rank
from signrank.realize import rationalize_equation, realize_corank2
from signrank.signs import (
    SignPattern,
    SignVector,
    SignVectorSet,
    all_sign_vectors,
    condense,
    orthogonal,
    sign_of,
)

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def t1t2(n):
    from signrank.extremal import t1t2_pattern

    return t1t2_pattern(n)


def reference_mr_le_2(pattern):
    """The signature search that mr_le_2 ran before it read one signature
    off the first condensed row, kept as the reference: every signature
    with column 0 pinned +, _chain_order on each."""
    trace = rank2.condense_with_trace(pattern)
    cond = trace.pattern
    if cond.rows < 2 or any(cond.cols - r.support_size() > 1 for r in cond.row_vectors):
        return None
    for tail in product((1, -1), repeat=cond.cols - 1):
        order = rank2._chain_order(cond, (1,) + tail)
        if order is not None:
            return rank2.Mr2Certificate((1,) + tail, order, trace)
    return None


def planted_grid(rng, m, n):
    """sign(U V) for integer U (m x 2) and V (2 x n) with entries in -3..3."""
    u = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(m)]
    v = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
    return [[(a * x + b * y > 0) - (a * x + b * y < 0) for x, y in v] for a, b in u]


def planted_wide(rng, n):
    """A rank-2 n x n sign grid that condenses to n x n: the rows' zero
    lines and the columns alternate in slope order, then rows and columns
    are shuffled and randomly negated."""
    slopes = sorted(rng.sample(range(-1000, 1000), 2 * n))
    rows = [(-s, 1, rng.choice((-1, 1))) for s in slopes[0::2]]
    cols = [(1, s, rng.choice((-1, 1))) for s in slopes[1::2]]
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [
        [r * c * (1 if a * x + b * y > 0 else -1) for x, y, c in cols] for a, b, r in rows
    ]


class TestMrLe2:
    def test_two_row_example(self):
        assert mr_le_2(SignPattern.from_strings(["+++", "0++"])) is not None

    def test_stacked_witness(self):
        for n in (2, 3, 5):
            assert mr_le_2(t1t2(n)) is not None

    def test_identity_has_no_certificate(self):
        assert mr_le_2(SignPattern.from_strings(["+00", "0+0", "00+"])) is None

    def test_rank_one_pattern_has_no_certificate(self):
        assert mr_le_2(SignPattern.from_strings(["++", "++"])) is None
        assert mr_le_2(SignPattern.from_strings(["00", "00"])) is None

    def test_per_row_direction_case(self):
        # needs one row ascending and another descending in the same order
        pattern = SignPattern.from_strings(["++0", "+-+", "--+", "-0-", "--0"])
        cert = mr_le_2(pattern)
        assert cert is not None
        realization = realize_rank2(pattern, cert)
        assert rank(realization) == 2 and sign_of(realization) == pattern

    def test_wide_planted_pattern_decides_without_budget(self):
        pattern = SignPattern.from_grid(planted_wide(Random(20), 20))
        cond = condense(pattern)
        assert (cond.rows, cond.cols) == (20, 20)
        start = time.perf_counter()
        cert = mr_le_2(pattern)
        realization = realize_rank2(pattern, cert)
        assert time.perf_counter() - start < 1
        assert rank(realization) == 2 and sign_of(realization) == pattern
        grid = [list(r.signs()) for r in pattern.row_vectors]
        grid[5][7] = -grid[5][7]
        start = time.perf_counter()
        assert mr_le_2(SignPattern.from_grid(grid)) is None
        assert time.perf_counter() - start < 1

    def test_agrees_with_the_signature_search(self):
        # one signature read off the first condensed row decides what the
        # search over every signature decides; each certificate realizes
        rng = Random(11)
        patterns = []
        for _ in range(1000):
            m, n = rng.randint(2, 7), rng.randint(2, 7)
            patterns.append([[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)])
        planted = [planted_grid(rng, rng.randint(2, 11), rng.randint(2, 11)) for _ in range(500)]
        for grid in planted:
            changed = [row[:] for row in grid]
            i, j = rng.randrange(len(grid)), rng.randrange(len(grid[0]))
            changed[i][j] = rng.choice([s for s in (-1, 0, 1) if s != grid[i][j]])
            patterns += [grid, changed]
        for grid in patterns:
            pattern = SignPattern.from_grid(grid)
            cert = mr_le_2(pattern)
            assert (cert is None) == (reference_mr_le_2(pattern) is None)
            if cert is not None:
                realize_rank2(pattern, cert)

    def test_agrees_with_exhaustive_flip_search(self):
        # independent slow oracle: try every row-flip/column-sign choice and
        # ask for a common column order sorting all flipped rows ascending
        def slow_oracle(pattern):
            cond = condense(pattern)
            if cond.rows < 2:
                return False
            if any(cond.cols - r.support_size() > 1 for r in cond.row_vectors):
                return False
            grid = [r.signs() for r in cond.row_vectors]
            m, n = cond.rows, cond.cols
            for rowbits in range(1 << m):
                flipped = [
                    [(-1) ** (rowbits >> i & 1) * e for e in grid[i]] for i in range(m)
                ]
                for colbits in range(1 << n):
                    cols = [
                        tuple((-1) ** (colbits >> j & 1) * flipped[i][j] for i in range(m))
                        for j in range(n)
                    ]
                    orderable = sorted(cols)
                    if all(
                        a <= b
                        for left, right in zip(orderable, orderable[1:])
                        for a, b in zip(left, right)
                    ):
                        return True
            return False

        rng = Random(101)
        for _ in range(150):
            m = rng.randint(1, 5)
            n = rng.randint(1, 4)
            pattern = SignPattern.from_grid(
                [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
            )
            assert (mr_le_2(pattern) is not None) == slow_oracle(pattern)

    def test_certificate_rows_monotone_after_signing_and_ordering(self):
        rng = Random(23)
        seen = 0
        while seen < 40:
            m = rng.randint(2, 5)
            n = rng.randint(2, 5)
            pattern = SignPattern.from_grid(
                [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
            )
            cert = mr_le_2(pattern)
            if cert is None:
                continue
            seen += 1
            cond = cert.trace.pattern
            for i in range(cond.rows):
                row = [
                    cond.entry(i, j) * cert.signature[j] for j in cert.column_order
                ]
                ascending = all(a <= b for a, b in zip(row, row[1:]))
                descending = all(a >= b for a, b in zip(row, row[1:]))
                assert ascending or descending
                assert row.count(0) <= 1

    def test_condensed_width_bound(self):
        # a condensed pattern with rank 2 has at most twice as many rows as columns
        rng = Random(17)
        seen = 0
        while seen < 50:
            m = rng.randint(2, 6)
            n = rng.randint(2, 4)
            pattern = SignPattern.from_grid(
                [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
            )
            cert = mr_le_2(pattern)
            if cert is None:
                continue
            seen += 1
            cond = cert.trace.pattern
            assert cond.rows <= 2 * cond.cols


class TestRealizeRank2:
    def test_sign_and_rank_exact_randomized(self):
        rng = Random(19)
        produced = 0
        while produced < 60:
            m = rng.randint(2, 5)
            n = rng.randint(2, 5)
            pattern = SignPattern.from_grid(
                [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
            )
            cert = mr_le_2(pattern)
            if cert is None:
                continue
            produced += 1
            matrix = realize_rank2(pattern, cert)
            assert sign_of(matrix) == pattern
            assert rank(matrix) == 2

    def test_stacked_witness_realization(self):
        pattern = t1t2(3)
        matrix = realize_rank2(pattern, mr_le_2(pattern))
        assert matrix.shape == (6, 3)
        assert rank(matrix) == 2 and sign_of(matrix) == pattern

    def test_mismatched_certificate_rejected(self):
        good = SignPattern.from_strings(["+++", "0++"])
        other = SignPattern.from_strings(["++-", "0++"])
        cert = mr_le_2(good)
        with pytest.raises(ValueError):
            realize_rank2(other, cert)


def collect_type_sign_sets(n):
    return {frozenset(sign_set_of_type(t)) for t, _ in enumerate_rank2_types(n)}


def collect_matrix_sign_sets(n, entries=range(-3, 4)):
    """Sign sets of column spans of all small-integer n x 2 matrices.

    Deduplicates matrices by their rows up to positive scaling first; the
    sign set only depends on those.
    """
    from math import gcd

    def primitive(row):
        a, b = row
        if a == 0 and b == 0:
            return (0, 0)
        g = gcd(abs(a), abs(b))
        return (a // g, b // g)

    out = {}
    for flat in product(entries, repeat=2 * n):
        rows = [(flat[2 * i], flat[2 * i + 1]) for i in range(n)]
        key = tuple(primitive(r) for r in rows)
        if key in out:
            continue
        out[key] = None
    sets = set()
    for key in out:
        matrix = RationalMatrix([list(r) for r in key], cols=2)
        space = RationalSubspace.from_spanning(n, list(matrix.columns()))
        sets.add(frozenset(sign_vectors(space).signs))
    return sets


class TestTypeEnumeration:
    def test_n1_has_two_types(self):
        types = list(enumerate_rank2_types(1))
        assert len(types) == 2
        dims = sorted(t.dim for t, _ in types)
        assert dims == [0, 1]

    def test_degenerate_types_flagged_with_true_dimension(self):
        for t, rep in enumerate_rank2_types(3):
            assert rep.dim == t.dim
            assert t.is_degenerate == (t.num_classes < 2)
            if not t.is_degenerate:
                assert rep.dim == 2

    def test_each_type_emitted_once(self):
        for n in (2, 3):
            seen = set()
            for t, _ in enumerate_rank2_types(n):
                assert t not in seen
                seen.add(t)

    def test_completeness_against_exhaustive_small_matrices(self):
        for n in (1, 2, 3):
            assert collect_type_sign_sets(n) == collect_matrix_sign_sets(n)

    def test_direct_sign_set_matches_subspace_route(self):
        for n in (1, 2, 3):
            for t, rep in enumerate_rank2_types(n):
                assert sign_set_of_type(t) == sign_vectors(rep).signs

    def test_direct_sign_set_matches_subspace_route_sampled_n5(self):
        rng = Random(71)
        pairs = list(enumerate_rank2_types(5))
        for t, rep in rng.sample(pairs, 40):
            assert sign_set_of_type(t) == sign_vectors(rep).signs

    def test_two_dim_cardinality_bound(self):
        for n in (2, 3, 4):
            for t, _ in enumerate_rank2_types(n):
                assert len(sign_set_of_type(t)) <= 4 * n + 1

    def test_representative_entries_are_small_integers(self):
        for t, rep in enumerate_rank2_types(3):
            for row in t.representative_matrix().data:
                for e in row:
                    assert e.denominator == 1 and abs(e.numerator) <= 3

    def test_orientation_canon_lowest_nonzero_plus(self):
        for t, _ in enumerate_rank2_types(4):
            nonzero = [i for i in range(4) if t.orientations[i] != 0]
            if nonzero:
                assert t.orientations[nonzero[0]] == 1

    def test_three_singleton_classes_give_thirteen(self):
        for t, _ in enumerate_rank2_types(3):
            if t.num_classes == 3:
                assert len(sign_set_of_type(t)) == 13

    def test_all_zero_and_single_class_sizes(self):
        sizes = {}
        for t, _ in enumerate_rank2_types(2):
            sizes.setdefault(t.num_classes, set()).add(len(sign_set_of_type(t)))
        assert sizes[0] == {1}
        assert sizes[1] == {3}
        assert sizes[2] == {9}


class TestTypeSignSets:
    def test_exact_counts_of_two_dimensional_types(self):
        # raw types with >= 2 classes and their distinct sign sets
        expected = {2: (4, 1), 3: (60, 13), 4: (808, 146), 5: (12120, 1802)}
        for n, (raw, distinct) in expected.items():
            sets = [frozenset(s) for s in type_sign_sets(n, min_classes=2)]
            assert (len(sets), len(set(sets))) == (raw, distinct)

    def test_same_order_and_sets_as_the_type_enumeration(self):
        for n in (1, 2, 3, 4):
            direct = [
                SignVectorSet(n, (SignVector(n, p, q) for p, q in s)) for s in type_sign_sets(n)
            ]
            assert direct == [sign_set_of_type(t) for t, _ in enumerate_rank2_types(n)]


def reference_walk_covectors(class_masks, neg_mask):
    """The prefix/suffix-array walk that the one-pass walk replaced."""
    c = len(class_masks)
    plus = [m & ~neg_mask for m in class_masks]
    minus = [m & neg_mask for m in class_masks]
    pref_p = [0] * (c + 1)
    pref_n = [0] * (c + 1)
    for j in range(c):
        pref_p[j + 1] = pref_p[j] | plus[j]
        pref_n[j + 1] = pref_n[j] | minus[j]
    suf_p = [0] * (c + 2)
    suf_n = [0] * (c + 2)
    for j in range(c, 0, -1):
        suf_p[j] = suf_p[j + 1] | plus[j - 1]
        suf_n[j] = suf_n[j + 1] | minus[j - 1]
    out = []
    for i in range(1, c + 1):
        out.append((pref_p[i] | suf_n[i + 1], pref_n[i] | suf_p[i + 1]))
    for j in range(1, c + 1):
        out.append((pref_p[j - 1] | suf_n[j + 1], pref_n[j - 1] | suf_p[j + 1]))
    return out


def reference_iter_raw_types(n, min_classes=0):
    """The generator the direct partitions replaced: every class assignment
    of product(range(c), repeat=s), filtered to the surjective ones, then
    each orientation mask built bit by bit."""
    full = (1 << n) - 1
    if min_classes == 0:
        yield (full, (), 0)
    for c in range(max(1, min_classes), n + 1):
        for zero_mask in range(full + 1):
            support = [i for i in range(n) if not zero_mask >> i & 1]
            if len(support) < c:
                continue
            flip_positions = support[1:]
            for assignment in product(range(c), repeat=len(support)):
                if len(set(assignment)) != c:
                    continue
                masks = [0] * c
                for idx, cls in zip(support, assignment):
                    masks[cls] |= 1 << idx
                for combo in range(1 << len(flip_positions)):
                    neg_mask = 0
                    for b, i in enumerate(flip_positions):
                        if combo >> b & 1:
                            neg_mask |= 1 << i
                    yield (zero_mask, tuple(masks), neg_mask)


def reference_type_admits(lines, covectors):
    for wp, wq in covectors:
        for sp, sq in lines:
            if bool((sp & wp) | (sq & wq)) != bool((sp & wq) | (sq & wp)):
                return False
    return True


def reference_find_plane_type(lines, n):
    """The type-by-type walk the bitsliced search replaced: every raw type
    in the product-filter order, each line against all 2c covectors."""
    packed = [(v.pos, v.neg) for v in lines]
    for zero_mask, class_masks, neg_mask in reference_iter_raw_types(n, min_classes=2):
        if reference_type_admits(packed, reference_walk_covectors(class_masks, neg_mask)):
            return rank2._raw_to_type(n, zero_mask, class_masks, neg_mask)
    return None


def reference_cut(lines, class_masks):
    """Whether cut (a) or (b) of find_plane_type removes the structure, read
    off their definitions: some line meets its support S in one coordinate,
    or some class holds all but one of the coordinates T that a line has
    in S."""
    for pos, neg in lines:
        t = (pos | neg) & sum(class_masks)
        size = bin(t).count("1")
        if size == 1 or size and any(bin(m & t).count("1") == size - 1 for m in class_masks):
            return True
    return False


@contextmanager
def watchdog(seconds, message):
    """Fails the test from a SIGALRM after seconds, so that a search that
    ignores its deadline cannot hang the suite."""

    def overrun(signum, frame):
        pytest.fail(message)

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def recorded_cuts(monkeypatch):
    """Every rank2._Cuts that find_plane_type makes, for reading its counts."""
    made = []

    class Recording(rank2._Cuts):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(rank2, "_Cuts", Recording)
    return made


class TestStructures:
    def test_ordered_partitions_equal_the_product_filter(self):
        for s in range(1, 7):
            support = (0, 2, 3, 5, 6, 9)[:s]
            bits = [1 << i for i in support]
            for c in range(1, s + 1):
                expected = []
                for assignment in product(range(c), repeat=s):
                    if len(set(assignment)) == c:
                        masks = [0] * c
                        for bit, cls in zip(bits, assignment):
                            masks[cls] |= bit
                        expected.append(tuple(masks))
                assert list(rank2._ordered_partitions(bits, c)) == expected

    def test_raw_types_equal_the_product_filter(self):
        for n in range(6):
            for min_classes in (0, 2):
                assert list(rank2._iter_raw_types(n, min_classes)) == list(
                    reference_iter_raw_types(n, min_classes)
                )

    def test_rays_decide_orthogonality_to_the_whole_sign_set(self):
        # a sign vector is orthogonal to every covector of a type exactly
        # when it is orthogonal to the type's c rays, its cocircuits
        for n in range(2, 5):
            candidates = [(v.pos, v.neg) for v in all_sign_vectors(n)]
            for _, class_masks, neg_mask in rank2._iter_raw_types(n, min_classes=2):
                covectors = rank2._walk_covectors(class_masks, neg_mask)
                rays = covectors[len(class_masks):]
                for line in candidates:
                    assert reference_type_admits([line], rays) == reference_type_admits(
                        [line], covectors
                    )


class TestCuts:
    def test_cut_structures_admit_no_orientation(self):
        # exhaustive: every line set of one sign vector for n = 2..5 and of
        # two for n = 2..4 (one of each +/- pair, which admit the same types);
        # the walk removes exactly the structures that the cuts name, no
        # orientation of those has rays that admit every line, and the
        # structures that survive keep their order
        fired = {"masks": 0, "nodes": 0}
        for n in range(2, 6):
            structures = list(rank2._iter_structures(n, 2))
            rays = {
                (zero_mask, class_masks): [
                    reference_walk_covectors(class_masks, neg_mask)[len(class_masks) :]
                    for neg_mask in rank2._orientation_masks(support)
                ]
                for zero_mask, support, class_masks in structures
            }
            # the nonzero vectors whose lowest nonzero coordinate is +
            lines = [(v.pos, v.neg) for v in all_sign_vectors(n) if v.pos & -(v.pos | v.neg)]
            line_sets = [[line] for line in lines]
            if n <= 4:
                line_sets += [list(pair) for pair in combinations(lines, 2)]
            for line_set in line_sets:
                cuts = rank2._Cuts(line_set, n, Deadline(None))
                kept = list(rank2._iter_structures(n, 2, cuts))
                assert kept == [s for s in structures if not reference_cut(line_set, s[2])]
                survivors = set(kept)
                for zero_mask, support, class_masks in structures:
                    if (zero_mask, support, class_masks) not in survivors:
                        for oriented in rays[(zero_mask, class_masks)]:
                            assert not reference_type_admits(line_set, oriented)
                fired["masks"] += cuts.masks
                fired["nodes"] += cuts.nodes
        assert fired["masks"] > 0 and fired["nodes"] > 0

    def test_equals_the_reference_walk_on_narrow_lines(self, recorded_cuts):
        # lines with supports of one to three coordinates, on which both cuts
        # fire; 60 line sets for each n = 2..5 and 10 for n = 6
        rng = Random(19)
        outcomes = {}
        for i in range(250):
            n = 2 + i % 4 if i < 240 else 6
            lines = []
            for _ in range(rng.randint(1, 6)):
                support = rng.sample(range(n), rng.randint(1, min(3, n)))
                lines.append(
                    SignVector.from_signs([rng.choice((-1, 1)) if j in support else 0 for j in range(n)])
                )
            expected = reference_find_plane_type(lines, n)
            assert find_plane_type(lines, n) == expected
            key = (n, expected is None)
            outcomes[key] = outcomes.get(key, 0) + 1
        # R^2 is the one plane of n = 2, and no nonzero line is orthogonal to it
        assert outcomes.get((2, False), 0) == 0
        for n in range(3, 7):
            assert outcomes.get((n, False), 0) > 0
        assert sum(count for (_, exhausted), count in outcomes.items() if exhausted) >= 20
        assert sum(cuts.masks for cuts in recorded_cuts) > 0
        assert sum(cuts.nodes for cuts in recorded_cuts) > 0


class TestWalkCovectors:
    def test_one_pass_walk_equals_the_reference_on_every_type(self):
        for n in range(1, 7):
            for _, class_masks, neg_mask in rank2._iter_raw_types(n):
                assert rank2._walk_covectors(class_masks, neg_mask) == reference_walk_covectors(
                    class_masks, neg_mask
                )


class TestFindPlaneType:
    def test_wrong_length_line_rejected(self):
        with pytest.raises(DimensionError):
            find_plane_type([SignVector.from_string("+-+-+")], 3)
        with pytest.raises(DimensionError):
            find_plane_type([SignVector.from_string("+-+"), SignVector.from_string("+-")], 3)

    def test_first_hit_matches_the_definition(self):
        # the definition, through public types: the first plane type in
        # enumeration order whose whole sign set is orthogonal to every line
        planes = {
            n: [(t, sign_set_of_type(t)) for t, _ in enumerate_rank2_types(n) if t.num_classes >= 2]
            for n in (2, 3, 4)
        }
        rng = Random(97)
        hits = 0
        for _ in range(40):
            n = rng.randint(2, 4)
            lines = [
                SignVector.from_signs([rng.choice((-1, 0, 1)) for _ in range(n)])
                for _ in range(rng.randint(0, 3))
            ]
            expected = next(
                (t for t, signs in planes[n] if all(orthogonal(v, w) for v in lines for w in signs)),
                None,
            )
            assert find_plane_type(lines, n) == expected
            hits += expected is not None
        assert 0 < hits < 40

    def test_equals_the_reference_walk_on_seeded_line_sets(self):
        # 70 line sets for each n = 2..5 and 20 for n = 6, where one
        # exhausted search costs the reference walk about 2 s
        rng = Random(1)
        outcomes = {}
        for i in range(300):
            n = 2 + i % 4 if i < 280 else 6
            lines = [
                SignVector.from_signs([rng.choice((-1, 0, 1)) for _ in range(n)])
                for _ in range(rng.randint(0, 7))
            ]
            expected = reference_find_plane_type(lines, n)
            assert find_plane_type(lines, n) == expected
            key = (n, expected is None)
            outcomes[key] = outcomes.get(key, 0) + 1
        for n in range(2, 7):
            assert outcomes.get((n, False), 0) > 0
        assert sum(count for (_, exhausted), count in outcomes.items() if exhausted) >= 50

    @pytest.mark.parametrize("slice_bits", [0, 1, 2])
    def test_narrow_slices_equal_the_reference_walk(self, monkeypatch, slice_bits):
        # supports wider than the slice walk their high flip bits one value
        # at a time; narrowing the slice sends small searches down that path
        monkeypatch.setattr(rank2, "_SLICE_BITS", slice_bits)
        rng = Random(2)
        outcomes = {}
        for i in range(120):
            n = 2 + i % 4
            lines = [
                SignVector.from_signs([rng.choice((-1, 0, 1)) for _ in range(n)])
                for _ in range(rng.randint(0, 7))
            ]
            expected = reference_find_plane_type(lines, n)
            assert find_plane_type(lines, n) == expected
            outcomes[expected is None] = outcomes.get(expected is None, 0) + 1
        assert outcomes.get(False, 0) > 20 and outcomes.get(True, 0) > 20

    def test_equals_the_reference_walk_on_the_benchmark_searches(self, monkeypatch):
        # the search on the working orientation of every minrank corpus
        # pattern (a superset of those min_rank runs, which skips it once
        # the rank-3 rung settles mr <= d-2), and every search that
        # realize_corank2 and rationalize_equation run on the witness corpus
        searches = []

        def recording(lines, n, budget_ms=None):
            lines = list(lines)
            found = find_plane_type(lines, n, budget_ms)
            searches.append((lines, n, found))
            return found

        monkeypatch.setattr(minrank, "find_plane_type", recording)
        monkeypatch.setattr(realize, "find_plane_type", recording)

        def read(path):
            return SignPattern.parse(path.read_text(encoding="utf-8"))

        for path in sorted((CORPUS / "minrank").glob("*.sp")):
            pattern = read(path)
            minrank.mr_le_n_minus_2(pattern.transpose() if pattern.cols > pattern.rows else pattern)
        for path in sorted((CORPUS / "witness").glob("real-*.sp")):
            realize_corank2(read(path))
        for path in sorted((CORPUS / "witness").glob("eq*-B.sp")):
            rationalize_equation(
                *(read(path.with_name(path.name.replace("-B", f"-{part}"))) for part in "BCE")
            )
        assert len(searches) == 25
        for lines, n, found in searches:
            assert found == reference_find_plane_type(lines, n)
        assert 0 < sum(found is None for _, _, found in searches) < len(searches)

    def test_zero_budget_raises_for_every_width(self):
        for n in range(2, 8):
            identity = [SignVector.from_signs([int(i == j) for j in range(n)]) for i in range(n)]
            with pytest.raises(BudgetExceededError):
                find_plane_type(identity, n, budget_ms=0)

    def test_budget_bounds_a_wide_search(self):
        # the identity lines at n = 26 admit no plane; cut (a) kills each of
        # the 2^26 zero masks of every class count, which the search must
        # charge to its budget
        # the n = 26 search does not end by itself, so a watchdog fails the
        # test after 10 s rather than letting a search that ignores its
        # deadline hang the suite
        n = 26
        identity = [SignVector.from_signs([int(i == j) for j in range(n)]) for i in range(n)]
        with watchdog(10.0, "find_plane_type ran past its 50 ms budget for 10 s"):
            start = time.monotonic()
            with pytest.raises(BudgetExceededError):
                find_plane_type(identity, n, budget_ms=50)
            assert time.monotonic() - start < 5.0

    def test_budget_bounds_a_search_cut_inside_the_partitions(self, recorded_cuts):
        # the lines {i, n-1} at n = 24 leave only the full support to cut
        # (a), and cut (b) kills each of its partitions at the last position,
        # after the walk has assigned every other coordinate: the 2^23
        # assignments of two classes alone take about 20 s, so the budget has
        # to stop the search inside the partition walk, before any zero mask
        # is cut
        n = 24
        lines = [SignVector.from_signs([int(j in (i, n - 1)) for j in range(n)]) for i in range(n - 1)]
        with watchdog(10.0, "find_plane_type ran past its 50 ms budget for 10 s"):
            start = time.monotonic()
            with pytest.raises(BudgetExceededError):
                find_plane_type(lines, n, budget_ms=50)
            assert time.monotonic() - start < 5.0
        (cuts,) = recorded_cuts
        assert cuts.masks == 0 and cuts.nodes > 0

    def test_clock_is_read_once_per_1024_types(self, monkeypatch):
        # the 16 full-support lines of n = 5 admit no plane and never meet a
        # support in one coordinate, so only cut (b) fires: fewer than 1024
        # times, the first time on zero mask 0 before any type is decided.
        # The clock is read for the deadline, at that first cut, and then
        # once 1024 or more of the types that the pruned walk leaves have
        # been decided, at most 16 per partition
        n = 5
        lines = [SignVector.from_signs([1, *signs]) for signs in product((1, -1), repeat=n - 1)]
        cuts = rank2._Cuts([(v.pos, v.neg) for v in lines], n, Deadline(None))
        types = 0
        for _, support, _ in rank2._iter_structures(n, 2, cuts):
            assert cuts.nodes > 0
            types += 1 << len(support) - 1
        assert cuts.masks == 0 and 0 < cuts.nodes < 1024 and types < 12120

        class Clock:
            reads = 0

            @classmethod
            def monotonic(cls):
                cls.reads += 1
                return 0.0

        monkeypatch.setattr(errors, "time", Clock)
        assert find_plane_type(lines, n, budget_ms=1000) is None
        assert 1 + types // (1024 + 15) <= Clock.reads - 1 <= 1 + types // 1024
