"""Tests of the benchmark's own helpers.

    python3 -m pytest bench/test_bench.py
"""

import pytest

import stats
import workloads
from spans import Tracer, layer_totals, self_times
from signrank.minrank import MinRankBracket
from signrank.rational import RationalMatrix
from signrank.realize import RealizationResult, RealizeOutcome
from signrank.signs import SignPattern


# ------------------------------------------------------------------ tail_ms

def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    value, percentile, beyond = stats.tail(samples)
    assert value == 90
    assert beyond == 10
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == pytest.approx(90.0)


def test_tail_ignores_input_order():
    assert stats.tail([5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 11, 12]) == (2, 100 * 2 / 12, 10)


def test_tail_percentile_rises_with_the_sample_count():
    value, percentile, _ = stats.tail(list(range(1000)))
    assert value == 989
    assert percentile == pytest.approx(99.0)


def test_tail_of_eleven_samples_is_the_smallest():
    assert stats.tail(list(range(11)))[:1] == (0,)


def test_tail_with_ten_or_fewer_samples_falls_back_to_the_maximum():
    assert stats.tail([3, 1, 2]) == (3, 100.0, 0)
    assert stats.tail(list(range(10))) == (9, 100.0, 0)


def test_spread_is_the_quartile_distance_over_the_median():
    assert stats.spread([10.0] * 10) == 0.0
    assert stats.spread([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)


# ---------------------------------------------------------------- self time

def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_nested_children():
    spans = [
        span("op", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("b", 2.0, 3.0, 1),  # grandchild: charged to a, not op
        span("a", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = layer_totals(spans)
    assert totals["a"] == (6.0, 2)
    assert sum(self_times(spans)) == spans[0][2] - spans[0][1]


def test_self_time_counts_overlapping_children_once():
    spans = [span("op", 0.0, 10.0, None), span("a", 1.0, 6.0, 0), span("b", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_spans_nest_and_restore_the_original():
    import types

    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original = module.outer
    tracer = Tracer()
    points = [(module, "outer", "outer", None), (module, "inner", "inner", None)]
    with tracer.installed(points):
        tracer.op = 7
        assert module.outer(1) == 4
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 7
    assert module.outer is original
    own = self_times(tracer.spans)
    assert sum(own) == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1])


# ------------------------------------------------------------------ checker

def test_checker_rejects_a_realization_with_one_sign_flipped():
    pattern = SignPattern.from_strings(["+-0", "++-", "-0+", "+--"])
    matrix = RationalMatrix([[1, -1, 0], [2, 1, -1], [-1, 0, 1], [1, -2, -1]])
    op = workloads.Op("realize_corank2", "flip", (pattern,), {"status": "ok"}, 500)

    def outcome(m):
        result = RealizationResult(m, 2, None, None, None, ())
        return RealizeOutcome("ok", result)

    # the unflipped matrix has the pattern's signs but rank 3 > rows - 2
    assert workloads.check(op, outcome(matrix)) == ["realization rank exceeds rows - 2"]
    # rows a, b, a - b, a + b: rank 2
    low = RationalMatrix([[1, -1, 0], [2, 1, -1], [-1, -2, 1], [3, 0, -1]])
    low_pattern = SignPattern.from_strings(["+-0", "++-", "--+", "+0-"])
    op = workloads.Op("realize_corank2", "flip", (low_pattern,), {"status": "ok"}, 500)
    assert workloads.check(op, outcome(low)) == []
    flipped = [list(row) for row in low.data]
    flipped[2][0] = -flipped[2][0]
    problems = workloads.check(op, outcome(RationalMatrix(flipped)))
    assert "realization has the wrong signs" in problems


def test_checker_rejects_a_wrong_membership_answer():
    from signrank.rational import RationalSubspace
    from signrank.signs import SignVector

    space = RationalSubspace(3, RationalMatrix([[1], [0], [-1]]))
    target = SignVector.from_string("+0-")
    op = workloads.Op("member_witness", "q", (space, target), {"member": True}, 500)
    assert workloads.check(op, (2,)) == []
    assert workloads.check(op, (-2,)) == ["membership witness does not re-verify"]
    assert workloads.check(op, None) == ["member reported as non-member"]


def minrank_op(key):
    workload = workloads.load("minrank")
    return next(op for op in workload.ops if op.key == key)


def bracket(lower, upper):
    return MinRankBracket(lower, upper, lower == upper, False, ())


def test_minrank_checker_admits_a_tighter_bracket_inside_an_inexact_reference():
    op = minrank_op("p06-rand-6x6.sp")  # reference [3, 4]
    assert (op.ref["lower"], op.ref["upper"]) == (3, 4)
    assert workloads.check(op, bracket(3, 4)) == []
    assert workloads.check(op, bracket(3, 3)) == []
    assert workloads.check(op, bracket(4, 4)) == []
    assert workloads.check(op, bracket(2, 4)) == ["bracket [2, 4] is not inside reference [3, 4]"]
    assert workloads.check(op, bracket(3, 5)) == ["bracket [3, 5] is not inside reference [3, 4]"]


def test_minrank_checker_requires_an_exact_reference_exactly():
    op = minrank_op("p00-rand-5x5.sp")  # reference [4, 4]
    assert workloads.check(op, bracket(4, 4)) == []
    assert workloads.check(op, bracket(3, 4)) == ["bracket [3, 4] != exact reference [4, 4]"]
    assert workloads.check(op, bracket(3, 3)) == ["bracket [3, 3] != exact reference [4, 4]"]


# -------------------------------------------------------------- calibration

def test_calibration_uses_samples_inside_a_long_op_and_neighbours_of_a_short_one():
    import calibrate
    from run import Record, Timed

    nominal = calibrate.NOMINAL_S
    # one sample every 0.1 s; the host runs twice as slow from t = 1.0 to 2.0
    samples = [(t / 10, nominal * (2 if 10 <= t < 20 else 1), 0.0) for t in range(40)]
    long_op = Record(0, 0.999, 1.95, 1.0, None)  # inside the slow second
    short_op = Record(1, 3.01, 3.02, 0.01, None)  # well after it
    timed = Timed(records=[long_op, short_op], calibration=samples)
    slow_inside, quiet = timed.factors()
    assert slow_inside == pytest.approx(2.0)
    assert quiet == pytest.approx(1.0)
    assert timed.latencies() == pytest.approx([0.5, 0.01])
