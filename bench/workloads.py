"""The benchmark's three workloads: their corpus, the ops they issue, the
checks of every output, and the layer boundaries the traced run wraps.

An op is one public call. Every workload reads its inputs from the
committed corpus under ``corpus/<workload>/`` and its reference answers
from ``corpus/<workload>/reference.json``; ``gen.py`` writes both.
"""

import contextlib
import io
import json
from dataclasses import dataclass
from math import gcd

from srcpath import CORPUS
from signrank import cli, covectors, minrank, rank2, rational, realize, signs
from signrank.errors import BudgetExceededError
from signrank.rational import RationalMatrix, RationalSubspace, rank
from signrank.signs import SignPattern, SignVector, sign_of, sign_of_vector

WORKLOADS = ("duality", "minrank", "witness")

# Each workload's budget, passed as budget_ms to every op whose API takes
# one (BUDGETED_KINDS); budget_overrun divides the time of those ops by
# it. verify_duality takes no budget and the duality workload has no other
# op, so there every op is held against a reference budget of 250 ms that
# no call receives: the metric must read on every workload. The witness
# budget is ten times its slowest op (eq3, about 200 ms), which a 500 ms
# budget cut once when the host ran 3.5 times slower than nominal.
BUDGET_MS = {"duality": 250, "minrank": 1000, "witness": 2000}
BUDGETED_KINDS = {
    "duality": {"verify_duality"},
    "minrank": {"min_rank"},
    "witness": {"realize_corank2", "rationalize_equation"},
}

# Calibrated seconds one pass over the corpus takes at the seed commit
# (Python 3.11, one core of a shared x86-64 host). A run makes
# seconds / NOMINAL_PASS_S passes, rounded, so the work per run is fixed
# while its wall time follows the code.
NOMINAL_PASS_S = {"duality": 1.3, "minrank": 5.3, "witness": 0.62}

DECIDING_KINDS = (
    "zero", "condensation", "rank2", "L-matrix", "null-vector", "rank2-type", "matching", "realization",
)


def read_pattern(path):
    return SignPattern.parse(path.read_text(encoding="utf-8"))


def read_subspace(path):
    matrix = RationalMatrix.parse(path.read_text(encoding="utf-8"))
    return RationalSubspace(matrix.rows, matrix)


def read_reference(workload):
    return json.loads((CORPUS / workload / "reference.json").read_text(encoding="utf-8"))


@dataclass
class Op:
    """One public call: ``kind`` names it, ``key`` names its input in the
    corpus, ``ref`` is the committed reference answer."""

    kind: str
    key: str
    args: tuple
    ref: dict
    budget_ms: int

    def call(self):
        # resolve through the module attribute, so a traced run calls the wrapper
        if self.kind == "verify_duality":
            return covectors.verify_duality(*self.args)
        if self.kind == "min_rank":
            return minrank.min_rank(*self.args, budget_ms=self.budget_ms)
        if self.kind == "member_witness":
            return covectors.member_witness(*self.args)
        if self.kind == "realize_corank2":
            return realize.realize_corank2(*self.args, budget_ms=self.budget_ms)
        if self.kind == "rationalize_equation":
            return realize.rationalize_equation(*self.args, budget_ms=self.budget_ms)
        raise ValueError(f"unknown op kind {self.kind}")


@dataclass
class Workload:
    name: str
    budget_ms: int
    ops: list
    widths: tuple = ()  # sign-vector lengths whose 3^n mask pairs the warm-up fills

    def passes(self, seconds):
        return max(1, round(seconds / NOMINAL_PASS_S[self.name]))


def load(name):
    """The workload's ops, in corpus order."""
    ref = read_reference(name)
    folder = CORPUS / name
    budget = BUDGET_MS[name]
    if name == "duality":
        ops = [
            Op("verify_duality", key, (read_subspace(folder / key),), entry, budget)
            for key, entry in ref["subspaces"].items()
        ]
        return Workload(name, budget, ops, widths=(ref["ambient"],))
    if name == "minrank":
        ops = [
            Op("min_rank", key, (read_pattern(folder / key),), entry, budget)
            for key, entry in ref["patterns"].items()
        ]
        widths = sorted({min(op.args[0].rows, op.args[0].cols) for op in ops})
        return Workload(name, budget, ops, widths=tuple(widths))
    if name == "witness":
        spaces = {key: read_subspace(folder / key) for key in ref["subspaces"]}
        ops = [
            Op("member_witness", f"{q['subspace']}:{q['signs']}",
               (spaces[q["subspace"]], SignVector.from_string(q["signs"])), q, budget)
            for q in ref["queries"]
        ]
        ops += [
            Op("realize_corank2", key, (read_pattern(folder / key),), entry, budget)
            for key, entry in ref["realize"].items()
        ]
        ops += [
            Op("rationalize_equation", key,
               tuple(read_pattern(folder / f"{key}-{part}.sp") for part in "BCE"), entry, budget)
            for key, entry in ref["rationalize"].items()
        ]
        return Workload(name, budget, ops)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def warm_up(workload):
    """Fill the package's lazy caches with one pass over the workload's ops,
    in corpus order, after the 3^n mask pairs of every width its
    ``set_perp`` calls use."""
    for n in workload.widths:
        signs.all_sign_vectors(n)
    for op in workload.ops:
        op.call()


# ---------------------------------------------------------------- outcomes

def definitive(op, result):
    """Whether the op gave an exact answer rather than a bracket or a
    budget cut."""
    if op.kind == "min_rank":
        return result.exact
    if op.kind in ("realize_corank2", "rationalize_equation"):
        return result.definitive
    return True


def summary(op, result):
    """A comparable digest of the answer; repeats of one op must agree."""
    if op.kind == "verify_duality":
        return (result.ok, result.complement_only, result.perp_only)
    if op.kind == "min_rank":
        return (result.lower, result.upper, result.transposed, kinds(result))
    if op.kind == "member_witness":
        return result
    if op.kind == "realize_corank2":
        return (result.status, result.result.matrix if result.result else None)
    return (result.status, result.factors)


def kinds(bracket):
    return tuple(c.kind for c in bracket.certificates)


def deciding_kind(bracket):
    """The rung that ended the ladder: the last certificate's kind, except
    that a rank-2 certificate owns the realization built from it."""
    found = kinds(bracket)
    return "rank2" if found[0] == "rank2" else found[-1]


# ------------------------------------------------------------------ checks

def check(op, result):
    """Failures of one answer, as messages; empty when it is correct."""
    return CHECKS[op.kind](op, result)


def _sign(value):
    return (value > 0) - (value < 0)


def _integer_rows(matrix):
    """Each row scaled by a positive integer to integers; signs of
    ``row . x`` are unchanged, and integer arithmetic keeps the re-check of
    many witnesses cheap."""
    rows = []
    for row in matrix.data:
        scale = 1
        for e in row:
            scale = scale * e.denominator // gcd(scale, e.denominator)
        rows.append([int(e * scale) for e in row])
    return rows


def _check_duality(op, result):
    (space,) = op.args
    out = []
    if not result.ok or result.complement_only or result.perp_only:
        out.append("sign(L^perp) differs from sign(L)^perp")
    for side, sub in (("sign", space), ("perp", rational.orth_complement(space))):
        report = covectors.sign_vectors(sub)
        rows = _integer_rows(sub.basis)
        for vector, x in report.witnesses.items():
            if SignVector.from_signs(_sign(sum(a * b for a, b in zip(row, x))) for row in rows) != vector:
                out.append(f"a {side} witness does not re-verify")
                break
        if len(report.signs) != op.ref[f"{side}_count"]:
            out.append(f"{side} count {len(report.signs)} != reference {op.ref[side + '_count']}")
    return out


def _orthogonal_to_rows(vector, pattern):
    return all(signs.orthogonal(row, vector) for row in pattern.row_vectors)


def _check_minrank(op, result):
    (pattern,) = op.args
    working = pattern.transpose() if result.transposed else pattern
    ref = op.ref
    out = []
    bracket, reference = (result.lower, result.upper), (ref["lower"], ref["upper"])
    if ref["lower"] == ref["upper"]:
        if bracket != reference:
            out.append(f"bracket {list(bracket)} != exact reference {list(reference)}")
    elif not ref["lower"] <= result.lower <= result.upper <= ref["upper"]:
        # an inexact reference admits any bracket inside it: a tighter one is progress
        out.append(f"bracket {list(bracket)} is not inside reference {list(reference)}")
    if ref["planted_rank"] is not None and result.lower > ref["planted_rank"]:
        out.append(f"lower {result.lower} exceeds the planted rank {ref['planted_rank']}")
    for cert in result.certificates:
        if cert.kind == "realization":
            if sign_of(cert.payload) != working:
                out.append("realization has the wrong signs")
            if rank(cert.payload) > result.upper:
                out.append("realization rank exceeds the upper bound")
        elif cert.kind == "null-vector":
            if cert.payload.is_zero() or not _orthogonal_to_rows(cert.payload, working):
                out.append("null vector is zero or not orthogonal to every row")
        elif cert.kind == "rank2-type":
            if not all(_orthogonal_to_rows(v, working) for v in rank2.sign_set_of_type(cert.payload)):
                out.append("rank2-type sign set is not orthogonal to every row")
    return out


def _check_member(op, result):
    space, target = op.args
    if result is None:
        return ["member reported as non-member"] if op.ref["member"] else []
    if not op.ref["member"]:
        return ["non-member reported as member"]
    if sign_of_vector(space.basis.apply(result)) != target:
        return ["membership witness does not re-verify"]
    return []


def _check_realize(op, result):
    (pattern,) = op.args
    if result.status != op.ref["status"]:
        return [f"status {result.status} != reference {op.ref['status']}"]
    if result.result is None:
        return []
    matrix = result.result.matrix
    out = []
    if sign_of(matrix) != pattern:
        out.append("realization has the wrong signs")
    if rank(matrix) > pattern.rows - 2:
        out.append("realization rank exceeds rows - 2")
    return out


def _check_rationalize(op, result):
    if result.status != op.ref["status"]:
        return [f"status {result.status} != reference {op.ref['status']}"]
    if result.factors is None:
        return []
    out = []
    for part, matrix, pattern in zip("BCE", result.factors, op.args):
        if sign_of(matrix) != pattern:
            out.append(f"{part} has the wrong signs")
    b, c, e = result.factors
    if b.mul(c) != e:
        out.append("B C != E")
    return out


CHECKS = {
    "verify_duality": _check_duality,
    "min_rank": _check_minrank,
    "member_witness": _check_member,
    "realize_corank2": _check_realize,
    "rationalize_equation": _check_rationalize,
}


def check_cli(workload, library):
    """Failures of ``signrank mr FILE --json`` against ``library``, the
    library's answer on the workload's first corpus pattern."""
    op = workload.ops[0]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["mr", str(CORPUS / workload.name / op.key), "--json",
                         "--budget-ms", str(workload.budget_ms)])
    payload = json.loads(buffer.getvalue())
    got = (payload["lower"], payload["upper"], payload["transposed"],
           tuple(c["kind"] for c in payload["certificates"]))
    want = (library.lower, library.upper, library.transposed, kinds(library))
    out = []
    if got != want:
        out.append(f"CLI mr --json gives {got}, the library {want}")
    if code != (0 if library.exact else 2):
        out.append(f"CLI mr exit code {code} for exact={library.exact}")
    return out


# ------------------------------------------------------------ trace points

def _count_calls(name):
    def count(counts, args, kwargs, result, error):
        counts[f"{name}.calls"] += 1
    return count


def _count_sign_vectors(counts, args, kwargs, result, error):
    counts["covectors.sign_vectors.calls"] += 1
    if result is not None:
        counts["covectors.sign_vectors.vectors"] += len(result.signs)


def _count_set_perp(counts, args, kwargs, result, error):
    vectors = args[0]
    n = vectors.n if isinstance(vectors, signs.SignVectorSet) else kwargs.get("n", args[1] if len(args) > 1 else None)
    counts["signs.set_perp.calls"] += 1
    counts["signs.set_perp.candidates"] += 3 ** n


def _count_type_search(counts, args, kwargs, result, error):
    name = "minrank.mr_le_n_minus_2"
    counts[f"{name}.calls"] += 1
    if isinstance(error, BudgetExceededError):
        counts[f"{name}.budget_cut"] += 1
    elif error is None:
        counts[f"{name}.found" if result is not None else f"{name}.exhausted"] += 1


def _count_hits(name, hit="hits"):
    def count(counts, args, kwargs, result, error):
        counts[f"{name}.calls"] += 1
        if error is None and result is not None:
            counts[f"{name}.{hit}"] += 1
    return count


def _count_ok(name):
    def count(counts, args, kwargs, result, error):
        counts[f"{name}.calls"] += 1
        if error is None and result.ok:
            counts[f"{name}.ok"] += 1
    return count


def trace_points():
    """``(module, attribute, layer, count)``: each public function wrapped
    where the calling module binds it, so every layer boundary the ops
    cross records a span."""
    return [
        # the ops themselves
        (covectors, "verify_duality", "covectors.verify_duality", _count_calls("covectors.verify_duality")),
        (minrank, "min_rank", "minrank.min_rank", _count_calls("minrank.min_rank")),
        (covectors, "member_witness", "covectors.member_witness", _count_hits("covectors.member_witness")),
        (realize, "realize_corank2", "realize.realize_corank2", _count_ok("realize.realize_corank2")),
        (realize, "rationalize_equation", "realize.rationalize_equation", _count_ok("realize.rationalize_equation")),
        # covectors calls into rational and signs
        (covectors, "sign_vectors", "covectors.sign_vectors", _count_sign_vectors),
        (covectors, "orth_complement", "rational.orth_complement", None),
        (covectors, "set_perp", "signs.set_perp", _count_set_perp),
        (covectors, "strict_feasibility", "rational.strict_feasibility", _count_calls("rational.strict_feasibility")),
        # the min-rank ladder
        (minrank, "condense_with_trace", "signs.condense_with_trace", None),
        (minrank, "mr_le_2", "rank2.mr_le_2", _count_hits("rank2.mr_le_2", "certificates")),
        (minrank, "realize_rank2", "rank2.realize_rank2", None),
        (minrank, "is_L_matrix", "minrank.is_L_matrix", _count_calls("minrank.is_L_matrix")),
        (minrank, "set_perp", "signs.set_perp", _count_set_perp),
        (minrank, "mr_le_n_minus_2", "minrank.mr_le_n_minus_2", _count_type_search),
        (minrank, "random_upper_bound", "minrank.random_upper_bound", _count_hits("minrank.random_upper_bound")),
        (rank2, "condense_with_trace", "signs.condense_with_trace", None),
        # realizations
        (realize, "member_witness", "covectors.member_witness", _count_hits("covectors.member_witness")),
        (realize, "orth_complement", "rational.orth_complement", None),
    ]


# Per-layer metrics of the traced run: (name, unit). Self times come from
# the spans, counts from the trace points' counters.
SELF_TIME_LAYERS = (
    "covectors.verify_duality", "covectors.sign_vectors", "rational.orth_complement", "signs.set_perp",
    "minrank.min_rank", "signs.condense_with_trace", "rank2.mr_le_2", "rank2.realize_rank2",
    "minrank.is_L_matrix", "minrank.mr_le_n_minus_2", "minrank.random_upper_bound",
    "rational.strict_feasibility", "covectors.member_witness", "realize.realize_corank2",
    "realize.rationalize_equation",
)
COUNTS = (
    "covectors.sign_vectors.calls", "covectors.sign_vectors.vectors",
    "signs.set_perp.calls", "signs.set_perp.candidates",
    "minrank.is_L_matrix.calls",
    "minrank.mr_le_n_minus_2.calls", "minrank.mr_le_n_minus_2.found",
    "minrank.mr_le_n_minus_2.exhausted", "minrank.mr_le_n_minus_2.budget_cut",
    "minrank.random_upper_bound.calls", "minrank.random_upper_bound.hits",
    "rank2.mr_le_2.calls", "rank2.mr_le_2.certificates",
    "rational.strict_feasibility.calls",
    "covectors.member_witness.calls", "covectors.member_witness.hits",
    "realize.realize_corank2.calls", "realize.realize_corank2.ok",
    "realize.rationalize_equation.calls", "realize.rationalize_equation.ok",
)
RATES = (
    # (name, count, layer whose self time is the denominator)
    ("covectors.sign_vectors.vectors_per_s", "covectors.sign_vectors.vectors", "covectors.sign_vectors"),
    ("signs.set_perp.candidates_per_s", "signs.set_perp.candidates", "signs.set_perp"),
)
