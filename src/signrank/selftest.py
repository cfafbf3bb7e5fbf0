"""Built-in acceptance checks.

Each check reproduces one headline guarantee at its full stated scale and
returns a CheckResult; run_all prints one pass/fail line per check. The
pytest suite drives the same functions, one test per check, so the CLI
selftest and the test suite cannot drift apart.

All comparisons are exact. Seeds are fixed constants so every run sees
the same instances.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from random import Random
from typing import Callable, Optional

from .covectors import random_subspace, sign_vectors, verify_duality
from .extremal import (
    perp_count_formula,
    s2_exhaustive_max,
    s2_witness_count,
    s3_lower_witness,
    s_hyperplane_max,
    s_min_witness,
    t1t2_pattern,
)
from .minrank import is_L_matrix, min_rank
from .rank2 import mr_le_2, realize_rank2, type_sign_sets
from .rational import RationalMatrix, rank
from .realize import STATUS_EXHAUSTED, rationalize_equation, realize_corank2
from .signs import (
    SignPattern,
    SignVector,
    SignVectorSet,
    all_sign_vectors,
    condense,
    set_perp,
    sign_of,
)

MASTER_SEED = 0


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str


def _cell_rng(*parts: int) -> Random:
    seed = MASTER_SEED
    for p in parts:
        seed = seed * 1_000_003 + p + 17
    return Random(seed)


def check_duality_random_subspaces() -> tuple[bool, str]:
    """sign(L^perp) = sign(L)^perp on 200 seeded subspaces per (k, n)."""
    cells = 0
    trials = 0
    for n in range(2, 7):
        for k in range(1, n):
            rng = _cell_rng(1, n, k)
            cells += 1
            for _ in range(200):
                check = verify_duality(random_subspace(n, k, rng))
                trials += 1
                if not check.ok:
                    return False, f"duality failed at n={n} k={k}"
    return True, f"{trials} subspaces across {cells} (k,n) cells, exact set equality"


def check_s2_maximum() -> tuple[bool, str]:
    """Max 2-dimensional sign-set size is 4n+1, exhaustively and by witness."""
    for n in range(2, 7):
        report = s2_exhaustive_max(n)
        if report.count != 4 * n + 1:
            return False, f"exhaustive max at n={n}: {report.count} != {4 * n + 1}"
    for n in range(2, 9):
        report = s2_witness_count(n)
        if report.count != 4 * n + 1:
            return False, f"witness count at n={n}: {report.count} != {4 * n + 1}"
    return True, "exhaustive max (n=2..6) and stacked witness (n=2..8) all equal 4n+1"


def check_plane_spectrum_n3() -> tuple[bool, str]:
    """2-dimensional subspaces of R^3 achieve exactly the sizes 9 and 13."""
    achieved = s2_exhaustive_max(3).detail
    if tuple(achieved) != (9, 13):
        return False, f"achieved cardinalities {achieved} != (9, 13)"
    return True, "all 2-dimensional types of R^3 give sign sets of size 9 or 13 only"


def check_coordinate_minimum() -> tuple[bool, str]:
    """Coordinate subspaces meet 3^k exactly; 200 random subspaces per cell
    never go below."""
    for n in range(1, 7):
        for k in range(1, n + 1):
            report = s_min_witness(k, n, samples=0)
            if report.count != 3**k:
                return False, f"coordinate count at k={k} n={n}: {report.count} != {3 ** k}"
            rng = _cell_rng(4, n, k)
            for _ in range(200):
                size = len(sign_vectors(random_subspace(n, k, rng)).signs)
                if size < 3**k:
                    return False, f"random {k}-dim subspace of R^{n} has only {size} sign vectors"
    return True, "3^k met exactly on coordinate subspaces, never undercut in 200 samples/cell"


def check_hyperplane_maximum() -> tuple[bool, str]:
    """Hyperplane witnesses meet 3^n - 2(2^n - 1); samples never exceed it."""
    expected = {3: 13, 4: 51, 5: 181}
    for n, target in expected.items():
        report = s_hyperplane_max(n, samples=200, seed=MASTER_SEED)
        if report.count != target or report.formula_value != target:
            return False, f"hyperplane witness at n={n}: {report.count} != {target}"
        if report.detail["perp_count"] != target:
            return False, f"perp route at n={n}: {report.detail['perp_count']} != {target}"
        if report.detail["sampled_max"] > target:
            return False, f"sampled hyperplane exceeded the formula at n={n}"
    return True, "witness counts 13/51/181 at n=3/4/5; 200 sampled hyperplanes per n stay below"


def check_perp_formula() -> tuple[bool, str]:
    """|{x}^perp| = 3^(n-t) (3^t - 2(2^t - 1)) for every x, n <= 6."""
    checked = 0
    for n in range(1, 7):
        for x in all_sign_vectors(n):
            t = x.support_size()
            if len(set_perp([x], n=n)) != perp_count_formula(n, t):
                return False, f"perp count mismatch at n={n} x={x.to_string()}"
            checked += 1
    return True, f"formula matched for all {checked} sign vectors with n <= 6"


@lru_cache(maxsize=8)
def _plane_sign_sets(n: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """The distinct sign sets of the 2-dimensional types of R^n, in order of
    first appearance."""
    return tuple(dict.fromkeys(frozenset(s) for s in type_sign_sets(n, min_classes=2)))


def _rank2_oracle(pattern: SignPattern) -> bool:
    """Some 2-dimensional type's sign set contains every condensed row."""
    cond = condense(pattern)
    if cond.rows == 0 or cond.cols == 0:
        return False
    rows = [(r.pos, r.neg) for r in cond.row_vectors]
    return any(all(r in sign_set for r in rows) for sign_set in _plane_sign_sets(cond.cols))


def check_rank2_characterization() -> tuple[bool, str]:
    """mr_le_2 agrees with the type-membership oracle on all 3x3 patterns
    and 1000 seeded 4x4 patterns; every certificate realizes at rank 2."""
    rng = _cell_rng(7)
    patterns = chain(
        (SignPattern.from_grid([e[0:3], e[3:6], e[6:9]]) for e in product((-1, 0, 1), repeat=9)),
        (
            SignPattern.from_grid([[rng.choice((-1, 0, 1)) for _ in range(4)] for _ in range(4)])
            for _ in range(1000)
        ),
    )
    certificates = 0
    for pattern in patterns:
        cert = mr_le_2(pattern)
        if (cert is not None) != _rank2_oracle(pattern):
            return False, f"{pattern.rows}x{pattern.cols} disagreement on {pattern.to_strings()}"
        if cert is not None:
            certificates += 1
            realization = realize_rank2(pattern, cert)
            if rank(realization) != 2 or sign_of(realization) != pattern:
                return False, f"bad realization for {pattern.to_strings()}"
    return True, f"all 19683 3x3 and 1000 4x4 patterns agree; {certificates} certificates realized"


def check_minrank_exact_small() -> tuple[bool, str]:
    """min_rank is exact on all 3x3 patterns (with rung cross-checks), on
    500 seeded patterns up to 5x5, and on the named examples."""
    for entries in product((-1, 0, 1), repeat=9):
        pattern = SignPattern.from_grid([entries[0:3], entries[3:6], entries[6:9]])
        bracket = min_rank(pattern)
        if not bracket.exact:
            return False, f"inexact on {pattern.to_strings()}"
        value = bracket.value
        cond = condense(pattern)
        if (value <= 1) != (cond.rows <= 1):
            return False, f"condensation rung mismatch on {pattern.to_strings()}"
        if (value == 2) != (mr_le_2(pattern) is not None):
            return False, f"rank-2 rung mismatch on {pattern.to_strings()}"
        if (value == 3) != is_L_matrix(pattern)[0]:
            return False, f"L-matrix rung mismatch on {pattern.to_strings()}"
    rng = _cell_rng(8)
    for _ in range(500):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        pattern = SignPattern.from_grid(
            [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
        )
        if not min_rank(pattern).exact:
            return False, f"inexact on random {m}x{n} pattern"
    example = SignPattern.from_strings(["+++", "0++"])
    if min_rank(example).value != 2:
        return False, "the two-row example does not report mr = 2"
    for n in range(2, 9):
        if min_rank(t1t2_pattern(n)).value != 2:
            return False, f"stacked witness at n={n} does not report mr = 2"
    for n in range(2, 7):
        identity = SignPattern.from_grid(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )
        if min_rank(identity).value != n:
            return False, f"identity at n={n} does not report mr = n"
    return True, "exact on all 3x3 (rungs cross-checked), 500 random <=5x5, and the named examples"


def check_corank2_realization() -> tuple[bool, str]:
    """50 seeded planted instances realize with exact signs at rank <= n-2."""
    rng = _cell_rng(9)
    for trial in range(50):
        n = 3 + trial % 4
        m = 4 + (trial * 7) % 9
        u = RationalMatrix(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n - 2)] for _ in range(n)]
        )
        v = RationalMatrix(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)] for _ in range(n - 2)]
        )
        pattern = sign_of(u.mul(v))
        outcome = realize_corank2(pattern)
        if not outcome.ok:
            return False, f"planted instance {trial} (n={n}, m={m}) not realized"
        result = outcome.result
        if sign_of(result.matrix) != pattern or result.claimed_rank > n - 2:
            return False, f"bad realization on planted instance {trial}"
    return True, "50 planted instances (n <= 6, m <= 12) realized exactly at rank <= n-2"


def check_rationalization() -> tuple[bool, str]:
    """25 seeded planted equations solve exactly; the impossible pattern is
    a definitive negative."""
    rng = _cell_rng(10)
    for trial in range(25):
        p = 1 + trial % 4
        n = 1 + (trial * 3) % 4
        b = RationalMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(p)])
        c = RationalMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(n)])
        e = b.mul(c)
        sB, sC, sE = sign_of(b), sign_of(c), sign_of(e)
        if trial % 5 == 4:
            # exercise the two-rows orientation through full transposition
            outcome = rationalize_equation(sC.transpose(), sB.transpose(), sE.transpose())
        else:
            outcome = rationalize_equation(sB, sC, sE)
        if not outcome.ok:
            return False, f"planted equation {trial} not rationalized"
        bt, ct, et = outcome.factors
        if bt.mul(ct) != et:
            return False, f"inexact product on planted equation {trial}"
    infeasible = rationalize_equation(
        SignPattern.from_strings(["+"]),
        SignPattern.from_strings(["++"]),
        SignPattern.from_strings(["0+"]),
    )
    if infeasible.status != STATUS_EXHAUSTED or infeasible.factors is not None:
        return False, "impossible pattern not reported as a definitive negative"
    return True, "25 planted equations solved with exact products; impossible case definitively refused"


def check_s3_lower_bound() -> tuple[bool, str]:
    """Direct-sum witness reaches at least 3(4n-3) sign vectors."""
    for n in (3, 4, 5):
        report = s3_lower_witness(n)
        if report.count < 3 * (4 * n - 3):
            return False, f"witness at n={n} has {report.count} < {3 * (4 * n - 3)}"
    return True, "witness counts at n=3/4/5 meet the 3(4n-3) lower bound"


def check_oddness_closure() -> tuple[bool, str]:
    """Enumerated sign sets are odd, negation-closed, and contain zero."""
    collected: list[SignVectorSet] = []
    for n in range(2, 6):
        for k in range(1, n):
            rng = _cell_rng(12, n, k)
            for _ in range(10):
                collected.append(sign_vectors(random_subspace(n, k, rng)).signs)
    for n in range(2, 9):
        collected.append(sign_vectors(s2_witness_count(n).witness).signs)
    for n in (3, 4, 5):
        collected.append(sign_vectors(s_hyperplane_max(n, samples=0).witness).signs)
        collected.append(sign_vectors(s3_lower_witness(n).witness).signs)
    for n in range(1, 5):
        for sign_set in type_sign_sets(n):
            collected.append(SignVectorSet(n, (SignVector(n, p, q) for p, q in sign_set)))
    for s in collected:
        if len(s) % 2 != 1:
            return False, "even sign-set cardinality encountered"
        if not s.contains_zero():
            return False, "sign set without the zero vector"
        if not s.is_negation_closed():
            return False, "sign set not closed under negation"
    return True, f"{len(collected)} enumerated sign sets are odd, zero-containing, negation-closed"


CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("duality on random subspaces", check_duality_random_subspaces),
    ("2-dimensional maximum 4n+1", check_s2_maximum),
    ("n=3 spectrum {9, 13}", check_plane_spectrum_n3),
    ("k-dimensional minimum 3^k", check_coordinate_minimum),
    ("hyperplane maximum 3^n-2(2^n-1)", check_hyperplane_maximum),
    ("single-vector perp formula", check_perp_formula),
    ("minimum-rank-2 characterization", check_rank2_characterization),
    ("exact minimum rank, small patterns", check_minrank_exact_small),
    ("corank-2 rational realization", check_corank2_realization),
    ("rationalization of B C = E", check_rationalization),
    ("rank-3 lower-bound witness", check_s3_lower_bound),
    ("oddness and negation closure", check_oddness_closure),
]


def run_check(index: int) -> CheckResult:
    name, fn = CHECKS[index - 1]
    passed, detail = fn()
    return CheckResult(index, name, passed, detail)


def run_all(log: Optional[Callable[[str], None]] = None) -> list[CheckResult]:
    results = []
    total = len(CHECKS)
    for i in range(1, total + 1):
        start = time.monotonic()
        result = run_check(i)
        elapsed = time.monotonic() - start
        results.append(result)
        if log is not None:
            status = "PASS" if result.passed else "FAIL"
            log(f"[{i:2d}/{total}] {status} {result.name} ({elapsed:.1f}s): {result.detail}")
    return results
