"""Generate the benchmark corpus and its reference answers from a seed.

    python3 bench/gen.py --seed 1312

writes ``bench/corpus/<workload>/``: sign patterns as ``.sp``, subspace
bases as ``.mat`` (columns span the subspace), and ``reference.json``
with the answers every run is checked against. Inputs come from this
file's own seeded generator; the package only computes the references,
so a change to the package cannot change the workload. The committed
corpus was generated with ``--seed 1312``.
"""

import argparse
import json
import shutil
import sys
import time
from fractions import Fraction
from random import Random

from srcpath import CORPUS
from signrank import covectors, minrank, rational, realize
from signrank.errors import BudgetExceededError
from signrank.rational import RationalMatrix, RationalSubspace, rank
from signrank.signs import SignPattern, SignVector, sign_of, sign_of_vector

import workloads

DUALITY_AMBIENT = 7
DUALITY_PER_K = 6
WITNESS_AMBIENT = 8
WITNESS_DIMS = (3, 4, 5)
WITNESS_SPACES_PER_K = 3
WITNESS_QUERIES = 8  # planted members and random sign vectors, each, per subspace
REPEATS = 3  # reference min-rank runs that must agree


def stream(seed, label):
    return Random(f"signrank-bench:{seed}:{label}")


def subspace_basis(rng, n, k):
    """n x k basis, entries p/q with p in -5..5 and q in 1..3, full rank."""
    while True:
        columns = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(k)]
        matrix = RationalMatrix.from_columns(columns, rows=n)
        if rank(matrix) == k:
            return matrix


def planted_matrix(rng, m, n, r):
    """U V with U m x r and V r x n over -3..3, of rank exactly r."""
    while True:
        u = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        product = RationalMatrix(u).mul(RationalMatrix(v))
        if rank(product) == r:
            return product


def random_pattern(rng, m, n):
    """Entries +, - with probability 2/5 each and 0 with 1/5."""
    return SignPattern.from_grid([[rng.choice((1, -1, 0, 1, -1)) for _ in range(n)] for _ in range(m)])


def sparse_pattern(rng, d):
    """d x d, every row with two or three zeros and random signs elsewhere."""
    rows = []
    for _ in range(d):
        zeros = set(rng.sample(range(d), rng.choice((2, 3))))
        rows.append([0 if j in zeros else rng.choice((1, -1)) for j in range(d)])
    return SignPattern.from_grid(rows)


def write(path, text):
    path.write_text(text, encoding="utf-8")


def write_reference(folder, payload):
    write(folder / "reference.json", json.dumps(payload, indent=1, sort_keys=True) + "\n")


def fresh(folder):
    if folder.exists():
        shutil.rmtree(folder)
    folder.mkdir(parents=True)


def gen_duality(seed):
    folder = CORPUS / "duality"
    fresh(folder)
    rng = stream(seed, "duality")
    entries = {}
    for k in range(1, DUALITY_AMBIENT):
        for i in range(DUALITY_PER_K):
            key = f"k{k}-{i}.mat"
            basis = subspace_basis(rng, DUALITY_AMBIENT, k)
            write(folder / key, basis.to_text())
            space = RationalSubspace(DUALITY_AMBIENT, basis)
            entries[key] = {
                "k": k,
                "sign_count": len(covectors.sign_vectors(space).signs),
                "perp_count": len(covectors.sign_vectors(rational.orth_complement(space)).signs),
            }
    write_reference(folder, {"seed": seed, "ambient": DUALITY_AMBIENT, "subspaces": entries})


def minrank_specs():
    """(name, rows/cols, planted rank or None) for every corpus pattern."""
    specs = []
    for d, ranks, randoms in ((5, (2, 3, 4), 3), (6, (3, 4, 3), 4), (7, (), 1)):
        specs += [(f"rand-{d}x{d}", d, None)] * randoms
        specs += [(f"rank{r}-{d}x{d}", d, r) for r in ranks]
    specs.append(("sparse-10x10", 10, None))
    return specs


def _timed_type_search(pattern, budget_ms):
    """Milliseconds the type-search rung takes to decide on this pattern
    under three times the workload budget, None when the ladder never
    reaches it, or "cut" when even that budget runs out."""
    calls = []
    original = minrank.mr_le_n_minus_2

    def timed(p, budget_ms=None):
        start = time.perf_counter()
        try:
            original(p, budget_ms=3 * budget_ms)
            calls.append(round((time.perf_counter() - start) * 1000))
        except BudgetExceededError:
            calls.append("cut")
        raise BudgetExceededError("probe only")

    minrank.mr_le_n_minus_2 = timed
    try:
        minrank.min_rank(pattern, budget_ms=budget_ms)
    finally:
        minrank.mr_le_n_minus_2 = original
    return calls[0] if calls else None


def gen_minrank(seed):
    folder = CORPUS / "minrank"
    fresh(folder)
    rng = stream(seed, "minrank")
    budget = workloads.BUDGET_MS["minrank"]
    entries = {}
    for index, (label, d, planted) in enumerate(minrank_specs()):
        if planted is not None:
            pattern = sign_of(planted_matrix(rng, d, d, planted))
        elif label.startswith("sparse"):
            pattern = sparse_pattern(rng, d)
        else:
            pattern = random_pattern(rng, d, d)
        key = f"p{index:02d}-{label}.sp"
        write(folder / key, pattern.to_text())
        answers = set()
        seconds = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            bracket = minrank.min_rank(pattern, budget_ms=budget)
            seconds.append(time.perf_counter() - start)
            answers.add((bracket.lower, bracket.upper, workloads.kinds(bracket)))
        if len(answers) != 1:
            raise SystemExit(f"{key}: the bracket changes between runs: {sorted(answers)}")
        ((lower, upper, found),) = answers
        entries[key] = {
            "planted_rank": planted,
            "lower": lower,
            "upper": upper,
            "certificates": list(found),
            "op_ms": round(min(seconds) * 1000),
            "type_search_ms": _timed_type_search(pattern, budget),
        }
        print(key, entries[key], file=sys.stderr)
    write_reference(folder, {"seed": seed, "budget_ms": budget, "patterns": entries})


def gen_witness(seed):
    folder = CORPUS / "witness"
    fresh(folder)
    rng = stream(seed, "witness")
    n = WITNESS_AMBIENT
    spaces = {}
    queries = []
    for k in WITNESS_DIMS:
        for i in range(WITNESS_SPACES_PER_K):
            key = f"sub-k{k}-{i}.mat"
            basis = subspace_basis(rng, n, k)
            write(folder / key, basis.to_text())
            space = RationalSubspace(n, basis)
            members = covectors.sign_vectors(space).signs
            spaces[key] = {"k": k, "sign_count": len(members)}
            for planted in (True, False):
                for _ in range(WITNESS_QUERIES):
                    if planted:
                        x = [0] * k
                        while not any(x):
                            x = [rng.randint(-3, 3) for _ in range(k)]
                        target = sign_of_vector(basis.apply(x))
                    else:
                        target = SignVector.zero(n)
                        while target.is_zero():
                            target = SignVector.from_signs(rng.choice((1, 0, -1)) for _ in range(n))
                    queries.append({
                        "subspace": key, "signs": target.to_string(),
                        "planted": planted, "member": target in members,
                    })
    budget = workloads.BUDGET_MS["witness"]
    realizations = {}
    for rows in (6, 7, 8):
        for i in range(2):
            key = f"real-n{rows}-{i}.sp"
            pattern = sign_of(planted_matrix(rng, rows, rows - 1, rows - 2))
            write(folder / key, pattern.to_text())
            realizations[key] = {"rows": rows, "status": realize.realize_corank2(pattern, budget_ms=budget).status}
    equations = {}
    for i, (inner, outer) in enumerate(((3, 2), (4, 3), (3, 4), (4, 2))):
        key = f"eq{i}"
        b = planted_matrix(rng, outer, inner, min(outer, inner))
        c = planted_matrix(rng, inner, 2, 2)
        e = b.mul(c)
        if i % 2:  # E with two rows: the transposed equation C^T B^T = E^T
            b, c, e = c.transpose(), b.transpose(), e.transpose()
        parts = [sign_of(b), sign_of(c), sign_of(e)]
        for part, pattern in zip("BCE", parts):
            write(folder / f"{key}-{part}.sp", pattern.to_text())
        outcome = realize.rationalize_equation(*parts, budget_ms=budget)
        equations[key] = {"inner": inner, "status": outcome.status}
    for entry in list(realizations.values()) + list(equations.values()):
        if entry["status"] != "ok":
            raise SystemExit(f"a planted realization did not succeed: {entry}")
    write_reference(folder, {
        "seed": seed, "ambient": n, "subspaces": spaces, "queries": queries,
        "realize": realizations, "rationalize": equations,
    })


GENERATORS = {"duality": gen_duality, "minrank": gen_minrank, "witness": gen_witness}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for name in workloads.WORKLOADS:
        GENERATORS[name](args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
