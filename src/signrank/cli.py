"""Command-line interface.

Subcommands cover the package surface: minimum rank with certificates,
subspace sign enumeration, the duality check, sign-vector complements,
condensation, term rank, the three realization pipelines, the extremal
table, and the built-in acceptance selftest.

Exit codes: 0 for success / exact / definitive answers, 2 for
inconclusive outcomes (bracket-only minimum rank, budget exceeded), 1 for
usage and parse errors. All JSON output is deterministic (sorted keys,
schema tag 1) so identical runs are byte-identical.
"""

import argparse
import json
import sys
from random import Random

from . import covectors, extremal, minrank, rank2, rank3, realize, signs
from .errors import ParseError, SignRankError
from .rational import RationalMatrix, RationalSubspace, format_rational
from .signs import SignPattern, SignVector

SCHEMA = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2


def _json_text(payload: dict) -> str:
    """The one JSON encoding of every output: schema tag, sorted keys, newline."""
    payload = {"schema": SCHEMA, **payload}
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _emit_json(payload: dict) -> None:
    sys.stdout.write(_json_text(payload))


def _read_pattern(path: str) -> SignPattern:
    with open(path, "r", encoding="utf-8") as fh:
        return SignPattern.parse(fh.read())


def _read_matrix(path: str) -> RationalMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return RationalMatrix.parse(fh.read())


def _write_matrix(path: str, matrix: RationalMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(matrix.to_text())


def _matrix_json(matrix: RationalMatrix) -> list[list[str]]:
    return [[format_rational(e) for e in row] for row in matrix.data]


def _plane_type_json(plane_type: rank2.Rank2Type) -> dict:
    return {
        "zero_set": list(plane_type.zero_set),
        "classes": [list(c) for c in plane_type.classes],
        "orientations": list(plane_type.orientations),
    }


def _cmd_mr(args) -> int:
    pattern = _read_pattern(args.pattern)
    bracket = minrank.min_rank(pattern, budget_ms=args.budget_ms)
    cert_payload = []
    for cert in bracket.certificates:
        entry = {"kind": cert.kind}
        payload = cert.payload
        if isinstance(payload, SignVector):
            entry["vector"] = payload.to_string()
        elif isinstance(payload, RationalMatrix):
            entry["matrix"] = _matrix_json(payload)
        elif isinstance(payload, rank2.Rank2Type):
            entry["type"] = _plane_type_json(payload)
        elif isinstance(payload, rank2.Mr2Certificate):
            entry["signature"] = list(payload.signature)
            entry["column_order"] = list(payload.column_order)
        elif isinstance(payload, rank3.Rank3Result):
            # not independently checkable: only a rerun of the search re-verifies it
            entry["question"] = payload.question
            entry["nodes"] = payload.nodes
        elif isinstance(payload, tuple):
            entry["pairs"] = [list(p) for p in payload]
        cert_payload.append(entry)
    if args.json:
        _emit_json(
            {
                "lower": bracket.lower,
                "upper": bracket.upper,
                "exact": bracket.exact,
                "transposed": bracket.transposed,
                "certificates": cert_payload,
            }
        )
    elif bracket.exact:
        print(f"mr = {bracket.lower} (exact)")
    else:
        print(f"mr in [{bracket.lower}, {bracket.upper}] (bracket)")
    return EXIT_OK if bracket.exact else EXIT_INCONCLUSIVE


def _subspace_from_matrix(matrix: RationalMatrix) -> RationalSubspace:
    return RationalSubspace.from_spanning(matrix.rows, list(matrix.columns()))


def _cmd_signs(args) -> int:
    matrix = _read_matrix(args.matrix)
    space = _subspace_from_matrix(matrix)
    report = covectors.sign_vectors(space)
    payload = {
        "ambient": space.ambient_dim,
        "dim": space.dim,
        "count": len(report.signs),
        "basis": _matrix_json(space.basis),
        "signs": report.signs.to_strings(),
        "witnesses": {
            sv.to_string(): list(report.witnesses[sv]) for sv in report.signs
        },
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_json_text(payload))
    if args.json or not args.out:
        _emit_json(payload)
    return EXIT_OK


def _cmd_duality(args) -> int:
    if args.random is None:
        if not args.matrix:
            print("duality-check: provide a matrix file or --random", file=sys.stderr)
            return EXIT_USAGE
        space = _subspace_from_matrix(_read_matrix(args.matrix))
        check = covectors.verify_duality(space)
        if args.json:
            _emit_json(
                {
                    "ok": check.ok,
                    "ambient": space.ambient_dim,
                    "dim": space.dim,
                    "complement_only": [v.to_string() for v in check.complement_only],
                    "perp_only": [v.to_string() for v in check.perp_only],
                }
            )
        else:
            print("verified" if check.ok else "FAILED")
        return EXIT_OK if check.ok else EXIT_INCONCLUSIVE
    n = args.n
    if n is None or n < 2:
        print("duality-check --random needs --n at least 2", file=sys.stderr)
        return EXIT_USAGE
    if args.random < 0:
        print("duality-check: --random must be at least 0", file=sys.stderr)
        return EXIT_USAGE
    if args.k is not None and not 1 <= args.k <= n - 1:
        print("duality-check: --k must be between 1 and n-1", file=sys.stderr)
        return EXIT_USAGE
    trials = range(args.random)
    failures = []
    for i in trials:
        k = args.k if args.k is not None else (i % (n - 1)) + 1
        rng = Random((args.seed << 20) ^ (n << 10) ^ (k << 5) ^ i)
        if not covectors.verify_duality(covectors.random_subspace(n, k, rng)).ok:
            failures.append(i)
    verified = len(trials) - len(failures)
    if args.json:
        _emit_json({"trials": len(trials), "verified": verified, "failures": failures})
    else:
        print(f"{verified}/{len(trials)} verified")
    return EXIT_OK if not failures else EXIT_INCONCLUSIVE


def _cmd_perp(args) -> int:
    pattern = _read_pattern(args.pattern)
    result = signs.set_perp(pattern.row_vectors, n=pattern.cols)
    if args.json:
        _emit_json({"ambient": pattern.cols, "count": len(result), "signs": result.to_strings()})
    else:
        for v in result:
            print(v.to_string())
    return EXIT_OK


def _cmd_condense(args) -> int:
    pattern = _read_pattern(args.pattern)
    condensed = signs.condense(pattern)
    if args.json:
        _emit_json(
            {
                "rows": condensed.rows,
                "cols": condensed.cols,
                "pattern": condensed.to_strings(),
            }
        )
    else:
        text = condensed.to_text().rstrip("\n")
        print(text if text else "(empty)")
    return EXIT_OK


def _cmd_maxrank(args) -> int:
    pattern = _read_pattern(args.pattern)
    value = signs.max_rank(pattern)
    if args.json:
        _emit_json({"max_rank": value})
    else:
        print(f"max rank (term rank) = {value}")
    return EXIT_OK


def _cmd_realize2(args) -> int:
    pattern = _read_pattern(args.pattern)
    cert = rank2.mr_le_2(pattern)
    if cert is None:
        if args.json:
            _emit_json({"status": "no-certificate"})
        else:
            print("no rank-2 certificate: minimum rank is not 2")
        return EXIT_OK
    matrix = rank2.realize_rank2(pattern, cert)
    if args.out:
        _write_matrix(args.out, matrix)
    cert_json = {
        "signature": list(cert.signature),
        "column_order": list(cert.column_order),
        "condensed": cert.trace.pattern.to_strings(),
        "row_map": [list(m) if m else None for m in cert.trace.row_map],
        "col_map": [list(m) if m else None for m in cert.trace.col_map],
    }
    if args.cert_out:
        with open(args.cert_out, "w", encoding="utf-8") as fh:
            fh.write(_json_text(cert_json))
    if args.json:
        _emit_json({"status": "ok", "matrix": _matrix_json(matrix), "certificate": cert_json})
    elif not args.out:
        print(matrix.to_text(), end="")
    else:
        print(f"rank-2 realization written to {args.out}")
    return EXIT_OK


def _no_result(args, outcome, exhausted_text: str) -> int:
    """Report a realization outcome without matrices: exhausted or cut."""
    if args.json:
        _emit_json({"status": outcome.status})
    elif outcome.status == realize.STATUS_EXHAUSTED:
        print(exhausted_text)
    else:
        print("inconclusive: search budget exceeded")
    return EXIT_OK if outcome.definitive else EXIT_INCONCLUSIVE


def _cmd_realize_nm2(args) -> int:
    pattern = _read_pattern(args.pattern)
    outcome = realize.realize_corank2(pattern, budget_ms=args.budget_ms)
    if outcome.result is None:
        return _no_result(args, outcome, "no realization: minimum rank exceeds rows-2 (type space exhausted)")
    result = outcome.result
    if args.out:
        _write_matrix(args.out, result.matrix)
    trace = {
        "rank": result.claimed_rank,
        "plane_type": _plane_type_json(result.plane_type),
        "plane_basis": _matrix_json(result.plane.basis),
        "complement_basis": _matrix_json(result.complement.basis),
        "column_witnesses": [
            [format_rational(e) for e in w] for w in result.column_witnesses
        ],
    }
    if args.json:
        _emit_json({"status": "ok", "matrix": _matrix_json(result.matrix), "trace": trace})
    elif not args.out:
        print(result.matrix.to_text(), end="")
    else:
        print(f"rank <= n-2 realization (rank {result.claimed_rank}) written to {args.out}")
    return EXIT_OK


def _cmd_rationalize(args) -> int:
    sB = _read_pattern(args.b_pattern)
    sC = _read_pattern(args.c_pattern)
    sE = _read_pattern(args.e_pattern)
    outcome = realize.rationalize_equation(sB, sC, sE, budget_ms=args.budget_ms)
    if outcome.factors is None:
        return _no_result(args, outcome, "no realization: the sign patterns admit no real solution")
    b_mat, c_mat, e_mat = outcome.factors
    if args.out:
        _write_matrix(args.out + "b.mat", b_mat)
        _write_matrix(args.out + "c.mat", c_mat)
        _write_matrix(args.out + "e.mat", e_mat)
    if args.json:
        _emit_json(
            {
                "status": "ok",
                "B": _matrix_json(b_mat),
                "C": _matrix_json(c_mat),
                "E": _matrix_json(e_mat),
                "product_exact": True,
            }
        )
    else:
        print("exact rational solution found; B~ C~ = E~ verified")
        if not args.out:
            for label, m in (("B~", b_mat), ("C~", c_mat), ("E~", e_mat)):
                print(f"{label}:")
                print(m.to_text(), end="")
    return EXIT_OK


def _cmd_extremal(args) -> int:
    n_max = args.n if args.n is not None else 6
    if not 2 <= n_max <= 6:
        print("extremal: --n must be between 2 and 6", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for n in range(2, n_max + 1):
        max_report = extremal.s2_exhaustive_max(n)
        witness = extremal.s2_witness_count(n)
        hyper = extremal.s_hyperplane_max(n)
        mins = [extremal.s_min_witness(k, n).count for k in range(1, n + 1)]
        entry = {
            "n": n,
            "S2_max": max_report.count,
            "S2_witness": witness.count,
            "S2_formula": 4 * n + 1,
            "hyperplane_max": hyper.count,
            "hyperplane_formula": extremal.hyperplane_count_formula(n),
            "s_min": mins,
            "s_min_formula": [3**k for k in range(1, n + 1)],
        }
        if n >= 3:
            lower = extremal.s3_lower_witness(n)
            entry["S3_lower_witness"] = lower.count
            entry["S3_lower_formula"] = lower.formula_value
        rows.append(entry)
    if args.json:
        _emit_json({"table": rows})
    else:
        print("| n | S_2 max | 4n+1 | S_{n-1} | 3^n-2(2^n-1) | s_k (k=1..n) | S_3 witness | 3(4n-3) |")
        print("|---|---------|------|---------|--------------|--------------|-------------|---------|")
        for e in rows:
            s3w = e.get("S3_lower_witness", "-")
            s3f = e.get("S3_lower_formula", "-")
            mins = ",".join(str(v) for v in e["s_min"])
            print(
                f"| {e['n']} | {e['S2_max']} | {e['S2_formula']} | {e['hyperplane_max']} "
                f"| {e['hyperplane_formula']} | {mins} | {s3w} | {s3f} |"
            )
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run_all(log=None if args.json else print)
    passed = sum(1 for r in results if r.passed)
    if args.json:
        _emit_json(
            {
                "checks": [
                    {"index": r.index, "name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
                "passed": passed,
                "total": len(results),
            }
        )
    else:
        print(f"{passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_INCONCLUSIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signrank",
        description="Exact computation with sign pattern matrices and sign vectors of rational subspaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=False, seed=False):
        p.add_argument("--json", action="store_true", help="structured JSON output")
        if budget:
            p.add_argument("--budget-ms", type=int, default=None, help="wall-clock cap for searches")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")

    p = sub.add_parser("mr", help="minimum rank bracket with certificates")
    p.add_argument("pattern")
    common(p, budget=True)
    p.set_defaults(func=_cmd_mr)

    p = sub.add_parser("signs", help="sign vectors of the column space of a rational matrix")
    p.add_argument("matrix")
    p.add_argument("--out", default=None, help="write the JSON report to a file")
    common(p)
    p.set_defaults(func=_cmd_signs)

    p = sub.add_parser("duality-check", help="verify sign(L^perp) = sign(L)^perp")
    p.add_argument("matrix", nargs="?", default=None)
    p.add_argument("--random", type=int, default=None, help="number of random subspaces")
    p.add_argument("--n", type=int, default=None, help="ambient dimension for --random")
    p.add_argument("--k", type=int, default=None, help="subspace dimension for --random")
    common(p, seed=True)
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("perp", help="orthogonal complement of a set of sign vectors")
    p.add_argument("pattern", help="pattern file whose rows are the sign vectors")
    common(p)
    p.set_defaults(func=_cmd_perp)

    p = sub.add_parser("condense", help="condensed sign pattern")
    p.add_argument("pattern")
    common(p)
    p.set_defaults(func=_cmd_condense)

    p = sub.add_parser("maxrank", help="maximum rank (term rank)")
    p.add_argument("pattern")
    common(p)
    p.set_defaults(func=_cmd_maxrank)

    p = sub.add_parser("realize2", help="rational rank-2 realization")
    p.add_argument("pattern")
    p.add_argument("--out", default=None, help="matrix output file")
    p.add_argument("--cert-out", default=None, help="certificate JSON output file")
    common(p)
    p.set_defaults(func=_cmd_realize2)

    p = sub.add_parser("realize-nm2", help="rational rank n-2 realization (columnwise)")
    p.add_argument("pattern")
    p.add_argument("--out", default=None, help="matrix output file")
    common(p, budget=True)
    p.set_defaults(func=_cmd_realize_nm2)

    p = sub.add_parser("rationalize", help="rational solution of B C = E with matching signs")
    p.add_argument("b_pattern")
    p.add_argument("c_pattern")
    p.add_argument("e_pattern")
    p.add_argument("--out", default=None, help="output path prefix for the three matrices")
    common(p, budget=True)
    p.set_defaults(func=_cmd_rationalize)

    p = sub.add_parser("extremal", help="reproduced extremal sign-vector counts")
    p.add_argument("--n", type=int, default=None, help="largest ambient dimension (2..6)")
    common(p)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    common(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "budget_ms", None) is not None and args.budget_ms < 0:
        print("error: --budget-ms must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:  # unreadable input or output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SignRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
