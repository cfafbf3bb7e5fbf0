"""Command-line interface: subcommands, file round-trips, exit codes."""

import argparse
import json
import re
from pathlib import Path
from random import Random

import pytest

from signrank.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, build_parser, main
from signrank.rational import RationalMatrix, RationalSubspace
from signrank.signs import SignPattern, sign_of
from test_covectors import reference_cover_witnesses


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMr:
    def test_example_exact(self, capsys, write):
        path = write("ex.sp", "+++\n0++\n")
        code, out, _ = run(capsys, ["mr", path])
        assert code == EXIT_OK
        assert out.strip() == "mr = 2 (exact)"

    def test_json_output(self, capsys, write):
        path = write("id.sp", "+00\n0+0\n00+\n")
        code, out, _ = run(capsys, ["mr", path, "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["lower"] == payload["upper"] == 3 and payload["exact"]

    def test_rank3_exhaustion_certificate(self, capsys, write):
        # 5x5 with mr = 4: the rank-3 cov search is exhausted, which closes
        # the bracket; its certificate carries the question and node count
        corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus" / "minrank"
        path = str(corpus / "p00-rand-5x5.sp")
        code, out, _ = run(capsys, ["mr", path, "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["lower"], payload["upper"]) == (4, 4)
        (cert,) = [c for c in payload["certificates"] if c["kind"] == "rank3-exhausted"]
        assert cert["question"] == "cov"
        assert isinstance(cert["nodes"], int) and cert["nodes"] > 0
        assert set(cert) == {"kind", "question", "nodes"}
        _, again, _ = run(capsys, ["mr", path, "--json"])
        assert again == out

    def test_parse_error_exit_code(self, capsys, write):
        path = write("bad.sp", "+x\n")
        code, _, err = run(capsys, ["mr", path])
        assert code == EXIT_USAGE
        assert "line 1" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["mr", "/nonexistent/file.sp"])
        assert code == EXIT_USAGE

    def test_directory_is_an_error_not_a_traceback(self, capsys, tmp_path):
        code, out, err = run(capsys, ["mr", str(tmp_path)])
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ")

    def test_non_utf8_file_is_an_error_not_a_traceback(self, capsys, tmp_path):
        path = tmp_path / "binary.sp"
        path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 184)))
        code, out, err = run(capsys, ["mr", str(path)])
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ")


class TestSigns:
    def test_counts_and_witnesses(self, capsys, write):
        path = write("basis.mat", "1 0\n1 1\n1 2\n")
        code, out, _ = run(capsys, ["signs", path])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["count"] == 13 and payload["dim"] == 2
        assert len(payload["witnesses"]) == 13

    def test_json_witnesses_equal_the_reference_cover(self, capsys, write):
        # the witnesses object, key order included, is what the reference
        # cover witnesses give under the JSON encoder
        rng = Random(13)
        rows = [" ".join(str(rng.randint(-4, 4)) for _ in range(3)) for _ in range(6)]
        path = write("basis.mat", "\n".join(rows) + "\n")
        code, out, _ = run(capsys, ["signs", path, "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        columns = RationalMatrix.parse(Path(path).read_text()).columns()
        space = RationalSubspace.from_spanning(6, list(columns))
        expected = {sv.to_string(): list(coeff) for sv, coeff in reference_cover_witnesses(space)}
        assert json.dumps(payload["witnesses"]) == json.dumps(expected, sort_keys=True)

    def test_witnesses_reverify_against_reported_basis(self, capsys, write):
        path = write("basis.mat", "1 0\n1 1\n1 2\n")
        _, out, _ = run(capsys, ["signs", path])
        payload = json.loads(out)
        basis = RationalMatrix(
            [[_parse(e) for e in row] for row in payload["basis"]]
        )
        for sign_string, coeffs in payload["witnesses"].items():
            image = basis.apply(coeffs)
            rendered = "".join("+" if v > 0 else "-" if v < 0 else "0" for v in image)
            assert rendered == sign_string

    def test_out_file(self, capsys, write, tmp_path):
        path = write("basis.mat", "1\n1\n")
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, ["signs", path, "--out", str(out_path)])
        assert code == EXIT_OK
        assert json.loads(out_path.read_text())["count"] == 3

    def test_out_file_equals_json_stdout(self, capsys, write, tmp_path):
        path = write("basis.mat", "1 0\n1 1\n1 2\n")
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, ["signs", path, "--json", "--out", str(out_path)])
        assert code == EXIT_OK
        assert out_path.read_text() == out


def _parse(token):
    from signrank.rational import parse_rational

    return parse_rational(token)


class TestDualityCheck:
    def test_single_matrix(self, capsys, write):
        path = write("basis.mat", "1 0\n0 1\n1 1\n")
        code, out, _ = run(capsys, ["duality-check", path])
        assert code == EXIT_OK and out.strip() == "verified"

    def test_random_mode(self, capsys):
        code, out, _ = run(
            capsys, ["duality-check", "--random", "50", "--n", "4", "--seed", "0"]
        )
        assert code == EXIT_OK
        assert out.strip() == "50/50 verified"

    def test_random_mode_json_deterministic(self, capsys):
        argv = ["duality-check", "--random", "10", "--n", "3", "--seed", "7", "--json"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert json.loads(out1)["verified"] == 10

    def test_needs_input(self, capsys):
        code, _, err = run(capsys, ["duality-check"])
        assert code == EXIT_USAGE

    def test_negative_random_count(self, capsys):
        code, out, err = run(capsys, ["duality-check", "--random", "-5", "--n", "3"])
        assert code == EXIT_USAGE and out == "" and "--random" in err

    def test_k_out_of_range_without_trials(self, capsys):
        # --k is checked before the trial loop, so zero trials still reject it
        code, out, err = run(capsys, ["duality-check", "--random", "0", "--n", "3", "--k", "99"])
        assert code == EXIT_USAGE and out == "" and "--k" in err


class TestPerpCondenseMaxrank:
    def test_perp(self, capsys, write):
        path = write("one.sp", "+++\n")
        code, out, _ = run(capsys, ["perp", path, "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["count"] == 13

    def test_condense(self, capsys, write):
        path = write("p.sp", "++\n++\n")
        code, out, _ = run(capsys, ["condense", path])
        assert code == EXIT_OK and out.strip() == "+"

    def test_condense_empty(self, capsys, write):
        path = write("z.sp", "00\n00\n")
        code, out, _ = run(capsys, ["condense", path])
        assert code == EXIT_OK and out.strip() == "(empty)"

    def test_maxrank(self, capsys, write):
        path = write("p.sp", "+0\n+0\n")
        code, out, _ = run(capsys, ["maxrank", path])
        assert code == EXIT_OK and "= 1" in out


class TestRealize2:
    def test_round_trip(self, capsys, write, tmp_path):
        path = write("p.sp", "+++\n0++\n")
        out_path = tmp_path / "real.mat"
        cert_path = tmp_path / "cert.json"
        code, _, _ = run(
            capsys,
            ["realize2", path, "--out", str(out_path), "--cert-out", str(cert_path)],
        )
        assert code == EXIT_OK
        matrix = RationalMatrix.parse(out_path.read_text())
        assert sign_of(matrix) == SignPattern.from_strings(["+++", "0++"])
        cert = json.loads(cert_path.read_text())
        assert cert["schema"] == 1 and "signature" in cert

    def test_cert_out_file_is_the_json_certificate(self, capsys, write, tmp_path):
        # both go through one encoder: same schema tag, key order, indent
        # and trailing newline as the --json stdout
        path = write("p.sp", "+++\n0++\n")
        cert_path = tmp_path / "cert.json"
        code, out, _ = run(capsys, ["realize2", path, "--json", "--cert-out", str(cert_path)])
        assert code == EXIT_OK

        def encode(payload):
            return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"

        assert out == encode(json.loads(out))
        assert cert_path.read_text() == encode({"schema": 1, **json.loads(out)["certificate"]})

    def test_no_certificate_definitive_exit(self, capsys, write):
        # no certificate decides that the minimum rank is not 2: exit 0
        path = write("id.sp", "+00\n0+0\n00+\n")
        code, out, _ = run(capsys, ["realize2", path, "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "no-certificate"


class TestRealizeNm2:
    def test_round_trip(self, capsys, write, tmp_path):
        path = write("p.sp", "++0\n+-0\n000\n000\n")
        out_path = tmp_path / "real.mat"
        code, _, _ = run(capsys, ["realize-nm2", path, "--out", str(out_path)])
        assert code == EXIT_OK
        matrix = RationalMatrix.parse(out_path.read_text())
        assert sign_of(matrix) == SignPattern.from_strings(["++0", "+-0", "000", "000"])

    def test_definitive_negative_is_success(self, capsys, write):
        path = write("id.sp", "+000\n0+00\n00+0\n000+\n")
        code, out, _ = run(capsys, ["realize-nm2", path, "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "exhausted"


class TestRationalize:
    def test_planted(self, capsys, write, tmp_path):
        b = write("b.sp", "++\n+-\n")
        c = write("c.sp", "++\n-+\n")
        e = write("e.sp", "0+\n+0\n")
        prefix = str(tmp_path / "out_")
        code, out, _ = run(capsys, ["rationalize", b, c, e, "--out", prefix])
        assert code == EXIT_OK
        bm = RationalMatrix.parse((tmp_path / "out_b.mat").read_text())
        cm = RationalMatrix.parse((tmp_path / "out_c.mat").read_text())
        em = RationalMatrix.parse((tmp_path / "out_e.mat").read_text())
        assert bm.mul(cm) == em
        assert sign_of(em) == SignPattern.from_strings(["0+", "+0"])

    def test_impossible(self, capsys, write):
        b = write("b.sp", "+\n")
        c = write("c.sp", "++\n")
        e = write("e.sp", "0+\n")
        code, out, _ = run(capsys, ["rationalize", b, c, e, "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "exhausted"


class TestExtremal:
    def test_table_contains_headline_values(self, capsys):
        code, out, _ = run(capsys, ["extremal", "--n", "3"])
        assert code == EXIT_OK
        assert "| 3 | 13 | 13 |" in out

    def test_json_table(self, capsys):
        code, out, _ = run(capsys, ["extremal", "--json", "--n", "2"])
        assert code == EXIT_OK
        table = json.loads(out)["table"]
        assert table[0]["S2_max"] == 9 and table[0]["S2_formula"] == 9

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, ["extremal", "--n", "9"])
        assert code == EXIT_USAGE


class TestBudgetAndSelftestExits:
    def test_wide_pattern_bracket_exits_inconclusive(self, capsys, write):
        # 13 columns on both orientations triggers the unbudgeted width cap,
        # so the ladder can only report a bracket
        from random import Random

        rng = Random(5)
        rows = ["".join(rng.choice("+-") for _ in range(13)) for _ in range(13)]
        path = write("wide.sp", "\n".join(rows) + "\n")
        code, out, _ = run(capsys, ["mr", path])
        assert code == EXIT_INCONCLUSIVE
        assert "bracket" in out

    def test_selftest_exit_codes(self, capsys, monkeypatch):
        from signrank import selftest

        monkeypatch.setattr(selftest, "CHECKS", [("stub", lambda: (True, "ok"))])
        code, out, _ = run(capsys, ["selftest"])
        assert code == EXIT_OK and "PASS" in out
        monkeypatch.setattr(selftest, "CHECKS", [("stub", lambda: (False, "broken"))])
        code, out, _ = run(capsys, ["selftest"])
        assert code == EXIT_INCONCLUSIVE and "FAIL" in out

    def test_selftest_json_report(self, capsys, monkeypatch):
        from signrank import selftest

        checks = [("first", lambda: (True, "ok")), ("second", lambda: (False, "broken"))]
        monkeypatch.setattr(selftest, "CHECKS", checks)
        code, out, _ = run(capsys, ["selftest", "--json"])
        assert code == EXIT_INCONCLUSIVE
        assert json.loads(out) == {
            "schema": 1,
            "checks": [
                {"index": 1, "name": "first", "passed": True, "detail": "ok"},
                {"index": 2, "name": "second", "passed": False, "detail": "broken"},
            ],
            "passed": 1,
            "total": 2,
        }
        _, again, _ = run(capsys, ["selftest", "--json"])
        assert again == out
        monkeypatch.setattr(selftest, "CHECKS", checks[:1])
        code, out, _ = run(capsys, ["selftest", "--json"])
        assert code == EXIT_OK and json.loads(out)["passed"] == 1


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, capsys, write):
        path = write("p.sp", "+-+\n++0\n")
        outputs = set()
        for _ in range(3):
            _, out, _ = run(capsys, ["mr", path, "--json"])
            outputs.add(out)
        assert len(outputs) == 1


class TestReadme:
    def test_command_line_block_lists_every_flag(self):
        # the README's usage block and the parser name the same -- flags
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        documented = {}
        for line in block.splitlines():
            words = line.split()
            documented[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        parsed = {
            name: {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
            for name, sub in subparsers.choices.items()
        }
        assert documented == parsed
