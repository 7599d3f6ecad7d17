"""Command-line interface and scripts: formats, exit codes, determinism."""
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from shufflecube.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_edge_counts(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--kind", "SSQ", "--n", "6")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 96
        assert lines == sorted(lines)
        for line in lines:
            a, b = line.split()
            assert a < b

    def test_bsq_edges(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--kind", "bsq", "--n", "6", "--format", "edges")
        assert code == 0
        assert len(out.splitlines()) == 192

    def test_dot_structure(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--kind", "SQ", "--n", "6", "--format", "dot")
        assert code == 0
        assert out.startswith("graph SQ_6 {")
        assert out.rstrip().endswith("}")
        assert len(re.findall(r'"[01]{6}" -- "[01]{6}";', out)) == 192

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--kind", "SSQ", "--n", "6", "--format", "json")
        payload = json.loads(out)
        assert payload["kind"] == "SSQ" and payload["n"] == 6
        assert len(payload["vertices"]) == 32
        assert len(payload["edges"]) == 96

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "generate", "--kind", "BSQ", "--n", "6")
        _, second, _ = run_cli(capsys, "generate", "--kind", "BSQ", "--n", "6")
        assert first == second

    def test_cap_exceeded_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--kind", "Q", "--n", "22")
        assert code == 2
        assert "cap" in err


class TestAnalyze:
    def test_girth(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--kind", "SQ", "--n", "6", "--checks", "girth")
        assert code == 0
        assert json.loads(out)["checks"]["girth"] == {"girth": 3}

    def test_bipartite(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--kind", "BSQ", "--n", "6", "--checks", "bipartite")
        assert json.loads(out)["checks"]["bipartite"] == {"bipartite": True}

    def test_diameter(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--kind", "SSQ", "--n", "6", "--checks", "diameter")
        assert json.loads(out)["checks"]["diameter"] == {"diameter": 4, "method": "exhaustive"}

    def test_all_checks_run(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--kind", "SSQ", "--n", "6")
        checks = json.loads(out)["checks"]
        assert set(checks) == {
            "degree", "girth", "bipartite", "cliques", "diameter", "transitivity", "equivalence",
        }

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--kind", "SQ", "--n", "6", "--checks", "rainbow")
        assert code == 2
        assert "rainbow" in err

    def test_unknown_check_reported_before_the_graph_is_built(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--kind", "q", "--n", "22", "--checks=bogus")
        assert code == 2
        assert out == ""
        assert err.startswith("unknown check 'bogus'; valid checks: ")

    def test_bad_dimension_reported_before_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--kind", "ssq", "--n", "7", "--checks=bogus")
        assert code == 2
        assert err.startswith("error: ") and "bogus" not in err


class TestRoute:
    def test_ssq_path(self, capsys):
        code, out, _ = run_cli(
            capsys, "route", "--kind", "ssq", "--n", "6", "--from", "000000", "--to", "110000"
        )
        assert code == 0
        assert out.splitlines() == [
            "000000", "111100", "110000", "length: 2", "crosscheck: bfs=2 ok",
        ]

    def test_bsq_single_hop(self, capsys):
        code, out, _ = run_cli(
            capsys, "route", "--kind", "bsq", "--n", "6", "--from", "000000", "--to", "010000"
        )
        assert code == 0
        assert "length: 1" in out

    def test_self_route(self, capsys):
        code, out, _ = run_cli(
            capsys, "route", "--kind", "ssq", "--n", "6", "--from", "000000", "--to", "000000"
        )
        assert code == 0
        assert "length: 0" in out

    def test_bad_vertex_string(self, capsys):
        code, _, err = run_cli(
            capsys, "route", "--kind", "ssq", "--n", "6", "--from", "00000x", "--to", "000000"
        )
        assert code == 2
        assert "position" in err

    def test_non_vertex_is_named_in_bits(self, capsys):
        code, out, err = run_cli(
            capsys, "route", "--kind", "ssq", "--n", "6", "--from", "010000", "--to", "000000"
        )
        assert code == 2
        assert out == ""
        assert err == "error: word 010000 is not a vertex of SSQ_6\n"

    def test_sq_not_routable(self, capsys):
        code, _, err = run_cli(
            capsys, "route", "--kind", "sq", "--n", "6", "--from", "000000", "--to", "000001"
        )
        assert code == 2

    # Above n = 10 there is no BFS cross-check, so these pin the paths.
    @pytest.mark.parametrize("kind, src, dst, golden", [
        ("ssq", "110011110000111100", "001111000011110011", """
            110011110000111100
            110011110000110000
            110011110011110000
            110011000011110000
            001111000011110000
            001111000011110011
            length: 5
        """),
        ("bsq", "101100111000011101", "010011000111100110", """
            101100111000011101
            101100111000001001
            101100111000011001
            101100111000100101
            101100110100100101
            101100110011100101
            101100110111100101
            101111000111100101
            010011000111100101
            010011000111100110
            length: 9
        """),
    ])
    def test_golden_n18(self, capsys, kind, src, dst, golden):
        code, out, err = run_cli(capsys, "route", "--kind", kind, "--n", "18", "--from", src, "--to", dst)
        assert (code, err) == (0, "")
        assert out == "".join(line.strip() + "\n" for line in golden.strip().splitlines())


# The snake cycles at n = 6: the tail cycle 00 01 10 11 swept forward and
# back along the block's factor cycle.
EMITTED_N6 = {
    "ssq": """
        000000 000001 000010 000011 000111 000110 000101 000100
        001000 001001 001010 001011 001111 001110 001101 001100
        110000 110001 110010 110011 110111 110110 110101 110100
        111000 111001 111010 111011 111111 111110 111101 111100
    """,
    "bsq": """
        000000 000001 000010 000011 010011 010010 010001 010000
        001100 001101 001110 001111 011111 011110 011101 011100
        001000 001001 001010 001011 011011 011010 011001 011000
        000100 000101 000110 000111 010111 010110 010101 010100
        100000 100001 100010 100011 110011 110010 110001 110000
        101100 101101 101110 101111 111111 111110 111101 111100
        101000 101001 101010 101011 111011 111010 111001 111000
        100100 100101 100110 100111 110111 110110 110101 110100
    """,
}


# SHA-256 of the emitted n = 10 cycles (256 and 1024 lines): the exact order
# of the snake fold over the factor cycles.
EMITTED_N10_SHA256 = {
    "ssq": "dea623289e383e8d2554b92a5f77604b814df6b089dc3fb4a1c1188fc9a69946",
    "bsq": "7149aadb40b7990e6c51dab9262c3d3e2778032bbffda05c6e3c63d54e84e1f2",
}


class TestHamiltonian:
    def test_emit_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "hamiltonian", "emit", "--kind", "ssq", "--n", "6", "--fixture", "h1"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 32
        assert lines[0] == "000000" and lines[1] == "000100"

    def test_emit_generated(self, capsys):
        code, out, _ = run_cli(capsys, "hamiltonian", "emit", "--kind", "bsq", "--n", "10")
        assert code == 0
        assert len(out.splitlines()) == 1024

    @pytest.mark.parametrize("kind,digest", list(EMITTED_N10_SHA256.items()))
    def test_emit_generated_n10_digest(self, capsys, kind, digest):
        code, out, _ = run_cli(capsys, "hamiltonian", "emit", "--kind", kind, "--n", "10")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind", ["ssq", "bsq"])
    def test_emit_generated_n6_word_for_word(self, capsys, kind):
        code, out, _ = run_cli(capsys, "hamiltonian", "emit", "--kind", kind, "--n", "6")
        assert code == 0
        assert out == "\n".join(EMITTED_N6[kind].split()) + "\n"

    def test_validate_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "hamiltonian", "validate", "--kind", "bsq", "--n", "6", "--fixture", "h2"
        )
        assert code == 0
        assert "valid: true" in out

    def test_validate_tampered_file(self, capsys, tmp_path):
        lines = run_cli(capsys, "hamiltonian", "emit", "--kind", "ssq", "--n", "6")[1].splitlines()
        lines[3], lines[4] = lines[4], lines[3]
        bad = tmp_path / "cycle.txt"
        bad.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(
            capsys, "hamiltonian", "validate", "--kind", "ssq", "--n", "6", "--input", str(bad)
        )
        assert code == 1
        assert "valid: false" in out

    def test_fixture_kind_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "hamiltonian", "emit", "--kind", "bsq", "--n", "6", "--fixture", "h1"
        )
        assert code == 2

    def test_validate_fixture_mismatch_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "hamiltonian", "validate", "--kind", "ssq", "--n", "10", "--fixture", "h1"
        )
        assert code == 2
        assert out == ""
        assert "fixture h1 is a SSQ_6 cycle" in err

    def test_validate_missing_input_is_io_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "hamiltonian", "validate", "--kind", "ssq", "--n", "6",
            "--input", str(tmp_path / "missing.txt"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "missing.txt" in err

    def test_validate_directory_input_is_io_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "hamiltonian", "validate", "--kind", "ssq", "--n", "6", "--input", str(tmp_path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestVerifyClaims:
    def test_bad_dimension_is_usage_error(self, capsys):
        for n, message in (("7", "mod 4"), ("2", "claims suite supports 6 <= n <= 14, got 2")):
            code, _, err = run_cli(capsys, "verify-claims", n)
            assert code == 2
            assert message in err

    def test_repeated_n_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify-claims", "6", "10", "6")
        assert code == 2
        assert out == ""
        assert err == "error: claims suite takes each n once, got 6 10 6\n"

    def test_n6_passes_and_is_deterministic(self, capsys):
        code, first, _ = run_cli(capsys, "verify-claims", "6", "--no-timing")
        assert code == 0
        report = json.loads(first)
        assert report["overall_pass"] is True
        assert "timing" not in report
        code, second, _ = run_cli(capsys, "verify-claims", "6", "--no-timing")
        assert code == 0
        assert first == second

    def test_report_contains_discrepancy_records(self, claims6_run):
        _, out = claims6_run
        by_id = {rec["id"]: rec for rec in json.loads(out)["claims"]}
        antipode = by_id["bsq6-antipode-distance"]
        assert antipode["informational"] and antipode["computed"] == 4
        witness = by_id["ssq6-eccentric-witness-distance"]
        assert witness["informational"] and witness["computed"] == 3

    def test_json_file_output(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify-claims", "6", "--json", str(target), "--no-timing")
        assert code == 0
        assert json.loads(target.read_text())["overall_pass"] is True
        assert "overall: PASS" in out

    def test_unwritable_json_path_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "verify-claims", "6", "--json", str(target), "--no-timing")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "report.json" in err

    def test_timing_section_present_by_default(self, capsys):
        _, out, _ = run_cli(capsys, "verify-claims", "6")
        report = json.loads(out)
        assert list(report["timing"]) == [rec["id"] for rec in report["claims"]]

    def test_matches_golden_n6(self, claims6_run):
        golden = pathlib.Path(__file__).parent / "data" / "claims_n6.json"
        assert claims6_run[1] == golden.read_text()


REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv,lines",
    [
        (
            ["diameter_scan.py", "2", "6"],
            [
                "SSQ_6: diameter 4 (exhaustive), closed form 4, ecc(0) = 4 attained at 110010, 110110, 111010",
                "  vertex 110111 sits at distance 3",
                "  all-ones vertex 111111 sits at distance 4",
            ],
        ),
        (["neighborhood_census.py", "--n", "6"], ["BSQ_6: 0 same-neighborhood pairs, 32 bit-(4j+1) pairs"]),
    ],
    ids=["diameter_scan", "neighborhood_census"],
)
def test_script_runs(argv, lines):
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    script, *args = argv
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert all(line in out for line in lines), proc.stdout


# The exit-code contract: 0 success, 1 a failed validation, 2 a usage or I/O
# error, and never a traceback.  {dir} is a directory holding "open.txt", a
# two-vertex path that is no cycle, and "bad.txt", with a non-binary vertex.
CONTRACT = [
    ("generate --kind ssq --n 6", 0),
    ("generate --kind xyz --n 6", 2),
    ("generate --kind bh --n 6", 2),
    ("generate --kind ssq --n 7", 2),
    ("generate --kind ssq --n -2", 2),
    ("generate --kind ssq --n six", 2),
    ("generate --kind q --n 22", 2),
    ("analyze --kind ssq --n 6 --checks girth", 0),
    ("analyze --kind bh --n 6", 2),
    ("analyze --kind ssq --n 6 --checks=", 2),
    ("analyze --kind ssq --n 6 --checks=,", 2),
    ("analyze --kind ssq --n 6 --checks girth,bogus", 2),
    ("analyze --kind ssq --n 3", 2),
    ("analyze --kind sq --n 22", 2),
    ("route --kind bsq --n 6 --from 000000 --to 111111", 0),
    ("route --kind bh --n 6 --from 000000 --to 000001", 2),
    ("route --kind q --n 6 --from 000000 --to 000001", 2),
    ("route --kind ssq --n 6 --from 0000000 --to 000000", 2),
    ("route --kind ssq --n 6 --from 00000x --to 000000", 2),
    ("route --kind ssq --n 6 --from 010000 --to 000000", 2),
    ("route --kind ssq --n -2 --from 00 --to 00", 2),
    ("route --kind ssq --n 6 --from 000000 --to 000000 --skip-check", 2),
    ("route --kind bsq --n 22 --from " + "0" * 22 + " --to " + "1" * 22, 0),
    ("hamiltonian emit --kind ssq --n 6", 0),
    ("hamiltonian emit --kind xyz --n 6", 2),
    ("hamiltonian emit --kind q --n 6", 2),
    ("hamiltonian emit --kind bh --n 6", 2),
    ("hamiltonian emit --kind bsq --n 5", 2),
    ("hamiltonian emit --kind bsq --n 22", 2),
    ("hamiltonian emit --kind ssq --n 10 --fixture h1", 2),
    ("hamiltonian validate --kind bsq --n 6 --fixture h2", 0),
    ("hamiltonian validate --kind bsq --n 6 --input {dir}/open.txt", 1),
    ("hamiltonian validate --kind bsq --n 6", 2),
    ("hamiltonian validate --kind bsq --n 6 --input {dir}/missing.txt", 2),
    ("hamiltonian validate --kind bsq --n 6 --input {dir}/bad.txt", 2),
    ("hamiltonian validate --kind bh --n 6 --input {dir}/open.txt", 2),
    ("hamiltonian validate --kind bsq --n 22 --input {dir}/open.txt", 2),
    ("verify-claims", 2),
    ("verify-claims x", 2),
    ("verify-claims -6", 2),
    ("verify-claims 7", 2),
    ("verify-claims 18", 2),
    ("verify-claims 6 6", 2),
]


@pytest.mark.parametrize("argv,expected", CONTRACT, ids=[argv for argv, _ in CONTRACT])
def test_exit_code_contract(capsys, tmp_path, argv, expected):
    (tmp_path / "open.txt").write_text("000000\n000001\n")
    (tmp_path / "bad.txt").write_text("000000\n0000x0\n")
    try:
        code = main([arg.format(dir=tmp_path) for arg in argv.split()])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    assert bool(err) == (expected == 2)
