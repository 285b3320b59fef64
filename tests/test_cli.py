import argparse
import json
import re
from pathlib import Path

import pytest

from polysolve.cli import _build_parser, main
from polysolve.sysfile import parse_system


WORKED = "p = 7\nvars = x, y\nx - y^2\ny^3 - 2\n"
# the keys, in order, of the solve --json stats and of each bench --json row
STATS_KEYS = ["n", "D", "pipeline", "gb_time", "matrix_time", "chord_time",
              "nf_count", "density", "total_time", "retries", "restarts"]


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "system.txt"
    path.write_text(WORKED)
    return str(path)


def test_gb_prints_a_reparseable_system(worked_file, capsys):
    assert main(["gb", worked_file]) == 0
    out = capsys.readouterr().out
    parsed = parse_system(out)
    assert parsed.field.p == 7
    assert len(parsed.polys) == 3   # DRL basis {y^2-x, xy+5, x^2+5y}


def test_gb_lex_order(worked_file, capsys):
    assert main(["gb", worked_file, "--order", "lex"]) == 0
    out = capsys.readouterr().out
    assert "y^3 + 5" in out
    assert "6*y^2 + x" in out       # DRL-descending printing of x - y^2


def test_solve_deterministic_human_output(worked_file, capsys):
    assert main(["solve", worked_file, "--det"]) == 0
    out = capsys.readouterr().out
    assert "pipeline: deterministic" in out
    assert "x = y^2 ; y^3 = 2" in out
    assert "n = 2, D = 3, p = 7" in out
    assert "rational solutions: none in the base field" in out


def test_solve_lasvegas_human_output(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("p = 7\nvars = x, y\nx - y\ny^2 - y\n")
    assert main(["solve", str(path), "--lv", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "pipeline: las_vegas" in out
    assert "change of variables g" in out
    assert "rational solutions: (0, 0), (1, 1)" in out


def test_solve_json_schema(worked_file, capsys):
    assert main(["solve", worked_file, "--det", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pipeline"] == "deterministic"
    assert payload["p"] == 7
    assert payload["vars"] == ["x", "y"]
    assert payload["rep"]["parametrizations"] == [[0, 0, 1]]
    assert payload["rep"]["minimal_polynomial"] == [5, 0, 0, 1]
    assert payload["g"] is None
    assert payload["solutions"] == []
    stats = payload["stats"]
    assert stats["n"] == 2 and stats["D"] == 3
    assert list(stats) == STATS_KEYS


def test_solve_lv_json_carries_transform(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("p = 7\nvars = x, y\nx - y\ny^2 - y\n")
    assert main(["solve", str(path), "--lv", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pipeline"] == "las_vegas"
    g = payload["g"]
    assert len(g) == 2 and len(g[0]) == 2
    assert sorted(map(tuple, payload["solutions"])) == [(0, 0), (1, 1)]


def test_matrices_summary(worked_file, capsys):
    assert main(["matrices", worked_file, "--summary"]) == 0
    out = capsys.readouterr().out
    assert "D = 3" in out
    assert "frontier size 3" in out
    assert "type-II members 0" in out
    assert "T_x density" in out and "T_y density" in out


def test_matrices_full_printout(worked_file, capsys):
    for method in ("fglm", "echelon"):
        assert main(["matrices", worked_file, "--method", method]) == 0
        out = capsys.readouterr().out
        assert "T_y:" in out and "T_x:" in out
        assert "0 0 2" in out


def test_matrices_free_method(worked_file, capsys):
    assert main(["matrices", worked_file, "--method", "free", "--summary"]) == 0
    out = capsys.readouterr().out
    assert "method free: computed normal forms 0" in out
    assert "T_y density" in out


def test_bench_table(capsys):
    assert main(["bench", "appendix", "--n", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "deterministic" in out and "las_vegas" in out
    assert " 8 " in out   # D = 2^3


def test_bench_json(capsys):
    assert main(["bench", "appendix", "--n", "3", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["pipeline"] for r in rows] == ["deterministic", "las_vegas"]
    assert all(list(r) == STATS_KEYS for r in rows)
    assert all(r["D"] == 8 for r in rows)
    det, lv = rows
    assert det["nf_count"] == 3    # 2^(3-1) - 1
    assert lv["nf_count"] == 0


def test_probbound_output(capsys):
    assert main(["probbound", "--n", "2", "--q", "65521", "--degrees", "2,2"]) == 0
    out = capsys.readouterr().out
    assert "65497/65521" in out
    assert "characteristic condition q > 3: satisfied" in out


def test_solve_at_largest_modulus_omits_root_scan(tmp_path, capsys):
    # p = 2^31 - 1 is past the root-scan budget: no solutions are listed
    path = tmp_path / "big.txt"
    path.write_text("p = 2147483647\nvars = x, y\nx - y^2 - 3\ny^3 - 2*y + 5\n")
    assert main(["solve", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == 2 ** 31 - 1
    assert payload["solutions"] is None
    assert len(payload["rep"]["minimal_polynomial"]) == 4
    assert main(["solve", str(path), "--lv"]) == 0
    out = capsys.readouterr().out
    assert "pipeline: las_vegas" in out
    assert "rational solutions:" not in out


def test_exit_code_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("p = 7\nvars = x\nx + + 1\n")
    assert main(["gb", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gb", "solve"])
@pytest.mark.parametrize("text", ["p = 7\u00b2\nvars = x\nx\n", "p = 7\nvars = x\nx^\u00b2\n",
                                  "p = 7\nvars = x\n2\u00b2*x\n"],
                         ids=["modulus", "exponent", "coefficient"])
def test_exit_code_unicode_digit(tmp_path, capsys, command, text):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "column" in err and "Traceback" not in err


def test_exit_code_missing_file(capsys):
    assert main(["gb", "/nonexistent/system.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_non_prime(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("p = 6\nvars = x\nx\n")
    assert main(["solve", str(path)]) == 2


def test_exit_code_not_zero_dimensional(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_text("p = 7\nvars = x, y\nx*y\n")
    assert main(["solve", str(path)]) == 2
    assert main(["matrices", str(path)]) == 2


@pytest.mark.parametrize("text, cause", [
    ("x - 1\nx - 2\n", "the ideal contains 1; the system has no solutions"),
    ("x^2\nx*y\n", "y has no pure-power leading term")])
def test_not_zero_dimensional_names_one_cause(tmp_path, capsys, text, cause):
    # solve and matrices stop at the same check, with the same message
    path = tmp_path / "system.txt"
    path.write_text("p = 7\nvars = x, y\n" + text)
    for command in ("solve", "matrices"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {cause}\n"


def test_exit_code_not_shape_position(tmp_path, capsys):
    path = tmp_path / "nsp.txt"
    path.write_text("p = 7\nvars = x, y\nx^2 - y\ny^2 - 1\n")
    assert main(["solve", str(path), "--det"]) == 2
    # the Las Vegas route handles the same input
    assert main(["solve", str(path), "--lv"]) == 0


def test_exit_code_exhausted_restarts(tmp_path, capsys):
    path = tmp_path / "fat.txt"
    path.write_text("p = 101\nvars = x, y\nx^2\ny^2\n")
    assert main(["solve", str(path), "--lv", "--max-restarts", "2"]) == 3


def test_exit_code_out_of_memory(worked_file, capsys, monkeypatch):
    from polysolve import solver

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 32.0 GiB for an array")

    monkeypatch.setattr(solver, "solve_deterministic", exhausted)
    assert main(["solve", worked_file]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 32.0 GiB for an array\n"


def test_exit_code_exponent_overflow(tmp_path, capsys):
    # the S-pair of these two needs x^65535 * x; the pair loop refuses it
    path = tmp_path / "high.txt"
    path.write_text("p = 7\nvars = x, y\nx^65000*y^600 + x^65535*y^64\nx^65001\n")
    assert main(["gb", str(path)]) == 2
    assert capsys.readouterr().err == "error: exponent above 65535\n"


def test_exit_code_free_read_names_the_monomial(tmp_path, capsys):
    path = tmp_path / "dense.txt"
    path.write_text("p = 65521\nvars = x, y, z\nx^2 + 3*y*z + 2*x + 5\n"
                    "y^2 + 7*x*z + y + 1\nz^2 + 11*x + 13*z + 2\n")
    assert main(["matrices", str(path), "--method", "free"]) == 2
    assert capsys.readouterr().err == ("error: column monomial y*z^2 is neither standard "
                                       "nor a leading term\n")


@pytest.mark.parametrize("argv", [
    ["probbound", "--n", "2", "--q", "101", "--degrees", "2"],
    ["probbound", "--n", "2", "--q", "101", "--degrees", "2,x"],
    ["probbound", "--n", "2", "--q", "0", "--degrees", "2,2"],
    ["probbound", "--n", "0", "--q", "101", "--degrees", ""],
    ["probbound", "--n", "-1", "--q", "101", "--degrees", "2"],
    ["probbound", "--n", "2", "--q", "101", "--degrees", "0,2"],
    ["probbound", "--n", "2", "--q", "101", "--degrees", "2,-3"],
    ["probbound", "--n", "2", "--q", "101", "--degrees", "2,2", "--dim", "-1"],
    ["probbound", "--n", "2", "--q", "101", "--degrees", "2,2", "--dim", "0"],
    ["bench", "appendix", "--n", "0"],
    # checked before the (absent) file is read
    ["solve", "absent.txt", "--lv", "--max-restarts", "-3"],
    ["solve", "absent.txt", "--max-restarts", "0"],
    ["--threads", "-3", "solve", "absent.txt"],
    ["--threads", "0", "solve", "absent.txt"],
])
def test_exit_code_bad_arguments(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _options(parser) -> set[str]:
    return {o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help")}


def test_readme_synopses_match_the_parser():
    # each synopsis line of README's command-line section, `polysolve ...` for
    # the global options and `<subcommand> ...` for each subcommand, names
    # exactly the options its parser has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser = _build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    synopses = dict(re.findall(r"^`(polysolve|%s) ([^`]*)`" % "|".join(subs), readme, re.M))
    assert set(synopses) == {"polysolve", *subs}
    for name, synopsis in synopses.items():
        want = _options(parser if name == "polysolve" else subs[name])
        assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == want, name
