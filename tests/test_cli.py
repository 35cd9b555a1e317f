import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from invgen import cli, generation
from invgen.cli import main
from invgen.group import StabChain

SRC = Path(__file__).resolve().parent.parent / "src"
C2_7 = ";".join(f"({2 * i + 1} {2 * i + 2})" for i in range(7))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_analyze_a5(capsys):
    code, data = run_json(capsys, "analyze", "A5")
    assert code == 0
    assert data["order"] == 60
    vs = [(m["v"]["num"], m["v"]["den"]) for m in data["maximal_classes"]]
    assert vs == [(3, 5), (2, 3), (3, 5)]
    assert data["nilpotent"] is False


def test_analyze_c6_nilpotent(capsys):
    code, data = run_json(capsys, "analyze", "C6")
    assert code == 0 and data["nilpotent"] is True


def test_analyze_inline_generators(capsys):
    code, data = run_json(capsys, "analyze", "--gens",
                          "(1 2 3 4 5);(1 2 3)", "--degree", "5")
    assert code == 0 and data["order"] == 60


def test_invgen_di(capsys):
    code, data = run_json(capsys, "invgen", "A5", "--di")
    assert code == 0
    assert data["d_i"] == 2
    assert data["bounds"]["k_g"] == 5
    assert data["bounds"]["cyclic_classes"] == 4
    assert data["bounds"]["a_plus_2b"] == 2


def test_invgen_check_classes(capsys):
    code, data = run_json(capsys, "invgen", "A5", "--check", "5a,5b")
    assert code == 0
    assert data["check"]["invariably_generates"] is False


def test_invgen_check_elements(capsys):
    code, data = run_json(capsys, "invgen", "A5", "--check",
                          "(1 2 3),(1 2 3 4 5)")
    assert code == 0
    assert data["check"]["invariably_generates"] is True


def test_invgen_fused(capsys):
    code, data = run_json(capsys, "invgen", "A5", "--fuse", "S5", "--di")
    assert code == 0
    assert data["d_i"] == 2
    assert "5a+5b" in data["rows"]


def test_chebotarev_exact(capsys):
    code, data = run_json(capsys, "chebotarev", "A5", "--exact")
    assert code == 0
    assert data["c_exact"] == {"num": 91, "den": 22}
    assert data["c_decimal"].startswith("4.136")


def test_chebotarev_c2(capsys):
    code, data = run_json(capsys, "chebotarev", "C2", "--exact")
    assert code == 0 and data["c_exact"] == {"num": 2, "den": 1}


def test_chebotarev_mc_reproducible(capsys):
    code1, d1 = run_json(capsys, "chebotarev", "A5", "--mc",
                         "--trials", "2000", "--seed", "7")
    code2, d2 = run_json(capsys, "chebotarev", "A5", "--mc",
                         "--trials", "2000", "--seed", "7")
    assert code1 == code2 == 0
    assert d1["mc"] == d2["mc"]
    assert abs(d1["mc"]["mean"] - 91 / 22) < 4 * d1["mc"]["se"] + 1e-9


def test_cap_exit_code(capsys):
    code, data = run_json(capsys, "analyze", "A5", "--lattice-cap", "50")
    assert code == 2
    assert data["error"] == "cap-exceeded"


def test_chain_cap_exit_code(capsys):
    # C2^7's exact chain would walk 3.7 million transitions
    code, data = run_json(capsys, "chebotarev", "--gens", C2_7,
                          "--degree", "14")
    assert code == cli.EXIT_CAP
    assert data["error"] == "cap-exceeded"
    assert "200000 transitions" in data["reason"]


def test_input_error_exit_code(capsys):
    code, data = run_json(capsys, "analyze", "NOSUCH")
    assert code == 3
    assert data["error"] == "input"


def test_bad_cycles_exit_code(capsys):
    code, data = run_json(capsys, "analyze", "--gens", "(1 2", "--degree", "3")
    assert code == 3


def test_non_ascii_digit_points_exit_code(capsys):
    # int() would read "1_2" as 12
    code, data = run_json(capsys, "analyze", "--gens", "(1_2 3)",
                          "--degree", "12")
    assert code == cli.EXIT_INPUT
    assert data == {"error": "input",
                    "reason": "malformed cycle notation: '(1_2 3)'"}


@pytest.mark.parametrize("argv, reason", [
    (("analyze",), "give a catalog group name or --gens/--degree"),
    (("analyze", "--gens", "(1 2)"), "--gens requires --degree"),
])
def test_missing_group_is_an_input_error(capsys, argv, reason):
    code, data = run_json(capsys, *argv)
    assert code == cli.EXIT_INPUT
    assert data == {"error": "input", "reason": reason}


@pytest.mark.parametrize("make", [lambda tmp: tmp,
                                  lambda tmp: tmp / "no-such-catalog.txt"])
def test_unreadable_catalog_is_an_input_error(capsys, tmp_path, make):
    # a directory or a missing file, not a traceback with exit 1
    path = make(tmp_path)
    code, data = run_json(capsys, "analyze", "A5", "--catalog", str(path))
    assert code == cli.EXIT_INPUT
    assert data["error"] == "input" and str(path) in data["reason"]


def test_degree_past_the_chain_bound_exit_code(capsys):
    code, data = run_json(capsys, "analyze", "--gens", "(1 2)",
                          "--degree", "257")
    assert code == 3 and data["error"] == "input"
    assert "degree 257" in data["reason"] and "256 points" in data["reason"]


def test_table_format(capsys):
    code, out = run_cli(capsys, "analyze", "C6", "--format", "table")
    assert code == 0
    assert "order: 6" in out


def test_sweep_theorem1_small(capsys):
    code, data = run_json(capsys, "sweep", "theorem1", "--max-order", "200")
    assert code == 0
    assert data["violations"] == 0
    eq = {r["group"] for r in data["rows"] if r["equality"]}
    assert eq == {"C2", "C2^2", "C2^3", "C2^4"}


def test_sweep_lemma23_small(capsys):
    code, data = run_json(capsys, "sweep", "lemma23", "--max-order", "130")
    assert code == 0 and data["violations"] == 0


def _c2_7_catalog(tmp_path):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text(f"C2^7 | 14 | {C2_7} | 128 | abelian\n")
    return str(catalog)


def test_sweep_lemma23_holds_the_chain_cap(capsys, tmp_path):
    code, data = run_json(capsys, "sweep", "lemma23",
                          "--catalog", _c2_7_catalog(tmp_path))
    assert code == cli.EXIT_CAP and data["error"] == "cap-exceeded"
    assert "200000 transitions" in data["reason"]


def test_sweep_theorem2_falls_back_to_monte_carlo(capsys, tmp_path):
    # past the chain bound C(G) is estimated, and the sweep still passes
    code, out = run_cli(capsys, "sweep", "theorem2",
                        "--catalog", _c2_7_catalog(tmp_path))
    data = json.loads(out, parse_constant=_no_nan)
    assert code == cli.EXIT_OK and data["violations"] == 0
    assert [r["group"] for r in data["rows"]] == ["C2^7"]


def test_sweep_theorem1_checks_the_chief_bound(capsys, monkeypatch):
    # a report that breaks only d_I <= a + 2b must fail the sweep
    check = generation.chief_bound_check

    def past_the_chief_bound(G, cap):
        return dataclasses.replace(check(G, cap=cap),
                                   within_chief_bound=False)
    monkeypatch.setattr(generation, "chief_bound_check", past_the_chief_bound)
    code, data = run_json(capsys, "sweep", "theorem1", "--max-order", "12")
    assert code == cli.EXIT_ASSERTION
    assert data["violations"] == len(data["rows"]) > 0


def test_sweep_prop24_small(capsys):
    code, data = run_json(capsys, "sweep", "prop24", "--max-order", "130")
    assert code == 0 and data["violations"] == 0
    for row in data["rows"]:
        assert row["nilpotent"] == (not row["counterexample"])


@pytest.mark.parametrize("argv", [
    ("sweep", "families", "--trials", "-5"),
    ("sweep", "families", "--trials", "0"),
    ("chebotarev", "A5", "--mc", "--trials", "0"),
    ("sweep", "prop24", "--seed", "-1"),
    ("chebotarev", "A5", "--mc", "--seed", "-2"),
    ("sweep", "theorem1", "--max-order", "0"),
    ("sweep", "lemma23", "--max-order", "-3"),
    ("analyze", "A5", "--lattice-cap", "-5"),
    ("sweep", "theorem2", "--lattice-cap", "0"),
    ("analyze", "--gens", "(1 2)", "--degree", "0"),
])
def test_bad_numbers_exit_before_any_work(capsys, monkeypatch, argv):
    def no_work(args):
        raise AssertionError("work started despite bad input")
    monkeypatch.setattr(cli, "_Run", no_work)
    code, data = run_json(capsys, *argv)
    assert code == 3
    assert data["error"] == "input"
    assert f"{argv[-2]} must be >=" in data["reason"]


@pytest.mark.parametrize("argv, words", [
    (("sweep", "bogus"), "invalid choice: 'bogus'"),
    (("chebotarev", "A5", "--trials", "abc"), "invalid int value: 'abc'"),
    (("analyze", "A5", "--no-such-flag"), "unrecognized arguments"),
    (("analyze", "A5", "--enum-cap", "10"),
     "unrecognized arguments: --enum-cap 10"),
    (("chebotarev", "A5", "--subset-cap", "-1"),
     "unrecognized arguments: --subset-cap -1"),
])
def test_usage_errors_are_input_errors(capsys, argv, words):
    # argparse would exit 2, which is the cap code
    code, data = run_json(capsys, *argv)
    assert code == cli.EXIT_INPUT
    assert data["error"] == "input" and words in data["reason"]


def test_exact_and_mc_together_are_an_input_error(capsys):
    code, data = run_json(capsys, "chebotarev", "A5", "--exact", "--mc")
    assert code == cli.EXIT_INPUT
    assert data["error"] == "input" and "not allowed with" in data["reason"]


def test_sweep_with_no_rows_is_an_input_error(capsys):
    code, data = run_json(capsys, "sweep", "theorem1", "--max-order", "1")
    assert code == 3
    assert data["error"] == "input" and "no groups" in data["reason"]


def test_fusing_under_s0_is_an_input_error(capsys):
    code, data = run_json(capsys, "invgen", "C2", "--fuse", "S0")
    assert code == cli.EXIT_INPUT
    assert data == {"error": "input", "reason": "n must be >= 1"}


def _no_nan(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("suite", ["theorem1", "theorem2", "prop24",
                                   "lemma23"])
def test_catalog_sweeps_pass_the_trivial_group(capsys, tmp_path, suite):
    # d_I(1) = 0 = log2 1 with 1 elementary abelian of rank 0, and C(1) = 0
    # meets any bound; sqrt(1 ln 1) = 0 leaves the ratio out, not NaN
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("C1 | 1 | () | 1 | abelian\n"
                       "C2 | 2 | (1 2) | 2 | nilpotent\n")
    code, out = run_cli(capsys, "sweep", suite, "--catalog", str(catalog))
    data = json.loads(out, parse_constant=_no_nan)
    assert code == cli.EXIT_OK and data["violations"] == 0
    assert [r["group"] for r in data["rows"]] == ["C1", "C2"]
    if suite == "theorem1":
        assert data["rows"][0]["equality"]
    if suite == "theorem2":
        assert data["rows"][0]["ratio_sqrt_log"] is None


def test_check_with_a_non_member_names_it(capsys):
    code, data = run_json(capsys, "invgen", "A5", "--check", "(1 2)")
    assert code == 3
    assert data["error"] == "input"
    assert data["reason"] == "(1 2) is not an element of A5"


def test_unknown_group_name_is_quoted_once(capsys):
    code, data = run_json(capsys, "chebotarev", "C1")
    assert code == cli.EXIT_INPUT
    assert data == {"error": "input",
                    "reason": "no catalog entry named 'C1'"}


def test_assertion_failure_is_a_result_not_a_traceback(capsys, monkeypatch):
    from invgen import structure

    def tripwire(G, cap):
        raise AssertionError("class 5a uncovered: incomplete search")
    monkeypatch.setattr(structure, "maximal_subgroups", tripwire)
    code, data = run_json(capsys, "analyze", "A5")
    assert code == cli.EXIT_ASSERTION
    assert data == {"error": "assertion",
                    "reason": "class 5a uncovered: incomplete search"}


def test_cap_environment_variables_are_ignored(capsys, monkeypatch):
    # the lattice cap is set by its flag alone; neither variable is read
    monkeypatch.setenv("INVGEN_LATTICE_CAP", "10")
    monkeypatch.setenv("INVGEN_SUBSET_CAP", "abc")
    code, data = run_json(capsys, "analyze", "A5")
    assert code == cli.EXIT_OK and data["order"] == 60


@pytest.mark.parametrize("command", ["analyze", "invgen", "chebotarev"])
def test_element_table_bound_holds_past_a_raised_lattice_cap(
        capsys, monkeypatch, command):
    # S9 (order 362,880) passes the lattice cap given here, but not the
    # fixed element-table bound, which raises before any enumeration
    def no_enumeration(chain):
        raise AssertionError("the chain was enumerated")
    monkeypatch.setattr(StabChain, "enumerate", no_enumeration)
    code, data = run_json(capsys, command, "--gens",
                          "(1 2);(1 2 3 4 5 6 7 8 9)", "--degree", "9",
                          "--lattice-cap", "400000")
    assert code == cli.EXIT_CAP and data["error"] == "cap-exceeded"
    assert "200000" in data["reason"]


def test_chief_series_past_256_coset_points(capsys):
    # C2 x A6: its chief series is read off its own element table, so the
    # 360 cosets of C2 need no permutation group of their own
    gens = ("--gens", "(1 2 3);(2 3 4 5 6);(7 8)", "--degree", "8")
    code, data = run_json(capsys, "analyze", *gens)
    assert code == cli.EXIT_OK
    assert data["chief_series"] == [{"order": 2, "abelian": True},
                                    {"order": 360, "abelian": False}]
    code, data = run_json(capsys, "invgen", *gens, "--di")
    assert code == cli.EXIT_OK
    assert data["d_i"] == 2 and data["bounds"]["a_plus_2b"] == 3


def test_closed_stdout_exits_quietly():
    # a reader that stops early closes the pipe before the output is written
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-m", "invgen", "analyze", "A5"],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == cli.EXIT_OK
    assert err == b""
