import json

import pytest

from invgen import cli
from invgen.cli import main


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


def test_input_error_exit_code(capsys):
    code, data = run_json(capsys, "analyze", "NOSUCH")
    assert code == 3
    assert data["error"] == "input"


def test_bad_cycles_exit_code(capsys):
    code, data = run_json(capsys, "analyze", "--gens", "(1 2", "--degree", "3")
    assert code == 3


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
])
def test_bad_numbers_exit_before_any_work(capsys, monkeypatch, argv):
    def no_work(args):
        raise AssertionError("work started despite bad input")
    monkeypatch.setattr(cli, "_Run", no_work)
    code, data = run_json(capsys, *argv)
    assert code == 3
    assert data["error"] == "input"
    assert argv[-2] in data["reason"]


def test_sweep_with_no_rows_is_an_input_error(capsys):
    code, data = run_json(capsys, "sweep", "theorem1", "--max-order", "1")
    assert code == 3
    assert data["error"] == "input" and "no groups" in data["reason"]


def test_check_with_a_non_member_names_it(capsys):
    code, data = run_json(capsys, "invgen", "A5", "--check", "(1 2)")
    assert code == 3
    assert data["error"] == "input"
    assert data["reason"] == "(1 2) is not an element of A5"


def test_assertion_failure_is_a_result_not_a_traceback(capsys, monkeypatch):
    from invgen import structure

    def tripwire(G, cap):
        raise AssertionError("class 5a uncovered: incomplete search")
    monkeypatch.setattr(structure, "maximal_subgroups", tripwire)
    code, data = run_json(capsys, "analyze", "A5")
    assert code == cli.EXIT_ASSERTION
    assert data == {"error": "assertion",
                    "reason": "class 5a uncovered: incomplete search"}
