"""Command-line interface behaviour and exit codes."""

import os
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

from plexcount.cli import main
from plexcount.counting import plex_count
from plexcount.cycle_index import CycleIndex, cycle_index_subset_action, subset_action_terms
from plexcount.golden import load_golden
from plexcount.partitions import partitions_of, permutation_count
from plexcount.render import parse_structured, render_latex, render_plain


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_count_command(capsys):
    code, out = run(capsys, "count", "--p", "8", "--n", "1")
    assert code == 0
    assert out == "12346\n"


def test_count_command_big_value(capsys):
    code, out = run(capsys, "count", "--p", "9", "--n", "3")
    assert code == 0
    assert out == "234431745534048922731115555415680\n"


def test_count_command_past_the_int_to_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "count", "--p", "26", "--n", "3", "--limit", "26")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    digits = out.strip()
    assert digits.isdigit() and len(digits) > limit
    # Decimal reads any number of digits, so the check needs no raised limit
    assert int(Decimal(digits)) == plex_count(26, 3)
    assert run(capsys, "count", "--p", "26", "--n", "3")[0] == 2
    assert sys.get_int_max_str_digits() == limit


def test_poly_command(capsys):
    code, out = run(capsys, "poly", "--p", "4", "--n", "1")
    assert code == 0
    assert out.splitlines() == [
        "p=4 n=1 degree=6",
        "0: 1", "1: 1", "2: 2", "3: 3", "4: 2", "5: 1", "6: 1",
        "total: 11"]


def test_poly_command_degenerate(capsys):
    code, out = run(capsys, "poly", "--p", "2", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["p=2 n=3 degree=0", "0: 1", "total: 1"]


def test_table_command_matches_reference(capsys):
    code, out = run(capsys, "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["p", "n=1", "n=2", "n=3"]
    counts = load_golden().counts
    assert len(lines) == 10
    for line in lines[1:]:
        p, *values = line.split()
        assert [int(v) for v in values] == [counts[(int(p), n)] for n in (1, 2, 3)]


def test_table_command_small(capsys):
    code, out = run(capsys, "table", "--max-p", "1", "--max-n", "1")
    assert code == 0
    assert [line.split() for line in out.splitlines()] == [["p", "n=1"], ["1", "1"]]


def test_cycle_index_plain(capsys):
    code, out = run(capsys, "cycle-index", "--p", "3", "--r", "1")
    assert code == 0
    assert out == "1/6 * (\n    a1^3\n  + 3 a1 a2\n  + 2 a3\n)\n"


def test_cycle_index_latex_contains_published_terms(capsys):
    code, out = run(capsys, "cycle-index", "--p", "6", "--r", "3", "--format", "latex")
    assert code == 0
    for piece in ("a_1^{20}", "15 a_1^8 a_2^6", "45 a_1^4 a_2^8", "80 a_1^2 a_3^6",
                  "120 a_1^2 a_3^2 a_6^2", "15 a_2^{10}", "180 a_2^2 a_4^4",
                  "120 a_2 a_6^3", "144 a_5^4"):
        assert piece in out
    assert out.count("+") == 8


def test_cycle_index_json_like_roundtrip(capsys):
    code, out = run(capsys, "cycle-index", "--p", "7", "--r", "3",
                    "--format", "json-like")
    assert code == 0
    assert parse_structured(out) == cycle_index_subset_action(7, 3)


def test_cycle_index_unmerged_json_like_merges_back(capsys):
    code, out = run(capsys, "cycle-index", "--p", "6", "--r", "3",
                    "--format", "json-like", "--unmerged")
    assert code == 0
    assert parse_structured(out) == cycle_index_subset_action(6, 3)
    assert out.count("\"source\"") == 11


def test_cycle_index_r1_matches_symmetric_group(capsys):
    _, out = run(capsys, "cycle-index", "--p", "5", "--r", "1",
                 "--format", "json-like")
    symmetric = {j: permutation_count(j) for j in partitions_of(5)}
    assert parse_structured(out) == CycleIndex(symmetric, 120, 5)


def test_cycle_index_complement_same_terms(capsys):
    _, first = run(capsys, "cycle-index", "--p", "7", "--r", "3")
    _, second = run(capsys, "cycle-index", "--p", "7", "--r", "4")
    assert Counter(first.splitlines()[1:-1]) == Counter(second.splitlines()[1:-1])


def test_usage_errors_exit_2(capsys):
    assert main(["count", "--p", "3"]) == 2            # missing --n
    capsys.readouterr()
    assert main(["count", "--p", "0", "--n", "1"]) == 2
    capsys.readouterr()
    assert main(["count", "--p", "3", "--n", "0"]) == 2
    capsys.readouterr()
    assert main(["cycle-index", "--p", "3", "--r", "4"]) == 2
    capsys.readouterr()
    assert main(["cycle-index", "--p", "13", "--r", "2"]) == 2  # over the ceiling
    capsys.readouterr()
    assert main(["table", "--max-p", "13"]) == 2
    capsys.readouterr()
    assert main(["verify", "--scope", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_guards_exit_2_before_computing(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError(f"computation called with {args} past a guard")

    for name in ("plex_count", "plex_polynomial", "cycle_index_subset_action",
                 "subset_action_terms"):
        monkeypatch.setattr(f"plexcount.cli.{name}", fail)
    for argv, message in (
            (["count", "--p", "x", "--n", "1"], "argument --p: invalid"),
            (["count", "--p", "\u0669", "--n", "3"], "argument --p: invalid"),
            (["count", "--p", "1_0", "--n", "1", "--limit", "10"], "argument --p: invalid"),
            (["poly", "--p", "+9", "--n", "1"], "argument --p: invalid"),
            (["poly", "--p", "3", "--n", " 9"], "argument --n: invalid"),
            (["cycle-index", "--p", "3", "--r", "2", "--limit", "1_2"],
             "argument --limit: invalid"),
            (["table", "--max-p", "3", "--limit", "0"], "argument --limit: must be >= 1, got 0"),
            (["poly", "--p", "3", "--n", "-1"], "argument --n: must be >= 1, got -1"),
            (["table", "--max-p", "0"], "argument --max-p: must be >= 1, got 0"),
            (["cycle-index", "--p", "3", "--r", "0"], "argument --r: must be >= 1, got 0"),
            (["cycle-index", "--p", "3", "--r", "4", "--unmerged"],
             "r must satisfy 1 <= r <= p, got r=4"),
            (["poly", "--p", "13", "--n", "1"],
             "p=13 exceeds the ceiling 12 (use --limit to raise it)"),
            (["cycle-index", "--p", "8", "--r", "2", "--limit", "7"],
             "p=8 exceeds the ceiling 7 (use --limit to raise it)"),
            (["cycle-index", "--p", "4", "--r", "2", "--format", "json-like", "--var", "y"],
             "--var applies only to plain and latex output")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_table_max_n_over_ceiling_exits_2_without_computing(capsys, monkeypatch):
    def fail(p, n):
        raise AssertionError(f"plex_count({p}, {n}) called past the guardrail")

    monkeypatch.setattr("plexcount.cli.plex_count", fail)
    assert main(["table", "--max-p", "2", "--max-n", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max-n=13 exceeds the ceiling 12 (use --limit to raise it)" in captured.err


def test_limit_flag_raises_ceiling(capsys):
    code, out = run(capsys, "count", "--p", "13", "--n", "1", "--limit", "13")
    assert code == 0
    assert out.strip().isdigit()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_verify_table_scope(capsys):
    code, out = run(capsys, "verify", "--scope", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "27/27 checks passed"
    assert all(line.startswith("PASS count p=") for line in lines[:-1])


def test_verify_formulas_scope_reports_misprint(capsys):
    code, out = run(capsys, "verify", "--scope", "formulas")
    assert code == 0
    assert "7/7 checks passed" in out
    assert "PASS formula p=8 r=4: known misprint" in out
    assert "computed 3360 a1^2 a4^2 a6^2 a12^4" in out
    assert "published 3360 a1^2 a4^2 a6^2 (degree 22, expected 70)" in out


def test_verify_oracle_scope(capsys):
    code, out = run(capsys, "verify", "--scope", "oracle")
    assert code == 0
    assert out.splitlines()[-1].endswith("checks passed")
    assert "FAIL" not in out


def test_var_letter_in_plain_and_latex(capsys):
    index = cycle_index_subset_action(5, 2)
    for fmt, render in (("plain", render_plain), ("latex", render_latex)):
        for extra, unmerged in (([], None), (["--unmerged"], subset_action_terms(5, 2))):
            argv = ["cycle-index", "--p", "5", "--r", "2", "--format", fmt, *extra]
            for var, letter in (([], "a"), (["--var", "a"], "a"), (["--var", "y"], "y")):
                code, out = run(capsys, *argv, *var)
                assert code == 0
                assert out == render(index, var=letter, unmerged=unmerged) + "\n"


def test_output_deterministic(capsys):
    for argv in (["cycle-index", "--p", "8", "--r", "3", "--format", "latex"],
                 ["poly", "--p", "6", "--n", "2"],
                 ["table", "--max-p", "7"]):
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second


def test_import_loads_only_the_standard_library():
    # a fresh interpreter, so modules that other tests imported do not count;
    # the second list holds standard modules that are slow to import
    # (dataclasses pulls in inspect and, through it, ast, dis and tokenize)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys; before = set(sys.modules); import plexcount, plexcount.cli; "
             "print(sorted({name.partition('.')[0] for name in sys.modules} "
             "- before - sys.stdlib_module_names - {'plexcount'}), "
             "sorted(set(sys.modules) & {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[] []\n"
