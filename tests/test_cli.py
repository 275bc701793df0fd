"""The egc command line: output formats, exit codes, list parsing."""

import json
import os
import subprocess
import sys

import pytest

from egc import cli, perms, pipeline
from egc.cli import main, parse_ints, parse_range
from egc.perms import Permutation, code_of
from egc.pipeline import j_of_permutation
from egc.shapes import Partition
from egc.verify import verify_identities


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_helpers():
    assert parse_ints("") == ()
    assert parse_ints("3,-1,0") == (3, -1, 0)
    assert parse_range("-2:3") == (-2, 3)


def test_j_text(capsys):
    code, out, _ = run(capsys, "j", "--lambda", "2", "--phi", "1",
                       "--rho", "1")
    assert code == 0
    assert "β(y1⊖y2)" in out


def test_j_structural_zero(capsys):
    code, out, _ = run(capsys, "j", "--lambda", "1", "--phi", "0",
                       "--rho", "")
    assert code == 2
    assert "= 0" in out


def test_j_rho_not_contained_reports_q(capsys):
    # q depends on lambda alone, so a structural zero still reports it
    code, out, _ = run(capsys, "j", "--lambda", "1", "--phi", "1",
                       "--rho", "2", "--format", "json")
    payload = json.loads(out)
    assert code == 2
    assert (payload["nu"], payload["q"], payload["case"]) == (None, 1, "zero")


def test_j_json_metadata(capsys):
    code, out, _ = run(capsys, "j", "--lambda", "7,4,2,2,1",
                       "--phi", "-1,0,1,2,4", "--rho", "5,4,2,1,1",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["nu"] == [7, 4, 2, 1, 1]
    assert payload["normalization_beta_exp"] == 3
    assert payload["q"] == 2


def test_j_json_canonical_order(capsys):
    # in the order of factor types, then indices: Type 2 before Type 3,
    # within a monomial and between monomials
    code, out, _ = run(capsys, "j", "--lambda", "2,1", "--phi", "-3,-1",
                       "--rho", "2,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["monomials"] == [
        {"factors": [], "mult": 1},
        {"factors": [[-1, 0]], "mult": 1},
        {"factors": [[-1, 0], [1, -2]], "mult": 1},
        {"factors": [[1, -2]], "mult": 1}]


def test_j_leaves_no_halves_cached(capsys):
    """egc j computes one coefficient, then drops the halves it cached."""
    assert run(capsys, "j", "--lambda", "2,1", "--phi", "-3,-1", "--rho",
               "1")[0] == 0
    assert pipeline.j_plus.cache_info().currsize == 0
    assert pipeline.j_minus.cache_info().currsize == 0


def test_j_incompatible_flag(capsys):
    code, _, err = run(capsys, "j", "--lambda", "1,1", "--phi", "1,5",
                       "--rho", "1")
    assert code == 1 and "compatible" in err and "normalized" not in err


def test_j_normalizes_a_flag_with_a_compatible_normal_form(capsys):
    """142563's code flag (2,5,5) is incompatible with (2,1,1); egc j
    computes under its normal form (2,4,5), as j_of_permutation does, and
    shows the flag it used."""
    argv = ["j", "--lambda", "2,1,1", "--phi", "2,5,5", "--rho", "1"]
    expected = j_of_permutation(
        Permutation.from_one_line((1, 4, 2, 5, 6, 3), 1), Partition((1,)))
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "flag (2,5,5) normalized to (2,4,5)\n"
    assert out.splitlines() == [
        "beta^3 * j[lambda=(2, 1, 1) phi=(2, 4, 5) rho=(1,)] ="] \
        + ["  " + line for line in expected.text_lines()]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and "normalized" in err
    assert json.loads(out)["phi"] == [2, 4, 5]


def test_j_json_roundtrip_matches_text(capsys):
    code, text_out, _ = run(capsys, "j", "--lambda", "1,1",
                            "--phi", "-2,-1", "--rho", "1")
    assert code == 0 and "β(y-1⊖y0)" in text_out
    code, json_out, _ = run(capsys, "j", "--lambda", "1,1",
                            "--phi", "-2,-1", "--rho", "1",
                            "--format", "json")
    payload = json.loads(json_out)
    assert payload["monomials"] == [{"factors": [[-1, 0]], "mult": 1}]


def test_perm_oneline(capsys):
    code, out, _ = run(capsys, "perm", "--oneline", "3,4,5,1,6,2",
                       "--base", "1")
    assert code == 0
    assert "vexillary: True" in out
    assert "shape: [2, 2, 2, 1]" in out
    assert "flag: [3, 3, 3, 5]" in out


def test_perm_word_non_vexillary(capsys):
    code, out, _ = run(capsys, "perm", "--word", "1,2,-1,0")
    assert code == 0 and "vexillary: False" in out


@pytest.mark.parametrize("argv", [["--oneline", "3,4,5,1,6,2", "--base", "1"],
                                  ["--word", "1,2,-1,0"]],
                         ids=["vexillary", "not-vexillary"])
def test_perm_takes_two_code_passes(monkeypatch, capsys, argv):
    # the code of w and the code of w^-1, however much of the report
    # reads them
    calls = []

    def counted(w):
        calls.append(w)
        return code_of(w)

    monkeypatch.setattr(perms, "code_of", counted)
    monkeypatch.setattr(cli, "code_of", counted)
    code, out, _ = run(capsys, "perm", *argv)
    assert code == 0 and len(calls) == 2
    assert sorted(map(str, calls)) == sorted([str(calls[0]),
                                              str(calls[0].inverse())])


def test_perm_empty_word_is_identity(capsys):
    code, out, _ = run(capsys, "perm", "--word", "")
    assert code == 0 and "identity" in out


def test_perm_malformed(capsys):
    code, _, err = run(capsys, "perm", "--oneline", "1,1")
    assert code == 1 and err


def test_tableaux_enumeration(capsys):
    code, out, err = run(capsys, "tableaux", "--lambda", "1,1", "--mu", "1",
                         "--flag", "1,2", "--sign", "positive",
                         "--window", "1:2")
    assert code == 0
    assert out.splitlines() == [". ; {1}", ". ; {1,2}", ". ; {2}"]
    assert "3 tableaux" in err


def test_verify_pass_and_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pi", "--seed", "42",
                       "--trials", "2", "--max-size", "2")
    assert code == 0 and "pi: pass" in out
    code, out, _ = run(capsys, "verify", "--suite", "ring",
                       "--format", "json")
    report = json.loads(out)
    assert report["ok"] is True and report["suite"] == "ring"


def test_verify_same_seed_same_bytes(capsys):
    args = ("verify", "--suite", "theorem", "--seed", "7", "--trials", "1",
            "--max-size", "2", "--flag-range", "-1:1", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_matches_library(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem", "--seed", "7",
                       "--trials", "1", "--max-size", "2", "--flag-range",
                       "-1:1", "--format", "json")
    assert code == 0
    assert out == json.dumps(verify_identities(
        "theorem", seed=7, trials=1, max_size=2, flag_range=(-1, 1)),
        indent=1) + "\n"


def test_verify_options_left_out_take_library_defaults(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "ring", "--format", "json")
    assert code == 0
    assert json.loads(out) == verify_identities("ring")


def test_verify_empty_run_fails(capsys):
    # a run with no instances checks nothing, so it must not pass
    code, out, err = run(capsys, "verify", "--suite", "theorem",
                         "--max-size", "0")
    assert code == 1 and "pass" not in out and "max_size" in err


def test_verify_exhaustive_only(capsys):
    # --trials 0 keeps only the exhaustive split/merge bijection checks
    code, out, _ = run(capsys, "verify", "--suite", "decompose",
                       "--trials", "0", "--max-size", "2", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["ok"] is True and report["checks"] > 0


@pytest.mark.parametrize("argv", [
    ("j", "--lambda", "2", "--phi", "1", "--rho", "1", "--seed", "3"),
    ("j", "--lambda", "2", "--phi", "1", "--rho", "1", "--window", "1:2"),
    ("tableaux", "--lambda", "1", "--prime", "7"),
    ("tableaux", "--lambda", "1", "--format", "json"),
])
def test_subcommands_refuse_options_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("j", "--lambda", "2", "--phi", "1"),
    (),
])
def test_usage_errors_exit_1(capsys, argv):
    # exit code 2 means a structurally-zero coefficient, not a usage error
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "required" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["j", "--help"])
    assert exc.value.code == 0 and "--lambda" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["3", "1:", "a:b", "1:2:3", ""])
def test_malformed_range_refused(capsys, text):
    with pytest.raises(ValueError, match=repr(text)):
        parse_range(text)
    code, _, err = run(capsys, "tableaux", "--lambda", "1", "--window", text)
    assert code == 1 and repr(text) in err


def test_the_process_pool_loads_on_first_use_and_numpy_never():
    """Importing the command line loads neither numpy nor the process-pool
    machinery; the orbit engine runs without numpy, and its value still
    matches the polynomial route."""
    script = """
import sys
import egc.cli
print("numpy" in sys.modules, "concurrent.futures.process" in sys.modules)
from egc.grothendieck import backstable_approx, backstable_poly
from egc.perms import Permutation
from egc.ring import EvaluationPoint
w = Permutation.from_one_line((2, 4, 1, 3), 1)
pt = EvaluationPoint.make(2147483647, 5, {1: 3, 2: 7, 3: 11, 4: 13},
                          {1: 2, 2: 17, 3: 19})
poly = backstable_poly(w, 0, pt)
print("numpy" in sys.modules)
print(backstable_approx(w, 0, pt) == poly, "numpy" in sys.modules)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split("\n") == ["False False", "False", "True False", ""]


def test_verify_refuses_a_prime_it_cannot_decide(capsys):
    # the least strong pseudoprime to every base is_prime tries: over Z/n,
    # which is not a field, the ring suite would report a pass
    code, out, err = run(capsys, "verify", "--suite", "ring", "--prime",
                         "3317044064679887385961981")
    assert code == 1 and out == "" and "3317044064679887385961981" in err
