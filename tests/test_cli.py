import json
from pathlib import Path

import pytest

from rahecke.cli import build_parser, main


@pytest.fixture()
def diagram_a_file(tmp_path):
    path = tmp_path / "A.json"
    path.write_text('{"generators": ["a", "b", "c"], "commuting": [["a", "b"]]}')
    return str(path)


@pytest.fixture()
def dinfty_file(tmp_path):
    path = tmp_path / "dinfty.json"
    path.write_text('{"generators": ["a", "b"], "commuting": []}')
    return str(path)


@pytest.fixture()
def free3_file(tmp_path):
    path = tmp_path / "free3.json"
    path.write_text('{"generators": ["a", "b", "c"], "commuting": []}')
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_nf(capsys, diagram_a_file):
    code, doc = run(capsys, ["nf", "--diagram", diagram_a_file, "--word", "bacb"])
    assert code == 0
    assert doc["normal_form"] == "abcb"
    assert doc["length"] == 4


def test_ball(capsys, diagram_a_file):
    code, doc = run(capsys, ["ball", "--diagram", diagram_a_file, "--radius", "3",
                             "--elements"])
    assert code == 0
    assert doc["sphere_sizes"] == [1, 3, 5, 8]
    assert doc["elements"][0] == "e"
    assert len(doc["elements"]) == doc["total"]


def test_classify_dinfty(capsys, dinfty_file):
    code, doc = run(capsys, ["classify", "--diagram", dinfty_file, "--q", "all=1"])
    assert code == 0
    assert doc["status"] == "NotSimple"
    assert len(doc["boundary_flags"]) == 4


def test_classify_free3_simple(capsys, free3_file):
    code, doc = run(capsys, ["classify", "--diagram", free3_file, "--q", "all=1"])
    assert code == 0
    assert doc["status"] == "Simple"
    assert doc["witnesses"] == []


def test_classify_deterministic(capsys, free3_file):
    code1, doc1 = run(capsys, ["classify", "--diagram", free3_file, "--q", "a=1/4,b=1/4,c=1/4"])
    out1 = json.dumps(doc1, sort_keys=True)
    code2, doc2 = run(capsys, ["classify", "--diagram", free3_file, "--q", "a=1/4,b=1/4,c=1/4"])
    out2 = json.dumps(doc2, sort_keys=True)
    assert code1 == code2 == 0
    assert out1 == out2
    assert doc1["status"] == "NotSimple"


def test_growth(capsys, diagram_a_file):
    code, doc = run(capsys, ["growth", "--diagram", diagram_a_file, "--q", "all=1"])
    assert code == 0
    assert doc["cleared_polynomial"] == ["1", "-1", "-1"]
    assert doc["reciprocal_value"] == "-1/4"
    assert doc["membership"] == "Exterior"
    assert abs(doc["rho_float"] - 1.618) < 1e-3


def test_values_after_all_override_it(capsys, free3_file):
    """'all=v,a=w' broadcasts v and then sets a to w; the other order is
    refused (see test_error_exits)."""
    code, doc = run(capsys, ["growth", "--diagram", free3_file, "--q", "all=1/3,a=1/2"])
    assert code == 0
    assert doc["q"] == {"a": "1/2", "b": "1/3", "c": "1/3"}


def test_mul(capsys, diagram_a_file):
    code, doc = run(capsys, ["mul", "--diagram", diagram_a_file, "--q", "all=1/4",
                             "--left", "1*T(a)", "--right", "1*T(a)"])
    assert code == 0
    assert doc["product"] == [
        {"coeff": "1", "word": "e"},
        {"coeff": "-3/2", "word": "a"},
    ]


@pytest.mark.parametrize("mode,coeff", [("exact", "1/1000"), ("float", 0.001)])
def test_mul_signed_exponent(capsys, diagram_a_file, mode, coeff):
    """A coefficient's exponent sign stays in its term."""
    code, doc = run(capsys, ["mul", "--diagram", diagram_a_file, "--mode", mode,
                             "--q", "all=1", "--left", "1e-3*T(a)", "--right", "T(a)"])
    assert code == 0
    assert doc["product"] == [{"coeff": coeff, "word": "e"}]


def test_char(capsys, diagram_a_file):
    code, doc = run(capsys, ["char", "--diagram", diagram_a_file, "--q", "all=1/4",
                             "--epsilon", "a=-1", "--element", "1*T(a)"])
    assert code == 0
    assert doc["value"] == "-2"


def test_eproj(capsys, free3_file):
    code, doc = run(capsys, ["eproj", "--diagram", free3_file, "--q", "all=1/4",
                             "--epsilon", "all=+1", "--cutoff", "2", "--residuals"])
    assert code == 0
    assert doc["trace"] == "2/5"
    assert doc["coefficients"][0] == {"coeff": "2/5", "word": "e"}
    # refused pattern
    code, _ = run(capsys, ["eproj", "--diagram", free3_file, "--q", "all=1/4",
                           "--epsilon", "all=-1", "--cutoff", "2"])
    assert code == 1


def test_verify_suites(capsys, diagram_a_file):
    code, doc = run(capsys, ["verify", "--suite", "action", "--diagram", diagram_a_file,
                             "--radius", "6", "--max-length", "3"])
    assert code == 0 and doc["violations"] == 0
    code, doc = run(capsys, ["verify", "--suite", "corollary", "--diagram", diagram_a_file,
                             "--q", "all=1/4", "--radius", "6"])
    assert code == 0 and doc["residual"] == "0" and doc["x_terms"] == 4
    code, doc = run(capsys, ["verify", "--suite", "positivity", "--diagram", diagram_a_file,
                             "--q", "all=1/4", "--radius", "4", "--word", "a"])
    assert code == 0
    lo, hi = doc["window"]
    assert abs(float(lo) - 0.25) < 1e-6 and abs(float(hi) - 4.0) < 1e-6
    code, doc = run(capsys, ["verify", "--suite", "qop", "--diagram", diagram_a_file,
                             "--radius", "5", "--qscalar", "1/2", "--cutoff", "4"])
    assert code == 0 and doc["tail_bound"] > 0


def test_positivity_above_the_dense_limit_exits_0(capsys, free3_file):
    """The dense limit bounds one block of the Gram, not the ball: free3 at
    radius 11, a ball above the limit, runs, with the window [q, 1/q]."""
    code, doc = run(capsys, ["verify", "--suite", "positivity", "--diagram", free3_file,
                             "--q", "all=1/4", "--radius", "11", "--word", "a"])
    assert code == 0
    assert abs(doc["window"][0] - 0.25) < 1e-9 and abs(doc["window"][1] - 4) < 1e-9


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_positivity_far_from_q_1_exits_0(capsys, diagram_a_file, mode):
    """At q = 1/10^4 the bounds of T_abc are [1e-12, 1e12]; the float ends
    may pass them by DENSE_TOL times the upper bound, not by an absolute
    DENSE_TOL, so the call is not refused."""
    code, doc = run(capsys, ["verify", "--suite", "positivity", "--diagram", diagram_a_file,
                             "--mode", mode, "--q", "all=1/10000", "--radius", "6",
                             "--word", "abc"])
    assert code == 0 and doc["word"] == "abc"
    lo, hi = doc["window"]
    assert 1e-12 - 1e3 <= lo <= hi <= 1e12 + 1e3


def test_positivity_empty_word_is_the_identity(capsys, diagram_a_file):
    """--word '' is the identity, as ``e`` is, not a default generator."""
    for word in ("", "e"):
        code, doc = run(capsys, ["verify", "--suite", "positivity", "--diagram", diagram_a_file,
                                 "--q", "all=1/4", "--radius", "4", "--word", word])
        assert code == 0 and doc["word"] == "e" and doc["window"] == [1.0, 1.0]


def test_error_exits(capsys, diagram_a_file, tmp_path):
    assert main(["nf", "--diagram", diagram_a_file, "--word", "xyz"]) == 1
    capsys.readouterr()
    assert main(["classify", "--diagram", diagram_a_file, "--q", "a=1"]) == 1
    capsys.readouterr()
    assert main(["classify", "--diagram", str(tmp_path / "missing.json"),
                 "--q", "all=1"]) == 1
    capsys.readouterr()
    # a key given twice, where the last value silently won
    for q, key in (("all=1/2,all=1/3", "'all'"), ("a=1/2,a=1/3", "'a'"),
                   ("all=1/2,b=1,b=1", "'b'")):
        assert main(["classify", "--diagram", diagram_a_file, "--q", q]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: parameter {key} given twice\n"
    assert main(["eproj", "--diagram", diagram_a_file, "--q", "all=1/4",
                 "--epsilon", "a=+1,a=-1", "--cutoff", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: sign 'a' given twice\n"
    # a value given before 'all', which 'all' silently replaced
    for option, q, eps, err in (("--q", "a=1/2,all=1/3", "all=+1", "parameter 'a'"),
                                ("--q", "c=1,b=1/4,all=1/4", "all=+1", "parameter 'c'"),
                                ("--epsilon", "all=1/4", "b=-1,all=+1", "sign 'b'")):
        assert main(["eproj", "--diagram", diagram_a_file, "--q", q,
                     "--epsilon", eps, "--cutoff", "2"]) == 1, option
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {err} given before 'all'\n"
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": ["a", "a"]}')
    assert main(["nf", "--diagram", str(bad), "--word", "a"]) == 1
    capsys.readouterr()
    assert main(["nosuchcommand"]) == 1
    capsys.readouterr()
    # non-square rational in exact mode; eproj has no float mode to suggest
    assert main(["mul", "--diagram", diagram_a_file, "--q", "all=1/2",
                 "--left", "1*T(a)", "--right", "1*T(a)"]) == 1
    capsys.readouterr()
    assert main(["eproj", "--diagram", diagram_a_file, "--q", "all=1/2",
                 "--epsilon", "all=+1", "--cutoff", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: q['a'] = 1/2 is not a square of a rational; exact mode needs squares\n")
    assert main(["verify", "--suite", "action", "--diagram", diagram_a_file,
                 "--radius", "0"]) == 1
    assert "ball too small" in capsys.readouterr().err
    assert main(["verify", "--suite", "cliq", "--diagram", diagram_a_file,
                 "--radius", "1"]) == 1
    assert "ball too small" in capsys.readouterr().err
    for power in ("0", "-2"):
        assert main(["verify", "--suite", "corollary", "--diagram", diagram_a_file,
                     "--q", "all=1/4", "--radius", "6", f"--power={power}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "power must be >= 1" in captured.err
    assert main(["verify", "--suite", "action", "--diagram", diagram_a_file,
                 "--radius", "6", "--max-length=-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "max_length must be >= 0" in captured.err
    for cutoff in ("-1", "-3"):
        assert main(["verify", "--suite", "qop", "--diagram", diagram_a_file,
                     "--radius", "5", "--qscalar", "1/2", f"--cutoff={cutoff}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "cutoff must be >= 0" in captured.err
        assert main(["eproj", "--diagram", diagram_a_file, "--q", "all=1/4",
                     "--epsilon", "all=+1", f"--cutoff={cutoff}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "cutoff must be >= 0" in captured.err
    # a criterion id that names no criterion, where the report was vacuous
    for only, unknown in (("99", "['99']"), (",", "['']"), ("1,x", "['x']")):
        assert main(["report", "--quiet", "--only", only]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"unknown criterion ids {unknown}" in captured.err
    # a value past the float range, where float mode raised OverflowError
    past_float = [["mul", "--q", "all=1e400", "--left", "T(a)", "--right", "T(a)"],
                  ["char", "--q", "all=1e400", "--epsilon", "all=+1", "--element", "T(a)"],
                  ["verify", "--suite", "positivity", "--q", "all=1e400"],
                  ["mul", "--q", "all=1", "--left", "1e400*T(a)", "--right", "T(a)"]]
    for argv in past_float:
        assert main(argv + ["--diagram", diagram_a_file, "--mode", "float"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "'1e400' is past the float range" in captured.err
    # --mode on a suite that has no float mode, where it was accepted and
    # ignored (cliq and corollary then refused q = 1/2 as not a square)
    for suite in ("action", "cliq", "corollary", "haagerup", "qop"):
        assert main(["verify", "--suite", suite, "--diagram", diagram_a_file,
                     "--q", "all=1/2", "--radius", "4", "--mode", "float"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: --mode applies only to --suite positivity\n")
    # a dangling sign, which was read as the zero element or dropped
    for left in ("+", "-", "T(a)+", "T(a)--"):
        assert main(["mul", "--diagram", diagram_a_file, "--q", "all=1",
                     "--left", left, "--right", "T(a)"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "dangling sign" in captured.err


@pytest.mark.parametrize("entry", ['"ab"', '["a", ["b"]]', "5"])
def test_malformed_commuting_entry_exits_1(capsys, tmp_path, entry):
    """A "commuting" entry that is not a list of two strings is refused by
    name: "ab" was read as the pair (a, b), and the other two raised
    TypeError, an internal error."""
    path = tmp_path / "bad.json"
    path.write_text(f'{{"generators": ["a", "b"], "commuting": [{entry}]}}')
    assert main(["nf", "--diagram", str(path), "--word", "ab"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"commuting entry {json.loads(entry)!r}" in captured.err


def test_ball_over_the_cap_exits_1(capsys, tmp_path):
    """A ball past the element cap is a refused input, not an internal
    error.  The rank-12 free product at radius 6 has 2,125,873 elements, so
    the sphere loop refuses it before any table is built."""
    path = tmp_path / "free12.json"
    path.write_text(json.dumps({"generators": [f"s{i}" for i in range(12)], "commuting": []}))
    assert main(["ball", "--diagram", str(path), "--radius", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ball of radius 6 exceeds cap 2000000\n"


# Each command given a rational with a zero denominator: a validation error.
ZERO_DENOMINATOR_CASES = {
    "classify": ["classify", "--q", "all=1/0"],
    "growth": ["growth", "--q", "all=1/0"],
    "eproj": ["eproj", "--q", "all=1/0", "--epsilon", "all=+1", "--cutoff", "2"],
    "char": ["char", "--q", "all=1/0", "--epsilon", "a=-1", "--element", "1*T(a)"],
    "verify_positivity": ["verify", "--suite", "positivity", "--q", "all=1/0"],
    "verify_haagerup": ["verify", "--suite", "haagerup", "--qscalar", "1/0"],
    "verify_qop": ["verify", "--suite", "qop", "--qscalar", "1/0"],
    "mul": ["mul", "--q", "all=1/4", "--left", "1/0*T(a)", "--right", "T(a)"],
}


@pytest.mark.parametrize("name", sorted(ZERO_DENOMINATOR_CASES))
def test_zero_denominator_exits_1(capsys, diagram_a_file, name):
    assert main(ZERO_DENOMINATOR_CASES[name] + ["--diagram", diagram_a_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'1/0'" in captured.err


@pytest.mark.parametrize("qscalar", ["0", "-1"])
def test_haagerup_needs_positive_q(capsys, diagram_a_file, qscalar):
    assert main(["verify", "--suite", "haagerup", "--diagram", diagram_a_file,
                 f"--qscalar={qscalar}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "q must be positive" in captured.err


# `verify --suite haagerup` max_ratios recorded from the trie walk that the
# sphere pattern replaced; the summation order changed, so they agree to
# rounding, not bit for bit.
HAAGERUP_PINNED = {
    "pentagon": (["--qscalar", "7/10", "--radius", "8", "--trials", "10"],
                 [1.873162022628107, 1.0655536762703153, 0.6011243172092271,
                  0.380173530261689]),
    "A": ([], [1.7907073014505188, 0.9906347640454813, 0.6670391143847954,
               0.4333761849707729]),
}


@pytest.mark.parametrize("name", sorted(HAAGERUP_PINNED))
def test_haagerup_max_ratios_pinned(capsys, tmp_path, diagram_a_file, name):
    if name == "pentagon":
        path = tmp_path / "pentagon.json"
        path.write_text('{"generators": ["a", "b", "c", "d", "e"], "commuting": '
                        '[["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]]}')
    else:
        path = diagram_a_file
    argv, pinned = HAAGERUP_PINNED[name]
    code, doc = run(capsys, ["verify", "--suite", "haagerup", "--diagram", str(path)] + argv)
    assert code == 0
    got = [r["max_ratio"] for r in doc["results"]]
    assert len(got) == len(pinned)
    for x, y in zip(got, pinned):
        assert abs(x - y) <= 1e-12 * y


@pytest.mark.parametrize("flags,message", [
    (["--trials", "0"], "trials must be >= 1"),
    (["--trials", "-1"], "trials must be >= 1"),
    (["--max-length", "0"], "--max-length must be >= 1"),
    (["--qscalar", "1e400"], "q must be positive and finite"),
], ids=["trials-0", "trials-negative", "max-length-0", "qscalar-past-float"])
def test_haagerup_bad_arguments_exit_1(capsys, diagram_a_file, flags, message):
    assert main(["verify", "--suite", "haagerup", "--diagram", diagram_a_file] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_haagerup_refuses_an_empty_sphere(capsys, tmp_path):
    path = tmp_path / "z2xz2.json"
    path.write_text('{"generators": ["a", "b"], "commuting": [["a", "b"]]}')
    assert main(["verify", "--suite", "haagerup", "--diagram", str(path),
                 "--max-length", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need a nonempty sphere" in captured.err


@pytest.mark.parametrize("mode,q", [("float", "all=-1"), ("exact", "all=-1/4"),
                                    ("float", "a=1,b=0,c=1")])
def test_mul_needs_positive_q(capsys, diagram_a_file, mode, q):
    assert main(["mul", "--diagram", diagram_a_file, "--mode", mode, "--q", q,
                 "--left", "T(a)", "--right", "T(a)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = "a" if "all" in q else "b"
    assert captured.err == f"error: parameter q[{bad!r}] must be positive\n"


def test_classify_and_mul_refuse_q_alike(capsys, diagram_a_file):
    """One positivity check: the classifier and the Hecke product print the
    same line for the same bad parameter."""
    errors = []
    for cmd in (["classify"], ["mul", "--left", "T(a)", "--right", "T(a)"]):
        assert main(cmd + ["--diagram", diagram_a_file, "--q", "all=-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == ["error: parameter q['a'] must be positive\n"] * 2


def test_out_file(capsys, diagram_a_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["nf", "--diagram", diagram_a_file, "--word", "ba", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["normal_form"] == "ab"


# Outputs of these commands are pinned byte for byte in tests/golden/cli/:
# refactors of the enumeration, growth and Hecke layers must not change them.
GOLDEN_DIAGRAMS = {
    "A": '{"generators": ["a", "b", "c"], "commuting": [["a", "b"]]}',
    "free3": '{"generators": ["a", "b", "c"], "commuting": []}',
    "pentagon": '{"generators": ["a", "b", "c", "d", "e"], "commuting": '
                '[["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]]}',
    # Every pair commutes except neighbours on the path a-b-c-d-e-f.
    "rank6": '{"generators": ["a", "b", "c", "d", "e", "f"], "commuting": '
             '[["a", "c"], ["a", "d"], ["a", "e"], ["a", "f"], ["b", "d"], ["b", "e"], '
             '["b", "f"], ["c", "e"], ["c", "f"], ["d", "f"]]}',
}
GOLDEN_CASES = {
    "classify_A": ["classify", "--diagram", "A", "--q", "a=1/4,b=4,c=1"],
    "classify_pentagon": ["classify", "--diagram", "pentagon", "--q", "all=1"],
    # q_c = 1: flips that differ only at c share one analysis.
    "classify_rank6": ["classify", "--diagram", "rank6",
                       "--q", "a=1/4,b=2/5,c=1,d=3/2,e=9/4,f=4"],
    # t0 near 2^-100.6 at a=b=c=+: the isolation halves about 100 times
    # with one root in its bracket before the bracket leaves 0.
    "classify_free3_huge_q": ["classify", "--diagram", "free3", "--q", "all=1e30"],
    "growth_pentagon": ["growth", "--diagram", "pentagon",
                        "--q", "a=1/4,b=1,c=2,d=1,e=1/2"],
    "ball_A": ["ball", "--diagram", "A", "--radius", "4", "--elements"],
    "ball_pentagon": ["ball", "--diagram", "pentagon", "--radius", "3", "--elements"],
    "eproj_free3": ["eproj", "--diagram", "free3", "--q", "all=1/4",
                    "--epsilon", "all=+1", "--cutoff", "3", "--residuals"],
    "mul_A": ["mul", "--diagram", "A", "--q", "a=1/4,b=9,c=1",
              "--left", "1*T(ab) - 1/2*T(c)", "--right", "2*T(bca) + T(e)"],
    # Float mode at parameters that are not squares of rationals.
    "mul_float_pentagon": ["mul", "--mode", "float", "--diagram", "pentagon",
                           "--q", "a=2,b=3,c=1/2,d=5/3,e=7",
                           "--left", "1*T(ac) - 3/2*T(bd) + T(ceab)",
                           "--right", "2*T(aced) + T(e) - 1/3*T(db)"],
    "char_float_pentagon": ["char", "--mode", "float", "--diagram", "pentagon",
                            "--q", "a=2,b=3,c=1/2,d=5/3,e=7", "--epsilon", "a=-1,c=-1",
                            "--element", "1*T(e) - 3/2*T(acd) + 2*T(cebda) + T(bdace)"],
    "char_A": ["char", "--diagram", "A", "--q", "a=1/4,b=9,c=4/9", "--epsilon", "b=-1",
               "--element", "2*T(abc) - 1/3*T(cb) + T(e) + T(bcacb)"],
    "verify_cliq_A": ["verify", "--suite", "cliq", "--diagram", "A",
                      "--q", "all=1/4", "--radius", "5"],
    "verify_corollary_A": ["verify", "--suite", "corollary", "--diagram", "A",
                           "--q", "a=1/4,b=1/9,c=4", "--radius", "6"],
    "verify_positivity_A": ["verify", "--suite", "positivity", "--diagram", "A",
                            "--q", "all=1/4", "--radius", "4", "--word", "a"],
    # Float windows at parameters that are not squares of rationals.
    "verify_positivity_float_pentagon": ["verify", "--suite", "positivity", "--mode", "float",
                                         "--diagram", "pentagon",
                                         "--q", "a=2,b=3,c=1/2,d=5/3,e=7",
                                         "--radius", "6", "--word", "acb"],
    # 1,536 blocks of the Gram, each taken by its own eigensolver call.
    "verify_positivity_free3": ["verify", "--suite", "positivity", "--diagram", "free3",
                                "--q", "all=1/4", "--radius", "10", "--word", "ababa"],
    "verify_qop_A": ["verify", "--suite", "qop", "--diagram", "A",
                     "--radius", "6", "--word", "a", "--cutoff", "5"],
}
GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"


def golden_argv(name, tmp_path):
    argv = list(GOLDEN_CASES[name])
    key = argv[argv.index("--diagram") + 1]
    path = tmp_path / f"{key}.json"
    path.write_text(GOLDEN_DIAGRAMS[key])
    argv[argv.index("--diagram") + 1] = str(path)
    return argv


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(capsys, tmp_path, name):
    assert main(golden_argv(name, tmp_path)) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / f"{name}.json").read_text()


def test_values_after_all_override_it(capsys, tmp_path):
    """'all=' then per-generator values is not a key given twice."""
    argv = golden_argv("classify_A", tmp_path)
    argv[argv.index("--q") + 1] = "all=1/4,b=4,c=1"
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "classify_A.json").read_text()


def test_reused_parser_leaks_no_state(capsys, tmp_path):
    """One process, one parser: classify between other commands and a
    failed one still prints the golden report."""
    assert build_parser() is build_parser()
    classify = golden_argv("classify_A", tmp_path)
    path = classify[classify.index("--diagram") + 1]
    others = [(["verify", "--suite", "cliq", "--diagram", path, "--q", "all=1/4",
                "--radius", "3"], 0),
              (["classify", "--diagram", path, "--q", "all=1/0"], 1),
              (["classify", "--diagram", path], 1)]

    def classify_output():
        assert main(classify) == 0
        return capsys.readouterr().out

    outputs = [classify_output()]
    for argv, code in others:
        assert main(argv) == code
        capsys.readouterr()
        outputs.append(classify_output())
    assert outputs == [(GOLDEN_DIR / "classify_A.json").read_text()] * len(outputs)
