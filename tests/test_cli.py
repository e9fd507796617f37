"""Command line round trips through tmss.cli.main."""

import argparse
import importlib.metadata as md
import json
import re
import shlex
import sys
from pathlib import Path
from unittest import mock

import pytest

from tmss import cli, verification
from tmss.algebra import INTEGERS
from tmss.characters import Kernel
from tmss.cli import build_parser, main
from tmss.group import NucleusResult, WreathRecursion

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
README = PYPROJECT.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def test_word_prefix(capsys):
    code, out, _ = run(capsys, "word", "prefix", "8")
    assert code == 0 and out == "01101001"


def test_word_prefix_json(capsys):
    code, out, _ = run(capsys, "word", "prefix", "4", "--json")
    assert code == 0
    assert json.loads(out) == {"prefix": [0, 1, 1, 0]}


def test_word_subst(capsys):
    code, out, _ = run(capsys, "word", "subst", "x0", "--iters", "2")
    assert code == 0 and out == "x0 x1^2 x0"


def test_word_gamma(capsys):
    code, out, _ = run(capsys, "word", "gamma", "x0 x1^-1", "--shift", "1")
    assert code == 0 and out == "x1 x0^-1"


def test_group_decompose(capsys):
    code, out, _ = run(capsys, "group", "decompose", "x0")
    assert code == 0 and out == "perm=[1, 0] sections=[x0, x1]"


def test_group_act(capsys):
    code, out, _ = run(capsys, "group", "act", "x1", "00")
    assert code == 0 and out == "10"


def test_group_act_rejects_foreign_vertex(capsys):
    code, _, err = run(capsys, "group", "act", "x1", "02")
    assert code == 1 and "error" in err


def test_group_section(capsys):
    code, out, _ = run(capsys, "group", "section", "x0", "1")
    assert code == 0 and out == "x1"


def test_group_trivial(capsys):
    code, out, _ = run(capsys, "group", "trivial", "x1 x1")
    assert code == 0 and out == "true"
    code, out, _ = run(capsys, "group", "trivial", "x0")
    assert code == 0 and out == "false"


def test_group_trivial_unknown_exit(capsys):
    code, out, _ = run(capsys, "group", "trivial", "x0 x0 x0 x0",
                       "--cap-states", "2")
    assert code == 2 and out.startswith("unknown")


def test_group_order(capsys):
    code, out, _ = run(capsys, "group", "order", "x1", "--q", "3")
    assert code == 0 and out == "3"


def test_group_bounded(capsys):
    code, out, _ = run(capsys, "group", "bounded", "x0", "--depth", "3")
    assert code == 0 and out == "1 2 2 2"


def test_group_moved(capsys):
    code, out, _ = run(capsys, "group", "moved", "x1 x1")
    assert code == 0 and out == "none"


def test_group_nucleus(capsys):
    code, out, _ = run(capsys, "group", "nucleus")
    assert code == 0 and out == "1, x0^-1, x0, x1"


def test_group_equal(capsys):
    code, out, _ = run(capsys, "group", "equal", "x1", "x1^-1")
    assert code == 0 and out == "true"


def test_group_portrait_json(capsys):
    code, out, _ = run(capsys, "group", "portrait", "x0", "--depth", "1",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["perm"] == [1, 0]
    assert len(data["children"]) == 2


def test_algebra_zero(capsys):
    code, out, _ = run(capsys, "algebra", "zero", "x1 x1 - 1")
    assert code == 0 and out == "zero(depth=1)"


def test_algebra_zero_unknown_exit(capsys):
    code, out, _ = run(capsys, "algebra", "zero", "1 - x0 x0", "--depth", "1")
    assert code == 2 and out.startswith("unknown")


def test_algebra_zero_depth_zero_is_honoured(capsys):
    code, out, _ = run(capsys, "algebra", "zero", "x0", "--depth", "0")
    assert code == 2 and out == "unknown(cap=0)"


def test_algebra_phi_json(capsys):
    code, out, _ = run(capsys, "algebra", "phi", "x0", "--json")
    assert code == 0
    matrix = json.loads(out)["matrix"]
    assert matrix == [["0", "x0"], ["x1", "0"]]


def test_algebra_cdepth(capsys):
    code, out, _ = run(capsys, "algebra", "cdepth", "1 - x0 x0")
    assert code == 0 and out == "2"


def test_algebra_rcbound(capsys):
    code, out, _ = run(capsys, "algebra", "rcbound", "x0", "--depth", "2")
    assert code == 0 and out == "1/1 1/1 1/1"


def test_algebra_star(capsys):
    code, out, _ = run(capsys, "algebra", "star", "x0 x1^-1")
    assert code == 0 and out == "x1 x0^-1"


def test_algebra_sigma(capsys):
    code, out, _ = run(capsys, "algebra", "sigma", "1", "0")
    assert code == 0 and out == "1"


def test_algebra_omega(capsys):
    code, out, _ = run(capsys, "algebra", "omega", "--level", "0",
                       "--kmax", "1")
    assert code == 0
    assert out.splitlines() == ["0", "1 - x0 x1", "1 - x1 x0",
                                "1 - x0 x1 x0 x1", "1 - x1 x0 x1 x0"]


def test_char_spread(capsys):
    code, out, _ = run(capsys, "char", "spread", "1 - x0 x0")
    assert code == 0 and out == "2"


def test_char_spread_at_composite_q(capsys):
    code, out, err = run(capsys, "char", "spread",
                         "-2*x0^-2 + 2*x3^-1 x0^2 x3", "--q", "4")
    assert (code, out, err) == (0, "3/2", "")


def test_char_spread_json(capsys):
    code, out, _ = run(capsys, "char", "spread", "1 - x0 x0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2" and payload["num"] == 2
    assert payload["den"] == 1 and payload["classes_used"] > 0
    assert payload["largest_component"] == 1


def test_char_group_json_reports_the_largest_component(capsys):
    code, out, _ = run(capsys, "char", "group", "x0", "--preset", "inverted",
                       "--kernel", "ones", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1" and payload["largest_component"] == 2


def test_char_kernel_reports_psd(capsys):
    code, out, _ = run(capsys, "char", "kernel", "1 - x0", "--kernel", "ones",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2"
    assert payload["kernel_psd"] == {"symmetric": True, "psd": True}


def test_char_kernel_checks_psd_only_for_json(capsys):
    with mock.patch.object(Kernel, "psd_report", side_effect=AssertionError):
        code, out, _ = run(capsys, "char", "kernel", "1 - x0", "--kernel", "id")
    assert code == 0 and out == "1"


@pytest.mark.parametrize("argv", [
    ["char", "kernel", "x0", "--kernel", "5"],
    ["char", "kernel", "x0", "--kernel", "[[1,null],[1,1]]"],
    ["char", "kernel", "x0", "--kernel", "[[1,true],[1,1]]"],
    ["char", "kernel", "x0", "--kernel", "[1, 2]"],
    ["char", "kernel", "x0", "--kernel", "[[1,Infinity],[1,1]]"],
    ["char", "group", "x0", "--kernel", "5"],
    ["char", "group", "x0", "--kernel", "[[1,null],[1,1]]"],
    ["char", "group", "x0", "--kernel", "[[1,[1]],[1,1]]"],
])
def test_malformed_kernel_exits_1_without_a_traceback(capsys, argv):
    # a usage error of --kernel, under its subcommand's usage line
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"usage: tmss char {argv[1]} [-h]")
    assert "error: argument --kernel: kernel" in err and "Traceback" not in err


def test_char_group(capsys):
    code, out, _ = run(capsys, "char", "group", "x0")
    assert code == 0 and out == "0"


def test_char_count(capsys):
    code, out, _ = run(capsys, "char", "count", "1 - x0", "3")
    assert code == 0 and out == "16"


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_char_count_prints_counts_of_any_size(capsys, flags):
    # every entry of phi^15000(x0) is countable, and 2^15000 has 4,516
    # digits, past Python's default limit of 4,300 for int-to-text
    code, out, err = run(capsys, "char", "count", "x0", "15000", "--q", "2",
                         *flags)
    assert code == 0 and err == ""
    if _DIGIT_LIMIT:
        sys.set_int_max_str_digits(0)
    try:
        count = json.loads(out)["count"] if flags else int(out)
    finally:
        if _DIGIT_LIMIT:
            sys.set_int_max_str_digits(_DIGIT_LIMIT)
    assert count == 2 ** 15000
    # the limit is lifted for the output only
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == _DIGIT_LIMIT


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this Python has no digit limit")
def test_char_count_parses_its_input_under_the_digit_limit(capsys):
    code, out, err = run(capsys, "char", "count", "1" * (_DIGIT_LIMIT + 1)
                         + " x0", "3")
    assert code == 1 and out == "" and "limit" in err


def test_char_growth(capsys):
    code, out, _ = run(capsys, "char", "growth", "1 - x0")
    assert code == 0 and out == "0 stable=True"


def test_char_witness(capsys):
    code, out, _ = run(capsys, "char", "witness", "2/9", "--q", "3")
    assert code == 0 and out == "1 - x0^27"


def test_char_witness_not_found(capsys):
    code, out, err = run(capsys, "char", "witness", "1/3", "--q", "3")
    assert code == 2 and err == ""
    assert out.startswith("unknown(odd numerator over odd q")


def test_char_witness_zero_denominator_exits_1(capsys):
    code, out, err = run(capsys, "char", "witness", "1/0")
    assert code == 1 and out == "" and err.startswith("error:")


def test_char_count_class_cap_exits_2(capsys):
    code, out, err = run(capsys, "char", "count", "1 - x0", "30",
                         "--cap-classes", "2")
    assert code == 2 and out == "unknown(cap=2)" and err == ""


@pytest.mark.parametrize("argv", [
    ("group", "trivial", "x0 x1", "--cap-states", "1"),
    ("group", "equal", "x0 x1", "x1 x0", "--cap-states", "1"),
    ("group", "order", "x0", "--cap-states", "1"),
    ("algebra", "zero", "1 - x0 x0", "--depth", "0"),
    ("algebra", "cdepth", "1 - x0 x0 x0 x0", "--depth", "0"),
    ("char", "spread", "1 - x0 x0", "--cap-classes", "1"),
    ("char", "kernel", "1 - x0 x0", "--cap-classes", "1"),
    ("char", "group", "x0 x1", "--cap-classes", "1"),
    ("char", "count", "1 - x0 x0", "5", "--cap-classes", "1"),
    ("char", "growth", "1 - x0 x0", "--cap-classes", "1"),
    ("char", "additivity", "1 - x0 x0", "1 - x1 x1", "--cap-classes", "2"),
    ("char", "witness", "2/9", "--q", "3", "--cap-classes", "2"),
], ids=lambda argv: " ".join(argv[:2]))
def test_capped_subcommands_exit_2_with_an_unknown_answer(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and err == "" and out.startswith("unknown")


def test_group_nucleus_cap_reached_exits_2(capsys, monkeypatch):
    # no cap of 1 or more stops the nucleus of a preset, so the library
    # answer is stubbed
    monkeypatch.setattr(WreathRecursion, "nucleus",
                        lambda self, cap_states: NucleusResult(((),), False))
    code, out, err = run(capsys, "group", "nucleus", "--cap-states", "1")
    assert code == 2 and out == "1  (cap reached)" and err == ""


@pytest.mark.parametrize("argv, flag", [
    (("group", "trivial", "x1"), "--cap-states"),
    (("group", "nucleus"), "--cap-states"),
    (("group", "order", "x1"), "--cap-states"),
    (("char", "count", "1 - x0", "30"), "--cap-classes"),
    (("char", "spread", "1 - x0"), "--cap-classes"),
    (("char", "group", "x0"), "--cap-classes"),
], ids=lambda param: " ".join(param[:2]) if isinstance(param, tuple) else param)
@pytest.mark.parametrize("value", ["0", "-3", "many"])
def test_cap_flags_below_1_are_usage_errors(capsys, flag, argv, value):
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 1 and out == ""
    assert f"error: argument {flag}: a cap must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("algebra", "zero", "x0"),
    ("algebra", "cdepth", "x0"),
    ("algebra", "rcbound", "x0"),
    ("group", "bounded", "x0"),
    ("group", "portrait", "x0"),
], ids=lambda argv: " ".join(argv[:2]))
@pytest.mark.parametrize("value", ["-1", "-2", "deep"])
def test_depth_below_0_is_a_usage_error(capsys, argv, value):
    code, out, err = run(capsys, *argv, "--depth", value)
    assert code == 1 and out == ""
    assert "error: argument --depth: a depth must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_omega_cap_below_1_is_a_usage_error(capsys, value):
    code, out, err = run(capsys, "algebra", "omega", "--cap", value)
    assert code == 1 and out == ""
    assert "error: argument --cap: a cap must be" in err
    assert "Traceback" not in err


def test_omega_cap_of_1_keeps_the_first_element(capsys):
    code, out, _ = run(capsys, "algebra", "omega", "--cap", "1")
    assert code == 0 and out == "0"


@pytest.mark.parametrize("ring, reason", [
    ("Fp:4", "4 is not prime"),
    ("Fp:1", "1 is not prime"),
    ("Fp:x", "invalid literal for int()"),
])
def test_bad_prime_field_reports_its_reason(capsys, ring, reason):
    code, out, err = run(capsys, "char", "spread", "x0", "--ring", ring)
    assert code == 1 and out == ""
    assert f"error: argument --ring: {ring!r}: {reason}" in err
    assert "Traceback" not in err


def test_algebra_cdepth_honours_depth(capsys):
    code, out, _ = run(capsys, "algebra", "cdepth", "1 - x0 x0 x0 x0",
                       "--depth", "0")
    assert code == 2 and out == "unknown(cap=0)"
    code, out, _ = run(capsys, "algebra", "cdepth", "1 - x0 x0 x0 x0")
    assert code == 0 and out == "4"


def test_char_additivity(capsys):
    omega = "1 - x0 x1 x0 x1"
    code, out, _ = run(capsys, "char", "additivity", omega, omega)
    assert code == 0 and out == "sigma=2 sum=2 additive=True"


def test_prime_field_flag(capsys):
    code, out, _ = run(capsys, "char", "spread", "1 - x0 x0",
                       "--ring", "Fp:5")
    assert code == 0 and out == "2"


def test_integer_ring_flag(capsys):
    code, out, _ = run(capsys, "algebra", "zero", "x1 x1 - 1", "--ring", "Z")
    assert code == 0 and out == "zero(depth=1)"


def test_bad_element_is_reported(capsys):
    code, _, err = run(capsys, "char", "spread", "y0")
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("text, reason", [
    ("x0^0 3", "coefficient '3' after letters"),
    ("x1^*2", "'*' between '^' and its exponent in 'x1^*2'"),
])
def test_malformed_element_exits_1_naming_its_token(capsys, text, reason):
    code, out, err = run(capsys, "char", "spread", text, "--q", "3")
    assert (code, out, err) == (1, "", f"error: {reason}")


def test_an_oversize_exponent_exits_1(capsys):
    code, out, err = run(capsys, "char", "spread", "x0^10000000000000000000")
    assert (code, out, err) == (
        1, "", "error: exponent of word token 'x0^10000000000000000000' "
               "is too large")


def test_running_out_of_memory_exits_1(capsys, monkeypatch):
    # a real allocation failure depends on the host, so a handler raises it
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_char", exhausted)
    code, out, err = run(capsys, "char", "spread", "x0", "--q", "99999999999")
    assert (code, out, err) == (1, "", "error: out of memory")


def test_julia_render(tmp_path, capsys):
    target = tmp_path / "small.pgm"
    code, out, _ = run(capsys, "julia", "render", "--map", "z2",
                       "--out", str(target), "--points", "500",
                       "--pixels", "32,32")
    assert code == 0 and "wrote" in out
    blob = target.read_bytes()
    assert blob.startswith(b"P5\n32 32\n255\n")
    assert len(blob) == len(b"P5\n32 32\n255\n") + 32 * 32


def test_julia_render_reads_viewport_and_pixels(tmp_path, capsys):
    target = tmp_path / "wide.pgm"
    code, out, _ = run(capsys, "julia", "render", "--map", "z2",
                       "--out", str(target), "--points", "0",
                       "--burn-in", "0", "--viewport", "0.5,-0.25,3",
                       "--pixels", "8,4")
    assert code == 0 and out == f"wrote {target} (8x4, 0 points)"
    assert target.read_bytes().startswith(b"P5\n8 4\n255\n")


def test_julia_render_reports_an_unwritable_out_file(tmp_path, capsys):
    target = tmp_path / "missing" / "x.pgm"
    code, out, err = run(capsys, "julia", "render", "--points", "0",
                         "--pixels", "2,2", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error:") and str(target) in err
    assert "Traceback" not in err


def test_julia_unknown_map(capsys):
    code, out, err = run(capsys, "julia", "render", "--map", "nope")
    assert code == 1 and out == ""
    assert err.startswith("usage: tmss julia render")
    assert ("argument --map: invalid choice: 'nope' "
            "(choose from 'f2', 'f3', 'f4', 'f5', 'z2')") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, reason", [
    ("word subst x0 --q 1", "argument --q: an alphabet size must be at least 2"),
    ("word gamma x0 --q 1", "argument --q: an alphabet size must be at least 2"),
    ("char spread x0 --q 0", "argument --q: an alphabet size must be at least 2"),
    ("group trivial x0 --q -3", "argument --q: an alphabet size must be at least 2"),
    ("algebra omega --kmax -1", "argument --kmax: a tower exponent must be at least 0"),
    ("algebra omega --level -1", "argument --level: a level must be at least 0"),
    ("algebra omega --level x", "argument --level: a level must be an integer"),
    ("verify lemma-tm --q 7", "--q and --kmax are read only by lemma-infinitesimal"),
    ("verify all --kmax 1", "--q and --kmax are read only by lemma-infinitesimal"),
    ("verify lemma-infinitesimal --kmax 0",
     "argument --kmax: a tower exponent must be at least 1"),
    ("verify lemma-infinitesimal --q 0",
     "argument --q: an alphabet size must be at least 2"),
    ("julia render --map nope", "argument --map: invalid choice: 'nope'"),
    ("julia render --pixels 3", "argument --pixels: pixels must be two integers"),
    ("julia render --pixels 0,4", "argument --pixels: a pixel count must be at least 1"),
    ("julia render --pixels 4,x", "argument --pixels: a pixel count must be an integer"),
    ("julia render --viewport nan,0,4", "argument --viewport: a viewport must be finite"),
    ("julia render --viewport 0,inf,4", "argument --viewport: a viewport must be finite"),
    ("julia render --viewport 0,0", "argument --viewport: a viewport must be three numbers"),
    ("julia render --viewport 0,0,0",
     "argument --viewport: a viewport width must be positive"),
    ("julia render --points -1", "argument --points: a point count must be at least 0"),
    ("julia render --burn-in x", "argument --burn-in: a burn-in must be an integer"),
    ("char kernel x0 --q 2 --kernel nan",
     "argument --kernel: a kernel must be id, ones or a JSON matrix, got 'nan'"),
    ("char group x0 --kernel '[[1, 1]'",
     "argument --kernel: a kernel must be id, ones or a JSON matrix"),
    ("""char kernel x0 --kernel '[[1, "a"], [1, 1]]'""",
     "argument --kernel: kernel entry 'a' is not a rational number"),
    ("""char group x0 --kernel '[["1/0", 1], [1, 1]]'""",
     "argument --kernel: kernel entry '1/0' is not a rational number"),
    ("char kernel x0 --kernel '[[1, 2], [3]]'",
     "argument --kernel: kernel must be square"),
    # the size of a well-formed kernel is checked against --q by the library
    ("char kernel x0 --q 3 --kernel '[[1, 0], [0, 1]]'",
     "error: kernel size does not match the alphabet"),
    # a portrait of more than 100,000 nodes, (q^(d+1) - 1)/(q - 1) at depth
    # d, is refused before any fold, even at a depth beyond Python's
    # recursion limit; depth 16 at q = 2 and depth 11 at q = 3 are the first
    # past the bound
    (f"group portrait x1 --depth {2 * sys.getrecursionlimit()} --q 2",
     "nodes, more than 100000"),
    ("group portrait x1 --depth 16 --q 2",
     "a portrait of depth 16 at q=2 has (q^(depth+1) - 1)/(q - 1) nodes, "
     "more than 100000"),
    ("group portrait x1 --depth 11 --q 3",
     "a portrait of depth 11 at q=3 has (q^(depth+1) - 1)/(q - 1) nodes, "
     "more than 100000"),
])
def test_input_out_of_bounds_exits_1_naming_its_bound(capsys, argv, reason):
    code, out, err = run(capsys, *shlex.split(argv))
    assert code == 1 and out == ""
    assert err.startswith(("usage: tmss", "error:"))
    assert reason in err and "letter" not in err
    assert "Traceback" not in err


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "lemma-infinitesimal",
                       "--q", "2", "--kmax", "3")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "2/2 checks passed"


@pytest.mark.parametrize("suite, names", [
    ("all", [name for name, _ in verification.ALL_CHECKS]),
    ("lemma-tm", ["substitution-diagonal"]),
    ("lemma-infinitesimal", ["tower-values", "base-values"]),
    ("lemma-additive", ["sigma-additivity"]),
    ("presentation", ["word-problem", "algebra-relations"]),
    ("counting", ["counting-defect"]),
])
def test_each_verify_suite_runs_its_checks_in_table_order(capsys, suite, names):
    registered = {check: name for name, check in verification.ALL_CHECKS}
    assert [registered[check] for check in verification.SUITES[suite]] == names
    code, out, _ = run(capsys, "verify", suite)
    lines = out.splitlines()
    assert code == 0
    assert [line.split(":")[0] for line in lines[:-1]] == [
        f"PASS {name}" for name in names]
    assert lines[-1] == f"{len(names)}/{len(names)} checks passed"


def tour_examples():
    """Each ``$ tmss`` line of README's command-line tour, as its arguments
    and the lines the README shows it printing."""
    tour = README.read_text().split("## Command line tour")[1].split("\n## ")[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", tour, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("$ tmss "):
                examples.append((shlex.split(line[len("$ tmss "):]), []))
            else:
                examples[-1][1].append(line)
    # the julia render example is left out: it writes the image file it names
    return [(argv, shown) for argv, shown in examples if argv[0] != "julia"]


TOUR = tour_examples()


def test_the_tour_test_reads_every_example():
    assert len(TOUR) == 19


@pytest.mark.parametrize("argv, shown", TOUR,
                         ids=[" ".join(argv) for argv, _ in TOUR])
def test_the_readme_tour_prints_what_it_shows(capsys, argv, shown):
    main(argv)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(shown)
    for line, want in zip(printed, shown):
        # a shown line that ends in "..." stands for any line it begins
        if want.endswith("..."):
            assert line.startswith(want[:-3])
        else:
            assert line == want


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("argv", [
    ["verify", "bogus"],
    ["char", "spread"],
    ["char", "spread", "x0", "--q", "abc"],
    ["char", "spread", "x0", "--ring", "R"],
    [],
])
def test_usage_errors_exit_1_with_usage_and_no_traceback(capsys, argv):
    # exit 2 is kept for an exhausted budget
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: tmss") and "error:" in err
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "char", "spread", "--help")
    assert code == 0 and out.startswith("usage: tmss char spread")


# Positional arguments that let each subcommand parse, and the flags it
# takes of the nine that every subcommand but ``verify`` once shared.
BASE = {"--q", "--json"}
ALGEBRA = BASE | {"--ring", "--mode"}
GROUP = BASE | {"--preset"}
CAPPED = GROUP | {"--cap-states"}
EXACT = ALGEBRA | {"--cap-classes"}
SUBCOMMANDS = {
    ("word", "prefix"): (["4"], BASE),
    ("word", "subst"): (["x0"], BASE),
    ("word", "gamma"): (["x0"], BASE),
    ("group", "decompose"): (["x0"], GROUP),
    ("group", "act"): (["x0", "0"], GROUP),
    ("group", "section"): (["x0", "0"], GROUP),
    ("group", "portrait"): (["x0"], GROUP | {"--depth"}),
    ("group", "trivial"): (["x0"], CAPPED),
    ("group", "equal"): (["x0", "x0"], CAPPED),
    ("group", "order"): (["x0"], CAPPED),
    ("group", "moved"): (["x0"], CAPPED),
    ("group", "nucleus"): ([], CAPPED),
    ("group", "bounded"): (["x0"], CAPPED | {"--depth"}),
    ("algebra", "phi"): (["x0"], ALGEBRA),
    ("algebra", "star"): (["x0"], ALGEBRA),
    ("algebra", "sigma"): (["x0", "x1"], ALGEBRA),
    ("algebra", "omega"): ([], ALGEBRA),
    ("algebra", "zero"): (["x0"], ALGEBRA | {"--depth"}),
    ("algebra", "cdepth"): (["x0"], ALGEBRA | {"--depth"}),
    ("algebra", "rcbound"): (["x0"], ALGEBRA | {"--depth"}),
    ("char", "spread"): (["x0"], EXACT),
    ("char", "kernel"): (["x0"], EXACT),
    ("char", "count"): (["x0", "3"], EXACT),
    ("char", "growth"): (["x0"], EXACT),
    ("char", "additivity"): (["x0", "x1"], EXACT),
    ("char", "witness"): (["2/9"], EXACT),
    ("char", "group"): (["x0"], GROUP | {"--cap-classes"}),
    ("julia", "render"): ([], {"--seed"}),
    ("verify",): (["lemma-tm"], {"--q"}),
}
# a value for each flag and the attribute it parses to
SHARED_FLAGS = {
    "--q": (["3"], "q", 3),
    "--json": ([], "json", True),
    "--ring": (["Z"], "ring", INTEGERS),
    "--mode": (["A"], "mode", "A"),
    "--preset": (["inverted"], "preset", "inverted"),
    "--cap-states": (["5"], "cap_states", 5),
    "--cap-classes": (["5"], "cap_classes", 5),
    "--depth": (["2"], "depth", 2),
    "--seed": (["7"], "seed", 7),
}


def walk_subcommands(parser, path=()):
    """Every leaf subcommand of ``parser``, as its path of names."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path
    for action in subs:
        for name, child in action.choices.items():
            yield from walk_subcommands(child, path + (name,))


def test_the_flag_table_lists_every_subcommand():
    assert set(walk_subcommands(build_parser())) == set(SUBCOMMANDS)
    # 110 slots on the 28 subcommands that once shared every flag
    assert sum(len(flags) for path, (_, flags) in SUBCOMMANDS.items()
               if path != ("verify",)) == 110


@pytest.mark.parametrize("flag", sorted(SHARED_FLAGS))
@pytest.mark.parametrize("path", sorted(SUBCOMMANDS),
                         ids=lambda path: " ".join(path))
def test_a_subcommand_takes_exactly_its_shared_flags(capsys, path, flag):
    positionals, takes = SUBCOMMANDS[path]
    value, dest, parsed = SHARED_FLAGS[flag]
    argv = [*path, *positionals, flag, *value]
    if flag in takes:
        assert getattr(build_parser().parse_args(argv), dest) == parsed
    else:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        # under the subcommand's own usage line, not the top-level one
        assert err.startswith(" ".join(("usage: tmss", *path, "[-h]")))
        assert "error: unrecognized arguments" in err
        assert "Traceback" not in err


def test_a_stray_flag_is_reported_under_its_subcommand(capsys):
    code, out, err = run(capsys, "char", "spread", "x0", "--depth", "3")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: tmss char spread [-h]")
    assert lines[-1] == "tmss char spread: error: unrecognized arguments: --depth 3"


@pytest.mark.parametrize("path", [(), *sorted(SUBCOMMANDS)],
                         ids=lambda path: " ".join(path) or "tmss")
def test_every_subcommand_help_exits_0(capsys, path):
    code, out, err = run(capsys, *path, "--help")
    assert code == 0 and err == ""
    assert out.startswith(" ".join(("usage: tmss", *path)))


def declared_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]["scripts"]


def artifact_installed():
    try:
        md.distribution("artifact")
    except md.PackageNotFoundError:
        return False
    return True


def test_console_script_is_registered(capsys):
    # Checked from the declaration, not from installed metadata: the suite
    # runs from a checkout with PYTHONPATH=src, where nothing is installed.
    value = declared_scripts().get("tmss")
    assert value == "tmss.cli:main"
    # The same resolution that the installed script wrapper performs.
    script = md.EntryPoint(name="tmss", value=value,
                           group="console_scripts").load()
    assert script(["word", "prefix", "4"]) == 0
    assert capsys.readouterr().out.strip() == "0110"


@pytest.mark.skipif(not artifact_installed(),
                    reason="distribution 'artifact' is not installed "
                           "(pip install -e .)")
def test_installed_console_scripts_match_declaration():
    installed = {e.name: e.value
                 for e in md.distribution("artifact").entry_points
                 if e.group == "console_scripts"}
    assert installed == declared_scripts()
