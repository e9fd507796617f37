"""Command line round trips through tmss.cli.main."""

import importlib.metadata as md
import json
from pathlib import Path

import pytest

from tmss.cli import build_parser, main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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


def test_char_spread_json(capsys):
    code, out, _ = run(capsys, "char", "spread", "1 - x0 x0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2" and payload["num"] == 2
    assert payload["den"] == 1 and payload["classes_used"] > 0


def test_char_kernel_reports_psd(capsys):
    code, out, _ = run(capsys, "char", "kernel", "1 - x0", "--kernel", "ones",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2"
    assert payload["kernel_psd"] == {"symmetric": True, "psd": True}


def test_char_group(capsys):
    code, out, _ = run(capsys, "char", "group", "x0")
    assert code == 0 and out == "0"


def test_char_count(capsys):
    code, out, _ = run(capsys, "char", "count", "1 - x0", "3")
    assert code == 0 and out == "16"


def test_char_growth(capsys):
    code, out, _ = run(capsys, "char", "growth", "1 - x0")
    assert code == 0 and out == "0 stable=True"


def test_char_witness(capsys):
    code, out, _ = run(capsys, "char", "witness", "2/9", "--q", "3")
    assert code == 0 and out == "1 - x0^27"


def test_char_witness_not_found(capsys):
    code, out, _ = run(capsys, "char", "witness", "1/3", "--q", "3")
    assert code == 2 and "NotFound" in out


def test_char_witness_zero_denominator_exits_1(capsys):
    code, out, err = run(capsys, "char", "witness", "1/0")
    assert code == 1 and out == "" and err.startswith("error:")


def test_char_count_class_cap_exits_2(capsys):
    code, out, err = run(capsys, "char", "count", "1 - x0", "30",
                         "--cap-classes", "2")
    assert code == 2 and out == "" and err.startswith("unknown:")


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


def test_julia_render(tmp_path, capsys):
    target = tmp_path / "small.pgm"
    code, out, _ = run(capsys, "julia", "render", "--map", "z2",
                       "--out", str(target), "--points", "500",
                       "--pixels", "32,32")
    assert code == 0 and "wrote" in out
    blob = target.read_bytes()
    assert blob.startswith(b"P5\n32 32\n255\n")
    assert len(blob) == len(b"P5\n32 32\n255\n") + 32 * 32


def test_julia_unknown_map(capsys):
    code, _, err = run(capsys, "julia", "render", "--map", "nope")
    assert code == 1 and "presets" in err


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "lemma-infinitesimal",
                       "--q", "2", "--kmax", "3")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "2/2 checks passed"


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


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
