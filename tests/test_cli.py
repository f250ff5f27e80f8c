import json
import os
import pathlib
import subprocess
import sys

import pytest

from gkmlef import catalog
from gkmlef.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_su3(capsys):
    code, out, _ = run(capsys, "analyze", "--example", "su3", "--xi", "-1,1")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["profile"]["level_constants"] == ["-2", "-1", "1", "2"]
    assert report["profile"]["betti"] == [1, 0, 2, 0, 2, 0, 1]
    assert report["hard_lefschetz"]["holds"] is True


def test_analyze_so5_scale2(capsys):
    code, out, _ = run(capsys, "analyze", "--example", "so5",
                       "--scale", "2", "--xi", "-1,3")
    assert code == 0
    report = json.loads(out)
    assert report["self_indexing_normalizer"] == ["1/2", "3"]


def test_analyze_hirzebruch_exit_2(capsys):
    code, out, _ = run(capsys, "analyze", "--example", "hirzebruch1")
    assert code == 2
    report = json.loads(out)
    assert report["hypothesis"]["theorem_applicability"] == "not applicable"
    assert report["hard_lefschetz"]["holds"] is True  # verdict still reported


def test_analyze_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(bad), "--xi", "1")
    assert code == 1
    assert "error" in err


def test_analyze_nongeneric_xi_error(capsys):
    code, _, err = run(capsys, "analyze", "--example", "su3", "--xi", "1,1")
    assert code == 1
    assert "pairs to zero" in err


@pytest.mark.parametrize("argv, named", [
    (("analyze", "--example", "su3", "--format", "xml"), "--format"),
    (("analyze", "--example", "su3", "--xi"), "--xi"),
    (("analyze", "--example", "su3", "--xi", "--format", "text"), "--xi"),
    (("analyze", "--example", "su3", "--bogus"), "--bogus"),
    (("frobnicate",), "frobnicate"),
])
def test_usage_error_exit_1(capsys, argv, named):
    # exit 2 is reserved for analyze's failed-hypothesis report
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and named in err and "usage:" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_unknown_example_message_unquoted(capsys):
    code, _, err = run(capsys, "analyze", "--example", "nope")
    assert code == 1
    assert err.startswith("error: unknown catalog example 'nope'")
    # a catalog number is ASCII digits with no leading zero, and the name
    # takes no trailing newline (a Python regex's $ would allow one)
    for name in ("cp\u0661", "sphere_product\u0663", "hirzebruch\uff11", "cp01", "cp0",
                 "so5\n", "su3\n", "cp2\n"):
        code, out, err = run(capsys, "analyze", "--example", name)
        assert (code, out) == (1, "")
        assert err.startswith("error: unknown catalog example %r" % name), name


def test_zero_denominator_scale_is_an_input_error():
    # in a child process, so an uncaught exception would print its traceback
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "gkmlef.cli", "analyze", "--example", "so5",
                           "--scale", "1/0"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_report_determinism(capsys):
    _, out1, _ = run(capsys, "analyze", "--example", "su3")
    _, out2, _ = run(capsys, "analyze", "--example", "su3")
    assert out1 == out2


def test_text_format(capsys):
    code, out, _ = run(capsys, "analyze", "--example", "cp1", "--format", "text")
    assert code == 0
    assert "hard Lefschetz: holds" in out
    assert "semifree action: yes" in out


@pytest.mark.parametrize("example", ["su3", "hirzebruch1"])
def test_timings_add_one_key_to_the_json_and_one_line_to_the_text(capsys, example):
    code, plain, _ = run(capsys, "analyze", "--example", example)
    timed_code, timed, _ = run(capsys, "analyze", "--example", example, "--timings")
    assert timed_code == code
    report = json.loads(timed)
    assert timed == json.dumps(report, indent=2) + "\n"
    assert type(report.pop("timings")["total_seconds"]) is float
    assert report == json.loads(plain)
    _, text, _ = run(capsys, "analyze", "--example", example, "--format", "text")
    _, timed_text, _ = run(capsys, "analyze", "--example", example, "--format", "text",
                           "--timings")
    *head, last = timed_text.splitlines(keepends=True)
    assert "".join(head) == text
    assert last.startswith("timings: total_seconds ") and "timings" not in text


def test_shift_min(capsys):
    _, out, _ = run(capsys, "analyze", "--example", "su3", "--shift-min")
    report = json.loads(out)
    assert report["profile"]["level_constants"] == ["0", "1", "3", "4"]
    assert report["profile"]["min_shift"] == "-2"


def test_validate_good(capsys):
    code, out, _ = run(capsys, "validate", "--example", "su3")
    assert code == 0
    assert "verdict: valid" in out
    assert "FAIL" not in out


def test_validate_names_bad_edge(capsys, tmp_path):
    entry = catalog.get("su3")
    doc = json.loads(entry.document)
    doc["edges"][0]["weight"] = [1, 1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "FAIL edge-parallel-to-positions" in out
    assert "verdict: invalid" in out


def _empty_document(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"rank": 1, "dimension": 2, "vertices": [], "edges": []}')
    return str(path)


def test_validate_fails_a_document_with_no_vertices(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", _empty_document(tmp_path))
    assert code == 0
    assert "FAIL graph-connected: the document has no vertices\n" in out
    assert out.endswith("verdict: invalid\n")


def test_analyze_refuses_a_document_with_no_vertices(capsys, tmp_path):
    # refused by parse_gkm, before restrict_to_circle looks for a minimum
    code, out, err = run(capsys, "analyze", _empty_document(tmp_path))
    assert (code, out, err) == (1, "", "error: graph-connected: the document has no vertices\n")


def test_render_su3(capsys, tmp_path):
    out_path = tmp_path / "img.svg"
    code, _, _ = run(capsys, "render", "--example", "su3", "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert svg.count("<circle") == 6
    assert svg.count("<line") == 9 + 1  # edges + xi arrow
    assert "xi = (-1, 1)" in svg


def test_render_determinism(capsys):
    _, out1, _ = run(capsys, "render", "--example", "so5")
    _, out2, _ = run(capsys, "render", "--example", "so5")
    assert out1 == out2
    assert out1.count("<circle") == 4
    assert out1.count("<line") == 6 + 1


def test_render_rank3_needs_projection(capsys):
    code, _, err = run(capsys, "render", "--example", "cp3")
    assert code == 1
    assert "projection" in err
    code, out, _ = run(capsys, "render", "--example", "cp3",
                       "--projection", "1,0,0;0,1,0")
    assert code == 0
    assert out.count("<circle") == 4
    # a given projection is checked on rank-2 inputs too
    code, _, err = run(capsys, "render", "--example", "su3", "--projection", "1,0")
    assert code == 1
    assert "projection" in err


def test_render_projection_with_a_leading_minus(capsys):
    # "--projection -1,..." is the value, as in the "=" form
    code, out, err = run(capsys, "render", "--example", "cp3", "--projection", "-1,0,0;0,1,0")
    assert (code, err) == (0, "")
    assert out.count("<circle") == 4
    assert run(capsys, "render", "--example", "cp3", "--projection=-1,0,0;0,1,0") == (0, out, "")


def test_analyze_scale_with_a_leading_minus(capsys):
    # the value reaches the catalog, which refuses it by name, as in the "=" form
    code, out, err = run(capsys, "analyze", "--example", "so5", "--scale", "-1/2")
    assert (code, out, err) == (1, "", "error: scale must be positive\n")
    assert run(capsys, "analyze", "--example", "so5", "--scale=-1/2") == (code, out, err)
    # a positive scale and a negative xi fold side by side
    code, out, _ = run(capsys, "analyze", "--example", "so5", "--scale", "1/2",
                       "--xi", "-1,3", "--format", "text")
    assert code == 0 and "index 2: P  (mu = -1/2)" in out


@pytest.mark.parametrize("argv, message", [
    (("analyze", "--example", "su3", "--xi="), "bad --xi ''"),
    (("analyze", "--example", "su3", "--xi", ""), "bad --xi ''"),
    (("render", "--example", "su3", "--xi="), "bad --xi ''"),
    (("analyze", "--example", "su3", "--scale="), "not a rational literal: ''"),
    (("analyze", "--example", "so5", "--scale="), "not a rational literal: ''"),
    (("render", "--example", "cp3", "--projection="), "not a rational literal: ''"),
    (("analyze", "--example="), "unknown catalog example ''"),
])
def test_an_empty_option_value_is_an_error(capsys, argv, message):
    # an empty value is malformed, not absent: no default takes its place
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: " + message)


@pytest.mark.parametrize("xi", ["-1_0,1_1", "+1,1", "1, 1", " -1,1", "-1,１", "-1,1,", "-1,1.0"])
def test_xi_entries_are_plain_decimal_integers(capsys, xi):
    # int() would read "-1_0" as -10, "+1" and " 1" as 1, and a fullwidth digit
    code, out, err = run(capsys, "analyze", "--example", "su3", "--xi", xi)
    assert (code, out) == (1, "")
    assert err == "error: bad --xi %r: expected comma-separated integers\n" % xi
    assert run(capsys, "analyze", "--example", "su3", "--xi=" + xi) == (code, out, err)


@pytest.mark.parametrize("argv, literal", [
    (("analyze", "--example", "so5", "--scale", "\uff13"), "\uff13"),
    (("analyze", "--example", "so5", "--scale", "1/\u0662"), "1/\u0662"),
    (("render", "--example", "cp3", "--projection", "1,0,0;0,\u0661,0"), "\u0661"),
])
def test_rational_options_take_ascii_digits_only(capsys, argv, literal):
    # int() reads a fullwidth or Arabic-Indic digit; --scale and --projection
    # refuse them as --xi does
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: not a rational literal: %r\n" % literal


@pytest.mark.parametrize("command", ["analyze", "render", "validate"])
def test_scale_with_a_document_path_is_an_error(capsys, tmp_path, command):
    # --scale rescales a catalog example; a document is read as written
    path = tmp_path / "su3.json"
    path.write_text(catalog.get("su3").document)
    assert run(capsys, command, str(path), "--xi", "-1,1")[0] == 0
    code, out, err = run(capsys, command, str(path), "--xi", "-1,1", "--scale", "7")
    assert (code, out, err) == (1, "", "error: --scale applies only to --example\n")
