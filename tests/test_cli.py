import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from pathspectra import Polytope, cli, exactgeom, zoo
from pathspectra.cli import main
from pathspectra.pathcount import LengthSpectrum


def write_poly(tmp_path, P, name="poly.json"):
    path = tmp_path / name
    path.write_text(P.to_json())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    comments = [l for l in text.splitlines() if l.startswith("#")]
    return rows, comments


def test_count_cube3(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.cube(3))
    code, out, _ = run(capsys, "count", path, "--direction", "1,1,1")
    assert code == 0
    rows, comments = parse_csv(out)
    assert rows == ["length,count", "3,6"]
    assert any("manifest" in c for c in comments)
    assert any("analytics" in c for c in comments)


def test_count_p10_analytics(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.p10())
    code, out, _ = run(capsys, "count", path, "--direction", "1,0,0")
    assert code == 0
    rows, comments = parse_csv(out)
    assert rows[0] == "length,count"
    assert rows[1:] == ["2,3", "3,8", "4,12", "5,11", "6,12", "7,6", "8,1"]
    analytics = json.loads(
        [c for c in comments if c.startswith("# analytics:")][0].split(": ", 1)[1])
    assert analytics["unimodal"] is False


def test_count_level_direction_exits_2(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.cube(3))
    code, _, err = run(capsys, "count", path, "--direction", "1,1,0")
    assert code == 2
    assert "level" in err


def test_level_direction_message_prints_plain_numbers(tmp_path, capsys):
    path = write_poly(tmp_path, Polytope([(0, 0), (1, 0)]))
    code, _, err = run(capsys, "count", path, "--direction", "0,1")
    assert code == 2
    assert "Fraction(" not in err
    assert "direction (0, 1) is level on edge (0, 1)" in err


@pytest.mark.parametrize("vertices, message", [
    ([[0, 0], [1, 0], [0, 1], [1, 0]], "duplicate vertex (1, 0)"),
    ([[0, 0], [1, 0], [0, 1], ["1/3", "1/3"]], "point (1/3, 1/3) is not a vertex of the hull"),
], ids=["duplicate", "interior"])
def test_validation_messages_print_plain_numbers(tmp_path, capsys, vertices, message):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"dim": 2, "vertices": vertices}))
    code, out, err = run(capsys, "count", str(path), "--direction", "1,2")
    assert code == 1
    assert out == ""
    assert "Fraction(" not in err
    assert message in err


def test_count_bad_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, _ = run(capsys, "count", str(bad), "--direction", "1,1,1")
    assert code == 1
    code, _, _ = run(capsys, "count", str(tmp_path / "missing.json"), "--direction", "1")
    assert code == 1
    for vertices in ("[1, 2]", "5"):
        bad.write_text(f'{{"dim": 1, "vertices": {vertices}}}')
        code, _, err = run(capsys, "count", str(bad), "--direction", "1")
        assert code == 1
        assert err.startswith("input error:")
    bad.write_text('{"dim": 2, "vertices": [[0, 0], [1, 0], [0, true]]}')
    code, _, err = run(capsys, "count", str(bad), "--direction", "1,2")
    assert code == 1
    assert err.startswith("input error:")


def test_polytope_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b'\xff\xfe{\x00"\x00d\x00')
    code, out, err = run(capsys, "count", str(bad), "--direction", "1")
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: cannot read {bad}:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["count", "coherent"])
def test_polytope_file_is_read_once_and_its_digest_is_of_those_bytes(command, tmp_path,
                                                                     capsys, monkeypatch):
    path = write_poly(tmp_path, zoo.cross_polytope(3))
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    code, out, _ = run(capsys, command, path, "--direction", "1,2,3")
    assert code == 0
    assert opened.count(path) == 1
    manifest = json.loads(parse_csv(out)[1][0].split(": ", 1)[1])
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert manifest["input_digests"] == {path: digest}


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_polytope_file_line_endings_read_as_in_text_mode(newline, tmp_path, capsys):
    """Any line ending reads as "\\n", as text mode reads it: the table, and
    the position that a JSON error names, are those of the "\\n" file."""
    path = tmp_path / "poly.json"
    text = json.dumps(json.loads(zoo.cube(3).to_json()), indent=1) + "\n"
    for body, code in ((text, 0), ('{"dim": 1,\n "vertices": [[0], [1]\n', 1)):
        outputs = []
        for ending in ("\n", newline):
            path.write_bytes(body.replace("\n", ending).encode())
            got, out, err = run(capsys, "count", str(path), "--direction", "1,2,3")
            outputs.append((got, parse_csv(out)[0], err))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == code


def test_unwritable_out_exits_1(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.simplex(3))
    target = str(tmp_path / "missing" / "x.csv")
    code, _, err = run(capsys, "--out", target, "count", path, "--direction", "1,2,3")
    assert code == 1
    assert err.startswith(f"input error: cannot write {target}:")


def test_unwritable_certificates_exit_1(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.simplex(3))
    target = str(tmp_path / "missing" / "c.json")
    code, _, err = run(capsys, "coherent", path, "--direction", "1,2,3",
                       "--certificates", target)
    assert code == 1
    assert err.startswith(f"input error: cannot write {target}:")


def test_cli_import_leaves_scipy_stats_unloaded():
    """The CLI's imports, and the HiGHS handle, do not pull in scipy.stats."""
    src = str(Path(exactgeom.__file__).parents[1])
    probe = ("import sys\n"
             "from pathspectra import cli, exactgeom\n"
             "exactgeom._highs()\n"
             "print('scipy.stats' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          stdout=subprocess.PIPE, text=True, check=True)
    assert proc.stdout == "False\n"


def test_cli_import_leaves_scipy_integrate_unloaded():
    """The cap measure is closed form, so no import pulls in scipy.integrate."""
    src = str(Path(exactgeom.__file__).parents[1])
    probe = ("import sys\n"
             "from pathspectra import cli\n"
             "print('scipy.integrate' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          stdout=subprocess.PIPE, text=True, check=True)
    assert proc.stdout == "False\n"


def test_cold_start_loads_only_the_scipy_a_command_runs(tmp_path):
    """The HiGHS handle and `simulate` load none of scipy's heavy packages,
    and neither do building a polytope, whose facets are proposed in exact
    arithmetic, and one `count` and one `coherent` on it."""
    src = str(Path(exactgeom.__file__).parents[1])
    path = tmp_path / "cross3.json"
    probe = ("import contextlib, io, sys\n"
             "from pathspectra import cli, exactgeom, zoo\n"
             "exactgeom._highs()\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert cli.main(['--seed', '7', 'simulate', '--d', '5', '--n', '1000',\n"
             "                     '--trials', '20']) == 0\n"
             "heavy = ('scipy.optimize', 'scipy.spatial', 'scipy.special', 'scipy.sparse',\n"
             "         'scipy.linalg')\n"
             "print([m for m in heavy if m in sys.modules])\n"
             f"path = {str(path)!r}\n"
             "with open(path, 'w') as fh:\n"
             "    fh.write(zoo.cross_polytope(3).to_json())\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    for command in ('count', 'coherent'):\n"
             "        assert cli.main([command, '--direction', '1,2,3', path]) == 0\n"
             "print([m for m in heavy if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          stdout=subprocess.PIPE, text=True, check=True)
    assert proc.stdout == "[]\n[]\n"


def test_cli_import_builds_no_parser():
    """The parser is built by the first command, not at import, so a cold
    start that runs no command pays nothing for it."""
    src = str(Path(exactgeom.__file__).parents[1])
    probe = ("import argparse\n"
             "built = []\n"
             "real = argparse.ArgumentParser.__init__\n"
             "def counting_init(self, *args, **kwargs):\n"
             "    built.append(1)\n"
             "    real(self, *args, **kwargs)\n"
             "argparse.ArgumentParser.__init__ = counting_init\n"
             "from pathspectra import cli\n"
             "print(len(built), cli.build_parser.cache_info().currsize)\n"
             "cli.build_parser()\n"
             "print(len(built) > 0, cli.build_parser.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          stdout=subprocess.PIPE, text=True, check=True)
    assert proc.stdout == "0 0\nTrue 1\n"


def test_float_backend_reads_fraction_strings(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.lopsided_cube(3))
    assert "/" in Path(path).read_text()  # the file holds "p/q" strings
    tables = []
    for backend in ("rational", "float"):
        code, out, _ = run(capsys, "--backend", backend, "count", path, "--direction", "1,1,1")
        assert code == 0
        tables.append(parse_csv(out)[0])
    assert tables[0] == ["length,count", "2,2", "4,4"]
    # 1/3 rounds down to its double, so the face {1, 4, 5, 7} is no longer
    # planar: it bends along the new edge (1, 7), which adds a path of length 3
    assert tables[1] == ["length,count", "2,2", "3,1", "4,4"]


def test_float_backend_rounds_before_validation(tmp_path, capsys):
    # (1/10, 9/10) lies on the edge x + y = 1; both its doubles lie above
    # their rationals, so only the rounded point is a vertex
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], ["1/10", "9/10"]]}))
    code, _, err = run(capsys, "count", str(path), "--direction", "1,2")
    assert code == 1 and "not a vertex" in err
    code, out, _ = run(capsys, "--backend", "float", "count", str(path), "--direction", "1,2")
    assert code == 0
    rows, comments = parse_csv(out)
    assert rows[1:] == ["1,1", "3,1"]
    assert '"backend": "float"' in comments[0]


def test_float_backend_coherent_decides_incoherent_paths(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.cross_polytope(4))
    code, out, err = run(capsys, "--backend", "float", "coherent", path,
                         "--direction", "1,2,3,4")
    assert code == 0, err
    assert parse_csv(out)[0][1:] == ["2,6", "3,12", "4,8"]


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("number", ["abc", "1/0"])
def test_bad_number_string_exits_1(number, backend, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [0, number]]}))
    code, _, err = run(capsys, "--backend", backend, "count", str(bad), "--direction", "1,2")
    assert code == 1
    assert err.startswith("input error:")


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_non_finite_number_exits_1(backend, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "vertices": [[0, 0], [1, 0], [0, Infinity]]}')
    code, _, err = run(capsys, "--backend", backend, "count", str(bad), "--direction", "1,2")
    assert code == 1
    assert err.startswith("input error:")


_HUGE = 10**400


@pytest.mark.parametrize("argv, message", [
    (["count", "{cross3}", "--direction", "1,x,3"], "bad direction '1,x,3': "),
    (["--backend", "float", "count", "{huge}", "--direction", "1"],
     f"{_HUGE} does not fit a double\n"),
    (["zoo", "emit", "nosuch"], "unknown zoo name 'nosuch'\n"),
], ids=["direction", "double", "zoo-name"])
def test_input_error_exits_1_with_its_message(argv, message, tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"dim": 1, "vertices": [[0], [_HUGE]]}))
    files = {"cross3": write_poly(tmp_path, zoo.cross_polytope(3)), "huge": str(huge)}
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("input error: " + message)


def test_count_dimension_mismatch_exits_1(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.cube(3))
    code, _, _ = run(capsys, "count", path, "--direction", "1,1")
    assert code == 1


def test_coherent_cross3_with_sampling(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.cross_polytope(3))
    certs = tmp_path / "certs.json"
    code, out, _ = run(capsys, "coherent", path, "--direction", "1,2,3",
                       "--sample", "50", "--certificates", str(certs))
    assert code == 0
    rows, comments = parse_csv(out)
    assert rows[1:] == ["2,4", "3,4"]
    summary = json.loads(
        [c for c in comments if c.startswith("# summary:")][0].split(": ", 1)[1])
    assert summary["total"] == "8"
    assert summary["sample_contained"] is True
    data = json.loads(certs.read_text())
    assert len(data["certificates"]) == 8
    assert all("omega" in c and "margin" in c for c in data["certificates"])


def test_coherent_sampling_keeps_dropped_level_ties(tmp_path, capsys):
    """The sampler walks the graph `--allow-level-ties` oriented, so it drops
    the same level edges instead of rejecting the direction."""
    path = write_poly(tmp_path, zoo.s_hypersimplex(4, [2, 4]))
    flags = ("coherent", path, "--direction", "1,1,1,1", "--allow-level-ties")
    code, out, err = run(capsys, *flags)
    assert code == 0, err
    assert parse_csv(out)[0][1:] == ["2,6"]
    code, out, err = run(capsys, *flags, "--sample", "10")
    assert code == 0, err
    rows, comments = parse_csv(out)
    assert rows[1:] == ["2,6"]
    summary = json.loads(
        [c for c in comments if c.startswith("# summary:")][0].split(": ", 1)[1])
    assert summary["sample_contained"] is True


@pytest.mark.parametrize("name, P, direction", [
    ("lopsided3", zoo.lopsided_cube(3), "1,1,1"),
    ("cyclic4-8", zoo.cyclic(4, range(1, 9)), "1,0,0,0"),
    # rows above 2^53, which HiGHS takes scaled by powers of two
    ("p10-sphere", zoo.p10_spherical(), "1,2,3"),
    # a direction with denominators, cleared before omega is projected off it
    ("p10-fractional", zoo.p10(), "1,1/3,1/7"),
])
def test_coherent_output_matches_recorded_certificates(name, P, direction, tmp_path, capsys):
    assert_matches_recorded(f"coherent_{name}", P, direction, tmp_path, capsys)


def assert_matches_recorded(stem, P, direction, tmp_path, capsys):
    """`coherent --certificates` prints `tests/data/<stem>.csv` (less its
    manifest line) and writes the certificates of `<stem>.certs.json`."""
    data = Path(__file__).parent / "data"
    certs = tmp_path / "certs.json"
    code, out, _ = run(capsys, "coherent", write_poly(tmp_path, P), "--direction", direction,
                       "--certificates", str(certs))
    assert code == 0
    table = "".join(line + "\n" for line in out.splitlines()
                    if not line.startswith("# manifest:"))
    assert table == (data / f"{stem}.csv").read_text()
    recorded = json.dumps(json.loads(certs.read_text())["certificates"], indent=2) + "\n"
    assert recorded == (data / f"{stem}.certs.json").read_text()


@pytest.mark.parametrize("name, P, direction", [
    ("lopsided3", zoo.lopsided_cube(3), "1,1,1"),
    ("cyclic4-8", zoo.cyclic(4, range(1, 9)), "1,0,0,0"),
])
def test_exact_simplex_matches_recorded_certificates(name, P, direction, tmp_path, capsys,
                                                     highs_fails):
    """With every HiGHS call failing, each path's omega is the exact
    simplex's optimum, which pins its pivot order."""
    assert_matches_recorded(f"coherent_{name}.exact", P, direction, tmp_path, capsys)
    assert highs_fails


@pytest.mark.parametrize("name, P, direction", [
    ("lopsided3", zoo.lopsided_cube(3), "1,1,1"),
    ("cyclic4-8", zoo.cyclic(4, range(1, 9)), "1,0,0,0"),
])
def test_linprog_fallback_matches_recorded_certificates(name, P, direction, tmp_path,
                                                        capsys, monkeypatch):
    """Simulates a scipy without the private `scipy.optimize._highspy._core`
    (releases before it existed; `pyproject.toml` allows scipy >= 1.11):
    every LP then goes through linprog, with the same output.  On a scipy
    whose linprog needs `_core`, linprog is imported before `_core` is hidden."""
    import scipy.optimize  # noqa: F401 (linprog itself imports _core: load it first)
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    monkeypatch.setattr(exactgeom, "_highs_handle", None)
    assert exactgeom._highs()[0] is exactgeom._linprog_cone
    test_coherent_output_matches_recorded_certificates(name, P, direction, tmp_path, capsys)


def test_coherent_rejects_a_negative_sample_before_enumerating(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "coherent_paths", lambda *args, **kwargs: calls.append(args) or iter(()))
    path = write_poly(tmp_path, zoo.cross_polytope(3))
    code, out, err = run(capsys, "coherent", path, "--direction", "1,2,3", "--sample", "-1")
    assert (code, out, err) == (1, "", "input error: --sample must be nonnegative\n")
    assert calls == []


def test_python_dash_m_runs_the_cli(tmp_path):
    """`python -m pathspectra` runs the CLI from a plain checkout."""
    src = str(Path(exactgeom.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-m", "pathspectra", "zoo", "emit", "cube3"],
                          env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
                          stdout=subprocess.PIPE, text=True, check=True)
    assert Polytope.from_json(proc.stdout).vertices == zoo.cube(3).vertices


def test_coherent_complex_x4(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.fixture("complex-x4").polytope)
    code, out, _ = run(capsys, "coherent", path, "--direction", "2,4,8,16")
    assert code == 0
    rows, _ = parse_csv(out)
    assert rows[1:] == ["1,1", "2,4", "3,4", "4,5", "5,2"]


def test_coherent_on_a_polygon_with_paths_longer_than_the_recursion_limit(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.cyclic(2, range(1, 1201)))
    code, out, _ = run(capsys, "coherent", path, "--direction", "1,0")
    assert code == 0
    rows, _ = parse_csv(out)
    assert rows == ["length,count", "1,1", "1199,1"]


def test_verify_single_fixture(capsys):
    code, out, _ = run(capsys, "verify", "lopsided3")
    assert code == 0
    rows, _ = parse_csv(out)
    assert rows[0] == "fixture,expected,computed,status,source"
    assert rows[1].startswith("lopsided3,")
    assert ",pass," in rows[1]
    assert "2:2 4:4" in rows[1]


def test_verify_corrupted_expectation_exits_3(capsys, monkeypatch):
    import pathspectra.zoo as zoomod
    real = zoomod.fixture

    def tampered(name, data=None):
        F = real(name, data)
        F.expected_monotone = LengthSpectrum({2: 123456})
        return F

    monkeypatch.setattr(zoomod, "fixture", tampered)
    code, out, err = run(capsys, "verify", "lopsided3")
    assert code == 3
    assert "expected" in out or "expected" in err


@pytest.mark.parametrize("argv", [["verify", "cube3", "p10"], ["verify"],
                                  ["verify", "--all", "cube3"]])
def test_verify_parses_the_expectations_once(argv, capsys, monkeypatch):
    """One parse of `data/expectations.json` per command, and a fresh one
    for the next command."""
    real = zoo._expectations
    parses = []
    monkeypatch.setattr(zoo, "_expectations", lambda: parses.append(1) or real())
    for expected in (1, 2):
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(parses) == expected


@pytest.mark.parametrize("argv", [["zoo", "emit", "cube3"], ["zoo", "emit", "cyclic", "--d", "4", "--n", "7"],
                                  ["zoo", "list"]])
def test_zoo_parses_the_expectations_once(argv, capsys, monkeypatch):
    """`zoo emit` reads a fixture, or finds that the name is a family, from
    one parse of `data/expectations.json`, and `zoo list` lists from one."""
    real = zoo._expectations
    parses = []
    monkeypatch.setattr(zoo, "_expectations", lambda: parses.append(1) or real())
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(parses) == 1


def test_zoo_list_and_emit(tmp_path, capsys):
    code, out, _ = run(capsys, "zoo", "list")
    assert code == 0
    assert "p10" in out and "families" in out
    code, out, _ = run(capsys, "zoo", "emit", "cyclic", "--d", "4", "--n", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 4 and len(doc["vertices"]) == 7
    code, _, _ = run(capsys, "zoo", "emit", "cyclic")
    assert code == 1  # missing parameters


ZOO_LIST = """\
fixtures:
  ass5
  ass6
  complex-123-134-245-345
  complex-14-1235-2345
  complex-x4
  cross3
  cross4
  cube3
  hyp2-5
  lopsided3
  lopsided4
  lopsided5
  modified-lopsided3
  p10
  p10-sphere
  truncated-lopsided4
families:
  simplex --d D
  cube --d D
  cross --d D
  cyclic --d D --n N
  shyp --d D --s S1,S2,...
  hyp2 --d D
  lopsided --d D
  ass --n N
  prod --counts M1,M2
  complex --n N --facets F1,F2,...
"""


def test_zoo_list_is_pinned(capsys):
    assert run(capsys, "zoo", "list") == (0, ZOO_LIST, "")


# one small value per zoo emit option, as typed and as the constructor takes it
ZOO_VALUES = {"d": ("4", 4), "n": ("5", 5), "s": ("2,4", [2, 4]),
              "counts": ("2,3", [2, 3]), "facets": ("12,34", [(1, 2), (3, 4)])}


@pytest.mark.parametrize("name", sorted(zoo.FAMILIES))
def test_zoo_emit_family(name, capsys):
    """Every family emits its constructor's JSON, and a missing option is
    named as the first one missing in `zoo list` order."""
    line = next(l for l in ZOO_LIST.splitlines() if l.split()[0] == name)
    options = [word[2:] for word in line.split() if word.startswith("--")]
    build, table_options = zoo.FAMILIES[name]
    assert list(table_options) == options
    for r in range(1, len(options) + 1):
        for dropped in combinations(options, r):
            argv = [x for o in options if o not in dropped for x in (f"--{o}", ZOO_VALUES[o][0])]
            assert run(capsys, "zoo", "emit", name, *argv) == (
                1, "", f"input error: zoo emit {name} needs --{dropped[0]}\n")
    argv = [x for o in options for x in (f"--{o}", ZOO_VALUES[o][0])]
    expected = build(*(ZOO_VALUES[o][1] for o in options)).to_json() + "\n"
    assert run(capsys, "zoo", "emit", name, *argv) == (0, expected, "")


def test_zoo_list_writes_to_out(tmp_path, capsys):
    listing = tmp_path / "zoo.txt"
    code, out, _ = run(capsys, "zoo", "list", "--out", str(listing))
    assert code == 0 and out == ""
    assert listing.read_text().startswith("fixtures:\n")


def test_zoo_emit_shyp(capsys):
    code, out, _ = run(capsys, "zoo", "emit", "shyp", "--d", "4", "--s", "2,4")
    assert code == 0
    assert out == zoo.s_hypersimplex(4, [2, 4]).to_json() + "\n"


@pytest.mark.parametrize("argv", [
    ["prod", "--counts", "3,x"],
    ["complex", "--n", "4", "--facets", "12,3x"],
    ["shyp", "--d", "4", "--s", "2,x"],
], ids=["counts", "facets", "s"])
def test_malformed_integer_list_exits_1(argv, capsys):
    code, _, err = run(capsys, "zoo", "emit", *argv)
    assert code == 1
    assert err.startswith("input error:")


def test_readme_exact_engine_lines(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for line in ("zoo list",
                 "zoo emit lopsided --d 3 --out lop3.json",
                 "count lop3.json --direction 1,1,1",
                 "coherent lop3.json --direction 1,1,1 --sample 1000 --certificates certs.json"):
        code, _, err = run(capsys, *line.split())
        assert code == 0, (line, err)
    assert len(json.loads((tmp_path / "certs.json").read_text())["certificates"]) == 6


def test_emitted_fixture_round_trips_through_count(tmp_path, capsys):
    code, out, _ = run(capsys, "zoo", "emit", "lopsided", "--d", "3")
    poly = tmp_path / "lop3.json"
    poly.write_text(out)
    code, out, _ = run(capsys, "count", str(poly), "--direction", "1,1,1")
    assert code == 0
    rows, _ = parse_csv(out)
    assert rows[1:] == ["2,2", "4,4"]


def test_reruns_are_byte_identical(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.cube(3))
    out = tmp_path / "a.csv"
    assert main(["count", path, "--direction", "1,1,1", "--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(["count", path, "--direction", "1,1,1", "--out", str(out)]) == 0
    assert out.read_bytes() == first
    sim = tmp_path / "s.csv"
    flags = ["--seed", "5", "simulate", "--d", "4", "--n", "40",
             "--trials", "3", "--out", str(sim)]
    assert main(flags) == 0
    first = sim.read_bytes()
    assert main(flags) == 0
    assert sim.read_bytes() == first


# Runs each command of argv[1] (a JSON list) with pathspectra freshly
# imported, and prints one JSON list of [exit code, stdout, stderr, the text
# written to argv[2] or null] per command.
_ALONE_PROBE = """\
import contextlib, io, json, sys
from pathlib import Path
commands, out = json.loads(sys.argv[1]), Path(sys.argv[2])
results = []
for argv in commands:
    for name in [m for m in sys.modules if m.split(".")[0] == "pathspectra"]:
        del sys.modules[name]
    from pathspectra import cli
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, stdout.getvalue(), stderr.getvalue(),
                    out.read_text() if out.exists() else None])
print(json.dumps(results))
"""


def test_back_to_back_commands_are_independent(tmp_path, capsys, monkeypatch):
    """Commands run one after another in one process share one parser, and
    each prints what it prints alone, in a fresh import: no global option,
    given before or after the subcommand, and no argparse error carries to
    the next call."""
    poly = write_poly(tmp_path, zoo.cross_polytope(3))
    out = tmp_path / "out.json"
    commands = [
        ["--out", str(out), "--format", "json", "--stamp-time", "--seed", "5",
         "--backend", "float", "count", poly, "--direction", "1,2,3"],
        ["count", poly, "--direction", "1,2,3"],
        ["coherent", poly, "--direction", "1,2,3", "--seed", "5", "--backend", "float",
         "--format", "json", "--sample", "20"],
        ["coherent", poly, "--direction", "1,2,3", "--sample", "20"],
        ["verify", "cube3"],
        ["verify"],
        ["simulate", "--d", "3", "--n", "50", "--nosuch", "1"],
        ["simulate", "--d", "3", "--n", "50", "--trials", "2", "--seed", "9", "--stamp-time"],
        ["simulate", "--d", "3", "--n", "50", "--trials", "2"],
        ["zoo", "emit", "cube3", "--out", str(out)],
        ["zoo", "emit", "cube3"],
    ]
    stamp = re.compile(r'"timestamp": "(?!unset")[^"]*"')

    def unstamped(results):
        return [[code] + [None if t is None else stamp.sub('"timestamp": "<t>"', t)
                          for t in texts] for code, *texts in results]

    # argparse wraps its usage line to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(exactgeom.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _ALONE_PROBE, json.dumps(commands), str(out)],
                          env={**os.environ, "PYTHONPATH": src},
                          stdout=subprocess.PIPE, text=True, check=True)
    alone = unstamped(json.loads(proc.stdout))
    assert [a[0] for a in alone] == [0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0]

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    together = []
    for argv in commands:
        out.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        together.append([code, captured.out, captured.err,
                         out.read_text() if out.exists() else None])
    assert unstamped(together) == alone
    # the 11 commands built as many parsers as one build_parser() does
    commands_built = len(built)
    cli.build_parser.cache_clear()
    cli.build_parser()
    assert len(built) == 2 * commands_built > 0


def test_simulate_csv_shape(capsys):
    code, out, _ = run(capsys, "--seed", "3", "simulate", "--d", "6", "--n", "50", "--trials", "5")
    assert code == 0
    rows, comments = parse_csv(out)
    assert rows[0] == "trial,f0,f1_up,f1_low"
    assert len(rows) == 6
    for row in rows[1:]:
        _t, f0, up, low = map(int, row.split(","))
        assert up + low == f0
    assert any("summary" in c for c in comments)


def test_growth_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "--seed", "2", "growth",
                       "--d", "4", "--log2-min", "6", "--log2-max", "9",
                       "--trials", "30")
    assert code == 0
    doc = json.loads(out)
    assert "summary" in doc and "slope" in doc["summary"]
    assert len(doc["rows"]) == 4
    assert doc["manifest"]["timestamp"] == "unset"


def test_diffmoment_and_cltcheck_and_floatbody(capsys):
    code, out, _ = run(capsys, "--seed", "4", "diffmoment", "--d", "5", "--n", "100",
                       "--trials", "40", "--p", "2")
    assert code == 0
    rows, comments = parse_csv(out)
    assert rows[0] == "statistic,value"
    code, out, _ = run(capsys, "--seed", "4", "cltcheck", "--d", "5", "--n", "200",
                       "--trials", "50")
    assert code == 0
    summary = json.loads([c for c in parse_csv(out)[1]
                          if c.startswith("# summary:")][0].split(": ", 1)[1])
    assert summary["reliable"] is False
    code, out, _ = run(capsys, "--seed", "4", "floatbody", "--d", "5", "--n", "500",
                       "--trials", "20", "--c0", "1.25")
    assert code == 0
    rows, _ = parse_csv(out)
    assert len(rows) == 21


_MC_GOLDENS = {
    "mc_simulate_d3": "simulate --d 3 --n 100000 --trials 40",
    "mc_simulate_d5": "simulate --d 5 --n 10000 --trials 100",
    "mc_simulate_d8": "simulate --d 8 --n 100000 --trials 50",
    "mc_simulate_d22": "simulate --d 22 --n 100000 --trials 40",
    "mc_cltcheck_d5": "cltcheck --d 5 --n 100000 --trials 300",
    "mc_floatbody_d5": "floatbody --d 5 --n 10000 --trials 200 --c0 1.25",
    "mc_diffmoment_d5": "diffmoment --d 5 --n 400 --trials 300",
}


@pytest.mark.parametrize("stem", _MC_GOLDENS)
def test_monte_carlo_output_matches_recorded(stem, capsys):
    """Each Monte Carlo command at `--seed 7` prints `tests/data/<stem>.csv`,
    less its manifest line, byte for byte."""
    code, out, _ = run(capsys, "--seed", "7", *_MC_GOLDENS[stem].split())
    assert code == 0
    table = "".join(line + "\n" for line in out.splitlines()
                    if not line.startswith("# manifest:"))
    assert table == (Path(__file__).parent / "data" / f"{stem}.csv").read_text()


@pytest.mark.parametrize("c0", ["nan", "inf", "0", "-1"])
def test_floatbody_rejects_eps_outside_the_half_disk(capsys, c0):
    code, out, err = run(capsys, "--format", "json", "floatbody", "--d", "5", "--n", "100",
                         "--trials", "2", "--c0", c0)
    assert code == 1
    assert out == ""
    assert err.startswith("input error:")


@pytest.mark.parametrize("n", ["0", "-3"])
def test_floatbody_rejects_a_nonpositive_n(capsys, n):
    code, out, err = run(capsys, "floatbody", "--d", "5", "--n", n, "--trials", "2",
                         "--c0", "1")
    assert (code, out) == (1, "")
    assert err.startswith("input error:")


def test_diffmoment_needs_two_trials(capsys):
    code, out, err = run(capsys, "--format", "json", "diffmoment", "--d", "3", "--n", "10",
                         "--trials", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("input error:")


def test_cltcheck_needs_two_trials(capsys):
    code, out, err = run(capsys, "--format", "json", "cltcheck", "--d", "5", "--n", "50",
                         "--trials", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("input error:")
