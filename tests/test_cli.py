import json
from pathlib import Path

import pytest

from pathspectra import zoo
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


def test_count_bad_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, _ = run(capsys, "count", str(bad), "--direction", "1,1,1")
    assert code == 1
    code, _, _ = run(capsys, "count", str(tmp_path / "missing.json"), "--direction", "1")
    assert code == 1


def test_float_backend_reads_fraction_strings(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.lopsided_cube(3))
    assert "/" in Path(path).read_text()  # the file holds "p/q" strings
    tables = []
    for backend in ("rational", "float"):
        code, out, _ = run(capsys, "--backend", backend, "count", path, "--direction", "1,1,1")
        assert code == 0
        tables.append(parse_csv(out)[0])
    assert tables[0] == tables[1] == ["length,count", "2,2", "4,4"]


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("number", ["abc", "1/0"])
def test_bad_number_string_exits_1(number, backend, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [0, number]]}))
    code, _, err = run(capsys, "--backend", backend, "count", str(bad), "--direction", "1,2")
    assert code == 1
    assert err.startswith("input error:")


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


@pytest.mark.parametrize("name, P, direction", [
    ("lopsided3", zoo.lopsided_cube(3), "1,1,1"),
    ("cyclic4-8", zoo.cyclic(4, range(1, 9)), "1,0,0,0"),
])
def test_coherent_output_matches_recorded_certificates(name, P, direction, tmp_path, capsys):
    data = Path(__file__).parent / "data"
    certs = tmp_path / "certs.json"
    code, out, _ = run(capsys, "coherent", write_poly(tmp_path, P), "--direction", direction,
                       "--certificates", str(certs))
    assert code == 0
    table = "".join(line + "\n" for line in out.splitlines()
                    if not line.startswith("# manifest:"))
    assert table == (data / f"coherent_{name}.csv").read_text()
    recorded = json.dumps(json.loads(certs.read_text())["certificates"], indent=2) + "\n"
    assert recorded == (data / f"coherent_{name}.certs.json").read_text()


def test_coherent_complex_x4(tmp_path, capsys):
    path = write_poly(tmp_path, zoo.fixture("complex-x4").polytope)
    code, out, _ = run(capsys, "coherent", path, "--direction", "2,4,8,16")
    assert code == 0
    rows, _ = parse_csv(out)
    assert rows[1:] == ["1,1", "2,4", "3,4", "4,5", "5,2"]


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

    def tampered(name):
        F = real(name)
        F.expected_monotone = LengthSpectrum({2: 123456})
        return F

    monkeypatch.setattr(zoomod, "fixture", tampered)
    code, out, err = run(capsys, "verify", "lopsided3")
    assert code == 3
    assert "expected" in out or "expected" in err


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
