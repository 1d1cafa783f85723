import json

import pytest

from instantons import cli, geometry
from instantons.cli import main


def run(argv):
    return main(argv)


def test_certify_example_writes_consistent_cert(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run(["certify", "--example", "degenerate-rank6", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["consistent"] is True
    assert obj["verdicts"]["nondegeneracy"]["status"] == "degenerate"
    assert obj["verdicts"]["modular"] is False
    assert obj["schema_version"] == 2


def test_certify_sampled_tensor(tmp_path):
    out = tmp_path / "c.json"
    code = run(["certify", "--sample", "2,2", "--seed", "3", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["verdicts"]["rank"] == 6
    assert obj["verdicts"]["smooth_point"] is True
    assert obj["subject"]["config"]["seed"] == "3"


def test_table_coh_csv(capsys):
    code = run(["table", "coh", "--example", "nc", "--dmax", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "d,h0,h1"
    assert "-1,0,1" in lines
    assert "1,5,0" in lines


def test_table_lines_deterministic(tmp_path):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["table", "lines", "--sample", "3,2", "--count", "5", "--out", str(a_path)]) == 0
    assert run(["table", "lines", "--sample", "3,2", "--count", "5", "--out", str(b_path)]) == 0
    assert a_path.read_text() == b_path.read_text()
    header, cols = a_path.read_text().splitlines()[:2]
    assert cols == "plucker,order,h0,det"


def test_table_pencil(capsys):
    code = run(["table", "pencil", "--sample", "5,2", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "degree,5" in out


def test_table_pencil_small_field_is_input_error(capsys):
    # the pencil determinant is interpolated at 0..n, which collide mod 5
    code = run(["table", "pencil", "--example", "thooft5", "--field", "fp:5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "fp:5" in err and "n = 5" in err


@pytest.mark.parametrize("source,roots", [(["--sample", "5,2", "--seed", "1"], 2),
                                          (["--example", "thooft4"], 0)])
def test_table_pencil_builds_display_once(monkeypatch, capsys, source, roots):
    # one display serves every root's splitting order; none without a root
    builds = []

    def counting(build):
        def wrapped(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "build_monad", counting(cli.build_monad))
    monkeypatch.setattr(geometry, "build_monad", counting(geometry.build_monad))
    assert run(["table", "pencil", *source]) == 0
    assert capsys.readouterr().out.count("order_at_root,") == roots
    assert len(builds) == min(roots, 1)


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "2", "--r", "2", "--field", "fp:7"],
    ["certify", "--example", "two-sum", "--field", "fp:7"],
])
def test_corank2_sampling_small_field_is_input_error(argv, capsys):
    # the pencil determinant is interpolated at 0..4n, which collide mod 7
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "fp:7" in err and "n = 2" in err and "Traceback" not in err


def _entry(i, j, k, l, c):
    return {"i": i, "j": j, "k": k, "l": l, "c": c}


@pytest.mark.parametrize("field,entries,message", [
    ("fp:32003", [_entry(0, 0, 0, 1, "1"), _entry(0, 1, 2, 3, "2"), _entry(0, 0, 0, 1, "3")],
     "duplicate entry (i,j,k,l) = (0, 0, 0, 1)"),
    ("rational", [_entry(0, 0, 0, 1, "1"), _entry(1, 1, 2, 3, "1/0")],
     "entry (i,j,k,l) = (1, 1, 2, 3): coefficient '1/0'"),
    ("fp:32003", [_entry(0, 1, 0, 2, "x")], "entry (i,j,k,l) = (0, 1, 0, 2): coefficient 'x'"),
])
def test_bad_tensor_entry_is_input_error(tmp_path, capsys, field, entries, message):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": 2, "field": field, "entries": entries}))
    assert run(["certify", "--tensor", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_sample_and_reload(tmp_path):
    out = tmp_path / "t.json"
    assert run(["sample", "--n", "3", "--r", "6", "--seed", "1", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 3 and obj["field"] == "fp:32003"
    # the emitted file is a valid tensor-format input (extra keys ignored)
    code = run(["certify", "--tensor", str(out), "--out", str(tmp_path / "c.json")])
    assert code == 0


def test_export_roundtrip(tmp_path):
    out = tmp_path / "nc.json"
    assert run(["export", "--id", "nc", "--out", str(out)]) == 0
    from instantons.tensors import read_tensor

    assert read_tensor(str(out)).rank() == 4


def test_malformed_tensor_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["certify", "--tensor", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert run(["certify", "--tensor", str(missing)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"n": 2, "field": "fp:32003"}))
    assert run(["certify", "--tensor", str(bad2)]) == 2


def test_bad_field_spec():
    assert run(["certify", "--example", "nc", "--field", "fp:10"]) == 2


def test_rational_mode_table(capsys):
    code = run(["table", "coh", "--example", "nc", "--field", "rational", "--dmax", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "1,5,0" in out


def test_suite_single_criterion(capsys):
    code = run(["suite", "--only", "transcription"])
    assert code == 0
    out = capsys.readouterr().out
    assert '"passed": true' in out
