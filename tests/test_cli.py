import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from instantons import cli, families, monads
from instantons.cli import main
from instantons.families import SampleError
from instantons.fields import field_from_spec
from instantons.polys import evaluate as poly_evaluate


def run(argv):
    return main(argv)


def test_consecutive_calls_match_separate_processes(capsys):
    # the parser is built once per process; no option of one call leaks into
    # the next (the last call relies on the defaults the earlier ones override)
    calls = [
        ["table", "lines", "--example", "thooft3", "--count", "3", "--seed", "4",
         "--field", "fp:7"],
        ["certify", "--example", "degenerate-rank6", "--json"],
        ["table", "coh", "--example", "nc", "--dmax", "1"],
        ["export", "--id", "nc", "--field", "rational"],
        ["table", "pencil", "--example", "thooft3"],
        ["table", "lines", "--example", "nc", "--count", "2"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv in calls:
        code = run(argv)
        out = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "instantons.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out.out, out.err) == (alone.returncode, alone.stdout, alone.stderr)
    assert cli._parser() is cli._parser()


def test_certify_example_writes_consistent_cert(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run(["certify", "--example", "degenerate-rank6", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["consistent"] is True
    assert obj["verdicts"]["nondegeneracy"]["status"] == "degenerate"
    assert obj["verdicts"]["modular"] is False
    assert obj["schema_version"] == 4


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


# SHA-256 digests (first 16 hex digits) of the CSV bodies, header row
# included, recorded from the line draws written out in the CLI: a shared
# draw must consume the stream the same way
LINES_TABLE_DIGESTS = {
    "--sample 3,2 --count 30 --seed 4": (31, "04dbde9fe5073c83"),
    "--example thooft4 --count 20": (21, "9243bcc69267e1e7"),
    "--example thooft4 --count 20 --field fp:7^2": (21, "710264624b418f89"),
    "--example thooft3 --count 10 --field rational": (11, "96f936e4a31ae0c7"),
    "--example thooft3 --count 10 --field fp:1000000007": (11, "9992801f23eee563"),
}
PENCIL_TABLE_DIGESTS = {
    "--example thooft4 --field fp:5^2": (10, "7c128723ab6d759c"),
    "--example thooft3 --field rational": (7, "558c66c7e29af389"),
    "--example thooft3 --field fp:1000000007": (13, "436d79fca5a2f4d1"),
}


def _table_digest(capsys, kind: str, source: str) -> tuple[int, str]:
    assert run(["table", kind, *source.split()]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    return len(rows), hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("source", LINES_TABLE_DIGESTS)
def test_table_lines_is_pinned(capsys, source):
    assert _table_digest(capsys, "lines", source) == LINES_TABLE_DIGESTS[source]


@pytest.mark.parametrize("source", PENCIL_TABLE_DIGESTS)
def test_table_pencil_is_pinned(capsys, source):
    assert _table_digest(capsys, "pencil", source) == PENCIL_TABLE_DIGESTS[source]


# SHA-256 digests of the whole stdout of each command, recorded before the
# certificate and the cohomology table were returned as the data they print
STDOUT_DIGESTS = {
    "certify --example thooft3 --induction":
        "314bdea1af06ff153d2b576fc7f474b58670df13932e3b340ed85a2f0ea0cee9",
    "certify --sample 5,2 --induction --json":
        "9f2fb3651c69e22bbf8d9858fdc3aeb41554d0e4adc7070f747a1a81317318ae",
    "certify --example degenerate-rank6 --field rational":
        "31e1ca27d744e823366537e4f787a0728b4d3133df8ea5b837f696f198108080",
    "certify --example three-nc --field fp:7":
        "9122c33a5dfa911bba05ae158f53ee5271228734cd34ba41e77c78288274fa03",
    "table coh --example thooft4 --field rational --dmax 6":
        "da7cfb44e72f4b2d8dd840a706d709e9715c3320da0e9e0f8d9989f19f8612e8",
    # recorded before the pencil determinant and the fibre-dimension check
    # each got one owner: the corank-2 determinant, the fibre check of one
    # induction step, the jumping-line pencil and criterion C8
    "sample --n 2 --r 2":
        "72140f2137868aa05e282c36f60f7faa7d79ef57f7b1b4f3c369a1654df42d8e",
    "sample --n 3 --r 2":
        "e2c668e2219dbbb2c36f5ff2b8903cd64de96714581481bdf736d139e0caf960",
    "table pencil --example thooft4 --seed 3":
        "a4ef1cbfda6429991b73462e142363badccbedc99e05d9b19fa37afa1370864d",
    "suite --only fiber-dims --json":
        "61df14c06ed3f34f7ebc27471999fa96cf85403c6efc7fc4122a25418ee0cc55",
}


@pytest.mark.parametrize("command", STDOUT_DIGESTS)
def test_stdout_is_pinned(capsys, command):
    assert run(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STDOUT_DIGESTS[command]


def test_table_pencil(capsys):
    # the CSV body as recorded from the pencil draw written out in the CLI
    assert run(["table", "pencil", "--sample", "5,2", "--seed", "7"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "key,value", "degree,5", "coeff_0,13640", "coeff_1,5518", "coeff_2,9592",
        "coeff_3,3935", "coeff_4,20317", "coeff_5,29273", "root,14176", "order_at_root,1",
        "residual_degree,4"]


def test_table_pencil_small_field_is_input_error(capsys):
    # the pencil determinant has degree up to n = 5, so it needs 6 points,
    # and fp:5 has 5
    code = run(["table", "pencil", "--example", "thooft5", "--field", "fp:5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "fp:5" in err and "n = 5" in err


@pytest.mark.parametrize("source,roots", [((["sample", "--n", "5", "--r", "2"], "1"), 2),
                                          ((["export", "--id", "thooft4"], "0"), 0)])
def test_table_pencil_builds_display_once(monkeypatch, capsys, tmp_path, source, roots):
    # one display of the input tensor, built before the basis-pair gate, serves
    # every root's splitting order; none is built without a root.  The tensor is read from
    # a file, so that no display built while sampling it counts.
    write, seed = source
    path = tmp_path / "t.json"
    assert run([*write, "--seed", seed, "--out", str(path)]) == 0
    builds = []
    build = monads._monad_from_image

    def counting(omega, N):
        builds.append(omega)
        return build(omega, N)

    monkeypatch.setattr(monads, "_monad_from_image", counting)
    capsys.readouterr()
    assert run(["table", "pencil", "--tensor", str(path), "--seed", seed]) == 0
    assert capsys.readouterr().out.count("order_at_root,") == roots
    assert len(builds) == min(roots, 1)


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "2", "--r", "2", "--field", "fp:7"],
    ["certify", "--example", "two-sum", "--field", "fp:7"],
])
def test_corank2_sampling_small_field_is_input_error(argv, capsys):
    # the pencil determinant has degree up to 4n = 8, so it needs 9 points,
    # and fp:7 has 7
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "fp:7" in err and "n = 2" in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["fp:2", "fp:2^2"])
def test_characteristic_2_extension_is_input_error(field, capsys):
    # M(4, 4) is sampled by extending a (3, 6) tensor, and the extension
    # fiber needs 2 to be invertible
    assert run(["sample", "--n", "4", "--r", "4", "--field", field]) == 2
    err = capsys.readouterr().err
    assert f"characteristic != 2, not {field}" in err and "Traceback" not in err


@pytest.mark.parametrize("example", ["thooft3", "nc"])
def test_characteristic_2_symmetric_square_is_input_error(example, capsys):
    # d0 sends nu_s^2 to twice a vector, so over fp:2 the S^2 triple read
    # [9, 30, 0] for thooft3 and [5, 10, 0] for nc, not [0, 21, 0] and [0, 5, 0]
    assert run(["certify", "--example", example, "--field", "fp:2"]) == 2
    err = capsys.readouterr().err
    assert "symmetric-square complex needs characteristic != 2, not fp:2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,error", [
    (["sample", "--n", "0", "--r", "2"], "samplers cover 1 <= n <= 5"),
    (["sample", "--n", "2", "--r", "0"], "(n, r) = (2, 0) is not an admissible pair"),
    (["table", "lines", "--example", "nc", "--count", "-1"], "--count -1: must be at least 0"),
    (["table", "coh", "--example", "nc", "--dmax", "-3"], "--dmax -3: must be at least -2"),
    (["table", "lines", "--example", "nc", "--count", "0"], None),
    (["table", "coh", "--example", "nc", "--dmax", "-2"], None),
])
def test_numeric_options_below_their_range_are_input_errors(argv, error, capsys):
    # --count -1 and --dmax -3 once printed empty tables
    assert run(argv) == (2 if error else 0)
    out = capsys.readouterr()
    if error:
        assert out.out == "" and out.err == f"error: {error}\n"
    else:
        assert out.err == "" and out.out


def _entry(i, j, k, l, c):
    return {"i": i, "j": j, "k": k, "l": l, "c": c}


@pytest.mark.parametrize("field,entries,message", [
    ("fp:32003", [_entry(0, 0, 0, 1, "1"), _entry(0, 1, 2, 3, "2"), _entry(0, 0, 0, 1, "3")],
     "duplicate entry (i,j,k,l) = (0, 0, 0, 1)"),
    ("rational", [_entry(0, 0, 0, 1, "1"), _entry(1, 1, 2, 3, "1/0")],
     "entry (i,j,k,l) = (1, 1, 2, 3): coefficient '1/0'"),
    ("fp:32003", [_entry(0, 1, 0, 2, "x")], "entry (i,j,k,l) = (0, 1, 0, 2): coefficient 'x'"),
    # a case without a field gives the whole file
    (None, [_entry(0, 0, 0, 1, "1")], "a tensor file must be a JSON object"),
    (None, {"n": 2, "field": "fp:32003"}, "a tensor file has no 'entries' key"),
    ("fp:32003", {"0": _entry(0, 0, 0, 1, "1")}, "'entries' must be a JSON list"),
    ("fp:32003", [_entry(0, 0, 0, 1, "1"), 7], "entry 1 must be a JSON object"),
    ("fp:32003", [{"i": 0, "j": 0, "k": 0, "c": "1"}], "entry 0 has no 'l' key"),
    ("fp:32003", [_entry(0, True, 0, 1, "1")], "entry 0: (i,j,k,l) = (0, True, 0, 1) must be integers"),
    # an element of GF(11^2) is two coordinates, never one
    ("fp:11^2", [_entry(0, 0, 0, 1, "1")],
     "coefficient '1' is not an element of fp:11^2 (expected 2 comma-separated coordinates, got '1')"),
])
def test_bad_tensor_entry_is_input_error(tmp_path, capsys, field, entries, message):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": 2, "field": field, "entries": entries} if field else entries))
    assert run(["certify", "--tensor", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv,expected", [
    (["certify", "--sample", "5"], "error: --sample '5': expected N,R"),
    (["certify", "--example", "sum-family:1"], "expected sum-family:<t0>,<t1>"),
    (["certify", "--sample", "2,x"], "error: --sample '2,x': expected N,R integers"),
    (["certify", "--example", "thooft"], "error: example 'thooft': expected thooft<n>, n in 2..5"),
    (["certify", "--example", "thoofta"], "error: example 'thoofta': expected thooft<n>"),
    (["certify", "--example", "sum-family:1,x"],
     "error: example 'sum-family:1,x': expected sum-family:<t0>,<t1>, t0 and t1 in fp:32003"),
    (["table", "coh", "--example", "sum-family:1,2", "--field", "fp:11^2"],
     "error: example 'sum-family:1,2': expected sum-family:<t0>,<t1>, t0 and t1 in fp:11^2, "
     "each 2 comma-separated coordinates"),
    (["table", "coh", "--example", "sum-family:1,0,2", "--field", "fp:11^2"],
     "each 2 comma-separated coordinates"),
])
def test_malformed_source_names_the_expected_form(capsys, argv, expected):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert expected in err and "Traceback" not in err


def test_sum_family_over_an_extension_field(capsys):
    # t0 and t1 over GF(11^2) are two coordinates each: t0 = 1, t1 = 2 + 3x
    assert run(["table", "coh", "--example", "sum-family:1,0,2,3", "--field", "fp:11^2"]) == 0
    out = capsys.readouterr().out
    assert '"field": "fp:11^2"' in out and out.splitlines()[1] == "d,h0,h1"


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


def test_export_json_pretty_prints(capsys):
    # --json pretty-prints export's stdout as it does certify's, sample's and
    # suite's; without it the output is the compact JSON of the tensor
    from instantons.families import nc_tensor
    from instantons.fields import GF32003
    from instantons.tensors import tensor_to_obj

    obj = tensor_to_obj(nc_tensor(GF32003))
    assert run(["export", "--id", "nc", "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert run(["export", "--id", "nc"]) == 0
    assert capsys.readouterr().out == json.dumps(obj, sort_keys=True) + "\n"


def test_malformed_tensor_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["certify", "--tensor", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert run(["certify", "--tensor", str(missing)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"n": 2, "field": "fp:32003"}))
    assert run(["certify", "--tensor", str(bad2)]) == 2


@pytest.mark.parametrize("command", [["certify"], ["table", "coh"],
                                     ["table", "lines", "--count", "3"], ["table", "pencil"]])
def test_tensor_file_over_another_field_is_input_error(tmp_path, capsys, command):
    # a tensor file's entries are read in its own field, so --field must name it
    path = tmp_path / "t.json"
    assert run(["export", "--id", "thooft3", "--field", "fp:7", "--out", str(path)]) == 0
    assert run([*command, "--tensor", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"error: --tensor {str(path)!r} is over fp:7, "
                                       "but --field is fp:32003\n")
    assert run([*command, "--tensor", str(path), "--field", "fp:7",
                "--out", str(tmp_path / "out")]) == 0


def test_bad_field_spec(capsys):
    # each message names the option, the spec and the expected form
    expected = "expected rational, fp:<p> or fp:<p>^<k>, p and k integers"
    for spec, message in [("fp:10", "modulus 10 is not prime"), ("fp:", expected),
                          ("fp:x", expected), ("fp:7^x", expected), ("fp:5^2^3", expected),
                          ("float", expected)]:
        assert run(["certify", "--example", "nc", "--field", spec]) == 2
        assert capsys.readouterr().err == f"error: --field {spec!r}: {message}\n"
    # certify, sample and export write the tensor out, and the file format has
    # no extension-field entries
    for argv in (["certify", "--example", "nc"], ["sample", "--n", "3", "--r", "6"],
                 ["export", "--id", "nc"]):
        assert run([*argv, "--field", "fp:5^2"]) == 2
        assert capsys.readouterr().err == (f"error: --field 'fp:5^2': {argv[0]} writes the "
                                           "tensor out, so expected rational or fp:<p>\n")


def test_rational_mode_table(capsys):
    code = run(["table", "coh", "--example", "nc", "--field", "rational", "--dmax", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "1,5,0" in out


@pytest.mark.parametrize("example,has_roots", [("thooft3", False), ("nc", True)])
def test_rational_pencil_roots_are_zeros(capsys, example, has_roots):
    # over Q the roots come from rational-root extraction; each printed root
    # is a zero of the printed polynomial, and the roots with the residual
    # account for its whole degree
    from fractions import Fraction

    assert run(["table", "pencil", "--example", example, "--field", "rational"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    coeffs = [Fraction(v) for k, v in rows if k.startswith("coeff_")]
    found = [Fraction(v) for k, v in rows if k == "root"]
    residual = int(dict(rows)["residual_degree"])
    assert bool(found) == has_roots
    assert all(sum(c * r**i for i, c in enumerate(coeffs)) == 0 for r in found)
    assert len(found) + residual == len(coeffs) - 1 == int(dict(rows)["degree"])


def test_suite_single_criterion(capsys):
    code = run(["suite", "--only", "transcription"])
    assert code == 0
    out = capsys.readouterr().out
    assert '"passed": true' in out


@pytest.mark.parametrize("argv,runs", [
    (["--only", "nonsense"], "C1 (transcription), C2 (thooft), C3 (quadric-ideals), C4 (chains)"),
    (["--only", "chains", "--field", "rational"],
     "C1 (transcription), C2 (thooft), C3 (quadric-ideals)\n"),
])
def test_suite_selection_that_runs_no_criterion_is_input_error(argv, runs, capsys):
    # such a selection once printed "criteria": [] and "passed": true; C4
    # does not run over Q.  The message names what runs over the field.
    assert run(["suite", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: --only {argv[1]!r} selects no criterion")
    assert runs in out.err


@pytest.mark.parametrize("only,n", [("equivalences", 3), ("geometry", 2)])
def test_suite_over_a_field_too_small_for_a_pencil_is_input_error(only, n, capsys):
    # corank-2 sampling needs det(w0 + t w1) at 4n + 1 points, more than
    # fp:7 has: that refusal is bad input (exit 2, naming the field), not a
    # failed criterion
    assert run(["suite", "--only", only, "--field", "fp:7"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: det(a + t b) for corank-2 sampling at n = {n}" in out.err
    assert "fp:7 has only 7 elements" in out.err and "FAIL" not in out.err


def test_suite_records_a_crashing_criterion_as_failed(monkeypatch, capsys):
    # any other exception a criterion raises is a failure with its reason
    from instantons import suite

    def crash(field):
        raise ValueError("no such thing")

    monkeypatch.setattr(suite, "CRITERIA", [("C0", "crash", "raises", crash)])
    assert run(["suite", "--only", "crash"]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("C0   crash            FAIL")
    assert json.loads(out.out)["criteria"][0]["details"] == {"error": "ValueError: no such thing"}


def test_suite_criterion_over_the_rationals(capsys):
    assert run(["suite", "--only", "transcription", "--field", "rational"]) == 0
    assert [c["cid"] for c in json.loads(capsys.readouterr().out)["criteria"]] == ["C1"]


def test_suite_stdout_is_the_json_summary(capsys):
    # the progress lines, with their wall-clock times, go to stderr, so
    # stdout parses as JSON and is the same on every run
    outs = []
    for _ in range(2):
        assert run(["suite", "--only", "transcription"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("C1 ")
        outs.append(captured.out)
    assert outs[0] == outs[1]
    assert [c["cid"] for c in json.loads(outs[0])["criteria"]] == ["C1"]


@pytest.mark.parametrize("argv,what", [
    (["sample", "--n", "3", "--r", "4", "--field", "rational"], "corank-2 sampling"),
    # (4, 2) climbs from the corank-2 stratum (3, 4)
    (["certify", "--sample", "4,2", "--field", "rational"], "corank-2 sampling"),
    (["sample", "--n", "2", "--r", "2", "--field", "rational"], "corank-2 sampling"),
    (["certify", "--example", "two-sum", "--field", "rational"], "corank-2 sampling"),
    (["table", "coh", "--example", "sum-family:1,2", "--field", "rational"], "corank-2 sampling"),
])
def test_rational_sampling_below_open_stratum_is_input_error(argv, what, capsys):
    # raised before any sampling work: a random pencil's determinant has no
    # rational root, so over Q the corank-2 sampler would not end
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert what in err and "unsupported in rational mode" in err and "Traceback" not in err


@pytest.mark.parametrize("sample", ["3,2", "4,4"])
def test_rational_chains_from_the_open_stratum_are_certified(sample, capsys):
    # (3, 2) and (4, 4) climb the restriction induction from a full-rank
    # tensor, so no corank-2 sample is needed over Q
    assert run(["certify", "--sample", sample, "--field", "rational"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["consistent"] and cert["verdicts"]["smooth_point"]
    assert cert["subject"]["r"] == int(sample.split(",")[1])


def test_table_pencil_over_a_small_extension_field(capsys):
    # fp:5^2 has characteristic 5 but 25 points for a determinant of degree
    # up to 5; every root printed is a zero of the printed polynomial
    f = field_from_spec("fp:5^2")
    assert run(["table", "pencil", "--example", "thooft5", "--field", "fp:5^2"]) == 0
    table = [row.split(",", 1) for row in capsys.readouterr().out.splitlines()[2:]]
    coeffs = [f.parse(v) for k, v in table if k.startswith("coeff_")]
    roots = [f.parse(v) for k, v in table if k == "root"]
    assert len(coeffs) == 6 and roots
    assert all(f.is_zero(poly_evaluate(coeffs, x, f)) for x in roots)


def test_corank2_sampling_over_a_small_extension_field(capsys):
    # fp:3^2 has 9 points, enough for the flattening's determinant of degree
    # up to 4n = 8 along a pencil at n = 2
    assert run(["table", "coh", "--sample", "2,2", "--field", "fp:3^2"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "d,h0,h1", "-2,0,0", "-1,0,2", "0,0,2", "1,2,0", "2,12,0", "3,30,0"]


# sample_instanton(5, 2, QQ, 7), written once: its entries have numerators
# and denominators of over 1200 bits
RATIONAL_52 = Path(__file__).parent / "fixtures" / "rational-5-2-seed7.json"


def test_rational_pencil_with_huge_coefficients_has_no_root():
    # the fixture's pencil polynomial has coefficients of over 1000 bits
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "instantons.cli", "table", "pencil", "--tensor",
                           str(RATIONAL_52), "--field", "rational"],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "\nroot," not in proc.stdout and proc.stdout.endswith("\nresidual_degree,5\n")


def test_rational_certificate_at_c2_5(tmp_path):
    # the paper's smoothness case in rational mode: h1(S^2 E) = 8n - 3 = 37
    out = tmp_path / "cert.json"
    assert run(["certify", "--tensor", str(RATIONAL_52), "--field", "rational", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    v = obj["verdicts"]
    assert obj["consistent"] is True
    assert v["nondegeneracy"]["status"] == "certified-nondegenerate"
    assert v["nondegeneracy"]["certified_degrees"] == [2, 1]
    assert v["coh_table"] == [[-2, 0, 0], [-1, 0, 5], [0, 0, 8], [1, 0, 7], [2, 0, 0], [3, 15, 0]]
    assert v["s2"] == [0, 37, 0]
    assert (v["sigma_kernel_dim"], v["gamma_kernel_dim"]) == (0, 7)
    assert v["tangent_dims"] == {"fullSkew": 162, "symLambda": 62}


@pytest.mark.parametrize("n", [0, -1, 6, "x", 2.5, True])
def test_tensor_file_n_out_of_range_is_input_error(tmp_path, capsys, n):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": n, "field": "fp:32003", "entries": []}))
    assert run(["certify", "--tensor", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"n = {n!r}" in err and "1 <= n <= 5" in err and "Traceback" not in err


def test_pencil_root_over_a_prime_past_int64_products(capsys):
    # p^2 > 2^63: each printed root is a zero of the printed polynomial
    assert run(["table", "pencil", "--example", "nc", "--field", "fp:1000000007"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    coeffs = [int(v) for k, v in rows if k.startswith("coeff_")]
    found = [int(v) for k, v in rows if k == "root"]
    assert found and all(sum(c * r**i for i, c in enumerate(coeffs)) % 1000000007 == 0
                         for r in found)


def test_prime_field_below_2_to_the_64():
    # the largest prime below 2^64: Miller-Rabin decides it at once
    assert run(["sample", "--n", "2", "--r", "2", "--field", "fp:18446744073709551557"]) == 0


def test_prime_field_past_the_primality_bound_is_input_error(capsys):
    assert run(["certify", "--example", "nc", "--field", "fp:3317044064679887385961981"]) == 2
    err = capsys.readouterr().err
    assert "3317044064679887385961981" in err and "Traceback" not in err


@pytest.mark.parametrize("exc", [
    AssertionError("symmetric-square complex is not a complex"),
    OverflowError("int64 exactness invariant k*(p-1)^2 < 2^63 fails for k=2, p=7"),
    ZeroDivisionError("Fraction(1, 0)"),
    SampleError("no corank-2 point found (n=2, seed=0)"),
])
def test_failed_invariant_exits_1(monkeypatch, capsys, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "coh_table", broken)
    assert run(["table", "coh", "--example", "nc"]) == 1
    assert capsys.readouterr().err == f"internal invariant failed: {exc}\n"


def test_failed_cohomology_identity_exits_1(monkeypatch, capsys):
    # a table that breaks the Euler identity (or has a negative dimension) is
    # a failed invariant of the program, not bad input
    chi = monads.euler_chi
    monkeypatch.setattr(monads, "euler_chi", lambda n, r, d: chi(n, r, d) + (d == 1))
    assert run(["table", "coh", "--example", "thooft3"]) == 1
    assert capsys.readouterr().err == "internal invariant failed: Euler identity fails at twist 1\n"
    h_values = monads.Monad.h_values
    monkeypatch.setattr(monads.Monad, "h_values",
                        lambda self, d: (-1, -1) if d == 0 else h_values(self, d))
    assert run(["table", "coh", "--example", "thooft3"]) == 1
    assert capsys.readouterr().err == "internal invariant failed: negative cohomology dimension\n"


def test_sampler_out_of_budget_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(families, "RETRY_LIMIT", 0)
    assert run(["sample", "--n", "3", "--r", "6"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal invariant failed: no full-rank tensor after 0 draws")


@pytest.mark.parametrize("dmax,error", [
    ("12", None),
    ("13", "--dmax 13: must be at most 12"),
])
def test_dmax_above_its_cap_is_input_error(dmax, error, capsys):
    # the sections maps grow as dmax^3 on each side: --dmax 400 ran out of memory
    assert run(["table", "coh", "--sample", "2,2", "--dmax", dmax]) == (2 if error else 0)
    out = capsys.readouterr()
    if error:
        assert out.out == "" and out.err == f"error: {error}\n"
    else:
        assert out.err == "" and out.out.splitlines()[-1] == "12,882,0"


def test_coh_table_at_the_dmax_cap_is_pinned(capsys):
    # the slowest n = 5 table at the cap: beta is ranked only below the
    # twist where alpha is first onto, so its largest maps are never gathered
    assert run(["table", "coh", "--sample", "5,10", "--dmax", "12"]) == 0
    h0 = [25, 80, 175, 320, 525, 800, 1155, 1600, 2145, 2800, 3575, 4480]
    assert capsys.readouterr().out.splitlines()[1:] == [
        "d,h0,h1", "-2,0,0", "-1,0,5", "0,0,0", *(f"{d},{x},0" for d, x in enumerate(h0, 1))]


@pytest.mark.parametrize("sample,code", [("2,2", 2), ("3,2", 0)])
def test_induction_needs_a_rank_a_hyperplane_can_keep(sample, code, capsys):
    # a restriction to a hyperplane of H has rank at most 4(n - 1): rank 6 at
    # n = 2 is refused before any trial, rank 8 at n = 3 is searched
    assert run(["certify", "--induction", "--sample", sample]) == code
    out = capsys.readouterr()
    if code:
        assert out.out == "" and "rank 6 exceeds 4(n - 1) = 4" in out.err
        assert "Traceback" not in out.err
    else:
        assert out.err == "" and json.loads(out.out)["consistent"] is True


@pytest.mark.parametrize("spec", ["fp:2097143", "fp:1000000007"])
def test_degenerate_example_over_a_prime_above_the_field_cap(tmp_path, spec):
    # the witness scan covers the base field at any size: the basis-pair
    # witness is found, and no cohomology table is built for the tensor
    out = tmp_path / "cert.json"
    assert run(["certify", "--example", "degenerate-rank6", "--field", spec, "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    verdict = obj["verdicts"]["nondegeneracy"]
    assert verdict["status"] == "degenerate" and verdict["searched"]["stage"] == "basis-points"
    assert verdict["searched"]["points"] == {spec: 1}
    assert obj["verdicts"]["modular"] is False and obj["verdicts"]["coh_table"] is None


def test_transcription_criterion_over_a_prime_above_the_field_cap(capsys):
    assert run(["suite", "--only", "transcription", "--field", "fp:2097143"]) == 0
    details = json.loads(capsys.readouterr().out)["criteria"][0]["details"]
    assert details["classified"] == "degenerate" and details["witness_found"] is True


FUZZ_FIELDS = ["fp:2", "fp:3", "fp:7", "fp:32003", "fp:2097143", "fp:3^2", "rational"]
FUZZ_COMMANDS = [["certify"], ["table", "coh"], ["table", "lines", "--count", "3"],
                 ["table", "pencil"]]


@st.composite
def _tensor_files(draw):
    """A tensor file with up to 12 nonzero-or-zero entries of small height."""
    spec = draw(st.sampled_from(FUZZ_FIELDS))
    n = draw(st.integers(1, 5))
    slots = [(i, j, k, l) for i in range(n) for j in range(i, n)
             for k in range(4) for l in range(k + 1, 4)]
    coeff = st.integers(-3, 3).map(str)
    if spec == "fp:3^2":
        coeff = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda c: f"{c[0]},{c[1]}")
    elif spec == "rational":
        coeff = st.one_of(coeff, st.sampled_from(["1/2", "-2/3", "5/7"]))
    keys = draw(st.lists(st.sampled_from(slots), unique=True, max_size=12))
    entries = [{"i": i, "j": j, "k": k, "l": l, "c": draw(coeff)} for i, j, k, l in keys]
    return {"n": n, "field": spec, "entries": entries}


@settings(max_examples=200)
@given(obj=_tensor_files(), command=st.sampled_from(FUZZ_COMMANDS))
def test_cli_on_small_tensor_files_exits_cleanly(tmp_path_factory, obj, command):
    # every run exits 0 or 2 (bad input), or 1 with a certificate that says
    # it is inconsistent; an exception escaping main would be a traceback
    tmp = tmp_path_factory.mktemp("fuzz")
    path, out = tmp / "t.json", tmp / "out"
    path.write_text(json.dumps(obj))
    code = run([*command, "--tensor", str(path), "--field", obj["field"], "--out", str(out)])
    if code == 1:
        assert command == ["certify"] and json.loads(out.read_text())["consistent"] is False
    else:
        assert code in (0, 2)
