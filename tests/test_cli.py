"""CLI surface: formats, exit codes, determinism, negative control."""

import json

import numpy as np
import pytest

import twistorz.cli
import twistorz.cp3
import twistorz.search
import twistorz.verify
from twistorz.acs import ank_reference_acs
from twistorz.cli import CSV_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parser_rejects(capsys, *argv):
    """argparse exits 2 with the usage and exactly one error line on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    return [line for line in captured.err.splitlines() if "error:" in line]


# --- verify -------------------------------------------------------------------


def test_verify_json_schema_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json", "--seed", "0")
    assert code == 0
    records = json.loads(out)
    assert len(records) >= 10
    for rec in records:
        assert set(rec.keys()) == {"name", "status", "residual", "paper_value", "measured_value"}
        assert rec["status"] == "pass"
    names = {rec["name"] for rec in records}
    assert {"cp3_fixture_points", "edge01_family", "norm_proportionality",
            "norm_maximum", "ank_circle_cover", "ank_circle_inversion",
            "polar_containment", "nk_basis_identity", "nk_mixed_direction"} <= names


def test_verify_reports_literature_values(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json")
    records = {r["name"]: r for r in json.loads(out)}
    prop = records["norm_proportionality"]
    assert prop["paper_value"] == pytest.approx(8.0 * np.sqrt(3.0))
    assert prop["measured_value"] == pytest.approx(4.0 * np.sqrt(3.0))
    mixed = records["nk_mixed_direction"]
    assert mixed["paper_value"] == -1.0
    assert mixed["measured_value"] == pytest.approx(-0.5)
    # the fixture points map exactly, so their residual is an exact zero
    assert records["cp3_fixture_points"]["residual"] == 0.0


def test_verify_negative_control(capsys, monkeypatch):
    # corrupt the identification table (swap e1, e2 with e3, e4) and rebuild
    # the linear maps from it: the fixture points land elsewhere
    original = twistorz.cp3.identify
    forward, inverse = twistorz.cp3._correspondence_maps(lambda b: original(b)[[2, 3, 0, 1, 4, 5]])
    monkeypatch.setattr(twistorz.cp3, "_FORWARD", forward)
    monkeypatch.setattr(twistorz.cp3, "_INVERSE", inverse)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "fail" in out


def test_verify_reports_why_a_check_raised(capsys, monkeypatch):
    def boom():
        raise RuntimeError("table missing")

    monkeypatch.setattr(twistorz.verify, "check_cp3_fixtures", boom)
    code, out, _ = run_cli(capsys, "verify", "--json")
    assert code == 1
    records = {r["name"]: r for r in json.loads(out)}
    assert records["cp3_fixture_points"]["status"] == "fail"
    assert records["cp3_fixture_points"]["error"] == "RuntimeError: table missing"
    # only the check that raised carries the field
    assert all("error" not in r for name, r in records.items() if name != "cp3_fixture_points")
    code, out, _ = run_cli(capsys, "verify")
    (line,) = [line for line in out.splitlines() if line.startswith("cp3_fixture_points")]
    assert line.endswith("error=RuntimeError: table missing")
    assert sum("error=" in line for line in out.splitlines()) == 1


# --- sample -------------------------------------------------------------------


def _rows(path):
    text = path.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_sample_ank_set(tmp_path, capsys):
    out_file = tmp_path / "ank.csv"
    code, _, _ = run_cli(capsys, "sample", "--set", "ank", "--count", "100",
                         "--seed", "11", "--out", str(out_file))
    assert code == 0
    rows = _rows(out_file)
    assert len(rows) == 100
    target = 4.0 * np.sqrt(3.0)
    for row in rows:
        b = [float(v) for v in row[:4]]
        assert abs(sum(b) - 1.0) < 1e-9
        assert abs(float(row[4]) - target) < 1e-6
        assert row[5] == "false"
        assert row[6] == "true"


def test_sample_integrable_set(tmp_path, capsys):
    out_file = tmp_path / "int.csv"
    run_cli(capsys, "sample", "--set", "integrable", "--count", "50",
            "--seed", "3", "--out", str(out_file))
    for row in _rows(out_file):
        assert float(row[4]) < 1e-6
        assert row[5] == "true"


def test_sample_edge01_set(tmp_path, capsys):
    out_file = tmp_path / "edge.csv"
    run_cli(capsys, "sample", "--set", "edge01", "--count", "50",
            "--seed", "5", "--out", str(out_file))
    for row in _rows(out_file):
        assert abs(float(row[2])) < 1e-9
        assert abs(float(row[3])) < 1e-9


def test_sample_polar_and_random_sets(tmp_path, capsys):
    for name in ("polar", "random"):
        out_file = tmp_path / f"{name}.csv"
        code, _, _ = run_cli(capsys, "sample", "--set", name, "--count", "20",
                             "--seed", "2", "--out", str(out_file))
        assert code == 0
        rows = _rows(out_file)
        assert len(rows) == 20
        for row in rows:
            b = [float(v) for v in row[:4]]
            assert abs(sum(b) - 1.0) < 1e-9
            # flags consistent with the reported norm
            assert (row[5] == "true") == (float(row[4]) < 1e-6)


def test_sample_rows_revalidate_on_ingestion(tmp_path, capsys):
    out_file = tmp_path / "cloud.csv"
    run_cli(capsys, "sample", "--set", "random", "--count", "25",
            "--seed", "8", "--out", str(out_file))
    for row in _rows(out_file):
        b = [float(v) for v in row[:4]]
        assert all(v >= 0.0 for v in b)
        assert abs(sum(b) - 1.0) < 1e-9
        float(row[4])
        assert row[5] in ("true", "false") and row[6] in ("true", "false")


#: the first three rows of `sample --set <name> --count 3 --seed 0`, recorded from
#: the sampler before it became a table; each set must keep the order of its rng draws
PINNED_ROWS = {
    "ank": (
        "0.35051905596592786,0.14948094403407231,0.35051905596592781,0.14948094403407208,6.9282032302755079,false,true",
        "0.38631086350721838,0.11368913649278156,0.38631086350721838,0.11368913649278171,6.928203230275507,false,true",
        "0.43774094747634934,0.062259052523650722,0.43774094747634917,0.062259052523650729,6.9282032302755105,false,true",
    ),
    "integrable": (
        "0.52993204912913583,0.16273835903562195,0.072205067329018116,0.23512452450622423,1.0938679816428079e-15,true,false",
        "0.15670548596844974,0.033580228466986391,0.14289244351796254,0.66682184204660133,9.9508978908478212e-16,true,false",
        "0.0005379866326417586,0.0019961596345652874,0.78570882030146294,0.21175703343132996,7.9380288850992377e-16,true,false",
    ),
    "random": (
        "0.045757269268237935,0.095716116988810523,0.71935113685711505,0.13917547688583651,1.9054348045318286,false,false",
        "0.23034293955662918,0.021721181828016915,0.13021577500104334,0.61772010361431051,3.9467256967566438,false,false",
        "0.45349889881664529,0.071909314944704275,0.31893768050327387,0.15565410573537652,3.8434363045717745,false,false",
    ),
    "polar": (
        "0.31801730551470264,0.24740006559491509,0.25259993440508505,0.18198269448529733,5.8624446092446121,false,false",
        "0.11577016480516769,0.45871263751838448,0.04128736248161545,0.38422983519483223,5.7816724213749673,false,false",
        "0.073997517848559971,0.14626503896993334,0.35373496103006663,0.42600248215144004,2.9168408596873214,false,false",
    ),
    "edge01": (
        "0.30860933619786385,0.69139066380213621,0,0,6.7814514044601572e-16,true,false",
        "0.79286496655016647,0.20713503344983358,0,0,1.1091405085618405e-16,true,false",
        "0.79551147182707649,0.2044885281729234,0,0,2.3133397402430437e-16,true,false",
    ),
}


@pytest.mark.parametrize("name", PINNED_ROWS)
def test_sample_rows_pinned_across_versions(capsys, name):
    code, out, _ = run_cli(capsys, "sample", "--set", name, "--count", "3", "--seed", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    for line, pinned in zip(lines[1:], PINNED_ROWS[name]):
        got, want = line.split(","), pinned.split(",")
        assert np.max(np.abs(np.array(got[:5], dtype=float) - np.array(want[:5], dtype=float))) <= 1e-12
        assert got[5:] == want[5:]


def test_sample_rejects_bad_count(capsys):
    (line,) = _parser_rejects(capsys, "sample", "--set", "ank", "--count", "0")
    assert "--count" in line


def test_sample_unwritable_out(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "sample", "--set", "ank", "--count", "1",
                             "--out", str(target))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write")


def test_sample_unwritable_out_fails_before_any_row(tmp_path, capsys, monkeypatch):
    calls = []
    original = twistorz.cli._cloud_row
    monkeypatch.setattr(twistorz.cli, "_cloud_row", lambda acs: calls.append(1) or original(acs))
    code, _, err = run_cli(capsys, "sample", "--set", "ank", "--count", "50",
                           "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 2
    assert err.startswith("error: cannot write")
    assert calls == []
    code, _, _ = run_cli(capsys, "sample", "--set", "ank", "--count", "3",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 0
    assert len(calls) == 3


def test_verify_rejects_negative_seed(capsys):
    (line,) = _parser_rejects(capsys, "verify", "--seed", "-1")
    assert "--seed" in line


def test_sample_rejects_negative_seed(capsys):
    (line,) = _parser_rejects(capsys, "sample", "--set", "ank", "--count", "1", "--seed", "-1")
    assert "--seed" in line


# --- classify -------------------------------------------------------------------


def test_classify_cp3_hopf_point(capsys):
    code, out, _ = run_cli(capsys, "classify", "--cp3", "1,0,0,-1")
    assert code == 0
    assert "integrable: true" in out
    assert "tetra: (0.5, 0, 0, 0.5)" in out


def test_classify_cp3_is_scale_invariant(capsys):
    code, out, _ = run_cli(capsys, "classify", "--cp3", "1e308,1e308,1,1", "--json")
    assert code == 0
    big = json.loads(out)
    code, out, _ = run_cli(capsys, "classify", "--cp3", "1,1,0,0", "--json")
    assert code == 0
    small = json.loads(out)
    for key in ("A", "B", "C"):
        assert np.max(np.abs(np.array(big["blocks"][key], dtype=float)
                             - np.array(small["blocks"][key], dtype=float))) <= 1e-12
    assert np.max(np.abs(np.array(big["tetra"], dtype=float)
                         - np.array(small["tetra"], dtype=float))) <= 1e-12


@pytest.mark.parametrize("subnormal, normal", [("1e-310,0,0,0", "1,0,0,0"),
                                               ("1e-320,1e-320,0,0", "1,1,0,0")])
def test_classify_subnormal_cp3_point(capsys, subnormal, normal):
    for flags in ([], ["--json"]):
        code, out, err = run_cli(capsys, "classify", "--cp3", subnormal, *flags)
        assert code == 0
        assert err == ""
        assert (out, err) == run_cli(capsys, "classify", "--cp3", normal, *flags)[1:]


def test_classify_swap_matrix(tmp_path, capsys):
    doc = {"matrix": [float(v) for v in ank_reference_acs().matrix.flatten()], "label": "swap"}
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "classify", "--in", str(path), "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["in_z"] is True
    assert rec["ank"] is True
    assert rec["integrable"] is False
    assert rec["polar_e5e6"] is True
    assert [float(v) for v in rec["tetra"]] == pytest.approx([0.25, 0.25, 0.25, 0.25])
    # the normalized projective point is [1, 1, -1, 1] up to scale, and the
    # printed form round-trips through the --cp3 input syntax
    coords = [complex(c.replace("i", "j")) for c in rec["cp3"]]
    assert coords == pytest.approx([0.5, 0.5, -0.5, 0.5])


def test_classify_random_matrix_not_in_z(tmp_path, capsys):
    rng = np.random.default_rng(0)
    doc = {"matrix": [float(v) for v in rng.standard_normal(36)]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 1
    assert "in_z: false" in out
    assert "residual" in out


def test_classify_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "classify", "--in", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("text", [
    json.dumps({"matrix": ["a"] * 36}),
    json.dumps({"matrix": [[1, 2]] * 36}),
    json.dumps({"matrix": [None] * 36}),
    '{"matrix": [NaN' + ", 0" * 35 + "]}",
    '{"matrix": [1' + "0" * 400 + ", 0" * 35 + "]}",
], ids=["string", "pair", "null", "nan", "huge-int"])
def test_classify_malformed_matrix_entries(tmp_path, capsys, text):
    path = tmp_path / "malformed.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", "--in", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_classify_cp3_parse_error(capsys):
    code, _, err = run_cli(capsys, "classify", "--cp3", "1,0,0")
    assert code == 2
    assert "four" in err


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("coords", ["0,0,0,0", "nan,1,1,1"])
def test_classify_cp3_invalid_point(capsys, coords, mode):
    code, out, err = run_cli(capsys, "classify", "--cp3", coords, *mode)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


# --- optimize -------------------------------------------------------------------


def test_optimize_max_report(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--direction", "max",
                           "--restarts", "3", "--seed", "5")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().split("\n"))
    ratio = float(lines["ratio_to_max"])
    assert 1.0 - 1e-4 <= ratio <= 1.0 + 1e-9
    assert lines["converged"] == "true"


def test_optimize_min_report(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--direction", "min",
                           "--restarts", "3", "--seed", "6")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().split("\n"))
    assert float(lines["best_value"]) < 1e-6


def test_optimize_rejects_zero_restarts(capsys):
    (line,) = _parser_rejects(capsys, "optimize", "--restarts", "0")
    assert "--restarts" in line


def test_optimize_rejects_negative_seed(capsys):
    (line,) = _parser_rejects(capsys, "optimize", "--seed", "-3")
    assert "--seed" in line


def test_optimize_rejects_negative_max_iters(capsys):
    (line,) = _parser_rejects(capsys, "optimize", "--max-iters", "-5")
    assert "--max-iters" in line


def test_optimize_no_convergence_exit(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--direction", "max",
                           "--restarts", "1", "--seed", "7", "--max-iters", "2")
    assert code == 3
    assert "converged: false" in out


def test_optimize_step_collapse_exit(capsys, monkeypatch):
    # a restart whose step collapses before the gradient test passes has not converged
    monkeypatch.setattr(twistorz.search, "GRAD_TOL", 0.0)
    code, out, _ = run_cli(capsys, "optimize", "--restarts", "1")
    assert code == 3
    assert "converged: false" in out
