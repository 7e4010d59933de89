import json
import subprocess
import sys

import pytest

from cogrowth import systems
from cogrowth.cli import main
from cogrowth.groups import parse_group_spec
from cogrowth.systems import build_star_system, solve_series

FIB = [0, 1]
while len(FIB) < 80:
    FIB.append(FIB[-1] + FIB[-2])


def test_series_q0_stdout(capsys):
    assert main(["series", "--group", "G(2,2)", "--order", "6", "--q0"]) == 0
    assert capsys.readouterr().out.strip() == "1,0,4,0,36,0,400"


def test_cogrowth_trefoil(capsys):
    assert main(["cogrowth", "--group", "B3-trefoil", "--digits", "8"]) == 0
    assert capsys.readouterr().out.strip() == "3.95063099"


def test_series_json_deterministic(tmp_path):
    out = tmp_path / "s.json"
    main(["series", "--group", "G(2,3)", "--order", "8", "--out", str(out)])
    first = out.read_bytes()
    doc = json.loads(first)
    sol = solve_series(build_star_system(parse_group_spec("G(2,3)")), 8)
    assert doc["rows"] == json.loads(json.dumps(sol.F.rows_json()))
    main(["series", "--group", "G(2,3)", "--order", "8", "--out", str(out)])
    assert out.read_bytes() == first


def test_series_one_sided_unknown(capsys):
    code = main(["series", "--group", "G(2,3)", "--order", "4", "--q0",
                 "--unknown", "L0:1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1,0,2,0,10"


def test_oracle_matches_series(tmp_path):
    a, b = tmp_path / "oracle.json", tmp_path / "series.json"
    assert main(["oracle", "--group", "G(3,4)", "--max-len", "4", "--out", str(a)]) == 0
    assert main(["series", "--group", "G(3,4)", "--order", "4", "--out", str(b)]) == 0
    counts = {(c["n"], c["m"]): c["f"] for c in json.loads(a.read_text())["counts"]}
    from_rows = {
        (row["n"], m): v
        for row in json.loads(b.read_text())["rows"]
        for m, v in row["q"]
    }
    assert counts == from_rows


def test_oracle_facet_matches_one_sided_series(tmp_path):
    a, b = tmp_path / "o.json", tmp_path / "s.json"
    assert main(["oracle", "--group", "G(2,3)", "--max-len", "6", "--facet", "1",
                 "--out", str(a)]) == 0
    assert main(["series", "--group", "G(2,3)", "--order", "6",
                 "--unknown", "L0:1", "--out", str(b)]) == 0
    counts = {(c["n"], c["m"]): c["f"] for c in json.loads(a.read_text())["counts"]}
    from_rows = {
        (row["n"], m): v
        for row in json.loads(b.read_text())["rows"]
        for m, v in row["q"]
    }
    assert counts == from_rows


def test_csv_emission(tmp_path):
    csv = tmp_path / "t.csv"
    main(["series", "--group", "G(2,2)", "--order", "2", "--csv", str(csv),
          "--out", str(tmp_path / "ignore.json")])
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,m,count"
    assert "2,0,4" in lines


def test_guess_roundtrip(tmp_path):
    src, dst = tmp_path / "seq.json", tmp_path / "rec.json"
    src.write_text(json.dumps([str(v) for v in FIB]))
    code = main(["guess", "--in", str(src), "--max-order", "3", "--max-degree", "1",
                 "--out", str(dst)])
    assert code == 0
    doc = json.loads(dst.read_text())
    assert doc["order"] == 2
    assert doc["degree"] == 0


def test_guess_failure_exit(tmp_path):
    src = tmp_path / "seq.json"
    src.write_text(json.dumps([pow(3, n * n, 10**9 + 7) for n in range(150)]))
    assert main(["guess", "--in", str(src), "--max-order", "2", "--max-degree", "1"]) == 1


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["series", "--order", "4"])
    assert err.value.code == 2


def test_bad_unknown_rejected_before_solving(capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved before checking the unknown")

    monkeypatch.setattr(systems, "system_rows", no_solve)
    code = main(["series", "--group", "G(2,3)", "--order", "4", "--unknown", "X9"])
    assert code == 1
    assert "unknown series 'X9'" in capsys.readouterr().err


def test_computation_error_exit_one(capsys):
    code = main(["series", "--group", "B3-standard", "--order", "4",
                 "--unknown", "L0:1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_negative_order_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["series", "--group", "G(2,2)", "--order", "-1"])
    assert err.value.code == 2
    assert "order must be >= 0" in capsys.readouterr().err


def test_asymptotics_has_no_csv():
    with pytest.raises(SystemExit) as err:
        main(["asymptotics", "--group", "G(2,2)", "--order", "4", "--csv", "f"])
    assert err.value.code == 2


def test_asymptotics_needs_order():
    with pytest.raises(SystemExit) as err:
        main(["asymptotics", "--group", "G(2,2)"])
    assert err.value.code == 2


def test_asymptotics_alpha_at_order_400(tmp_path):
    # parity-locked: only even orders enter the fit, so N = 400 gives it 100 terms
    out = tmp_path / "r.json"
    assert main(["asymptotics", "--group", "B3-standard", "--order", "400",
                 "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["alpha"] + 2) <= 0.25


def test_asymptotics_report(tmp_path):
    out = tmp_path / "r.json"
    assert main(["asymptotics", "--group", "G(2,2)", "--order", "40",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["mu"] - 4.0) < 1e-10
    assert abs(doc["lambda"]) < 1e-8
    assert abs(doc["sigma2"] - 0.25) < 1e-6
    assert doc["alpha"] is None  # 40 orders cannot support the fit window
    assert abs(doc["poly_residual"]) < 1e-9
    assert 0 < doc["variance_slope"] <= 1
    assert doc["vn_max"] >= 1.0


def test_entry_point_subprocess():
    res = subprocess.run(
        [sys.executable, "-m", "cogrowth.cli", "cogrowth", "--group", "G(2,2)",
         "--digits", "4"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert res.stdout.strip() == "4.0000"
