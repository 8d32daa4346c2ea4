import csv
import json
import math
import subprocess
import sys

import pytest

from poincarelab.cli import main


def run(tmp_path, *argv):
    return main(list(argv) + ["--out-dir", str(tmp_path)])


def test_usage_errors_exit_2(tmp_path):
    assert main(["poincare"]) == 2  # no map spec
    assert run(tmp_path, "density", "--set", "powerlaw", "--delta", "2.5",
               "--r", "5") == 2
    assert main(["not-a-command"]) == 2


def test_poincare_flat_family_eval(tmp_path, capsys):
    code = run(tmp_path, "poincare", "--c", "-2,0", "--eval", "25,0")
    assert code == 0
    rows = list(csv.reader((tmp_path / "poincare_eval.csv").open()))
    assert rows[0][0] == "re z"
    z_re, z_im, f_re, f_im, resid = map(float, rows[1])
    assert (z_re, z_im) == (25.0, 0.0)
    want = 2 * math.cosh(5.0)
    assert abs(f_re - want) < 1e-9
    assert abs(f_im) < 1e-12
    assert resid < 1e-9
    blob = json.loads((tmp_path / "poincare_series.json").read_text())
    assert "coeffs" in blob and "provenance" in blob


def test_poincare_golden_residuals(tmp_path):
    code = run(tmp_path, "poincare", "--lambda-gamma", "golden", "--terms", "128")
    assert code == 0
    rows = list(csv.reader((tmp_path / "poincare_eval.csv").open()))
    assert len(rows) == 9  # header + 8 default circle points
    for row in rows[1:]:
        assert float(row[4]) < 1e-9


def test_poincare_rejects_double_map_spec(tmp_path):
    assert run(tmp_path, "poincare", "--c", "-2,0",
               "--lambda-gamma", "golden") == 2


def test_siegel_info(tmp_path):
    code = run(tmp_path, "siegel", "--lambda-gamma", "golden", "--terms", "256")
    assert code == 0
    info = json.loads((tmp_path / "siegel_info.json").read_text())
    assert abs(info["gamma"] - 0.6180339887498949) < 1e-15
    assert info["radius_hat"] > 0.25
    assert info["conjugacy_residual"] < 1e-10
    assert not info["inconclusive"]


def test_preimages_argument_count(tmp_path, capsys):
    code = run(tmp_path, "preimages", "--c", "-2,0", "--w", "2,0", "--r", "1000")
    assert code == 0
    out = capsys.readouterr().out
    assert "argument principle count" in out
    assert "11" in out
    # flat family point sits outside any Siegel machinery; orbit part skipped
    assert "skipped" in out or "orbit" in out


def test_preimages_golden_full_pipeline(tmp_path, capsys):
    code = run(tmp_path, "preimages", "--lambda-gamma", "golden",
               "--w", "0.02,0.01", "--r", "400", "--kmax", "4")
    assert code == 0
    out = capsys.readouterr().out
    assert "OK" in out and "VIOLATED" not in out
    rows = list(csv.reader((tmp_path / "preimage_report.csv").open()))
    assert rows[0] == ["k", "re z", "im z", "|z|", "in_S", "residual"]
    assert len(rows) == 6
    blob = json.loads((tmp_path / "preimage_report.json").read_text())
    assert blob["argument_count"] >= len(
        [p for p in blob["orbit_points"] if p["abs_z"] <= 400.0]
    )


def test_littlewood_monomials(tmp_path):
    code = run(tmp_path, "littlewood", "--family", "monomials", "--nmax", "2",
               "--tol", "1e-4")
    assert code == 0
    rows = list(csv.reader((tmp_path / "littlewood.csv").open()))
    assert rows[0][0] == "degree"
    degrees = [int(r[0]) for r in rows[1:]]
    assert degrees == [1, 2, 4]
    first = float(rows[1][1])
    assert abs(first - 2 * math.pi * math.log(2)) < 1e-3


def test_littlewood_iterates_with_fit(tmp_path):
    code = run(tmp_path, "littlewood", "--family", "iterates", "--nmax", "4",
               "--tol", "1e-3")
    assert code == 0
    fit = json.loads((tmp_path / "littlewood_fit.json").read_text())
    assert "slope" in fit and "alpha_hat" in fit
    assert abs(fit["alpha_hat"] - (0.5 - fit["slope"])) < 1e-12


def test_chebyshev_family_csv(tmp_path):
    code = run(tmp_path, "chebyshev", "--q", "1,2", "--gamma-cf", "2,20,1,1,1,1,1,1")
    assert code == 0
    rows = list(csv.reader((tmp_path / "chebyshev_family.csv").open()))
    assert rows[0][0] == "q"
    assert len(rows) == 3
    for r in rows[1:]:
        mu_abs = float(r[10])
        assert 1.0 < mu_abs < 4.0
    blob = json.loads((tmp_path / "chebyshev_family.json").read_text())
    assert len(blob["rows"]) == 2


def test_density_empty_set(tmp_path):
    code = run(tmp_path, "density", "--set", "empty", "--r", "5")
    assert code == 0
    blob = json.loads((tmp_path / "density.json").read_text())
    assert blob["value"] == 0.0
    assert blob["certified_bound"] == 0.0


def test_density_powerlaw_under_certificate(tmp_path):
    code = run(tmp_path, "density", "--set", "powerlaw", "--C", "10",
               "--delta", "0.5", "--r", "20", "--samples", "20000", "--seed", "2")
    assert code == 0
    blob = json.loads((tmp_path / "density.json").read_text())
    assert blob["value"] <= blob["certified_bound"] + 3 * blob["std_error"]


def test_exceptional_survey_outputs(tmp_path, capsys):
    code = run(tmp_path, "exceptional", "--set", "empty", "--samples", "10",
               "--kmax", "8", "--seed", "4")
    assert code == 0
    out = capsys.readouterr().out
    assert "target" in out
    table = (tmp_path / "exceptional_ratio_table.csv").read_text()
    assert table.splitlines()[0] == "r = |mu|^k * C1,count,count/log r,target = 1/log|mu|"
    blob = json.loads((tmp_path / "exceptional_report.json").read_text())
    assert blob["k_max"] == 8
    assert len(blob["records"]) == 10


def test_exceptional_rejects_bad_delta_before_heavy_work(tmp_path):
    code = run(tmp_path, "exceptional", "--set", "powerlaw", "--delta", "2.5",
               "--samples", "10", "--kmax", "5")
    assert code == 2


def test_render_ppm_and_svg(tmp_path):
    assert run(tmp_path, "render", "--what", "domain", "--c", "-2,0",
               "--size", "64", "--out", "dom.ppm") == 0
    data = (tmp_path / "dom.ppm").read_bytes()
    assert data.startswith(b"P6\n64 64\n255\n")
    assert len(data) == len(b"P6\n64 64\n255\n") + 3 * 64 * 64
    assert run(tmp_path, "render", "--what", "orbit", "--kmax", "5",
               "--out", "orbit.svg") == 0
    svg = (tmp_path / "orbit.svg").read_text()
    assert svg.count("<circle") >= 6
    assert run(tmp_path, "render", "--what", "domain", "--c", "-2,0",
               "--out", "x.png") == 2


def test_render_deterministic(tmp_path):
    for name in ("a.ppm", "b.ppm"):
        assert run(tmp_path, "render", "--what", "siegel", "--lambda-gamma",
                   "golden", "--size", "48", "--out", name) == 0
    assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()


def test_reruns_byte_identical(tmp_path):
    runs = [
        (["poincare", "--c", "-2,0", "--eval", "7,3"],
         ("poincare_series.json", "poincare_eval.csv")),
        (["exceptional", "--set", "powerlaw", "--samples", "10", "--kmax", "8"],
         ("exceptional_report.json", "exceptional_ratio_table.csv")),
        (["preimages", "--lambda-gamma", "golden", "--w", "0.02,0.01", "--r", "400",
          "--kmax", "6", "--set", "powerlaw"],
         ("preimage_report.csv", "preimage_report.json")),
    ]
    for i, (argv, names) in enumerate(runs):
        d1 = tmp_path / f"{i}-one"
        d2 = tmp_path / f"{i}-two"
        for d in (d1, d2):
            assert main(argv + ["--out-dir", str(d)]) == 0
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "poincarelab", "density", "--set", "empty",
         "--r", "3", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert (tmp_path / "density.json").exists()


def test_negative_complex_flag_parsing(tmp_path):
    # "-2,0" after --c must not be mistaken for an option
    assert run(tmp_path, "poincare", "--c", "-2,0", "--eval", "-25,0") == 0
    rows = list(csv.reader((tmp_path / "poincare_eval.csv").open()))
    assert float(rows[1][0]) == -25.0
