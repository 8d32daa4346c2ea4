import csv
import json
import math
import subprocess
import sys

import pytest

from poincarelab import littlewood, preimage
from poincarelab.cli import main


def run(tmp_path, *argv):
    return main(list(argv) + ["--out-dir", str(tmp_path)])


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def read_json(path):
    """Parse an output file as strict JSON: NaN and Infinity are errors."""
    return json.loads(path.read_text(), parse_constant=_reject)


def test_usage_errors_exit_2(tmp_path):
    assert main(["poincare"]) == 2  # no map spec
    assert run(tmp_path, "density", "--set", "powerlaw", "--delta", "2.5",
               "--r", "5") == 2
    assert main(["not-a-command"]) == 2
    # non-finite numbers are usage errors, not tracebacks or numeric failures
    for r in ("nan", "inf"):
        assert run(tmp_path, "preimages", "--c", "-2,0", "--w", "2,0", "--r", r) == 2
    assert run(tmp_path, "poincare", "--c", "nan,0") == 2
    assert run(tmp_path, "poincare", "--c", "-2,0", "--eval", "25,inf") == 2
    for tol in ("inf", "nan"):
        assert run(tmp_path, "littlewood", "--nmax", "1", "--tol", tol) == 2
    for r in ("inf", "nan"):
        assert run(tmp_path, "density", "--set", "powerlaw", "--r", r) == 2
    for what in ("domain", "orbit"):
        for r in ("nan", "inf", "0"):
            assert run(tmp_path, "render", "--what", what, "--r", r, "--out", "x.ppm") == 2
    assert not (tmp_path / "x.ppm").exists()
    assert run(tmp_path, "exceptional", "--threads", "2") == 2
    # --seed belongs to the commands that read it
    assert run(tmp_path, "chebyshev", "--q", "1", "--seed", "1") == 2
    # the quadrature runs on one thread; --threads is no longer a flag
    assert run(tmp_path, "littlewood", "--nmax", "1", "--threads", "2") == 2
    # siegel and exceptional build the golden-type map; they take no --c
    assert run(tmp_path, "exceptional", "--c", "0.3,0.1", "--samples", "10",
               "--kmax", "5") == 2
    assert run(tmp_path, "siegel", "--lambda-gamma", "golden", "--c", "1,1") == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["chebyshev", "--q", "a"],
    ["chebyshev", "--q", "1", "--gamma-cf", "x"],
    ["littlewood", "--family", "monomials", "--nmax", "-1"],
    ["render", "--what", "domain", "--size", "-5", "--out", "x.ppm"],
    ["render", "--what", "domain", "--size", "0", "--out", "x.ppm"],
    ["chebyshev", "--q", ","],
    ["chebyshev", "--q", "0"],
    ["chebyshev", "--q", "2,3", "--terms", "32"],
    ["littlewood", "--nmax", "11"],
    ["exceptional", "--samples", "10", "--kmax", "700"],
    ["preimages", "--lambda-gamma", "golden", "--w", "0.05,0.02", "--r", "200",
     "--kmax", "700"],
    ["render", "--what", "orbit", "--size", "32", "--kmax", "700", "--out", "x.ppm"],
], ids=["q", "gamma-cf", "monomials-nmax", "size-negative", "size-zero", "q-empty", "q-zero",
        "terms-32", "iterates-nmax-11", "exceptional-kmax-700", "preimages-kmax-700",
        "render-kmax-700"])
def test_malformed_flags_exit_2(tmp_path, capsys, monkeypatch, argv):
    # every flag is refused before any preimage work starts
    def refuse(*args, **kwargs):
        raise AssertionError("preimage work ran before the flags were checked")

    for name in ("find_base_preimage", "argument_principle_count"):
        monkeypatch.setattr(preimage, name, refuse)
    assert run(tmp_path, *argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("BadParams: ")
    assert "count" not in out  # the preimages run prints no argument count
    assert not any(tmp_path.iterdir())


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
    blob = read_json(tmp_path / "poincare_series.json")
    assert "coeffs" in blob and "provenance" in blob


def test_failed_run_writes_no_file(tmp_path, capsys):
    # the series builds, then evaluating at 1e300 overflows: exit 3, and the
    # series file is not left behind
    out = tmp_path / "out"
    assert run(out, "poincare", "--c", "-2,0", "--eval", "1e300,0") == 3
    assert "OverflowSentinel" in capsys.readouterr().err
    assert run(out, "render", "--what", "domain", "--c", "-2,0", "--out", "x.png") == 2
    assert not out.exists()


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
    info = read_json(tmp_path / "siegel_info.json")
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
    blob = read_json(tmp_path / "preimage_report.json")
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
    fit = read_json(tmp_path / "littlewood_fit.json")
    assert "slope" in fit and "alpha_hat" in fit
    assert abs(fit["alpha_hat"] - (0.5 - fit["slope"])) < 1e-12


def test_littlewood_over_budget_exits_4_with_files(tmp_path, capsys, monkeypatch):
    # n = 1..3 need at most 5,678 evaluations at the default tol, n = 4 and
    # 5 need 11,730 and 28,458: their rows are written with no error estimate
    monkeypatch.setattr(littlewood, "EVAL_BUDGET", 8_000)
    assert run(tmp_path, "littlewood", "--nmax", "5") == 4
    assert "evaluation budget of 8000 exceeded" in capsys.readouterr().err
    rows = list(csv.DictReader((tmp_path / "littlewood.csv").open()))
    assert [r["degree"] for r in rows] == ["2", "4", "8", "16", "32"]
    assert [r["error_estimate"] for r in rows[3:]] == ["inf", "inf"]
    assert all(float(r["error_estimate"]) <= 1e-4 for r in rows[:3])
    assert all(int(r["evaluations"]) <= 8_000 for r in rows)
    fit = read_json(tmp_path / "littlewood_fit.json")
    assert len(fit["pairs"]) == 5


def test_chebyshev_family_csv(tmp_path):
    code = run(tmp_path, "chebyshev", "--q", "1,2", "--gamma-cf", "2,20,1,1,1,1,1,1")
    assert code == 0
    rows = list(csv.reader((tmp_path / "chebyshev_family.csv").open()))
    assert rows[0][0] == "q"
    assert len(rows) == 3
    for r in rows[1:]:
        mu_abs = float(r[10])
        assert 1.0 < mu_abs < 4.0
    blob = read_json(tmp_path / "chebyshev_family.json")
    assert len(blob["rows"]) == 2


def test_chebyshev_json_is_strict_when_every_row_fails(tmp_path):
    # gamma = [0; 1, 1000000] stalls the multiplier Newton, so no row succeeds
    # and the limits have no value: they must be null, not the NaN token
    code = run(tmp_path, "chebyshev", "--q", "1", "--gamma-cf", "1,1000000")
    assert code == 0
    blob = read_json(tmp_path / "chebyshev_family.json")
    assert blob["rows"][0]["error"]
    assert blob["limits"]["min_abs_c_plus_2"] is None
    assert blob["limits"]["final_rho"] is None


def test_density_empty_set(tmp_path):
    code = run(tmp_path, "density", "--set", "empty", "--r", "5")
    assert code == 0
    blob = read_json(tmp_path / "density.json")
    assert blob["value"] == 0.0
    assert blob["certified_bound"] == 0.0


def test_density_powerlaw_under_certificate(tmp_path):
    code = run(tmp_path, "density", "--set", "powerlaw", "--C", "10",
               "--delta", "0.5", "--r", "20", "--samples", "20000", "--seed", "2")
    assert code == 0
    blob = read_json(tmp_path / "density.json")
    assert blob["value"] <= blob["certified_bound"] + 3 * blob["std_error"]


@pytest.mark.parametrize("argv", [
    ("density", "--set", "powerlaw", "--C", "inf", "--r", "5", "--samples", "2000"),
    ("density", "--set", "sectors", "--C", "nan", "--r", "5"),
    ("exceptional", "--set", "sectors", "--C", "1e400", "--samples", "10", "--kmax", "5"),
], ids=["density_inf", "density_nan", "exceptional_1e400"])
def test_unbounded_density_constant_exits_2_and_writes_nothing(tmp_path, argv):
    assert run(tmp_path, *argv) == 2
    assert list(tmp_path.iterdir()) == []


def test_exceptional_survey_outputs(tmp_path, capsys):
    code = run(tmp_path, "exceptional", "--set", "empty", "--samples", "10",
               "--kmax", "8", "--seed", "4")
    assert code == 0
    out = capsys.readouterr().out
    assert "target" in out
    table = (tmp_path / "exceptional_ratio_table.csv").read_text()
    assert table.splitlines()[0] == "r = |mu|^k * C1,count,count/log r,target = 1/log|mu|"
    blob = read_json(tmp_path / "exceptional_report.json")
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
