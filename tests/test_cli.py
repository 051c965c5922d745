"""Scenario parsing, check execution, artifacts, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from convlap.cli import Scenario, ScenarioError, main, parse_scenario, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL_POLYA = {
    "kind": "polya",
    "set": {"type": "body", "vertices": [[0.0, 0.0]], "rounding": 1.0},
    "terms": [{"pole": [0.3, 0.0], "order": 1, "coefficient": [1.0, 0.0]}],
}

QUICK_POLYA = dict(MINIMAL_POLYA, w_grid={"limit": 1.5, "n": 5},
                   growth={"rays": 8, "radii": [1.0, 3.0, 10.0, 30.0, 100.0]})


def parse(doc) -> Scenario:
    return parse_scenario(json.dumps(doc))


def test_minimal_polya_defaults():
    sc = parse(MINIMAL_POLYA)
    assert sc.kind == "polya"
    assert sc.r == pytest.approx(2.0 * (0.3 + 1.0 + 1.0))
    assert sc.checks == ("oracle", "contour-independence", "growth")
    assert any(s.startswith("r=") for s in sc.defaults_applied)
    assert any(s.startswith("checks=") for s in sc.defaults_applied)
    assert sc.w_limit == 3.0 and sc.w_count == 21
    assert sc.eps_ladder == (0.5, 0.25, 0.1)


def test_pole_outside_set_named():
    doc = dict(MINIMAL_POLYA,
               terms=[{"pole": [2.5, 0.0], "order": 1}])
    with pytest.raises(ScenarioError, match=r"2\.5"):
        parse(doc)


def test_meril_strip_contains_a_line():
    doc = {
        "kind": "meril",
        "set": {"type": "region",
                "halfplanes": [[0.0, 1.0, 1.0], [0.0, -1.0, 1.0]]},
        "terms": [{"pole": [0.0, 0.0], "order": 1}],
    }
    with pytest.raises(ScenarioError, match="contains a line"):
        parse(doc)


def test_bounded_region_redirected_to_polya():
    doc = {
        "kind": "meril",
        "set": {"type": "region",
                "halfplanes": [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0],
                               [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]]},
        "terms": [{"pole": [0.0, 0.0], "order": 1}],
    }
    with pytest.raises(ScenarioError, match="polya"):
        parse(doc)


def test_schema_violations_carry_json_path():
    with pytest.raises(ScenarioError, match=r"\$: invalid JSON"):
        parse_scenario("{not json")
    with pytest.raises(ScenarioError, match=r"\$\.kind"):
        parse({"kind": "fourier", "set": MINIMAL_POLYA["set"], "terms": []})
    with pytest.raises(ScenarioError, match=r"\$\.terms\[0\]\.order"):
        parse(dict(MINIMAL_POLYA, terms=[{"pole": [0.0, 0.0], "order": 0}]))
    with pytest.raises(ScenarioError, match=r"\$\.bogus"):
        parse(dict(MINIMAL_POLYA, bogus=1))
    with pytest.raises(ScenarioError, match=r"\$\.checks\[0\]"):
        parse(dict(MINIMAL_POLYA, checks=["tail-dominance"]))
    with pytest.raises(ScenarioError, match=r"\$\.set\.half_angle"):
        parse({"kind": "meril",
               "set": {"type": "sector", "half_angle": 2.0},
               "terms": []})
    with pytest.raises(ScenarioError, match=r"\$\.tolerances\.oracle"):
        parse(dict(MINIMAL_POLYA, tolerances={"oracle": -1.0}))
    with pytest.raises(ScenarioError, match=r"\$\.growth\.eps_ladder"):
        parse(dict(MINIMAL_POLYA, growth={"eps_ladder": [0.1, 0.5]}))
    with pytest.raises(ScenarioError, match=r"\$\.set"):
        parse({"kind": "legendre",
               "set": {"type": "region", "halfplanes": [[1.0, 0.0, 1.0]]},
               "pieces": []})


def test_quick_polya_run_passes(tmp_path):
    sc = parse(QUICK_POLYA)
    status = run_scenario(sc, out_dir=tmp_path)
    assert status == 0
    report = (tmp_path / "report.txt").read_text()
    for check in sc.checks:
        assert report.count(f"check {check}:") == 1
    assert "result: PASS" in report
    assert "seed: 0" in report
    csv_lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert csv_lines[0] == "w_re,w_im,v_re,v_im,h,ratio,ray_index,radius"
    assert len(csv_lines) == 1 + 8 * 5  # rays x radii, full plane domain


def test_run_is_deterministic(tmp_path):
    sc = parse(QUICK_POLYA)
    run_scenario(sc, out_dir=tmp_path / "a")
    run_scenario(sc, out_dir=tmp_path / "b")
    assert ((tmp_path / "a" / "samples.csv").read_bytes()
            == (tmp_path / "b" / "samples.csv").read_bytes())
    assert ((tmp_path / "a" / "report.txt").read_bytes()
            == (tmp_path / "b" / "report.txt").read_bytes())


def test_planted_escapee_fails_and_names_ray(tmp_path):
    text = (SCENARIO_DIR / "planted_growth.json").read_text()
    status = run_scenario(parse_scenario(text), out_dir=tmp_path)
    assert status == 1
    report = (tmp_path / "report.txt").read_text()
    assert "check growth: FAIL" in report
    assert "worst ray" in report
    assert "result: FAIL" in report
    # Partial artifacts still written on failure.
    assert (tmp_path / "samples.csv").exists()


def test_legendre_scenario_runs(tmp_path):
    text = (SCENARIO_DIR / "reference_legendre.json").read_text()
    sc = parse_scenario(text)
    assert sc.checks == ("biconjugation", "fenchel-young")
    status = run_scenario(sc, out_dir=tmp_path, seed=7)
    assert status == 0
    report = (tmp_path / "report.txt").read_text()
    assert "seed: 7" in report
    assert "check biconjugation: PASS" in report
    assert "check fenchel-young: PASS" in report
    # No growth check: header-only CSV.
    assert (tmp_path / "samples.csv").read_text().count("\n") == 1


def test_meril_scenario_runs(tmp_path):
    text = (SCENARIO_DIR / "reference_meril.json").read_text()
    sc = parse_scenario(text)
    status = run_scenario(sc, out_dir=tmp_path)
    assert status == 0
    report = (tmp_path / "report.txt").read_text()
    assert "check oracle: PASS" in report
    assert "check tail-dominance: PASS" in report
    assert "check epsilon-robustness: PASS" in report


def test_plot_emitted_when_requested(tmp_path):
    sc = parse(dict(QUICK_POLYA, plot=True, checks=["growth"]))
    run_scenario(sc, out_dir=tmp_path)
    svg = (tmp_path / "plot.svg").read_text()
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 8
    assert svg.rstrip().endswith("</svg>")


def test_tolerance_scale_can_force_failure(tmp_path):
    sc = parse(dict(QUICK_POLYA, checks=["oracle"]))
    assert run_scenario(sc, out_dir=tmp_path / "tight",
                        tolerance_scale=1e-12) == 1
    assert run_scenario(sc, out_dir=tmp_path / "loose") == 0


def test_main_exit_codes(tmp_path):
    out = tmp_path / "out"
    quick = tmp_path / "quick.json"
    quick.write_text(json.dumps(dict(QUICK_POLYA, checks=["oracle"])))
    assert main(["run", str(quick), "--out-dir", str(out)]) == 0
    assert main(["run", str(SCENARIO_DIR / "malformed.json"),
                 "--out-dir", str(out)]) == 2
    assert main(["run", str(tmp_path / "missing.json"),
                 "--out-dir", str(out)]) == 2
    assert main(["run", str(quick), "--out-dir", str(out),
                 "--tolerance-scale", "-1"]) == 2


def test_seed_changes_only_sampling(tmp_path):
    text = (SCENARIO_DIR / "reference_legendre.json").read_text()
    sc = parse_scenario(text)
    assert run_scenario(sc, out_dir=tmp_path / "s1", seed=1) == 0
    assert run_scenario(sc, out_dir=tmp_path / "s2", seed=2) == 0
    r1 = (tmp_path / "s1" / "report.txt").read_text()
    r2 = (tmp_path / "s2" / "report.txt").read_text()
    assert "seed: 1" in r1 and "seed: 2" in r2


def test_module_entry_point_imports_cli_once():
    # The package loads cli lazily, so running it as a module does not
    # find it already imported (a RuntimeWarning, an error here).
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "convlap.cli",
         "--help"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "usage" in proc.stdout


def test_cli_still_resolves_from_the_package():
    import convlap

    assert convlap.cli.main is main
    with pytest.raises(AttributeError):
        convlap.no_such_module
