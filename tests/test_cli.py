"""Scenario parsing, check execution, artifacts, exit codes."""

import dataclasses
import gc
import json
import math
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from convlap import cli, legendre
from convlap.cli import Scenario, ScenarioError, main, parse_scenario, run_scenario
from convlap.convexgeom import ConvexBody, signed_distance
from convlap.growth import GrowthReport, GrowthSample
from convlap.legendre import conjugate
from convlap.transforms import polya_transform, residue_oracle

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
    assert sc.r == pytest.approx(1.25)  # 1.25 * (max|vertex| + rounding)
    assert sc.checks == ("oracle", "contour-independence", "growth")
    assert any(s.startswith("r=") for s in sc.defaults_applied)
    assert any(s.startswith("checks=") for s in sc.defaults_applied)
    assert sc.w_limit == 3.0 and sc.w_count == 21
    assert sc.eps_ladder == (0.5, 0.25, 0.1)


@pytest.mark.parametrize("name", ["reference_polya.json",
                                  "reference_meril.json",
                                  "reference_legendre.json",
                                  "planted_growth.json"])
def test_eps_is_a_default_only_where_it_is_used(name):
    doc = json.loads((SCENARIO_DIR / name).read_text())
    doc.pop("eps", None)
    defaults = parse(doc).defaults_applied
    eps = [d for d in defaults if d.startswith("eps")]
    assert eps == (["eps=0.1", "eps_prime=0.1"] if doc["kind"] == "meril"
                   else [])
    # A non-positive eps is rejected for every kind all the same.
    for bad in (0.0, -0.5):
        with pytest.raises(ScenarioError, match=r"\$\.eps: must be positive"):
            parse(dict(doc, eps=bad))


def test_pole_outside_set_named():
    doc = dict(MINIMAL_POLYA,
               terms=[{"pole": [2.5, 0.0], "order": 1}])
    with pytest.raises(ScenarioError, match=r"\$\.terms: pole \(?2\.5"):
        parse(doc)


def test_meril_strip_contains_a_line():
    doc = {
        "kind": "meril",
        "set": {"type": "region",
                "halfplanes": [[0.0, 1.0, 1.0], [0.0, -1.0, 1.0]]},
        "terms": [{"pole": [0.0, 0.0], "order": 1}],
    }
    with pytest.raises(ScenarioError, match=r"\$\.set: .*contains a line"):
        parse(doc)


def test_bounded_region_redirected_to_polya():
    doc = {
        "kind": "meril",
        "set": {"type": "region",
                "halfplanes": [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0],
                               [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]]},
        "terms": [{"pole": [0.0, 0.0], "order": 1}],
    }
    with pytest.raises(ScenarioError, match=r"\$\.set: .*polya"):
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
    # The transform's own preconditions, at the field they concern.
    with pytest.raises(ScenarioError, match=r"\$\.r: circle radius 0\.5 too"):
        parse(dict(MINIMAL_POLYA, r=0.5))
    with pytest.raises(ScenarioError, match=r"\$\.r: .*must be positive"):
        parse(dict(MINIMAL_POLYA, r=-1.0))
    with pytest.raises(ScenarioError, match=r"\$\.tolerances\.oracle"):
        parse(dict(MINIMAL_POLYA, tolerances={"oracle": -1.0}))
    # A check without a tolerance takes no override.
    with pytest.raises(ScenarioError, match=r"\$\.tolerances\.growth: .*no"):
        parse(dict(MINIMAL_POLYA, tolerances={"growth": 1e-3}))
    with pytest.raises(ScenarioError,
                       match=r"\$\.tolerances\.tail-dominance: .*no"):
        parse(dict(REFERENCE_MERIL, tolerances={"tail-dominance": 1e-3}))
    with pytest.raises(ScenarioError, match=r"\$\.growth\.eps_ladder"):
        parse(dict(MINIMAL_POLYA, growth={"eps_ladder": [0.1, 0.5]}))
    # Radii the growth check would reject at run time, with exit 1.
    for radii in ([10.0, 1.0], [], [-1.0, 2.0]):
        with pytest.raises(ScenarioError, match=r"\$\.growth\.radii"):
            parse(dict(MINIMAL_POLYA, growth={"radii": radii}))
    with pytest.raises(ScenarioError, match=r"\$\.set"):
        parse({"kind": "legendre",
               "set": {"type": "region", "halfplanes": [[1.0, 0.0, 1.0]]},
               "pieces": []})


@pytest.mark.parametrize("doc, message", [
    (dict(MINIMAL_POLYA, terms=[{"pole": [0.3, 0.0, 1.0]}]),
     "$.terms[0].pole: expected a [re, im] pair"),
    (dict(MINIMAL_POLYA, terms=[{"pole": [0.3, "0"]}]),
     "$.terms[0].pole[1]: expected a number"),
    (dict(MINIMAL_POLYA, set={"type": "body", "vertices": {}}),
     "$.set.vertices: expected an array"),
    ({"kind": "meril", "terms": [],
      "set": {"type": "region",
              "halfplanes": [[0.0, 1.0, 1.0], [1.0, 0.0]]}},
     "$.set.halfplanes[1]: expected [nx, ny, c]"),
    ({"kind": "meril", "terms": [],
      "set": {"type": "region", "halfplanes": [[0.0, 1.0, None]]}},
     "$.set.halfplanes[0][2]: expected a number"),
    ({"kind": "legendre", "set": MINIMAL_POLYA["set"],
      "pieces": [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]},
     "$.pieces[1]: expected [b_re, b_im, c]"),
    ({"kind": "legendre", "set": MINIMAL_POLYA["set"],
      "pieces": [[1.0, 1e999, 0.0]]},
     "$.pieces[0][1]: expected a finite number"),
    (dict(MINIMAL_POLYA, growth={"eps_ladder": 0.5}),
     "$.growth.eps_ladder: expected an array"),
    (dict(MINIMAL_POLYA, growth={"eps_ladder": [0.5, True]}),
     "$.growth.eps_ladder[1]: expected a number"),
    (dict(MINIMAL_POLYA, growth={"radii": [1.0, 3.0, "10"]}),
     "$.growth.radii[2]: expected a number"),
])
def test_number_lists_name_the_failing_entry(doc, message):
    with pytest.raises(ScenarioError) as info:
        parse(doc)
    assert str(info.value) == message


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
    assert csv_lines[0] == "w_re,w_im,v_re,v_im,v_err,h,ratio,ray_index,radius"
    assert len(csv_lines) == 1 + 8 * 5  # rays x radii, full plane domain


def _csv_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    return [dict(zip(names, map(float, line.split(",")))) for line in lines[1:]]


@pytest.mark.parametrize("doc", [QUICK_POLYA, json.loads(
    (SCENARIO_DIR / "reference_polya.json").read_text())])
def test_samples_csv_error_column_covers_the_oracle_gap(tmp_path, doc):
    sc = parse(dict(doc, checks=["growth"], plot=False))
    assert run_scenario(sc, out_dir=tmp_path) == 0
    rows = _csv_rows(tmp_path / "samples.csv")
    assert len(rows) == sc.growth_rays * len(sc.growth_radii)
    for row in rows:
        w = complex(row["w_re"], row["w_im"])
        gap = abs(complex(row["v_re"], row["v_im"]) - residue_oracle(sc.datum, w))
        assert gap <= row["v_err"], (w, gap, row["v_err"])


def test_samples_csv_row_that_overflows_is_written_as_nan(tmp_path):
    # |w| = 1000 needs e^{r|w|} beyond the float range: the growth check
    # reads log_abs and passes, the row carries nan with an infinite error.
    doc = dict(QUICK_POLYA, checks=["growth"],
               growth={"rays": 4, "radii": [1, 10, 1000]})
    quick = tmp_path / "overflow.json"
    quick.write_text(json.dumps(doc))
    assert main(["run", str(quick), "--out-dir", str(tmp_path)]) == 0
    assert "result: PASS" in (tmp_path / "report.txt").read_text()
    rows = _csv_rows(tmp_path / "samples.csv")
    assert len(rows) == 12
    for row in rows:
        if row["radius"] == 1000:
            assert math.isnan(row["v_re"]) and math.isnan(row["v_im"])
            assert row["v_err"] == math.inf
        else:
            assert math.isfinite(row["v_re"]) and row["v_err"] < 1e-6


def _generated_polya_docs(seed: int, count: int):
    # Bodies and data as the benchmark's generated scenarios: the unit
    # disk, a rounded square and rounded 3-5-gons; 1-3 poles at least
    # 0.15 inside; orders 1-3; no "r", so the runner picks the radius.
    rng = np.random.default_rng(seed)
    square = ConvexBody([0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j],
                        rounding=0.25)
    for i in range(count):
        sides, rot = 3 + (i // 3) % 3, rng.uniform(0.0, 2.0 * math.pi)
        gon = ConvexBody([0.6 * np.exp(1j * (rot + 2.0 * math.pi * k / sides))
                          for k in range(sides)], rounding=0.2)
        body = (ConvexBody([0j], rounding=1.0), square, gon)[i % 3]
        reach = max(abs(v) for v in body.vertices) + body.rounding
        terms = []
        while len(terms) < 1 + (i // 9) % 3:
            a = complex(*rng.uniform(-reach, reach, 2))
            if signed_distance(body, a) < -0.15:
                terms.append({"pole": [a.real, a.imag],
                              "order": int(rng.integers(1, 4)),
                              "coefficient": rng.uniform(-2, 2, 2).tolist()})
        yield {"kind": "polya",
               "set": {"type": "body", "rounding": body.rounding,
                       "vertices": [[v.real, v.imag] for v in body.vertices]},
               "terms": terms}


def test_default_radius_keeps_generated_polya_at_the_oracle():
    grid = [complex(x, y) for x in np.linspace(-3, 3, 7)
            for y in np.linspace(-3, 3, 7)]
    far = [10.0 * np.exp(2j * math.pi * k / 8) for k in range(8)]
    worst_grid = worst_far = 0.0
    for seed in (1, 2, 3):
        for doc in _generated_polya_docs(seed, 100):
            sc = parse(doc)
            v = polya_transform(sc.datum, sc.domain, sc.r, sc.center)
            for w in grid:
                ref = residue_oracle(sc.datum, w)
                worst_grid = max(worst_grid, abs(v(w) - ref) / (1 + abs(ref)))
            for w in far:
                ref = residue_oracle(sc.datum, w)
                got, err = v.with_error(w)
                assert abs(got - ref) <= err
                worst_far = max(worst_far, abs(got - ref) / (1 + abs(ref)))
    assert worst_grid <= 1e-12
    assert worst_far <= 1e-9


OFF_ORIGIN_POLYA = {
    "kind": "polya",
    "set": {"type": "body", "vertices": [[2.0, 1.0], [3.0, 1.0], [3.0, 2.0]],
            "rounding": 0.5},
    "terms": [{"pole": [2.7, 1.3], "order": 2}]}


def test_default_radius_encloses_a_body_off_the_origin():
    sc = parse(OFF_ORIGIN_POLYA)
    center = (8.0 + 4.0j) / 3.0
    assert sc.center == pytest.approx(center, abs=1e-15)
    extent = max(abs(v - center) for v in (2 + 1j, 3 + 1j, 3 + 2j)) + 0.5
    assert sc.r == pytest.approx(1.25 * extent)
    assert any(s.startswith("center=") for s in sc.defaults_applied)
    # The clearance check passes about the centre.
    v = polya_transform(sc.datum, sc.domain, sc.r, sc.center)
    w = 0.5 - 0.25j
    assert v(w) == pytest.approx(residue_oracle(sc.datum, w), rel=1e-9)


def test_off_origin_body_passes_its_default_oracle_check(tmp_path):
    # With a circle about the origin (r = 5.13) the deviation on the
    # default 21x21 grid was 2.2e-8, above the 1e-9 default.
    doc = dict(OFF_ORIGIN_POLYA, checks=["oracle"])
    assert run_scenario(parse(doc), out_dir=tmp_path) == 0
    report = (tmp_path / "report.txt").read_text()
    worst = float(report.split("max scaled deviation ")[1].split()[0])
    assert worst <= 1e-13


def test_default_centre_is_zero_on_bodies_centred_at_the_origin():
    # The disk, the square and regular polygons: the vertices' own
    # rounding leaves their mean up to about 2.6e-16 off 0.
    for doc in _generated_polya_docs(4, 30):
        assert abs(parse(doc).center) <= 1e-15


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


def test_legendre_run_computes_each_conjugate_once(tmp_path, monkeypatch):
    # conjugate(f) serves both checks; the biconjugation adds conjugate(f*).
    calls = []

    def counted(f):
        calls.append(f)
        return conjugate(f)

    monkeypatch.setattr(legendre, "conjugate", counted)
    monkeypatch.setattr(cli, "conjugate", counted)
    sc = parse_scenario((SCENARIO_DIR / "reference_legendre.json").read_text())
    assert run_scenario(sc, out_dir=tmp_path) == 0
    assert len(calls) == 2
    assert calls[0] is sc.pl_function and calls[1] is not sc.pl_function


def test_meril_scenario_runs(tmp_path):
    text = (SCENARIO_DIR / "reference_meril.json").read_text()
    sc = parse_scenario(text)
    status = run_scenario(sc, out_dir=tmp_path)
    assert status == 0
    report = (tmp_path / "report.txt").read_text()
    assert "check oracle: PASS" in report
    assert "check tail-dominance: PASS" in report
    assert "check epsilon-robustness: PASS" in report


REFERENCE_MERIL = json.loads((SCENARIO_DIR / "reference_meril.json").read_text())


@pytest.mark.parametrize("doc", [
    REFERENCE_MERIL,
    # The last point lies outside the shifted dual cone: each check
    # reports the one evaluation's ValueError.
    dict(REFERENCE_MERIL, w_samples=[[-1.5, 0.2], [-3.0, -0.5], [1.0, 0.0]]),
])
def test_meril_traces_are_evaluated_once_per_run(tmp_path, monkeypatch, doc):
    sc = parse(doc)
    calls = Counter()
    trace = sc.transform.diagnostics

    def counted(w):
        calls[complex(w)] += 1
        return trace(w)

    def full(w):
        t = counted(w)
        return t.value, t.error

    sc = dataclasses.replace(sc, transform=dataclasses.replace(
        sc.transform, full_eval=full, diagnostics=counted))
    points = cli._meril_points(sc)
    status = run_scenario(sc, out_dir=tmp_path / "once")
    assert calls == Counter(points)
    # Every check evaluating its own traces, as the runner did before.
    calls.clear()
    monkeypatch.setattr(cli, "_meril_traces", lambda v: v)
    assert run_scenario(sc, out_dir=tmp_path / "each") == status
    assert calls == Counter({w: 3 for w in points})
    for name in ("report.txt", "samples.csv"):
        assert ((tmp_path / "once" / name).read_bytes()
                == (tmp_path / "each" / name).read_bytes())
    report = (tmp_path / "once" / "report.txt").read_text()
    if "w_samples" in doc:
        assert status == 1
        assert report.count("check raised ValueError('w is outside") == 3
    else:
        assert status == 0


QUICK_GROWTH = {"eps_ladder": [0.5, 0.1], "rays": 4, "radii": [1.0, 10.0]}


# Each kind's whole vocabulary, listed against the table's order, and the
# tolerance text each line shows at tolerance_scale=10 (None: the check
# has no tolerance).
@pytest.mark.parametrize("doc, expected", [
    (dict(QUICK_POLYA, growth=QUICK_GROWTH),
     {"growth": None, "contour-independence": "allowance 1.0e-09",
      "oracle": "tolerance 1.0e-08"}),
    (dict(REFERENCE_MERIL, w_samples=[[-2.0, 0.5]], growth=QUICK_GROWTH),
     {"growth": None, "epsilon-robustness": "tolerance 1.0e-07",
      "tail-dominance": None, "oracle": "tolerance 1.0e-07"}),
    (dict(json.loads((SCENARIO_DIR / "reference_legendre.json").read_text()),
          samples_count=5),
     {"fenchel-young": "tolerance 1.0e-09",
      "biconjugation": "tolerance 1.0e-08"}),
    (dict(json.loads((SCENARIO_DIR / "planted_growth.json").read_text()),
          growth=QUICK_GROWTH),
     {"growth": None}),
])
def test_every_check_runs_in_document_order_at_its_default_tolerance(
        tmp_path, doc, expected):
    sc = parse(dict(doc, checks=list(expected)))
    assert set(sc.checks) == set(cli._KIND_CHECKS[sc.kind])
    run_scenario(sc, out_dir=tmp_path, tolerance_scale=10)
    lines = [line for line in (tmp_path / "report.txt").read_text()
             .splitlines() if line.startswith("check ")]
    assert [line.split(":")[0] for line in lines] == [
        f"check {name}" for name in expected]
    for line, text in zip(lines, expected.values()):
        if text is None:
            assert "tolerance" not in line and "allowance" not in line
        else:
            assert text in line, line


def test_plot_emitted_when_requested(tmp_path):
    sc = parse(dict(QUICK_POLYA, plot=True, checks=["growth"]))
    run_scenario(sc, out_dir=tmp_path)
    svg = (tmp_path / "plot.svg").read_text()
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 8
    assert svg.rstrip().endswith("</svg>")


def test_plot_of_a_one_radius_ladder_centres_its_points(tmp_path):
    doc = json.loads((SCENARIO_DIR / "reference_polya.json").read_text())
    sc = parse(dict(doc, growth={"radii": [2.0], "rays": 4},
                    checks=["growth"]))
    assert run_scenario(sc, out_dir=tmp_path) == 0
    svg = (tmp_path / "plot.svg").read_text()
    # The x range widens to a decade each way, as a flat y range does.
    # Each ray's one sample is a mark, since a one-point line draws nothing.
    assert svg.count('<circle cx="320.00"') == 4
    assert "<polyline" not in svg
    assert '>0.2</text>' in svg and '>20</text>' in svg


def test_plot_marks_only_the_rays_with_one_finite_sample():
    def sample(k, radius, log_abs):
        return GrowthSample(complex(radius), 0.0, log_abs, k, radius)

    report = GrowthReport(
        epsilon=0.5, radii=(1.0, 10.0), rays=3,
        samples=(sample(0, 1.0, 0.0), sample(0, 10.0, 1.0),
                 sample(1, 1.0, -math.inf), sample(1, 10.0, 2.0),
                 sample(2, 1.0, -math.inf), sample(2, 10.0, -math.inf)),
        log_radius_sups=(-0.5, -3.0), verdict="bounded", growth_rate=0.0)
    svg = cli._svg_text(report)
    assert svg.count("<polyline") == 1 and svg.count("<circle") == 1
    assert 'stroke="hsl(0,65%,40%)"' in svg
    assert '<circle cx="580.00" cy="' in svg
    assert 'fill="hsl(120,65%,40%)"' in svg


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
    small = tmp_path / "small.json"  # the circle does not clear the body
    small.write_text(json.dumps(dict(QUICK_POLYA, r=0.5)))
    assert main(["run", str(small), "--out-dir", str(out)]) == 2
    assert main(["run", str(tmp_path / "missing.json"),
                 "--out-dir", str(out)]) == 2
    assert main(["run", str(quick), "--out-dir", str(out),
                 "--tolerance-scale", "-1"]) == 2


def _rejected(capsys, argv, out) -> str:
    """main's stderr for argv, which must exit 2 with one line and leave
    no artifacts (out does not exist)."""
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    return err


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_main_rejects_a_tolerance_scale_that_is_not_finite(tmp_path, capsys,
                                                           scale):
    # nan would fail every tolerance check and inf pass each vacuously.
    err = _rejected(capsys, ["run", str(SCENARIO_DIR / "reference_polya.json"),
                             "--tolerance-scale", scale], tmp_path / "out")
    assert "--tolerance-scale" in err


@pytest.mark.parametrize("name", ["reference_polya.json",
                                  "reference_meril.json",
                                  "reference_legendre.json",
                                  "planted_growth.json"])
def test_main_rejects_a_negative_seed_for_every_kind(tmp_path, capsys, name):
    err = _rejected(capsys, ["run", str(SCENARIO_DIR / name), "--seed", "-1"],
                    tmp_path / "out")
    assert "--seed" in err


@pytest.mark.parametrize("name", ["reference_polya.json",
                                  "reference_legendre.json"])
@pytest.mark.parametrize("options", [{"seed": -1},
                                     {"seed": 1.5},
                                     {"seed": 1.0},
                                     {"seed": "1"},
                                     {"seed": True},
                                     {"tolerance_scale": 0.0},
                                     {"tolerance_scale": -1.0},
                                     {"tolerance_scale": math.nan},
                                     {"tolerance_scale": math.inf}],
                         ids=lambda o: "%s=%s" % next(iter(o.items())))
def test_run_scenario_rejects_the_options_main_rejects(tmp_path, name,
                                                       options):
    sc = parse_scenario((SCENARIO_DIR / name).read_text())
    option = "--" + next(iter(options)).replace("_", "-")
    with pytest.raises(ScenarioError, match=option):
        run_scenario(sc, out_dir=tmp_path / "out", **options)
    assert not (tmp_path / "out").exists()


def test_run_scenario_takes_a_numpy_integer_seed(tmp_path):
    sc = parse_scenario((SCENARIO_DIR / "reference_legendre.json").read_text())
    assert run_scenario(sc, out_dir=tmp_path / "a", seed=np.int64(7)) == 0
    assert run_scenario(sc, out_dir=tmp_path / "b", seed=7) == 0
    for name in ("report.txt", "samples.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_main_rejects_a_scenario_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(json.dumps(dict(QUICK_POLYA, label="P\xf3lya"),
                               ensure_ascii=False).encode("latin-1"))
    err = _rejected(capsys, ["run", str(bad)], tmp_path / "out")
    assert err.startswith("error: cannot read scenario: ")


@pytest.mark.parametrize("name", ["reference_polya.json",
                                  "reference_meril.json"])
def test_a_finished_run_keeps_no_transform_alive(tmp_path, name):
    doc = json.loads((SCENARIO_DIR / name).read_text())
    sc = parse(dict(doc, checks=["growth"],
                    growth={"rays": 8, "radii": [1.0, 10.0, 100.0]}))
    transform = weakref.ref(sc.transform)
    run_scenario(sc, out_dir=tmp_path)
    del sc
    gc.collect()
    assert transform() is None


def test_seed_changes_only_sampling(tmp_path):
    text = (SCENARIO_DIR / "reference_legendre.json").read_text()
    sc = parse_scenario(text)
    assert run_scenario(sc, out_dir=tmp_path / "s1", seed=1) == 0
    assert run_scenario(sc, out_dir=tmp_path / "s2", seed=2) == 0
    r1 = (tmp_path / "s1" / "report.txt").read_text()
    r2 = (tmp_path / "s2" / "report.txt").read_text()
    assert "seed: 1" in r1 and "seed: 2" in r2


def test_module_entry_point_imports_cli_once(same_package_env):
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


def test_only_documents_that_sample_build_a_generator(tmp_path, monkeypatch):
    seeds = []
    make = np.random.default_rng

    def counted(seed=None):
        seeds.append(seed)
        return make(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    legendre = dict(json.loads(
        (SCENARIO_DIR / "reference_legendre.json").read_text()),
        samples_count=5)
    for i, doc in enumerate([
            dict(QUICK_POLYA, checks=["oracle"]),
            dict(REFERENCE_MERIL, w_samples=[[-2.0, 0.5]], checks=["oracle"]),
            dict(legendre, checks=["fenchel-young", "biconjugation"])]):
        assert run_scenario(parse(doc), out_dir=tmp_path / str(i),
                            seed=11) == 0
    assert seeds == [11]


# Domains with no point 1e-6 inside them, where the interior samples of
# both Legendre checks used to be drawn forever.
@pytest.mark.parametrize("vertices", [
    [[0.3, 0.2]],
    [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-7]],
])
def test_legendre_checks_without_interior_points_fail_promptly(
        tmp_path, same_package_env, vertices):
    doc = tmp_path / "thin.json"
    doc.write_text(json.dumps({
        "kind": "legendre", "set": {"type": "body", "vertices": vertices},
        "pieces": [[1.0, 0.0, 0.0], [-1.0, 0.5, 0.2]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "convlap.cli", "run", str(doc), "--out-dir",
         str(tmp_path / "out")], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    report = (tmp_path / "out" / "report.txt").read_text()
    for name in ("biconjugation", "fenchel-young"):
        assert (f"check {name}: FAIL - check raised ValueError('no point of "
                f"the domain lies more than 1e-6 inside it") in report
    assert (tmp_path / "out" / "samples.csv").read_text().count("\n") == 1
