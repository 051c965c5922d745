"""End-to-end acceptance: nine oracle-equivalence and invariant checks.

Each test prints one pass/fail line (with its runtime against budget)
and asserts both the tolerance and the budget.
"""

import cmath
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from convlap.cli import _square_grid
from convlap.convexgeom import ConvexBody, sector, support_function, thicken
from convlap.dolbeault import CutoffProfile, area_laplace
from convlap.growth import classify_growth, growth_ratio_sup
from convlap.legendre import PLConvexFunction, conjugate, conjugate_at
from convlap.transforms import (
    MeromorphicDatum,
    borel_inverse,
    meril_transform,
    polya_transform,
    residue_oracle,
    residue_transform,
)

TWO_PI_I = 2j * math.pi
UNIT_DISK = ConvexBody([0j], rounding=1.0)
ROUND_SQUARE = ConvexBody([0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j,
                           0.5 - 0.5j], rounding=0.25)
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


QUARTER_SECTOR = sector(0j, 0.0, math.pi / 4)


def _verdict(num: int, name: str, ok: bool, detail: str,
             elapsed: float, budget: float) -> None:
    mark = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{mark}] criterion {num} ({name}): {detail} "
          f"[{elapsed:.1f}s of {budget:.0f}s budget]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def _random_data(rng, body: ConvexBody, count: int):
    if body.rounding >= 1.0:
        sample = lambda: complex(*rng.uniform(-0.45, 0.45, 2)) * 1.3
    else:
        sample = lambda: complex(*rng.uniform(-0.45, 0.45, 2))
    out = []
    for _ in range(count):
        terms = []
        for _ in range(int(rng.integers(1, 6))):
            terms.append((sample(), int(rng.integers(1, 4)),
                          complex(*rng.uniform(-2, 2, 2))))
        out.append(MeromorphicDatum(terms))
    return out


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(20260822)
    return [(UNIT_DISK, u) for u in _random_data(rng, UNIT_DISK, 10)] + \
           [(ROUND_SQUARE, u) for u in _random_data(rng, ROUND_SQUARE, 10)]


@pytest.fixture(scope="module")
def meril_setup():
    u = MeromorphicDatum([(1 + 0j, 1, 1.0)])
    v = meril_transform(u, QUARTER_SECTOR, 0.1, 0.1)
    shift = -0.1
    ws = [shift + r * complex(math.cos(t), math.sin(t))
          for t in (math.pi, math.pi - 0.3, math.pi + 0.3,
                    math.pi - 0.6, math.pi + 0.6)
          for r in (1.2, 2.5)]
    return u, v, ws


def test_criterion_1_polya_residue_equivalence(corpus):
    t0 = time.perf_counter()
    grid = _square_grid(3.0, 21)
    worst = 0.0
    for body, u in corpus:
        v = polya_transform(u, body, 2.0, abs_tol=1e-13)
        for w in grid:
            ref = residue_oracle(u, w)
            worst = max(worst, abs(v(w) - ref) / (1.0 + abs(ref)))
    ok = worst <= 1e-9
    _verdict(1, "polya vs residue oracle", ok,
             f"max scaled deviation {worst:.2e} <= 1e-9 over 20 data sets, "
             f"21x21 grid", time.perf_counter() - t0, 30.0)


def test_polya_error_estimate_covers_the_oracle_gap(corpus):
    # At r = 2 on a 9x9 grid and on rings out to |w| = 15, where the
    # e^{r|w|} roundoff of the circle dominates the value, the returned
    # error never falls below the gap to the residue oracle.
    grid = _square_grid(3.0, 9)
    rings = [rad * complex(math.cos(0.3 + k * math.pi / 4),
                           math.sin(0.3 + k * math.pi / 4))
             for rad in (6.0, 8.0, 10.0, 12.5, 15.0) for k in range(8)]
    for abs_tol in (1e-13, 1e-11):
        for body, u in corpus:
            v = polya_transform(u, body, 2.0, abs_tol=abs_tol)
            for w in grid + rings:
                value, err = v.with_error(w)
                assert abs(value - residue_oracle(u, w)) <= err, (u, w)


def test_polya_error_estimate_covers_the_oracle_gap_at_large_w():
    # On the unit disk at r = 1.25 out to |w| = 560 (r|w| = 700), where
    # the kernel's peak e^{r|w|} exceeds the value by up to e^{450}.
    rng = np.random.default_rng(20261018)
    for u in _random_data(rng, UNIT_DISK, 40):
        v = polya_transform(u, UNIT_DISK, 1.25)
        for mag in (20.0, 50.0, 100.0, 300.0, 560.0):
            for k in range(8):
                w = mag * cmath.exp(1j * (0.1 + k * math.pi / 4))
                value, err = v.with_error(w)
                assert abs(value - residue_oracle(u, w)) <= err, (u, w)


def test_criterion_2_contour_independence(corpus):
    t0 = time.perf_counter()
    grid = _square_grid(1.5, 5)
    worst = 0.0
    ok = True
    for body, u in corpus:
        vs = [polya_transform(u, body, r, abs_tol=1e-13)
              for r in (1.5, 2.25, 4.5)]
        for w in grid:
            vals = [t.with_error(w) for t in vs]
            for (a, ea), (b, eb) in zip(vals, vals[1:]):
                gap = abs(a - b)
                worst = max(worst, gap)
                if gap > 1e-10 + ea + eb:
                    ok = False
    _verdict(2, "contour independence r/1.5r/3r", ok,
             f"max pairwise gap {worst:.2e} within 1e-10 + error estimates",
             time.perf_counter() - t0, 10.0)


def test_criterion_3_dolbeault_green_oracle(corpus):
    t0 = time.perf_counter()
    data = corpus[:3] + corpus[10:12]
    grid = _square_grid(2.0, 5)
    worst = 0.0
    ok = True
    coarse_max = fine_max = 0.0
    for body, u in data:
        eps = 1.0 if body is UNIT_DISK else 0.5
        profile = CutoffProfile(body, eps)
        v = polya_transform(u, body, 3.0, abs_tol=1e-13)
        for w in grid:
            contour, cerr = v.with_error(w)
            area = area_laplace(u, profile, w, grid=512)
            gap = abs(area.value - contour)
            worst = max(worst, gap)
            if gap > area.error + cerr or gap > 1e-8:
                ok = False
            # Grid 512 sits at roundoff; the doubling check runs below it.
            coarse_max = max(coarse_max,
                             abs(area_laplace(u, profile, w, grid=128).value
                                 - contour))
            fine_max = max(fine_max,
                           abs(area_laplace(u, profile, w, grid=256).value
                               - contour))
    shrinks = fine_max < coarse_max
    _verdict(3, "area integral vs contour", ok and shrinks,
             f"max gap {worst:.2e} <= 1e-8 within combined error; "
             f"doubling 128 -> 256 shrinks {coarse_max:.2e} -> "
             f"{fine_max:.2e}",
             time.perf_counter() - t0, 120.0)


def test_criterion_4_legendre_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    square = ConvexBody([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
    f = PLConvexFunction(
        [(1 - 1j, 0.0), (1 + 1j, 0.0), (-1 - 1j, 0.0), (-1 + 1j, 0.0)],
        square)
    f_cc = conjugate(conjugate(f))
    zs = [complex(*rng.uniform(-0.95, 0.95, 2)) for _ in range(100)]
    bic = max(abs(f.value(z) - f_cc.value(z)) for z in zs)

    ws = [complex(*rng.uniform(-3, 3, 2)) for _ in range(100)]
    fy = max(((z * w).real - f.value(z) - conjugate_at(f, w))
             for z in zs for w in ws)

    eps = 0.25
    thick_ind = PLConvexFunction([], thicken(ROUND_SQUARE, eps))
    thick_err = 0.0
    for _ in range(1000):
        w = complex(*rng.uniform(-4, 4, 2))
        want = support_function(ROUND_SQUARE, w) + eps * abs(w)
        thick_err = max(thick_err, abs(conjugate_at(thick_ind, w) - want))

    eps_p = 0.125
    xi0 = -1 + 0j
    s_eps = thicken(QUARTER_SECTOR, eps)
    f_shift = PLConvexFunction([(eps_p * xi0, 0.0)], s_eps)
    shift_err = 0.0
    finite = 0
    for _ in range(1000):
        w = complex(*rng.uniform(-4, 4, 2))
        got = conjugate_at(f_shift, w)
        want = support_function(s_eps, w - eps_p * xi0)
        if math.isinf(want) or math.isinf(got):
            assert math.isinf(want) and math.isinf(got)
            continue
        finite += 1
        shift_err = max(shift_err, abs(got - want))
    ok = (bic <= 1e-9 and fy <= 1e-10 and thick_err <= 1e-12
          and shift_err <= 1e-10 and finite > 100)
    _verdict(4, "legendre suite", ok,
             f"biconjugation {bic:.2e} <= 1e-9; fenchel-young {fy:.2e} "
             f"<= 1e-10; thickened-set conjugate {thick_err:.2e} <= 1e-12; "
             f"shifted-cone conjugate {shift_err:.2e} <= 1e-10",
             time.perf_counter() - t0, 10.0)


def test_criterion_5_meril_tail_control(meril_setup):
    t0 = time.perf_counter()
    u, v, ws = meril_setup
    worst = 0.0
    dominated = True
    steps = 0
    for w in ws:
        ref = residue_oracle(u, w)
        worst = max(worst, abs(v(w) - ref))
        trace = v.diagnostics(w)
        for gap, bound in zip(trace.gaps[1:], trace.bounds[1:]):
            steps += 1
            if gap > bound:
                dominated = False
    ok = worst <= 1e-8 and dominated and steps > 0
    _verdict(5, "meril convergence with tail control", ok,
             f"max |truncated - residue| {worst:.2e} <= 1e-8 on 10 points; "
             f"{steps} gaps past the first step all under the closed-form "
             f"tail bound",
             time.perf_counter() - t0, 60.0)


def test_criterion_6_meril_robustness(meril_setup):
    t0 = time.perf_counter()
    u, v, ws = meril_setup
    eps_worst = 0.0
    for eps in (0.05, 0.2):
        other = meril_transform(u, QUARTER_SECTOR, eps, 0.1)
        eps_worst = max(eps_worst,
                        max(abs(v(w) - other(w)) for w in ws))
    half_shift = meril_transform(u, QUARTER_SECTOR, 0.1, 0.05)
    shift_worst = max(abs(v(w) - half_shift(w)) for w in ws)
    ok = eps_worst <= 1e-8 and shift_worst <= 1e-8
    _verdict(6, "meril eps and eps-prime robustness", ok,
             f"eps ladder gap {eps_worst:.2e} <= 1e-8; eps'/2 overlap gap "
             f"{shift_worst:.2e} <= 1e-8",
             time.perf_counter() - t0, 60.0)


def test_criterion_7_growth_classification(corpus, meril_setup):
    t0 = time.perf_counter()
    members = 0
    ok = True
    for body, u in corpus:
        v = polya_transform(u, body, 2.0)
        h = lambda w: support_function(body, w)
        if classify_growth(v, h).member:
            members += 1
        else:
            ok = False
    _, v_meril, _ = meril_setup
    h_s = lambda w: support_function(QUARTER_SECTOR, w)
    if classify_growth(v_meril, h_s).member:
        members += 1
    else:
        ok = False
    planted = residue_transform(
        MeromorphicDatum([(2 + 0j, 1, 1 / TWO_PI_I)]))
    (escapee,) = growth_ratio_sup(planted, lambda w: abs(w), [0.5])
    ok = ok and escapee.verdict == "unbounded"
    _verdict(7, "growth classification", ok,
             f"{members}/21 transform outputs members across ladder "
             f"0.5/0.25/0.1; planted e^{{2w}} unbounded at eps=0.5",
             time.perf_counter() - t0, 30.0)


def test_criterion_8_borel_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    disk = ConvexBody([0j], rounding=0.5)
    grid = [w for w in _square_grid(2.0, 9) if abs(w) <= 2.0]
    for _ in range(5):
        deg = int(rng.integers(0, 7))
        coeffs = [complex(*rng.uniform(-2, 2, 2)) for _ in range(deg + 1)]
        u = borel_inverse(coeffs)
        v = polya_transform(u, disk, 1.5, abs_tol=1e-13)
        for w in grid:
            want = TWO_PI_I * sum(c * w ** n for n, c in enumerate(coeffs))
            worst = max(worst, abs(v(w) - want))
    ok = worst <= 1e-9
    _verdict(8, "borel round trip", ok,
             f"max |polya(borel(v)) - v| {worst:.2e} <= 1e-9 on |w| <= 2, "
             f"degrees <= 6", time.perf_counter() - t0, 5.0)


def test_criterion_9_cli_determinism(tmp_path, same_package_env):
    t0 = time.perf_counter()
    env_cmd = [sys.executable, "-m", "convlap.cli", "run"]
    ref = str(SCENARIO_DIR / "reference_polya.json")
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(env_cmd + [ref, "--out-dir", str(out)],
                              capture_output=True)
        runs.append((proc.returncode, (out / "samples.csv").read_bytes()))
    identical = runs[0][1] == runs[1][1]
    pass_codes = runs[0][0] == 0 and runs[1][0] == 0
    planted = subprocess.run(
        env_cmd + [str(SCENARIO_DIR / "planted_growth.json"),
                   "--out-dir", str(tmp_path / "p")],
        capture_output=True).returncode
    malformed = subprocess.run(
        env_cmd + [str(SCENARIO_DIR / "malformed.json"),
                   "--out-dir", str(tmp_path / "m")],
        capture_output=True).returncode
    ok = identical and pass_codes and planted == 1 and malformed == 2
    _verdict(9, "cli determinism and exit codes", ok,
             f"samples.csv byte-identical across runs: {identical}; exit "
             f"codes pass={runs[0][0]}, planted={planted}, "
             f"malformed={malformed}", time.perf_counter() - t0, 10.0)
