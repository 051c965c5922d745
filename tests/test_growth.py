"""Growth classification: hand-built members and planted escapees."""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from convlap import growth
from convlap.convexgeom import ConvexBody, sector, support_function
from convlap.growth import (
    DEFAULT_EPS_LADDER,
    SUP_GROWTH_FACTOR,
    GrowthReport,
    GrowthSample,
    classify_growth,
    exp_class_verdict,
    growth_ratio_sup,
)
from convlap.transforms import (
    MeromorphicDatum,
    meril_transform,
    polya_transform,
    residue_transform,
)

TWO_PI = 2 * math.pi
UNIT_DISK = ConvexBody([0j], rounding=1.0)


def disk_support(w: complex) -> float:
    return abs(w)


def exp_at(a: complex):
    # v(w) = e^{aw} exactly, as a residue-backed transform value.
    return residue_transform(MeromorphicDatum([(a, 1, 1 / (2j * math.pi))]))


def test_interior_exponential_is_bounded():
    v = exp_at(0.4 + 0.3j)
    (report,) = growth_ratio_sup(v, disk_support, [0.25])
    assert report.verdict == "bounded"
    assert report.sup <= TWO_PI / TWO_PI + 1e-12  # |c| = 1 here, so sup <= 1
    assert report.growth_rate < 0


def test_zero_function_is_bounded_with_zero_sup():
    v = residue_transform(MeromorphicDatum([]))
    (report,) = growth_ratio_sup(v, disk_support, [0.5])
    assert report.verdict == "bounded"
    assert report.sup == 0.0
    assert all(report.ratio(s) == 0.0 for s in report.samples)


def test_planted_escapee_is_unbounded():
    # dist(2, unit disk) = 1; at eps = 0.5 the best ray grows like
    # e^{(2 - 1 - 0.5) R}.
    v = exp_at(2 + 0j)
    (report,) = growth_ratio_sup(v, disk_support, [0.5])
    assert report.verdict == "unbounded"
    assert report.growth_rate == pytest.approx(0.5, rel=1e-6)


def test_ratio_monotone_in_eps_pointwise():
    v = exp_at(0.9 + 0j)
    hi, lo = growth_ratio_sup(v, disk_support, [0.5, 0.25])
    assert len(lo.samples) == len(hi.samples)
    for s in hi.samples:
        assert hi.ratio(s) <= lo.ratio(s)


def test_polya_output_is_member():
    u = MeromorphicDatum([(0.3 + 0.2j, 2, 1.0), (-0.4j, 1, 0.5 - 1j)])
    v = polya_transform(u, UNIT_DISK, 2.0)
    verdict = classify_growth(v, disk_support)
    assert verdict.member
    assert verdict.epsilons == DEFAULT_EPS_LADDER
    assert all(s == "bounded" for s in verdict.verdicts)


def test_polynomial_is_member():
    # v / (2 pi i) = 1 + w + w^2 via poles of order 1..3 at 0.
    u = MeromorphicDatum([(0j, 1, 1.0), (0j, 2, 1.0), (0j, 3, 2.0)])
    v = residue_transform(u)
    assert classify_growth(v, disk_support).member


def test_escapee_fails_membership_at_small_eps():
    v = exp_at(2 + 0j)
    verdict = classify_growth(v, disk_support)
    assert not verdict.member
    assert verdict.verdicts[-1] == "unbounded"
    assert verdict.monotone


def test_meril_output_sampled_inside_shifted_cone():
    region = sector(0j, 0.0, math.pi / 4)
    u = MeromorphicDatum([(1 + 0j, 1, 1.0)])
    v = meril_transform(u, region, 0.1, 0.1)
    h = lambda w: support_function(region, w)
    (report,) = growth_ratio_sup(v, h, [0.25])
    assert report.verdict == "bounded"
    assert 0 < len(report.samples) < len(report.radii) * report.rays
    assert all(v.domain_contains(s.w) for s in report.samples)
    assert all(math.isfinite(s.support) for s in report.samples)


def test_sampling_lattice_recorded():
    v = exp_at(0j)
    (report,) = growth_ratio_sup(v, disk_support, [0.5],
                                 radii=[1.0, 10.0, 100.0], rays=8)
    assert report.radii == (1.0, 10.0, 100.0)
    assert report.rays == 8
    assert len(report.samples) == 24
    assert report.samples == tuple(sorted(
        report.samples, key=lambda s: (s.ray_index, s.radius)))
    assert len(report.log_radius_sups) == 3
    for radius, log in zip(report.radii, report.log_radius_sups):
        assert log == max(report.log_ratio(s) for s in report.samples
                          if s.radius == radius)
    assert report.sup == pytest.approx(
        max(report.ratio(s) for s in report.samples), rel=1e-12)


def test_growth_validation():
    v = exp_at(0j)
    for ladder in ([], [0.0], [0.5, -0.25], [math.nan], [math.inf]):
        with pytest.raises(ValueError, match="eps ladder"):
            growth_ratio_sup(v, disk_support, ladder)
    with pytest.raises(ValueError):
        growth_ratio_sup(v, disk_support, [0.5], radii=[])
    with pytest.raises(ValueError):
        growth_ratio_sup(v, disk_support, [0.5], radii=[2.0, 1.0])
    with pytest.raises(ValueError):
        growth_ratio_sup(v, disk_support, [0.5], rays=0)


def test_empty_sample_set_rejected():
    region = sector(0j, 0.0, math.pi / 4)
    v = meril_transform(
        MeromorphicDatum([(1 + 0j, 1, 1.0)]), region, 0.1, 0.1)
    # The lone ray at angle 0 points away from the left-opening cone.
    with pytest.raises(ValueError, match="empty sample set"):
        growth_ratio_sup(v, lambda w: 0.0, [0.25], rays=1)


@dataclass
class _ScaledDiskSupport:
    """A support callable that is unhashable, as a plain dataclass is."""

    radius: float

    def __call__(self, w: complex) -> float:
        return self.radius * abs(w)


def test_an_unhashable_support_callable_is_accepted():
    h = _ScaledDiskSupport(1.0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(h)
    assert classify_growth(exp_at(0.4 + 0.3j), h).member
    assert not classify_growth(exp_at(2 + 0j), h).member


def _fake_report(eps: float, verdict: str) -> GrowthReport:
    return GrowthReport(
        epsilon=eps, radii=(1.0, 2.0), rays=4, samples=(),
        log_radius_sups=(0.0, 0.0), verdict=verdict, growth_rate=0.0)


def test_exp_class_verdict_aggregation():
    out = exp_class_verdict([_fake_report(0.5, "bounded"),
                             _fake_report(0.25, "unbounded")])
    assert not out.member
    assert out.monotone
    broken = exp_class_verdict([_fake_report(0.5, "unbounded"),
                                _fake_report(0.25, "bounded")])
    assert not broken.member
    assert not broken.monotone
    with pytest.raises(ValueError, match="decreasing"):
        exp_class_verdict([_fake_report(0.25, "bounded"),
                           _fake_report(0.5, "bounded")])
    with pytest.raises(ValueError, match="lattice"):
        exp_class_verdict([
            _fake_report(0.5, "bounded"),
            GrowthReport(epsilon=0.25, radii=(1.0, 3.0), rays=4, samples=(),
                         log_radius_sups=(0.0, 0.0), verdict="bounded",
                         growth_rate=0.0)])
    with pytest.raises(ValueError):
        exp_class_verdict([])


# ---- one lattice per ladder ----

def _per_eps_reference(v, h, eps, radii, rays, fit):
    """growth_ratio_sup's report at eps with the lattice sampled anew for
    this eps alone, and fit(xs, ys) for the slope; with it the sup and
    each sample's (log ratio, ratio), computed here, in sample order."""
    directions = [complex(math.cos(2 * math.pi * k / rays),
                          math.sin(2 * math.pi * k / rays))
                  for k in range(rays)]
    rows, log_sups = [], []
    for radius in radii:
        best = -math.inf
        for k, d in enumerate(directions):
            w = radius * d
            if not v.domain_contains(w):
                continue
            hw = float(h(w))
            log_v = v.log_abs(w)
            log_ratio = log_v - hw - eps * abs(w)
            rows.append((GrowthSample(w=w, support=hw, log_abs=log_v,
                                      ray_index=k, radius=radius),
                         (log_ratio, growth._lin(log_ratio))))
            if log_ratio > best:
                best = log_ratio
        log_sups.append(best)
    q = len(radii) // 4
    window = log_sups[q:]
    log_tol = math.log(SUP_GROWTH_FACTOR)
    nonincreasing = all(b <= a + log_tol for a, b in zip(window, window[1:]))
    fit_pts = [(r, s) for r, s in zip(radii[q:], window) if math.isfinite(s)]
    if len(fit_pts) >= 2:
        rate = fit([r for r, _ in fit_pts], [s for _, s in fit_pts])
    elif window and window[-1] == -math.inf:
        rate = -math.inf
    else:
        rate = 0.0
    verdict = ("bounded" if nonincreasing else
               "unbounded" if rate > eps / 2 else "inconclusive")
    rows.sort(key=lambda row: (row[0].ray_index, row[0].radius))
    report = GrowthReport(
        epsilon=eps, radii=tuple(radii), rays=rays,
        samples=tuple(s for s, _ in rows), log_radius_sups=tuple(log_sups),
        verdict=verdict, growth_rate=rate)
    sup = max(growth._lin(s) for s in log_sups)
    return report, sup, [ratios for _, ratios in rows]


def _polyfit_slope(xs, ys):
    return float(np.polyfit(xs, ys, 1)[0])


class _CountedLogAbs:
    """A transform value whose log_abs calls are counted per w."""

    def __init__(self, v):
        self.v = v
        self.calls = Counter()

    def domain_contains(self, w):
        return self.v.domain_contains(w)

    def log_abs(self, w):
        self.calls[w] += 1
        return self.v.log_abs(w)


SECTOR = sector(0j, 0.0, math.pi / 4)
GROWTH_CASES = (
    (polya_transform(MeromorphicDatum([(0.3 + 0.2j, 2, 1.0),
                                       (-0.4j, 1, 0.5 - 1j)]),
                     UNIT_DISK, 2.0), UNIT_DISK),
    (meril_transform(MeromorphicDatum([(1 + 0j, 1, 1.0)]), SECTOR, 0.1, 0.1),
     SECTOR),
    (exp_at(2 + 0j), UNIT_DISK),
)


@pytest.mark.parametrize("v, body", GROWTH_CASES)
def test_lattice_is_sampled_once_per_ladder(v, body):
    radii = tuple(float(r) for r in np.geomspace(1.0, 100.0, 9))
    counted = _CountedLogAbs(v)
    h_calls = Counter()

    def h(w):
        h_calls[w] += 1
        return support_function(body, w)

    got = growth_ratio_sup(counted, h, DEFAULT_EPS_LADDER, radii=radii,
                           rays=12)
    lattice = [r * complex(math.cos(2 * math.pi * k / 12),
                           math.sin(2 * math.pi * k / 12))
               for r in radii for k in range(12)]
    inside = [w for w in lattice if v.domain_contains(w)]
    assert inside and sorted(counted.calls.values()) == [1] * len(inside)
    assert set(counted.calls) == set(inside) == set(h_calls)
    assert set(h_calls.values()) == {1}
    # One sample per point, in one tuple that every report holds.
    assert len(got[0].samples) == len(inside)
    assert all(report.samples is got[0].samples for report in got)
    # Field for field, bit for bit, the reports of sampling once per eps,
    # with their sups and each sample's ratio.
    h_plain = lambda w: support_function(body, w)
    refs = [_per_eps_reference(v, h_plain, eps, radii, 12, growth._slope)
            for eps in DEFAULT_EPS_LADDER]
    want = tuple(report for report, _, _ in refs)
    assert got == want
    for report, (_, sup, ratios) in zip(got, refs):
        assert report.sup == sup
        assert [(report.log_ratio(s), report.ratio(s))
                for s in report.samples] == ratios
    assert (classify_growth(v, h_plain, radii=radii, rays=12)
            == exp_class_verdict(want))
    # np.polyfit, which the slope replaced, gives the same verdicts.
    fitted = [_per_eps_reference(v, h_plain, eps, radii, 12, _polyfit_slope)[0]
              for eps in DEFAULT_EPS_LADDER]
    assert [r.verdict for r in fitted] == [r.verdict for r in got]
    for a, b in zip(got, fitted):
        assert a.growth_rate == pytest.approx(b.growth_rate, rel=1e-12)


@pytest.mark.parametrize("ladder", [(0.1, 0.5), (0.5, 0.5), (0.5, 0.1, 0.25)])
def test_ladder_order_is_checked_before_sampling(ladder):
    counted = _CountedLogAbs(exp_at(0j))
    h_calls = []

    def h(w):
        h_calls.append(w)
        return abs(w)

    with pytest.raises(ValueError, match="strictly decreasing"):
        classify_growth(counted, h, eps_ladder=ladder)
    with pytest.raises(ValueError, match="strictly decreasing"):
        growth_ratio_sup(counted, h, ladder)
    assert not h_calls and not counted.calls


def test_slope_matches_polyfit_and_exact_least_squares():
    rng = np.random.default_rng(13)
    for _ in range(400):
        n = int(rng.integers(2, 26))
        xs = sorted(float(x) for x in 10.0 ** rng.uniform(0.0, 4.0, n))
        b = rng.normal() * 10.0 ** rng.uniform(-3.0, 1.0)
        ys = [float(b * x + rng.normal() * (1.0 + 0.1 * abs(b) * x))
              for x in xs]
        got = growth._slope(xs, ys)
        assert type(got) is float
        assert got == pytest.approx(_polyfit_slope(xs, ys), rel=1e-12)
        fx, fy = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
        mx, my = sum(fx) / n, sum(fy) / n
        exact = (sum((x - mx) * (y - my) for x, y in zip(fx, fy))
                 / sum((x - mx) ** 2 for x in fx))
        assert got == pytest.approx(float(exact), rel=1e-13)
