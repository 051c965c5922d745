"""Transforms: residue oracle cross-checks, tail control, round trips.

The residue oracle is closed-form calculus, checked here against hand
values first and then used as the independent reference for both
contour realizations.
"""

import cmath
import math

import numpy as np
import pytest

from convlap import contour, transforms
from convlap.convexgeom import (
    ConvexBody,
    ConvexRegion,
    asymptotic_cone,
    bisector,
    polar_cone,
    sector,
    thicken,
)
from convlap.transforms import (
    ConvergenceError,
    MeromorphicDatum,
    borel_inverse,
    meril_transform,
    polya_transform,
    residue_oracle,
    residue_transform,
    tail_bound,
)

TWO_PI_I = 2j * math.pi
DISK_HALF = ConvexBody([0j], rounding=0.5)
ROUND_SQUARE = ConvexBody([0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j,
                           0.5 - 0.5j], rounding=0.25)


SECTOR = sector(0j, 0.0, math.pi / 4)


def w_grid(limit: float, n: int):
    xs = np.linspace(-limit, limit, n)
    return [complex(a, b) for a in xs for b in xs]


# ---- residue oracle ----

def test_residue_single_pole_constant():
    u = MeromorphicDatum([(0j, 1, 1.0)])
    for w in (0j, 1 + 0j, -2 + 3j, 0.5j):
        assert abs(residue_oracle(u, w) - TWO_PI_I) <= 1e-14


def test_residue_triple_pole_frozen_value():
    a = 0.2 - 0.1j
    u = MeromorphicDatum([(a, 3, 1.0)])
    # c * w^2 e^{aw} / 2! at w = 2: 2 e^{2a}, times 2 pi i.
    want = TWO_PI_I * 2.0 * cmath.exp(2 * a)
    assert abs(residue_oracle(u, 2.0) - want) <= 1e-13


def test_residue_linearity():
    u = MeromorphicDatum([(0j, 1, 1.0), (1 + 0j, 1, 1.0)])
    for w in (0.3 + 0.4j, -1 + 0j, 2j):
        want = TWO_PI_I * (1 + cmath.exp(w))
        assert abs(residue_oracle(u, w) - want) <= 1e-12


# ---- Polya realization ----

def test_polya_of_simple_pole_is_constant():
    u = MeromorphicDatum([(0j, 1, 1.0)])
    v = polya_transform(u, DISK_HALF, 1.0)
    for w in (0j, 1 + 1j, -2 + 0.5j):
        assert abs(v(w) - TWO_PI_I) <= 1e-10


def test_polya_shifted_pole_gives_exponential():
    u = MeromorphicDatum([(0.3 + 0j, 1, 1.0)])
    v = polya_transform(u, DISK_HALF, 1.0)
    for w in (0j, 1 + 0j, -1 + 2j, 0.7 - 0.2j):
        assert abs(v(w) - TWO_PI_I * cmath.exp(0.3 * w)) <= 1e-10


def test_polya_double_pole_gives_linear_factor():
    u = MeromorphicDatum([(0j, 2, 1.0)])
    v = polya_transform(u, DISK_HALF, 1.0)
    for w in (0j, 2 + 0j, 1 - 1j):
        assert abs(v(w) - TWO_PI_I * w) <= 1e-10


def test_polya_matches_residue_oracle_on_random_data():
    rng = np.random.default_rng(71)
    for K in (DISK_HALF, ROUND_SQUARE):
        for _ in range(3):
            terms = []
            for _ in range(rng.integers(1, 6)):
                a = complex(*rng.uniform(-0.3, 0.3, 2))
                m = int(rng.integers(1, 4))
                c = complex(*rng.uniform(-2, 2, 2))
                terms.append((a, m, c))
            u = MeromorphicDatum(terms)
            v = polya_transform(u, K, 2.0)
            for w in w_grid(3.0, 7):
                ref = residue_oracle(u, w)
                val, err = v.with_error(w)
                assert abs(val - ref) <= 1e-9 * (1 + abs(ref)) + err


def test_polya_contour_independence():
    u = MeromorphicDatum([(0.25j, 2, 1.5 - 0.5j), (-0.2 + 0j, 1, 1.0)])
    r = 1.0
    vs = [polya_transform(u, DISK_HALF, rr) for rr in (r, 1.5 * r, 3 * r)]
    for w in w_grid(2.0, 5):
        vals = [v.with_error(w) for v in vs]
        for (a, ea), (b, eb) in zip(vals, vals[1:]):
            assert abs(a - b) <= 1e-10 + ea + eb


def test_polya_linearity():
    u1 = MeromorphicDatum([(0.2 + 0j, 1, 1.0)])
    u2 = MeromorphicDatum([(0j, 2, 1.0)])
    combined = MeromorphicDatum([(0.2 + 0j, 1, 2.0), (0j, 2, -0.5j)])
    v1 = polya_transform(u1, DISK_HALF, 1.0)
    v2 = polya_transform(u2, DISK_HALF, 1.0)
    vc = polya_transform(combined, DISK_HALF, 1.0)
    for w in (0.1 + 0.8j, -1 + 0j, 1.2 - 0.3j):
        assert abs(vc(w) - (2.0 * v1(w) - 0.5j * v2(w))) <= 1e-10


def test_polya_differentiation_law():
    # (z-a)^{-(m+1)} maps to 2 pi i w^m e^{aw} / m!.
    a = 0.1 + 0.2j
    for m in (1, 2, 3):
        u = MeromorphicDatum([(a, m + 1, 1.0)])
        v = polya_transform(u, DISK_HALF, 1.0)
        for w in (0.5 + 0j, 1 - 1j):
            want = TWO_PI_I * w ** m * cmath.exp(a * w) / math.factorial(m)
            assert abs(v(w) - want) <= 1e-10
            assert abs(residue_oracle(u, w) - want) <= 1e-12


def test_polya_validation():
    u_out = MeromorphicDatum([(2 + 0j, 1, 1.0)])
    with pytest.raises(ValueError, match="2"):
        polya_transform(u_out, DISK_HALF, 4.0)
    u_in = MeromorphicDatum([(0j, 1, 1.0)])
    with pytest.raises(ValueError, match="too small"):
        polya_transform(u_in, DISK_HALF, 0.52)
    with pytest.raises(ValueError):
        polya_transform(u_in, DISK_HALF, -1.0)


# ---- tail bound ----

def test_tail_bound_frozen_value():
    want = 2 * math.pi * 10 * math.exp(-10)
    assert tail_bound(10.0, 1.0, 0, 1.0, 1.0) == pytest.approx(want, rel=1e-14)


def test_tail_bound_monotone_past_hump():
    assert tail_bound(40.0, 1.0, 0, 1.0, 1.0) < tail_bound(20.0, 1.0, 0, 1.0, 1.0)
    assert tail_bound(1e4, 1.0, 0, 1.0, 1.0) < 1e-300


def test_tail_bound_validation():
    for bad in ((0.0, 1.0, 0, 1.0, 1.0), (1.0, -1.0, 0, 1.0, 1.0),
                (1.0, 1.0, 0, 0.0, 1.0), (1.0, 1.0, 0, 1.0, -2.0)):
        with pytest.raises(ValueError):
            tail_bound(*bad)
    with pytest.raises(ValueError):
        tail_bound(1.0, 1.0, -1, 1.0, 1.0)


# ---- Meril realization ----

def test_meril_simple_pole_matches_residue():
    u = MeromorphicDatum([(1 + 0j, 1, 1.0)])
    v = meril_transform(u, SECTOR, 0.1, 0.1)
    w = -1 + 0j
    want = TWO_PI_I * cmath.exp(w)
    assert abs(v(w) - want) <= 1e-8


def test_meril_double_pole_matches_residue():
    u = MeromorphicDatum([(1 + 0j, 2, 1.0)])
    v = meril_transform(u, SECTOR, 0.1, 0.1)
    w = -1 + 0j
    want = TWO_PI_I * w * cmath.exp(w)
    assert abs(v(w) - want) <= 1e-8


def test_meril_gaps_dominated_by_tail_bound():
    u = MeromorphicDatum([(1 + 0j, 1, 1.0)])
    v = meril_transform(u, SECTOR, 0.1, 0.1)
    for w in (-1 + 0j, -0.8 + 0.3j, -2 - 0.5j):
        t = v.diagnostics(w)
        assert t.converged
        assert len(t.gaps) >= 2
        for gap, bound in zip(t.gaps[1:], t.bounds[1:]):
            assert gap <= bound
        assert t.values[-1] == t.value
        assert all(a < b for a, b in zip(t.radii, t.radii[1:]))


def test_meril_epsilon_robustness():
    u = MeromorphicDatum([(1 + 0j, 1, 1.0)])
    w = -1.2 + 0.2j
    vals = [meril_transform(u, SECTOR, eps, 0.1)(w)
            for eps in (0.05, 0.1, 0.2)]
    for a, b in zip(vals, vals[1:]):
        assert abs(a - b) <= 1e-8


def test_meril_epsilon_prime_overlap():
    u = MeromorphicDatum([(1 + 0j, 1, 1.0)])
    w = -1 + 0.1j
    a = meril_transform(u, SECTOR, 0.1, 0.1)(w)
    b = meril_transform(u, SECTOR, 0.1, 0.05)(w)
    assert abs(a - b) <= 1e-8


def test_meril_domain_enforced():
    u = MeromorphicDatum([(1 + 0j, 1, 1.0)])
    v = meril_transform(u, SECTOR, 0.1, 0.1)
    assert v.domain_contains(-1 + 0j)
    assert not v.domain_contains(1 + 0j)
    with pytest.raises(ValueError, match="dual cone"):
        v(1 + 0j)
    with pytest.raises(ValueError, match="dual cone"):
        # On the shifted cone boundary, not strictly inside.
        v(-0.1 + 0j)


def test_meril_validation():
    u = MeromorphicDatum([(1 + 0j, 1, 1.0)])
    box = ConvexRegion([(1, 0, 2), (-1, 0, 2), (0, 1, 2), (0, -1, 2)])
    with pytest.raises(ValueError, match="polya"):
        meril_transform(MeromorphicDatum([(0j, 1, 1.0)]), box, 0.1, 0.1)
    strip = ConvexRegion([(0, 1, 1), (0, -1, 1)])
    with pytest.raises(ValueError, match="line"):
        meril_transform(MeromorphicDatum([(0j, 1, 1.0)]), strip, 0.1, 0.1)
    with pytest.raises(ValueError, match="inside"):
        meril_transform(MeromorphicDatum([(-3 + 0j, 1, 1.0)]),
                        SECTOR, 0.1, 0.1)
    with pytest.raises(ValueError, match="increasing"):
        meril_transform(u, SECTOR, 0.1, 0.1, radius_schedule=[10.0, 5.0])
    with pytest.raises(ValueError, match="positive"):
        meril_transform(u, SECTOR, 0.0, 0.1)


def test_meril_nonconvergence_reports_tail():
    u = MeromorphicDatum([(1 + 0j, 1, 1.0)])
    v = meril_transform(u, SECTOR, 0.1, 0.1,
                        radius_schedule=[8.0, 9.0, 10.0])
    with pytest.raises(ConvergenceError) as exc:
        v(-0.3 + 0j)
    assert math.isfinite(exc.value.last_tail_bound)
    assert isinstance(exc.value.partial, complex)


def _meril_corpus():
    """(datum, region, w) triples: sectors at the origin with axes on a
    grid over [0, 2 pi) and half-angles in (0.2, 1.4), 1-3 poles inside
    each, and |w| log-spaced over [0.5, 20) across the dual cone shifted
    by eps' = 0.1 along its bisector."""
    rng = np.random.default_rng(7)
    mags = np.exp(np.linspace(math.log(0.5), math.log(20.0), 8,
                              endpoint=False))
    out = []
    for i, axis in enumerate(np.linspace(0.0, 2 * math.pi, 16,
                                         endpoint=False)):
        for j, gamma in enumerate((0.25, 0.7, 1.0, 1.35)):
            region = sector(0j, float(axis), gamma)
            # Poles 0.8-2 from the apex, within 0.7 gamma of the axis.
            terms = [(rng.uniform(0.8, 2.0) * cmath.exp(
                          1j * (axis + rng.uniform(-0.7, 0.7) * gamma)),
                      int(rng.integers(1, 3)), complex(*rng.uniform(-1, 1, 2)))
                     for _ in range(1 + (i + j) % 3)]
            dual = polar_cone(asymptotic_cone(region))
            shift = 0.1 * bisector(dual)
            offsets = rng.permutation(np.linspace(-0.95, 0.95, len(mags)))
            for mag, f in zip(mags, offsets):
                w = shift + mag * cmath.exp(
                    1j * (dual.axis + f * dual.half_width))
                out.append((MeromorphicDatum(terms), region, w))
    return out


def test_meril_error_estimate_covers_the_oracle_gap():
    # The estimate (quadrature error plus fitted tail bound) is never
    # below the gap to the exact residue sum.
    dishonest = []
    built = {}
    for u, region, w in _meril_corpus():
        key = (u, region)
        if key not in built:
            built[key] = meril_transform(u, region, 0.1, 0.1)
        value, error = built[key].with_error(w)
        gap = abs(value - residue_oracle(u, w))
        if gap > error:
            dishonest.append((region.halfplanes, u.terms, w, gap, error))
    assert not dishonest, dishonest[:5]


# ---- Meril overflow ----

def test_meril_overflow_is_named_before_quadrature(monkeypatch):
    # Apex -10 puts e^{-10 w} = e^1000 on the contour at w = -100.
    u = MeromorphicDatum([(-8 + 0j, 1, 1.0)])
    v = meril_transform(u, sector(-10 + 0j, 0.0, math.pi / 4), 0.1, 0.1)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(transforms, "integrate", no_quadrature)
    with pytest.raises(OverflowError, match=r"\|w\| = 100\b.*log_abs"):
        v(-100)
    assert v.log_abs(-100) == pytest.approx(math.log(2 * math.pi) + 800.0,
                                            rel=1e-12)
    assert v.log_abs(-100) == pytest.approx(801.84, abs=5e-3)


# ---- Borel inverse ----

def test_borel_constant_round_trip():
    u = borel_inverse([1.0], 0.5)
    assert u.terms == ((0j, 1, (1 + 0j)),)
    v = polya_transform(u, DISK_HALF, 1.0)
    assert abs(v(1.3 - 0.4j) - TWO_PI_I) <= 1e-10


def test_borel_linear_round_trip():
    u = borel_inverse([1.0, 1.0], 0.5)
    v = polya_transform(u, DISK_HALF, 1.0)
    for w in w_grid(2.0, 5):
        assert abs(v(w) - TWO_PI_I * (1 + w)) <= 1e-9


def test_borel_zero_and_validation():
    assert borel_inverse([], 1.0).terms == ()
    assert borel_inverse([0.0, 0.0], 1.0).terms == ()
    with pytest.raises(ValueError):
        borel_inverse([complex("nan")], 1.0)
    with pytest.raises(ValueError):
        borel_inverse([1.0], 0.0)


def test_borel_degree_six_round_trip():
    coeffs = [1.0, -0.5, 0.25j, 0.0, 2.0, -1j, 0.125]
    u = borel_inverse(coeffs, 0.5)
    v = polya_transform(u, DISK_HALF, 1.0)
    for w in w_grid(2.0, 5):
        want = TWO_PI_I * sum(c * w ** n for n, c in enumerate(coeffs))
        assert abs(v(w) - want) <= 1e-9 * (1 + abs(want))


# ---- scaled evaluation ----

def test_log_abs_matches_direct_at_moderate_w():
    u = MeromorphicDatum([(0.3 + 0j, 1, 1.0), (0j, 2, 0.5j)])
    v = residue_transform(u)
    for w in (1 + 1j, -2 + 0.5j, 3j):
        direct = math.log(abs(residue_oracle(u, w)))
        assert v.log_abs(w) == pytest.approx(direct, abs=1e-10)


def test_log_abs_survives_huge_w():
    # Single pole: |v(w)| = 2 pi e^{Re(aw)} exactly.
    a = 0.3 + 0j
    v = residue_transform(MeromorphicDatum([(a, 1, 1.0)]))
    for w in (1e4 + 0j, -1e4 + 0j, 1e4j, complex(7e3, -7e3)):
        want = math.log(2 * math.pi) + (a * w).real
        assert v.log_abs(w) == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_contour_transform_carries_residue_terms():
    u = MeromorphicDatum([(0.2 + 0j, 1, 1.0)])
    v = polya_transform(u, DISK_HALF, 1.0)
    assert v.provenance == "contour"
    assert v.residue_terms == u.terms
    w = 1e4 + 0j
    assert v.log_abs(w) == pytest.approx(
        math.log(2 * math.pi) + 0.2e4, rel=1e-12)


def test_datum_validation():
    with pytest.raises(ValueError):
        MeromorphicDatum([(0j, 0, 1.0)])
    with pytest.raises(ValueError):
        MeromorphicDatum([(0j, 1.5, 1.0)])
    with pytest.raises(ValueError):
        MeromorphicDatum([(complex("inf"), 1, 1.0)])
    u = MeromorphicDatum([(1 + 0j, 2, 3.0)])
    assert u(2 + 0j) == pytest.approx(3.0)
    assert u.max_pole_modulus == 1.0


# ---- array evaluation and pole orders ----

def test_datum_evaluates_arrays_elementwise():
    u = MeromorphicDatum([(0.3 + 0j, 2, 1.5 - 0.5j), (-0.2j, 1, 2.0)])
    z = np.array([1.0 + 0j, 2j, -1.5 + 0.5j])
    got = u(z)
    assert isinstance(got, np.ndarray) and got.shape == z.shape
    for zk, gk in zip(z, got):
        assert gk == pytest.approx(u(complex(zk)), rel=1e-15)
    assert type(u(1.0)) is complex
    assert type(u(np.complex128(1j))) is complex


def test_datum_accepts_numpy_integer_orders():
    u = MeromorphicDatum([(0.1, np.int64(2), 1.0), (0j, np.int32(1), 1.0)])
    assert u.terms == ((0.1 + 0j, 2, 1 + 0j), (0j, 1, 1 + 0j))
    assert all(type(m) is int for _, m, _ in u.terms)
    for m in (True, np.bool_(True), 2.0, np.float64(2.0), 1.5, np.int64(0)):
        with pytest.raises(ValueError):
            MeromorphicDatum([(0j, m, 1.0)])


# ---- overflow ----

def test_polya_overflow_is_named_before_quadrature(monkeypatch):
    u = MeromorphicDatum([(0.5 + 0j, 1, 1.0)])
    v = polya_transform(u, ConvexBody([0j], rounding=1.0), 2.0)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(transforms, "integrate", no_quadrature)
    with pytest.raises(OverflowError, match=r"\|w\| = 400\b.*log_abs"):
        v(400)
    assert v.log_abs(400) == pytest.approx(math.log(2 * math.pi) + 200.0,
                                           rel=1e-12)


def test_residue_oracle_overflow_is_named():
    u = MeromorphicDatum([(0.5 + 0j, 1, 1.0), (0j, 2, 1.0)])
    v = residue_transform(u)
    w = 1500 + 0j  # Re(a w) = 750
    with pytest.raises(OverflowError, match=r"\|w\| = 1500\b.*log_abs"):
        residue_oracle(u, w)
    with pytest.raises(OverflowError, match="log_abs"):
        v(w)
    assert math.isfinite(v.log_abs(w))
    assert v.log_abs(w) == pytest.approx(math.log(2 * math.pi) + 750.0,
                                         rel=1e-12)


# ---- Polya on the cached-node trapezoid rule ----

def test_polya_evaluation_is_bitwise_reproducible():
    u = MeromorphicDatum([(0.25j, 2, 1.5 - 0.5j), (-0.2 + 0j, 3, 1.0)])
    ws = [0.3 + 0.1j, -2.0 + 1.5j, 6.0j, 10.0 - 4.0j]
    v = polya_transform(u, DISK_HALF, 2.0)
    first = [v.with_error(w) for w in ws]
    assert [v.with_error(w) for w in ws] == first
    assert [v.with_error(w) for w in reversed(ws)] == first[::-1]
    # Rebuilt from scratch, node arrays included.
    contour._rule.cache_clear()
    rebuilt = polya_transform(MeromorphicDatum(u.terms), DISK_HALF, 2.0)
    assert [rebuilt.with_error(w) for w in ws] == first


def test_polya_evaluates_u_once_per_node_level(monkeypatch):
    sizes = []
    call = MeromorphicDatum.__call__

    def counting(self, z):
        sizes.append(len(z) if isinstance(z, np.ndarray) else None)
        return call(self, z)

    monkeypatch.setattr(MeromorphicDatum, "__call__", counting)
    u = MeromorphicDatum([(0.2 + 0.1j, 2, 1.0), (-0.1 + 0j, 1, 0.5j)])
    v = polya_transform(u, DISK_HALF, 2.0)
    assert sizes == []  # nodes are built at the first evaluation
    ws = w_grid(3.0, 9) + [8.0 * cmath.exp(0.4j * k) for k in range(16)]
    for w in ws:
        residue = residue_oracle(u, w)
        assert abs(v(w) - residue) <= 1e-9 * (1 + abs(residue))
    # One array call per node count used, none per w.
    assert None not in sizes
    assert len(sizes) == len(set(sizes))
    assert 1 <= len(sizes) <= 7
