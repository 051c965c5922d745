"""Transforms: residue oracle cross-checks, tail control, round trips.

The residue oracle is closed-form calculus, checked here against hand
values first and then used as the independent reference for both
contour realizations.
"""

import cmath
import math
import time

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
    signed_distance,
    thicken,
)
from convlap.transforms import (
    MERIL_ABS_TOL,
    ConvergenceError,
    MeromorphicDatum,
    borel_inverse,
    meril_transform,
    polya_transform,
    ray_tail_bound,
    residue_oracle,
    residue_transform,
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


def test_polya_estimates_are_honest_on_bodies_off_the_origin():
    # Bodies centred up to 4 from the origin, 1-3 poles of order 1-3 at
    # least 0.05 inside, and the CLI's default circle: centred on the
    # mean of the vertices, with radius 1.25 times the body's extent
    # from there.  The estimate never falls below the gap to the exact
    # residue sum, for |w| log-uniform over [0.5, 60].
    rng = np.random.default_rng(83)
    dishonest = []
    evaluations = 0
    for i in range(40):
        k = (1, 3, 4, 5, 6)[i % 5]
        angles = (rng.uniform(0.0, 2 * math.pi)
                  + 2 * math.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k))
                  / k)
        centre = rng.uniform(0.0, 4.0) * cmath.exp(
            1j * rng.uniform(0.0, 2 * math.pi))
        size = rng.uniform(0.5, 1.5)
        body = ConvexBody([centre + size * cmath.exp(1j * a)
                           for a in angles] if k > 1 else [centre],
                          size if k == 1 else rng.uniform(0.0, 0.5))
        terms = []
        while len(terms) < 1 + i % 3:
            a = centre + complex(*rng.uniform(-1.5, 1.5, 2))
            if signed_distance(body, a) <= -0.05:
                terms.append((a, int(rng.integers(1, 4)),
                              complex(*rng.uniform(-1, 1, 2))))
        u = MeromorphicDatum(terms)
        mean = sum(body.vertices) / len(body.vertices)
        extent = max(abs(v - mean) for v in body.vertices) + body.rounding
        v = polya_transform(u, body, extent / (1.0 - 2 * transforms.
                                                POLYA_CLEARANCE), mean)
        for _ in range(9):
            w = math.exp(rng.uniform(math.log(0.5), math.log(60.0))) * (
                cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)))
            value, error = v.with_error(w)
            gap = abs(value - residue_oracle(u, w))
            evaluations += 1
            if gap > error:
                dishonest.append((body, terms, w, gap, error))
    assert evaluations == 360
    assert not dishonest, dishonest[:5]


def test_polya_validation():
    u_out = MeromorphicDatum([(2 + 0j, 1, 1.0)])
    with pytest.raises(ValueError, match="2"):
        polya_transform(u_out, DISK_HALF, 4.0)
    u_in = MeromorphicDatum([(0j, 1, 1.0)])
    with pytest.raises(ValueError, match="too small"):
        polya_transform(u_in, DISK_HALF, 0.52)
    # A bad radius is named before the poles are checked.
    for r in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be positive"):
            polya_transform(u_in, DISK_HALF, r)
        with pytest.raises(ValueError, match="radius must be positive"):
            polya_transform(u_out, DISK_HALF, r)


# ---- closed-form ray tail bound ----

# One double pole at 2 + i with |c| = 5; the ray is the positive real
# axis and the kernel decays along it at the rate -Re(w) = 0.5.
TAIL_U = MeromorphicDatum([(2 + 1j, 2, 3 - 4j)])
TAIL_W = -0.5 + 2j


def test_ray_tail_bound_frozen_value():
    # From t = 0 the nearest ray point to the pole is 2 (distance 1).
    assert ray_tail_bound(TAIL_U, 0j, 1 + 0j, 0.0, TAIL_W) == (
        pytest.approx(10.0, rel=1e-14))
    # From t = 3 it is 3 (distance sqrt 2), and e^{Re(3 w)} = e^{-1.5}.
    want = math.exp(-1.5) * 2.5 / 0.5
    assert ray_tail_bound(TAIL_U, 0j, 1 + 0j, 3.0, TAIL_W) == (
        pytest.approx(want, rel=1e-14))


def test_ray_tail_bound_monotone_in_the_truncation():
    ts = np.linspace(0.0, 60.0, 121)
    bounds = ray_tail_bound(TAIL_U, 0j, 1 + 0j, ts, TAIL_W)
    assert bounds.shape == ts.shape
    assert np.all(np.diff(bounds) < 0)
    assert [ray_tail_bound(TAIL_U, 0j, 1 + 0j, t, TAIL_W)
            for t in ts[::20]] == list(bounds[::20])
    assert ray_tail_bound(TAIL_U, 0j, 1 + 0j, 2e3, TAIL_W) < 1e-300


def test_ray_tail_bound_validation():
    with pytest.raises(ValueError, match="unit"):
        ray_tail_bound(TAIL_U, 0j, 2 + 0j, 0.0, TAIL_W)
    for w in (0.5 + 2j, 2j, 0j):  # growing or not decaying along the ray
        with pytest.raises(ValueError, match="decay"):
            ray_tail_bound(TAIL_U, 0j, 1 + 0j, 0.0, w)


def _ray_integral(u, base, d, t0, w, length, panels):
    """Composite 30-point Gauss-Legendre integral of e^{z*w} u(z) dz over
    z = base + s*d, t0 <= s <= t0 + length."""
    x, wt = np.polynomial.legendre.leggauss(30)
    s = t0 + length * ((np.arange(panels)[:, None] + 0.5 + 0.5 * x)
                       / panels).ravel()
    z = base + s * d
    f = np.exp(z * w) * u(z)
    return complex(f @ np.tile(0.5 * wt * length / panels, panels)) * d


def test_ray_tail_bound_covers_the_far_tail():
    # Seeded sectors at the origin, 1-3 poles, w out to 0.95 of the dual
    # half-width with |w| up to 100, both boundary rays of the 0.1
    # thickening cut at several radii.
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(8):
        axis = rng.uniform(0.0, 2 * math.pi)
        gamma = rng.uniform(0.2, 1.4)
        region = sector(0j, axis, gamma)
        u = MeromorphicDatum(
            [(rng.uniform(0.8, 2.0) * cmath.exp(
                1j * (axis + rng.uniform(-0.7, 0.7) * gamma)),
              int(rng.integers(1, 4)), complex(*rng.uniform(-1, 1, 2)))
             for _ in range(int(rng.integers(1, 4)))])
        dual = polar_cone(asymptotic_cone(region))
        shift = 0.1 * bisector(dual)
        rays = contour.open_boundary_rays(thicken(region, 0.1))
        for mag, f in ((1.0, -0.95), (10.0, 0.95), (100.0, 0.5),
                       (100.0, -0.95)):
            w = shift + mag * cmath.exp(
                1j * (dual.axis + f * dual.half_width))
            for base, d in rays:
                rate = -(d * w).real
                # e^{-40} of the bound is left beyond the far end.
                length = 40.0 / rate
                panels = int(max(50, abs((d * w).imag) * length))
                for R in (3.0, 6.0, 12.0):
                    t = contour.circle_hit(base, d, R)
                    tail = abs(_ray_integral(u, base, d, t, w, length,
                                             panels))
                    bound = ray_tail_bound(u, base, d, t, w)
                    assert tail <= bound * (1 + 1e-12), (w, R, tail, bound)
                    checked += tail > 0.0
    # Out of 192, only tails far below the float range underflow to 0.
    assert checked >= 170


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


def test_non_finite_w_is_rejected_by_name():
    # Polya at inf used to fail in math.ceil with a bare OverflowError, and
    # Meril at nan to bisect until QuadratureError.  Off-centre Polya at inf
    # raised OverflowError, Meril at inf named the dual cone, and the
    # oracle and log_abs returned nan, which a check `gap > err` passes;
    # ray_tail_bound gave a bound of 0 at w = -inf.
    u = MeromorphicDatum([(0.1 + 0j, 1, 1.0)])
    polya = polya_transform(u, DISK_HALF, 1.0)
    off_centre = polya_transform(u, DISK_HALF, 1.0, center=0.1)
    meril = meril_transform(MeromorphicDatum([(1 + 0j, 1, 1.0)]), SECTOR,
                            0.1, 0.1)
    for f in (polya, off_centre, meril, meril.diagnostics, polya.log_abs,
              meril.log_abs, lambda w: residue_oracle(u, w),
              lambda w: ray_tail_bound(u, 2 + 0j, 1 + 0j, 1.0, w)):
        for w in (complex("inf"), complex("-inf"), complex("nan"),
                  complex(0.0, math.inf), complex(0.0, -math.inf)):
            with pytest.raises(ValueError, match="w must be finite"):
                f(w)


# The traces of test_meril_traces_are_pinned_bitwise with every base
# contour piece climbing from the level of its 2|w|*length nodes, not
# from the level where u alone settles: the reference that the learned
# start level must stay within both estimates of.
REFERENCE = {
    -0.7 + 0j: (
        3.717414635920012 + 0.9858112295335992j, 2.4984215827733603e-13,
        (0.012694952487998713, 0.002562121279529716,
         0.00021356493971748096, 4.076951466520753e-06,
         1.1403642825067187e-08, 2.5360370502467935e-12),
        (0.04411313211630449, 0.005660091840288756,
         0.00034535354060384106, 6.7112088329144365e-06,
         2.301186110696293e-08, 5.780617424194825e-12)),
    -2.7631829820086553 + 1.1682550269259515j: (
        0.002114164025521943 + 0.16355209904542292j,
        1.6866840701659336e-13,
        (6.204497968915511e-05, 1.2221986979056893e-06,
         4.108306527085843e-09, 9.58512384084516e-13),
        (0.000223993071643332, 3.952827452168348e-06,
         1.230752016667049e-08, 2.748400861536708e-12)),
    -12.380034223645175 - 8.46963710092553j: (
        2.084353555047914e-05 - 2.361022050235099e-05j,
        8.464773752233558e-14,
        (1.8365397016099262e-09, 1.9061783170612618e-13),
        (1.082929010664707e-08, 1.1117334784268317e-12)),
}


def test_meril_traces_are_pinned_bitwise():
    # (value, error, gaps, bounds) of three traces to the last bit: how the
    # rungs' closed form and the cached rules are arranged must not move
    # them; and within both estimates of the REFERENCE traces, rung for
    # rung.
    u = MeromorphicDatum([(1.2 + 0.3j, 1, 0.5 - 1j), (2 - 0.4j, 2, 0.75j)])
    v = meril_transform(u, SECTOR, 0.1, 0.1)
    pinned = {
        -0.7 + 0j: (
            3.7174146359200124 + 0.9858112295335986j, 3.1737580738788166e-13,
            (0.012694952487998718, 0.0025621212795297133,
             0.00021356493971748077, 4.0769514665207466e-06,
             1.140364282506718e-08, 2.536037050246793e-12),
            (0.044113132116372036, 0.005660091840288748,
             0.0003453535406038403, 6.71120883291442e-06,
             2.3011861106960564e-08, 5.780617424053205e-12)),
        -2.7631829820086553 + 1.1682550269259515j: (
            0.0021141640255218875 + 0.16355209904542292j,
            2.3520984264689002e-14,
            (6.204497968915504e-05, 1.2221986979056853e-06,
             4.108306527085839e-09, 9.585123840845122e-13),
            (0.0002239930716433315, 3.9528274521683365e-06,
             1.2307520166670155e-08, 2.7484008615128403e-12)),
        -12.380034223645175 - 8.46963710092553j: (
            2.084353555047914e-05 - 2.361022050235099e-05j,
            8.464773684146084e-14,
            (1.8365397016099363e-09, 1.9061783170612936e-13),
            (1.0829290106646418e-08, 1.111733478397285e-12)),
    }
    for w, want in pinned.items():
        t = v.diagnostics(w)
        assert (t.value, t.error, t.gaps, t.bounds) == want, w
        value, error, gaps, _ = REFERENCE[w]
        assert abs(t.value - value) <= error + t.error, w
        assert len(t.gaps) == len(gaps), w
        assert all(abs(a - b) <= error + t.error
                   for a, b in zip(t.gaps, gaps)), w
        assert abs(t.value - residue_oracle(u, w)) <= t.error, w


def test_meril_long_ladders_with_near_points_are_pinned_bitwise():
    # Three poles (orders 1-3) in a sector with its apex cut off: at
    # |w| about 0.6 the ladder runs 8 and 9 columns and its first ones
    # hold points with |t| < 5, where S_m takes the power series; at
    # |w| about 3, 4 columns and Gauss-Laguerre alone.  Every field of
    # the trace to the last bit.
    axis, gamma, tilt = 0.4, 0.9, 0.2
    region = ConvexRegion([(math.cos(t), math.sin(t), 0.0) for t in (
        axis - gamma - math.pi / 2, axis + gamma + math.pi / 2)] + [
        (math.cos(axis + math.pi + tilt), math.sin(axis + math.pi + tilt),
         -0.3 * math.cos(tilt))])
    u = MeromorphicDatum([(1.2 * cmath.exp(1j * (axis + 0.3)), 1, 0.5 - 1j),
                          (1.6 * cmath.exp(1j * (axis - 0.4)), 2, 0.75j),
                          (0.9 * cmath.exp(1j * axis), 3, -0.4 + 0.2j)])
    v = meril_transform(u, region, 0.1, 0.1)
    pinned = {
        -0.5822620777432961 + 0.13766932227046363j: (
            (4.5446625682384925 + 0.4057482973162792j,
             4.553538682010795 + 0.34531992418217083j,
             4.5209235459870305 + 0.3440508272956933j,
             4.524100754447321 + 0.3478950300616618j,
             4.523736589713741 + 0.3474939570272163j,
             4.523755973299904 + 0.3474746714188965j,
             4.523755934455759 + 0.3474743195902489j,
             4.523755935086111 + 0.347474319672999j),
            (0.06107678507693321, 0.032639817780679224, 0.004987238565180481,
             0.0005417338203790461, 2.7343337411219294e-05,
             3.5396647424307813e-07, 6.35760006835686e-10),
            (0.2728958652666949, 0.07020380820524169, 0.012670733338333453,
             0.0013272977788602576, 6.034377942084179e-05,
             7.591108143342125e-07, 1.3483306862907598e-09),
            7.430669669667434e-13),
        -0.5370443142081751 + 0.44147131762751146j: (
            (3.8022467370891615 + 1.4336289215137974j,
             3.7451242744071735 + 1.4166377917784683j,
             3.758361618257575 + 1.3906404370109107j,
             3.7571497062597716 + 1.3967249151947545j,
             3.757728333542716 + 1.396257670677546j,
             3.757750246425231 + 1.3962115777666408j,
             3.7577503976755064 + 1.3962125374499859j,
             3.7577503961407044 + 1.396212540244489j,
             3.75775039613998 + 1.3962125402445498j),
            (0.059595924630278845, 0.02917344215419243, 0.006203999150555418,
             0.0007437250644080723, 5.103656391091165e-05,
             9.715290878929437e-07, 3.1882385505556107e-09,
             7.269374787737637e-13),
            (0.2941592225186576, 0.08410963104313238, 0.018005897359652703,
             0.0023712648845325176, 0.0001448638378232641,
             2.7367529953370675e-06, 8.811653151761542e-09,
             1.9873450826885533e-12),
            4.974735335032584e-13),
        -2.6741969980412805 + 1.5662946393009167j: (
            (-0.6817596395642386 - 0.18113811541907618j,
             -0.6817650880102075 - 0.18112549785318124j,
             -0.6817652125864014 - 0.1811254604094386j,
             -0.6817652125125674 - 0.1811254602906441j),
            (1.3743672456423987e-05, 1.3008175106685023e-07,
             1.3986993804707809e-10),
            (4.0530491108508407e-05, 3.2280008366439363e-07,
             3.1541663679912185e-10),
            5.673911325343071e-14),
    }
    rays = contour.open_boundary_rays(thicken(region, 0.1))
    for w, (values, gaps, bounds, error) in pinned.items():
        want = transforms.MerilTrace(
            tuple(5.4 * 1.5 ** k for k in range(len(values))), values, gaps,
            bounds, values[-1], error)
        t = v.diagnostics(w)
        assert repr(t) == repr(want), w
        near = [abs((b + contour.circle_hit(b, d, R) * d - a) * w) < 5.0
                for R in t.radii for b, d in rays for a, _, _ in u.terms]
        assert any(near) == (len(values) > 4), w
        assert abs(t.value - residue_oracle(u, w)) <= t.error, w


def test_meril_gaps_dominated_by_tail_bound():
    u = MeromorphicDatum([(1 + 0j, 1, 1.0)])
    v = meril_transform(u, SECTOR, 0.1, 0.1)
    for w in (-1 + 0j, -0.8 + 0.3j, -2 - 0.5j):
        t = v.diagnostics(w)
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
    for w in (complex(math.nan, 0), complex(math.nan, 1),
              complex(-math.inf, 0), complex(-math.inf, 1)):
        assert not v.domain_contains(w)
        with pytest.raises(ValueError):
            v(w)


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
    with pytest.raises(ValueError, match="positive"):
        meril_transform(u, SECTOR, 0.0, 0.1)


def test_meril_nonconvergence_reports_tail():
    # eps' = 1e-8 and w just inside the shifted dual cone: the kernel
    # barely decays along the rays, so no radius of the default ladder
    # brings the tail down.
    u = MeromorphicDatum([(1 + 0j, 1, 1.0)])
    w = 2e-8 * bisector(polar_cone(asymptotic_cone(SECTOR)))
    v = meril_transform(u, SECTOR, 0.1, 1e-8)
    with pytest.raises(ConvergenceError) as exc:
        v(w)
    # The closed-form tail of both rays beyond the last default radius.
    s_eps = thicken(SECTOR, 0.1)
    r0 = max(2.0 * (1.0 + 0.1 + 1.0),
             1.5 * (contour.open_boundary_extent(s_eps) + 1.0))
    last = r0 * 1.5 ** 39
    want = sum(ray_tail_bound(u, b, d, contour.circle_hit(b, d, last), w)
               for b, d in contour.open_boundary_rays(s_eps))
    assert exc.value.last_tail_bound == pytest.approx(want, rel=1e-12)
    assert want > 1.0
    assert isinstance(exc.value.partial, complex)


def _meril_corpus(lo: float = 0.5, hi: float = 20.0, n_mags: int = 8,
                  n_axes: int = 16, seed: int = 7):
    """(datum, region, w) triples: sectors at the origin with n_axes axes
    on a grid over [0, 2 pi) and half-angles in (0.2, 1.4), 1-3 poles
    inside each, and n_mags values of |w| log-spaced over [lo, hi)
    across 0.95 of the dual cone shifted by eps' = 0.1 along its
    bisector."""
    rng = np.random.default_rng(seed)
    mags = np.exp(np.linspace(math.log(lo), math.log(hi), n_mags,
                              endpoint=False))
    out = []
    for i, axis in enumerate(np.linspace(0.0, 2 * math.pi, n_axes,
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


def _dishonest_meril_estimates(corpus):
    """The corpus entries whose Meril estimate is below the gap to the
    exact residue sum."""
    dishonest = []
    built = {}
    for u, region, w in corpus:
        key = (u, region)
        if key not in built:
            built[key] = meril_transform(u, region, 0.1, 0.1)
        value, error = built[key].with_error(w)
        gap = abs(value - residue_oracle(u, w))
        if gap > error:
            dishonest.append((region.halfplanes, u.terms, w, gap, error))
    return dishonest


def test_meril_error_estimate_covers_the_oracle_gap():
    # The estimate (quadrature error plus closed-form tail bound) is
    # never below the gap to the exact residue sum.
    dishonest = _dishonest_meril_estimates(_meril_corpus())
    assert not dishonest, dishonest[:5]


def test_meril_error_estimate_covers_the_oracle_gap_at_large_w():
    corpus = _meril_corpus(20.0, 100.0, n_mags=4, seed=20)
    assert len(corpus) == 256
    dishonest = _dishonest_meril_estimates(corpus)
    assert not dishonest, dishonest[:5]


# A meril-cone benchmark case (seed 8, pass 0) whose rung from radius 26.9
# to 40.3 has a 20-long segment at |w| = 17.4: on one Gauss-Kronrod panel
# K15 and G7 agree to 7e-12 while the true error is 2.5e-11.
LONG_RUNG_U = MeromorphicDatum([
    (0.7892338870071037 - 1.3376166666597846j, 1,
     0.06446332234212404 + 0.5039124837158437j),
    (-0.19781330970043545 - 0.8708699194449737j, 2,
     0.6127409368267691 + 0.8014416570972351j)])
LONG_RUNG_REGION = ConvexRegion([
    (-0.5218346356399401, 0.8530466652220914, 0.0),
    (-0.0648425937413493, 0.9978955045679354, 0.0)])
LONG_RUNG_W = -8.627373221968734 - 15.115821623010987j
LONG_RUNG_SEGMENT = contour.Segment(
    -34.42465617634364 - 20.941384148265314j,
    -51.610980743823745 - 31.45478251707061j)


def test_meril_long_rung_is_resolved():
    w = LONG_RUNG_W

    def g(z):
        return np.exp(z * w) * LONG_RUNG_U(z)

    seg = LONG_RUNG_SEGMENT
    x, wt = np.polynomial.legendre.leggauss(60)
    t = ((np.arange(600)[:, None] + 0.5 + 0.5 * x) / 600).ravel()
    want = complex(g(seg.point(t)) @ np.tile(wt / 1200, 600)) * (
        seg.end - seg.start)
    got = contour.integrate(contour.OrientedContour([seg]), LONG_RUNG_U,
                            1e-11, w=w)
    assert abs(got.value - want) <= got.error
    # The whole transform, with its closed-form tail, stays honest.
    t = meril_transform(LONG_RUNG_U, LONG_RUNG_REGION, 0.1,
                        0.1).diagnostics(w)
    assert any(abs(R - 40.29390180790006) < 1e-9 for R in t.radii)
    assert abs(t.value - residue_oracle(LONG_RUNG_U, w)) <= t.error <= 1e-11


def test_meril_near_the_dual_cone_edge_is_fast_and_honest():
    # w at 0.99999, 0.999999 and 0.999 of the dual half-width: the kernel
    # decays at about |w| (1 - that share) per unit along one ray, so the
    # truncation runs to radii of 1e3 to 1e7.  Integrated by quadrature,
    # rungs there were thousands long, and the first two cases raised
    # QuadratureError after 0.3-0.8 s; the last two took about 20 ms.  In
    # closed form each cold evaluation stays within its estimate of the
    # oracle and well within 50 ms of CPU time.
    u = MeromorphicDatum([(1 + 0j, 1, 1.0)])
    dual = polar_cone(asymptotic_cone(SECTOR))
    for mag, eps_prime, share in ((5.0, 1e-5, 0.99999),
                                  (2.0, 1e-6, 0.999999),
                                  (5.0, 1e-3, 0.999), (20.0, 1e-3, 0.999)):
        v = meril_transform(u, SECTOR, 0.1, eps_prime)
        w = eps_prime * bisector(dual) + mag * cmath.exp(
            1j * (dual.axis + share * dual.half_width))
        start = time.thread_time()
        value, error = v.with_error(w)
        assert time.thread_time() - start <= 0.05, w
        ref = residue_oracle(u, w)
        assert abs(value - ref) <= error, w
        assert abs(value - ref) / (1.0 + abs(ref)) <= 1e-9, w


def test_meril_evaluates_u_once_per_node_array(monkeypatch):
    arrays = []
    call = MeromorphicDatum.__call__

    def counting(self, z):
        arrays.append(z if isinstance(z, np.ndarray) else None)
        return call(self, z)

    monkeypatch.setattr(MeromorphicDatum, "__call__", counting)
    u = MeromorphicDatum([(1 + 0.2j, 2, 1.0), (1.5 - 0.1j, 1, 0.5j)])
    v = meril_transform(u, SECTOR, 0.1, 0.1)
    assert arrays == []  # nodes are built at the first evaluation
    for k in range(24):
        w = -(1 + 0.5 * k) * cmath.exp(0.6j * math.sin(k))
        residue = residue_oracle(u, w)
        value, error = v.with_error(w)
        assert abs(value - residue) <= error <= 1e-9
    # One call per rule's node array, none per w; the list holds the
    # arrays, so no two of them can share an id.
    assert all(z is not None for z in arrays)
    assert len(arrays) == len({id(z) for z in arrays})
    assert len(arrays) < 24 * 3


def _built_contours(monkeypatch):
    """The list that meril_transform's base contours join as it builds
    them (truncating its boundary chain): each transform's own, whose
    cache the tests read."""
    built = []
    truncated = contour._OpenChain.truncated
    monkeypatch.setattr(contour._OpenChain, "truncated",
                        lambda *a: built.append(truncated(*a)) or built[-1])
    return built


def test_meril_base_segments_start_where_u_alone_settles(monkeypatch):
    # Each piece of the base contour starts at the level where u alone
    # settles (w = 0, the piece's share of MERIL_ABS_TOL), learned once
    # per piece and datum, or higher where 2|w| nodes per unit length need
    # it.  The boundary segments run past the poles: from 2|w|*length
    # nodes they climbed about four level rounds per w here; now one.
    # The corner arc settles at level 0 at w = 0, so e^{z*w} alone sets
    # its rounds, as before.  The levels are kept in the base contour's
    # own cache, under (piece, u, tolerance share).
    u = MeromorphicDatum([(1 + 0.2j, 2, 1.0), (1.5 - 0.1j, 1, 0.5j)])
    built = _built_contours(monkeypatch)
    v = meril_transform(u, SECTOR, 0.1, 0.1)
    dual = polar_cone(asymptotic_cone(SECTOR))
    rng = np.random.default_rng(20)
    ws = [0.1 * bisector(dual) + mag * cmath.exp(
        1j * (dual.axis + f * dual.half_width)) for mag, f in zip(
        np.exp(rng.uniform(math.log(0.5), math.log(12.0), 24)),
        rng.uniform(-0.95, 0.95, 24))]
    v.diagnostics(ws[0])
    (base,) = built
    assert base == contour.region_boundary_contour(
        thicken(SECTOR, 0.1), truncation=v.diagnostics(ws[0]).radii[0])

    def settled():
        return {k: level for k, level in base._cache.items()
                if k[1] is u and isinstance(k[2], float)}

    levels = settled()
    assert list(levels) == [(p, u, MERIL_ABS_TOL * (n / base.length))
                            for p, n in zip(base.pieces, base.lengths)]
    head, arc, tail = levels.values()
    assert head == tail > 0 and arc == 0
    rounds = {p: 0 for p in base.pieces}
    node_sums = contour._node_sums

    def counting(cache, piece, *args):
        if piece in rounds:
            rounds[piece] += 1
        return node_sums(cache, piece, *args)

    monkeypatch.setattr(contour, "_node_sums", counting)
    for w in ws:
        value, error = v.with_error(w)
        assert abs(value - residue_oracle(u, w)) <= error <= 1e-9
    first, _, last = base.pieces
    assert rounds[first] == rounds[last] == len(ws)
    assert settled() == levels


def _seeded_meril_regions(rng, n: int):
    """n (datum, region) pairs: sectors at the origin with a random axis
    and half-angle in (0.2, 1.4), every other one with its apex cut off by
    a third half-plane, and 1-3 poles inside."""
    out = []
    for i in range(n):
        axis, gamma = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.2, 1.4)
        hp = [(math.cos(t), math.sin(t), 0.0) for t in (
            axis - gamma - math.pi / 2, axis + gamma + math.pi / 2)]
        if i % 2:
            tilt = rng.uniform(-1.0, 1.0) * min(0.4, 1.5 - gamma)
            hp.append((math.cos(axis + math.pi + tilt),
                       math.sin(axis + math.pi + tilt), -0.3 * math.cos(tilt)))
        region = ConvexRegion(hp)
        terms = []
        while len(terms) < 1 + i % 3:
            a = rng.uniform(0.8, 2.0) * cmath.exp(
                1j * (axis + rng.uniform(-0.7, 0.7) * gamma))
            if signed_distance(region, a) < -1e-3:
                terms.append((a, int(rng.integers(1, 3)),
                              complex(*rng.uniform(-1, 1, 2))))
        out.append((MeromorphicDatum(terms), region))
    return out


def test_meril_half_eps_prime_is_v_bitwise_on_vs_domain():
    # eps' moves only Meril's domain test: on seeded sectors and cut
    # sectors, at the CLI's default points (the shift plus 1.5 and 3
    # along the dual axis and half the dual half-width to either side)
    # and at seeded w out to 0.95 of the half-width, the eps'/2 run's
    # trace is v's to the last bit.
    rng = np.random.default_rng(58)
    checked = 0
    for u, region in _seeded_meril_regions(rng, 12):
        dual = polar_cone(asymptotic_cone(region))
        shift = 0.1 * bisector(dual)
        v = meril_transform(u, region, 0.1, 0.1)
        half = meril_transform(u, region, 0.1, 0.05)
        ws = [shift + radius * cmath.exp(1j * (dual.axis + dt))
              for dt in (-0.5 * dual.half_width, 0.0, 0.5 * dual.half_width)
              for radius in (1.5, 3.0)]
        ws += [shift + mag * cmath.exp(1j * (
            dual.axis + rng.uniform(-0.95, 0.95) * dual.half_width))
            for mag in np.exp(rng.uniform(math.log(0.5), math.log(30.0), 4))]
        for w in ws:
            assert v.domain_contains(w) and half.domain_contains(w)
            assert repr(half.diagnostics(w)) == repr(v.diagnostics(w))
            assert repr(half.with_error(w)) == repr(v.with_error(w))
            checked += 1
    assert checked == 120


def test_meril_closed_form_rungs_match_segment_on_each_rung():
    # Each rung in closed form, against _segment on its two ray segments
    # (the entry ray's run inward) from their own start levels: within
    # both estimates.  A rung's estimate is its bound less the closed-form
    # tail bound at its radius.
    rng = np.random.default_rng(19)
    checked = 0
    for u, region in _seeded_meril_regions(rng, 12):
        v = meril_transform(u, region, 0.1, 0.1)
        dual = polar_cone(asymptotic_cone(region))
        rays = contour.open_boundary_rays(thicken(region, 0.1))

        def crossings(ray, radii):
            b, d = ray
            return [b + contour.circle_hit(b, d, R) * d for R in radii]

        for mag in np.exp(rng.uniform(math.log(0.5), math.log(100.0), 5)):
            w = 0.1 * bisector(dual) + mag * cmath.exp(1j * (
                dual.axis + rng.uniform(-0.95, 0.95) * dual.half_width))
            t = v.diagnostics(w)
            for k, radii in enumerate(zip(t.radii, t.radii[1:])):
                (a, a_err), (c, c_err) = (
                    contour._segment({}, contour.Segment(*ends), u,
                                     MERIL_ABS_TOL, w)
                    for ends in (crossings(rays[0], radii)[::-1],
                                 crossings(rays[1], radii)))
                tail = sum(ray_tail_bound(u, b, d, contour.circle_hit(
                    b, d, radii[0]), w) for b, d in rays)
                # Read back from the trace's running values and bounds, a
                # rung and its estimate carry their rounding.
                step = t.values[k + 1] - t.values[k]
                slack = 2 * contour._EPS * (abs(t.values[k + 1]) + t.bounds[k])
                assert abs(step - (a + c)) <= (t.bounds[k] - tail + a_err
                                               + c_err + slack), (w, k)
                checked += 1
    assert checked >= 150


def _s_m_reference(t: complex, m: int) -> complex:
    """S_m(t) = t^{m-1} int_0^inf e^{-y} (t + y)^{-m} dy by 30-point
    Gauss-Legendre on the panels [0, 2^-8], [2^-8, 2^-7], ..., [32, 64]
    (e^{-64} is below 1e-27)."""
    x, wt = np.polynomial.legendre.leggauss(30)
    edges = np.concatenate(([0.0], 2.0 ** np.arange(-8, 7)))
    lo, hi = edges[:-1, None], edges[1:, None]
    y = (lo + hi + (hi - lo) * x) / 2
    f = np.exp(-y) * (t / (t + y)) ** m / t
    return complex((f @ wt) @ (hi - lo)[:, 0] / 2)


def test_ray_factor_matches_a_panel_reference_across_its_switch():
    # S_m(t) = e^t E_m(t) for m = 1-4, |t| from 0.5 to 200 (the power
    # series below 5, Gauss-Laguerre from 5) and |arg t| up to 2.0: each
    # value within its estimate of an independent composite Gauss-Legendre
    # sum, and each estimate small.
    for m in (1, 2, 3, 4):
        for r in (0.5, 1.0, 2.5, 4.0, 4.9, 4.999, 5.0, 5.001, 5.2, 7.0,
                  12.0, 40.0, 200.0):
            args = np.linspace(-2.0, 2.0, 21)
            t = r * np.exp(1j * args)
            value, estimate = transforms._ray_factor(t, np.array(m))
            for z, got, est in zip(t, value, estimate):
                ref = _s_m_reference(complex(z), m)
                assert abs(got - ref) <= est, (m, z)
                assert est <= 1e-9 * abs(ref), (m, z)


def _ray_factor_reference(t, m):
    """S_m(t) and its estimate as first written: np.where powers of
    t/(t + y), the float weight matrix cast per product, and the series'
    divisors, psi and 1/(k + 1 - m) built for each call."""
    rules = [transforms._gauss_laguerre(n) for n in (48, 64)]
    nodes = np.concatenate([x for x, _ in rules])
    weights = np.zeros((nodes.size, 2))
    weights[:48, 0], weights[48:, 1] = rules[0][1], rules[1][1]
    eps = float(np.finfo(float).eps)
    q = t[..., None] / (t[..., None] + nodes)
    f = q
    for k in range(2, int(m.max()) + 1):
        f = np.where((m >= k)[..., None], f * q, f)
    sums = f @ weights
    value = sums[..., 1] / t
    estimate = (np.abs(sums[..., 1] - sums[..., 0]) + 16.0 * eps
                * (np.abs(f) @ weights[:, 1])) / np.abs(t)
    near = np.abs(t) < 5.0
    if near.any():
        s, m = t[near], np.broadcast_to(m, t.shape)[near]
        n = 40 + int(m.max())
        k = np.arange(n)
        p = np.ones((s.size, n), complex)
        p[:, 1:] = s[:, None] / -k[1:]
        np.multiply.accumulate(p, axis=1, out=p)
        den = k + (1 - m[:, None])
        inv = np.divide(1.0, den, out=np.zeros(den.shape), where=den != 0)
        psi = np.cumsum(np.concatenate(([-np.euler_gamma], 1.0 / k[1:])))
        lead = p[den == 0] * (psi[m - 1] - np.log(s))
        scale = np.exp(s)
        value[near] = scale * (lead - (p * inv).sum(axis=1))
        y = np.abs(s)
        dropped = np.abs(p[:, -1]) * y / n / (n + 1 - m) / (1 - y / (n + 1))
        estimate[near] = np.abs(scale) * (dropped + 16.0 * eps * (
            np.abs(lead) + (np.abs(p) * np.abs(inv)).sum(axis=1)))
    return value, estimate


def test_ray_factor_is_the_reference_formula_repr_exactly():
    # Seeded (rows, columns) arrays up to 6 x 12 with one pole order per
    # row, orders 1-4 mixed (and up to 30 in every fifth case), |t| from
    # 0.5 to 60 (both sides of the series' switch at 5) and |arg t| up to
    # 2.0: values and estimates are the reference's to the last bit.
    rng = np.random.default_rng(29)
    near_cases = 0
    for case in range(300):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 13)))
        t = (np.exp(rng.uniform(math.log(0.5), math.log(60.0), shape))
             * np.exp(1j * rng.uniform(-2.0, 2.0, shape)))
        top = 31 if case % 5 == 4 else 5
        m = rng.integers(1, top, (shape[0], 1))
        got = transforms._ray_factor(t, m)
        want = _ray_factor_reference(t, m)
        for a, b in zip(got, want):
            assert repr(a.tolist()) == repr(b.tolist()), (t, m)
        near_cases += bool((np.abs(t) < 5.0).any())
    assert near_cases >= 100


def test_gauss_laguerre_rules_integrate_low_moments():
    # int_0^inf e^{-y} y^k dy = k!: the Golub-Welsch rules to a few ulps,
    # where numpy's laggauss misses by up to 1e-13 from k = 1.
    for n in (48, 64):
        x, wt = transforms._gauss_laguerre(n)
        for k in range(6):
            assert abs((wt * x ** k).sum() / math.factorial(k) - 1.0) \
                <= 2e-14, (n, k)


def test_meril_ray_tails_cross_no_branch_cut():
    # Along each ray beyond the first radius, t = -(z - a) w of each pole
    # a moves on the half-line from t0 in the direction -d w; it must not
    # meet the negative real axis, where E_m's principal branch jumps.
    # The first radius is at least max|corner| + eps + 2 max|pole| + 1
    # for that.  Sectors with their apex up to 4 from the origin; from
    # the ray bases instead, some paths do cross.
    rng = np.random.default_rng(31)
    crossings, checked = 0, 0
    for i in range(40):
        apex = rng.uniform(0.0, 4.0) * cmath.exp(2j * math.pi * rng.uniform())
        axis, gamma = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.2, 1.4)
        region = sector(apex, axis, gamma)
        terms = [(apex + rng.uniform(0.2, 2.0) * cmath.exp(
            1j * (axis + rng.uniform(-0.8, 0.8) * gamma)), 1 + i % 2, 1.0)
            for _ in range(1 + i % 3)]
        v = meril_transform(MeromorphicDatum(terms), region, 0.1, 0.1)
        dual = polar_cone(asymptotic_cone(region))
        rays = contour.open_boundary_rays(thicken(region, 0.1))
        for mag, f in zip(np.exp(rng.uniform(math.log(0.5), math.log(20.0),
                                             4)), rng.uniform(-0.99, 0.99, 4)):
            w = 0.1 * bisector(dual) + mag * cmath.exp(
                1j * (dual.axis + f * dual.half_width))
            r0 = v.diagnostics(w).radii[0]
            for b, d in rays:
                z0 = b + contour.circle_hit(b, d, r0) * d
                for a, _, _ in terms:
                    assert not _meets_negative_axis(-(z0 - a) * w, -d * w)
                    crossings += _meets_negative_axis(-(b - a) * w, -d * w)
                    checked += 1
    assert checked >= 500 and crossings > 0


def _meets_negative_axis(t0: complex, step: complex) -> bool:
    """Whether t0 + s*step, s >= 0, meets the real axis at or left of 0."""
    if step.imag == 0.0:
        return t0.imag == 0.0 and t0.real <= 0.0
    s = -t0.imag / step.imag
    return s >= 0.0 and (t0 + s * step).real <= 0.0


def test_meril_estimates_are_honest_near_the_cone_edge():
    # Seeded sweep: cut and uncut sectors with 1-3 poles, eps' = 1e-3,
    # |w| from 0.5 to 100 and w up to 0.999 of the dual half-width either
    # side of the axis; the estimate is never below the oracle gap.
    rng = np.random.default_rng(4)
    for u, region in _seeded_meril_regions(rng, 12):
        v = meril_transform(u, region, 0.1, 1e-3)
        dual = polar_cone(asymptotic_cone(region))
        offsets = np.concatenate(([-0.999, 0.999],
                                  rng.uniform(-0.999, 0.999, 4)))
        for mag, f in zip(np.exp(rng.uniform(math.log(0.5),
                                             math.log(100.0), 6)), offsets):
            w = 1e-3 * bisector(dual) + mag * cmath.exp(
                1j * (dual.axis + f * dual.half_width))
            value, error = v.with_error(w)
            ref = residue_oracle(u, w)
            assert abs(value - ref) <= error, w
            assert abs(value - ref) / (1.0 + abs(ref)) <= 1e-8, w


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
    u = borel_inverse([1.0])
    assert u.terms == ((0j, 1, (1 + 0j)),)
    v = polya_transform(u, DISK_HALF, 1.0)
    assert abs(v(1.3 - 0.4j) - TWO_PI_I) <= 1e-10


def test_borel_linear_round_trip():
    u = borel_inverse([1.0, 1.0])
    v = polya_transform(u, DISK_HALF, 1.0)
    for w in w_grid(2.0, 5):
        assert abs(v(w) - TWO_PI_I * (1 + w)) <= 1e-9


def test_borel_zero_and_validation():
    assert borel_inverse([]).terms == ()
    assert borel_inverse([0.0, 0.0]).terms == ()
    with pytest.raises(ValueError):
        borel_inverse([complex("nan")])


def test_borel_degree_six_round_trip():
    coeffs = [1.0, -0.5, 0.25j, 0.0, 2.0, -1j, 0.125]
    u = borel_inverse(coeffs)
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
    # Order-1 terms skip the power: the same bits as c / (z - a) ** 1.
    z = np.concatenate((z, [0.3 + 1e-100j, -0.3 - 0.0j, complex(-0.0, -1.0),
                            -1j, 1e154 + 1e-154j, 1e-310 - 7j]))
    want = np.zeros_like(z)
    for a, m, c in u.terms:
        want += c / (z - a) ** m
    assert u(z).tobytes() == want.tobytes()
    for zk in z:
        scalar = 0j
        for a, m, c in u.terms:
            scalar += c / (complex(zk) - a) ** m
        got = u(complex(zk))
        assert (got.real, got.imag) == (scalar.real, scalar.imag)
        assert [math.copysign(1.0, x) for x in (got.real, got.imag)] == [
            math.copysign(1.0, x) for x in (scalar.real, scalar.imag)]
    # No terms: still an array, of zeros.
    empty = MeromorphicDatum([])(z)
    assert isinstance(empty, np.ndarray) and empty.shape == z.shape
    assert not empty.any()
    # Equal datums share one hash.
    twin = MeromorphicDatum(list(u.terms))
    assert twin == u and hash(twin) == hash(u)


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


def test_residue_oracle_names_the_largest_term_when_the_value_overflows():
    # Every Re(a w) is in range here.  The sum overflowed to nan at a
    # third-order pole at 0.9 and w = 780 with a message naming e^0.  Now
    # it names the largest term's log-magnitude,
    # log(2 pi |c|) + (m - 1) log|w| + Re(a w) - lgamma(m).  (w^19 at
    # w = 1e17 no longer raises: see the log-form test below.)
    u = MeromorphicDatum([(0.9, 3, 1.0)])
    with pytest.raises(OverflowError,
                       match=r"needs e\^716.463, beyond the float range"):
        residue_oracle(u, 780)


@pytest.mark.parametrize("terms, w", [
    ([(0j, 20, 1.0)], 1e17),  # w^19 overflows; the term is e^706.233
    ([(0j, 20, 1.0)], -1e17j),
    ([(0j, 200, 1.0)], 100),  # 199! is no float; the term is e^60.33
    ([(0.5 + 0.2j, 200, 1 - 2j)], 80 - 30j),
    ([(0j, 200, 1.0)], 1),  # e^-856: underflows to 0
    ([(0j, 200, 1.0), (0.3, 1, 2.0)], 0),  # m > 1 contributes 0 at w = 0
    ([(0j, 200, 1.0), (1.1, 2, 0.5j)], 1),
])
def test_residue_oracle_takes_overflowing_terms_in_log_form(terms, w):
    # Values that fit in a float used to raise "needs e^706.233", "needs
    # e^-856.096" or "needs e^inf" because w^{m-1} or (m-1)! overflowed.
    u = MeromorphicDatum(terms)
    value = residue_oracle(u, w)
    want = residue_transform(u).log_abs(w)
    if want < -745.0:  # below the smallest subnormal
        assert value == 0
    else:
        assert math.log(abs(value)) == pytest.approx(want, rel=1e-13,
                                                     abs=1e-13)


def test_residue_oracle_keeps_the_bits_of_terms_that_fit():
    u = MeromorphicDatum([(0.9, 3, 1.0), (0.2 - 0.1j, 170, 1e-300),
                          (0.5j, 1, 2 - 1j)])
    for w in (0.3 - 2j, 7.0, 1e-3j):
        want = 0j
        for a, m, c in u.terms:
            want += c * w ** (m - 1) * cmath.exp(a * w) / math.factorial(m - 1)
        assert residue_oracle(u, w) == 2j * math.pi * want


def _general_residue_sum(u, w):
    """residue_oracle by its general per-term formula alone, the reference
    for its order 1-3 paths, and the orders it took in log form; None for
    a raise."""
    acc, logs = 0j, set()
    try:
        for a, m, c in u.terms:
            try:
                acc += (c * w ** (m - 1) * cmath.exp(a * w)
                        / math.factorial(m - 1))
            except OverflowError:
                logs.add(m)
                acc += w and c * cmath.exp(
                    (m - 1) * cmath.log(w) + a * w - math.lgamma(m))
        value = 2j * math.pi * acc
        if cmath.isfinite(value):
            return value, logs
    except OverflowError:
        pass
    return None, logs


def test_residue_oracle_is_the_general_formula_repr_exactly():
    # Seeded data, 1-5 terms of orders 1-6, signed zeros among poles,
    # coefficients and w, |w| from 1e-3 to 3e2, w = 0, and |w| about
    # 1e155, where w*w overflows but a term of order 3 may still fit
    # (the log form) or not (the raise).
    rng = np.random.default_rng(28)
    zeros = (0.0, -0.0)
    seen = {"value": 0, "order 3 in log form": 0, "log form": 0, "raise": 0,
            "w = 0": 0}
    for _ in range(4000):
        terms = []
        for _ in range(int(rng.integers(1, 6))):
            a = complex(*rng.uniform(-2.0, 2.0, 2)) * 10.0 ** rng.uniform(-3, 0)
            c = complex(*rng.uniform(-2.0, 2.0, 2))
            if rng.uniform() < 0.1:
                a = complex(*rng.choice(zeros, 2))
            if rng.uniform() < 0.1:
                c = complex(rng.choice((1.0, -1.0, 0.0, -0.0)),
                            rng.choice(zeros))
            terms.append((a, int(rng.integers(1, 7)), c))
        u = MeromorphicDatum(terms)
        kind = rng.uniform()
        if kind < 0.05:
            w = complex(*rng.choice(zeros, 2))
        elif kind < 0.2:  # w*w overflows, a*w = -s (1 + i t) with the
            # term in range for s > 23 at order 3 (|w|^2 up to 1e312)
            w = 10.0 ** rng.uniform(154.2, 156.0) * cmath.exp(
                1j * rng.choice((0.0, 0.5 * math.pi, rng.uniform(0, 7))))
            u = MeromorphicDatum([
                (-rng.uniform(5.0, 300.0) * complex(1.0, rng.uniform(-1, 1))
                 / w, m, c) for _, m, c in terms])
        else:
            w = 10.0 ** rng.uniform(-3, 2.5) * cmath.exp(
                1j * rng.uniform(0.0, 2.0 * math.pi))
        want, logs = _general_residue_sum(u, w)
        if want is None:
            seen["raise"] += 1
            with pytest.raises(OverflowError):
                residue_oracle(u, w)
            continue
        assert repr(residue_oracle(u, w)) == repr(want), (u, w)
        seen["w = 0" if w == 0 else "log form" if logs else "value"] += 1
        seen["order 3 in log form"] += 3 in logs
    assert min(seen.values()) >= 20, seen


# ---- Polya on the cached-node trapezoid rule ----

def test_estimates_are_python_floats():
    u = MeromorphicDatum([(0.1 + 0j, 1, 1.0), (-0.2j, 2, 0.5)])
    v = polya_transform(u, DISK_HALF, 2.0)
    # w = 0, small |w|, and r|w| = 704 > 700, where the Taylor terms
    # start from Stirling's series.
    for w in (0, 0.3 - 0.2j, 352.0):
        assert type(v.with_error(w)[1]) is float
    m = meril_transform(MeromorphicDatum([(2.0 + 0j, 1, 1.0)]), SECTOR,
                        0.1, 0.1)
    assert type(m.with_error(-1.0 + 0.2j)[1]) is float
    trace = m.diagnostics(-1.0 + 0.2j)
    assert all(type(x) is float for x in (trace.error,) + trace.bounds)


def test_polya_evaluation_is_bitwise_reproducible():
    u = MeromorphicDatum([(0.25j, 2, 1.5 - 0.5j), (-0.2 + 0j, 3, 1.0)])
    ws = [0.3 + 0.1j, -2.0 + 1.5j, 6.0j, 10.0 - 4.0j]
    v = polya_transform(u, DISK_HALF, 2.0)
    first = [v.with_error(w) for w in ws]
    assert [v.with_error(w) for w in ws] == first
    assert [v.with_error(w) for w in reversed(ws)] == first[::-1]
    # Rebuilt from scratch, unit points and moments included: the new
    # transform's circle starts with no moments of its own.
    contour._trapezoid_units.cache_clear()
    rebuilt = polya_transform(MeromorphicDatum(u.terms), DISK_HALF, 2.0)
    assert [rebuilt.with_error(w) for w in ws] == first


def test_polya_values_are_pinned_bitwise():
    # (value, error) to the last bit: how the quadrature loop is organised
    # must not move them, and each value within its error of the residue
    # sum.  At w = 0, a grid point and |w| = 15 with r = 2,
    # and on an off-centre circle, C(-20, 20), where rho|w| = 800 takes
    # the Taylor terms from Stirling's series and at w = 80 the 2120 terms
    # fold onto the coarse rule of the top level's 4096 nodes.
    u = MeromorphicDatum([(0.2 - 0.1j, 2, 1.0), (-0.3 + 0.25j, 1, 0.5j)])
    v = polya_transform(u, ConvexBody([0j], rounding=1.0), 2.0,
                        abs_tol=1e-13)
    far = polya_transform(MeromorphicDatum([(-20 + 0.3j, 2, 1.0 - 0.5j)]),
                          ConvexBody([-20 + 0j], rounding=1), 20.0,
                          center=-20)
    pinned = [
        (v, 0j, -3.141592653589793 - 1.3877787807814457e-16j,
         1.3782790767523761e-14),
        (v, 1.5 - 2.25j, 16.563457798186295 - 3.269289000962818j,
         3.058912649579318e-12),
        (v, 9 + 12j, -1240.092835138726 - 1430.2660633193855j,
         0.14672228031440368),
        (far, 40, 1.1053544222258545e-19 + 5.0594943253410237e-20j,
         1.2482206087851997e-15),
        (far, 80, -1.3932062286738732e-20 - 8.264872025827865e-20j,
         1.2482941212105604e-15),
    ]
    for t, w, value, error in pinned:
        assert t.with_error(w) == (value, error), w
        u_t = MeromorphicDatum(t.residue_terms)
        assert abs(value - residue_oracle(u_t, w)) <= error, w


def test_rebuilt_transforms_start_cold(monkeypatch):
    # Each transform owns what it caches of u: one rebuilt from equal data
    # calls u on its contour's nodes at its first evaluation, with nothing
    # cleared, although an equal transform has been evaluated at that w.
    sizes = []
    call = MeromorphicDatum.__call__

    def counting(self, z):
        if isinstance(z, np.ndarray):
            sizes.append(z.size)
        return call(self, z)

    monkeypatch.setattr(MeromorphicDatum, "__call__", counting)
    u = MeromorphicDatum([(0.2 + 0.1j, 2, 1.0), (-0.1 + 0j, 1, 0.5j)])
    p = MeromorphicDatum([(1 + 0.2j, 2, 1.0), (1.5 - 0.1j, 1, 0.5j)])
    for d, build, w in (
            (u, lambda d: polya_transform(d, DISK_HALF, 2.0), 3 - 1j),
            (p, lambda d: meril_transform(d, SECTOR, 0.1, 0.1), -2 + 0.3j)):
        first = build(d)(w)
        sizes.clear()
        assert build(MeromorphicDatum(d.terms))(w) == first
        assert sizes


def test_meril_repeats_keep_no_block_and_add_no_entry(monkeypatch):
    # 64 seeded w, then the same 64 again: the second sweep adds nothing to
    # the base contour's cache and never calls u.  The rungs are closed
    # forms over the ladder's rows, kept from the first w: no block of
    # nodes is built for a w.
    u = MeromorphicDatum([(1 + 0.2j, 2, 1.0), (1.5 - 0.1j, 1, 0.5j)])
    built = _built_contours(monkeypatch)
    v = meril_transform(u, SECTOR, 0.1, 0.1)
    dual = polar_cone(asymptotic_cone(SECTOR))
    rng = np.random.default_rng(64)
    ws = [0.1 * bisector(dual) + mag * cmath.exp(
        1j * (dual.axis + f * dual.half_width)) for mag, f in zip(
        np.exp(rng.uniform(math.log(0.5), math.log(30.0), 64)),
        rng.uniform(-0.95, 0.95, 64))]
    first = [v.with_error(w) for w in ws]
    (base,) = built
    entries = dict(base._cache)
    calls, call = [], MeromorphicDatum.__call__
    monkeypatch.setattr(MeromorphicDatum, "__call__",
                        lambda self, z: calls.append(z) or call(self, z))
    assert [v.with_error(w) for w in ws] == first
    assert calls == []
    assert base._cache.keys() == entries.keys()
    assert all(base._cache[k] is entry for k, entry in entries.items())


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
    # w = 0 reads the cached moments like any other w.
    calls = len(sizes)
    for _ in range(10):
        assert abs(v(0) - residue_oracle(u, 0)) <= 1e-12
    assert len(sizes) == calls


def test_polya_takes_moments_once_and_no_exp_over_nodes(monkeypatch):
    # 200 evaluations: u once per node level, and the kernel as a Taylor
    # sum, so exp never sees an array of nodes.
    sizes, exp_sizes = [], []
    call, exp = MeromorphicDatum.__call__, np.exp

    def counting(self, z):
        sizes.append(len(z) if isinstance(z, np.ndarray) else None)
        return call(self, z)

    def counting_exp(x, *args, **kwargs):
        exp_sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(MeromorphicDatum, "__call__", counting)
    monkeypatch.setattr(np, "exp", counting_exp)
    u = MeromorphicDatum([(0.3 - 0.2j, 3, 1.0), (-0.2 + 0.1j, 1, 2.0j)])
    v = polya_transform(u, DISK_HALF, 1.0)
    rng = np.random.default_rng(10)
    for w in rng.uniform(-12.0, 12.0, (200, 2)) @ np.array([1.0, 1j]):
        value, err = v.with_error(w)
        assert abs(value - residue_oracle(u, w)) <= err
    assert None not in sizes
    assert len(sizes) == len(set(sizes)) and 1 <= len(sizes) <= 7
    assert all(size <= 1 for size in exp_sizes)
