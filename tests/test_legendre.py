"""Conjugation: frozen values, brute-force oracles, convexity invariants.

The grid oracle maximizes Re(z*w) - f(z) over a dense lattice and never
touches the LP path, so agreement is a genuine cross-check.  Closed
forms quoted in comments were derived by hand from the separable
structure of the test functions.
"""

import cmath
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convlap import _lp, legendre
from convlap.convexgeom import (
    Cone,
    ConvexBody,
    ConvexRegion,
    affine_dimension,
    asymptotic_cone,
    bisector,
    polar_cone,
    sector,
    signed_distance,
    support_function,
    thicken,
)
from convlap.legendre import (
    ConjugateForm,
    PLConvexFunction,
    UnsupportedConjugate,
    conjugate,
    conjugate_at,
    legendre_dimensions,
    symbolic_conjugate,
)

SQUARE = ConvexBody([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
PLANE = ConvexRegion([])

# f(z) = |x| + |y| as four pieces Re(z*b): gradients (+-1, +-1) need
# b = (+-1, -+i) under the (x, y).(u, -v) pairing.
CROSS_PIECES = [(1 - 1j, 0.0), (1 + 1j, 0.0), (-1 - 1j, 0.0), (-1 + 1j, 0.0)]
CROSS = PLConvexFunction(CROSS_PIECES, PLANE)

# f(z) = |x| restricted to the square.
ABS_X = PLConvexFunction([(1 + 0j, 0.0), (-1 + 0j, 0.0)], SQUARE)


def abs_x_conjugate(w: complex) -> float:
    """Hand-derived: sup over the square of x*u - y*v - |x| separates
    into max(0, |u|-1) + |v|."""
    return max(0.0, abs(w.real) - 1.0) + abs(w.imag)


def grid_conjugate_oracle(f, w, half, n):
    """Brute-force sup of Re(z*w) - f(z) over an n x n lattice."""
    xs = np.linspace(-half, half, n)
    X, Y = np.meshgrid(xs, xs)
    Z = (X + 1j * Y).ravel()
    best = -math.inf
    for z in Z:
        v = f.value(complex(z))
        if math.isfinite(v):
            best = max(best, (z * w).real - v)
    return best


# ---- pointwise conjugation ----

def test_indicator_conjugate_is_support_function():
    f = PLConvexFunction([], SQUARE)
    for w in (1 + 0j, -2 + 3j, 0.25j, 0j):
        assert conjugate_at(f, w) == pytest.approx(
            support_function(SQUARE, w), abs=1e-14)


def test_thickened_indicator_conjugate_adds_norm_term():
    eps = 0.5
    f = PLConvexFunction([], thicken(SQUARE, eps))
    rng = np.random.default_rng(11)
    for _ in range(1000):
        w = complex(*rng.uniform(-5, 5, 2))
        want = support_function(SQUARE, w) + eps * abs(w)
        assert conjugate_at(f, w) == pytest.approx(want, abs=1e-12)


def test_indicator_of_origin_conjugate_vanishes():
    f = PLConvexFunction([], ConvexBody([0j]))
    for w in (0j, 1 + 2j, -50j, 3.7 - 0.4j):
        assert conjugate_at(f, w) == 0.0


def test_cross_norm_conjugate_inside_the_unit_box():
    # Finite part: 0 whenever max(|u|, |v|) <= 1.  The lattice contains
    # the origin, where the sup is attained, so the oracle is exact.
    for w in (0j, 0.5 + 0.5j, -0.95 + 0.2j, 0.3 - 0.95j, 1 + 1j):
        oracle = grid_conjugate_oracle(CROSS, w, 8.0, 161)
        assert conjugate_at(CROSS, w) == pytest.approx(0.0, abs=1e-13)
        assert oracle == pytest.approx(0.0, abs=1e-13)


def test_cross_norm_conjugate_infinite_off_the_box():
    for w in (1.05 + 0j, 0 - 1.2j, -3 + 0.5j, 2 + 2j):
        assert conjugate_at(CROSS, w) == math.inf
        # The brute-force sup keeps growing with the lattice, confirming
        # divergence independently.
        small = grid_conjugate_oracle(CROSS, w, 10.0, 81)
        large = grid_conjugate_oracle(CROSS, w, 20.0, 81)
        assert large > small + 0.1


def test_two_piece_function_on_square_matches_hand_formula():
    rng = np.random.default_rng(23)
    for _ in range(300):
        w = complex(*rng.uniform(-4, 4, 2))
        assert conjugate_at(ABS_X, w) == pytest.approx(
            abs_x_conjugate(w), abs=1e-10)


def test_piece_shift_translates_the_conjugate():
    shift = 2 + 1j
    shifted = PLConvexFunction(
        [(b + shift, c) for b, c in CROSS_PIECES], PLANE)
    for w in (shift, shift + 0.5 - 0.5j, shift + 0.99j):
        assert conjugate_at(shifted, w) == pytest.approx(0.0, abs=1e-13)
    assert conjugate_at(shifted, shift + 1.5) == math.inf
    assert conjugate_at(shifted, 0j) == math.inf


def test_multi_piece_on_rounded_domain_is_rejected():
    f = PLConvexFunction([(1 + 0j, 0.0), (-1 + 0j, 0.0)],
                         ConvexBody([0j], rounding=1.0))
    with pytest.raises(UnsupportedConjugate):
        conjugate_at(f, 1 + 1j)


# ---- closed-form conjugates ----

def test_symbolic_square_indicator_is_support_function():
    form = symbolic_conjugate(PLConvexFunction([], SQUARE))
    assert form.shift == 0j
    assert form.offset == 0.0
    assert form.domain_cone.kind == "plane"
    rng = np.random.default_rng(3)
    for _ in range(200):
        w = complex(*rng.uniform(-3, 3, 2))
        assert form(w) == pytest.approx(support_function(SQUARE, w),
                                        abs=1e-14)


def test_symbolic_agrees_with_pointwise_on_random_samples():
    eps, eps2 = 0.25, 0.125
    region = sector(1 + 2j, 0.0, math.pi / 6)
    xi0 = bisector(polar_cone(asymptotic_cone(region)))
    cases = [
        PLConvexFunction([], thicken(SQUARE, eps)),
        PLConvexFunction([(eps2 * xi0, 0.0)], thicken(region, eps)),
    ]
    rng = np.random.default_rng(41)
    for f in cases:
        form = symbolic_conjugate(f)
        for _ in range(1000):
            w = complex(*rng.uniform(-6, 6, 2))
            a, b = form(w), conjugate_at(f, w)
            assert math.isfinite(a) == math.isfinite(b)
            if math.isfinite(a):
                assert a == pytest.approx(b, abs=1e-10)


def test_single_piece_on_thick_sector_value_and_domain():
    # Apex p0, axis 0, half-angle pi/6, thickened by eps.  For q
    # strictly inside the dual cone the sup sits at the apex, so the
    # conjugate is Re(p0*q) + eps*|q| with q = w - shift.
    eps, eps2 = 0.25, 0.125
    p0 = 1 + 2j
    region = sector(p0, 0.0, math.pi / 6)
    cone = polar_cone(asymptotic_cone(region))
    assert cone.kind == "sector"
    assert cone.axis == pytest.approx(math.pi)
    assert cone.half_width == pytest.approx(math.pi / 3)
    xi0 = bisector(cone)
    f = PLConvexFunction([(eps2 * xi0, 0.0)], thicken(region, eps))
    form = symbolic_conjugate(f)
    assert form.shift == eps2 * xi0
    rng = np.random.default_rng(97)
    for _ in range(50):
        # Strictly interior dual directions.
        t = rng.uniform(0.1, 4.0)
        ang = math.pi + rng.uniform(-0.9, 0.9) * math.pi / 3
        q = t * complex(math.cos(ang), math.sin(ang))
        w = q + eps2 * xi0
        want = (p0 * q).real + eps * abs(q)
        assert form(w) == pytest.approx(want, abs=1e-10)
        assert form.domain_cone.strictly_contains(w - form.shift, 1e-9)
    # Off the shifted cone the conjugate blows up.
    assert form(eps2 * xi0 + 1.0) == math.inf
    assert not form.domain_contains(eps2 * xi0 + 1.0)


def test_single_piece_sector_against_ray_sampling():
    # Independent lower-bound oracle: sample the thickened sector along
    # its bounding rays and the apex disk, take the best pairing value.
    eps, eps2 = 0.25, 0.125
    p0 = 1 + 2j
    region = sector(p0, 0.0, math.pi / 6)
    xi0 = bisector(polar_cone(asymptotic_cone(region)))
    f = PLConvexFunction([(eps2 * xi0, 0.0)], thicken(region, eps))
    form = symbolic_conjugate(f)
    samples = []
    for k in range(2001):
        ang = 2 * math.pi * k / 2001
        samples.append(p0 + eps * complex(math.cos(ang), math.sin(ang)))
    for t in np.linspace(0.0, 60.0, 4001):
        for sgn in (-1.0, 1.0):
            edge = complex(math.cos(sgn * math.pi / 6),
                           math.sin(sgn * math.pi / 6))
            n = complex(math.cos(sgn * (math.pi / 6 + math.pi / 2)),
                        math.sin(sgn * (math.pi / 6 + math.pi / 2)))
            samples.append(p0 + t * edge + eps * n)
    zs = np.array(samples)
    for q in (-1 + 0j, -2 + 1j, -0.5 - 0.4j):
        w = q + eps2 * xi0
        oracle = float(np.max((zs * q).real))
        assert form(w) >= oracle - 1e-9
        assert form(w) <= oracle + 1e-4 * (1 + abs(q))


def test_affine_on_plane_conjugates_to_point_indicator():
    b = 0.7 - 0.2j
    f = PLConvexFunction([(b, 0.0)], PLANE)
    form = symbolic_conjugate(f)
    assert form(b) == 0.0
    assert form(b + 1e-6) == math.inf
    assert form(0j) == math.inf
    assert conjugate_at(f, b) == 0.0
    assert conjugate_at(f, b + 1e-6) == math.inf


def test_symbolic_rejects_genuinely_piecewise_data():
    with pytest.raises(UnsupportedConjugate):
        symbolic_conjugate(CROSS)
    # Duplicated pieces collapse and stay symbolic.
    dup = PLConvexFunction([(1 + 1j, 0.0), (1 + 1j, -2.0)], SQUARE)
    form = symbolic_conjugate(dup)
    assert form.shift == 1 + 1j


# ---- full conjugation and biconjugation ----

def test_full_conjugate_matches_pointwise_everywhere():
    rng = np.random.default_rng(5)
    for f in (ABS_X, CROSS):
        g = conjugate(f)
        for _ in range(400):
            w = complex(*rng.uniform(-3, 3, 2))
            a = conjugate_at(f, w)
            b = g.value(w)
            assert math.isfinite(a) == math.isfinite(b)
            if math.isfinite(a):
                assert a == pytest.approx(b, abs=1e-10)


def test_biconjugation_recovers_interior_values():
    rng = np.random.default_rng(13)
    for f in (ABS_X, CROSS):
        g = conjugate(f)
        for _ in range(100):
            z = complex(*rng.uniform(-0.95, 0.95, 2))
            assert conjugate_at(g, z) == pytest.approx(f.value(z), abs=1e-9)


def test_cross_norm_biconjugate_on_the_square_is_minimal():
    # Acceptance criterion 4's f: one piece of f** per corner of the
    # square, and the square's four sides as its domain.
    f = PLConvexFunction(CROSS_PIECES, SQUARE)
    g = conjugate(conjugate(f))
    assert len(g.pieces) == 4
    assert len(g.domain.halfplanes) == 4
    rng = np.random.default_rng(31)
    for _ in range(200):
        z = complex(*rng.uniform(-0.99, 0.99, 2))
        assert abs(g.value(z) - f.value(z)) <= 1e-12


def test_generated_biconjugates_recover_f():
    # 2-6 random pieces on a rotated regular 3-5-gon inscribed in the
    # unit circle, compared on interior points, gap scaled by 1 + |f|.
    rng = np.random.default_rng(41)
    for _ in range(20):
        sides = int(rng.integers(3, 6))
        rot = rng.uniform(0.0, 2.0 * math.pi)
        body = ConvexBody([complex(math.cos(rot + 2 * math.pi * k / sides),
                                   math.sin(rot + 2 * math.pi * k / sides))
                           for k in range(sides)])
        f = PLConvexFunction(
            [(complex(*rng.uniform(-2, 2, 2)), float(rng.uniform(-1, 1)))
             for _ in range(int(rng.integers(2, 7)))], body)
        g = conjugate(conjugate(f))
        checked = 0
        while checked < 30:
            z = complex(*rng.uniform(-1, 1, 2))
            if signed_distance(body, z) < -1e-6:
                a = f.value(z)
                assert abs(g.value(z) - a) <= 1e-9 * (1.0 + abs(a))
                checked += 1


def test_conjugate_of_indicator_body_lists_vertices():
    g = conjugate(PLConvexFunction([], SQUARE))
    key = lambda z: (z.real, z.imag)
    assert sorted((b for b, _ in g.pieces), key=key) == sorted(
        [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], key=key)
    rng = np.random.default_rng(19)
    for _ in range(100):
        w = complex(*rng.uniform(-3, 3, 2))
        assert g.value(w) == pytest.approx(support_function(SQUARE, w),
                                           abs=1e-12)


# ---- Fenchel-Young and convexity ----

def test_fenchel_young_on_random_pairs():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(10_000):
        z = complex(*rng.uniform(-1, 1, 2))
        w = complex(*rng.uniform(-4, 4, 2))
        gap = (z * w).real - ABS_X.value(z) - conjugate_at(ABS_X, w)
        worst = max(worst, gap)
    assert worst <= 1e-10


finite_w = st.tuples(
    st.floats(-20, 20, allow_nan=False),
    st.floats(-20, 20, allow_nan=False),
).map(lambda t: complex(*t))


@settings(max_examples=200, deadline=None)
@given(finite_w, finite_w)
def test_conjugate_midpoint_convexity(w1, w2):
    mid = conjugate_at(ABS_X, 0.5 * (w1 + w2))
    avg = 0.5 * (conjugate_at(ABS_X, w1) + conjugate_at(ABS_X, w2))
    assert mid <= avg + 1e-10


# ---- dimension bookkeeping ----

def test_dimensions_indicator_of_fat_body():
    dims = legendre_dimensions(PLConvexFunction([], thicken(SQUARE, 0.25)))
    assert (dims.domain_hull, dims.conjugate_hull) == (2, 2)
    assert dims.defect == 0


def test_dimensions_affine_function_on_plane():
    dims = legendre_dimensions(PLConvexFunction([(2 - 1j, 0.0)], PLANE))
    assert (dims.domain_hull, dims.conjugate_hull) == (2, 0)
    assert dims.defect == 2


def test_dimensions_indicator_of_origin():
    dims = legendre_dimensions(PLConvexFunction([], ConvexBody([0j])))
    assert (dims.domain_hull, dims.conjugate_hull) == (0, 2)
    assert dims.defect == 0


def test_dimensions_slab_like_conjugate_domain():
    # f(z) = |x| on the plane: the conjugate lives on a segment.
    f = PLConvexFunction([(1 + 0j, 0.0), (-1 + 0j, 0.0)], PLANE)
    dims = legendre_dimensions(f)
    assert (dims.domain_hull, dims.conjugate_hull) == (2, 1)
    assert dims.defect == 1


def test_dimensions_fall_back_to_domain_arithmetic_when_rounded():
    f = PLConvexFunction([(1 + 0j, 0.0), (-1 + 0j, 0.0)],
                         ConvexBody([0j], rounding=1.0))
    dims = legendre_dimensions(f)
    assert (dims.domain_hull, dims.conjugate_hull) == (2, 2)


def test_dimensions_single_piece_on_thick_sector():
    region = sector(1 + 2j, 0.0, math.pi / 6)
    xi0 = bisector(polar_cone(asymptotic_cone(region)))
    f = PLConvexFunction([(0.125 * xi0, 0.0)], thicken(region, 0.25))
    dims = legendre_dimensions(f)
    assert (dims.domain_hull, dims.conjugate_hull) == (2, 2)
    assert dims.defect == 0


def test_dimensions_on_a_halfplane_rounded_past_a_right_angle():
    # Its cone's half-width reads pi/2 + 2.2e-16: the conjugate domain
    # is a shifted ray, not a ConeError.
    region = ConvexRegion([(0.9536244523743874, 0.3009990096888189, 0.0)])
    for pieces in ([], [(0.5 - 1j, 0.25)]):
        f = PLConvexFunction(pieces, region)
        dims = legendre_dimensions(f)
        assert (dims.domain_hull, dims.conjugate_hull) == (2, 1)
        form = symbolic_conjugate(f)
        assert form.domain_cone.kind == "sector"
        assert form.domain_cone.half_width == 0.0


def _random_domain(rng, kind):
    """An un-rounded domain: a polygon, a point, a sector, a half-plane,
    a slab or line, a slab or line cut across one end, or the plane."""
    a = rng.uniform(-math.pi, math.pi)
    n = (math.cos(a), math.sin(a))
    c = rng.uniform(-1, 1)
    width = rng.choice([0.0, rng.uniform(0.1, 1.0)])
    if kind == 0:
        k = int(rng.integers(3, 7))
        z0 = complex(*rng.uniform(-1, 1, 2))
        return ConvexBody([z0 + cmath.exp(1j * (a + 2 * math.pi * t / k))
                           for t in np.arange(k) + rng.uniform(-0.3, 0.3, k)])
    if kind == 1:
        return ConvexBody([complex(*rng.uniform(-1, 1, 2))])
    if kind == 2:
        return sector(complex(*rng.uniform(-1, 1, 2)), a,
                      rng.uniform(0.05, 1.5))
    if kind == 3:
        return ConvexRegion([(*n, c)])
    slab = [(*n, c + width), (-n[0], -n[1], width - c)]
    if kind == 4:
        return ConvexRegion(slab)
    if kind == 5:
        b = a + 0.5 * math.pi + rng.uniform(-1.2, 1.2)
        return ConvexRegion(slab + [(math.cos(b), math.sin(b),
                                     rng.uniform(-1, 1))])
    return PLANE


def test_dimensions_match_the_conjugate_domain():
    # The reference is the dimension of the whole conjugate's domain.
    # Some gradient sets are collinear, along a random direction or
    # along or across the domain's first boundary line.
    rng = np.random.default_rng(14)
    for i in range(700):
        domain = _random_domain(rng, i % 7)
        k = int(rng.integers(2, 6))
        mode = i // 7 % 3
        if mode == 0:
            pieces = [(complex(*rng.normal(0.0, 1.5, 2)), float(rng.normal()))
                      for _ in range(k)]
        else:
            d = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            if mode == 2 and getattr(domain, "halfplanes", ()):
                nx, ny, _ = domain.halfplanes[0]
                d = complex(ny, nx) * rng.choice([1.0, 1j])
            b0 = complex(*rng.normal(0.0, 1.5, 2))
            pieces = [(b0 + float(t) * d, float(rng.normal()))
                      for t in rng.normal(0.0, 1.0, k)]
        f = PLConvexFunction(pieces, domain)
        assert (legendre_dimensions(f).conjugate_hull
                == affine_dimension(conjugate(f).domain)), f


# ---- validation ----

def test_function_validation():
    with pytest.raises(ValueError):
        PLConvexFunction([(complex("inf"), 0.0)], SQUARE)
    with pytest.raises(ValueError):
        PLConvexFunction([(1 + 0j, math.nan)], SQUARE)
    with pytest.raises(TypeError):
        PLConvexFunction([], Cone("plane"))


def _near_duplicate_edge_functions(rng, count):
    """Two pieces on a 3-6-gon's edge half-planes plus 1-3 copies of an
    edge line turned by N(0, 1e-8) rad and moved by N(0, 1e-9)."""
    for _ in range(count):
        k = int(rng.integers(3, 7))
        angles = (rng.uniform(0.0, 2 * math.pi) + 2 * math.pi
                  * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k)
        hp = list(ConvexBody([cmath.exp(1j * a) for a in angles]).core.edges)
        for _ in range(int(rng.integers(1, 4))):
            nx, ny, d = hp[int(rng.integers(len(hp)))]
            t = math.atan2(ny, nx) + rng.normal(0.0, 1e-8)
            hp.append((math.cos(t), math.sin(t), d + rng.normal(0.0, 1e-9)))
        pieces = [(complex(*rng.normal(0.0, 1.5, 2)), 0.0) for _ in range(2)]
        yield PLConvexFunction(pieces, ConvexRegion(hp))


def test_conjugate_names_cells_that_all_read_as_empty():
    # The half-plane sweep can read every cell of such a domain as empty
    # (ROADMAP item 4).  conjugate then raises a named ValueError, not
    # the zero function nor a bare unpacking error from conjugate_at.
    raised = 0
    for f in _near_duplicate_edge_functions(np.random.default_rng(7), 150):
        try:
            g = conjugate(f)
        except ValueError as err:
            assert str(err) == "conjugate: every cell of f's pieces reads " \
                "as empty"
            assert _lp.interior_slack(f.domain.halfplanes) > 0.1
            with pytest.raises(ValueError, match="every cell"):
                conjugate_at(f, 0.5 + 0.25j)
            raised += 1
        else:
            assert g.pieces
    # Today's sweep misreads about one domain in ten; exact predicates
    # (ROADMAP item 4) should take this to none.
    assert raised >= 5


def test_value_respects_domain():
    assert ABS_X.value(0.5 + 0.5j) == 0.5
    assert ABS_X.value(3 + 0j) == math.inf
    ind = PLConvexFunction([], SQUARE)
    assert ind.value(0j) == 0.0
    assert ind.value(2 + 2j) == math.inf


# ---- conjugate_at on arrays, and the Fenchel-Young check ----

@functools.cache
def _frozen_table(f):
    """The closed form for at most one distinct piece, else f's distinct
    pieces, conjugate(f)'s pieces as (x, y, c) and its domain half-planes:
    built apart from the table that conjugate_at reads."""
    pieces = legendre._collapsed_pieces(f)
    if len(pieces) <= 1:
        return symbolic_conjugate(f)
    g = conjugate(f)
    return (pieces, [(p.real, p.imag, c) for p, c in g.pieces],
            g.domain.halfplanes)


def _frozen_conjugate_at(f, w):
    """conjugate_at's scalar formula, frozen as the bitwise reference."""
    w = complex(w)
    table = _frozen_table(f)
    if isinstance(table, ConjugateForm):
        return table(w)
    pieces, dual, domain = table
    u, v = w.real, w.imag
    grow = 1e-11 * max(abs(w - b) for b, _ in pieces)
    if any(nx * u + ny * v - k > grow for nx, ny, k in domain):
        return math.inf
    return max(x * u - y * v + c for x, y, c in dual)


# Multi-piece functions on bodies and on unbounded regions (whose
# conjugates are +inf off their domain), single pieces (the symbolic
# form) on bodies, rounded bodies and sectors, and indicators.
PL_KINDS = ("body", "sector", "body", "halfplane", "plane", "gon-region",
            "single", "rounded-single", "single-sector", "indicator")


def _pl_corpus(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = PL_KINDS[i % len(PL_KINDS)]
        k = int(rng.integers(3, 7))
        angles = (rng.uniform(0.0, 2 * math.pi) + 2 * math.pi
                  * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k)
        centre = complex(*rng.uniform(-1, 1, 2))
        radius = rng.uniform(0.5, 2.0)
        body = ConvexBody([centre + radius * cmath.exp(1j * a)
                           for a in angles])
        alpha = rng.uniform(-math.pi, math.pi)
        domain = {
            "sector": sector(centre, alpha, rng.uniform(0.2, 1.4)),
            "single-sector": sector(centre, alpha, rng.uniform(0.2, 1.4)),
            "halfplane": ConvexRegion([(math.cos(alpha), math.sin(alpha),
                                        rng.uniform(-1, 1))]),
            "plane": PLANE,
            "gon-region": ConvexRegion(legendre._domain_halfplanes(body)),
            "rounded-single": thicken(body, rng.uniform(0.1, 1.0)),
        }.get(kind, body)
        count = {"indicator": 0}.get(kind, 1 if "single" in kind
                                     else int(rng.integers(2, 6)))
        pieces = [(complex(*rng.normal(0.0, 1.5, 2)), float(rng.normal()))
                  for _ in range(count)]
        yield rng, PLConvexFunction(pieces, domain)


def test_conjugate_at_takes_an_array_of_w():
    infinite = 0
    for rng, f in _pl_corpus(71, 60):
        ws = rng.uniform(-4, 4, (4, 6, 2)).view(complex)[..., 0]
        ws[0, :len(f.pieces)] = [b for b, _ in f.pieces]
        got = conjugate_at(f, ws)
        assert got.shape == ws.shape and got.dtype == np.float64
        for w, value in zip(ws.flat, got.flat):
            scalar = conjugate_at(f, complex(w))
            assert type(scalar) is float
            assert repr(value.item()) == repr(scalar) \
                == repr(_frozen_conjugate_at(f, w))
        infinite += int(np.isinf(got).sum())
        assert type(conjugate_at(f, ws[0, 0])) is float
        assert conjugate_at(f, ws[:0]).shape == (0, 6)
    assert infinite > 100


def _points_inside(domain, rng, count):
    """cli._interior_samples for any domain: points of [-2, 2]^2 more
    than 1e-6 inside it."""
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if signed_distance(domain, z) < -1e-6:
            out.append(z)
    return out


def _scalar_fenchel_young(f, rng, count, sampler):
    """The check's worst violation and pair count, one pair at a time:
    the reference that its array pass has to reproduce bit for bit."""
    worst = 0.0
    pairs = 0
    for z in sampler(f.domain, rng, count):
        fz = f.value(z)
        for _ in range(20):
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            violation = (z * w).real - fz - conjugate_at(f, w)
            worst = max(worst, violation)
            pairs += 1
    return worst, pairs


class _Draws:
    """A generator that hands out fixed doubles in order, one per scalar
    draw, or as many as an array draw's shape takes."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self, low, high, size=None):
        if size is None:
            return next(self.values)
        return np.array([next(self.values)
                         for _ in range(int(np.prod(size)))]).reshape(size)


def _near_gradients(f, rng, pairs):
    """The doubles of w drawn at random, on f's gradients (where
    Re(z*w) - f(z) reaches f*(w) up to rounding) and 1e-12 off them."""
    grads = [b for b, _ in f.pieces] or [0j]
    out = []
    for _ in range(pairs):
        kind = int(rng.integers(3))
        w = (complex(*rng.uniform(-3, 3, 2)) if kind == 0
             else grads[int(rng.integers(len(grads)))]
             + (kind == 2) * 1e-12 * complex(*rng.normal(size=2)))
        out += [w.real, w.imag]
    return out


def test_fenchel_young_check_is_the_scalar_loop_bitwise(monkeypatch):
    from convlap import cli

    def check(f, count, rng, tol):
        sc = SimpleNamespace(pl_function=f, samples_count=count)
        return cli._check_fenchel_young(sc, None, rng, tol)

    positive = infinite = 0
    interior_samples = cli._interior_samples
    for i, (rng, f) in enumerate(_pl_corpus(73, 220)):
        sampler = (interior_samples if isinstance(f.domain, ConvexBody)
                   else _points_inside)
        count = 1 + i % 12
        # The seeded generator, as `convlap run` passes it; then fixed
        # points and w on and next to f's gradients, where the sign of
        # each violation is rounding's.
        zs = sampler(f.domain, rng, count)
        draws = _near_gradients(f, rng, 20 * count)
        for make_rng, sample in (
                (lambda: np.random.default_rng(i), sampler),
                (lambda: _Draws(draws), lambda domain, rng, count: zs)):
            monkeypatch.setattr(cli, "_interior_samples", sample)
            ref_rng = make_rng()
            worst, pairs = _scalar_fenchel_young(f, ref_rng, count, sample)
            # Passing at tolerance `worst` and failing just below it pins
            # the check's worst violation to `worst` exactly.
            for tol, passed in ((worst, True),
                                (math.nextafter(worst, -math.inf), False)):
                rng_used = make_rng()
                result = check(f, count, rng_used, tol)
                assert result.passed is passed
                assert result.detail == (
                    f"max inequality violation {worst:.3e} on {pairs} pairs "
                    f"(tolerance {tol:.1e})")
                if isinstance(ref_rng, np.random.Generator):
                    # A later check draws what it drew after the loop.
                    assert (rng_used.bit_generator.state
                            == ref_rng.bit_generator.state)
            positive += worst > 0.0
        ws = np.array(draws).view(complex)
        infinite += bool(np.isinf([conjugate_at(f, w) for w in ws]).any())
    assert positive >= 100 and infinite >= 50
    # An array draw reads the doubles of the scalar draws, in order.
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    assert (a.uniform(-3, 3, (7, 20, 2)).ravel().tolist()
            == [b.uniform(-3, 3) for _ in range(280)])
