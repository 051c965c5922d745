"""Convex geometry: frozen values, independent oracles, invariants.

The oracles here are deliberately dumb: dense grids, boundary sampling,
direction sampling.  They are slow and low-accuracy but share no code
with the implementation, which is the point.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convlap.convexgeom import (
    Cone,
    ConeError,
    ConvexBody,
    ConvexRegion,
    affine_dimension,
    asymptotic_cone,
    bisector,
    boundary_walk,
    pairing_re,
    polar_cone,
    signed_distance,
    support_function,
    thicken,
)

UNIT_DISK = ConvexBody([0j], rounding=1.0)
SQUARE = ConvexBody([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])


def grid_support_oracle(points, w):
    """Brute-force sup of Re(z*w) over a point cloud."""
    z = np.asarray(points)
    return float(np.max((z * w).real))


def square_grid(half, n):
    xs = np.linspace(-half, half, n)
    X, Y = np.meshgrid(xs, xs)
    return (X + 1j * Y).ravel()


# ---- support functions ----

def test_disk_support_is_norm():
    for w in (1 + 0j, 2j, -3 + 4j, 0.001 - 0.002j, 0j):
        assert support_function(UNIT_DISK, w) == pytest.approx(abs(w), abs=0)


def test_square_support_against_grid_oracle():
    pts = square_grid(1.0, 401)
    inside = pts[np.maximum(np.abs(pts.real), np.abs(pts.imag)) <= 1.0]
    for w in (1 + 0j, 1 + 1j, -2 + 0.5j, 0.3 - 0.7j):
        oracle = grid_support_oracle(inside, w)
        val = support_function(SQUARE, w)
        # Grid spacing 1/200 bounds the oracle gap.
        assert val >= oracle - 1e-12
        assert val <= oracle + abs(w) * (2.0 / 200.0)
    assert support_function(SQUARE, 1 + 0j) == pytest.approx(1.0, abs=1e-14)


def test_pairing_sign_convention():
    # Re<z, w> = x*u - y*v, not the Hermitian product.
    assert pairing_re(2 + 3j, 5 + 7j) == pytest.approx(2 * 5 - 3 * 7)


def test_region_support_matches_vertex_max():
    # Triangle as a region; support must agree with the body version.
    tri = ConvexBody([0j, 2 + 0j, 1 + 2j])
    walk = boundary_walk(tri)
    hp = []
    for ang, i in zip(walk.normals, range(3)):
        n = complex(math.cos(ang), math.sin(ang))
        v = tri.vertices[i]
        hp.append((n.real, n.imag, n.real * v.real + n.imag * v.imag))
    reg = ConvexRegion(hp)
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = complex(*rng.uniform(-3, 3, 2))
        assert support_function(reg, w) == pytest.approx(
            support_function(tri, w), abs=1e-9)


def test_halfplane_region_support_infinite_off_its_ray():
    # {x <= 2}: finite exactly on the dual ray w = t (t >= 0).
    reg = ConvexRegion([(1.0, 0.0, 2.0)])
    assert support_function(reg, 1 + 0j) == pytest.approx(2.0)
    assert support_function(reg, 2 + 0j) == pytest.approx(4.0)
    assert support_function(reg, 1 + 0.5j) == math.inf
    assert support_function(reg, -1 + 0j) == math.inf


def test_sector_region_support_domain_is_polar_cone():
    # Sector about the positive reals, half-angle pi/4, apex at 1.
    c = math.cos(3 * math.pi / 4)
    s = math.sin(3 * math.pi / 4)
    reg = ConvexRegion([(c, s, c), (c, -s, c)])
    # Finite on the interior of the polar cone (sector about pi).
    assert math.isfinite(support_function(reg, -1 + 0j))
    assert math.isfinite(support_function(reg, -1 + 0.3j))
    assert support_function(reg, 1 + 0j) == math.inf
    assert support_function(reg, 1j) == math.inf


# ---- thickening ----

def test_thicken_is_field_addition():
    k = thicken(thicken(SQUARE, 0.25), 0.25)
    assert k.rounding == 0.5
    assert thicken(SQUARE, 0.5).rounding == k.rounding
    with pytest.raises(ValueError):
        thicken(SQUARE, 0.0)
    with pytest.raises(ValueError):
        thicken(SQUARE, -0.1)


def test_thickening_support_identity():
    # h_{K_eps}(w) = h_K(w) + eps*|w| wherever finite.
    rng = np.random.default_rng(11)
    for s in (SQUARE, UNIT_DISK,
              ConvexRegion([(1.0, 0.0, 1.0), (0.0, 1.0, 0.5)])):
        for _ in range(200):
            w = complex(*rng.uniform(-5, 5, 2))
            eps = float(rng.uniform(0.01, 2.0))
            h = support_function(s, w)
            ht = support_function(thicken(s, eps), w)
            if math.isinf(h):
                assert math.isinf(ht)
                continue
            expect = h + eps * abs(w)
            assert abs(ht - expect) <= 1e-12 * (1.0 + abs(expect))


# ---- signed distance ----

def boundary_distance_oracle(samples, z):
    return float(np.min(np.abs(np.asarray(samples) - z)))


def test_square_signed_distance_derived():
    # Boundary sampling oracle for dist(2+2i, square) = sqrt(2).
    t = np.linspace(0.0, 1.0, 20001)
    edges = []
    vs = SQUARE.vertices
    for i in range(4):
        a, b = vs[i], vs[(i + 1) % 4]
        edges.append(a + t * (b - a))
    oracle = boundary_distance_oracle(np.concatenate(edges), 2 + 2j)
    got = signed_distance(SQUARE, 2 + 2j)
    assert got == pytest.approx(oracle, abs=1e-6)
    assert got == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_disk_signed_distance_center():
    assert signed_distance(UNIT_DISK, 0j) == pytest.approx(-1.0)
    assert signed_distance(UNIT_DISK, 3 + 0j) == pytest.approx(2.0)
    assert signed_distance(UNIT_DISK, 1 + 0j) == pytest.approx(0.0, abs=1e-15)


def test_signed_distance_thickening_shift():
    rng = np.random.default_rng(13)
    reg = ConvexRegion([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], rounding=0.25)
    for s in (SQUARE, UNIT_DISK, reg):
        for _ in range(100):
            z = complex(*rng.uniform(-4, 4, 2))
            eps = float(rng.uniform(0.01, 1.5))
            lhs = signed_distance(thicken(s, eps), z)
            rhs = signed_distance(s, z) - eps
            assert abs(lhs - rhs) <= 1e-12


def test_region_signed_distance_interior_and_projection():
    # Quadrant {x <= 0, y <= 0}: distances known in closed form.
    reg = ConvexRegion([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    assert signed_distance(reg, -1 - 3j) == pytest.approx(-1.0)
    assert signed_distance(reg, 2 - 1j) == pytest.approx(2.0)
    assert signed_distance(reg, 3 + 4j) == pytest.approx(5.0)
    assert signed_distance(reg, -0.5 - 0.5j) <= 1e-9
    assert signed_distance(reg, 0.1 - 0.5j) > 1e-9


# ---- cones ----

def sector_region(apex: complex, axis: float, half: float) -> ConvexRegion:
    """Sector with given apex as a region of two half-planes."""
    hp = []
    for sgn in (1.0, -1.0):
        ang = axis + sgn * (half + 0.5 * math.pi)
        n = complex(math.cos(ang), math.sin(ang))
        hp.append((n.real, n.imag, n.real * apex.real + n.imag * apex.imag))
    return ConvexRegion(hp)


def test_asymptotic_cone_of_translated_sector_derived():
    axis, half = 0.3, math.pi / 5
    reg = sector_region(2 - 1j, axis, half)
    cone = asymptotic_cone(reg)
    assert cone.kind == "sector"
    assert cone.axis == pytest.approx(axis)
    assert cone.half_width == pytest.approx(half)
    # Membership oracle: v is asymptotic iff z + t*v stays in S for the
    # sampled anchors and scales.
    rng = np.random.default_rng(17)
    anchors = []
    while len(anchors) < 20:
        z = complex(*rng.uniform(-6, 6, 2))
        if signed_distance(reg, z) <= 1e-9:
            anchors.append(z)
    for theta in np.linspace(-math.pi, math.pi, 181):
        v = complex(math.cos(theta), math.sin(theta))
        stays = all(signed_distance(reg, z + t * v) <= 1e-7
                    for z in anchors for t in (0.5, 3.0, 40.0))
        assert stays == cone.contains(v) or (
            # Grid directions touching the boundary exactly are allowed
            # to disagree within angular resolution.
            min(abs(theta - (axis - half)), abs(theta - (axis + half)))
            < 2e-2)


def test_asymptotic_cone_ignores_thickening():
    reg = sector_region(1 + 1j, -0.7, 0.4)
    assert asymptotic_cone(thicken(reg, 0.3)) == asymptotic_cone(reg)


def test_asymptotic_cone_of_body_is_zero():
    assert asymptotic_cone(SQUARE).kind == "zero"


def test_asymptotic_cone_of_halfstrip_is_ray():
    # {x >= 0, -1 <= y <= 1}: recession is the positive real ray.
    reg = ConvexRegion([(-1.0, 0.0, 0.0), (0.0, 1.0, 1.0), (0.0, -1.0, 1.0)])
    cone = asymptotic_cone(reg)
    assert cone.kind == "sector"
    assert cone.half_width == pytest.approx(0.0, abs=1e-12)
    assert cone.axis == pytest.approx(0.0, abs=1e-12)


# One region per shape of its core Polygon, with the asymptotic cone the
# angular-description path gave for it, field for field.
_CONE_SHAPES = {
    "bounded": ([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)],
                ("zero", 0.0, 0.0)),
    "ray": ([(1, 1, 0), (-1, -1, 0), (1, -1, 0)],
            ("sector", 2.356194490192345, 0.0)),
    "sector": ([(math.cos(2.0), math.sin(2.0), 0.2),
                (math.cos(-1.9), math.sin(-1.9), 0.1)],
               ("sector", 0.050000000000000044, 0.37920367320510334)),
    # Edge normals 1e-13 short of antiparallel: the exit-to-entry turn
    # reads 2 pi minus rounding, which is one ray.
    "rounded-ray": ([(math.cos(0.3), math.sin(0.3), 0.0),
                     (math.cos(0.3 + math.pi + 1e-13),
                      math.sin(0.3 + math.pi + 1e-13), 0.0),
                     (math.cos(2.3), math.sin(2.3), 0.5)],
                    ("sector", -1.270796326794797, 0.0)),
    "half-plane": ([(0.6, 0.8, 1.0)],
                   ("sector", -2.214297435588181, 1.5707963267948966)),
    "slab": ([(0.6, 0.8, 1.0), (-0.6, -0.8, 0.5)],
             ("line", -0.6435011087932844, 0.0)),
    "line": ([(0.6, 0.8, 0.25), (-0.6, -0.8, -0.25)],
             ("line", -0.6435011087932844, 0.0)),
    "plane": ([], ("plane", 0.0, 0.0)),
}


@pytest.mark.parametrize("shape", sorted(_CONE_SHAPES))
def test_asymptotic_cone_pinned_on_every_polygon_shape(shape):
    halfplanes, (kind, axis, half_width) = _CONE_SHAPES[shape]
    cone = asymptotic_cone(ConvexRegion(halfplanes))
    assert cone.kind == kind
    assert cone.axis == axis
    assert cone.half_width == half_width


def test_halfplane_rounded_past_a_right_angle_has_a_ray_polar():
    # The core's half-width reads pi/2 + 2.2e-16; the polar is the ray
    # along the conjugate of the normal, not a ConeError.
    nx, ny = 0.9536244523743874, 0.3009990096888189
    cone = asymptotic_cone(ConvexRegion([(nx, ny, 0.0)]))
    assert cone.half_width == 0.5 * math.pi
    pol = polar_cone(cone)
    assert pol.kind == "sector" and pol.half_width == 0.0
    assert pol.axis == pytest.approx(math.atan2(-ny, nx), abs=1e-15)
    assert affine_dimension(pol) == 1


def test_polar_of_positive_ray_is_left_halfplane():
    ray = Cone("sector", 0.0, 0.0)
    pol = polar_cone(ray)
    assert pol.kind == "sector"
    assert pol.half_width == pytest.approx(math.pi / 2)
    assert pol.axis == pytest.approx(math.pi)
    # In coordinates w = u + iv this is {u <= 0}.
    assert pol.contains(-1 + 5j)
    assert pol.contains(-1 - 5j)
    assert not pol.contains(0.1 + 1j)


def test_polar_of_quarter_sector_against_angle_grid():
    c = Cone("sector", 0.0, math.pi / 4)
    pol = polar_cone(c)
    assert pol.axis == pytest.approx(math.pi)
    assert pol.half_width == pytest.approx(math.pi / 4)
    # Angle-grid oracle: w-direction is polar iff Re(z*w) <= 0 for every
    # sampled cone direction.
    zdirs = [complex(math.cos(t), math.sin(t))
             for t in np.linspace(-math.pi / 4, math.pi / 4, 721)]
    for phi in np.linspace(-math.pi, math.pi, 719):
        w = complex(math.cos(phi), math.sin(phi))
        is_polar = all(pairing_re(z, w) <= 1e-12 for z in zdirs)
        if min(abs(phi - 3 * math.pi / 4), abs(phi + 3 * math.pi / 4)) > 2e-2:
            assert is_polar == pol.contains(w)


def test_polar_cone_involution():
    cones = [
        Cone("zero"), Cone("plane"), Cone("line", 0.4),
        Cone("sector", 0.0, 0.0), Cone("sector", 1.1, 0.3),
        Cone("sector", -2.0, math.pi / 2), Cone("sector", math.pi, 0.7),
    ]
    for c in cones:
        back = polar_cone(polar_cone(c))
        assert back.kind == c.kind
        if c.kind in ("sector", "line"):
            assert math.cos(back.axis - c.axis) == pytest.approx(1.0)
        if c.kind == "sector":
            assert back.half_width == pytest.approx(c.half_width)


def test_bisector_values_and_errors():
    half = polar_cone(Cone("sector", 0.0, 0.0))   # {u <= 0}
    assert bisector(half) == pytest.approx(-1 + 0j)
    quarter = Cone("sector", math.pi, math.pi / 4)
    assert bisector(quarter) == pytest.approx(-1 + 0j)
    for bad in (Cone("zero"), Cone("plane"), Cone("line", 0.2),
                Cone("sector", 0.5, 0.0)):
        with pytest.raises(ConeError):
            bisector(bad)


def test_bisector_lies_in_interior():
    rng = np.random.default_rng(23)
    for _ in range(50):
        axis = float(rng.uniform(-math.pi, math.pi))
        half = float(rng.uniform(0.05, math.pi / 2))
        c = Cone("sector", axis, half)
        xi = bisector(c)
        assert c.strictly_contains(xi, margin=1e-9)


# ---- degenerate and redundant regions ----

def test_degenerate_regions_keep_their_shape():
    # A point, a segment and a ray cut out with extra half-planes through
    # their end points, then a line, a slab and a half-plane.
    point = ConvexRegion([(1, 0, 1), (-1, 0, -1), (0, 1, 2), (0, -1, -2),
                          (1, 1, 3)])
    segment = ConvexRegion([(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, 1),
                            (1, 1, 1)])
    ray = ConvexRegion([(1, 0, 0), (-1, 0, 0), (0, -1, 0), (-1, -1, 0)])
    line = ConvexRegion([(1, 1, 1), (-1, -1, -1)])
    slab = ConvexRegion([(0, 1, 1), (0, -1, 1)])
    half = ConvexRegion([(0, 1, 1)])
    for reg, dim, kind in ((point, 0, "zero"), (segment, 1, "zero"),
                           (ray, 1, "sector"), (line, 1, "line"),
                           (slab, 2, "line"), (half, 2, "sector")):
        assert affine_dimension(reg) == dim
        assert asymptotic_cone(reg).kind == kind
    # Re(z*w) = x*u - y*v.
    assert support_function(point, 1 + 1j) == pytest.approx(-1.0)
    assert support_function(segment, 1j) == pytest.approx(1.0)
    assert support_function(ray, 1j) == pytest.approx(0.0)
    assert support_function(ray, -1j) == math.inf
    assert support_function(line, 1 - 1j) == pytest.approx(1.0)
    assert support_function(line, 1 + 1j) == math.inf
    assert asymptotic_cone(ray).axis == pytest.approx(math.pi / 2)
    assert asymptotic_cone(ray).half_width == pytest.approx(0.0, abs=1e-12)
    assert asymptotic_cone(half).half_width == pytest.approx(math.pi / 2)


def test_boundary_walk_skips_redundant_halfplanes():
    # The square's sides plus a diagonal touching one corner and a looser
    # copy of one side.
    square = ConvexRegion([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1),
                           (1, 1, 2), (1, 0, 3)])
    walk = boundary_walk(square)
    assert walk.closed
    assert len(walk.normals) == 4
    assert sorted((c.real, c.imag) for c in walk.corners) == pytest.approx(
        [(-1, -1), (-1, 1), (1, -1), (1, 1)])
    # A sector about the positive reals with a cut through its apex that
    # touches nothing else.
    c, s = math.cos(0.5 + math.pi / 2), math.sin(0.5 + math.pi / 2)
    sector = ConvexRegion([(c, s, 0.0), (c, -s, 0.0), (-1.0, 0.0, 0.0)])
    walk = boundary_walk(sector)
    assert not walk.closed
    assert len(walk.normals) == 2
    assert walk.corners == pytest.approx([0j])


# ---- one core polygon behind bodies and regions ----

def _same_walk(wa, wb, tol=1e-12):
    """Equal closed walks up to where the cycle starts."""
    assert wa.closed and wb.closed
    n = len(wa.corners)
    assert len(wb.corners) == n and len(wa.normals) == len(wb.normals)
    k = min(range(n), key=lambda i: abs(wb.corners[i] - wa.corners[0]))
    for i in range(n):
        j = (i + k) % n
        assert abs(wa.corners[i] - wb.corners[j]) <= tol
        if wa.normals:
            assert abs(math.remainder(wa.normals[i] - wb.normals[j],
                                      2 * math.pi)) <= tol


@pytest.mark.parametrize("rounding", [0.0, 0.25, 1.0])
def test_bodies_and_the_regions_of_their_edges_agree(rounding):
    # A region's vertices are intersections of its edge lines, so they
    # match the body's only to rounding; the body's support function is
    # the vertex maximum bit for bit.
    rng = np.random.default_rng(47)
    for _ in range(40):
        k = int(rng.integers(3, 7))
        angles = (rng.uniform(0.0, 2 * math.pi)
                  + 2 * math.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k))
                  / k)
        centre = complex(*rng.uniform(-3, 3, 2))
        radius = rng.uniform(0.5, 2.0)
        body = ConvexBody([centre + radius * complex(math.cos(a), math.sin(a))
                           for a in angles], rounding)
        region = ConvexRegion(body.core.edges, rounding)
        for w in (complex(*rng.uniform(-5, 5, 2)) for _ in range(20)):
            h = support_function(body, w)
            assert h == (max((v * w).real for v in body.vertices)
                         + rounding * abs(w))
            assert abs(h - support_function(region, w)) <= 1e-12
        for z in (complex(*rng.uniform(-6, 6, 2)) for _ in range(40)):
            assert abs(signed_distance(body, z)
                       - signed_distance(region, z)) <= 1e-12
        _same_walk(boundary_walk(body), boundary_walk(region))
        for s in (body, region):
            assert asymptotic_cone(s) == Cone("zero")
            assert affine_dimension(s) == 2


def test_one_vertex_bodies_and_their_regions_agree():
    rng = np.random.default_rng(53)
    for rounding in (0.0, 1.0):
        body = ConvexBody([0.7 - 1.2j], rounding)
        region = ConvexRegion(body.core.edges, rounding)
        for z in [0.7 - 1.2j] + [complex(*rng.uniform(-4, 4, 2))
                                 for _ in range(40)]:
            d = signed_distance(body, z)
            assert d == pytest.approx(abs(z - (0.7 - 1.2j)) - rounding,
                                      abs=1e-12)
            assert abs(d - signed_distance(region, z)) <= 1e-12
        if rounding:
            # A disk walks no facet around its one corner.
            _same_walk(boundary_walk(body), boundary_walk(region))
            assert boundary_walk(body).normals == ()
        else:
            for s in (body, region):
                with pytest.raises(ValueError, match="interior"):
                    boundary_walk(s)


# ---- validation ----

def test_body_validation():
    with pytest.raises(ValueError):
        ConvexBody([])
    with pytest.raises(ValueError):
        ConvexBody([0j, 1 + 0j])          # segment unsupported
    with pytest.raises(ValueError):
        ConvexBody([0j, 1 + 0j, 2 + 0j])  # collinear
    with pytest.raises(ValueError):
        ConvexBody([0j, 1j, 1 + 0j])      # clockwise
    with pytest.raises(ValueError):
        ConvexBody([0j], rounding=-1.0)


def test_region_validation():
    with pytest.raises(ValueError):
        ConvexRegion([(0.0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        # x <= 0 and x >= 1 is empty.
        ConvexRegion([(1.0, 0.0, 0.0), (-1.0, 0.0, -1.0)])
    # Normals are normalized on input.
    reg = ConvexRegion([(2.0, 0.0, 4.0)])
    assert reg.halfplanes[0] == pytest.approx((1.0, 0.0, 2.0))


def test_region_takes_64_tangent_halfplanes():
    # The tangent lines of the unit disk at 64 equally spaced normals cut
    # a regular 64-gon whose vertices lie at radius 1/cos(pi/64).
    n = 64
    normals = [complex(math.cos(2 * math.pi * k / n),
                       math.sin(2 * math.pi * k / n)) for k in range(n)]
    reg = ConvexRegion([(e.real, e.imag, 1.0) for e in normals])
    assert len(boundary_walk(reg).corners) == n
    for e in normals:
        # Re(z*w) pairs z with the conjugate of w; scale |w| = 2.5.
        w = 2.5 * e.conjugate()
        assert support_function(reg, w) == pytest.approx(2.5, rel=1e-14)
        corner = w * complex(math.cos(math.pi / n), math.sin(math.pi / n))
        assert support_function(reg, corner) == pytest.approx(
            2.5 / math.cos(math.pi / n), rel=1e-14)


# ---- property tests ----

finite_w = st.tuples(
    st.floats(-50.0, 50.0, allow_nan=False),
    st.floats(-50.0, 50.0, allow_nan=False),
).map(lambda p: complex(*p))


@settings(max_examples=200, deadline=None)
@given(w=finite_w, t=st.floats(1e-6, 1e3, allow_nan=False))
def test_support_positive_homogeneity(w, t):
    for s in (SQUARE, UNIT_DISK):
        a = support_function(s, t * w)
        b = t * support_function(s, w)
        assert abs(a - b) <= 4.0 * math.ulp(max(abs(a), abs(b), 1e-300))


@settings(max_examples=200, deadline=None)
@given(w1=finite_w, w2=finite_w)
def test_support_subadditive(w1, w2):
    for s in (SQUARE, UNIT_DISK, thicken(SQUARE, 0.5)):
        h1 = support_function(s, w1)
        h2 = support_function(s, w2)
        h12 = support_function(s, w1 + w2)
        assert h12 <= h1 + h2 + 1e-9 * (1.0 + abs(h1) + abs(h2))
