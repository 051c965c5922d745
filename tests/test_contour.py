"""Contours: construction geometry, quadrature, orientation invariants.

Expected values are residue-theorem and perimeter computations done by
hand; the quadrature never sees them.
"""

import cmath
import math

import numpy as np
import pytest

from convlap import contour
from convlap.contour import (
    Arc,
    OrientedContour,
    QuadratureError,
    Segment,
    circle_contour,
    circle_hit,
    integrate,
    open_boundary_rays,
    region_boundary_contour,
)
from convlap.convexgeom import (
    ConvexBody,
    ConvexRegion,
    boundary_walk,
    sector,
    thicken,
)
from convlap.transforms import MeromorphicDatum, residue_oracle

SQUARE = ConvexBody([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
TWO_PI_I = 2j * math.pi


# ---- construction ----

def test_circle_contour_basics():
    c = circle_contour(0j, 1.0)
    assert c.closed
    assert c.length == pytest.approx(2 * math.pi, abs=1e-12)
    with pytest.raises(ValueError):
        circle_contour(0j, 0.0)
    with pytest.raises(ValueError):
        circle_contour(0j, -2.0)


def test_disk_body_boundary_is_its_circle():
    disk = ConvexBody([2 + 1j], rounding=1.5)
    c = region_boundary_contour(disk)
    assert c.closed
    assert c.length == pytest.approx(2 * math.pi * 1.5, abs=1e-12)
    assert abs(c.pieces[0].center - (2 + 1j)) == 0.0


def test_thickened_square_boundary_pieces_and_length():
    # Perimeter grows by 2*pi*rho: 8 + pi for rho = 1/2.
    c = region_boundary_contour(thicken(SQUARE, 0.5))
    arcs = [p for p in c.pieces if isinstance(p, Arc)]
    segs = [p for p in c.pieces if isinstance(p, Segment)]
    assert len(arcs) == 4 and len(segs) == 4
    assert all(abs(abs(a.angle1 - a.angle0) - math.pi / 2) < 1e-12
               for a in arcs)
    assert c.closed
    assert c.length == pytest.approx(8 + math.pi, abs=1e-12)


def test_sharp_square_boundary_is_four_segments():
    c = region_boundary_contour(SQUARE)
    assert len(c.pieces) == 4
    assert all(isinstance(p, Segment) for p in c.pieces)
    assert c.length == pytest.approx(8.0, abs=1e-12)


def test_truncated_sector_boundary_shape():
    # Offset rays + one apex arc, endpoints on C(0, 10).
    s = thicken(sector(0j, 0.0, math.pi / 4), 0.3)
    c = region_boundary_contour(s, truncation=10.0)
    assert not c.closed
    assert len(c.pieces) == 3
    assert isinstance(c.pieces[0], Segment)
    assert isinstance(c.pieces[1], Arc)
    assert isinstance(c.pieces[2], Segment)
    assert abs(c.start) == pytest.approx(10.0, abs=1e-10)
    assert abs(c.end) == pytest.approx(10.0, abs=1e-10)


def _offset_walk(walk, rho):
    # By hand: corner i has the arc from the normal before it to the one
    # after it, then the facet after it is shifted out by rho.
    n = len(walk.corners)
    before = walk.normals[-1:] + walk.normals if walk.closed else walk.normals
    pieces = []
    for i, z in enumerate(walk.corners):
        a, b = before[i], before[i + 1]
        if rho > 0.0:
            pieces.append(Arc(z, rho, a, a + (b - a) % (2 * math.pi)))
        if walk.closed or i < n - 1:
            shift = rho * complex(math.cos(b), math.sin(b))
            pieces.append(Segment(z + shift, walk.corners[(i + 1) % n] + shift))
    return pieces


def test_offset_boundaries_are_corner_arcs_and_shifted_facets():
    # Closed walks (bodies, bounded regions) and the finite middle of an
    # open chain, piece for piece and bit for bit.
    box = [(1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), (0.0, 1.0, 1.0),
           (0.0, -1.0, 1.0)]
    closed = [SQUARE, thicken(SQUARE, 0.5),
              ConvexBody([2 + 1j, 3 + 1j, 3 + 2j], rounding=0.5),
              ConvexRegion(box), ConvexRegion(box, rounding=0.2)]
    for s in closed:
        c = region_boundary_contour(s)
        assert c.pieces == tuple(_offset_walk(boundary_walk(s), s.rounding))
    cut = sector(0j, 0.3, math.pi / 3).halfplanes + ((-1.0, 0.0, -0.4),)
    for s in (ConvexRegion(cut), ConvexRegion(cut, rounding=0.25),
              thicken(sector(1j, 2.0, math.pi / 5), 0.3)):
        walk = boundary_walk(s)
        rho = s.rounding
        mid = _offset_walk(walk, rho)
        c = region_boundary_contour(s, truncation=20.0)
        assert c.pieces[1:-1] == tuple(mid)
        first, last = walk.normals[0], walk.normals[-1]
        assert c.pieces[0].end == walk.corners[0] + rho * complex(
            math.cos(first), math.sin(first))
        assert c.pieces[-1].start == walk.corners[-1] + rho * complex(
            math.cos(last), math.sin(last))


def test_unbounded_region_requires_truncation():
    s = sector(0j, 0.0, math.pi / 4)
    with pytest.raises(ValueError):
        region_boundary_contour(s)


def test_truncation_radius_must_clear_the_corners():
    s = thicken(sector(5 + 0j, 0.0, math.pi / 4), 0.3)
    with pytest.raises(ValueError):
        region_boundary_contour(s, truncation=2.0)


def test_circle_hit_parameters():
    t = circle_hit(3 + 0j, 1 + 0j, 10.0)
    assert t == pytest.approx(7.0, abs=1e-12)
    t = circle_hit(0j, cmath.exp(0.3j), 4.0)
    assert t == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError):
        circle_hit(0j, 1 + 0j, 0.0)


def _circle_hit_reference(base, direction, R):
    """circle_hit for one R as first written, in Python floats."""
    beta = (base * direction.conjugate()).real
    disc = beta * beta + R * R - (base * base.conjugate()).real
    if disc <= 1e-12 * R * R:
        raise ValueError("transversally")
    t = -beta + math.sqrt(disc)
    if t <= 0.0:
        raise ValueError("behind its base")
    return t


def test_circle_hit_on_an_array_is_the_scalar_formula_bitwise():
    # Seeded rays and ladders of 40 radii (ratio 1.5, from beyond the
    # base): one t per radius, each that of the scalar formula, and a
    # lone R gives a Python float.  A ray that misses or grazes the first
    # circle, or meets it behind its base, raises the scalar formula's
    # error for the whole array, as a loop over the radii would.
    rng = np.random.default_rng(40)
    for _ in range(200):
        base = rng.uniform(0.0, 5.0) * cmath.exp(2j * math.pi * rng.uniform())
        d = cmath.exp(2j * math.pi * rng.uniform())
        radii = (abs(base) + rng.uniform(0.1, 3.0)) * 1.5 ** np.arange(40)
        want = [_circle_hit_reference(base, d, R) for R in radii.tolist()]
        assert repr(circle_hit(base, d, radii).tolist()) == repr(want)
        t = circle_hit(base, d, float(radii[0]))
        assert type(t) is float and t == want[0]
    for base, d, radii, error in (
            (-5 + 2j, 1 + 0j, [2.0, 3.0, 9.0], "transversally"),  # grazes
            (-5 + 2j, 1 + 0j, [1.0, 3.0, 9.0], "transversally"),  # misses
            (5 + 0j, 1 + 0j, [3.0, 6.0, 9.0], "behind its base"),
            (5 + 0j, 1 + 0j, [3.0, 4.0, 4.5], "behind its base")):
        with pytest.raises(ValueError, match="transversally|behind") as exc:
            _circle_hit_reference(base, d, radii[0])
        assert error in str(exc.value)
        with pytest.raises(ValueError, match=error):
            circle_hit(base, d, np.array(radii))


def test_contour_endpoint_mismatch_rejected():
    with pytest.raises(ValueError):
        OrientedContour([Segment(0j, 1 + 0j), Segment(2 + 0j, 3 + 0j)])


# ---- quadrature ----

def test_unit_circle_residue_integral():
    c = circle_contour(0j, 1.0)
    res = integrate(c, lambda z: 1.0 / z)
    assert abs(res.value - TWO_PI_I) <= 1e-12
    assert res.error <= 1e-10


def test_holomorphic_integrand_vanishes_on_loop():
    c = circle_contour(0j, 1.0)
    res = integrate(c, lambda z: z)
    assert abs(res.value) <= 1e-12


def test_segment_integral_of_z():
    c = OrientedContour([Segment(0j, 1 + 0j)])
    res = integrate(c, lambda z: z)
    assert abs(res.value - 0.5) <= 1e-14


def test_reversal_negates_integrals():
    c = region_boundary_contour(thicken(SQUARE, 0.5))
    for g in (lambda z: 1.0 / (z - 0.2), lambda z: np.exp(z),
              lambda z: z * z + 1j):
        a = integrate(c, g).value
        b = integrate(c.reversed(), g).value
        assert abs(a + b) <= 1e-12 * (1 + abs(a))


def test_contour_deformation_for_rational_integrand():
    # Same poles enclosed by a circle and by a fattened square.
    def g(z):
        return 1.0 / (z - 0.3) + 2.0 / (z + 0.4j) ** 2 + 0.5j / (z - 0.1j)

    c1 = circle_contour(0j, 1.0)
    c2 = region_boundary_contour(thicken(SQUARE, 0.5))
    r1 = integrate(c1, g)
    r2 = integrate(c2, g)
    assert abs(r1.value - r2.value) <= 1e-11 + r1.error + r2.error
    # Residues: 2*pi*i * (1 + 0.5j); the double pole contributes none.
    assert abs(r1.value - TWO_PI_I * (1 + 0.5j)) <= 1e-11


def winding_number(c, a):
    """(1/2 pi i) times the integral of dz/(z - a), a off the contour."""
    res = integrate(c, lambda z: 1.0 / (z - a), 1e-10)
    return (res.value / (2j * math.pi)).real


def test_winding_numbers_of_circle():
    c = circle_contour(0j, 2.0)
    assert winding_number(c, 0j) == pytest.approx(1.0, abs=1e-9)
    assert winding_number(c, 1 + 0j) == pytest.approx(1.0, abs=1e-9)
    assert winding_number(c, 3 + 0j) == pytest.approx(0.0, abs=1e-9)
    assert winding_number(c.reversed(), 1j) == pytest.approx(-1.0, abs=1e-9)


def test_truncated_chain_plus_closing_arc_is_a_positive_loop():
    s = thicken(sector(0j, 0.0, math.pi / 4), 0.3)
    chain = region_boundary_contour(s, truncation=8.0)
    # The arc of C(0, 8) from the chain's exit back to its entry, CCW.
    a0 = cmath.phase(chain.end)
    sweep = (cmath.phase(chain.start) - a0) % (2 * math.pi)
    loop = OrientedContour(list(chain.pieces) + [Arc(0j, 8.0, a0, a0 + sweep)])
    assert loop.closed
    # 3+0j sits inside the truncated thickened sector, -3 outside.
    assert winding_number(loop, 3 + 0j) == pytest.approx(1.0, abs=1e-9)
    assert winding_number(loop, -3 + 0j) == pytest.approx(0.0, abs=1e-9)


def test_quadrature_error_carries_partial_value():
    c = OrientedContour([Segment(-1 + 0j, 1 + 0j)])
    with pytest.raises(QuadratureError) as exc:
        # Kink at an irrational interior point: 2048 Gauss-Kronrod
        # panels cannot reach a 1e-14 target.
        integrate(c, lambda z: np.abs(z.real - 1 / math.sqrt(2)) ** 0.5,
                  abs_tol=1e-14)
    assert isinstance(exc.value.partial, complex)


def _reciprocal(z):
    return 1.0 / (z - 1.0)


# A piece of a Meril boundary ray, w near the edge of the shifted dual
# cone (eps' = 1e-5): about 14000 radians of e^{z*w} over 7000 units,
# where 2048 Gauss-Kronrod panels miss 1e-11 by a gap of 1.1e-11.
LONG_SEGMENT = Segment(9875.437937775943 + 9875.579359132178j,
                       14813.192262213932 + 14813.333683570165j)
LONG_SEGMENT_W = -1.4142346695368226 - 1.4142024551221317j


def test_unsettled_piece_is_bisected(monkeypatch):
    halves = contour._halves
    split = []

    def counted(piece):
        split.append(piece)
        return halves(piece)

    monkeypatch.setattr(contour, "_halves", counted)
    w = LONG_SEGMENT_W
    got = integrate(OrientedContour([LONG_SEGMENT]), _reciprocal, 1e-11, w=w)
    assert split == [LONG_SEGMENT]
    seg = LONG_SEGMENT
    x, wt = np.polynomial.legendre.leggauss(30)
    t = ((np.arange(8000)[:, None] + 0.5 + 0.5 * x) / 8000).ravel()
    z = seg.point(t)
    want = complex((np.exp(z * w) * _reciprocal(z)) @ np.tile(
        wt / 16000, 8000)) * (seg.end - seg.start)
    assert abs(got.value - want) <= got.error <= 1e-11
    # Pieces that settle are never split: the same segment a tenth as
    # long, an arc and a circle.
    split.clear()
    short = Segment(seg.start, seg.point(0.1))
    for c in (OrientedContour([short]),
              OrientedContour([Arc(0j, 3.0, 0.5, 2.0)]),
              circle_contour(0.2j, 2.0)):
        integrate(c, _reciprocal, 1e-11, w=w)
    assert split == []
    # Without the bisection the piece raises, as it did before it.
    monkeypatch.setattr(contour, "_MAX_SPLITS", 0)
    with pytest.raises(QuadratureError, match="not settled at 30720"):
        integrate(OrientedContour([LONG_SEGMENT]), _reciprocal, 1e-11, w=w)


def _pole_at_tenth(z):
    return 1.0 / (z - 0.1)


def test_kernel_overflow_is_named_before_climbing_or_bisecting(monkeypatch):
    # e^{z*w} peaks at e^720 on each piece.  The circle used to raise a
    # bare OverflowError from cmath.exp, the segment to climb to 2048
    # panels and bisect 4 deep before QuadratureError (gap nan, floor inf).
    split = []
    monkeypatch.setattr(contour, "_halves", split.append)
    for c in (circle_contour(0j, 1.0), OrientedContour([Segment(0j, 1 + 0j)]),
              OrientedContour([Arc(0j, 1.0, 0.0, 1.0)])):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError, match=r"e\^720, beyond the "
                               r"float range"):
                integrate(c, _pole_at_tenth, w=720)
    # r|w| = inf raised a bare OverflowError from math.ceil.
    with pytest.raises(OverflowError, match=r"e\^inf, beyond the float"):
        integrate(circle_contour(0j, 10.0), _pole_at_tenth, w=1e308)
    assert split == []


def test_quadrature_error_partial_sums_the_pieces_reached(monkeypatch):
    # Without bisection the long segment raises behind a short one that
    # settles: the partial value is the short piece's value, at its share
    # of the tolerance, plus the long piece's sum on its finest rule.
    monkeypatch.setattr(contour, "_MAX_SPLITS", 0)
    w = LONG_SEGMENT_W
    short = Segment(LONG_SEGMENT.start - (1 + 0.5j), LONG_SEGMENT.start)
    with pytest.raises(QuadratureError, match="not settled at 30720") as exc:
        integrate(OrientedContour([short, LONG_SEGMENT]), _reciprocal,
                  1e-11, w=w)
    share = 1e-11 * (short.length / (short.length + LONG_SEGMENT.length))
    head = integrate(OrientedContour([short]), _reciprocal, share, w=w)
    rule = contour._level({}, LONG_SEGMENT, contour._LEVELS[False][1],
                          _reciprocal)[0]
    finest = complex(np.exp(rule.nodes * w) * _reciprocal(rule.nodes)
                     @ rule.weights)
    assert exc.value.partial == head.value + finest


@pytest.mark.parametrize("level", [0, 5, 11])
def test_segment_entries_hold_the_gauss_kronrod_rule_bitwise(level):
    # Nodes, weights, coarse weights and floor scale as the segment's
    # parametrisation and the level's panels give them, also for a segment
    # with numpy.complex128 ends, and the scale stays a Python float.
    t, gauss, t_weights, g_over_k = contour._gauss_kronrod_panels(level)
    for seg in (Segment(-0.3 + 0.2j, 0.9 - 0.5j),
                Segment(np.complex128(31.25 - 7.5j),
                        np.complex128(-4.0 + 60.125j))):
        nodes, dz = seg.point_and_derivative(t)
        weights = dz * t_weights
        rule, values = contour._level({}, seg, level, _reciprocal)
        assert rule.nodes.tobytes() == nodes.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()
        assert rule.coarse.tobytes() == gauss.tobytes()
        assert rule.coarse_weights.tobytes() == (
            weights[gauss] * g_over_k).tobytes()
        assert type(rule.floor_scale) is float
        assert rule.floor_scale == 16.0 * contour._EPS * float(
            np.abs(weights).max())
        assert values.tobytes() == _reciprocal(nodes).tobytes()


def test_settled_level_is_the_climb_of_the_w0_node_sums():
    # Seeded segments and arcs passing 1e-4 to 1 from a datum's poles:
    # the w = 0 climb, which reads g's values as the summands, stops at
    # the level where the node sums with the kernel e^{z*0} settle, with
    # the same sums at every level it reads and one cache entry per level
    # read plus the level itself.
    rng = np.random.default_rng(68)
    levels = []
    for i in range(60):
        a = complex(*rng.uniform(-2.0, 2.0, 2))
        near = a + 10.0 ** rng.uniform(-4.0, 0.0) * cmath.exp(
            2j * math.pi * rng.uniform())
        along = rng.uniform(0.5, 3.0) * cmath.exp(2j * math.pi * rng.uniform())
        piece = (Segment(near - along, near + along) if i % 2 else
                 Arc(2 * near - a, abs(near - a), *rng.uniform(-3.0, 3.0, 2)))
        g = MeromorphicDatum([(a, int(rng.integers(1, 4)), 1.0 - 0.5j)])
        tol = 1e-11 * 10.0 ** rng.uniform(-1.0, 1.0)
        cache = {}
        level = contour._settled_level(cache, piece, g, tol)
        want = 0
        for k in range(contour._LEVELS[False][1] + 1):
            rule, values = contour._level({}, piece, k, g)
            f = np.exp(rule.nodes * 0j) * values
            sums = (complex(f @ rule.weights),
                    complex(f[rule.coarse] @ rule.coarse_weights),
                    float(np.abs(f).sum()) * rule.floor_scale)
            assert repr(contour._node_sums(cache, piece, k, g, 0j)[:3]) == (
                repr(sums))
            if abs(sums[0] - sums[1]) <= max(tol, sums[2]):
                want = k
                break
        assert level == want
        read = k  # the last level either climb read
        assert set(cache) == {(piece, g, tol)} | {
            (piece, j, g) for j in range(read + 1)}
        levels.append(level)
    assert len(set(levels)) >= 4


@pytest.mark.parametrize("piece", [
    Segment(-0.3 + 0.2j, 0.9 - 0.5j), Arc(0.1 - 0.1j, 0.9, 0.4, 2.9),
    circle_contour(0.2 + 0.1j, 1.5).pieces[0]],
    ids=["segment", "arc", "circle"])
def test_level_entries_are_read_only(piece):
    rule, data = contour._level({}, piece, 2, _reciprocal)
    arrays = [a for a in rule + (data if isinstance(data, tuple) else
                                 (data,)) if isinstance(a, np.ndarray)]
    # A full circle's rule is its nodes and weights; one (2, n/2) array of
    # its fine and coarse moments carries the coarse rule.
    assert len(arrays) == (3 if piece.full_circle else 5)
    if piece.full_circle:
        assert data[0].shape == (2, len(rule[0]) // 2)
    assert not any(a.flags.writeable for a in arrays)


def test_halves_keep_orientation_and_endpoints():
    for piece in (Segment(1 + 2j, -3 + 0.5j), Arc(1j, 2.0, 0.3, -1.9)):
        a, b = contour._halves(piece)
        assert a.point(0.0) == piece.point(0.0)
        assert a.point(1.0) == b.point(0.0)
        assert abs(b.point(1.0) - piece.point(1.0)) <= 1e-15
        for half in (a, b):
            assert half.length == pytest.approx(0.5 * piece.length,
                                                rel=1e-15)


def test_open_boundary_rays_match_contour_ends():
    s = thicken(sector(1 + 1j, 0.2, math.pi / 5), 0.25)
    (b_in, d_in), (b_out, d_out) = open_boundary_rays(s)
    R = 15.0
    c = region_boundary_contour(s, truncation=R)
    t_in = circle_hit(b_in, d_in, R)
    t_out = circle_hit(b_out, d_out, R)
    assert abs(c.start - (b_in + t_in * d_in)) <= 1e-10
    assert abs(c.end - (b_out + t_out * d_out)) <= 1e-10
    assert abs(abs(d_in) - 1.0) <= 1e-12
    assert abs(abs(d_out) - 1.0) <= 1e-12


def test_open_boundary_rays_follow_the_sector_edges():
    # Entry ray along axis + half-angle, exit ray along axis - half-angle,
    # with axes on a grid over [0, 2 pi) and over (-pi, pi], so the edge
    # normals land on both sides of the branch cut of atan2.
    axes = np.concatenate([np.linspace(0.0, 2 * math.pi, 72, endpoint=False),
                           np.linspace(-math.pi, math.pi, 73)[1:]])
    for axis in axes:
        for gamma in np.linspace(0.2, 1.4, 13)[1:-1]:
            s = thicken(sector(0j, float(axis), float(gamma)), 0.1)
            (_, d_in), (_, d_out) = open_boundary_rays(s)
            assert abs(d_in - cmath.exp(1j * (axis + gamma))) <= 1e-9
            assert abs(d_out - cmath.exp(1j * (axis - gamma))) <= 1e-9


def test_incremental_ray_extension_matches_larger_truncation():
    # Integral over the R2-truncated chain equals the R1 integral plus
    # the two ray extensions, piece for piece.
    s = thicken(sector(0j, 0.0, math.pi / 6), 0.2)
    (b_in, d_in), (b_out, d_out) = open_boundary_rays(s)
    R1, R2 = 6.0, 9.0

    def g(z):
        return np.exp(-0.7 * z) / (z + 2.0)

    full1 = integrate(region_boundary_contour(s, truncation=R1), g).value
    full2 = integrate(region_boundary_contour(s, truncation=R2), g).value
    tin1, tin2 = circle_hit(b_in, d_in, R1), circle_hit(b_in, d_in, R2)
    tout1, tout2 = circle_hit(b_out, d_out, R1), circle_hit(b_out, d_out, R2)
    ext_in = integrate(OrientedContour(
        [Segment(b_in + tin2 * d_in, b_in + tin1 * d_in)]), g).value
    ext_out = integrate(OrientedContour(
        [Segment(b_out + tout1 * d_out, b_out + tout2 * d_out)]), g).value
    assert abs(full2 - (ext_in + full1 + ext_out)) <= 1e-10


def test_length_additivity():
    s = thicken(sector(0j, 0.0, math.pi / 4), 0.3)
    c = region_boundary_contour(s, truncation=10.0)
    assert c.length == pytest.approx(sum(p.length for p in c.pieces), abs=0)


def test_quadrature_is_deterministic():
    c = region_boundary_contour(thicken(SQUARE, 0.5))

    def g(z):
        return np.exp(0.3 * z) / (z - 0.1 - 0.2j)

    a = integrate(c, g)
    b = integrate(c, g)
    assert a.value == b.value
    assert a.error == b.error
    assert type(a.error) is float
    segment = OrientedContour([Segment(-0.3 + 0.2j, 0.9 - 0.5j)])
    assert type(integrate(segment, g, w=2.0 - 1.0j).error) is float


# ---- periodic trapezoid rule on full circles ----

def test_full_circle_integrand_sees_node_arrays():
    # On a full circle g is called on whole node arrays, one per level,
    # and with w != 0 the first level's coarse rule has at least as many
    # nodes as the Taylor sum has terms: ceil(3 + 12 sqrt 3 + 40) = 64.
    sizes = []

    def g(z):
        sizes.append(len(z))
        return 1.0 / (z - 0.3)

    res = integrate(circle_contour(0j, 1.0), g, w=3.0)
    assert abs(res.value - TWO_PI_I * math.exp(0.9)) <= 1e-12
    assert sizes and sizes[0] >= 128
    assert all(n <= 4096 for n in sizes)
    # Segments, arcs short of a full turn and a boundary mixing both are
    # called on node arrays too, never on single points.
    for c in (OrientedContour([Segment(-1 - 1j, 2 + 0.5j)]),
              OrientedContour([Arc(0j, 1.0, 0.0, 1.5 * math.pi)]),
              region_boundary_contour(thicken(SQUARE, 0.5))):
        seen = []

        def h(z):
            seen.append(z)
            return 1.0 / (z - 0.1)

        integrate(c, h)
        assert seen and all(isinstance(z, np.ndarray) and z.ndim == 1
                            and len(z) >= 15 for z in seen)


def test_trapezoid_matches_residues_and_orientation():
    # exp(w z)/(z - a)^2 has residue w e^{wa}; the reversed circle
    # negates the integral.
    w, a = 1.5 - 0.5j, 0.2 + 0.1j

    def g(z):
        return np.exp(w * z) / (z - a) ** 2

    want = TWO_PI_I * w * cmath.exp(w * a)
    c = circle_contour(0.1j, 1.2)
    fwd = integrate(c, g, abs_tol=1e-13)
    back = integrate(c.reversed(), g, abs_tol=1e-13)
    assert abs(fwd.value - want) <= 1e-12
    assert abs(fwd.value - want) <= fwd.error
    assert abs(back.value + want) <= 1e-12


def _inverse(z):
    return 1.0 / z


def test_trapezoid_error_bounds_the_true_error_as_the_kernel_grows():
    # e^{z w}/z over C(0, 2): the estimate covers the gap to the exact
    # 2 pi i at every |w|, with a target of 1e-13 relative to the
    # kernel's peak e^{2|w|}.
    c = circle_contour(0j, 2.0)
    for mag in (0.5, 3.0, 8.0, 15.0):
        for t in np.linspace(0.0, 2.0 * math.pi, 7):
            w = mag * cmath.exp(1j * t)
            res = integrate(c, _inverse, abs_tol=1e-13 * math.exp(2 * mag),
                            w=w)
            assert abs(res.value - TWO_PI_I) <= res.error


def test_moment_form_matches_residues_on_any_circle():
    # e^{zw}/(z - a)^m has residue e^{aw} w^{m-1}/(m-1)!, on a clockwise
    # circle and on one off the origin, from w = 0, where the Taylor
    # terms are [1, 0, ...], out to a kernel peak of e^{30}.
    for c, sign in ((circle_contour(0.4 - 0.3j, 1.2).reversed(), -1.0),
                    (circle_contour(2.0 + 1.0j, 0.8), 1.0)):
        arc = c.pieces[0]
        a = arc.center + 0.35 * arc.radius * cmath.exp(0.7j)
        for m in (1, 2, 3):
            def g(z, m=m):
                return 1.0 / (z - a) ** m

            for w in (0j, 1.5 - 0.5j, -6.0j, 22.0 * cmath.exp(2.0j)):
                M = (arc.center * w).real + arc.radius * abs(w)
                want = (sign * TWO_PI_I * cmath.exp(a * w) * w ** (m - 1)
                        / math.factorial(m - 1))
                res = integrate(c, g, abs_tol=1e-13 * math.exp(M), w=w)
                assert abs(res.value - want) <= res.error
                assert res.error <= 1e-12 * math.exp(M)


def _row_sums(arc, level, g, terms):
    """Fine and coarse trapezoid sums of e^{(z - c) w - rho|w|} g(z) dz at
    a level from the moment rows that _level keeps, term by term: F_m has
    period n, with F_{m+n/2} row 1 less row 0, and the coarse moments,
    row 1, period n/2 (a reference for _circle's fold); with sum
    |g(z_k) w_k| and n."""
    pair, mass = contour._level({}, arc, level, g)[1]
    n, m = 2 * pair.shape[1], np.arange(len(terms))
    moments = np.concatenate((pair[0], pair[1] - pair[0]))
    return (complex(moments[m % n] @ terms),
            complex(pair[1][m % (n // 2)] @ terms), mass, n)


def _circle_parts(arc, g, w):
    """integrate's result on the circle alone (tol inf: its first level),
    that level, its roundoff floor and dropped-term bound, which the
    estimate adds to the fine-coarse gap, and the factor e^{cw + rho|w|}."""
    cache = {}
    res = contour._circle(cache, arc, g, math.inf, w)
    (((_, level, _), (_, (_, mass))),) = cache.items()
    y = arc.radius * abs(w)
    count = math.ceil(y + 12.0 * math.sqrt(y) + 40.0)
    terms = contour._scaled_taylor(arc.radius * w * arc.start_unit, count)
    tail = float(abs(terms[-1])) * y / count / (1.0 - y / (count + 1))
    factor = cmath.exp(arc.center * w + y)
    peak = abs(factor) * mass
    return res, level, 16.0 * contour._EPS * peak, tail * peak, factor


def test_moment_sums_equal_the_node_sums():
    # At 4096 nodes and rho|w| = 2000 the Taylor sum has 2577 terms, so
    # the coarse rule folds them; both sums equal the trapezoid sums of
    # e^{(z - c) w - rho|w|} g(z) on the nodes, up to the rounding of
    # that exponent (about 2000 eps relative to the largest term).  On
    # circles whose centre keeps e^{Re(cw) + rho|w|} in range, _circle
    # returns the fine sum times e^{cw + rho|w|} and the sums' gap.
    w = 2000.0 * cmath.exp(0.3j)
    back = -cmath.exp(-0.3j)  # centres c with Re(c w) = -2000 |c|
    for c in (circle_contour(0j, 1.0),
              circle_contour(0.5 - 1j, 1.0).reversed(),
              circle_contour(back, 1.0),
              circle_contour((1.2 + 0.3j) * back, 1.0).reversed()):
        arc = c.pieces[0]
        a = arc.center + 0.4 * cmath.exp(1.1j)

        def g(z):
            return 1.0 / (z - a) ** 2

        count = math.ceil(2000.0 + 12.0 * math.sqrt(2000.0) + 40.0)
        terms = contour._scaled_taylor(w * contour._cis(arc.angle0), count)
        fine, coarse, _, n = _row_sums(arc, 5, g, terms)
        nodes, weights = contour._rule(arc, 5)[:2]
        f = np.exp((nodes - arc.center) * w - 2000.0) * g(nodes)
        want_fine, want_coarse = f @ weights, f[::2] @ (2.0 * weights[::2])
        assert (n, count) == (4096, 2577)
        assert abs(fine - want_fine) <= 1e-10
        assert abs(coarse - want_coarse) <= 1e-10
        if (arc.center * w).real > -1000.0:
            continue  # e^{2000} is no float
        res, level, floor, extra, factor = _circle_parts(arc, g, w)
        scale = abs(factor)
        assert level == 5
        assert 0.0 < scale < math.inf
        assert abs(res.value - factor * want_fine) <= 1e-10 * scale
        gap = res.error - floor - extra
        assert abs(gap - scale * abs(want_fine - want_coarse)) <= 2e-10 * scale


def _exact_node_sums(arc, level, g, x):
    """The trapezoid sums of e^{(z - c) w - |x|} g(z) dz over a level's n
    nodes and over every other node, x = rho w e^{i theta_0}: g at the
    rule's nodes, the kernel at the exact nodes c + rho e^{i theta_0} q^k
    in long double (as the moment form takes them), so only rounding far
    below eps separates them from the exact sums."""
    nodes, weights = contour._rule(arc, level)[:2]
    h = g(nodes) * weights
    n, ld = len(h), np.longdouble
    theta = (np.sign(arc.angle1 - arc.angle0) * 8 * np.arctan(ld(1))
             * np.arange(n, dtype=ld) / n)
    re, im = ld(x.real), ld(x.imag)
    mod = np.exp(re * np.cos(theta) - im * np.sin(theta) - ld(abs(x)))
    arg = re * np.sin(theta) + im * np.cos(theta)
    kr, ki = mod * np.cos(arg), mod * np.sin(arg)
    hr, hi = h.real.astype(ld), h.imag.astype(ld)
    fr, fi = kr * hr - ki * hi, kr * hi + ki * hr
    return (complex(float(fr.sum()), float(fi.sum())),
            complex(float(2 * fr[::2].sum()), float(2 * fi[::2].sum())))


def _random_datum(rng, arc):
    # 1-4 terms of orders 1-4 with poles within 0.6 rho of the centre.
    return MeromorphicDatum([
        (arc.center + arc.radius * rng.uniform(0.0, 0.6)
         * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)),
         int(rng.integers(1, 5)), complex(*rng.uniform(-2.0, 2.0, 2)))
        for _ in range(int(rng.integers(1, 5)))])


def _random_circle(rng):
    c = circle_contour(complex(*rng.uniform(-3.0, 3.0, 2)),
                       rng.uniform(0.5, 3.0))
    return c if rng.uniform() < 0.5 else c.reversed()


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the node sums need an extended long double")
def test_moment_form_matches_the_node_sums_within_its_estimate():
    # At each level 0-4 (128-2048 nodes) with as many Taylor terms as the
    # level takes, n/2, at the top level where more than n/2 terms fold
    # onto the coarse rule, and on the Stirling branch (rho|w| > 700),
    # the fine and coarse sums in moment form are
    # the node sums up to the dropped terms and rounding: within the
    # roundoff floor plus the dropped terms' bound, which the estimate
    # that integrate gives adds to the fine-coarse gap.  The sums are
    # formed from the moment rows term by term (_row_sums).
    def most_y(terms):  # the largest rho|w| that takes at most so many
        return 0.999 * (math.sqrt(terms - 4.0) - 6.0) ** 2

    rng = np.random.default_rng(20251020)
    cases = [(level, 0.0, 64 << level) for level in range(5)
             for _ in range(4)]
    cases += [(5, 700.0, 2048)] * 4 + [(5, most_y(2048) + 1.0, 4096)] * 4
    for level, y_min, most in cases:
        arc = _random_circle(rng).pieces[0]
        g = _random_datum(rng, arc)
        w = (rng.uniform(y_min, most_y(most)) / arc.radius
             * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        y = arc.radius * abs(w)
        count = math.ceil(y + 12.0 * math.sqrt(y) + 40.0)
        assert count <= most
        x = arc.radius * w * arc.start_unit
        terms = contour._scaled_taylor(x, count)
        tail = float(abs(terms[-1])) * y / count / (1.0 - y / (count + 1))
        fine, coarse, mass, n = _row_sums(arc, level, g, terms)
        floor, extra = 16.0 * contour._EPS * mass, tail * mass
        want_fine, want_coarse = _exact_node_sums(arc, level, g, x)
        assert n == 128 << level
        assert abs(fine - want_fine) <= floor + extra
        assert abs(coarse - want_coarse) <= floor + extra


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the node sums need an extended long double")
def test_circle_is_the_node_sums_at_its_first_level():
    # _circle with tol inf returns at its first level, the first with n at
    # least twice the Taylor terms: at each level 0-5, on the Stirling
    # branch (rho|w| > 700) and with the terms folded at the top, its
    # value is the fine node sum times e^{cw + rho|w|}, and its estimate
    # less the roundoff floor and the dropped terms' bound is the gap of
    # the fine and coarse node sums, within the bounds of the test above.
    # A centre moves along w where e^M would leave the float range.
    def most_y(terms):  # the largest rho|w| that takes at most so many
        return 0.999 * (math.sqrt(terms - 4.0) - 6.0) ** 2

    rng = np.random.default_rng(20251022)
    cases = [(0, 0.0, 64)] * 4 + [
        (level, most_y(32 << level) + 1.0, 64 << level)
        for level in range(1, 6) for _ in range(4)]
    cases += [(5, 700.0, 2048)] * 4 + [(5, most_y(2048) + 1.0, 4096)] * 4
    for level, y_min, most in cases:
        arc = _random_circle(rng).pieces[0]
        y = rng.uniform(y_min, most_y(most))
        w = y / arc.radius * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        M = (arc.center * w).real + y
        if abs(M) > 300.0:
            arc = Arc(arc.center - (M / abs(w)) * (w / abs(w)).conjugate(),
                      arc.radius, arc.angle0, arc.angle1)
        g = _random_datum(rng, arc)
        count = math.ceil(y + 12.0 * math.sqrt(y) + 40.0)
        assert count <= most and (level == 0 or 2 * count > 64 << level)
        res, first, floor, extra, factor = _circle_parts(arc, g, w)
        assert first == level
        want_fine, want_coarse = _exact_node_sums(
            arc, level, g, arc.radius * w * arc.start_unit)
        scale = abs(factor)
        assert 0.0 < scale < math.inf
        assert abs(res.value - factor * want_fine) <= floor + extra
        gap = res.error - floor - extra
        assert (abs(gap - scale * abs(want_fine - want_coarse))
                <= 2.0 * (floor + extra))


def test_circle_estimates_bound_the_residue_gap_off_the_origin():
    # Orders 1-4, circles off the origin in both orientations, w = 0 and
    # rho|w| up to 20 (kernel peaks e^M from e^-57 to e^75): integrate's
    # estimate is at least the gap to the residue sum on all 360
    # evaluations (the largest gap is 0.09 of its estimate).
    rng = np.random.default_rng(20251021)
    evaluations = 0
    for _ in range(30):
        c = _random_circle(rng)
        arc = c.pieces[0]
        g = _random_datum(rng, arc)
        sign = math.copysign(1.0, arc.angle1 - arc.angle0)
        for k in range(12):
            w = (0j if k == 0 else rng.uniform(0.0, 20.0) / arc.radius
                 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            M = (arc.center * w).real + arc.radius * abs(w)
            got = integrate(c, g, abs_tol=1e-11 * math.exp(M), w=w)
            assert abs(got.value - sign * residue_oracle(g, w)) <= got.error
            evaluations += 1
    assert evaluations >= 300


def test_scaled_taylor_is_the_plain_cumprod_bitwise():
    # The running product over the divisor table takes the same
    # operations as cumprod(concatenate(([e^-|x|], x / k))).
    for count, xs in ((1, (0j, 0.3 - 0.5j)),
                      (2, (0j, 0.3 - 0.5j, -1.2j)),
                      (74, (0.25 + 0j, 5.0 - 3.0j, -50.0j,
                            60.0 * cmath.exp(1j))),
                      (4096, (699.9 + 0j, 350.0 + 350.0j, -650.0j,
                              700.0 * cmath.exp(2.5j), -3.0 + 0.1j))):
        for x in xs:
            want = np.cumprod(np.concatenate(
                ([math.exp(-abs(x))], x / np.arange(1, count))))
            got = contour._scaled_taylor(x, count)
            assert got.shape == (count,)
            assert got.tobytes() == want.tobytes()


def test_trapezoid_raises_at_the_node_cap():
    # A kink on the circle converges only algebraically: 4096 nodes
    # cannot reach a 1e-15 target.
    c = circle_contour(0j, 1.0)
    with pytest.raises(QuadratureError) as exc:
        integrate(c, lambda z: np.abs(z.real - 0.3) ** 0.5 + 0j,
                  abs_tol=1e-15)
    assert isinstance(exc.value.partial, complex)


def test_trapezoid_is_deterministic():
    c = circle_contour(0.2 + 0j, 1.5)

    def g(z):
        return 1.0 / (z - 0.5j)

    # The second call reads the moments the first one cached.
    a = integrate(c, g, w=0.4 - 2.0j)
    b = integrate(c, g, w=0.4 - 2.0j)
    assert (a.value, a.error) == (b.value, b.error)


_KRONROD_PIECES = [Segment(-0.3 + 0.2j, 0.9 - 0.5j),
                   Arc(0.1 - 0.1j, 0.9, 0.4, 2.9)]


@pytest.mark.parametrize("piece", _KRONROD_PIECES, ids=["segment", "arc"])
def test_kronrod_rule_matches_antiderivatives_of_powers(piece):
    # z^k dz for k <= 22, the degree Gauss-Kronrod 15 integrates exactly
    # on one panel of a segment.
    c = OrientedContour([piece])
    a, b = piece.point(0.0), piece.point(1.0)
    for k in range(23):
        res = integrate(c, lambda z: z ** k, abs_tol=1e-13)
        want = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert abs(res.value - want) <= 1e-12


def _pole_integral(piece, w, a, m):
    """e^{wz}/(z - a)^m dz along the piece, from the termwise integrated
    Taylor series of e^{ws} in s = z - a; the log term takes the change of
    arg(z - a) along the piece, unwrapped over dense samples."""
    ends = [complex(piece.point(t)) - a for t in (0.0, 1.0)]
    args = np.unwrap(np.angle(piece.point(np.linspace(0.0, 1.0, 4001)) - a))
    total = 0j
    for k in range(80):
        coef = w ** k / math.factorial(k)
        if k == m - 1:
            total += coef * (math.log(abs(ends[1]) / abs(ends[0]))
                             + 1j * (args[-1] - args[0]))
        else:
            p = k - m + 1
            total += coef * (ends[1] ** p - ends[0] ** p) / p
    return cmath.exp(w * a) * total


@pytest.mark.parametrize("piece", _KRONROD_PIECES, ids=["segment", "arc"])
def test_kronrod_error_bounds_the_true_error_near_a_pole(piece):
    # A pole 0.1 off the middle of the piece, on either side.
    mid, dz = (complex(v) for v in piece.point_and_derivative(0.5))
    for side in (1.0, -1.0):
        a = mid + side * 0.1j * dz / abs(dz)
        for w in (0.5, -2.0 + 1.0j, 3.0j):
            for m in (1, 2, 3):
                res = integrate(OrientedContour([piece]),
                                lambda z: np.exp(w * z) / (z - a) ** m,
                                abs_tol=1e-13)
                assert abs(res.value - _pole_integral(piece, w, a, m)) \
                    <= res.error
