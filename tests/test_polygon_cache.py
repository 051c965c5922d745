"""Cached polygons and cached conjugates against the LP they replace.

support_function on a region reads one polygon per region, the interior
test reads the same polygon, and conjugate_at reads one conjugate(f) per
function.  The reference here is _lp.maximize_min_affine, which still
rebuilds a polygon per cell on every call and is otherwise left only in
the region constructor.  The corpus covers bounded and unbounded
domains: 3-6-gons (as bodies and as regions), sectors, the plane,
half-planes and slabs cut at one end, and regions thin enough to be
flat: boxes, slabs, half-strips, triangles and wedges.  The polygon's
own emptiness verdict, from its one sweep and a last check of a bounded
set's corners, is checked against the LP's away from their tolerance
bands, on thin triangles and on sets that are nearly empty.
"""

import cmath
import math
import sys

import numpy as np
import pytest

from convlap import _lp, legendre
from convlap.contour import region_boundary_contour
from convlap.convexgeom import (
    ConvexBody,
    ConvexRegion,
    affine_dimension,
    asymptotic_cone,
    boundary_walk,
    region_has_interior,
    sector,
    signed_distance,
    support_function,
    thicken,
)
from convlap.legendre import (
    PLConvexFunction,
    UnsupportedConjugate,
    conjugate,
    conjugate_at,
    legendre_dimensions,
)

KINDS = ("gon-body", "gon-region", "sector", "plane", "halfplane",
         "cut-slab")


def random_domain(rng, kind):
    if kind.startswith("gon"):
        k = int(rng.integers(3, 7))
        angles = (rng.uniform(0.0, 2 * math.pi)
                  + 2 * math.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k))
                  / k)
        centre = complex(*rng.uniform(-1, 1, 2))
        radius = rng.uniform(0.5, 2.0)
        verts = [centre + radius * cmath.exp(1j * a) for a in angles]
        if kind == "gon-body":
            return ConvexBody(verts)
        return ConvexRegion(legendre._domain_halfplanes(ConvexBody(verts)))
    if kind == "sector":
        return sector(complex(*rng.uniform(-1, 1, 2)),
                      rng.uniform(-math.pi, math.pi), rng.uniform(0.2, 1.4))
    if kind == "plane":
        return ConvexRegion([])
    alpha = rng.uniform(-math.pi, math.pi)
    nx, ny = math.cos(alpha), math.sin(alpha)
    c = rng.uniform(-1, 1)
    if kind == "halfplane":
        return ConvexRegion([(nx, ny, c)])
    # |n.z - c| <= width, cut across its +t end by a third half-plane.
    width = rng.uniform(0.2, 1.5)
    beta = alpha + 0.5 * math.pi + rng.uniform(-1.2, 1.2)
    return ConvexRegion([(nx, ny, c + width), (-nx, -ny, width - c),
                         (math.cos(beta), math.sin(beta),
                          rng.uniform(-1, 1))])


def corpus(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        domain = random_domain(rng, KINDS[i % len(KINDS)])
        pieces = [(complex(*rng.normal(0.0, 1.5, 2)), float(rng.normal()))
                  for _ in range(int(rng.integers(2, 6)))]
        yield rng, PLConvexFunction(pieces, domain)


def sample_points(rng, centres):
    """40 random w, and for each centre the points 0, 1e-9 and +-1e-6
    away from it."""
    ws = [complex(*rng.uniform(-4, 4, 2)) for _ in range(40)]
    for b in centres:
        turn = cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        ws += [b, b + 1e-9 * turn, b + 1e-6 * turn, b - 1e-6 * turn]
    return ws


def lp_conjugate_at(f, w):
    """f*(w) as the LP: the sup of min_i Re(z*(w - b_i)) - c_i."""
    pieces = legendre._collapsed_pieces(f)
    objective = [((w - b).real, -(w - b).imag, -c) for b, c in pieces]
    val, _ = _lp.maximize_min_affine(
        objective, legendre._domain_halfplanes(f.domain))
    return val


def lp_support(region, w):
    if w == 0:
        return 0.0
    val, _ = _lp.maximize_min_affine([(w.real, -w.imag, 0.0)],
                                     region.halfplanes)
    return val + region.rounding * abs(w) if math.isfinite(val) else math.inf


def test_conjugate_at_matches_the_lp():
    compared = skipped = infinite = 0
    for rng, f in corpus(7, 60):
        g = conjugate(f)
        radius = max(abs(p) for p, _ in g.pieces)
        offset = max(abs(c) for _, c in g.pieces)
        bmax = max(abs(b) for b, _ in f.pieces)
        for w in sample_points(rng, [b for b, _ in f.pieces]):
            ref = lp_conjugate_at(f, w)
            got = conjugate_at(f, w)
            # w within 1e-9 (scaled) of a domain line of f* is where the
            # LP's per-cell rays and the conjugate's merged half-planes
            # may round to different sides.
            edge = 1e-9 * (1.0 + abs(w) + bmax)
            if any(abs(nx * w.real + ny * w.imag - k) <= edge
                   for nx, ny, k in g.domain.halfplanes):
                skipped += 1
                continue
            compared += 1
            if ref == math.inf:
                assert got == math.inf, (f, w)
                infinite += 1
                continue
            assert got != math.inf, (f, w, ref)
            scale = 1.0 + abs(w) * radius + offset
            assert abs(got - ref) <= 1e-12 * scale, (f, w, got, ref)
    assert infinite > 0.1 * compared
    assert skipped < 0.1 * compared


def test_region_support_matches_the_lp():
    compared = infinite = 0
    for i, (rng, f) in enumerate(corpus(11, 60)):
        region = f.domain
        if not isinstance(region, ConvexRegion):
            continue
        if i % 2:
            region = thicken(region, rng.uniform(0.1, 1.0))
        # w along each half-plane's outward normal, where the support
        # function's domain has its edges and Re(d*w) rounds about 0 on a
        # ray d, and just off it.
        normals = [complex(nx, -ny) for nx, ny, _ in region.halfplanes]
        ws = sample_points(rng, []) + [0j]
        for n in normals:
            ws += [r * n * cmath.exp(1j * t) for r in rng.uniform(0.1, 9, 3)
                   for t in (0.0, 1e-9, -1e-9, 1e-6, -1e-6)]
        for w in ws:
            ref = lp_support(region, w)
            got = support_function(region, w)
            compared += 1
            if ref == math.inf:
                assert got == math.inf, (region, w)
                infinite += 1
                continue
            assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref)), (region, w)
    assert infinite > 0.1 * compared


def test_conjugate_at_builds_its_polygons_once(monkeypatch):
    body = ConvexBody([complex(math.cos(a), math.sin(a))
                       for a in np.linspace(0.0, 2 * math.pi, 7)[:-1]])
    f = PLConvexFunction([(1 + 1j, 0.0), (-1 + 0.5j, 0.2), (0.3 - 1j, -0.1),
                          (-0.5 - 0.5j, 0.4)], body)
    calls = []
    build = _lp.halfplane_polygon
    monkeypatch.setattr(_lp, "halfplane_polygon",
                        lambda *a, **k: calls.append(1) or build(*a, **k))
    rng = np.random.default_rng(3)
    for _ in range(200):
        conjugate_at(f, complex(*rng.uniform(-3, 3, 2)))
    assert 0 < len(calls) <= len(f.pieces) + 1
    # An equal function keeps a table of its own.
    calls.clear()
    conjugate_at(PLConvexFunction(f.pieces, body), 0.5 + 0.25j)
    assert calls


THIN_KINDS = ("box", "slab", "half-strip", "triangle", "wedge")


def thin_region(rng, kind):
    """An un-rounded region whose thickness (a box's or a triangle's
    height, a slab's width, a wedge's half-angle) is log-uniform, mostly
    far below 1.  Boxes thin both ways now and then (points), and slabs
    have zero width a quarter of the time (lines)."""
    c = complex(*rng.uniform(-1, 1, 2))
    a = rng.uniform(-math.pi, math.pi)
    n = cmath.exp(1j * a)

    def hp(normal, point):
        return (normal.real, normal.imag, (normal.conjugate() * point).real)

    def thin():
        return 10.0 ** rng.uniform(-16, 0)

    if kind == "wedge":
        # Below about 1e-11 the LP's growth tolerance reads a wedge as
        # bounded; test_thin_wedges_keep_their_interior covers those.
        half = 10.0 ** rng.uniform(-10, 0)
        return ConvexRegion([hp(n * cmath.exp(1j * s * (half + math.pi / 2)),
                                c) for s in (-1, 1)])
    width = thin()
    if kind == "triangle":
        # A base of length 2 with outward normal n and an apex at
        # height width below it, counterclockwise; the normals of its
        # two short sides turn away from -n by about width.
        p = (c - 1j * n, c + 1j * n,
             c - width * n + rng.uniform(-0.9, 0.9) * 1j * n)
        return ConvexRegion([hp(-1j * (q - p0) / abs(q - p0), p0)
                             for p0, q in zip(p, p[1:] + p[:1])])
    sides = [hp(n, c + width * n), hp(-n, c - width * n)]
    if kind == "slab":
        return ConvexRegion(sides if rng.random() < 0.75 else
                            [hp(n, c), hp(-n, c)])
    if kind == "half-strip":
        cut = cmath.exp(1j * (a + math.pi / 2 + rng.uniform(-1.2, 1.2)))
        return ConvexRegion(sides + [hp(cut, c)])
    length = rng.uniform(0.1, 2.0) * (thin() if rng.random() < 0.3 else 1.0)
    return ConvexRegion(sides + [hp(1j * n, c + length * 1j * n),
                                 hp(-1j * n, c - length * 1j * n)])


def test_thin_unrounded_regions_follow_their_core_polygon():
    # |x| <= 1, |y| <= 1e-10: its polygon drops the two short edges and
    # is the segment [-1, 1], all boundary, like the segment itself.
    box = ConvexRegion([(1.0, 0.0, 1.0), (-1.0, 0.0, 1.0),
                        (0.0, 1.0, 1e-10), (0.0, -1.0, 1e-10)])
    segment = ConvexRegion([(1.0, 0.0, 1.0), (-1.0, 0.0, 1.0),
                            (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)])
    assert len(box.core.vertices) == 2
    assert signed_distance(box, 0j) >= 0.0
    for s in (box, segment):
        assert not region_has_interior(s)
        assert affine_dimension(s) == 1
        with pytest.raises(ValueError, match="nonempty interior"):
            boundary_walk(s)
    # Rounded, both are stadiums of perimeter 4 + 2*pi*0.1.
    for s in (box, segment):
        contour = region_boundary_contour(thicken(s, 0.1))
        assert contour.closed
        assert contour.length == pytest.approx(4.0 + 0.2 * math.pi,
                                               rel=1e-9)


def test_region_has_interior_matches_the_lp_outside_its_tolerance_band():
    # The LP says a region has interior when its slack exceeds 1e-12;
    # the polygon, when it is not flat, and it drops edges up to about
    # 1e-9 long.  Between 1e-13 and 1e-8 the two may differ.
    compared = differ = no_polygon = 0
    rng = np.random.default_rng(23)
    for i in range(1500):
        region = thin_region(rng, THIN_KINDS[i % len(THIN_KINDS)])
        slack = _lp.interior_slack(region.halfplanes)
        if _lp.halfplane_polygon(region.halfplanes) is None:
            # The polygon reads triangles under about 1e-8 high as empty
            # when rounding moves a corner of two nearly parallel edges
            # outside the third; every query on them raises ValueError,
            # so they are counted, not compared.
            no_polygon += 1
            continue
        got = region_has_interior(region)
        if 1e-13 <= slack <= 1e-8:
            differ += got != (slack > 1e-12)
            continue
        compared += 1
        assert got == (slack > 1e-12), (region, slack)
        assert (affine_dimension(region) == 2) == got
    assert compared > 1000 and differ > 0 and no_polygon <= 59


def random_halfplanes(rng, kind):
    """1-7 half-planes with offsets |d| log-uniform in [1e-10, 100]:
    normals spread around the circle (bounded sets, or empty ones), within
    a half-turn (unbounded sets), or an exactly antiparallel pair and
    others (slabs, cut or not)."""
    k = int(rng.integers(1, 8))
    if kind == "bounded":
        k = max(k, 3)
        angles = (rng.uniform(0.0, 2 * math.pi)
                  + 2 * math.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k))
                  / k)
    elif kind == "unbounded":
        angles = rng.uniform(0.0, 2 * math.pi) + rng.uniform(0.0, 3.0, k)
    else:
        angles = rng.uniform(-math.pi, math.pi, max(k - 1, 1))
    normals = [(math.cos(a), math.sin(a)) for a in angles]
    if kind == "slab":
        normals.append((-normals[0][0], -normals[0][1]))
    return [(nx, ny, float(rng.choice((-1.0, 1.0)) * 10.0
                           ** rng.uniform(-10, 2))) for nx, ny in normals]


def test_the_polygon_decides_emptiness_like_the_lp():
    # Away from the tolerance band (LP slack within +-1e-7), the polygon
    # is None exactly when the LP finds the set empty.
    rng = np.random.default_rng(41)
    kept = empty = 0
    for i in range(3000):
        halfplanes = random_halfplanes(
            rng, ("bounded", "unbounded", "slab")[i % 3])
        slack = _lp.interior_slack(halfplanes)
        if abs(slack) <= 1e-7:
            continue
        kept += 1
        empty += slack < 0.0
        assert (_lp.halfplane_polygon(halfplanes) is None) == (slack < 0.0), (
            halfplanes, slack)
    assert kept > 2500 and 0.2 * kept < empty < 0.8 * kept


def test_thin_triangles_keep_their_polygon():
    # A base from -1 to 1 and an apex 1e-8 to 1e-6 above it, placed and
    # turned at random.  Where a short side meets the base, two nearly
    # antiparallel lines, the computed corner misses both lines by a few
    # 1e-9; a corner is checked only against the lines other than its own
    # two, so these triangles keep their polygon.
    rng = np.random.default_rng(49)
    ws = [complex(*rng.uniform(-2.1, 2.1, 2)) for _ in range(10)]
    for _ in range(400):
        c = complex(*rng.uniform(-1, 1, 2))
        turn = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        apex = complex(rng.uniform(-0.9, 0.9), 10.0 ** rng.uniform(-8, -6))
        p = [c + turn * z for z in (-1.0, 1.0, apex)]
        halfplanes = []
        for p0, q in zip(p, p[1:] + p[:1]):
            n = -1j * (q - p0) / abs(q - p0)
            halfplanes.append((n.real, n.imag, (n.conjugate() * p0).real))
        assert _lp.halfplane_polygon(halfplanes) is not None, p
        region = ConvexRegion(halfplanes)
        for w in ws:
            ref = max((z * w).real for z in p)
            assert abs(support_function(region, w) - ref) <= 1e-6, (p, w)


def nearly_empty_halfplanes(rng):
    """Two nearly antiparallel lines a hair apart, overlapping or not,
    and 1-4 lines more with |d| log-uniform in [1e-10, 100]."""
    c = complex(*rng.uniform(-1, 1, 2))
    n = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    m = -n * cmath.exp(1j * 10.0 ** rng.uniform(-12, -5))
    d = (n.conjugate() * c).real
    gap = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, -6))
    halfplanes = [(n.real, n.imag, d), (m.real, m.imag, gap - d)]
    for a in rng.uniform(-math.pi, math.pi, int(rng.integers(1, 5))):
        halfplanes.append((math.cos(a), math.sin(a), float(
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10, 2))))
    return halfplanes


def test_nearly_empty_sets_get_no_stray_vertex():
    # Empty by 3.5e-8 (LP slack), within the polygon's slack of 8.4e-8:
    # the corner of the nearly antiparallel first two lines is not cut
    # off by the sweep, yet lies 0.016 outside the third line.
    stray = [(0.503063479777005, -0.8642494635894493, -7.99784118458233e-10),
             (-0.5030660405968904, 0.8642479729789175, 7.997803951009269e-10),
             (0.9589076291585445, -0.2837184497729029, -0.016226474036884164),
             (0.018813453034680547, -0.9998230113299613, 82.5809031498437),
             (0.9533228857402217, -0.3019527703531399, 3.39519944305842e-07),
             (-0.14141696420367406, 0.9899501210846013,
              -0.0016835364873083662)]
    assert _lp.interior_slack(stray) < -1e-9
    assert _lp.halfplane_polygon(stray) is None
    # Every corner of a bounded polygon lies within the slack of each
    # line but its own two.
    rng = np.random.default_rng(53)
    bounded = 0
    for _ in range(2000):
        halfplanes = nearly_empty_halfplanes(rng)
        poly = _lp.halfplane_polygon(halfplanes)
        if poly is None or poly.rays:
            continue
        bounded += 1
        slack = 1e-9 * (1.0 + max(abs(d) for _, _, d in halfplanes))
        for i, (x, y) in enumerate(poly.vertices):
            for h in halfplanes:
                if h not in (poly.edges[i - 1], poly.edges[i]):
                    assert h[0] * x + h[1] * y <= h[2] + slack, (
                        halfplanes, poly)
    assert bounded > 300


def test_thin_wedges_keep_their_interior():
    # A wedge of half-angle 3e-12 holds a disk of radius 3e-6 at
    # distance 1e6 from its apex.  The LP counts growth below 1e-11 per
    # unit as none, and so reads wedges thinner than that as having no
    # interior.
    rng = np.random.default_rng(29)
    for half in 10.0 ** rng.uniform(-12, -10, 40):
        apex = complex(*rng.uniform(-1, 1, 2))
        region = sector(apex, rng.uniform(-math.pi, math.pi), half)
        axis = cmath.exp(1j * asymptotic_cone(region).axis)
        assert region_has_interior(region)
        assert affine_dimension(region) == 2
        assert signed_distance(region, apex + 1e6 * axis) < -0.5e6 * half


# The seven queries that read a set's core polygon.
SET_QUERIES = (
    lambda s: support_function(s, 1 - 2j),
    lambda s: signed_distance(s, 0.3 + 0.1j),
    boundary_walk,
    asymptotic_cone,
    affine_dimension,
    region_has_interior,
    lambda s: region_boundary_contour(s, 1e3),
)


def test_the_region_constructor_is_the_only_caller_of_the_lp(monkeypatch):
    rng = np.random.default_rng(31)
    sets = [random_domain(rng, kind) for kind in KINDS for _ in range(4)]
    thin = [thin_region(rng, kind) for kind in THIN_KINDS for _ in range(8)]
    sets += [s for s in thin
             if _lp.halfplane_polygon(s.halfplanes) is not None]
    sets += [thicken(s, rng.uniform(0.1, 1.0)) for s in sets]
    functions = [PLConvexFunction(
        [(complex(*rng.normal(0.0, 1.5, 2)), float(rng.normal()))
         for _ in range(k)], s) for s in sets for k in (0, 1, 3)]
    solve = _lp.maximize_min_affine

    def guarded(*args, **kwargs):
        caller = sys._getframe(1)
        if not (caller.f_code is _lp.interior_slack.__code__
                and caller.f_back.f_code is ConvexRegion.__init__.__code__):
            raise AssertionError("the LP ran outside the region constructor")
        return solve(*args, **kwargs)

    monkeypatch.setattr(_lp, "maximize_min_affine", guarded)
    for s in sets:
        for query in SET_QUERIES:
            try:
                query(s)
            except ValueError:
                pass  # a line, a flat core or an unrounded contour
    for f in functions:
        legendre_dimensions(f)
        for query in (conjugate, lambda f: conjugate_at(f, 0.5 + 0.25j)):
            try:
                query(f)
            except UnsupportedConjugate:
                pass  # a rounded domain, or an unbounded indicator
    # The guard does catch the LP elsewhere.
    with pytest.raises(AssertionError):
        _lp.interior_slack([(1.0, 0.0, 0.0)])


def test_each_region_sweeps_its_own_half_planes_once(monkeypatch):
    # The core polygon belongs to the region: an equal one built a second
    # time, or a thickened copy, sweeps its half-planes itself, once, at
    # its first query, and all seven queries read that one polygon.
    def regions():
        rng = np.random.default_rng(43)
        return [random_domain(rng, kind)
                for kind in ("gon-region", "sector", "cut-slab")]

    build = _lp.halfplane_polygon
    calls = []
    monkeypatch.setattr(_lp, "halfplane_polygon",
                        lambda *a, **k: calls.append(a[0]) or build(*a, **k))
    for first, equal in zip(regions(), regions()):
        assert equal == first and equal is not first
        for query in SET_QUERIES:
            query(first)
        for again in (equal, thicken(first, 0.5)):
            calls.clear()
            for query in SET_QUERIES:
                query(again)
            assert calls == [again.halfplanes]


def test_bounded_regions_conjugate_their_indicators_like_bodies():
    rng = np.random.default_rng(37)
    for _ in range(40):
        body = random_domain(rng, "gon-body")
        region = ConvexRegion(body.core.edges)
        g_body = conjugate(PLConvexFunction([], body))
        g_region = conjugate(PLConvexFunction([], region))
        assert g_region.domain.halfplanes == g_body.domain.halfplanes == ()
        assert [c for _, c in g_region.pieces] == [0.0] * len(body.vertices)
        # One piece per vertex, each within 1e-12 of the body's.
        for p, _ in g_body.pieces:
            assert min(abs(p - q) for q, _ in g_region.pieces) <= 1e-12 * (
                1.0 + abs(p))
        for w in sample_points(rng, []):
            ref = support_function(body, w)
            assert abs(support_function(region, w) - ref) <= 1e-12 * (
                1.0 + abs(ref))
            assert abs(g_region.value(w) - ref) <= 1e-12 * (1.0 + abs(ref))
    for unbounded in (sector(0j, 0.3, 0.7), ConvexRegion([(1.0, 0.0, 0.5)]),
                      ConvexRegion([])):
        with pytest.raises(UnsupportedConjugate):
            conjugate(PLConvexFunction([], unbounded))
