"""Cached polygons and cached conjugates against the LP they replace.

support_function on a region reads one polygon per region, and
conjugate_at reads one conjugate(f) per function.  The reference here is
_lp.maximize_min_affine, which still rebuilds a polygon per cell on every
call.  The corpus covers bounded and unbounded domains: 3-6-gons (as
bodies and as regions), sectors, the plane, half-planes and slabs cut at
one end.
"""

import cmath
import math

import numpy as np

from convlap import _lp, legendre
from convlap.convexgeom import (
    ConvexBody,
    ConvexRegion,
    sector,
    support_function,
    thicken,
)
from convlap.legendre import PLConvexFunction, conjugate, conjugate_at

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
    legendre._tabulated.cache_clear()
    rng = np.random.default_rng(3)
    for _ in range(200):
        conjugate_at(f, complex(*rng.uniform(-3, 3, 2)))
    assert 0 < len(calls) <= len(f.pieces) + 1
