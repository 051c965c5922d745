"""Convex bodies, regions, and cones in the complex plane.

Pairing convention
------------------
The pairing of z = x + iy against a dual variable w = u + iv is the
bilinear complex product, so ``Re<z, w> = Re(z*w) = x*u - y*v``.  This
makes exp(<z, w>) = exp(z*w) holomorphic in both slots.  In Euclidean
terms the pairing couples the vector (x, y) with (u, -v), i.e. with the
conjugate of w, and every duality computation below routes through that
conversion exactly once.

Sets come in two flavors.  A ConvexBody is a compact set: the convex
hull of finitely many vertices fattened by a closed disk of radius
``rounding``.  A ConvexRegion is a closed intersection of half-planes,
fattened the same way; it may be unbounded.  Each set has one core
polygon (``core``, an ``_lp.Polygon``): a body builds it from its
vertices, a region sweeps its half-planes at its first query.  The
support function, signed distance, boundary walk, asymptotic cone,
affine dimension, boundedness and interior all read that polygon alone,
so bodies and regions share every formula; the LP is left only in the
region constructor, which rejects an empty intersection.  Cones keep
their own small type because the degenerate cases ({0}, a ray, a line,
a half-plane, the whole plane) all matter downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

from . import _lp
from ._lp import TWO_PI, _norm_angle, ang_dist

__all__ = [
    "ConvexBody",
    "ConvexRegion",
    "sector",
    "Cone",
    "ConeError",
    "pairing_re",
    "support_function",
    "thicken",
    "signed_distance",
    "asymptotic_cone",
    "polar_cone",
    "bisector",
]


def pairing_re(z: complex, w: complex) -> float:
    """Re<z, w> under the complex-product pairing."""
    return (z * w).real


class ConeError(ValueError):
    """Raised for cone operations outside their stated preconditions."""


@dataclass(frozen=True)
class ConvexBody:
    """conv(vertices) + closed disk of radius ``rounding``.

    vertices: counterclockwise, strictly convex (no repeated point, no
    three collinear).  A single vertex is allowed (with rounding > 0 it
    is a disk); exactly two are not.  core: the un-rounded polygon, its
    edges' half-planes in vertex order (a single vertex keeps the four
    axis-parallel half-planes through it).
    """

    vertices: tuple[complex, ...]
    rounding: float = 0.0
    core: _lp.Polygon = field(init=False, repr=False, compare=False)

    def __init__(self, vertices, rounding: float = 0.0):
        verts = tuple(complex(v) for v in vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "rounding", float(rounding))
        self._validate()
        object.__setattr__(self, "core", _lp.Polygon(
            tuple((v.real, v.imag) for v in verts), (), _edges(verts)))

    def _validate(self) -> None:
        if not self.vertices:
            raise ValueError("a body needs at least one vertex")
        if len(self.vertices) == 2:
            raise ValueError("two-vertex bodies are not supported; "
                             "use a region for flat sets")
        if not all(math.isfinite(v.real) and math.isfinite(v.imag)
                   for v in self.vertices):
            raise ValueError("vertices must be finite")
        if not (math.isfinite(self.rounding) and self.rounding >= 0.0):
            raise ValueError("rounding must be finite and >= 0")
        n = len(self.vertices)
        if n >= 3:
            scale = max(abs(v) for v in self.vertices) + 1.0
            for i in range(n):
                a = self.vertices[i]
                b = self.vertices[(i + 1) % n]
                c = self.vertices[(i + 2) % n]
                cr = ((b - a).real * (c - b).imag
                      - (b - a).imag * (c - b).real)
                if cr <= 1e-12 * scale * scale:
                    raise ValueError(
                        "vertices must be strictly convex and "
                        "counterclockwise")


def _edges(verts) -> tuple:
    """The half-plane (nx, ny, d) carrying each edge of a counterclockwise
    vertex cycle; a single vertex is cut out by four."""
    if len(verts) == 1:
        v = verts[0]
        return ((1.0, 0.0, v.real), (-1.0, 0.0, -v.real),
                (0.0, 1.0, v.imag), (0.0, -1.0, -v.imag))
    hp = []
    n = len(verts)
    for i in range(n):
        e = verts[(i + 1) % n] - verts[i]
        norm = abs(e)
        nx, ny = e.imag / norm, -e.real / norm
        hp.append((nx, ny, nx * verts[i].real + ny * verts[i].imag))
    return tuple(hp)


@dataclass(frozen=True)
class ConvexRegion:
    """Intersection of half-planes {z : n . z <= d}, fattened by
    ``rounding``.  Normals are stored unit-length; inputs are normalized.
    The intersection must be nonempty."""

    halfplanes: tuple[tuple[float, float, float], ...]
    rounding: float = 0.0

    def __init__(self, halfplanes, rounding: float = 0.0):
        hp = []
        for nx, ny, d in halfplanes:
            nx, ny, d = float(nx), float(ny), float(d)
            norm = math.hypot(nx, ny)
            if not (math.isfinite(norm) and norm > 0.0 and math.isfinite(d)):
                raise ValueError("half-plane needs a nonzero finite normal")
            hp.append((nx / norm, ny / norm, d / norm))
        object.__setattr__(self, "halfplanes", tuple(hp))
        object.__setattr__(self, "rounding", float(rounding))
        if not (math.isfinite(self.rounding) and self.rounding >= 0.0):
            raise ValueError("rounding must be finite and >= 0")
        if _lp.interior_slack(self.halfplanes) < -1e-9:
            raise ValueError("the half-planes have empty intersection")

    @cached_property
    def core(self) -> _lp.Polygon:
        """The un-rounded polygon, swept at the region's first query."""
        poly = _lp.halfplane_polygon(self.halfplanes)
        if poly is None:
            raise ValueError("the half-planes have empty intersection")
        return poly


def _core(s) -> _lp.Polygon:
    if not isinstance(s, (ConvexBody, ConvexRegion)):
        raise TypeError(f"unsupported set type {type(s).__name__}")
    return s.core


def sector(apex: complex, axis: float, half_angle: float) -> ConvexRegion:
    """The closed sector of directions within half_angle of axis at the
    apex, 0 < half_angle < pi/2, as the intersection of its two edges'
    half-planes."""
    if not 0.0 < half_angle < 0.5 * math.pi:
        raise ValueError("the sector half-angle must lie in (0, pi/2)")
    apex = complex(apex)
    hp = []
    for sgn in (-1.0, 1.0):
        t = axis + sgn * (half_angle + 0.5 * math.pi)
        nx, ny = math.cos(t), math.sin(t)
        hp.append((nx, ny, nx * apex.real + ny * apex.imag))
    return ConvexRegion(hp)


@dataclass(frozen=True)
class Cone:
    """Closed convex cone at the origin.

    kind is one of "zero", "plane", "sector", "line".  A sector is the
    set of directions within ``half_width`` of ``axis`` (half_width in
    [0, pi/2]; 0 is a ray, pi/2 a closed half-plane, and up to 1e-12
    past pi/2 is rounding, stored as pi/2).  A line is the full line
    through the origin with direction ``axis``.
    """

    kind: str
    axis: float = 0.0
    half_width: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "plane", "sector", "line"):
            raise ConeError(f"unknown cone kind {self.kind!r}")
        object.__setattr__(self, "axis", _norm_angle(float(self.axis)))
        hw = float(self.half_width)
        if self.kind == "sector" and not (0.0 <= hw <= 0.5 * math.pi + 1e-12):
            raise ConeError("sector half-width must lie in [0, pi/2]")
        object.__setattr__(self, "half_width", min(hw, 0.5 * math.pi))

    def contains(self, z: complex) -> bool:
        """Membership up to an angle of 1e-9."""
        z = complex(z)
        if abs(z) == 0.0:
            return True
        if self.kind == "plane":
            return True
        if self.kind == "zero":
            return False
        theta = math.atan2(z.imag, z.real)
        if self.kind == "line":
            d = ang_dist(theta, self.axis)
            return d <= 1e-9 or d >= math.pi - 1e-9
        return ang_dist(theta, self.axis) <= self.half_width + 1e-9

    def strictly_contains(self, z: complex, margin: float = 0.0) -> bool:
        """Interior membership with a Euclidean clearance from the
        boundary of at least ``margin``; False for a non-finite z."""
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return False
        if self.kind == "plane":
            return True
        if self.kind in ("zero", "line"):
            return False
        if abs(z) <= margin:
            return False
        theta = math.atan2(z.imag, z.real)
        if ang_dist(theta, self.axis) >= self.half_width:
            return False
        for sgn in (-1.0, 1.0):
            e = _cis(self.axis + sgn * self.half_width)
            t = max((z * e.conjugate()).real, 0.0)
            if abs(z - t * e) < margin:
                return False
        return True


def _cis(theta: float) -> complex:
    return complex(math.cos(theta), math.sin(theta))


# ---- support functions ----

def support_function(s, w: complex) -> float:
    """h_s(w) = sup_{z in s} Re(z*w).  May be +inf for regions."""
    w = complex(w)
    # Finite exactly when Re(d*w) <= 0 along every ray d of the core; then
    # the sup is attained at one of its points.
    poly = _core(s)
    u, v, r = w.real, w.imag, abs(w)
    if poly.rays and any(dx * u - dy * v > 1e-11 * r
                         for dx, dy in poly.rays):
        return math.inf
    return max([x * u - y * v for x, y in poly.points]) + s.rounding * r


def thicken(s, eps: float):
    """Minkowski sum with the closed disk of radius eps > 0.

    Implemented as exact field addition on ``rounding``, so support
    functions satisfy h_thick(w) = h_s(w) + eps*|w| wherever finite and
    signed distances drop by exactly eps.
    """
    eps = float(eps)
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError("thickening radius must be positive")
    if isinstance(s, (ConvexBody, ConvexRegion)):
        return replace(s, rounding=s.rounding + eps)
    raise TypeError(f"unsupported set type {type(s).__name__}")


# ---- signed distance ----

def _flat(poly: _lp.Polygon) -> bool:
    """Whether the core is a point, a segment or a ray: the lines of its
    edges then cut out more than the set."""
    n = len(poly.vertices)
    if not poly.rays:
        return n < 3
    if n != 1:
        return False
    (ix, iy), (ox, oy) = poly.rays
    return abs(ix * oy - iy * ox) <= 1e-12


def _core_signed(poly: _lp.Polygon, z: complex) -> float:
    edges = poly.edges
    if not edges:
        return -math.inf
    x, y = z.real, z.imag
    ts = [nx * x + ny * y - d for nx, ny, d in edges]
    viol = max(ts)
    if viol <= 0.0 and not _flat(poly):
        # Interior: the nearest boundary point lies on the least-slack
        # edge.
        return viol
    # Outside, or on a flat core: the nearest point is a vertex or the
    # foot on the line of an edge, if the foot falls within the edge; an
    # edge that z lies behind is not nearer than one it lies beyond.
    # Edge i runs from ends[i] to ends[i + 1], None where it comes from
    # or goes to infinity; a point's edges add nothing to its vertex.
    verts = poly.vertices
    if poly.rays:
        ends = (None,) + verts + (None,) * (len(edges) - len(verts))
    else:
        ends = verts + verts[:1]
    best = min([abs(z - complex(vx, vy)) for vx, vy in verts],
               default=math.inf)
    for (nx, ny, d), t, a, b in zip(edges, ts, ends, ends[1:]):
        if t < 0.0 < viol:
            continue
        # The position along the edge, the same for z and its foot.
        s = nx * y - ny * x
        slack = 1e-9 * (1.0 + abs(d))
        if ((a is None or s >= nx * a[1] - ny * a[0] - slack)
                and (b is None or s <= nx * b[1] - ny * b[0] + slack)):
            best = min(best, abs(z - complex(x - t * nx, y - t * ny)))
    return best


def signed_distance(s, z: complex) -> float:
    """Negative inside, positive outside, zero on the boundary.

    For a region with no half-planes (the whole plane) this is -inf.
    """
    return _core_signed(_core(s), complex(z)) - s.rounding


# ---- cones ----

def asymptotic_cone(s) -> Cone:
    """Directions v with z + t*v staying in the set for all t >= 0.

    Rounding never changes it; a bounded set gives the zero cone, and a
    cone is its own asymptotic cone.
    """
    if isinstance(s, Cone):
        return s
    poly = _core(s)
    if not poly.rays:
        return Cone("zero")
    if not poly.edges:
        return Cone("plane")
    (ix, iy), (ox, oy) = poly.rays[:2]
    lo = math.atan2(oy, ox)
    if poly.vertices:
        # From the exit ray counterclockwise to the entry ray; a turn past
        # pi is rounding across a single ray.
        width = (math.atan2(iy, ix) - lo) % TWO_PI
        hi = lo + (width if width <= math.pi else 0.0)
    elif len(poly.edges) == 1:
        hi = lo + math.pi
    else:
        return Cone("line", lo)
    return Cone("sector", 0.5 * (lo + hi), 0.5 * (hi - lo))


def polar_cone(c: Cone) -> Cone:
    """{w : Re(z*w) <= 0 for all z in c}, under the product pairing.

    In Euclidean terms this is the conjugate-reflected polar, which is
    why a sector about angle a maps to a sector about pi - a.
    """
    if not isinstance(c, Cone):
        raise TypeError("polar_cone expects a Cone")
    if c.kind == "zero":
        return Cone("plane")
    if c.kind == "plane":
        return Cone("zero")
    if c.kind == "line":
        return Cone("line", 0.5 * math.pi - c.axis)
    return Cone("sector", math.pi - c.axis, 0.5 * math.pi - c.half_width)


def bisector(c: Cone) -> complex:
    """Unit vector on the axis of a cone with nonempty interior.

    Defined for sectors with positive half-width (half-planes included);
    everything else has empty interior or no distinguished axis.
    """
    if not isinstance(c, Cone):
        raise TypeError("bisector expects a Cone")
    if c.kind != "sector" or c.half_width <= 0.0:
        raise ConeError("bisector needs a cone with nonempty interior")
    return _cis(c.axis)


def region_contains_line(s) -> bool:
    # Only a set containing a line has no vertex.
    return not _core(s).vertices


def region_is_bounded(s) -> bool:
    return not _core(s).rays


def region_has_interior(s) -> bool:
    if s.rounding > 0.0:
        return True
    poly = _core(s)
    if not poly.vertices and len(poly.edges) == 2:
        # A slab; one no wider than 2e-12 is a line.
        return poly.edges[0][2] + poly.edges[1][2] > 2e-12
    return not _flat(poly)


def affine_dimension(s) -> int:
    """Real dimension of the affine hull of the set."""
    if isinstance(s, Cone):
        if s.kind == "sector":
            return 2 if s.half_width > 1e-12 else 1
        return {"zero": 0, "line": 1, "plane": 2}[s.kind]
    poly = _core(s)
    if region_has_interior(s):
        return 2
    # A point, or else a segment, a ray or a line.
    return 0 if len(poly.vertices) == 1 and not poly.rays else 1


# ---- boundary structure (consumed by the contour module) ----

@dataclass(frozen=True)
class BoundaryWalk:
    """Counterclockwise facet walk of a polyhedral core.

    closed: whether the walk is a cycle.  normals: facet normal angles in
    walk order.  corners: junction points; for a closed walk corner[i]
    joins facet[i-1] to facet[i] (cyclically, len == len(normals)), for
    an open walk corner[i] joins facet[i] to facet[i+1]
    (len == len(normals) - 1) and the first/last facets run to infinity.
    """

    closed: bool
    normals: tuple[float, ...]
    corners: tuple[complex, ...]


def boundary_walk(s) -> BoundaryWalk:
    """Facet structure of the un-rounded core, ordered counterclockwise.

    Bounded sets give closed walks, and a rounded point a walk with no
    facet.  Unbounded regions containing no line give open chains.
    Regions containing a line are rejected: their boundary is not a
    single chain.
    """
    poly = _core(s)
    if not poly.vertices:
        raise ValueError("region contains a line: its boundary is not "
                         "a single chain")
    if not region_has_interior(s):
        raise ValueError("boundary walk needs a set with nonempty interior")
    corners = tuple(complex(x, y) for x, y in poly.vertices)
    if len(corners) == 1 and not poly.rays:
        return BoundaryWalk(True, (), corners)
    return BoundaryWalk(not poly.rays,
                        tuple(math.atan2(ny, nx) for nx, ny, _ in poly.edges),
                        corners)
