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
fattened the same way; it may be unbounded.  Both support the same
operations: support function, thickening, signed distance.  Cones keep
their own small type because the degenerate cases ({0}, a ray, a line,
a half-plane, the whole plane) all matter downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

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
    is a disk); exactly two are not.
    """

    vertices: tuple[complex, ...]
    rounding: float = 0.0

    def __init__(self, vertices, rounding: float = 0.0):
        verts = tuple(complex(v) for v in vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "rounding", float(rounding))
        self._validate()

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
    if isinstance(s, ConvexBody):
        core = max((v * w).real for v in s.vertices)
        return core + s.rounding * abs(w)
    if isinstance(s, ConvexRegion):
        # Finite exactly when Re(d*w) <= 0 along every ray d of the core;
        # then the sup is attained at one of its points.
        poly = _core_polygon(s.halfplanes)
        u, v, r = w.real, w.imag, abs(w)
        if any(dx * u - dy * v > 1e-11 * r for dx, dy in poly.rays):
            return math.inf
        return max(x * u - y * v for x, y in poly.points) + s.rounding * r
    raise TypeError(f"unsupported set type {type(s).__name__}")


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

def _seg_dist(z: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = (ab * ab.conjugate()).real
    if denom == 0.0:
        return abs(z - a)
    t = ((z - a) * ab.conjugate()).real / denom
    t = min(max(t, 0.0), 1.0)
    return abs(z - (a + t * ab))


def _polygon_signed(vertices: tuple[complex, ...], z: complex) -> float:
    n = len(vertices)
    if n == 1:
        return abs(z - vertices[0])
    d = min(_seg_dist(z, vertices[i], vertices[(i + 1) % n])
            for i in range(n))
    inside = True
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        cr = ((b - a).real * (z - a).imag - (b - a).imag * (z - a).real)
        if cr < 0.0:
            inside = False
            break
    return -d if inside else d


@lru_cache(maxsize=256)
def _core_polygon(halfplanes) -> _lp.Polygon:
    """The un-rounded core of a region, built once per half-plane list:
    every region query reads it."""
    poly = _lp.halfplane_polygon(halfplanes)
    if poly is None:
        raise ValueError("the half-planes have empty intersection")
    return poly


def _region_core_signed(region: ConvexRegion, z: complex) -> float:
    hp = region.halfplanes
    if not hp:
        return -math.inf
    viol = max(nx * z.real + ny * z.imag - d for nx, ny, d in hp)
    if viol <= 0.0:
        # Interior: nearest boundary point lies on the least-slack line
        # and its foot is always feasible for a convex intersection.
        return viol
    best = math.inf
    for nx, ny, d in hp:
        t = nx * z.real + ny * z.imag - d
        foot = complex(z.real - t * nx, z.imag - t * ny)
        if _lp._feasible((foot.real, foot.imag), hp, 1e-9 * (1.0 + abs(d))):
            best = min(best, abs(z - foot))
    for x, y in _core_polygon(hp).vertices:
        best = min(best, abs(z - complex(x, y)))
    return best


def signed_distance(s, z: complex) -> float:
    """Negative inside, positive outside, zero on the boundary.

    For a region with no half-planes (the whole plane) this is -inf.
    """
    z = complex(z)
    if isinstance(s, ConvexBody):
        return _polygon_signed(s.vertices, z) - s.rounding
    if isinstance(s, ConvexRegion):
        return _region_core_signed(s, z) - s.rounding
    raise TypeError(f"unsupported set type {type(s).__name__}")


# ---- cones ----

def asymptotic_cone(s) -> Cone:
    """Directions v with z + t*v staying in the set for all t >= 0.

    Rounding never changes it; a bounded set gives the zero cone, and a
    cone is its own asymptotic cone.
    """
    if isinstance(s, Cone):
        return s
    if isinstance(s, ConvexBody):
        return Cone("zero")
    if not isinstance(s, ConvexRegion):
        raise TypeError(f"unsupported set type {type(s).__name__}")
    poly = _core_polygon(s.halfplanes)
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


def region_contains_line(region: ConvexRegion) -> bool:
    # Only a set containing a line has no vertex.
    return not _core_polygon(region.halfplanes).vertices


def region_is_bounded(region: ConvexRegion) -> bool:
    return not _core_polygon(region.halfplanes).rays


def region_has_interior(region: ConvexRegion) -> bool:
    if region.rounding > 0.0:
        return True
    return _lp.interior_slack(region.halfplanes) > 1e-12


def affine_dimension(s) -> int:
    """Real dimension of the affine hull of the set."""
    if isinstance(s, ConvexBody):
        if s.rounding > 0.0:
            return 2
        return 0 if len(s.vertices) == 1 else 2
    if isinstance(s, ConvexRegion):
        if region_has_interior(s):
            return 2
        # A point, or else a segment, a ray or a line.
        poly = _core_polygon(s.halfplanes)
        return 0 if len(poly.vertices) == 1 and not poly.rays else 1
    if isinstance(s, Cone):
        if s.kind == "sector":
            return 2 if s.half_width > 1e-12 else 1
        return {"zero": 0, "line": 1, "plane": 2}[s.kind]
    raise TypeError(f"unsupported set type {type(s).__name__}")


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

    Bodies and bounded regions give closed walks.  Unbounded regions
    containing no line give open chains.  Regions containing a line are
    rejected: their boundary is not a single chain.
    """
    if isinstance(s, ConvexBody):
        verts = s.vertices
        if len(verts) == 1:
            return BoundaryWalk(True, (), (verts[0],))
        n = len(verts)
        normals = []
        for i in range(n):
            e = verts[(i + 1) % n] - verts[i]
            normals.append(math.atan2(-e.real, e.imag))
        return BoundaryWalk(True, tuple(normals), tuple(verts))
    if not isinstance(s, ConvexRegion):
        raise TypeError(f"unsupported set type {type(s).__name__}")
    if region_contains_line(s):
        raise ValueError("region contains a line: its boundary is not "
                         "a single chain")
    if not region_has_interior(s):
        raise ValueError("boundary walk needs a set with nonempty interior")
    poly = _core_polygon(s.halfplanes)
    return BoundaryWalk(not poly.rays,
                        tuple(math.atan2(ny, nx) for nx, ny, _ in poly.edges),
                        tuple(complex(x, y) for x, y in poly.vertices))
