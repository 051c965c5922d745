"""Oriented contours and complex line integration by two rules.

Contours are ordered lists of segments and circular arcs; orientation is
the list order (arcs sweep from their start angle to their end angle,
counterclockwise when the sweep is positive).  Boundary contours of
thickened convex sets leave the set on the left.

A contour that is one full circle is integrated with the nested periodic
trapezoid rule (Trefethen & Weideman, "The exponentially convergent
trapezoidal rule", SIAM Rev. 2014), vectorised in numpy: the integrand
is called once per level on the whole node array.  Nodes and weights are
cached per (circle, node count), and the node count doubles from 64 (or
the caller's minimum) up to 4096.  The error estimate is the gap between
the n- and 2n-node sums, both read off one set of 2n nodes, plus a
roundoff floor of 16 eps sum |f_k w_k|.

Every other contour is integrated piece by piece with composite
15-point Gauss-Legendre and dyadic adaptive subdivision against an
absolute target, calling the integrand on one point at a time.

Node order, subdivision order and accumulation are fixed, so results of
both rules are bitwise reproducible for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convexgeom import (
    ConvexBody,
    ConvexRegion,
    boundary_walk,
    region_is_bounded,
)

__all__ = [
    "Segment",
    "Arc",
    "OrientedContour",
    "IntegralResult",
    "QuadratureError",
    "circle_contour",
    "region_boundary_contour",
    "open_boundary_rays",
    "open_boundary_extent",
    "circle_hit",
    "integrate",
    "winding_number",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_GL_NODES = tuple(float(x) for x in _GL_NODES)
_GL_WEIGHTS = tuple(float(x) for x in _GL_WEIGHTS)

# Node counts of the periodic trapezoid rule on a full circle: the first
# level (unless the caller asks for more) and the cap.
_TRAPEZOID_MIN_NODES = 64
_TRAPEZOID_MAX_NODES = 4096
_EPS = float(np.finfo(float).eps)


def _cis(t: float) -> complex:
    return complex(math.cos(t), math.sin(t))


@dataclass(frozen=True)
class Segment:
    start: complex
    end: complex

    def point(self, t: float) -> complex:
        return self.start + t * (self.end - self.start)

    def derivative(self, t: float) -> complex:
        return self.end - self.start

    @property
    def length(self) -> float:
        return abs(self.end - self.start)

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start)


@dataclass(frozen=True)
class Arc:
    """Circular arc from angle0 to angle1; positive sweep is CCW."""

    center: complex
    radius: float
    angle0: float
    angle1: float

    def point(self, t: float) -> complex:
        a = self.angle0 + t * (self.angle1 - self.angle0)
        return self.center + self.radius * _cis(a)

    def derivative(self, t: float) -> complex:
        a = self.angle0 + t * (self.angle1 - self.angle0)
        return 1j * (self.angle1 - self.angle0) * self.radius * _cis(a)

    @property
    def length(self) -> float:
        return self.radius * abs(self.angle1 - self.angle0)

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.angle1, self.angle0)


@dataclass(frozen=True)
class OrientedContour:
    pieces: tuple

    def __init__(self, pieces):
        ps = tuple(pieces)
        if not ps:
            raise ValueError("a contour needs at least one piece")
        scale = 1.0 + max(abs(p.point(0.0)) for p in ps)
        for a, b in zip(ps, ps[1:]):
            if abs(a.point(1.0) - b.point(0.0)) > 1e-12 * scale:
                raise ValueError("consecutive pieces must share endpoints")
        object.__setattr__(self, "pieces", ps)

    @property
    def start(self) -> complex:
        return self.pieces[0].point(0.0)

    @property
    def end(self) -> complex:
        return self.pieces[-1].point(1.0)

    @property
    def closed(self) -> bool:
        scale = 1.0 + abs(self.start)
        return abs(self.end - self.start) <= 1e-12 * scale

    @property
    def length(self) -> float:
        return sum(p.length for p in self.pieces)

    def reversed(self) -> "OrientedContour":
        return OrientedContour(tuple(p.reversed()
                                     for p in self.pieces[::-1]))


def circle_contour(center: complex, r: float) -> OrientedContour:
    """Positively oriented circle; winding +1 about the center."""
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError("circle radius must be positive")
    return OrientedContour([Arc(complex(center), float(r), 0.0, 2 * math.pi)])


def _offset_closed_pieces(normals, corners, rho):
    """Offset boundary of a closed facet walk, corner arcs included."""
    n = len(normals)
    pieces = []
    for i in range(n):
        prev = normals[i - 1]
        cur = normals[i]
        if rho > 0.0:
            sweep = (cur - prev) % (2 * math.pi)
            pieces.append(Arc(corners[i], rho, prev, prev + sweep))
        a = corners[i] + rho * _cis(cur)
        b = corners[(i + 1) % n] + rho * _cis(cur)
        pieces.append(Segment(a, b))
    return pieces


def _open_chain_data(s):
    """Facet data of an unbounded thickened region's boundary chain.

    Returns (pieces, b_in, d_in, b_out, d_out): the finite middle part,
    and the two offset boundary rays.  The chain traverses the incoming
    ray from infinity to b_in, then the middle pieces, then leaves b_out
    along d_out; directions point toward infinity.
    """
    walk = boundary_walk(s)
    rho = s.rounding
    normals = walk.normals
    corners = walk.corners
    n = len(normals)
    pieces = []
    for i in range(n - 1):
        a = corners[i] + rho * _cis(normals[i])
        if i > 0:
            prev_pt = corners[i - 1] + rho * _cis(normals[i])
            pieces.append(Segment(prev_pt, a))
        if rho > 0.0:
            sweep = (normals[i + 1] - normals[i]) % (2 * math.pi)
            pieces.append(Arc(corners[i], rho, normals[i],
                              normals[i] + sweep))
    b_in = corners[0] + rho * _cis(normals[0])
    d_in = -_cis(normals[0] + 0.5 * math.pi)
    b_out = corners[-1] + rho * _cis(normals[-1])
    d_out = _cis(normals[-1] + 0.5 * math.pi)
    return pieces, b_in, d_in, b_out, d_out


def open_boundary_rays(s):
    """The two infinite offset rays of an unbounded boundary chain, as
    (base, unit direction toward infinity) pairs, entry ray first."""
    _, b_in, d_in, b_out, d_out = _open_chain_data(s)
    return (b_in, d_in), (b_out, d_out)


def open_boundary_extent(s) -> float:
    """Largest modulus reached by the finite part of an unbounded
    boundary chain; truncation radii must stay beyond it."""
    mid, b_in, _, b_out, _ = _open_chain_data(s)
    pts = [b_in, b_out]
    for p in mid:
        pts += [p.point(0.0), p.point(0.5), p.point(1.0)]
    return max(abs(p) for p in pts)


def circle_hit(base: complex, direction: complex, R: float) -> float:
    """Largest t >= 0 with |base + t*direction| = R, for |direction| = 1.

    Raises when the ray from base misses or merely grazes C(0,R).
    """
    beta = (base * direction.conjugate()).real
    disc = beta * beta + R * R - (base * base.conjugate()).real
    if disc <= 1e-12 * R * R:
        raise ValueError("truncation circle does not cut the ray "
                         "transversally: increase R")
    t = -beta + math.sqrt(disc)
    if t <= 0.0:
        raise ValueError("ray leaves C(0,R) behind its base: increase R")
    return t


def region_boundary_contour(s, truncation: float | None = None,
                            with_closing_arc: bool = False):
    """Positively oriented boundary of a thickened convex set.

    Bounded sets give a closed contour (truncation is ignored).  An
    unbounded region needs a truncation radius R enclosing every corner;
    the chain then starts and ends on C(0,R).  With with_closing_arc the
    arc of C(0,R) closing the truncated region (from the chain's exit
    back to its entry, counterclockwise) is returned as a second value.
    """
    if isinstance(s, ConvexBody):
        walk = boundary_walk(s)
        if len(walk.normals) == 0:
            if s.rounding <= 0.0:
                raise ValueError("a single point has no boundary contour")
            out = circle_contour(walk.corners[0], s.rounding)
            return (out, None) if with_closing_arc else out
        out = OrientedContour(
            _offset_closed_pieces(walk.normals, walk.corners, s.rounding))
        return (out, None) if with_closing_arc else out
    if not isinstance(s, ConvexRegion):
        raise TypeError(f"unsupported set type {type(s).__name__}")
    if region_is_bounded(s):
        walk = boundary_walk(s)
        out = OrientedContour(
            _offset_closed_pieces(walk.normals, walk.corners, s.rounding))
        return (out, None) if with_closing_arc else out
    if truncation is None:
        raise ValueError("an unbounded region needs a truncation radius")
    R = float(truncation)
    mid, b_in, d_in, b_out, d_out = _open_chain_data(s)
    interior_pts = [b_in, b_out]
    for p in mid:
        interior_pts += [p.point(0.0), p.point(0.5), p.point(1.0)]
    if max(abs(p) for p in interior_pts) >= R * (1.0 - 1e-9):
        raise ValueError("truncation circle must enclose every corner: "
                         "increase R")
    t_in = circle_hit(b_in, d_in, R)
    t_out = circle_hit(b_out, d_out, R)
    entry = b_in + t_in * d_in
    exit_ = b_out + t_out * d_out
    pieces = [Segment(entry, b_in)] + mid + [Segment(b_out, exit_)]
    out = OrientedContour(pieces)
    if not with_closing_arc:
        return out
    a0 = math.atan2(exit_.imag, exit_.real)
    a1 = math.atan2(entry.imag, entry.real)
    sweep = (a1 - a0) % (2 * math.pi)
    return out, Arc(0j, R, a0, a0 + sweep)


# ---- quadrature ----

@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error: float


class QuadratureError(RuntimeError):
    """Adaptive subdivision hit its depth limit, or the trapezoid rule
    its node cap; .partial holds the best value accumulated so far."""

    def __init__(self, message: str, partial: complex):
        super().__init__(message)
        self.partial = partial


def _gl15(g, piece, t0: float, t1: float) -> complex:
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    acc = 0j
    for x, wgt in zip(_GL_NODES, _GL_WEIGHTS):
        t = mid + half * x
        acc += wgt * g(piece.point(t)) * piece.derivative(t)
    return acc * half


def _adaptive(g, piece, t0, t1, whole, tol, depth, max_depth):
    mid = 0.5 * (t0 + t1)
    left = _gl15(g, piece, t0, mid)
    right = _gl15(g, piece, mid, t1)
    err = abs(left + right - whole)
    if err <= tol or err <= 1e-16 * (1.0 + abs(whole)):
        return left + right, err
    if depth >= max_depth:
        raise QuadratureError("integrand irregular on path", left + right)
    lv, le = _adaptive(g, piece, t0, mid, left, 0.5 * tol,
                       depth + 1, max_depth)
    rv, re_ = _adaptive(g, piece, mid, t1, right, 0.5 * tol,
                        depth + 1, max_depth)
    return lv + rv, le + re_


def _is_full_circle(c: OrientedContour) -> bool:
    """Whether c is one arc sweeping exactly once around its center."""
    return (len(c.pieces) == 1 and isinstance(c.pieces[0], Arc)
            and abs(c.pieces[0].angle1 - c.pieces[0].angle0) == 2 * math.pi)


@lru_cache(maxsize=64)
def _trapezoid_nodes(arc: Arc, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z_k = z(t_k), t_k = k/n, of the n-point periodic trapezoid
    rule on a full-circle arc, and its weights z'(t_k)/n.  Cached per
    (arc, n); the arrays are read-only."""
    theta = arc.angle0 + (arc.angle1 - arc.angle0) * (np.arange(n) / n)
    unit = np.cos(theta) + 1j * np.sin(theta)
    nodes = arc.center + arc.radius * unit
    weights = (1j * (arc.angle1 - arc.angle0) * arc.radius / n) * unit
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _trapezoid(arc: Arc, g, abs_tol: float, min_nodes: int) -> IntegralResult:
    """Nested periodic trapezoid rule; g maps a node array to values."""
    n = _TRAPEZOID_MIN_NODES
    while n < min(min_nodes, _TRAPEZOID_MAX_NODES):
        n *= 2
    while True:
        nodes, weights = _trapezoid_nodes(arc, n)
        f = g(nodes)
        fine = complex(f @ weights)
        # The n/2-node rule is the even-indexed half, at twice the weight.
        coarse = 2.0 * complex(f[::2] @ weights[::2])
        floor = 16.0 * _EPS * float(np.abs(f).sum()) * abs(weights[0])
        gap = abs(fine - coarse)
        if gap <= max(abs_tol, floor):
            return IntegralResult(fine, gap + floor)
        if n >= _TRAPEZOID_MAX_NODES:
            raise QuadratureError(
                f"trapezoid rule not settled at {n} nodes: gap {gap:.3e} "
                f"above the target and the roundoff floor {floor:.3e}",
                fine)
        n *= 2


def integrate(c: OrientedContour, g, abs_tol: float = 1e-11,
              max_depth: int = 26, min_nodes: int = 0) -> IntegralResult:
    """Integral of g(z) dz along the contour with an error estimate.

    A full circle takes the periodic trapezoid rule (see the module
    docstring) with at least min_nodes nodes; g is then called on numpy
    arrays of nodes and must return arrays.  Any other contour takes
    adaptive Gauss-Legendre with scalar calls of g: each piece receives
    a share of the absolute target proportional to its length, and
    max_depth bounds the subdivision.
    """
    if _is_full_circle(c):
        return _trapezoid(c.pieces[0], g, abs_tol, min_nodes)
    total_len = c.length
    value = 0j
    err = 0.0
    for piece in c.pieces:
        if piece.length == 0.0:
            continue
        tol = abs_tol * piece.length / total_len
        whole = _gl15(g, piece, 0.0, 1.0)
        try:
            v, e = _adaptive(g, piece, 0.0, 1.0, whole, tol, 0, max_depth)
        except QuadratureError as exc:
            raise QuadratureError(str(exc), value + exc.partial) from None
        value += v
        err += e
    return IntegralResult(value, err)


def winding_number(c: OrientedContour, a: complex,
                   abs_tol: float = 1e-10) -> float:
    """(1/2 pi i) times the integral of dz/(z - a)."""
    a = complex(a)
    res = integrate(c, lambda z: 1.0 / (z - a), abs_tol)
    return (res.value / (2j * math.pi)).real
