"""Piecewise-linear convex functions and their conjugates.

A PLConvexFunction is max_i (Re(z*b_i) + c_i) on its domain and +inf
elsewhere; with no pieces it is the indicator of the domain.  The
conjugate pairs z against w through Re(z*w) (complex product), so the
conjugate of the indicator of a set is exactly its support function.

Three routines compute conjugates, all exact up to rounding:

* symbolic_conjugate: the closed form h_domain(w - b) - c, available
  precisely for indicator or single-piece data (rounded domains too).
* conjugate: the whole piecewise-linear conjugate as a new
  PLConvexFunction on a polyhedral domain.  The cells where each piece
  of f is the maximum give its pieces (one per cell vertex) and its
  domain (one half-plane per cell ray); an indicator's pieces are the
  vertices of its bounded domain.
* conjugate_at: values at one w or an array of w, from one table of
  plain numbers that f keeps: max(x*u - y*v + c) at (u, v) = w - s plus
  rounding*|w - s| and an offset, +inf past a domain half-plane; built
  by symbolic_conjugate(f) for at most one distinct piece, else conjugate(f).

legendre_dimensions reads the dimension of dom(f*), the gradient hull
plus the polar of the domain's recession cone, off one span test.

The cells, like every polyhedral query here, come from the half-plane
intersection in _lp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _lp
from .convexgeom import (
    Cone,
    ConvexBody,
    ConvexRegion,
    affine_dimension,
    asymptotic_cone,
    polar_cone,
    signed_distance,
    support_function,
)

__all__ = [
    "PLConvexFunction",
    "ConjugateForm",
    "LegendreDimensions",
    "UnsupportedConjugate",
    "conjugate_at",
    "symbolic_conjugate",
    "conjugate",
    "legendre_dimensions",
]


class UnsupportedConjugate(ValueError):
    """The requested closed-form or symbolic conjugate does not exist
    for this data (e.g. several distinct pieces, or a rounded domain)."""


@dataclass(frozen=True)
class PLConvexFunction:
    pieces: tuple[tuple[complex, float], ...]
    domain: object  # ConvexBody | ConvexRegion

    def __init__(self, pieces, domain):
        ps = tuple((complex(b), float(c)) for b, c in pieces)
        for b, c in ps:
            if not (math.isfinite(b.real) and math.isfinite(b.imag)
                    and math.isfinite(c)):
                raise ValueError("pieces must be finite")
        if not isinstance(domain, (ConvexBody, ConvexRegion)):
            raise TypeError("domain must be a ConvexBody or ConvexRegion")
        object.__setattr__(self, "pieces", ps)
        object.__setattr__(self, "domain", domain)

    def value(self, z: complex) -> float:
        z = complex(z)
        if signed_distance(self.domain, z) > 1e-9:
            return math.inf
        if not self.pieces:
            return 0.0
        return max((z * b).real + c for b, c in self.pieces)

    @cached_property
    def _table(self):
        """conjugate_at's table: (s, centres b, rows (x, y, c), half-planes
        (nx, ny, k), rounding, offset)."""
        pieces = _collapsed_pieces(self)
        if len(pieces) <= 1:
            form = symbolic_conjugate(self)
            core = form.base.core
            return (form.shift, [0j], [(x, y, 0.0) for x, y in core.points],
                    [(dx, -dy, 0.0) for dx, dy in core.rays],
                    form.base.rounding, form.offset)
        g = conjugate(self)
        return (0j, [b for b, _ in pieces],
                [(p.real, p.imag, c) for p, c in g.pieces],
                g.domain.halfplanes, 0.0, 0.0)


def _collapsed_pieces(f: PLConvexFunction):
    """Merge pieces with equal gradients (max of constants wins)."""
    out: list[tuple[complex, float]] = []
    for b, c in f.pieces:
        for i, (b0, c0) in enumerate(out):
            if abs(b - b0) <= 1e-14 * (1.0 + abs(b0)):
                out[i] = (b0, max(c0, c))
                break
        else:
            out.append((b, c))
    return out


def _domain_halfplanes(domain):
    """Half-plane list of an un-rounded polyhedral domain."""
    if domain.rounding != 0.0:
        raise UnsupportedConjugate("rounded domains have no polyhedral "
                                   "description")
    if isinstance(domain, ConvexRegion):
        return list(domain.halfplanes)
    return list(domain.core.edges)


def conjugate_at(f: PLConvexFunction, w):
    """f*(w) = sup_z (Re(z*w) - f(z)), exactly.  May be +inf.  An array
    of w gives a float array of its shape, each entry the float that a
    call at that w alone returns."""
    s, centres, rows, halfplanes, rounding, offset = f._table
    if np.isscalar(w):
        w, hypot, top, where = complex(w) - s, _hypot, max, _where
    else:
        w, hypot, top, where = (np.asarray(w, dtype=complex) - s, np.hypot,
                                _first_max, np.where)
    u, v = w.real, w.imag
    out = top(x * u - y * v + c for x, y, c in rows)
    # Adding 0.0 only turns -0.0 to 0.0; closed-form rows (c = 0.0) give none.
    if rounding:
        out = out + rounding * hypot(u, v)
    if offset:
        out = out + offset
    grow = 1e-11 * top(abs(w - b) for b in centres)  # half-plane slack
    for nx, ny, k in halfplanes:
        out = where(nx * u + ny * v - k > grow, math.inf, out)
    return out


def _hypot(x, y):
    """np.hypot for one w, rounded as it is (math.hypot's differs)."""
    return abs(complex(x, y))


def _where(condition, a, b):
    return a if condition else b


def _first_max(arrays):
    """The elementwise max of arrays, kept from the first one that
    reaches it, as Python's max keeps it."""
    first, *rest = arrays  # like max(), refuses an empty sequence
    for a in rest:
        first = np.where(a > first, a, first)
    return first


@dataclass(frozen=True)
class ConjugateForm:
    """Closed form f*(w) = h_base(w - shift) + offset, finite on shift +
    domain_cone (the cone where the base's support function is finite)."""

    base: object
    shift: complex
    offset: float
    domain_cone: Cone

    def __call__(self, w: complex) -> float:
        return support_function(self.base, complex(w) - self.shift) \
            + self.offset

    def domain_contains(self, w: complex) -> bool:
        return self.domain_cone.contains(complex(w) - self.shift)


def symbolic_conjugate(f: PLConvexFunction) -> ConjugateForm:
    """Closed-form conjugate for indicator or single-piece data.

    The conjugate's effective domain is shift + dom(h_base); the cone of
    the base set's support function is reported alongside.  Several
    distinct pieces have no closed form of this shape: rejected.
    """
    pieces = _collapsed_pieces(f)
    if len(pieces) > 1:
        raise UnsupportedConjugate(
            "no closed form with several distinct pieces")
    shift, offset = (pieces[0] if pieces else (0j, 0.0))
    cone = polar_cone(asymptotic_cone(f.domain))
    return ConjugateForm(f.domain, shift, -offset, cone)


def _distinct(items):
    """Drop items equal, coordinate by coordinate, to an earlier one."""
    tol = 1e-9 * (1.0 + max((abs(v) for it in items for v in it),
                            default=0.0))
    out: list = []
    for it in items:
        if all(max(abs(a - b) for a, b in zip(it, o)) > tol for o in out):
            out.append(it)
    return out


def conjugate(f: PLConvexFunction) -> PLConvexFunction:
    """The conjugate as a PLConvexFunction.

    The domain splits into the cells where each piece (b, c) of f is the
    maximum.  On a cell, sup Re(z*w) - f(z) is finite exactly when
    Re(d*w) <= Re(d*b) along each of the cell's rays d, and is then
    attained at one of its points p (its vertices, or a point of each
    boundary line when the cell contains a line).  So the conjugate has a
    piece (p, -f(p)) per point and a domain cut by a half-plane per ray.
    Raises UnsupportedConjugate for a rounded domain and for the
    indicator of an unbounded region, ValueError if every cell reads empty.
    """
    pieces = _collapsed_pieces(f)
    if not pieces:
        # Indicator: conjugate is the support function.  It is PL exactly
        # when the domain is polyhedral.
        _domain_halfplanes(f.domain)  # rejects rounded domains
        core = f.domain.core
        if not core.rays:
            return PLConvexFunction(
                [(complex(x, y), 0.0) for x, y in core.vertices],
                ConvexRegion([]))
        raise UnsupportedConjugate(
            "support functions of unbounded regions are handled by "
            "symbolic_conjugate")
    hp = _domain_halfplanes(f.domain)
    points: list[tuple[float, float]] = []
    constraints: list[tuple[float, float, float]] = []
    for b, c in pieces:
        # Re(z*b2) + c2 <= Re(z*b) + c for every other piece (b2, c2).
        cell = list(hp)
        for b2, c2 in pieces:
            q = b2 - b
            if q != 0:
                cell.append((q.real / abs(q), -q.imag / abs(q),
                             (c - c2) / abs(q)))
        poly = _lp.halfplane_polygon(cell)
        if poly is None:
            continue
        points += poly.points
        for dx, dy in poly.rays:
            # Re(d*w) <= Re(d*b) as a half-plane in (u, v).
            constraints.append((dx, -dy, (complex(dx, dy) * b).real))
    if not points:
        raise ValueError("conjugate: every cell of f's pieces reads as empty")
    dual = [complex(x, y) for x, y in _distinct(points)]
    return PLConvexFunction(
        [(z, -max((z * b).real + c for b, c in pieces)) for z in dual],
        ConvexRegion(_distinct(constraints)))


@dataclass(frozen=True)
class LegendreDimensions:
    """Real affine-hull dimensions of dom(f) and dom(f*), and the
    defect 2 - dim dom(f*): the dimension of the direction space the
    conjugate never explores."""

    domain_hull: int
    conjugate_hull: int

    @property
    def defect(self) -> int:
        return 2 - self.conjugate_hull


def _sum_with_cone_dim(f: PLConvexFunction, pieces) -> int:
    """dim of dom(f*) = conv{b_i} + dom(h_domain).

    Writing f as (max of pieces) + (indicator of domain), the conjugate
    is an infimal convolution, so its domain is the Minkowski sum of the
    gradient hull with the domain's support cone.
    """
    cone = polar_cone(asymptotic_cone(f.domain))
    if affine_dimension(cone) == 2:
        return 2
    # Otherwise the sum spans the gradient differences and the axis of
    # the cone, a ray or a line unless it is {0}.
    bs = [b for b, _ in pieces]
    dirs = [d / abs(d) for d in (b - bs[0] for b in bs[1:])
            if abs(d) > 1e-12 * (1.0 + abs(bs[0]))]
    if cone.kind != "zero":
        dirs.append(complex(math.cos(cone.axis), math.sin(cone.axis)))
    if any(abs((d1 * d2.conjugate()).imag) > 1e-9
           for d1 in dirs for d2 in dirs):
        return 2
    return 1 if dirs else 0


def legendre_dimensions(f: PLConvexFunction) -> LegendreDimensions:
    """dim of the affine hulls of dom(f) and dom(f*)."""
    return LegendreDimensions(affine_dimension(f.domain),
                              _sum_with_cone_dim(f, _collapsed_pieces(f)))
