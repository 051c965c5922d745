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
* conjugate_at: one value, read off one representation that f keeps:
  symbolic_conjugate(f) for at most one distinct piece, else
  conjugate(f), whose domain half-planes and pieces each call tests.

legendre_dimensions reads the dimension of dom(f*), the gradient hull
plus the polar of the domain's recession cone, off one span test.

The cells, like every polyhedral query here, come from the half-plane
intersection in _lp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
        """f* as conjugate_at reads it: symbolic_conjugate(f) for at most
        one distinct piece, else (f's distinct pieces, the pieces of
        conjugate(f) as (x, y, c), its domain half-planes)."""
        pieces = _collapsed_pieces(self)
        if len(pieces) <= 1:
            return symbolic_conjugate(self)
        g = conjugate(self)
        return (pieces, [(p.real, p.imag, c) for p, c in g.pieces],
                g.domain.halfplanes)


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


def conjugate_at(f: PLConvexFunction, w: complex) -> float:
    """f*(w) = sup_z (Re(z*w) - f(z)), exactly.  May be +inf."""
    w = complex(w)
    table = f._table
    if isinstance(table, ConjugateForm):
        return table(w)
    pieces, dual, domain = table
    u, v = w.real, w.imag
    # A cell ray d of f gives +inf once Re(d*(w - b)) passes this slack.
    grow = 1e-11 * max(abs(w - b) for b, _ in pieces)
    if any(nx * u + ny * v - k > grow for nx, ny, k in domain):
        return math.inf
    return max(x * u - y * v + c for x, y, c in dual)


@dataclass(frozen=True)
class ConjugateForm:
    """Closed form f*(w) = h_base(w - shift) + offset.

    domain_cone is where the base set's support function is finite, so
    the conjugate's effective domain is shift + domain_cone and its
    interior is the shifted open cone.
    """

    base: object
    shift: complex
    offset: float
    domain_cone: Cone

    def __call__(self, w: complex) -> float:
        return support_function(self.base, complex(w) - self.shift) \
            + self.offset

    def domain_contains(self, w: complex) -> bool:
        return self.domain_cone.contains(complex(w) - self.shift)

    def domain_interior_contains(self, w: complex,
                                 margin: float = 0.0) -> bool:
        return self.domain_cone.strictly_contains(
            complex(w) - self.shift, margin)


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
    indicator of an unbounded region.
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
    dual_pieces = []
    for x, y in _distinct(points):
        z = complex(x, y)
        val = max((z * b).real + c for b, c in pieces)
        dual_pieces.append((z, -val))
    dual_domain = ConvexRegion(_distinct(constraints))
    return PLConvexFunction(dual_pieces, dual_domain)


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

    @property
    def complement_trivial(self) -> bool:
        return self.defect == 0


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
