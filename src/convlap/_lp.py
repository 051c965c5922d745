"""Planar polyhedra: one half-plane intersection behind every query.

Everything here works on plain Euclidean (x, y) data; complex-plane pairing
conventions are the caller's business.  A half-plane is a triple
(nx, ny, d) meaning nx*x + ny*y <= d with (nx, ny) of unit length.  An
affine piece is a triple (gx, gy, k) meaning gx*x + gy*y + k.

halfplane_polygon intersects half-planes in one sweep over their normals
sorted by angle (de Berg et al., *Computational Geometry*, ch. 4), which,
with a last check of a bounded set's corners, builds every polygon and decides
whether the set is empty.  Callers build a set's Polygon once and read
everything off it: convexgeom keeps one core Polygon per body and per region
behind the support function, signed distance, boundary walk, asymptotic cone,
affine dimension, boundedness and interior, and legendre builds each conjugate
from one Polygon per cell.  The LP, maximize_min_affine (the maximum of a
minimum of affine pieces over such cells), is left only behind interior_slack,
in the region constructor's emptiness check.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

TWO_PI = 2.0 * math.pi

# Unit normals whose cross product is at most this count as parallel.
_PARALLEL = 1e-12


def _norm_angle(a: float) -> float:
    """Reduce to (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


def ang_dist(a: float, b: float) -> float:
    """Absolute angular distance, in [0, pi]."""
    return abs(_norm_angle(a - b))


class Polygon(NamedTuple):
    """A nonempty intersection of half-planes: conv(points) + cone(rays).

    A set containing no line lists its vertices counterclockwise.  When it
    is bounded, rays is empty and edges[i] is the half-plane carrying the
    edge from vertices[i] to vertices[i+1] (cyclically).  When it is
    unbounded, rays is (d_in, d_out), the unit directions toward infinity
    of its entry and exit rays; edges[0] carries the entry ray, edges[i]
    the edge from vertices[i-1] to vertices[i], and edges[-1] the exit
    ray.  A point, a segment or a ray keeps this form (a one-vertex
    body lists the four axis-parallel half-planes through its point).

    A set containing a line (the plane, a half-plane, a slab, a line) has
    no vertices: edges holds its 0-2 boundary half-planes and rays
    generates its recession cone.
    """

    vertices: tuple
    rays: tuple
    edges: tuple

    @property
    def points(self) -> tuple:
        """The vertices, or else a point on each boundary line, or else
        the origin: with the rays, they generate the set."""
        if self.vertices:
            return self.vertices
        return (tuple((nx * d, ny * d) for nx, ny, d in self.edges)
                or ((0.0, 0.0),))


def _cross(h1, h2) -> float:
    return h1[0] * h2[1] - h1[1] * h2[0]


def _line_through(h1, h2):
    """Intersection point of two half-plane boundary lines, or None."""
    n1x, n1y, d1 = h1
    n2x, n2y, d2 = h2
    det = n1x * n2y - n1y * n2x
    if abs(det) <= _PARALLEL:
        return None
    x = (d1 * n2y - d2 * n1y) / det
    y = (n1x * d2 - n2x * d1) / det
    return (x, y)


def _outside(h, pt, slack: float) -> bool:
    return h[0] * pt[0] + h[1] * pt[1] > h[2] + slack


def _same_direction(h1, h2) -> bool:
    return (abs(_cross(h1, h2)) <= _PARALLEL
            and h1[0] * h2[0] + h1[1] * h2[1] > 0.0)


def halfplane_polygon(halfplanes, tol: float = 1e-9):
    """Intersect half-planes into a Polygon; None when the set is empty.

    tol, scaled by 1 + max |d|, is how far a point may violate a
    half-plane and still count as inside it.  The set is empty when two
    lines left consecutive by the sweep turn by pi or more, or when a
    corner of a bounded set lies outside a line other than its own two.
    """
    slack = tol * (1.0 + max((abs(d) for _, _, d in halfplanes),
                             default=0.0))
    # Sort normals by angle; of parallel ones keep the tightest.
    lines: list = []
    for h in sorted(halfplanes, key=lambda h: math.atan2(h[1], h[0])):
        if lines and _same_direction(lines[-1], h):
            lines[-1] = min(lines[-1], h, key=lambda g: g[2])
        else:
            lines.append(h)
    if len(lines) > 1 and _same_direction(lines[-1], lines[0]):
        lines[0] = min(lines.pop(), lines[0], key=lambda g: g[2])
    if not lines:
        return Polygon((), ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0),
                            (0.0, -1.0)), ())
    if len(lines) == 1:
        nx, ny, _ = lines[0]
        return Polygon((), ((ny, -nx), (-ny, nx), (-nx, -ny)),
                       tuple(lines))
    # The widest turn between consecutive normals decides the shape: less
    # than pi and the set is bounded (or empty); otherwise the boundary is
    # one chain that starts with the normal right after that gap.
    m = len(lines)
    angles = [math.atan2(ny, nx) for nx, ny, _ in lines]
    gap, i = max(((angles[(i + 1) % m] - angles[i]) % TWO_PI, i)
                 for i in range(m))
    closed = gap < math.pi - _PARALLEL
    if not closed:
        lines = lines[i + 1:] + lines[:i + 1]
        first, last = lines[0], lines[-1]
        if abs(_cross(first, last)) <= _PARALLEL:
            # Antiparallel ends bound a slab, which the others only cut.
            if first[2] + last[2] < -slack:
                return None
            if m == 2:
                nx, ny, _ = first
                return Polygon((), ((ny, -nx), (-ny, nx)), (first, last))
    dq: deque = deque()
    for h in lines:
        while (len(dq) >= 2
               and _outside(h, _line_through(dq[-2], dq[-1]), slack)):
            dq.pop()
        while (closed and len(dq) >= 2
               and _outside(h, _line_through(dq[0], dq[1]), slack)):
            dq.popleft()
        # Consecutive edges of a nonempty set turn by less than pi.
        if dq and _cross(dq[-1], h) <= _PARALLEL:
            return None
        dq.append(h)
    if closed:
        # The last and first lines cut each other's corners off in turn.
        while (len(dq) >= 3
               and _outside(dq[0], _line_through(dq[-2], dq[-1]), slack)):
            dq.pop()
        while (len(dq) >= 3
               and _outside(dq[-1], _line_through(dq[0], dq[1]), slack)):
            dq.popleft()
        if len(dq) < 3 or _cross(dq[-1], dq[0]) <= _PARALLEL:
            return None
    n = len(dq)
    # corners[k] ends the edge on dq[k] and starts the next one.
    corners = [_line_through(dq[k], dq[(k + 1) % n])
               for k in range(n if closed else n - 1)]
    # Rounding moves the corner of two nearly parallel lines off them,
    # but not across a third line that the set really meets.
    if closed and any(_outside(h, c, slack) for k, c in enumerate(corners)
                      for h in lines if h not in (dq[k], dq[(k + 1) % n])):
        return None
    # Drop an edge of zero length with its start (bounded) or end point.
    keep = [k for k in (range(n) if closed else range(1, n - 1))
            if math.dist(corners[k - 1], corners[k]) > slack]
    if closed:
        keep = keep or [0]
        return Polygon(tuple(corners[k - 1] for k in keep), (),
                       tuple(dq[k] for k in keep))
    (nx0, ny0, _), (nx1, ny1, _) = dq[0], dq[-1]
    return Polygon(tuple(corners[k] for k in [0] + keep),
                   ((ny0, -nx0), (-ny1, nx1)),
                   tuple(dq[k] for k in [0] + keep) + (dq[-1],))


def maximize_min_affine(pieces, halfplanes, tol: float = 1e-11):
    """sup over the polyhedron of min_i (g_i . x + k_i).

    Returns (value, argpoint).  value is -inf when the polyhedron is
    empty, +inf when the objective is unbounded above on it (argpoint is
    then None).  The polyhedron splits into the cells where each piece is
    the minimum: the supremum is +inf when a cell has a ray along which
    its piece grows, and otherwise the largest objective value at a
    cell's points, so it is exact up to rounding.
    """
    if not pieces:
        raise ValueError("need at least one affine piece")
    grow = tol * max(math.hypot(gx, gy) for gx, gy, _ in pieces)
    best = -math.inf
    best_pt = None
    for gx, gy, k in pieces:
        cell = list(halfplanes)
        for hx, hy, kj in pieces:
            ax, ay = gx - hx, gy - hy
            norm = math.hypot(ax, ay)
            if norm > 1e-14 * (1.0 + math.hypot(gx, gy)):
                cell.append((ax / norm, ay / norm, (kj - k) / norm))
            elif kj < k:
                break  # a piece with this gradient lies below it everywhere
        else:
            poly = halfplane_polygon(cell, tol)
            if poly is None:
                continue
            if any(gx * dx + gy * dy > grow for dx, dy in poly.rays):
                return math.inf, None
            for x, y in poly.points:
                v = min(hx * x + hy * y + kj for hx, hy, kj in pieces)
                if v > best:
                    best = v
                    best_pt = (x, y)
    return best, best_pt


def interior_slack(halfplanes, tol: float = 1e-11):
    """sup over the plane of min_i (d_i - n_i . x): the best feasibility
    slack.  Positive means nonempty interior, zero a nonempty set with
    empty interior, negative (or -inf) an empty set."""
    if not halfplanes:
        return math.inf
    pieces = [(-nx, -ny, d) for nx, ny, d in halfplanes]
    val, _ = maximize_min_affine(pieces, [], tol)
    return val
