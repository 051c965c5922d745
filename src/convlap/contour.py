"""Oriented contours and complex line integration by nested rules.

Contours are ordered lists of segments and circular arcs; orientation is
the list order (arcs sweep from their start angle to their end angle,
counterclockwise when the sweep is positive).  Boundary contours of
thickened convex sets leave the set on the left.

``integrate`` sums e^{z*w} g(z) dz, for a caller's w (0 by default),
over a contour's pieces from per-piece kernels, loops over nested rules
vectorised in numpy, each given a share of the tolerance (a lone full
circle, flagged when the contour is built, all of it and no per-piece
loop): _circle on a full circle, and elsewhere _segment, which bisects
and is also the one-piece entry.  A Gauss-Kronrod level's rule holds
nodes, weights and the weights of the coarser rule embedded in the same
nodes; a full circle's holds only nodes and weights, and its coarse
rule, on every other node, is read off the moments (below).  A
level's rule and g at its nodes are kept in the contour's own dict under
(piece, level, g) for every w; a full circle's nodes and weights are
also cached on their own per (piece, level), since every datum on that
circle shares them, and read their points on the unit circle from a
table per (angle0, angle1, level) that no centre or radius enters, so a
new circle takes no cos or sin.  A full circle takes the periodic
trapezoid rule (Trefethen & Weideman, "The exponentially convergent
trapezoidal rule", SIAM Rev. 2014) on 128 nodes doubling up to 4096;
other pieces take Gauss-Kronrod 15 on 1 to 2048 equal panels with the
embedded Gauss-7 (Piessens et al., QUADPACK, 1983), and multiply the
cached g by e^{z*w} once per level on the whole node array.  Their
error estimate is the fine-coarse gap plus a roundoff floor of
16 eps sum |f_k| max|w_k|.  A contour's own such piece starts no lower
than where it settles at w = 0, learned once by _settled_level.

On a full circle C(c, rho) the trapezoid sum is taken in moment form for
every w, w = 0 included, where the Taylor terms are [1, 0, ...]
(Bornemann, "Accuracy and stability of computing high-order derivatives
of analytic functions by Cauchy integrals", FoCM 2011).
With nodes z_k = c + rho e^{i theta_0} q^k, q = e^{+-2 pi i/n} by the
sweep's sign, and x = rho w e^{i theta_0},

    sum_k e^{z_k w} g(z_k) w_k = e^{c w} sum_m x^m / m! F_m,
    F_m = sum_k q^{m k} g(z_k) w_k,

where F is periodic in m with period n and is one FFT of the weighted
values of g.  The contour's dict keeps F_m and the coarse rule's moments
F_m + F_{m+n/2}, m < n/2, per (piece, level, g) as one array's two rows.
Each w then costs a Taylor sum of about rho|w| + 12 sqrt(rho|w|) + 40
terms scaled by e^{-rho|w|} (a running product of x/m) and one product
of the rows with it (terms past n/2 fold), from the first level with at
least twice as many nodes; _circle reads the rows from the dict itself,
calls _level only on a miss and forms both sums in place.  With
M = Re(c w) + rho|w|, the kernel's peak on the circle, the estimate is
the fine-coarse gap, a roundoff floor of 16 eps e^M sum |g(z_k) w_k| and
a bound on the dropped Taylor terms.

Node order, level order and accumulation are fixed, so results are
bitwise reproducible for identical inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .convexgeom import _cis, boundary_walk, region_is_bounded

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
]

# Gauss-Kronrod (7, 15) on [-1, 1] (QUADPACK's qk15): the nonnegative
# Kronrod nodes in decreasing order and their weights.
_XGK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
        0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
        0.20778495500789848, 0.0)
_WGK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
        0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
        0.20443294007529889, 0.20948214108472782)
# The 15 nodes and weights on [0, 1], ascending; the Gauss-7 nodes are
# the odd-indexed ones.
_GK_T = 0.5 + 0.5 * np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_GK_W = 0.5 * np.array(_WGK[:-1] + _WGK[::-1])
# Gauss-7 weights over the Kronrod weights of the same nodes.
_G_OVER_K = 0.5 * np.polynomial.legendre.leggauss(7)[1] / _GK_W[1::2]

# A full circle's first level: 128 trapezoid nodes, the first node count
# at least twice _circle's fewest Taylor terms (40).
_TRAPEZOID_MIN_NODES = 128
# Level-0 node count and top level of the rule on a full circle (4096
# trapezoid nodes at the top) and on other pieces (2048 panels).
_LEVELS = {True: (_TRAPEZOID_MIN_NODES, 5), False: (len(_GK_T), 11)}
_EPS = float(np.finfo(float).eps)
# Nodes per unit of |w| * length for e^{z*w} (see integrate).
_NODES_PER_RATE = 2.0
_MAX_SPLITS = 4  # bisections of an unsettled piece (see integrate)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # largest x with e^x finite
# A 1 for e^{-|x|}, then the m in the Taylor ratios x/m up to the top circle
# level's node count; complex, as x/m then needs no cast (see _scaled_taylor).
_DIVISORS = np.arange((_TRAPEZOID_MIN_NODES << _LEVELS[True][1]) + 1) + 0j
_DIVISORS[0] = 1.0


@dataclass(frozen=True)
class Segment:
    start: complex
    end: complex
    full_circle = False  # see Arc

    def __post_init__(self):  # hashed once: pieces key contour's caches
        object.__setattr__(self, "_hash", hash((self.start, self.end)))

    def __hash__(self) -> int:
        return self._hash

    def point(self, t):
        return self.start + t * (self.end - self.start)

    def point_and_derivative(self, t):
        """z(t), and z'(t): a constant that broadcasts against t."""
        return self.point(t), self.end - self.start

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

    def __post_init__(self):  # stored once, like a datum's hash
        object.__setattr__(self, "full_circle",
                           abs(self.angle1 - self.angle0) == 2 * math.pi)
        object.__setattr__(self, "start_unit", _cis(self.angle0))
        object.__setattr__(self, "_hash", hash(
            (self.center, self.radius, self.angle0, self.angle1)))

    def __hash__(self) -> int:
        return self._hash

    def point(self, t):
        return self.point_and_derivative(t)[0]

    def point_and_derivative(self, t):
        """z(t) and z'(t), from one evaluation of e^{i angle}."""
        return self._at(_unit_points(self.angle0, self.angle1, t))

    def _at(self, unit):  # z and z' where e^{i angle} is unit
        return (self.center + self.radius * unit,
                1j * (self.angle1 - self.angle0) * self.radius * unit)

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
        object.__setattr__(self, "lengths", tuple(p.length for p in ps))
        # One full circle of nonzero length: integrate's _circle alone.
        object.__setattr__(self, "lone_circle", len(ps) == 1
                           and ps[0].full_circle and self.lengths[0] != 0.0)
        object.__setattr__(self, "_cache", {})  # integrate's (see _level)

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
        return sum(self.lengths)

    def reversed(self) -> "OrientedContour":
        return OrientedContour(tuple(p.reversed()
                                     for p in self.pieces[::-1]))


def circle_contour(center: complex, r: float) -> OrientedContour:
    """Positively oriented circle; winding +1 about the center."""
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError("circle radius must be positive")
    return OrientedContour([Arc(complex(center), float(r), 0.0, 2 * math.pi)])


def _offset_pieces(normals, corners, rho, closed: bool):
    """Offset pieces of a facet walk, corner arcs included: normals[i] and
    normals[i + 1] flank corners[i], and a closed walk wraps around."""
    pieces = []
    for i, corner in enumerate(corners):
        prev, cur = normals[i], normals[i + 1]
        if rho > 0.0:
            sweep = (cur - prev) % (2 * math.pi)
            pieces.append(Arc(corner, rho, prev, prev + sweep))
        if closed or i + 1 < len(corners):
            b = corners[(i + 1) % len(corners)] + rho * _cis(cur)
            pieces.append(Segment(corner + rho * _cis(cur), b))
    return pieces


class _OpenChain(NamedTuple):
    """An unbounded thickened region's boundary chain: the finite middle
    pieces and the two offset boundary rays.  The chain traverses the
    incoming ray from infinity to b_in, then the middle pieces, then
    leaves b_out along d_out; directions point toward infinity."""

    pieces: list
    b_in: complex
    d_in: complex
    b_out: complex
    d_out: complex

    @property
    def rays(self):
        return (self.b_in, self.d_in), (self.b_out, self.d_out)

    @property
    def extent(self) -> float:
        """Largest modulus reached by the finite part."""
        return max(abs(z) for z in [self.b_in, self.b_out] + [
            p.point(t) for p in self.pieces for t in (0.0, 0.5, 1.0)])

    def truncated(self, R: float) -> OrientedContour:
        """The chain from and to C(0, R), which must enclose its finite
        part (region_boundary_contour checks that)."""
        entry = self.b_in + circle_hit(self.b_in, self.d_in, R) * self.d_in
        exit_ = (self.b_out
                 + circle_hit(self.b_out, self.d_out, R) * self.d_out)
        return OrientedContour([Segment(entry, self.b_in)] + self.pieces
                               + [Segment(self.b_out, exit_)])


def _open_chain(s) -> _OpenChain:
    """The boundary chain of an unbounded thickened region, walked once."""
    walk = boundary_walk(s)
    rho = s.rounding
    normals = walk.normals
    corners = walk.corners
    pieces = _offset_pieces(normals, corners, rho, closed=False)
    b_in = corners[0] + rho * _cis(normals[0])
    d_in = -_cis(normals[0] + 0.5 * math.pi)
    b_out = corners[-1] + rho * _cis(normals[-1])
    d_out = _cis(normals[-1] + 0.5 * math.pi)
    return _OpenChain(pieces, b_in, d_in, b_out, d_out)


def open_boundary_rays(s):
    """The two infinite offset rays of an unbounded boundary chain, as
    (base, unit direction toward infinity) pairs, entry ray first."""
    return _open_chain(s).rays


def open_boundary_extent(s) -> float:
    """Largest modulus reached by the finite part of an unbounded
    boundary chain; truncation radii must stay beyond it."""
    return _open_chain(s).extent


def circle_hit(base: complex, direction: complex, R):
    """Largest t >= 0 with |base + t*direction| = R, for |direction| = 1;
    R may be an increasing array, giving one t per entry.

    Raises when the ray from base misses or merely grazes C(0,R), at the
    first R for an array (where the scalar calls would raise first).
    """
    R = np.asarray(R, dtype=float)
    beta = (base * direction.conjugate()).real
    disc = beta * beta + R * R - (base * base.conjugate()).real
    if (disc <= 1e-12 * R * R).any():
        raise ValueError("truncation circle does not cut the ray "
                         "transversally: increase R")
    t = -beta + np.sqrt(disc)
    if (t <= 0.0).any():
        raise ValueError("ray leaves C(0,R) behind its base: increase R")
    return float(t) if t.ndim == 0 else t


def region_boundary_contour(s, truncation: float | None = None):
    """Positively oriented boundary of a thickened convex set.

    Bounded sets give a closed contour (truncation is ignored).  An
    unbounded region needs a truncation radius R enclosing every corner;
    the chain then starts and ends on C(0,R).
    """
    if region_is_bounded(s):
        walk = boundary_walk(s)  # no facet only for a rounded point
        if walk.normals:  # the last facet's normal comes before corner 0
            return OrientedContour(_offset_pieces(
                walk.normals[-1:] + walk.normals, walk.corners, s.rounding,
                closed=True))
        return circle_contour(walk.corners[0], s.rounding)
    if truncation is None:
        raise ValueError("an unbounded region needs a truncation radius")
    R = float(truncation)
    chain = _open_chain(s)
    if chain.extent >= R * (1.0 - 1e-9):
        raise ValueError("truncation circle must enclose every corner: "
                         "increase R")
    return chain.truncated(R)


# ---- quadrature ----

class IntegralResult(NamedTuple):
    value: complex
    error: float


class QuadratureError(RuntimeError):
    """A piece's nested rule did not settle at its top level; .partial
    holds the value accumulated so far, that piece's finest sum included."""

    def __init__(self, message: str, partial: complex):
        super().__init__(message)
        self.partial = partial


class _Rule(NamedTuple):
    nodes: np.ndarray
    weights: np.ndarray
    coarse: slice | np.ndarray  # the coarse rule's nodes among `nodes`
    coarse_weights: np.ndarray
    floor_scale: float  # 16 eps times the largest |weight|


@lru_cache(maxsize=None)
def _gauss_kronrod_panels(level: int):
    """Gauss-Kronrod 15 on 2^level panels of [0, 1]: nodes, Gauss-7 node
    indices, weights, Gauss-7 over Kronrod weights at those indices."""
    panels = 1 << level
    t = ((np.arange(panels)[:, None] + _GK_T) / panels).ravel()
    gauss = np.arange(t.size).reshape(panels, -1)[:, 1::2].ravel()
    gauss.setflags(write=False)  # every Gauss-Kronrod entry holds it
    return (t, gauss, np.tile(_GK_W / panels, panels),
            np.tile(_G_OVER_K, panels))


def _unit_points(angle0: float, angle1: float, t):
    """e^{i a} at a = angle0 + t (angle1 - angle0)."""
    a = angle0 + t * (angle1 - angle0)
    return np.cos(a) + 1j * np.sin(a)


@lru_cache(maxsize=64)
def _trapezoid_units(angle0: float, angle1: float, level: int):
    """A level's trapezoid nodes on the unit circle, read-only."""
    n = _TRAPEZOID_MIN_NODES << level
    unit = _unit_points(angle0, angle1, np.arange(n) / n)
    unit.setflags(write=False)
    return unit


@lru_cache(maxsize=256)
def _rule(piece: Arc, level: int) -> tuple:
    """A full circle's read-only trapezoid nodes and weights at a level,
    for every g."""
    nodes, dz = piece._at(_trapezoid_units(piece.angle0, piece.angle1,
                                           level))
    weights = dz * (1.0 / (_TRAPEZOID_MIN_NODES << level))
    for a in (nodes, weights):
        a.setflags(write=False)
    return nodes, weights


def _level(cache: dict, piece, level: int, g) -> tuple:
    """The piece's rule at a level and g there, read-only, built into the
    cache on a miss of its callers' lookup: on a full circle its _rule,
    the rows F_m, F_m + F_{m+n/2} (m < n/2) of g's trapezoid moments and
    sum |g(z_k) w_k|; else its Gauss-Kronrod rule, built here, and g."""
    key = (piece, level, g)
    if piece.full_circle:
        nodes, weights = _rule(piece, level)
        h = g(nodes) * weights
        ccw = piece.angle1 > piece.angle0
        pair = (np.fft.ifft(h, norm="forward") if ccw
                else np.fft.fft(h)).reshape(2, -1)
        pair[1] += pair[0]
        pair.flags.writeable = False
        cache[key] = (nodes, weights), (pair, float(np.abs(h).sum()))
        return cache[key]
    t, gauss, t_weights, g_over_k = _gauss_kronrod_panels(level)
    nodes, dz = piece.point_and_derivative(t)
    weights = dz * t_weights
    rule = _Rule(nodes, weights, gauss, weights[gauss] * g_over_k,
                 16.0 * _EPS * float(np.abs(weights).max()))
    values = g(nodes)
    for a in (nodes, weights, rule.coarse_weights, values):
        a.setflags(write=False)
    cache[key] = rule, values
    return cache[key]


def _scaled_taylor(x: complex, count: int) -> np.ndarray:
    """e^{-|x|} x^m / m! for m < count (|x| < count, at most the top
    circle level's node count): a running product of the ratios x/m over
    _DIVISORS from m = 0, or, where e^{-|x|} leaves the normal float
    range, outward from m0 = floor(|x|), whose term Stirling's series
    gives without cancellation."""
    y = abs(x)
    if y <= 700.0:
        out = x / _DIVISORS[:count]
        out[0] = math.exp(-y)
        return np.multiply.accumulate(out)
    m0 = math.floor(y)
    f = y - m0
    log_peak = (m0 * math.log1p(f / m0) - f - 0.5 * math.log(2 * math.pi * m0)
                - 1.0 / (12 * m0) + 1.0 / (360 * m0 ** 3))
    peak = math.exp(log_peak) * _cis(m0 * math.atan2(x.imag, x.real))
    down = np.cumprod(_DIVISORS[m0:0:-1] / x)[::-1]
    return peak * np.concatenate((down, [1.0],
                                  np.cumprod(x / _DIVISORS[m0 + 1:count])))


def _node_sums(cache: dict, piece, level: int, g, w: complex):
    """Fine sum, coarse sum, roundoff floor and node count of
    e^{z*w} g(z) dz at a level, from g at the nodes (_level's), which at
    w = 0 (the climb of _settled_level) are the summands themselves."""
    (nodes, weights, idx, coarse_weights, scale), values = (
        cache.get((piece, level, g)) or _level(cache, piece, level, g))
    f = np.exp(nodes * w) * values if w else values
    return (complex(f @ weights), complex(f[idx] @ coarse_weights),
            float(np.abs(f).sum()) * scale, len(f))


def _halves(piece):
    """The two halves of a segment or an arc, in its orientation."""
    if isinstance(piece, Segment):
        mid = piece.point(0.5)
        return replace(piece, end=mid), replace(piece, start=mid)
    mid = 0.5 * (piece.angle0 + piece.angle1)
    return replace(piece, angle1=mid), replace(piece, angle0=mid)


def integrate(c: OrientedContour, g, abs_tol: float = 1e-11,
              w: complex = 0j) -> IntegralResult:
    """Integral of e^{z*w} g(z) dz along the contour with an error estimate.

    g maps a numpy array of nodes to an array of values, kept at each
    level's nodes (on a full circle, as moment rows) in c's own dict and
    read for every w, so g must be hashable and pure.  Each piece's kernel,
    _circle or _segment (see the module docstring), takes a share of
    abs_tol proportional to its length.  It starts at the first level with
    at least 2|w| nodes per unit of length (Gauss-Kronrod and Gauss-7 can
    agree by chance on coarser panels, which do not resolve the kernel),
    or at the first where the piece settles at w = 0 if higher (kept),
    or, on a full circle, as many coarse nodes as Taylor terms, and doubles
    until the fine-coarse gap is within the roundoff floor or the share.
    Past the top level _segment bisects, each half taking half the share,
    up to _MAX_SPLITS deep; else QuadratureError is raised.  The estimate
    sums gap + floor, plus the dropped Taylor terms' bound on circles.
    Non-finite sums where e^{z*w} peaks beyond log(float max) raise a named
    OverflowError; a w that is not finite raises ValueError.
    """
    w = _finite_w(w)
    if c.lone_circle:
        return _circle(c._cache, c.pieces[0], g, abs_tol, w)
    return _integrate(c._cache, c.pieces, c.lengths, g, abs_tol, w,
                      _MAX_SPLITS)


def _finite_w(w) -> complex:
    """w as a complex; ValueError, naming it, when it is not finite."""
    w = complex(w)
    if not cmath.isfinite(w):
        raise ValueError(f"w must be finite, not {w}")
    return w


def _integrate(cache: dict, pieces, lengths, g, abs_tol: float, w: complex,
               splits: int) -> IntegralResult:
    """integrate over pieces of these lengths, splits bisections left."""
    total_len = sum(lengths)
    value, err = 0j, 0.0
    for piece, length in zip(pieces, lengths):
        if length == 0.0:
            continue
        tol = abs_tol * (length / total_len)
        try:
            part, est = (
                _circle(cache, piece, g, tol, w) if piece.full_circle
                else _segment(cache, piece, g, tol, w, splits, _settled_level(
                    cache, piece, g, tol) if splits == _MAX_SPLITS else 0))
        except QuadratureError as exc:
            exc.partial += value
            raise
        value += part
        err += est
    return IntegralResult(value, err)


def _kernel_overflow(piece, peak: float) -> OverflowError:
    return OverflowError(
        f"e^(z*w) on {piece} reaches e^{peak:.6g}, beyond the float range "
        f"(e^{_LOG_FLOAT_MAX:.2f})")


def _circle(cache: dict, piece: Arc, g, tol: float, w: complex):
    """IntegralResult on a full circle, in moment form, to tol."""
    size, top = _LEVELS[True]
    y = piece.radius * abs(w)
    try:  # math.ceil overflows at y = inf, cmath.exp beyond log(float max)
        count = math.ceil(y + 12.0 * math.sqrt(y) + 40.0)
        if count > size << top:
            raise QuadratureError(
                f"e^(z*w) on {piece} needs {count} Taylor terms, more than "
                f"{size << top} nodes resolve", 0j)
        terms = _scaled_taylor(piece.radius * w * piece.start_unit, count)
        factor = cmath.exp(piece.center * w + y)
    except OverflowError:
        raise _kernel_overflow(piece, (piece.center * w).real + y) from None
    # The dropped terms m >= count shrink by at least y/(count+1).
    tail = float(abs(terms[-1])) * y / count / (1.0 - y / (count + 1))
    level = 0
    while size << level < 2 * count and level < top:
        level += 1
    for level in range(level, top + 1):
        pair, mass = (cache.get((piece, level, g))
                      or _level(cache, piece, level, g))[1]
        half = pair.shape[1]
        if count <= half:  # one product with both rows
            fine, coarse = (pair[:, :count] @ terms).tolist()
        else:  # the terms fold mod n/2: F_{m+n/2} = row 1 - row 0
            lo, hi = np.pad(terms, (0, 2 * half - count)).reshape(2, -1)
            fine = complex(pair[0] @ (lo - hi) + pair[1] @ hi)
            coarse = complex(pair[1] @ (lo + hi))
        fine, peak = factor * fine, abs(factor) * mass
        floor = 16.0 * _EPS * peak
        gap = abs(fine - factor * coarse)
        if gap <= max(tol, floor):
            return IntegralResult(fine, gap + floor + tail * peak)
    raise QuadratureError(f"rule not settled at {2 * half} nodes on {piece}: "
                          f"gap {gap:.3e}, roundoff floor {floor:.3e}", fine)


def _segment(cache: dict, piece, g, tol: float, w: complex,
             splits: int = _MAX_SPLITS, level: int = 0):
    """(value, estimate) on a segment or an arc to tol, splits bisections
    left, from this level or the one 2|w| nodes per unit length need; with
    the defaults, integrate on [piece] for a w already checked."""
    size, top = _LEVELS[False]
    need = _NODES_PER_RATE * abs(w) * piece.length
    while size << level < need and level < top:
        level += 1
    for level in range(level, top + 1):
        fine, coarse, floor, n = _node_sums(cache, piece, level, g, w)
        gap = abs(fine - coarse)
        if gap <= max(tol, floor):
            return fine, gap + floor
        if not math.isfinite(gap):  # the kernel's peak on the piece
            peak = (max((piece.start * w).real, (piece.end * w).real)
                    if isinstance(piece, Segment)
                    else (piece.center * w).real + piece.radius * abs(w))
            if peak > _LOG_FLOAT_MAX:
                raise _kernel_overflow(piece, peak)
    if not splits:
        raise QuadratureError(f"rule not settled at {n} nodes on {piece}: "
                              f"gap {gap:.3e}, roundoff floor {floor:.3e}",
                              fine)
    halves = _halves(piece)  # past the top level
    return _integrate(cache, halves, [h.length for h in halves], g, tol, w,
                      splits - 1)


def _settled_level(cache: dict, piece, g, tol: float) -> int:
    """First level at which the piece settles at w = 0 to tol, else 0: g's
    own need, kept in the cache with the levels the climb reads."""
    level = cache.get((piece, g, tol))
    if level is None:
        for level in range(_LEVELS[False][1] + 1):
            fine, coarse, floor, _ = _node_sums(cache, piece, level, g, 0j)
            if abs(fine - coarse) <= max(tol, floor):
                break
        else:
            level = 0
        cache[piece, g, tol] = level
    return level

