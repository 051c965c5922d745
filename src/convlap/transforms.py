"""Laplace-type contour transforms of meromorphic data.

Two contour realizations of the same map: a circle integral for compact
convex sets (Polya) and a truncated-boundary integral with quantitative
tail control for unbounded convex regions (Meril).  Both integrate
e^{z*w} u(z) dz, with no 1/(2 pi i) normalization anywhere, and both
agree with the classical residue sum, which this module also provides
as an independent oracle.

Large |w| would overflow a naive evaluation, so contour quadrature runs
on e^{z*w - M} with M = sup of Re(z*w) on the contour, and log-magnitude
queries (``TransformResult.log_abs``) go through the residue form in a
log-sum-exp style.  Where the value itself would overflow a float
(M, or Re(a*w) for the residue sum, above log(float max) ~ 709.78) the
evaluators raise an OverflowError that names |w| and points to log_abs.

Polya integrates over the full circle C(0, r) with the periodic
trapezoid rule of ``contour.integrate``, whose nodes z_k and weights are
cached per node count n; the transform caches u(z_k) per n, so one
evaluation at w costs one vectorised exp(z_k*w - M) and one dot
product.  n is at least 64 r|w| (a power of two from 64 to 4096), so
that the per-node rounding of the scaled kernel, about eps*r|w|,
averages down.  The error estimate is the gap between the n/2- and
n-node sums (read off the same n nodes) plus the roundoff floor
16 eps sum |f_k w_k|, times e^M; at 4096 nodes an estimate above both
the target and that floor raises QuadratureError.

Meril integrates the unscaled e^{z*w} u(z) over the segments and arcs
of its truncated boundary with the same loop, on node arrays; the
ladder's pieces do not depend on w, so their cached Gauss-Kronrod rules
serve every w.  A kernel peak (at most max Re(c*w) over the boundary
walk's corners c, plus eps*|w|) beyond log(float max) raises the named
OverflowError before any quadrature.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .contour import (
    OrientedContour,
    Segment,
    circle_contour,
    circle_hit,
    integrate,
    open_boundary_extent,
    open_boundary_rays,
    region_boundary_contour,
)
from .convexgeom import (
    ConvexBody,
    ConvexRegion,
    asymptotic_cone,
    bisector,
    boundary_walk,
    polar_cone,
    region_contains_line,
    region_is_bounded,
    signed_distance,
    thicken,
)

__all__ = [
    "MeromorphicDatum",
    "TransformResult",
    "MerilTrace",
    "ConvergenceError",
    "polya_transform",
    "meril_transform",
    "residue_transform",
    "residue_oracle",
    "borel_inverse",
    "tail_bound",
]

TWO_PI = 2.0 * math.pi
# Polya's node count per unit of the kernel's exponent scale r|w|: enough
# nodes that per-node rounding of e^{z*w - M}, about eps*r|w|, averages
# down below the roundoff floor of the error estimate.
_NODES_PER_EXPONENT = 64
# Largest x with e^x finite in double precision.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _overflow(w: complex, exponent: float) -> OverflowError:
    return OverflowError(
        f"the transform at |w| = {abs(w):.6g} needs e^{exponent:.6g}, "
        f"beyond the float range (e^{_LOG_FLOAT_MAX:.2f}); use log_abs(w) "
        f"for log|v(w)|")


class ConvergenceError(RuntimeError):
    """Truncation schedule exhausted; .partial and .last_tail_bound hold
    the final truncated value and the final bound."""

    def __init__(self, message: str, partial: complex, last_tail_bound: float):
        super().__init__(message)
        self.partial = partial
        self.last_tail_bound = last_tail_bound


@dataclass(frozen=True)
class MeromorphicDatum:
    """u(z) = sum of c * (z - a)^(-m) terms; decays at infinity."""

    terms: tuple[tuple[complex, int, complex], ...]

    def __init__(self, terms):
        ts = []
        for a, m, c in terms:
            a, c = complex(a), complex(c)
            if not (math.isfinite(a.real) and math.isfinite(a.imag)
                    and math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("poles and coefficients must be finite")
            if (isinstance(m, bool) or not isinstance(m, numbers.Integral)
                    or m < 1):
                raise ValueError("pole orders must be integers >= 1")
            ts.append((a, int(m), c))
        object.__setattr__(self, "terms", tuple(ts))

    def __call__(self, z):
        """u(z): a complex for a number, an array for a numpy array."""
        if isinstance(z, np.ndarray):
            z = z.astype(complex, copy=False)
            acc = np.zeros_like(z)
        else:
            z = complex(z)
            acc = 0j
        for a, m, c in self.terms:
            acc += c / (z - a) ** m
        return acc

    @property
    def max_pole_modulus(self) -> float:
        return max((abs(a) for a, _, _ in self.terms), default=0.0)


def residue_oracle(u: MeromorphicDatum, w: complex) -> complex:
    """Exact residue sum of e^{z*w} u(z) over all poles, times 2 pi i.

    Each term c*(z-a)^{-m} contributes 2 pi i * c * w^{m-1} e^{a*w}/(m-1)!.
    Terms are accumulated in declaration order.  Raises OverflowError
    when some Re(a*w) is beyond the float range of e^x.
    """
    w = complex(w)
    acc = 0j
    try:
        for a, m, c in u.terms:
            acc += c * w ** (m - 1) * cmath.exp(a * w) / math.factorial(m - 1)
    except OverflowError:
        top = max((a * w).real for a, _, _ in u.terms)
        raise _overflow(w, top) from None
    return 2j * math.pi * acc


def _residue_log_abs(terms, w: complex) -> float:
    """log of the residue sum's magnitude, safe for huge |w|."""
    w = complex(w)
    if not terms:
        return -math.inf
    if w == 0:
        total = sum(c for _, m, c in terms if m == 1)
        return math.log(TWO_PI * abs(total)) if total != 0 else -math.inf
    logs: list[float] = []
    phases: list[float] = []
    lw = math.log(abs(w))
    aw = cmath.phase(w)
    for a, m, c in terms:
        if c == 0:
            continue
        logs.append(math.log(TWO_PI * abs(c)) + (m - 1) * lw
                    + (a * w).real - math.lgamma(m))
        phases.append(cmath.phase(1j * c) + (m - 1) * aw + (a * w).imag)
    if not logs:
        return -math.inf
    top = max(logs)
    acc = 0j
    for lg, ph in zip(logs, phases):
        acc += math.exp(lg - top) * cmath.exp(1j * ph)
    if acc == 0:
        return -math.inf
    return top + math.log(abs(acc))


@dataclass(frozen=True)
class TransformResult:
    """Evaluator for a transform value v(w), with provenance.

    provenance: "contour", "residue", or "area-oracle".  domain: where
    the evaluator is defined (checked; out-of-domain w raises).  When
    the underlying datum's residue sum is known to equal v (true for
    every transform built here), residue_terms carries it and powers
    the overflow-safe log_abs.
    """

    provenance: str
    domain: str
    full_eval: Callable[[complex], tuple[complex, float]]
    residue_terms: Optional[tuple] = None
    member: Optional[Callable[[complex], bool]] = None
    diagnostics: Optional[Callable] = None

    def __call__(self, w: complex) -> complex:
        return self.full_eval(complex(w))[0]

    def with_error(self, w: complex) -> tuple[complex, float]:
        return self.full_eval(complex(w))

    def domain_contains(self, w: complex) -> bool:
        if self.member is None:
            return True
        return self.member(complex(w))

    def log_abs(self, w: complex) -> float:
        """log|v(w)| without overflow, via the residue form when known."""
        w = complex(w)
        if self.residue_terms is not None:
            return _residue_log_abs(self.residue_terms, w)
        v, _ = self.full_eval(w)
        av = abs(v)
        return math.log(av) if av > 0 else -math.inf


def residue_transform(u: MeromorphicDatum) -> TransformResult:
    """The residue sum packaged as an exact TransformResult."""

    def full(w: complex) -> tuple[complex, float]:
        return residue_oracle(u, w), 0.0

    return TransformResult("residue", "entire plane", full, u.terms)


def polya_transform(u: MeromorphicDatum, K: ConvexBody, r: float,
                    clearance_ratio: float = 0.1,
                    abs_tol: float = 1e-11) -> TransformResult:
    """v(w) as the integral of e^{z*w} u(z) over the CCW circle C(0, r).

    The circle must enclose K with clearance (default 10% of r) and
    every pole must lie strictly inside K.  The value is independent of
    admissible r up to quadrature error.  Nodes and u at them are built
    at the first evaluation and cached (see the module docstring).
    """
    if not isinstance(K, ConvexBody):
        raise TypeError("polya_transform needs a compact ConvexBody")
    r = float(r)
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError("circle radius must be positive")
    for a, _, _ in u.terms:
        if signed_distance(K, a) >= -1e-9:
            raise ValueError(f"pole {a} is not strictly inside the body")
    extent = max(abs(v) for v in K.vertices) + K.rounding
    if extent > r * (1.0 - clearance_ratio):
        raise ValueError(
            f"circle radius {r} too small: the body extends to {extent} "
            f"and needs clearance {clearance_ratio * r}")
    circle = circle_contour(0j, r)
    u_at: dict[int, np.ndarray] = {}  # node count -> u at those nodes

    def u_nodes(z: np.ndarray) -> np.ndarray:
        # integrate passes the circle's cached node array for each count.
        uz = u_at.get(len(z))
        if uz is None:
            uz = u_at[len(z)] = u(z)
        return uz

    def full(w: complex) -> tuple[complex, float]:
        # Scale out the peak modulus r*|w| of the kernel on the circle.
        M = r * abs(w)
        if M > _LOG_FLOAT_MAX:
            raise _overflow(w, M)
        res = integrate(circle, lambda z: np.exp(z * w - M) * u_nodes(z),
                        abs_tol,
                        min_nodes=math.ceil(_NODES_PER_EXPONENT * M))
        scale = math.exp(M)
        return scale * res.value, scale * res.error

    return TransformResult("contour", "entire plane", full, u.terms)


def tail_bound(R: float, c: float, N: int, delta: float, s: float) -> float:
    """2 pi c R^{N+1} e^{-s delta R}: the truncation tail estimate.

    Decreasing in R once R > (N+1)/(s*delta).
    """
    if not (R > 0 and c > 0 and delta > 0 and s > 0):
        raise ValueError("tail_bound needs positive R, c, delta, s")
    if not (isinstance(N, int) and N >= 0):
        raise ValueError("N must be a nonnegative integer")
    return TWO_PI * c * R ** (N + 1) * math.exp(-s * delta * R)


@dataclass(frozen=True)
class MerilTrace:
    """Convergence record of one truncated-boundary evaluation."""

    radii: tuple[float, ...]
    values: tuple[complex, ...]
    gaps: tuple[float, ...]
    bounds: tuple[float, ...]
    s: float
    c_fit: float
    converged: bool
    value: complex
    error: float


def _sample_sup(pieces, weight, n: int = 17) -> float:
    t = np.arange(n) / (n - 1)
    return max([0.0] + [float(weight(p.point(t)).max()) for p in pieces])


def default_radius_schedule(u: MeromorphicDatum, S_eps,
                            eps: float) -> tuple[float, ...]:
    """Geometric ladder: R0 = 2(max pole modulus + eps + 1), ratio 1.5,
    40 steps, bumped when the thickened boundary's corners need more
    room."""
    r0 = 2.0 * (u.max_pole_modulus + eps + 1.0)
    r0 = max(r0, 1.5 * (open_boundary_extent(S_eps) + 1.0))
    return tuple(r0 * 1.5 ** k for k in range(40))


def meril_transform(u: MeromorphicDatum, S: ConvexRegion, eps: float,
                    eps_prime: float,
                    radius_schedule=None,
                    tolerance: float = 1e-9,
                    abs_tol: float = 1e-11) -> TransformResult:
    """v(w) over the positively oriented boundary of the thickening S_eps.

    Truncated at an increasing radius ladder; convergence is declared
    when a truncation step moves the value by less than both the
    requested tolerance and the fitted tail bound at the current radius.
    w must lie in the open dual cone of S shifted by eps' * xi0, where
    xi0 is the dual cone's unit bisector.
    """
    if not isinstance(S, ConvexRegion):
        raise TypeError("meril_transform needs a ConvexRegion")
    if region_is_bounded(S):
        raise ValueError("the region is bounded: use polya_transform")
    if region_contains_line(S):
        raise ValueError("the region contains a line")
    if not (eps > 0 and eps_prime > 0):
        raise ValueError("thickening parameters must be positive")
    for a, _, _ in u.terms:
        if signed_distance(S, a) >= -1e-9:
            raise ValueError(f"pole {a} is not strictly inside the region")
    dual = polar_cone(asymptotic_cone(S))
    xi0 = bisector(dual)
    shift = eps_prime * xi0
    S_eps = thicken(S, eps)
    if radius_schedule is None:
        radius_schedule = default_radius_schedule(u, S_eps, eps)
    radii = tuple(float(R) for R in radius_schedule)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("the radius schedule must be strictly increasing")
    (b_in, d_in), (b_out, d_out) = open_boundary_rays(S_eps)
    corners = boundary_walk(S_eps).corners

    def c_weight(z: np.ndarray) -> np.ndarray:
        # |e^{eps' xi0 z} u(z)|, the N = 0 boundary growth constant.
        return np.abs(u(z)) * np.exp((shift * z).real)

    def trace(w: complex) -> MerilTrace:
        w = complex(w)
        if not dual.strictly_contains(w - shift, margin=1e-9):
            raise ValueError(
                "w is outside the shifted open dual cone of the region")
        peak = max((c * w).real for c in corners) + S_eps.rounding * abs(w)
        if peak > _LOG_FLOAT_MAX:
            raise _overflow(w, peak)
        q = w - shift
        s = abs(q)
        phase_q = cmath.phase(q)

        def g(z: np.ndarray) -> np.ndarray:
            return np.exp(z * w) * u(z)

        def delta_at(R_cur: float) -> float:
            angles = []
            for base, d in ((b_in, d_in), (b_out, d_out)):
                t = circle_hit(base, d, R_cur)
                angles.append(cmath.phase(base + t * d))
                angles.append(cmath.phase(base + 4.0 * t * d))
                angles.append(cmath.phase(d))
            delta = min(-math.cos(th + phase_q) for th in angles)
            return max(delta, 1e-3)

        base_contour = region_boundary_contour(S_eps, truncation=radii[0])
        res = integrate(base_contour, g, abs_tol)
        value, err = res.value, res.error
        c_fit = _sample_sup(base_contour.pieces, c_weight)
        values = [value]
        gaps: list[float] = []
        bounds: list[float] = []
        converged = False
        final = value
        tail = math.inf
        for R_prev, R_next in zip(radii, radii[1:]):
            tin0 = circle_hit(b_in, d_in, R_prev)
            tin1 = circle_hit(b_in, d_in, R_next)
            tout0 = circle_hit(b_out, d_out, R_prev)
            tout1 = circle_hit(b_out, d_out, R_next)
            ext_in = Segment(b_in + tin1 * d_in, b_in + tin0 * d_in)
            ext_out = Segment(b_out + tout0 * d_out, b_out + tout1 * d_out)
            step = 0j
            for seg in (ext_in, ext_out):
                r_ = integrate(OrientedContour([seg]), g, abs_tol)
                step += r_.value
                err += r_.error
                c_fit = max(c_fit, _sample_sup([seg], c_weight, 9))
            value = value + step
            gap = abs(step)
            tail = tail_bound(R_prev, c_fit, 0, delta_at(R_prev), s)
            values.append(value)
            gaps.append(gap)
            bounds.append(tail)
            if gap <= tolerance and gap <= tail:
                converged = True
                final = value
                n_used = len(gaps)
                return MerilTrace(radii[:n_used + 1], tuple(values),
                                  tuple(gaps), tuple(bounds), s, c_fit,
                                  True, final, err + tail)
        raise ConvergenceError(
            f"truncation schedule exhausted; last tail bound {tail:.3e}",
            value, tail)

    def full(w: complex) -> tuple[complex, float]:
        t = trace(w)
        return t.value, t.error

    def member(w: complex) -> bool:
        return dual.strictly_contains(complex(w) - shift, margin=1e-9)

    return TransformResult(
        "contour",
        "open dual cone of the region, shifted by eps' * xi0",
        full, u.terms, member, trace)


def borel_inverse(coefficients, k_radius: float) -> MeromorphicDatum:
    """u with polya_transform(u)(w)/(2 pi i) = sum a_n w^n: the inverse
    Laplace/Borel map a_n -> a_n n! z^{-(n+1)}.

    Only finite coefficient lists are accepted; k_radius > 0 names the
    scale of the compact set the round trip will use.
    """
    coeffs = list(coefficients)
    if not (float(k_radius) > 0):
        raise ValueError("k_radius must be positive")
    terms = []
    for n, a_n in enumerate(coeffs):
        a_n = complex(a_n)
        if not (math.isfinite(a_n.real) and math.isfinite(a_n.imag)):
            raise ValueError("coefficients must be finite")
        if a_n != 0:
            terms.append((0j, n + 1, a_n * math.factorial(n)))
    return MeromorphicDatum(terms)
