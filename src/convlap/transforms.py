"""Laplace-type contour transforms of meromorphic data.

Two contour realizations of the same map: a circle integral for compact
convex sets (Polya) and a truncated-boundary integral with a closed-form
tail bound for unbounded convex regions (Meril).  Both integrate
e^{z*w} u(z) dz, with no 1/(2 pi i) normalization anywhere, and both
agree with the classical residue sum, which this module also provides
as an independent oracle.

Large |w| would overflow a naive evaluation: M, the sup of Re(z*w) on
the contour, sets the size of the quadrature's terms, and log-magnitude
queries (``TransformResult.log_abs``) go through the residue form in a
log-sum-exp style.  Where the value itself would overflow a float
(M, or Re(a*w) for the residue sum, above log(float max) ~ 709.78) the
evaluators raise an OverflowError that names |w| and points to log_abs.
Evaluators, the oracle, log_abs and ray_tail_bound reject a non-finite w.

Polya integrates over the full circle C(c, r), c = 0 unless the caller
centres it on the body, in the moment form of ``contour.integrate``
(the FFT of u times a level's trapezoid weights, kept by the transform's
own circle), so a w costs one call of integrate, one scaled Taylor sum
of about r|w| + 12 sqrt(r|w|) + 40 terms and one product of it with the
fine and coarse moments, with no exp over the nodes.  Its tolerance is
abs_tol * e^M, M = Re(c*w) + r|w|, and its estimate, a Python float like
every estimate here, is the gap between the n/2- and n-node sums plus
the roundoff floor 16 eps e^M sum |u(z_k) w_k| and the dropped Taylor
terms' bound; at 4096 nodes a gap above both the target and that floor
raises QuadratureError.

Meril integrates the unscaled e^{z*w} u(z) up to the first radius of a
geometric ladder where the closed-form tail bound of both boundary rays
(``ray_tail_bound``) is at most MERIL_TAIL_TOL: the contour to the first
radius through ``integrate``, whose pieces start where u alone settles
(learned at the first w; the transform keeps both), and the rungs, each
ray's piece between two radii, in closed form.  From z0 to infinity
along a ray, e^{z*w} c (z - a)^{-m} integrates to c e^{z0*w}
(z0 - a)^{1-m} S_m(-(z0 - a) w), S_m(t) = e^t E_m(t) (DLMF 8.19,
Abramowitz & Stegun 5.1), so a rung is the difference of both rays'
tails at its two radii.  A transform walks the thickened boundary chain
once and, at its first w, takes each ray's crossings with all the radii
in one array pass; a w then costs one array pass for both rays' tail
bounds, one exp and one S_m over the crossings up to the stop
(_ray_factor, whose weights and series tables are built at import) and
Python sums of the rungs.  The first radius keeps every t off E_m's
branch cut.  A kernel peak (the thickened region's support function at
w) beyond log(float max) raises the named OverflowError before any
quadrature.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .contour import (
    _LOG_FLOAT_MAX,
    _EPS,
    _finite_w,
    _open_chain,
    circle_contour,
    circle_hit,
    integrate,
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
    support_function,
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
    "ray_tail_bound",
]

TWO_PI = 2.0 * math.pi
# Clearance between a Polya circle and the body, as a share of its radius.
POLYA_CLEARANCE = 0.1
MERIL_ABS_TOL = 1e-11  # Meril's quadrature target per contour
MERIL_TAIL_TOL = 1e-3 * 1e-9  # its ray tail cut-off, 1.0000000000000002e-12


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
        object.__setattr__(self, "_hash", hash(self.terms))

    def __hash__(self) -> int:  # once per datum: it keys contour's cache
        return self._hash

    def __call__(self, z):
        """u(z): a complex for a number, an array for a numpy array."""
        if isinstance(z, np.ndarray):
            z = z.astype(complex, copy=False)
            # 0j + the first term: the bits of zeros_like(z) + it, unfilled.
            acc = 0j if self.terms else np.zeros_like(z)
        else:
            z = complex(z)
            acc = 0j
        for a, m, c in self.terms:  # (z - a) ** 1 is z - a, by a slow pow
            acc += c / (z - a) if m == 1 else c / (z - a) ** m
        return acc

    @property
    def max_pole_modulus(self) -> float:
        return max((abs(a) for a, _, _ in self.terms), default=0.0)


def residue_oracle(u: MeromorphicDatum, w: complex) -> complex:
    """Exact residue sum of e^{z*w} u(z) over all poles, times 2 pi i.

    Each term c*(z-a)^{-m} contributes 2 pi i * c * w^{m-1} e^{a*w}/(m-1)!.
    Terms are accumulated in declaration order, each in log form where
    its direct form overflows.  Orders 1-3 take c e^{a*w}, c w e^{a*w} and
    c (w*w) e^{a*w}/2 (w*w finite), that form's own sums: w ** 1 is
    (1+0j)*w, w ** 2 is (1+0j)*(w*w).  Raises OverflowError, naming the
    largest term's log-magnitude, when a term or the sum leaves the float
    range, and ValueError when w is not finite.
    """
    w = _finite_w(w)
    acc = 0j
    try:
        for a, m, c in u.terms:
            try:
                e = cmath.exp(a * w)
                if m == 1:
                    acc += c * e
                elif m == 2:
                    acc += c * w * e
                elif m == 3 and cmath.isfinite(ww := w * w):
                    acc += c * ww * e / 2
                else:
                    acc += c * w ** (m - 1) * e / math.factorial(m - 1)
            except OverflowError:  # w^{m-1}, e^{a*w} or (m-1)! is no float
                acc += w and c * cmath.exp(  # 0 for m > 1 at w = 0
                    (m - 1) * cmath.log(w) + a * w - math.lgamma(m))
        value = 2j * math.pi * acc
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    logs = _term_logs(u.terms, w) if w else []  # at 0 only the sum can
    raise _overflow(w, max(logs, default=math.inf))


def _term_logs(terms, w: complex) -> list[float]:
    """log|2 pi c w^{m-1} e^{a*w}/(m-1)!| of each term with c != 0."""
    lw = math.log(abs(w))
    return [math.log(TWO_PI * abs(c)) + (m - 1) * lw + (a * w).real
            - math.lgamma(m) for a, m, c in terms if c != 0]


def _residue_log_abs(terms, w: complex) -> float:
    """log of the residue sum's magnitude, safe for huge |w|."""
    if w == 0:
        total = sum(c for _, m, c in terms if m == 1)
        return math.log(TWO_PI * abs(total)) if total != 0 else -math.inf
    logs = _term_logs(terms, w)
    aw = cmath.phase(w)
    phases = [cmath.phase(1j * c) + (m - 1) * aw + (a * w).imag
              for a, m, c in terms if c != 0]
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

    provenance: "contour" or "residue".  member, when given, tells
    whether w lies in the evaluator's domain (out-of-domain w raises).
    residue_terms are the terms of the datum whose residue sum equals v;
    they power the overflow-safe log_abs.
    """

    provenance: str
    full_eval: Callable[[complex], tuple[complex, float]]
    residue_terms: tuple
    member: Optional[Callable[[complex], bool]] = None
    diagnostics: Optional[Callable] = None

    def __call__(self, w: complex) -> complex:
        return self.full_eval(complex(w))[0]

    def with_error(self, w: complex) -> tuple[complex, float]:
        return self.full_eval(complex(w))

    def domain_contains(self, w: complex) -> bool:
        return self.member is None or self.member(complex(w))

    def log_abs(self, w: complex) -> float:
        """log|v(w)| without overflow, via the residue form; ValueError
        when w is not finite."""
        return _residue_log_abs(self.residue_terms, _finite_w(w))


def residue_transform(u: MeromorphicDatum) -> TransformResult:
    """The residue sum packaged as an exact TransformResult."""

    def full(w: complex) -> tuple[complex, float]:
        return residue_oracle(u, w), 0.0

    return TransformResult("residue", full, u.terms)


def polya_transform(u: MeromorphicDatum, K: ConvexBody, r: float,
                    center: complex = 0j,
                    abs_tol: float = 1e-11) -> TransformResult:
    """v(w) as the integral of e^{z*w} u(z) over the CCW circle
    C(center, r).

    The circle must enclose K with clearance POLYA_CLEARANCE * r and
    every pole must lie strictly inside K.  The value is independent of
    admissible centres and radii up to quadrature error; abs_tol is
    relative to e^M, M = Re(center*w) + r|w| (see the module docstring).
    """
    if not isinstance(K, ConvexBody):
        raise TypeError("polya_transform needs a compact ConvexBody")
    r = float(r)
    center = complex(center)
    circle = circle_contour(center, r)  # rejects r <= 0 and inf or nan
    for a, _, _ in u.terms:
        if signed_distance(K, a) >= -1e-9:
            raise ValueError(f"pole {a} is not strictly inside the body")
    extent = max(abs(v - center) for v in K.vertices) + K.rounding
    if extent > r * (1.0 - POLYA_CLEARANCE):
        raise ValueError(
            f"circle radius {r} too small: the body extends to {extent} "
            f"from {center} and needs clearance {POLYA_CLEARANCE * r}")

    def full(w: complex) -> tuple[complex, float]:
        M = (center * w).real + r * abs(w)
        # A w that is not finite makes M inf or nan; _finite_w names it.
        if not M <= _LOG_FLOAT_MAX:
            raise _overflow(_finite_w(w), M)
        return integrate(circle, u, abs_tol * math.exp(M), w=w)

    return TransformResult("contour", full, u.terms)


def _ray_sup(u: MeromorphicDatum, base: complex, direction: complex,
             t: np.ndarray) -> np.ndarray:
    """sum |c| / dist(a, ray)^m >= |u| on z = base + s*direction, s >= t,
    for each t of the array (direction a unit vector)."""
    acc = np.zeros(t.shape)
    for a, m, c in u.terms:
        # The ray point nearest the pole.
        s = np.maximum(t, ((a - base) * direction.conjugate()).real)
        acc += abs(c) / np.abs(base + s * direction - a) ** m
    return acc


def ray_tail_bound(u: MeromorphicDatum, base: complex, direction: complex,
                   t, w: complex):
    """|integral of e^{z*w} u(z) dz| over z = base + s*direction, s >= t,
    is at most e^{Re((base + t*direction)*w)} * sum |c| / dist(ray, a)^m
    / (-Re(direction*w)), for a unit direction along which the kernel
    decays; t may be an array, giving one bound per entry."""
    if abs(abs(direction) - 1.0) > 1e-12:
        raise ValueError("the ray direction must be a unit vector")
    rate = -(direction * _finite_w(w)).real
    if not rate > 0.0:
        raise ValueError("e^{z*w} does not decay along the ray")
    t_arr = np.asarray(t, dtype=float)
    out = (np.exp(((base + t_arr * direction) * w).real)
           * _ray_sup(u, base, direction, t_arr) / rate)
    return float(out) if out.ndim == 0 else out


def _gauss_laguerre(n: int):
    """n-point Gauss-Laguerre nodes and weights by Golub and Welsch: the
    Jacobi matrix's eigenvalues and the squared first components of its
    eigenvectors.  Their low moments are exact to a few ulps, where
    numpy's laggauss misses them by up to 1e-13 from the first one on."""
    k = np.arange(1.0, n)
    x, vectors = np.linalg.eigh(np.diag(2.0 * np.arange(n) + 1.0)
                                + np.diag(k, 1) + np.diag(k, -1))
    return x, vectors[0] ** 2


# The nodes of 48- and 64-point Gauss-Laguerre, and their weights as two
# columns, each zero at the other rule's nodes: one product gives both
# sums.  Nodes and weights meet complex t and sums, so they are cast to
# complex once, here.  The floor's |terms| take the float 64-point
# column as a strided view: a contiguous copy takes another matmul path
# for one-column t, which moves estimates in the last bit.
_nodes, _weights = map(np.concatenate,
                       zip(_gauss_laguerre(48), _gauss_laguerre(64)))
_LAGUERRE_NODES = _nodes.astype(complex)
_columns = np.zeros((_weights.size, 2))
_columns[:48, 0], _columns[48:, 1] = np.split(_weights, [48])
_LAGUERRE_WEIGHTS = _columns.astype(complex)
_LAGUERRE_FLOOR_WEIGHTS = _columns[:, 1]


def _series_tables(n: int):
    """What E_m's power series to n terms (orders m <= n - 40) reads
    besides t: the divisors -k, k = 1 .. n - 1, psi(k + 1) = -gamma +
    sum_{j <= k} 1/j, and a row 1/(k + 1 - m), 0 at k = m - 1, per m."""
    k = np.arange(n)
    den = k + (1 - np.arange(1, n - 39)[:, None])
    inv = np.divide(1.0, den, out=np.zeros(den.shape), where=den != 0)
    psi = np.cumsum(np.concatenate(([-np.euler_gamma], 1.0 / k[1:])))
    return -k[1:] + 0j, psi, inv


# The series' tables for pole orders up to 24 (n = 64), built once; a
# point of a higher order builds its own.
_SERIES_TABLES = _series_tables(64)


def _ray_factor(t: np.ndarray, m: np.ndarray):
    """S_m(t) = e^t E_m(t) and an estimate of its error, for each t of the
    array (|arg t| < pi, t != 0) and the pole order m broadcast against it.

    For |t| < 5, E_m's power series (DLMF 8.19.8) to the term m + 39
    (5^40/40! is 1.1e-20), with a roundoff floor of 16 eps e^Re(t)
    sum|terms| and the dropped terms' bound.  Else the 64-point
    Gauss-Laguerre sum of S_m(t) = t^{m-1} int_0^inf e^{-y} (t + y)^{-m} dy,
    with its gap to 48 points and a floor of 16 eps sum|terms|.
    """
    t_col = t[..., None]
    q = t_col + _LAGUERRE_NODES
    np.divide(t_col, q, out=q)  # t / (t + y)
    f = q
    top = int(m.max())
    if top > 1:  # f = q^m, row by row
        f = q.copy()
        for k in range(2, top + 1):
            np.multiply(f, q, out=f, where=(m >= k)[..., None])
    sums = f @ _LAGUERRE_WEIGHTS
    value = sums[..., 1] / t
    estimate = (np.abs(sums[..., 1] - sums[..., 0]) + 16.0 * _EPS
                * (np.abs(f) @ _LAGUERRE_FLOOR_WEIGHTS)) / np.abs(t)
    near = np.abs(t) < 5.0
    if near.any():
        s, m = t[near], np.broadcast_to(m, t.shape)[near]
        n = 40 + int(m.max())
        neg_k, psi, inv = (_SERIES_TABLES if n <= len(_SERIES_TABLES[1])
                           else _series_tables(n))
        p = np.ones((s.size, n), complex)  # (-t)^k / k!, a running product
        p[:, 1:] = s[:, None] / neg_k[:n - 1]
        np.multiply.accumulate(p, axis=1, out=p)
        inv = inv[m - 1, :n]  # the sum's terms are p / (k + 1 - m)
        lead = p[np.arange(s.size), m - 1] * (psi[m - 1] - np.log(s))
        scale = np.exp(s)
        value[near] = scale * (lead - (p * inv).sum(axis=1))
        y = np.abs(s)
        dropped = np.abs(p[:, -1]) * y / n / (n + 1 - m) / (1 - y / (n + 1))
        estimate[near] = np.abs(scale) * (dropped + 16.0 * _EPS * (
            np.abs(lead) + (np.abs(p) * np.abs(inv)).sum(axis=1)))
    return value, estimate


@dataclass(frozen=True)
class MerilTrace:
    """Convergence record of one truncated-boundary evaluation: values[k]
    is truncated at radii[k], gaps[k] is |values[k+1] - values[k]| and
    bounds[k] the closed-form tail bound beyond radii[k] plus that rung's
    estimate."""

    radii: tuple[float, ...]
    values: tuple[complex, ...]
    gaps: tuple[float, ...]
    bounds: tuple[float, ...]
    value: complex
    error: float


def meril_transform(u: MeromorphicDatum, S: ConvexRegion, eps: float,
                    eps_prime: float) -> TransformResult:
    """v(w) over the positively oriented boundary of the thickening S_eps.

    Truncated where the closed-form tail is at most MERIL_TAIL_TOL (see
    the module docstring), which the error estimate adds to the quadrature
    estimate; ConvergenceError carries the value and tail at the last
    radius when no radius meets that.  w must lie in the open dual cone
    of S shifted by eps' * xi0, xi0 the dual cone's unit bisector.
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
    shift = eps_prime * bisector(dual)
    S_eps = thicken(S, eps)
    # Geometric, ratio 1.5, 40 steps from 2(max |pole| + eps + 1), bumped
    # when the thickened boundary's corners need more room, and past
    # max |corner of S| + eps + 2 max |pole|: on the boundary Re(z w) <=
    # (max |corner| + eps) |w|, so no tail point beyond has (z - a) w > 0,
    # which would put t = -(z - a) w on E_m's branch cut.
    a_max = u.max_pole_modulus
    chain = _open_chain(S_eps)
    r0 = max(2.0 * (a_max + eps + 1.0), 1.5 * (chain.extent + 1.0),
             max(map(abs, boundary_walk(S).corners)) + eps + 2 * a_max + 1.0)
    radii = tuple(r0 * 1.5 ** k for k in range(40))
    rays = chain.rays

    @functools.cache
    def ladder():
        # The contour to radii[0] (beyond the chain's extent); a row per
        # ray of its crossings with the circles and of the bound on |u|
        # beyond them (w enters only the decay); rows (ray, term) of z - a
        # and z at the crossings, of the tail's coefficient
        # -+c (z - a)^{1-m}, - on the entry ray, which the contour runs
        # inward, and of m (no terms: one term c = 0).
        ts = [circle_hit(b, d, np.array(radii)) for b, d in rays]
        zs = np.array([b + t * d for (b, d), t in zip(rays, ts)])
        sups = np.array([_ray_sup(u, b, d, t) for (b, d), t in zip(rays, ts)])
        rows = [(z - a, z, sign * c * (z - a) ** (1 - m), [m])
                for sign, z in zip((-1.0, 1.0), zs)
                for a, m, c in u.terms or [(0j, 1, 0j)]]
        return (chain.truncated(radii[0]), zs, sups,
                tuple(map(np.array, zip(*rows))))

    def trace(w: complex) -> MerilTrace:
        w = _finite_w(w)
        if not dual.strictly_contains(w - shift, margin=1e-9):
            raise ValueError(
                "w is outside the shifted open dual cone of the region")
        peak = support_function(S_eps, w)
        if peak > _LOG_FLOAT_MAX:
            raise _overflow(w, peak)
        base_contour, zs, sups, (rel, at, coef, m) = ladder()
        # ray_tail_bound of both rays beyond each radius, a row per ray;
        # each decay rate is a Python product (numpy's moves its bits).
        tails = (np.exp((zs * w).real) * sups
                 / [[-(d * w).real] for _, d in rays])
        tail = tails[0] + tails[1]
        met = np.flatnonzero(tail <= MERIL_TAIL_TOL)
        stop = int(met[0]) if met.size else len(radii) - 1
        value, err = integrate(base_contour, u, MERIL_ABS_TOL, w=w)
        # Both rays' tails beyond each radius in closed form (see the module
        # docstring); rung k is the difference of those at radii k, k + 1.
        factor, est = _ray_factor(-w * rel[:, :stop + 1], m)
        scale = coef[:, :stop + 1] * np.exp(at[:, :stop + 1] * w)
        # The rungs as Python numbers: their sums are np.cumsum's sequential
        # adds, but Python's abs is not numpy's, so the gaps keep numpy's.
        beyond = (scale * factor).sum(axis=0).tolist()
        beyond_err = (np.abs(scale) * est).sum(axis=0).tolist()
        steps = [a - b for a, b in zip(beyond, beyond[1:])]
        step_errs = [a + b for a, b in zip(beyond_err, beyond_err[1:])]
        values = tuple(itertools.accumulate(steps, initial=value))
        last = float(tail[stop])
        if not met.size:
            raise ConvergenceError(
                f"truncation schedule exhausted; last tail bound "
                f"{last:.3e}", values[-1], last)
        bounds = tuple(t + e for t, e in zip(tail.tolist(), step_errs))
        return MerilTrace(radii[:stop + 1], values,
                          tuple(np.abs(steps).tolist()), bounds, values[-1],
                          sum(step_errs, err) + last)

    def full(w: complex) -> tuple[complex, float]:
        t = trace(w)
        return t.value, t.error

    def member(w: complex) -> bool:
        return dual.strictly_contains(complex(w) - shift, margin=1e-9)

    return TransformResult("contour", full, u.terms, member, trace)


def borel_inverse(coefficients) -> MeromorphicDatum:
    """u with polya_transform(u)(w)/(2 pi i) = sum a_n w^n: the inverse
    Laplace/Borel map a_n -> a_n n! z^{-(n+1)}, all poles at 0.

    Only finite coefficient lists are accepted.
    """
    coeffs = list(coefficients)
    terms = []
    for n, a_n in enumerate(coeffs):
        a_n = complex(a_n)
        if not (math.isfinite(a_n.real) and math.isfinite(a_n.imag)):
            raise ValueError("coefficients must be finite")
        if a_n != 0:
            terms.append((0j, n + 1, a_n * math.factorial(n)))
    return MeromorphicDatum(terms)
