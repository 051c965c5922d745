"""Area-integral realization of the transform on a cutoff band.

Multiplying the data by a cutoff that vanishes near its poles and
equals one far away turns the contour integral into a 2-D integral of
e^{zw} * u * dbar(psi) over the annular band where the cutoff ramps up.
Green's theorem forces the two realizations to agree, which makes this
module an independent cross-check on the contour lane: it shares only
the convex-geometry primitives, never the path-integration code.

The band between the inner and outer thickenings is covered exactly by
facet strips and corner annulus sectors in signed-distance coordinates,
so the integrand is analytic on every patch and tensor Gauss-Legendre
rules, cached per profile and grid, converge geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convexgeom import ConvexBody, signed_distance, support_function, thicken
from .transforms import _LOG_FLOAT_MAX, TWO_PI, MeromorphicDatum, _overflow

__all__ = [
    "AreaResult",
    "CutoffProfile",
    "area_laplace",
    "cutoff_eval",
]

_EPS = float(np.finfo(float).eps)
_PANEL_NODES = 8  # Gauss-Legendre nodes per panel along a patch

# smoothstep name -> (psi, psi'); both are C1 hold-at-ends ramps.
_STEPS = {
    "cubic": (
        lambda s: s * s * (3.0 - 2.0 * s),
        lambda s: 6.0 * s * (1.0 - s),
    ),
    "quintic": (
        lambda s: s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s),
        lambda s: 30.0 * s * s * (1.0 - s) ** 2,
    ),
}


@dataclass(frozen=True)
class CutoffProfile:
    """Ramp from 0 on the inner thickening to 1 outside the outer one."""

    body: ConvexBody
    eps: float
    order: str = "quintic"

    def __post_init__(self):
        if not isinstance(self.body, ConvexBody):
            raise TypeError("cutoff profiles require a bounded convex body")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be a positive finite real")
        if self.order not in _STEPS:
            raise ValueError(f"unknown smoothstep order {self.order!r}; "
                             f"choose from {sorted(_STEPS)}")

    @property
    def inner(self) -> ConvexBody:
        return thicken(self.body, 0.5 * self.eps)

    @property
    def outer(self) -> ConvexBody:
        return thicken(self.body, self.eps)

    def __call__(self, z: complex) -> float:
        return cutoff_eval(self, z)


def cutoff_eval(p: CutoffProfile, z: complex) -> float:
    """Smoothstep of the signed distance through the band; exact 0/1 outside."""
    d = signed_distance(p.body, complex(z))
    s = (d - 0.5 * p.eps) / (0.5 * p.eps)
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    return _STEPS[p.order][0](s)


@dataclass(frozen=True)
class AreaResult:
    """The fine pass's value, its error estimate and its node count."""

    value: complex
    error: float
    nodes: int


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], by Golub-Welsch."""
    k = np.arange(1.0, n)
    x, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    w = 2.0 * v[0] ** 2
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _patches(body: ConvexBody):
    """Facet strips and corner sectors covering the offset band exactly.

    A point at distance d > 0 from the body projects either onto a facet
    interior (strip, unit Jacobian in (arclength, d)) or onto a vertex
    (sector, polar Jacobian r around the vertex).  Per patch: base point,
    unit tangent (0 on a sector), whether it is a sector, and [lo, hi] in
    arclength along a strip or in the outward ray's angle on a sector.
    """
    vs = np.array(body.vertices, dtype=complex)
    k = len(vs)
    if k == 1:
        return (vs, np.zeros(1, complex), np.ones(1, bool), np.zeros(1),
                np.full(1, TWO_PI))
    after = np.arange(1, k + 1) % k
    edges = vs[after] - vs
    tangents = edges / np.abs(edges)
    angles = np.arctan2(-tangents.real, tangents.imag)  # outward normals
    prev = angles[after - 2]
    return (np.concatenate((vs, vs)),
            np.concatenate((tangents, np.zeros(k, complex))),
            np.arange(2 * k) >= k,
            np.concatenate((np.zeros(k), prev)),
            np.concatenate((np.abs(edges), prev + (angles - prev) % TWO_PI)))


@lru_cache(maxsize=16)
def _band_nodes(p: CutoffProfile, grid: int):
    """Nodes z and weights 2i * quad * dbar(psi), fine pass then coarse,
    as read-only arrays cached per (profile, grid).

    The fine pass puts 2 * ceil(grid * share / 16) panels of 8 nodes on a
    patch with that share of the outer boundary (about grid nodes along
    the band), the coarse pass half as many; both take 3 Gauss nodes
    across it, which integrate psi' (quartic) exactly.
    """
    eps, rho = p.eps, p.body.rounding
    dpsi = _STEPS[p.order][1]
    r_lo, r_hi = rho + 0.5 * eps, rho + eps
    base, tangent, sector, lo, hi = _patches(p.body)
    lengths = np.where(sector, r_hi, 1.0) * (hi - lo)
    panels = np.ceil(grid * lengths / (16.0 * lengths.sum())).astype(int)
    x, wx = _gauss_legendre(_PANEL_NODES)
    r, r_w = _gauss_legendre(3)
    r = r_lo + 0.5 * (r + 1.0) * (r_hi - r_lo)
    # The rule's half-width eps/4 times dbar(psi) / ray = psi'(s) / eps.
    r_w = r_w * 0.25 * dpsi((r - r_lo) / (0.5 * eps))
    passes = []
    for times in (2, 1):
        count = times * panels
        patch = np.arange(count.size).repeat(count)  # of each panel
        h = (hi - lo)[patch] / count[patch]
        first = (count.cumsum() - count).repeat(count)
        a0 = lo[patch] + h * (np.arange(patch.size) - first)
        a = (a0[:, None] + 0.5 * h[:, None] * (x + 1.0)).ravel()
        a_w = (0.5 * h[:, None] * wx).ravel()
        node = patch.repeat(_PANEL_NODES)
        sec = sector[node]
        ray = np.where(sec, np.exp(1j * a), tangent[node] * -1j)
        z = (base[node] + a * tangent[node])[:, None] + ray[:, None] * r
        weights = ((2j * a_w * ray)[:, None] * r_w
                   * np.where(sec[:, None], r, 1.0))
        z.flags.writeable = weights.flags.writeable = False
        passes.append((z.ravel(), weights.ravel()))
    return tuple(passes)


def area_laplace(u: MeromorphicDatum, p: CutoffProfile, w: complex,
                 grid: int = 512) -> AreaResult:
    """Integrate e^{zw} * u * dbar(psi) over the cutoff band.

    The value is the fine pass of _band_nodes (1.5-2k nodes at grid 512),
    whose rule is built once per profile and grid (the last 16 kept).
    The error estimate is its gap to the coarse pass, a true half in both
    directions, plus 16 eps times the sum of the fine pass's |terms|;
    the caller compares it with its own tolerance.  The named
    OverflowError is raised before any quadrature when e^{zw} leaves the
    float range on the band.
    """
    if not isinstance(p, CutoffProfile):
        raise TypeError("p must be a CutoffProfile")
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError("w must be finite")
    if grid < 32:
        raise ValueError("grid resolution below 32 is not supported")
    half = 0.5 * p.eps
    for a, _, _ in u.terms:
        d = signed_distance(p.body, a)
        if d >= half - 1e-9:
            if d <= p.eps + 1e-9:
                raise ValueError(f"pole {a} lies in the cutoff band")
            raise ValueError(
                f"pole {a} is not inside the inner thickening")
    peak = support_function(p.body, w) + p.eps * abs(w)  # on p.outer
    if peak > _LOG_FLOAT_MAX:
        raise _overflow(w, peak)

    (z, weights), (z_c, weights_c) = _band_nodes(p, grid)
    terms = np.exp(z * w) * u(z) * weights
    fine = complex(terms.sum())
    coarse = complex(np.sum(np.exp(z_c * w) * u(z_c) * weights_c))
    err = abs(fine - coarse) + 16.0 * _EPS * float(np.abs(terms).sum())
    return AreaResult(value=fine, error=err, nodes=z.size)
