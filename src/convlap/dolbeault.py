"""Area-integral realization of the transform on a cutoff band.

Multiplying the data by a cutoff that vanishes near its poles and
equals one far away turns the contour integral into a 2-D integral of
e^{zw} * u * dbar(psi) over the annular band where the cutoff ramps up.
Green's theorem forces the two realizations to agree, which makes this
module an independent cross-check on the contour lane: it shares only
the convex-geometry primitives, never the path-integration code.

The band between the inner and outer thickenings is covered exactly by
facet strips and corner annulus sectors in signed-distance coordinates,
so the integrand is smooth on every patch and composite Simpson rules
converge at a clean fourth order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexgeom import ConvexBody, signed_distance, thicken
from .transforms import MeromorphicDatum

__all__ = [
    "AreaResult",
    "CutoffProfile",
    "area_laplace",
    "cutoff_eval",
]

TWO_PI = 2.0 * math.pi

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
    value: complex
    error: float
    resolution: int
    nodes: int
    within_tolerance: bool | None

    def __complex__(self) -> complex:
        return self.value


def _simpson(a: float, b: float, panels: int):
    xs = np.linspace(a, b, 2 * panels + 1)
    ws = np.ones(2 * panels + 1)
    ws[1::2] = 4.0
    ws[2:-1:2] = 2.0
    ws *= (b - a) / (6.0 * panels)
    return xs, ws


def _patches(body: ConvexBody):
    """Facet strips and corner sectors covering the offset band exactly.

    A point at distance d > 0 from the body projects either onto a facet
    interior (strip, unit Jacobian in (arclength, d)) or onto a vertex
    (sector, polar Jacobian r around the vertex).
    """
    vs = body.vertices
    if len(vs) == 1:
        return [("corner", vs[0], 0.0, TWO_PI)]
    out = []
    k = len(vs)
    angles = []
    for i in range(k):
        e = vs[(i + 1) % k] - vs[i]
        t = e / abs(e)
        n = t * -1j
        angles.append(math.atan2(n.imag, n.real))
        out.append(("facet", vs[i], t, n, abs(e)))
    for i in range(k):
        prev = angles[i - 1]
        width = (angles[i] - prev) % TWO_PI
        out.append(("corner", vs[i], prev, prev + width))
    return out


def _band_nodes(p: CutoffProfile, grid: int):
    """Quadrature nodes z and combined weights 2i * quad * dbar(psi)."""
    body, eps, rho = p.body, p.eps, p.body.rounding
    dpsi = _STEPS[p.order][1]
    r_lo, r_hi = rho + 0.5 * eps, rho + eps
    patches = _patches(body)
    lengths = [pc[4] if pc[0] == "facet" else (pc[3] - pc[2]) * r_hi
               for pc in patches]
    total_len = sum(lengths)
    p_r = max(2, grid // 16)
    r_nodes, r_ws = _simpson(r_lo, r_hi, p_r)
    s_norm = (r_nodes - r_lo) / (0.5 * eps)
    ramp = dpsi(s_norm) / eps  # psi'(s) * ds/dd, halved below via n/2 * 2i

    zs, ws = [], []
    for pc, length in zip(patches, lengths):
        q = max(2, math.ceil(grid * length / (2.0 * total_len)))
        if pc[0] == "facet":
            _, base, t, n, ell = pc
            a_nodes, a_ws = _simpson(0.0, ell, q)
            z = (base + a_nodes[:, None] * t) + r_nodes[None, :] * n
            w = a_ws[:, None] * (r_ws * ramp)[None, :] * (2j * n)
        else:
            _, vertex, th0, th1 = pc
            a_nodes, a_ws = _simpson(th0, th1, q)
            ray = np.exp(1j * a_nodes)
            z = vertex + ray[:, None] * r_nodes[None, :]
            w = (a_ws[:, None] * (r_ws * r_nodes * ramp)[None, :]
                 * (2j * ray[:, None]))
        zs.append(z.ravel())
        ws.append(w.ravel())
    return np.concatenate(zs), np.concatenate(ws)


def area_laplace(u: MeromorphicDatum, p: CutoffProfile, w: complex,
                 grid: int = 512,
                 tolerance: float | None = None) -> AreaResult:
    """Integrate e^{zw} * u * dbar(psi) over the cutoff band.

    The value is the Richardson extrapolation fine + (fine - coarse)/15
    of the fourth-order rule at grid and at a half-resolution pass, which
    removes the leading h^4 error term.  The error estimate is the
    difference between the two passes, which bounds the fine pass alone
    and so overstates the extrapolated value's error.  When a tolerance
    is given, within_tolerance reports whether the estimate met it (a
    too-coarse grid is flagged, never silently accepted).
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

    values = []
    nodes_used = 0
    for n in (grid, grid // 2):
        z, base_w = _band_nodes(p, n)
        if n == grid:
            nodes_used = z.size
        values.append(complex(np.sum(np.exp(z * w) * u(z) * base_w)))
    fine, coarse = values
    err = abs(fine - coarse) + 1e-15 * (1.0 + abs(fine))
    ok = None if tolerance is None else bool(err <= tolerance)
    return AreaResult(value=fine + (fine - coarse) / 15.0, error=err,
                      resolution=grid, nodes=nodes_used,
                      within_tolerance=ok)
