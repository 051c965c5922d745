"""Ray-sampled growth classification for transform outputs.

A transform value ``v`` belongs to the exponential class of a convex set
when ``|v(w)| e^{-h(w) - eps*|w|}`` stays bounded for the set's support
evaluator ``h``, at every tolerance ``eps`` in a ladder.  Growth of this
kind is dominated along rays, so the functional is sampled on
equiangular rays crossed with a geometric radius ladder and judged per
radius.  log|v(w)| and h(w) do not depend on eps: one call samples the
lattice once for a whole eps ladder, and every report of the ladder
holds those same samples; a report gives a sample's ratio at its own eps.

All internal arithmetic runs in log space through
``TransformResult.log_abs`` so that sampling radii in the thousands
cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_EPS_LADDER",
    "DEFAULT_RADII",
    "ExpClassVerdict",
    "GrowthReport",
    "GrowthSample",
    "classify_growth",
    "exp_class_verdict",
    "growth_ratio_sup",
]

DEFAULT_RADII: tuple[float, ...] = tuple(
    float(r) for r in np.geomspace(1.0, 1.0e4, 25))
DEFAULT_EPS_LADDER: tuple[float, ...] = (0.5, 0.25, 0.1)

# Successive radius sups may creep up by this factor before the bounded
# verdict is withdrawn; absorbs quadrature noise near the sup.
SUP_GROWTH_FACTOR = 1.05


@dataclass(frozen=True)
class GrowthSample:
    """One lattice point: w, h(w) = support and log|v(w)| = log_abs.

    Nothing here depends on eps; GrowthReport.ratio reads the growth
    ratio at the report's eps.
    """

    w: complex
    support: float
    log_abs: float
    ray_index: int
    radius: float


@dataclass(frozen=True)
class GrowthReport:
    """The verdict at one eps.  samples is the lattice, sorted by ray and
    radius, and is the same tuple in every report of one ladder."""

    epsilon: float
    radii: tuple[float, ...]
    rays: int
    samples: tuple[GrowthSample, ...]
    log_radius_sups: tuple[float, ...]
    verdict: str
    growth_rate: float

    @property
    def sup(self) -> float:
        return _lin(max(self.log_radius_sups))

    def log_ratio(self, s: GrowthSample) -> float:
        """log(|v(w)| e^{-h(w)-eps*|w|}) at s, finite where ratio overflows."""
        return s.log_abs - s.support - self.epsilon * abs(s.w)

    def ratio(self, s: GrowthSample) -> float:
        return _lin(self.log_ratio(s))


@dataclass(frozen=True)
class ExpClassVerdict:
    epsilons: tuple[float, ...]
    verdicts: tuple[str, ...]
    member: bool
    monotone: bool


def _lin(value: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _check_decreasing(epsilons: Sequence[float]) -> None:
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("eps ladder must be strictly decreasing")


def _slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ys against xs, which are not all equal."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return float(sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))


def growth_ratio_sup(v, h: Callable[[complex], float],
                     eps_ladder: Sequence[float],
                     radii: Sequence[float] | None = None,
                     rays: int = 64) -> tuple[GrowthReport, ...]:
    """Sample |v(w)| e^{-h(w) - eps*|w|} on rays x radii and judge it,
    one report per eps of the ladder, which must strictly decrease.

    v needs log_abs(w) and domain_contains(w); sampling skips points
    outside the domain, and calls log_abs and h once per point it keeps.
    Verdict "bounded" means the per-radius sups stop increasing (within
    SUP_GROWTH_FACTOR) after the first quartile of the ladder;
    "unbounded" means the log sup grows linearly in the radius with
    fitted slope above eps/2; anything else is "inconclusive".
    """
    eps_ladder = tuple(eps_ladder)
    if not eps_ladder or not all(0 < eps < math.inf for eps in eps_ladder):
        raise ValueError("eps ladder needs positive finite entries")
    _check_decreasing(eps_ladder)
    if rays < 1:
        raise ValueError("need at least one ray")
    ladder = tuple(float(r) for r in (DEFAULT_RADII if radii is None else radii))
    if not ladder:
        raise ValueError("empty radius ladder")
    if any(b <= a for a, b in zip(ladder, ladder[1:])) or ladder[0] <= 0:
        raise ValueError("radius ladder must be positive and strictly increasing")

    directions = [complex(math.cos(2 * math.pi * k / rays),
                          math.sin(2 * math.pi * k / rays))
                  for k in range(rays)]
    rings = []  # per radius, the samples at the ray points in v's domain
    for radius in ladder:
        ws = [(k, radius * d) for k, d in enumerate(directions)]
        rings.append([GrowthSample(w, float(h(w)), v.log_abs(w), k, radius)
                      for k, w in ws if v.domain_contains(w)])
        if not rings[-1]:
            raise ValueError(
                f"empty sample set: no ray point at radius {radius} "
                "lies in the domain of v")
    samples = tuple(sorted((s for ring in rings for s in ring),
                           key=lambda s: (s.ray_index, s.radius)))
    return tuple(_judge(eps, ladder, rays, rings, samples)
                 for eps in eps_ladder)


def _judge(eps: float, ladder: tuple[float, ...], rays: int, rings: list,
           samples: tuple[GrowthSample, ...]) -> GrowthReport:
    """growth_ratio_sup's report at one eps on the sampled lattice."""
    # -inf first, so that a nan ratio never becomes a ring's sup.
    log_sups = [max(-math.inf, *(s.log_abs - s.support - eps * abs(s.w)
                                 for s in ring)) for ring in rings]

    q = len(ladder) // 4
    window = log_sups[q:]
    log_tol = math.log(SUP_GROWTH_FACTOR)
    nonincreasing = all(b <= a + log_tol for a, b in zip(window, window[1:]))

    fit = [(r, s) for r, s in zip(ladder[q:], window) if math.isfinite(s)]
    if len(fit) >= 2:
        rate = _slope(*zip(*fit))
    elif window and window[-1] == -math.inf:
        rate = -math.inf
    else:
        rate = 0.0

    if nonincreasing:
        verdict = "bounded"
    elif rate > eps / 2:
        verdict = "unbounded"
    else:
        verdict = "inconclusive"

    return GrowthReport(
        epsilon=eps, radii=ladder, rays=rays, samples=samples,
        log_radius_sups=tuple(log_sups), verdict=verdict, growth_rate=rate)


def exp_class_verdict(reports: Sequence[GrowthReport]) -> ExpClassVerdict:
    """Aggregate per-eps reports into a membership claim.

    Reports must share the sampling lattice and come in strictly
    decreasing eps order.  Membership requires a bounded verdict at
    every eps; the monotone flag records whether boundedness at an eps
    propagated to every larger eps as it must.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one growth report")
    epsilons = tuple(r.epsilon for r in reports)
    _check_decreasing(epsilons)
    base = reports[0]
    for r in reports[1:]:
        if r.radii != base.radii or r.rays != base.rays:
            raise ValueError("growth reports use inconsistent sampling lattices")
    verdicts = tuple(r.verdict for r in reports)
    monotone = True
    seen_unbounded = False
    for verdict in verdicts:
        if verdict == "bounded" and seen_unbounded:
            monotone = False
        if verdict != "bounded":
            seen_unbounded = True
    return ExpClassVerdict(
        epsilons=epsilons, verdicts=verdicts,
        member=all(v == "bounded" for v in verdicts), monotone=monotone)


def classify_growth(v, h: Callable[[complex], float],
                    eps_ladder: Sequence[float] = DEFAULT_EPS_LADDER,
                    radii: Sequence[float] | None = None,
                    rays: int = 64) -> ExpClassVerdict:
    """Judge v across an eps ladder and aggregate the reports."""
    return exp_class_verdict(growth_ratio_sup(v, h, eps_ladder, radii=radii,
                                              rays=rays))
