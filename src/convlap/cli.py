"""Declarative scenario runner.

A scenario is a JSON document naming a transform kind, a convex set,
function data, and a list of checks.  Running one executes the checks,
writes report.txt / samples.csv (and optionally plot.svg), and exits 0
when every check passes, 1 when one fails, 2 on configuration errors,
the transform constructors' preconditions included (a pole outside the
set, a circle too small for the body, a bounded region or one that
contains a line).
samples.csv has one row per growth sample: w, v(w) and its error
estimate v_err (nan, nan and inf where the evaluation raises), h(w),
the growth ratio, the ray index and the radius.

Scenario schema (all lengths are plane coordinates, pairs are [re, im]):

    kind      "polya" | "meril" | "legendre" | "oracle"
    label     display name, default = kind
    set       {"type": "body", "vertices": [[x,y],...], "rounding": r}
              {"type": "region", "halfplanes": [[nx,ny,c],...]}
              {"type": "sector", "apex": [x,y], "axis": a, "half_angle": g}
    terms     [{"pole": [x,y], "order": m, "coefficient": [re,im]}, ...]
    pieces    [[bx, by, c], ...]                       (legendre only)
    r         radius of the circle about the vertices' mean (polya),
              default 1.25*(max|vertex - mean| + rounding)
    eps       thickening, default 0.1                  (meril)
    eps_prime cone shift, default = eps                (meril)
    checks    checks to run, in this order, from the kind's vocabulary;
              default: all of it but meril's growth.  Default tolerances:
                polya     oracle 1e-9, contour-independence 1e-10, growth
                meril     oracle 1e-8, tail-dominance,
                          epsilon-robustness 1e-8, growth
                legendre  biconjugation 1e-9, fenchel-young 1e-10
                oracle    growth
    w_grid    {"limit": L, "n": n} oracle grid, default 3.0 / 21
    w_samples [[x,y], ...] explicit oracle points      (meril)
    growth    {"eps_ladder": [...], "rays": n, "radii": [...]}
    samples_count  random sample count for legendre checks, default 100;
              the points lie more than 1e-6 inside the body, and both
              checks fail when it has none
    tolerances     {check-name: override}, for checks that have a tolerance
    plot      true to emit plot.svg, default false
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import _lp
from .contour import QuadratureError
from .convexgeom import (
    ConvexBody,
    ConvexRegion,
    asymptotic_cone,
    bisector,
    polar_cone,
    sector,
    signed_distance,
    support_function,
)
from .growth import (
    DEFAULT_EPS_LADDER,
    GrowthReport,
    exp_class_verdict,
    growth_ratio_sup,
)
from .legendre import PLConvexFunction, conjugate, conjugate_at
from .transforms import (
    POLYA_CLEARANCE,
    ConvergenceError,
    MeromorphicDatum,
    TransformResult,
    meril_transform,
    polya_transform,
    residue_oracle,
    residue_transform,
)

__all__ = ["Scenario", "ScenarioError", "main", "parse_scenario", "run_scenario"]


class ScenarioError(ValueError):
    """Configuration problem, reported with the JSON path at fault."""


_CSV_COLUMNS = ("w_re", "w_im", "v_re", "v_im", "v_err", "h", "ratio",
                "ray_index", "radius")
_GROWTH_RADII = tuple(float(r) for r in np.geomspace(1.0, 100.0, 13))
_GROWTH_RAYS = 16


@dataclass(frozen=True)
class Scenario:
    kind: str
    label: str
    domain: Any
    datum: MeromorphicDatum | None
    pl_function: PLConvexFunction | None
    r: float | None
    center: complex
    transform: TransformResult | None  # None for legendre
    eps: float
    eps_prime: float
    checks: tuple[str, ...]
    tolerances: dict[str, float]
    w_limit: float
    w_count: int
    w_samples: tuple[complex, ...] | None
    eps_ladder: tuple[float, ...]
    growth_radii: tuple[float, ...]
    growth_rays: int
    samples_count: int
    plot: bool
    defaults_applied: tuple[str, ...] = field(default_factory=tuple)


def _fail(path: str, why: str):
    raise ScenarioError(f"{path}: {why}")


def _as_dict(x, path: str) -> dict:
    if not isinstance(x, dict):
        _fail(path, "expected an object")
    return x


def _as_list(x, path: str) -> list:
    if not isinstance(x, list):
        _fail(path, "expected an array")
    return x


def _as_real(x, path: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        _fail(path, "expected a number")
    v = float(x)
    if not math.isfinite(v):
        _fail(path, "expected a finite number")
    return v


def _as_int(x, path: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(path, "expected an integer")
    return x


def _as_reals(x, path: str, n=None, form: str = "") -> tuple:
    """The numbers of an array; exactly n of them, shaped as form, when
    n is given."""
    lst = _as_list(x, path)
    if n is not None and len(lst) != n:
        _fail(path, f"expected {form}")
    return tuple(_as_real(v, f"{path}[{i}]") for i, v in enumerate(lst))


def _as_pair(x, path: str) -> complex:
    return complex(*_as_reals(x, path, 2, "a [re, im] pair"))


def _parse_set(doc, path: str):
    obj = _as_dict(doc, path)
    kind = obj.get("type")
    if kind == "body":
        verts = [_as_pair(v, f"{path}.vertices[{i}]")
                 for i, v in enumerate(_as_list(obj.get("vertices"),
                                                path + ".vertices"))]
        rounding = _as_real(obj.get("rounding", 0.0), path + ".rounding")
        try:
            return ConvexBody(verts, rounding)
        except ValueError as exc:
            _fail(path, str(exc))
    if kind == "region":
        hp = [_as_reals(row, f"{path}.halfplanes[{i}]", 3, "[nx, ny, c]")
              for i, row in enumerate(_as_list(obj.get("halfplanes"),
                                               path + ".halfplanes"))]
        try:
            return ConvexRegion(hp)
        except ValueError as exc:
            _fail(path, str(exc))
    if kind == "sector":
        apex = _as_pair(obj.get("apex", [0.0, 0.0]), path + ".apex")
        axis = _as_real(obj.get("axis", 0.0), path + ".axis")
        gamma = _as_real(obj.get("half_angle"), path + ".half_angle")
        if not 0.0 < gamma < 0.5 * math.pi:
            _fail(path + ".half_angle", "must lie in (0, pi/2)")
        return sector(apex, axis, gamma)
    _fail(path + ".type", "expected 'body', 'region', or 'sector'")


def _parse_terms(doc, path: str) -> MeromorphicDatum:
    rows = _as_list(doc, path)
    terms = []
    for i, row in enumerate(rows):
        p = f"{path}[{i}]"
        obj = _as_dict(row, p)
        pole = _as_pair(obj.get("pole"), p + ".pole")
        order = _as_int(obj.get("order", 1), p + ".order")
        if order < 1:
            _fail(p + ".order", "must be a positive integer")
        coeff = obj.get("coefficient", [1.0, 0.0])
        terms.append((pole, order, _as_pair(coeff, p + ".coefficient")))
    try:
        return MeromorphicDatum(terms)
    except ValueError as exc:
        _fail(path, str(exc))


def parse_scenario(text: str) -> Scenario:
    """Validate a JSON scenario document and fill in defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"$: invalid JSON: {exc}") from None
    doc = _as_dict(doc, "$")
    for key in doc:
        if key not in {"kind", "label", "set", "terms", "pieces", "r", "eps",
                       "eps_prime", "checks", "w_grid", "w_samples", "growth",
                       "samples_count", "tolerances", "plot"}:
            _fail(f"$.{key}", "unknown field")

    kind = doc.get("kind")
    if kind not in _KIND_CHECKS:
        _fail("$.kind", f"expected one of {sorted(_KIND_CHECKS)}, got {kind!r}")
    label = doc.get("label", kind)
    if not isinstance(label, str):
        _fail("$.label", "expected a string")
    defaults: list[str] = []

    domain = _parse_set(doc.get("set"), "$.set")
    datum = None
    pl_function = None
    if kind == "legendre":
        pieces = []
        for i, row in enumerate(_as_list(doc.get("pieces", []), "$.pieces")):
            bx, by, c = _as_reals(row, f"$.pieces[{i}]", 3, "[b_re, b_im, c]")
            pieces.append((complex(bx, by), c))
        if not isinstance(domain, ConvexBody):
            _fail("$.set", "legendre scenarios need a bounded body domain")
        pl_function = PLConvexFunction(pieces, domain)
    else:
        if "terms" not in doc:
            _fail("$.terms", "required for this kind")
        datum = _parse_terms(doc.get("terms"), "$.terms")

    eps = _as_real(doc.get("eps", 0.1), "$.eps")
    if eps <= 0:
        _fail("$.eps", "must be positive")
    if "eps" not in doc:
        defaults.append(f"eps={eps:g}")
    eps_prime = _as_real(doc.get("eps_prime", eps), "$.eps_prime")
    if eps_prime <= 0:
        _fail("$.eps_prime", "must be positive")
    if "eps_prime" not in doc and kind == "meril":
        defaults.append(f"eps_prime={eps_prime:g}")

    if kind in ("polya", "oracle") and not isinstance(domain, ConvexBody):
        _fail("$.set", f"{kind} scenarios need a bounded body")
    r, center = None, 0j
    if kind == "polya":
        # The circle is centred on the body, so that its radius, and with
        # it the kernel's peak e^{Re(center*w) + r|w|} over the value's
        # size, does not grow with the body's distance from the origin.
        center = sum(domain.vertices) / len(domain.vertices)
        defaults.append(f"center={center.real:g}{center.imag:+g}i "
                        f"(= mean of the vertices)")
        if "r" in doc:
            r = _as_real(doc.get("r"), "$.r")
        else:
            # The body's extent from the centre over 1 - 2*clearance: twice
            # the clearance polya_transform demands.  The roundoff grows
            # like eps*e^{r|w|} relative to e^{Re(center*w)}, so it shrinks
            # with r.
            extent = (max(abs(v - center) for v in domain.vertices)
                      + domain.rounding)
            r = extent / (1.0 - 2 * POLYA_CLEARANCE)
            defaults.append(
                f"r={r:g} (= 1.25*(max|vertex - center| + rounding))")
    # The constructors check their own preconditions; name the field.
    transform = None
    try:
        if kind == "polya":
            transform = polya_transform(datum, domain, r, center)
        elif kind == "meril":
            transform = meril_transform(datum, domain, eps, eps_prime)
        elif kind == "oracle":
            transform = residue_transform(datum)
    except (TypeError, ValueError) as exc:
        msg = str(exc)
        _fail("$.terms" if "pole" in msg else
              "$.r" if "radius" in msg else "$.set", msg)

    checks_doc = doc.get("checks")
    if checks_doc is None:
        checks = _DEFAULT_CHECKS[kind]
        defaults.append("checks=" + ",".join(checks))
    else:
        checks = tuple(_as_list(checks_doc, "$.checks"))
        seen = set()
        for i, c in enumerate(checks):
            if c not in _KIND_CHECKS[kind]:
                _fail(f"$.checks[{i}]",
                      f"unknown check {c!r} for kind {kind!r}; "
                      f"allowed: {', '.join(_KIND_CHECKS[kind])}")
            if c in seen:
                _fail(f"$.checks[{i}]", f"duplicate check {c!r}")
            seen.add(c)
        if not checks:
            _fail("$.checks", "needs at least one check")

    tolerances = {}
    tol_doc = _as_dict(doc.get("tolerances", {}), "$.tolerances")
    for name, value in tol_doc.items():
        path = f"$.tolerances.{name}"
        if name not in _KIND_CHECKS[kind]:
            _fail(path, f"no such check for kind {kind!r}")
        if _CHECKS[name][1][kind] is None:
            _fail(path, f"check {name!r} takes no tolerance")
        tolerances[name] = _as_real(value, path)
        if tolerances[name] <= 0:
            _fail(path, "must be positive")
    for name in checks:
        default = _CHECKS[name][1][kind]
        if default is not None:
            tolerances.setdefault(name, default)

    grid = _as_dict(doc.get("w_grid", {}), "$.w_grid")
    w_limit = _as_real(grid.get("limit", 3.0), "$.w_grid.limit")
    w_count = _as_int(grid.get("n", 21), "$.w_grid.n")
    if w_limit <= 0 or w_count < 2:
        _fail("$.w_grid", "limit must be positive and n at least 2")

    w_samples = None
    if "w_samples" in doc:
        w_samples = tuple(_as_pair(v, f"$.w_samples[{i}]")
                          for i, v in enumerate(_as_list(doc.get("w_samples"),
                                                         "$.w_samples")))
        if not w_samples:
            _fail("$.w_samples", "needs at least one point")

    gdoc = _as_dict(doc.get("growth", {}), "$.growth")
    for key in gdoc:
        if key not in {"eps_ladder", "rays", "radii"}:
            _fail(f"$.growth.{key}", "unknown field")
    ladder = gdoc.get("eps_ladder")
    if ladder is None:
        eps_ladder = DEFAULT_EPS_LADDER
    else:
        eps_ladder = _as_reals(ladder, "$.growth.eps_ladder")
        if not eps_ladder or any(e <= 0 for e in eps_ladder):
            _fail("$.growth.eps_ladder", "needs positive entries")
        if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
            _fail("$.growth.eps_ladder", "must be strictly decreasing")
    radii_doc = gdoc.get("radii")
    if radii_doc is None:
        growth_radii = _GROWTH_RADII
    else:
        growth_radii = _as_reals(radii_doc, "$.growth.radii")
        if not growth_radii or any(r <= 0 for r in growth_radii):
            _fail("$.growth.radii", "needs positive entries")
        if any(b <= a for a, b in zip(growth_radii, growth_radii[1:])):
            _fail("$.growth.radii", "must be strictly increasing")
    growth_rays = _as_int(gdoc.get("rays", _GROWTH_RAYS), "$.growth.rays")
    if growth_rays < 1:
        _fail("$.growth.rays", "needs at least one ray")

    samples_count = _as_int(doc.get("samples_count", 100), "$.samples_count")
    if samples_count < 1:
        _fail("$.samples_count", "must be positive")
    plot = doc.get("plot", False)
    if not isinstance(plot, bool):
        _fail("$.plot", "expected true or false")

    return Scenario(
        kind=kind, label=label, domain=domain, datum=datum,
        pl_function=pl_function, r=r, center=center, transform=transform,
        eps=eps, eps_prime=eps_prime, checks=checks, tolerances=tolerances,
        w_limit=w_limit, w_count=w_count, w_samples=w_samples,
        eps_ladder=eps_ladder, growth_radii=growth_radii,
        growth_rays=growth_rays,
        samples_count=samples_count, plot=plot,
        defaults_applied=tuple(defaults))


# ---- check execution ----

@dataclass
class _CheckResult:
    passed: bool
    detail: str
    report: GrowthReport | None = None  # growth: the last eps's report


def _square_grid(limit: float, n: int) -> list[complex]:
    xs = np.linspace(-limit, limit, n)
    return [complex(a, b) for a in xs for b in xs]


def _meril_points(sc: Scenario) -> list[complex]:
    if sc.w_samples is not None:
        return list(sc.w_samples)
    cone = polar_cone(asymptotic_cone(sc.domain))
    xi0 = bisector(cone)
    shift = sc.eps_prime * xi0
    spread = 0.5 * cone.half_width
    out = []
    for dt in (-spread, 0.0, spread):
        for radius in (1.5, 3.0):
            out.append(shift + radius * complex(math.cos(cone.axis + dt),
                                                math.sin(cone.axis + dt)))
    return out


def _meril_traces(v):
    """v with its Meril trace at each w evaluated once, at the first
    request of any check; one that raised raises the same exception at
    every request."""
    memo: dict[complex, Any] = {}

    def trace(w: complex):
        if w not in memo:
            try:
                memo[w] = v.diagnostics(w)
            except Exception as exc:
                memo[w] = exc
        if isinstance(memo[w], Exception):
            raise memo[w]
        return memo[w]

    def full(w: complex) -> tuple[complex, float]:
        t = trace(w)
        return t.value, t.error
    return replace(v, full_eval=full, diagnostics=trace)


def _check_oracle(sc: Scenario, v, rng, tol: float) -> _CheckResult:
    if sc.kind == "meril":
        points = _meril_points(sc)
    else:
        points = _square_grid(sc.w_limit, sc.w_count)
    worst = 0.0
    for w in points:
        ref = residue_oracle(sc.datum, w)
        got = v(w)
        worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
    ok = worst <= tol
    return _CheckResult(ok, f"max scaled deviation {worst:.3e} over "
                            f"{len(points)} points (tolerance {tol:.1e})")


def _check_contour_independence(sc: Scenario, v, rng,
                                tol: float) -> _CheckResult:
    vs = [v] + [
        polya_transform(sc.datum, sc.domain, f * sc.r, sc.center)
        for f in (1.5, 3.0)]
    worst = 0.0
    ok = True
    # Cap the sampled |w| so the widest circle keeps 3r|w| modest;
    # beyond that e^{3r|w|} roundoff drowns both values and estimates.
    limit = min(sc.w_limit, 3.0 / sc.r)
    for w in _square_grid(limit, min(sc.w_count, 9)):
        vals = [t.with_error(w) for t in vs]
        for (a, ea), (b, eb) in zip(vals, vals[1:]):
            excess = abs(a - b) - (tol + ea + eb)
            worst = max(worst, abs(a - b))
            if excess > 0:
                ok = False
    return _CheckResult(ok, f"radii {sc.r:g}/{1.5 * sc.r:g}/{3 * sc.r:g}, "
                            f"max pairwise gap {worst:.3e} "
                            f"(allowance {tol:.1e} + quadrature errors)")


def _check_growth(sc: Scenario, v, rng, tol: None) -> _CheckResult:
    h = lambda w: support_function(sc.domain, w)
    reports = [growth_ratio_sup(v, h, eps, radii=sc.growth_radii,
                                rays=sc.growth_rays)
               for eps in sc.eps_ladder]
    verdict = exp_class_verdict(reports)
    ladder = ", ".join(f"{e:g}" for e in verdict.epsilons)
    if verdict.member:
        return _CheckResult(True, f"member of the exponential class across "
                                  f"eps ladder {ladder}", reports[-1])
    for eps, rep in zip(verdict.epsilons, reports):
        if rep.verdict != "bounded":
            outermost = [s for s in rep.samples if s.radius == rep.radii[-1]]
            ray = max(outermost, key=lambda s: s.log_ratio).ray_index
            angle = 2.0 * math.pi * ray / rep.rays
            return _CheckResult(
                False, f"non-member: verdict {rep.verdict} at eps={eps:g}; "
                f"worst ray {ray} (angle {angle:.3f} rad, "
                f"growth rate {rep.growth_rate:.3g} per unit radius)",
                reports[-1])
    return _CheckResult(False, f"non-member: eps ladder {ladder} inconsistent",
                        reports[-1])


def _check_tail_dominance(sc: Scenario, v, rng, tol: None) -> _CheckResult:
    points = _meril_points(sc)
    steps = 0
    for w in points:
        trace = v.diagnostics(w)
        for gap, bound in zip(trace.gaps[1:], trace.bounds[1:]):
            steps += 1
            if gap > bound:
                return _CheckResult(
                    False, f"gap {gap:.3e} exceeds closed-form tail bound "
                    f"{bound:.3e} at w={w}")
    return _CheckResult(True, f"all {steps} truncation gaps past the first "
                              f"step dominated by the closed-form tail bound")


def _check_eps_robustness(sc: Scenario, v, rng, tol: float) -> _CheckResult:
    # eps' moves only the domain test, so the eps'/2 run is v on v's domain.
    half_eps = meril_transform(sc.datum, sc.domain, 0.5 * sc.eps,
                               sc.eps_prime)
    worst = 0.0
    for w in _meril_points(sc):
        worst = max(worst, abs(v(w) - half_eps(w)))
    return _CheckResult(worst <= tol, f"max gap {worst:.3e} against the eps/2 "
                        f"run, the eps'/2 run equal to v on v's domain by "
                        f"construction (tolerance {tol:.1e})")


def _interior_samples(body: ConvexBody, rng, count: int) -> list[complex]:
    # The points more than 1e-6 inside are the core's interior shrunk by
    # 1e-6 less the rounding, if that is positive.  Decided before any
    # draw, so that a body without them fails instead of drawing forever.
    shrink = 1e-6 - body.rounding
    if shrink >= 0.0:
        inner = _lp.halfplane_polygon([(nx, ny, d - shrink)
                                       for nx, ny, d in body.core.edges])
        if inner is None or len(inner.vertices) < 3:
            raise ValueError("no point of the domain lies more than 1e-6 "
                             "inside it: the body shrunk by 1e-6 has no "
                             "interior")
    lo_x = min(v.real for v in body.vertices) - body.rounding
    hi_x = max(v.real for v in body.vertices) + body.rounding
    lo_y = min(v.imag for v in body.vertices) - body.rounding
    hi_y = max(v.imag for v in body.vertices) + body.rounding
    out: list[complex] = []
    while len(out) < count:
        z = complex(rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y))
        if signed_distance(body, z) < -1e-6:
            out.append(z)
    return out


def _check_biconjugation(sc: Scenario, v, rng, tol: float) -> _CheckResult:
    f = sc.pl_function
    f_cc = conjugate(conjugate(f))
    worst = 0.0
    for z in _interior_samples(f.domain, rng, sc.samples_count):
        a, b = f.value(z), f_cc.value(z)
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    ok = worst <= tol
    return _CheckResult(ok, f"max scaled gap {worst:.3e} on "
                            f"{sc.samples_count} interior points "
                            f"(tolerance {tol:.1e})")


def _check_fenchel_young(sc: Scenario, v, rng, tol: float) -> _CheckResult:
    f = sc.pl_function
    zs = np.array(_interior_samples(f.domain, rng, sc.samples_count))
    fz = np.array([f.value(z) for z in zs])[:, None]
    # 20 w per z, read in the order of 20 scalar (u, v) draws per z.
    ws = rng.uniform(-3, 3, (zs.size, 20, 2)).view(complex)[..., 0]
    # Re(z*w) as the complex product forms it.
    re = zs.real[:, None] * ws.real - zs.imag[:, None] * ws.imag
    worst = max(0.0, float((re - fz - conjugate_at(f, ws)).max()))
    ok = worst <= tol
    return _CheckResult(ok, f"max inequality violation {worst:.3e} on "
                            f"{ws.size} pairs (tolerance {tol:.1e})")


# Every check: its function, called as check(sc, v, rng, tol), and the
# kinds that have it, each with the check's default tolerance there (None:
# the check takes none).  A kind's vocabulary follows this order.
_CHECKS = {
    # Quadrature roundoff scales like e^{r|w|} * 1e-16.  The default Polya
    # radius hugs the body (1.25 times its extent: r|w| <= 5.3 for the unit
    # disk on the default grid), which leaves room for 1e-9.
    "oracle": (_check_oracle, {"polya": 1e-9, "meril": 1e-8}),
    "contour-independence": (_check_contour_independence, {"polya": 1e-10}),
    "tail-dominance": (_check_tail_dominance, {"meril": None}),
    "epsilon-robustness": (_check_eps_robustness, {"meril": 1e-8}),
    "growth": (_check_growth, {"polya": None, "meril": None, "oracle": None}),
    "biconjugation": (_check_biconjugation, {"legendre": 1e-9}),
    "fenchel-young": (_check_fenchel_young, {"legendre": 1e-10}),
}
_KIND_CHECKS = {kind: tuple(name for name, (_, tols) in _CHECKS.items()
                            if kind in tols)
                for kind in ("polya", "meril", "legendre", "oracle")}
_DEFAULT_CHECKS = dict(_KIND_CHECKS, meril=tuple(
    name for name in _KIND_CHECKS["meril"] if name != "growth"))


# ---- artifact writers ----

def _csv_text(report: GrowthReport | None, v) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    if report is not None:
        for s in report.samples:
            try:
                val, err = v.with_error(s.w)
            except (OverflowError, QuadratureError, ConvergenceError):
                val, err = complex(math.nan, math.nan), math.inf
            writer.writerow([s.w.real, s.w.imag, val.real, val.imag, err,
                             s.support, s.ratio, s.ray_index, s.radius])
    return buf.getvalue()


def _svg_text(report: GrowthReport) -> str:
    width, height, margin = 640, 480, 60
    xs = [math.log10(r) for r in report.radii]
    ys = [lr for lr in report.log_radius_sups if math.isfinite(lr)]
    pts = [s.log_ratio for s in report.samples if math.isfinite(s.log_ratio)]
    ys = ys + pts
    y_lo, y_hi = (min(ys), max(ys)) if ys else (-1.0, 1.0)
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_lo, x_hi = xs[0], xs[-1]

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" font-size="13" '
        f'text-anchor="middle">log10 radius</text>',
        f'<text x="18" y="{height // 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {height // 2})">log growth ratio</text>',
        f'<text x="{margin}" y="{height - margin + 18}" font-size="11" '
        f'text-anchor="middle">{report.radii[0]:.3g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 18}" '
        f'font-size="11" text-anchor="middle">{report.radii[-1]:.3g}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" font-size="11" '
        f'text-anchor="end">{y_lo:.3g}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" font-size="11" '
        f'text-anchor="end">{y_hi:.3g}</text>',
    ]
    by_ray: dict[int, list[tuple[float, float]]] = {}
    for s in report.samples:
        if math.isfinite(s.log_ratio):
            by_ray.setdefault(s.ray_index, []).append(
                (math.log10(s.radius), s.log_ratio))
    for ray in sorted(by_ray):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in by_ray[ray])
        hue = round(360.0 * ray / max(1, report.rays))
        parts.append(f'<polyline fill="none" stroke="hsl({hue},65%,40%)" '
                     f'stroke-width="1.2" points="{pts}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def run_scenario(sc: Scenario, out_dir: str | Path = ".",
                 tolerance_scale: float = 1.0, seed: int = 0) -> int:
    """Execute all checks, write artifacts, return the exit status."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Only the Legendre kind's checks draw samples.
    rng = np.random.default_rng(seed) if sc.kind == "legendre" else None

    results: list[tuple[str, _CheckResult]] = []
    v = _meril_traces(sc.transform) if sc.kind == "meril" else sc.transform
    for name in sc.checks:
        try:
            tol = sc.tolerances.get(name)
            if tol is not None:
                tol *= tolerance_scale
            results.append((name, _CHECKS[name][0](sc, v, rng, tol)))
        except Exception as exc:  # a crashed check fails; artifacts still land
            results.append((name, _CheckResult(False,
                                               f"check raised {exc!r}")))
    growth_report = next((r.report for _, r in results
                          if r.report is not None), None)

    all_pass = all(r.passed for _, r in results) and bool(results)
    lines = [f"scenario: {sc.label}",
             f"kind: {sc.kind}",
             f"seed: {seed}",
             f"tolerance-scale: {tolerance_scale:g}"]
    if sc.defaults_applied:
        lines.append("defaults applied: " + "; ".join(sc.defaults_applied))
    for name, r in results:
        lines.append(f"check {name}: "
                     f"{'PASS' if r.passed else 'FAIL'} - {r.detail}")
    lines.append(f"result: {'PASS' if all_pass else 'FAIL'}")
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "samples.csv").write_text(_csv_text(growth_report, v),
                                     encoding="utf-8")
    if sc.plot and growth_report is not None:
        (out / "plot.svg").write_text(_svg_text(growth_report),
                                      encoding="utf-8")
    return 0 if all_pass else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="convlap",
        description="Run a declarative transform-check scenario.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a scenario JSON file")
    run.add_argument("scenario", help="path to the scenario document")
    run.add_argument("--out-dir", default=".",
                     help="directory for report.txt / samples.csv / plot.svg")
    run.add_argument("--tolerance-scale", type=float, default=1.0,
                     help="multiply every check tolerance by this factor")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for randomized property-check sampling")
    args = parser.parse_args(argv)

    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    if args.tolerance_scale <= 0:
        print("error: --tolerance-scale must be positive", file=sys.stderr)
        return 2
    try:
        sc = parse_scenario(text)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_scenario(sc, out_dir=args.out_dir,
                        tolerance_scale=args.tolerance_scale, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
