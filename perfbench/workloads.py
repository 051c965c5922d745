"""Seeded inputs for the three benchmark workloads.

A pass is a fixed list of batches generated from (seed, pass number).
A batch builds one object (a transform, or nothing for scenarios) and
then runs its ops under one deadline; an op is one checked unit of
work and returns an ``Outcome``.  Inputs are drawn from the workload's
full domain, including inputs the package currently gets wrong: each
such op carries the name of its known failure class in ``known``.  A
failed op records how it failed in ``Outcome.causes``; ``explained``
excuses it only when its input is in a known class and every cause is
one that class is known to produce, so a new defect on the same inputs
(another exception, a wrong value, a wrong exit code) is not excused.
Known classes, by input and by how they fail:

  polya-roundoff  Polya evaluation where eps_mach * e^{r|w|} exceeds a
                  tenth of the tolerance (the circle's roundoff floor);
                  fails by a deviation above tolerance
  reversed-rays   Meril region whose thickened boundary rays do not
                  point along its recession directions; fails by the
                  deadline, ConvergenceError or QuadratureError
  meril-far       Meril evaluation at |w| >= 20 (0.2 s to over 5 s
                  each); fails like reversed-rays
  biconjugation   conjugate(conjugate(f)) of a generated 2-6 piece
                  function; fails by the deadline or the 32-half-plane
                  cap
"""

from __future__ import annotations

import json
import math
import re
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from convlap import cli
from convlap.contour import open_boundary_rays
from convlap.convexgeom import (
    ConvexBody,
    ConvexRegion,
    asymptotic_cone,
    bisector,
    polar_cone,
    signed_distance,
    thicken,
)
from convlap.dolbeault import CutoffProfile, area_laplace
from convlap.transforms import (
    MeromorphicDatum,
    meril_transform,
    polya_transform,
    residue_oracle,
)

EPS_MACH = 2.220446049250313e-16
POLYA_TOL = 1e-9         # scaled, acceptance criterion 1
INDEP_TOL = 1e-10        # plus both error estimates, criterion 2
AREA_TOL = 1e-4          # absolute, criterion 3
MERIL_TOL = 1e-8         # scaled, criteria 5 and 6
MERIL_LADDER_TOL = 1e-9  # meril_transform's own default tolerance
FAR_W = 20.0            # Meril evaluations slow down from here on

# Deadlines in CPU seconds, several times the slowest healthy batch
# measured at the seed (polya 0.35 s, meril 0.13 s, generated scenario
# 0.25 s, shipped scenario 1.8 s).  Short deadlines make every input that
# hangs at the seed cost about the same, which keeps run-to-run spread
# low.
POLYA_DEADLINE = 2.0
MERIL_DEADLINE = 0.4
SCENARIO_DEADLINE = 0.8
SHIPPED_DEADLINE = 8.0

DISK = ConvexBody([0j], rounding=1.0)
ROUND_SQUARE = ConvexBody([0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j,
                           0.5 - 0.5j], rounding=0.25)


@dataclass
class Outcome:
    passed: bool
    dev: float | None = None        # scaled deviation from the oracle
    dishonest: bool = False         # oracle gap above the error estimate
    steps: int | None = None        # Meril truncation steps
    loose: bool = False             # converged with error > tolerance
    # How a failed op failed: "deadline", "tolerance", "raised:<class>"
    # ("raised:cap" for the 32-half-plane cap), "exit:<code>", "parse",
    # "artifacts"; a failed scenario check is "<check>/tolerance" or
    # "<check>/raised:<class>".
    causes: tuple[str, ...] = ()


def _checked(ok: bool, dev: float | None, dishonest: bool, **kw) -> Outcome:
    return Outcome(ok, dev, dishonest, causes=() if ok else ("tolerance",),
                   **kw)


_CAP_MESSAGE = "at most 32 half-planes"


def raised(exc: BaseException) -> str:
    """The cause recorded for an op that raised ``exc``."""
    if isinstance(exc, ValueError) and _CAP_MESSAGE in str(exc):
        return "raised:cap"
    return f"raised:{type(exc).__name__}"


_SLOW_MERIL = frozenset(("deadline", "raised:ConvergenceError",
                         "raised:QuadratureError"))


def _excused(known: str, cause: str) -> bool:
    check, _, how = cause.rpartition("/")
    if known == "polya-roundoff":
        return how == "tolerance" and check in ("", "oracle")
    if known in ("reversed-rays", "meril-far"):
        return how in _SLOW_MERIL
    if known == "biconjugation":
        return how == "deadline" or (check == "biconjugation"
                                     and how == "raised:cap")
    return False


def explained(known: str | None, out: Outcome) -> bool:
    """Whether a failed op failed the way its known class fails."""
    return (known is not None and bool(out.causes)
            and all(_excused(known, c) for c in out.causes))


@dataclass
class Batch:
    label: str
    deadline: float
    build: Callable[[], object]
    ops: list[Callable[[object], Outcome]]
    known: list[str | None] = field(default_factory=list)


def _cis(t: float) -> complex:
    return complex(math.cos(t), math.sin(t))


def _stratified(rng, n: int) -> np.ndarray:
    """n jittered points in [0, 1), one per bin, in shuffled order."""
    return rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


def _polygon(rng, sides: int, radius: float, rounding: float) -> ConvexBody:
    rot = rng.uniform(0.0, 2.0 * math.pi)
    return ConvexBody([radius * _cis(rot + 2.0 * math.pi * k / sides)
                       for k in range(sides)], rounding=rounding)


# ---- polya-grid ----

def _polya_datum(rng, body: ConvexBody) -> MeromorphicDatum:
    # Acceptance criterion 1's corpus: 1-5 terms, orders 1-3, poles in a
    # box well inside the body.
    scale = 1.3 if body.rounding >= 1.0 else 1.0
    return MeromorphicDatum([
        (complex(*rng.uniform(-0.45, 0.45, 2)) * scale,
         int(rng.integers(1, 4)), complex(*rng.uniform(-2, 2, 2)))
        for _ in range(int(rng.integers(1, 6)))])


def _polya_eval_op(w: complex):
    def op(ctx) -> Outcome:
        u, v = ctx[0], ctx[1]
        val, err = v.with_error(w)
        ref = residue_oracle(u, w)
        gap = abs(val - ref)
        dev = gap / (1.0 + abs(ref))
        return _checked(dev <= POLYA_TOL, dev, gap > err)
    return op


def _polya_indep_op(w: complex):
    def op(ctx) -> Outcome:
        u, triple = ctx[0], ctx[2]
        vals = [t.with_error(w) for t in triple]
        ref = residue_oracle(u, w)
        ok = all(abs(a - b) <= INDEP_TOL + ea + eb
                 for (a, ea), (b, eb) in zip(vals, vals[1:]))
        dev = max(abs(a - ref) for a, _ in vals) / (1.0 + abs(ref))
        return _checked(ok, dev, any(abs(a - ref) > e for a, e in vals))
    return op


def _area_op(w: complex, eps: float):
    def op(ctx) -> Outcome:
        u, body = ctx[0], ctx[3]
        area = area_laplace(u, CutoffProfile(body, eps), w, grid=512)
        gap = abs(area.value - residue_oracle(u, w))
        return _checked(gap <= AREA_TOL, None, gap > area.error)
    return op


def polya_pass(seed: int, pass_no: int) -> list[Batch]:
    """4 transforms on each of a disk, a rounded square and a rounded
    pentagon; per transform a 9x9 grid on |Re w|, |Im w| <= 3, rings at
    |w| = 6..15, contour-independence triples and one area check."""
    rng = np.random.default_rng([seed, pass_no, 1])
    r = 2.0
    grid = [complex(a, b) for a in np.linspace(-3, 3, 9)
            for b in np.linspace(-3, 3, 9)]
    batches = []
    for i in range(12):
        body = (DISK, ROUND_SQUARE,
                _polygon(rng, 5, 0.5, 0.25))[i % 3]
        u = _polya_datum(rng, body)
        turn = rng.uniform(0.0, 2.0 * math.pi)
        rings = [rad * _cis(turn + 2.0 * math.pi * k / 8)
                 for rad in (6.0, 8.0, 10.0, 12.5, 15.0) for k in range(8)]
        ws = grid + rings
        ops = [_polya_eval_op(w) for w in ws]
        known = ["polya-roundoff"
                 if EPS_MACH * math.exp(r * abs(w)) > 0.1 * POLYA_TOL else None
                 for w in ws]
        # Criterion 2: radii 1.5 / 2.25 / 4.5 on |Re w|, |Im w| <= 1.5.
        for w in rng.uniform(-1.5, 1.5, (4, 2)):
            ops.append(_polya_indep_op(complex(*w)))
            known.append(None)
        eps = 1.0 if body is DISK else 0.5
        ops.append(_area_op(complex(*rng.uniform(-2, 2, 2)), eps))
        known.append(None)

        def build(u=u, body=body):
            return (u, polya_transform(u, body, r, abs_tol=1e-13),
                    [polya_transform(u, body, f, abs_tol=1e-13)
                     for f in (1.5, 2.25, 4.5)], body)

        batches.append(Batch(f"polya[{i}]", POLYA_DEADLINE, build, ops,
                             known))
    return batches


# ---- meril-cone ----

def _meril_region(rng, axis: float, gamma: float, cut: bool, count: int):
    # The scenario schema's sector with its default apex at the origin:
    # the support function then vanishes on the dual cone, and the size
    # of e^{zw} on the contour depends on eps * |w| alone.
    hp = []
    for sgn in (-1.0, 1.0):
        t = axis + sgn * (gamma + 0.5 * math.pi)
        hp.append((math.cos(t), math.sin(t), 0.0))
    if cut:
        # A third half-plane slices the apex off; the recession cone,
        # and so the dual cone, stays the sector's.
        tilt = rng.uniform(-1.0, 1.0) * min(0.4, 1.5 - gamma)
        n = _cis(axis + math.pi + tilt)
        hp.append((n.real, n.imag, -0.3 * math.cos(tilt)))
    region = ConvexRegion(hp)
    terms = []
    while len(terms) < count:
        a = rng.uniform(0.8, 2.0) * _cis(axis + rng.uniform(-0.7, 0.7) * gamma)
        if signed_distance(region, a) < -1e-3:
            terms.append((a, int(rng.integers(1, 3)),
                          complex(*rng.uniform(-1, 1, 2))))
    return region, MeromorphicDatum(terms)


def _reversed_rays(region: ConvexRegion, axis: float, gamma: float,
                   eps: float) -> bool:
    (_, d_in), (_, d_out) = open_boundary_rays(thicken(region, eps))
    return (abs(d_in - _cis(axis + gamma)) > 1e-6
            or abs(d_out - _cis(axis - gamma)) > 1e-6)


def _meril_op(w: complex):
    def op(ctx) -> Outcome:
        u, v = ctx
        tr = v.diagnostics(w)
        ref = residue_oracle(u, w)
        gap = abs(tr.value - ref)
        dev = gap / (1.0 + abs(ref))
        return _checked(dev <= MERIL_TOL, dev, gap > tr.error,
                        steps=len(tr.gaps),
                        loose=tr.error > MERIL_LADDER_TOL)
    return op


# Strata of (axis, half-angle) over [0, 2 pi) x (0.2, 1.4), by where the
# clockwise boundary ray, at angle axis - half-angle, points: past angle
# 0 (axis < half-angle), into the lower half-plane (axis > pi +
# half-angle), or elsewhere.  Shares are the strata's areas (the mean
# half-angle is 0.8).  The reversed-ray defect keys on this direction, so
# drawing each pass proportionally from the strata keeps the number of
# regions it hits nearly the same in every pass.
_RAY_STRATA = (
    (0.8 / (2.0 * math.pi), lambda a, g: a < g),
    ((math.pi - 0.8) / (2.0 * math.pi), lambda a, g: a > math.pi + g),
)


def _sector_angles(rng, n: int) -> list[tuple[float, float]]:
    """n (axis, half-angle) pairs, each uniform on the domain, drawn by
    stratified sampling with proportional allocation: the count in a
    stratum is rounded at random so that its mean is exact, and points
    are drawn within a stratum by rejection."""
    counts = [int(share * n + rng.uniform()) for share, _ in _RAY_STRATA]
    tests = [test for _, test in _RAY_STRATA]
    counts.append(n - sum(counts))
    tests.append(lambda a, g: not any(t(a, g) for t in tests[:2]))
    out = []
    for count, test in zip(counts, tests):
        while count:
            a, g = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.2, 1.4)
            if test(a, g):
                out.append((float(a), float(g)))
                count -= 1
    return [out[i] for i in rng.permutation(n)]


def meril_pass(seed: int, pass_no: int) -> list[Batch]:
    """16 regions (12 sectors, 4 with the apex cut off) with 1-3 poles
    (cycling); per region 16 w with |w| log-spaced over [0.5, 20) and,
    for every eighth region, one more at |w| in [20, 100]."""
    rng = np.random.default_rng([seed, pass_no, 2])
    n = 16
    angles = _sector_angles(rng, n)
    far = np.exp(math.log(FAR_W) + math.log(100.0 / FAR_W)
                 * _stratified(rng, n // 8))
    eps = eps_prime = 0.1
    batches = []
    for i, (axis, gamma) in enumerate(angles):
        region, u = _meril_region(rng, axis, gamma, cut=i % 4 == 3,
                                  count=1 + i % 3)
        dual = polar_cone(asymptotic_cone(region))
        shift = eps_prime * bisector(dual)
        mags = list(np.exp(math.log(0.5) + math.log(FAR_W / 0.5)
                           * (np.arange(16) + rng.uniform(size=16)) / 16))
        if i % 8 == 0:
            mags.append(float(far[i // 8]))
        offsets = 0.95 * (2.0 * _stratified(rng, len(mags)) - 1.0)
        ws = [shift + m * _cis(dual.axis + f * dual.half_width)
              for m, f in zip(mags, offsets)]
        reversed_ = _reversed_rays(region, axis, gamma, eps)
        known = ["reversed-rays" if reversed_ else
                 "meril-far" if abs(w) >= FAR_W else None for w in ws]

        def build(u=u, region=region):
            return u, meril_transform(u, region, eps, eps_prime)

        batches.append(Batch(f"meril[{i}]", MERIL_DEADLINE, build,
                             [_meril_op(w) for w in ws], known))
    return batches


# ---- scenario-mix ----

def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _body_doc(body: ConvexBody) -> dict:
    return {"type": "body", "vertices": [_pair(v) for v in body.vertices],
            "rounding": body.rounding}


def _terms_doc(terms) -> list[dict]:
    return [{"pole": _pair(a), "order": m, "coefficient": _pair(c)}
            for a, m, c in terms]


# Reduced growth lattices.  The radius-1 sample falls in the first
# quartile the verdict ignores; poles at least 0.15 inside the body put
# the ratio's hump below radius 10, where the verdict window starts.
_POLYA_GROWTH = {"rays": 4, "radii": [1.0, 10.0, 31.623, 100.0]}
# Enough rays that the narrowest dual cone (half-width 0.17) holds one.
_MERIL_GROWTH = {"rays": 32, "radii": [1.0, 10.0, 31.623, 100.0]}


def _inner_poles(rng, body: ConvexBody, count: int, margin: float):
    reach = max(abs(v) for v in body.vertices) + body.rounding
    out = []
    while len(out) < count:
        a = complex(*rng.uniform(-reach, reach, 2))
        if signed_distance(body, a) < -margin:
            out.append(a)
    return out


def _gen_polya(rng, i: int) -> tuple[dict, str | None]:
    # Body shape and term count cycle with i, so that every pass has the
    # same mix of document costs.
    body = (DISK, ROUND_SQUARE,
            _polygon(rng, 3 + (i // 3) % 3, 0.6, 0.2))[i % 3]
    terms = [(a, int(rng.integers(1, 4)), complex(*rng.uniform(-2, 2, 2)))
             for a in _inner_poles(rng, body, 1 + (i // 9) % 3, 0.15)]
    doc = {"kind": "polya", "label": "generated polya",
           "set": _body_doc(body), "terms": _terms_doc(terms),
           "w_grid": {"limit": 3.0, "n": 3}, "growth": _POLYA_GROWTH}
    # The runner's default radius; its oracle check covers |w| <= 3 sqrt 2.
    amax = max(abs(a) for a, _, _ in terms)
    vmax = max(abs(v) for v in body.vertices)
    r = 2.0 * (amax + vmax + body.rounding + 1.0)
    floor = EPS_MACH * math.exp(r * 3.0 * math.sqrt(2.0))
    return doc, "polya-roundoff" if floor > 1e-7 else None


def _gen_meril(rng, axis: float, gamma: float, growth: bool):
    region, u = _meril_region(rng, axis, gamma, cut=False,
                              count=int(rng.integers(1, 3)))
    doc = {"kind": "meril", "label": "generated meril",
           "set": {"type": "region",
                   "halfplanes": [list(h) for h in region.halfplanes]},
           "terms": _terms_doc(u.terms), "eps": 0.1}
    if growth:
        doc["checks"] = ["oracle", "growth"]
        doc["growth"] = _MERIL_GROWTH
    if _reversed_rays(region, axis, gamma, 0.1):
        return doc, "reversed-rays"
    return doc, "meril-far" if growth else None


def _gen_legendre(rng) -> dict:
    body = _polygon(rng, int(rng.integers(3, 6)), 1.0, 0.0)
    pieces = [[*rng.uniform(-2, 2, 2).tolist(), float(rng.uniform(-1, 1))]
              for _ in range(int(rng.integers(2, 7)))]
    return {"kind": "legendre", "label": "generated legendre",
            "set": _body_doc(body), "pieces": pieces, "samples_count": 5}


def _gen_oracle(rng, escapee: bool) -> dict:
    body = (DISK, ROUND_SQUARE)[int(rng.integers(2))]
    if escapee:
        # A pole 1.5-3 units outside the body: e^{a w} outgrows e^{h(w)}
        # at every eps of the ladder.
        pole = (2.5 + 1.5 * rng.uniform()) * _cis(rng.uniform(0, 2 * math.pi))
    else:
        pole = _inner_poles(rng, body, 1, 0.15)[0]
    return {"kind": "oracle", "label": "generated oracle",
            "set": _body_doc(body),
            "terms": [{"pole": _pair(pole), "order": 1,
                       "coefficient": _pair(_cis(rng.uniform(0, 6.28)))}],
            "checks": ["growth"], "growth": _POLYA_GROWTH}


def _malformed(rng, base: dict, k: int) -> str:
    doc = json.loads(json.dumps(base))
    which = k % 10
    if which == 0:
        return json.dumps(doc)[:-int(rng.integers(2, 12))]
    if which == 1:
        doc["colour"] = "blue"
    elif which == 2:
        doc["kind"] = "laplace"
    elif which == 3:
        doc["terms"][0]["pole"] = [5.0 + rng.uniform(), 0.0]
    elif which == 4:
        doc["set"] = {"type": "sector", "axis": 0.0,
                      "half_angle": 1.6 + rng.uniform()}
    elif which == 5:
        doc["eps"] = -rng.uniform()
    elif which == 6:
        doc["checks"] = ["oracle", "oracle"]
    elif which == 7:
        doc["checks"] = ["biconjugation"]
    elif which == 8:
        doc["w_grid"] = {"limit": 3.0, "n": 1}
    else:
        doc["terms"][0]["order"] = 0
    return json.dumps(doc)


_FAILED_CHECK = re.compile(r"^check (\S+): FAIL - (.*)$", re.M)
_RAISED = re.compile(r"raised (\w+)\(")


def _exit_causes(code: int, report: str) -> list[str]:
    """Causes of an unexpected exit code: each failed check of the report,
    by the exception it raised or else as a verdict outside tolerance."""
    causes = []
    for check, detail in _FAILED_CHECK.findall(report):
        m = _RAISED.search(detail)
        if m is None:
            how = "tolerance"
        elif m.group(1) == "ValueError" and _CAP_MESSAGE in detail:
            how = "raised:cap"
        else:
            how = "raised:" + m.group(1)
        causes.append(f"{check}/{how}")
    return causes or [f"exit:{code}"]


def _scenario_op(text: str, expect: int, workdir: Path, keep=None):
    """Parse and run one document; pass on the expected exit code.  With
    ``keep`` (a list), the artifacts are compared with the bytes kept by
    an earlier run of the same document, or kept for a later one."""
    def op(_ctx) -> Outcome:
        try:
            sc = cli.parse_scenario(text)
        except cli.ScenarioError:
            return Outcome(expect == 2, causes=() if expect == 2
                           else ("parse",))
        out = Path(tempfile.mkdtemp(dir=workdir))
        try:
            code = cli.run_scenario(sc, out)
            causes = []
            if code != expect:
                causes = [f"exit:{code}"] if expect == 2 else _exit_causes(
                    code, (out / "report.txt").read_text(encoding="utf-8"))
            if keep is not None:
                blobs = [(out / n).read_bytes()
                         for n in ("report.txt", "samples.csv")]
                if not keep:
                    keep.extend(blobs)
                elif blobs != keep:
                    causes.append("artifacts")
            return Outcome(not causes, causes=tuple(causes))
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return op


def _nothing():
    return None


def scenario_pass(seed: int, pass_no: int, scenario_dir: Path,
                  workdir: Path) -> list[Batch]:
    """The shipped scenarios (reference_polya.json twice, for the
    determinism check) plus 184 generated documents: 100 polya, 12 meril
    (3 with the growth check), 3 legendre, 24 oracle (16 planted
    escapees), 45 malformed.  The mix keeps both latency percentiles
    inside one cluster: cheap documents (malformed, oracle) stay well
    under half, documents that take a second or more well under a
    tenth."""
    rng = np.random.default_rng([seed, pass_no, 3])
    docs = []  # (name, text, expected exit code, deadline, known, keep)
    kept: list[bytes] = []
    for path in sorted(scenario_dir.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        expect = 2 if "malformed" in path.name else (
            1 if "planted" in path.name else 0)
        keep = kept if path.name == "reference_polya.json" else None
        for _ in range(2 if keep is not None else 1):
            docs.append(("shipped:" + path.stem, text, expect,
                         SHIPPED_DEADLINE, None, keep))
    valid = [(*_gen_polya(rng, i), 0) for i in range(100)]
    axes = 2.0 * math.pi * _stratified(rng, 12)
    gammas = 0.2 + 1.2 * _stratified(rng, 12)
    valid += [(*_gen_meril(rng, float(axes[i]), float(gammas[i]),
                           growth=i % 4 == 0), 0) for i in range(12)]
    valid += [(_gen_legendre(rng), "biconjugation", 0) for _ in range(3)]
    valid += [(_gen_oracle(rng, i % 3 != 0), None, 1 if i % 3 else 0)
              for i in range(24)]
    for doc, known, expect in valid:
        docs.append((doc["kind"], json.dumps(doc), expect, SCENARIO_DEADLINE,
                     known, None))
    for k in range(45):
        base = valid[int(rng.integers(100))][0]  # a polya document
        docs.append(("malformed", _malformed(rng, base, k), 2,
                     SCENARIO_DEADLINE, None, None))
    # Each kind of document is spread evenly over the pass, from a random
    # start within the first half of its spacing, so that any prefix of
    # the pass (a traced run stops at its time limit) holds every kind in
    # proportion, and its first sixth at least one of each.  The first
    # run of reference_polya.json keeps its artifacts.
    kinds = [name.partition(":")[0] for name, *_ in docs]
    total = Counter(kinds)
    phase = {k: rng.uniform(0.0, 0.5) for k in sorted(total)}
    rank: Counter = Counter()
    key = []
    for k in kinds:
        key.append((rank[k] + phase[k]) / total[k])
        rank[k] += 1
    batches = []
    for n, i in enumerate(np.argsort(key, kind="stable")):
        name, text, expect, deadline, known, keep = docs[i]
        batches.append(Batch(f"scenario[{n}] {name}", deadline, _nothing,
                             [_scenario_op(text, expect, workdir, keep)],
                             [known]))
    return batches


WORKLOADS = ("polya-grid", "meril-cone", "scenario-mix")


def make_pass(workload: str, seed: int, pass_no: int, root: Path,
              workdir: Path) -> list[Batch]:
    if workload == "polya-grid":
        return polya_pass(seed, pass_no)
    if workload == "meril-cone":
        return meril_pass(seed, pass_no)
    if workload == "scenario-mix":
        return scenario_pass(seed, pass_no, root / "scenarios", workdir)
    raise ValueError(f"unknown workload {workload!r}")
