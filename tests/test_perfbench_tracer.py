"""The benchmark's span tracer still finds every entry point it times.

perfbench/tracing.py resolves each traced function through its
``__code__``.  A function that is renamed, moved or wrapped by a
decorator (``functools.lru_cache`` has no ``__code__``) drops out of the
traced benchmark run, which then reports ``correct: false``.  This test
reads perfbench/ and changes nothing there.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load(TRACING, "perfbench_tracing")


def test_tracer_resolves_every_entry_point():
    tracing = _load_tracing()
    codes, missing = tracing.entry_points()
    assert missing == []
    assert len(codes) == len(tracing._ENTRY_POINTS)
    assert tracing._resolve(*tracing._COUNTED) is not None


def test_polya_evaluation_enters_integrate_once():
    from convlap.convexgeom import ConvexBody
    from convlap.transforms import MeromorphicDatum, polya_transform

    tracing = _load_tracing()
    u = MeromorphicDatum([(0.2 - 0.1j, 2, 1.0), (0.1j, 3, 0.5)])
    v = polya_transform(u, ConvexBody([0j], rounding=0.5), 1.0)
    v(3.0 - 4.0j)
    # w = 0, a grid point and r|w| = 704 > 700 (the Stirling branch).
    ws = (0j, 2.0 + 1.0j, 704.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for w in ws:
            v.with_error(w)
    finally:
        tracer.remove()
    names = [span[0] for span in tracer.spans]
    assert names.count("transforms.polya.eval") == len(ws)
    assert names.count("contour.integrate") == len(ws)


def test_repeated_meril_evaluation_reads_the_cached_datum():
    import math

    from convlap.convexgeom import sector
    from convlap.transforms import MeromorphicDatum, meril_transform

    tracing = _load_tracing()
    region = sector(0j, 0.3, math.pi / 4)
    terms = [(1.0 + 0.3j, 2, 1.0), (1.5 + 0.1j, 1, 0.5j)]
    w = -2.0 + 0.5j
    v = meril_transform(MeromorphicDatum(terms), region, 0.1, 0.1)
    v(w)
    # The same transform again: its base contour keeps u at the rule
    # nodes, and the rungs are closed forms over the ladder's rows, so u
    # is not called at all.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        v(w)
    finally:
        tracer.remove()
    names = tracer.summary()["names"]
    assert names["transforms.meril.eval"]["count"] == 1
    assert names["contour.integrate"]["count"] >= 1
    assert names[tracing.COUNTED_NAME]["count"] == 0


def test_polya_scenario_with_growth_enters_the_traced_layers(tmp_path):
    # The scenario-mix workload expects these layers to be entered
    # (CALLED in tracing.py); a refactor that drops one from the runner's
    # call path would otherwise surface only in a traced benchmark run.
    import json

    from convlap.cli import parse_scenario, run_scenario

    tracing = _load_tracing()
    doc = {"kind": "polya",
           "set": {"type": "body", "vertices": [[0.0, 0.0]], "rounding": 1.0},
           "terms": [{"pole": [0.3, 0.0], "order": 1}],
           "checks": ["oracle", "growth"], "w_grid": {"limit": 1.5, "n": 3},
           "growth": {"eps_ladder": [0.5, 0.1], "rays": 4,
                      "radii": [1.0, 10.0]}}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        status = run_scenario(parse_scenario(json.dumps(doc)), tmp_path)
    finally:
        tracer.remove()
    assert status == 0
    names = tracer.summary()["names"]
    for name in ("cli.parse_scenario", "cli.run_scenario",
                 "growth.growth_ratio_sup", "transforms.log_abs",
                 "convexgeom.support_function"):
        assert names.get(name, {}).get("count", 0) >= 1, name


@pytest.mark.parametrize("workload", ["polya-grid", "meril-cone"])
def test_first_batch_enters_every_layer_the_workload_calls(workload,
                                                           tmp_path):
    # A traced benchmark run reports correct: false when a layer listed in
    # CALLED is never entered, as rerouting Meril's rungs, its base
    # contour or Polya past contour.integrate can make happen.  Batch 0 of
    # pass 0, seed 1, already enters every one of them: its transform owns
    # its caches, so nothing is cleared first.
    tracing = _load_tracing()
    workloads = _load(ROOT / "perfbench" / "workloads.py",
                      "perfbench_workloads")
    batch = workloads.make_pass(workload, 1, 0, ROOT, tmp_path)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ctx = batch.build()
        for op in batch.ops:
            op(ctx)
    finally:
        tracer.remove()
    names = tracer.summary()["names"]
    assert [n for n in tracing.CALLED[workload]
            if names.get(n, {}).get("count", 0) == 0] == []


@pytest.mark.parametrize("workload",
                         ["polya-grid", "meril-cone", "scenario-mix"])
def test_traced_pass_on_warm_caches_enters_every_layer(workload, tmp_path):
    # ``run.py --trace 1`` runs pass 0 untraced and then again under the
    # tracer in the same process, with every cache the first run filled.
    # A layer that only a cache miss reaches drops out of that second
    # run, so this repeats it: same pass, same order, nothing cleared.
    # The ops are driven directly: run_batch arms ITIMER_PROF, and pytest
    # installs no SIGPROF handler.
    tracing = _load_tracing()
    workloads = _load(ROOT / "perfbench" / "workloads.py",
                      "perfbench_workloads")

    def run_pass():
        for batch in workloads.make_pass(workload, 1, 0, ROOT, tmp_path):
            try:
                ctx = batch.build()
            except Exception:  # the runner fails such a batch's ops
                continue
            for op in batch.ops:
                try:
                    op(ctx)
                except Exception:  # the runner counts the op as failed
                    pass

    run_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_pass()
    finally:
        tracer.remove()
    names = tracer.summary()["names"]
    assert [n for n in tracing.CALLED[workload]
            if names.get(n, {}).get("count", 0) == 0] == []
