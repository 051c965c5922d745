"""The benchmark's span tracer still finds every entry point it times.

perfbench/tracing.py resolves each traced function through its
``__code__``.  A function that is renamed, moved or wrapped by a
decorator (``functools.lru_cache`` has no ``__code__``) drops out of the
traced benchmark run, which then reports ``correct: false``.  This test
reads perfbench/ and changes nothing there.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    u = MeromorphicDatum([(0.2 - 0.1j, 2, 1.0)])
    v = polya_transform(u, ConvexBody([0j], rounding=0.5), 1.0)
    v(3.0 - 4.0j)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        v(2.0 + 1.0j)
    finally:
        tracer.remove()
    names = [span[0] for span in tracer.spans]
    assert names.count("transforms.polya.eval") == 1
    assert names.count("contour.integrate") == 1
