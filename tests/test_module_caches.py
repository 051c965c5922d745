"""Module-level caches hold only what no single object owns.

A cache keyed by a datum, a contour, a region or a function belongs to
that object (a dict on the contour, a cached property on the set or the
function), so it lives and dies with it and hides no size.  The few
module-level ``lru_cache``/``cache`` functions left are pinned here, each
with the reason it is shared; a new one fails until it is argued for.
"""

import ast
from pathlib import Path

import convlap

SRC = Path(convlap.__file__).resolve().parent

SHARED = {
    "contour._gauss_kronrod_panels":
        "Gauss-Kronrod panels on [0, 1] per level: no piece and no datum",
    "contour._rule":
        "a circle's trapezoid nodes per level, shared by every datum on it",
    "contour._trapezoid_units":
        "a full circle's trapezoid nodes on the unit circle per level: they "
        "depend on no centre, radius or datum",
    "dolbeault._gauss_legendre": "Gauss-Legendre rules per order: no data",
    "dolbeault._band_nodes":
        "a cut-off profile's band rule per grid, shared by every datum",
    "growth._sample":
        "the last growth lattice, shared across an eps ladder (to move to "
        "the scenario that samples it)",
}

_CACHING = {"lru_cache", "cache"}


def _caching(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = (decorator.attr if isinstance(decorator, ast.Attribute)
            else getattr(decorator, "id", None))
    return name in _CACHING


def _cached_functions():
    """module.function for each module-level function, and each method
    (whose cache is module-level too, keyed by the instance), under an
    lru_cache or cache decorator."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = [("", node) for node in tree.body]
        defs += [(f"{cls.name}.", node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body]
        for owner, node in defs:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(map(_caching, node.decorator_list))):
                found.add(f"{path.stem}.{owner}{node.name}")
    return found


def test_module_level_caches_are_the_shared_ones():
    assert _cached_functions() == set(SHARED)


def test_the_scan_sees_each_decorator_form():
    tree = ast.parse("@lru_cache(maxsize=4)\ndef a(): pass\n"
                     "@functools.cache\ndef b(): pass\n"
                     "@cache\ndef c(): pass\n"
                     "@cached_property\ndef d(): pass\n")
    assert [any(map(_caching, f.decorator_list)) for f in tree.body] == [
        True, True, True, False]
