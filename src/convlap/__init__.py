"""Desk-scale numerical toolkit for Laplace-type contour transforms over
convex sets in the plane, with the convex-duality bookkeeping needed to
state and check their growth classes.

Submodules:
    convexgeom  -- convex bodies, regions, cones, support functions
    legendre    -- piecewise-linear convex functions and conjugation
    contour     -- oriented contours; nested periodic trapezoid rule on
                   full circles, Gauss-Kronrod panels on other pieces
    transforms  -- Polya and Meril contour transforms, residue oracle
    growth      -- exponential growth-class sampling and verdicts
    dolbeault   -- cutoff-based area-integral oracle
    cli         -- scenario runner (imported on first access)
"""

import importlib

from . import convexgeom, legendre, contour, transforms, growth, dolbeault

__all__ = [
    "convexgeom",
    "legendre",
    "contour",
    "transforms",
    "growth",
    "dolbeault",
    "cli",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # cli is loaded lazily, so that ``python -m convlap.cli`` runs it as
    # __main__ without finding it already imported by the package.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
