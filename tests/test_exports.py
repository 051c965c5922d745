"""Every name a convlap module exports resolves, so that deleting a
function cannot leave a stale entry in __all__."""

import importlib

import pytest

import convlap


@pytest.mark.parametrize("name", convlap.__all__)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"convlap.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_resolve():
    assert [n for n in convlap.__all__ if not hasattr(convlap, n)] == []
