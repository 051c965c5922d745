"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import convlap


@pytest.fixture
def same_package_env(monkeypatch):
    """Let a `python -m convlap.cli` subprocess import the package this
    test process imported, installed or not."""
    root = str(Path(convlap.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH",
                       root + (os.pathsep + rest if rest else ""))
