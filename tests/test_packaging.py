"""Every console script that pyproject.toml declares resolves to a callable,
so an installed command never fails on a missing module or name."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _unresolved(scripts: dict[str, str]) -> list[str]:
    """The names of the scripts whose `module:object` target does not import
    or is not callable."""
    bad = []
    for name, target in scripts.items():
        module, _, attrs = target.partition(":")
        try:
            obj = importlib.import_module(module)
            for attr in attrs.split("."):
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            obj = None
        if not callable(obj):
            bad.append(name)
    return bad


def test_scripts_resolve_to_callables():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert _unresolved(project.get("scripts", {})) == []


def test_checker_catches_each_kind():
    scripts = {"ok": "pragref.metrics:compare_speakers", "module": "pragref.no_such:main",
               "name": "pragref.rsa:no_such", "value": "pragref.rsa:S1_ALPHA"}
    assert _unresolved(scripts) == ["module", "name", "value"]
