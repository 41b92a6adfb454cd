"""Every name another part of the repository looks up by string exists.

``perfbench/spans.py`` finds each traced function with ``getattr``, and
``from specmosaic import *`` reads ``__all__``; a deleted name would fail
only when the benchmark or an importer runs, so it is checked here.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import specmosaic

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_MODULES = ["specmosaic"] + [
    f"specmosaic.{m.name}" for m in pkgutil.iter_modules(specmosaic.__path__)
]


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        f"{modname}.{fn}"
        for modname, fns in spans.LAYERS.values()
        for fn in fns
        if not hasattr(importlib.import_module(modname), fn)
    ]
    assert missing == []


@pytest.mark.parametrize("modname", _MODULES)
def test_every_all_entry_resolves(modname):
    mod = importlib.import_module(modname)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_star_imported_names_are_declared_once():
    # ``specmosaic`` star-imports these modules in turn, so a name in two of
    # them, or one equal to a version name, would silently rebind the earlier.
    lists = [importlib.import_module(f"specmosaic.{m}").__all__
             for m in ("core", "sfa", "demosaic", "freqsel", "metrics")]
    names = [n for names in lists for n in names]
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert {"__version__", "TOOL_VERSION"}.isdisjoint(names)
    assert len(specmosaic.__all__) == len(set(specmosaic.__all__))
