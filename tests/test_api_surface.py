"""The benchmark in perfbench/ calls the package through ``cc.<name>`` and
``cli.main``; every such name must resolve, so that removing a public name
cannot break the benchmark unnoticed.  Likewise every name a module lists in
``__all__`` must resolve, so that a deletion cannot leave a stale export."""

import importlib
import pkgutil
import re
from pathlib import Path

import ccsolve
from ccsolve import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_benchmark_names_resolve():
    text = WORKLOADS.read_text(encoding="utf-8")
    assert "import ccsolve as cc" in text
    names = sorted(set(re.findall(r"\bcc\.([A-Za-z_]\w*)", text)))
    assert names
    missing = [name for name in names if not hasattr(ccsolve, name)]
    assert missing == []
    assert callable(cli.main)


def test_module_exports_resolve():
    modules = [info.name for info in pkgutil.iter_modules(ccsolve.__path__)]
    assert "minors" in modules
    for name in modules:
        module = importlib.import_module(f"ccsolve.{name}")
        exports = getattr(module, "__all__", [])
        missing = [e for e in exports if not hasattr(module, e)]
        assert missing == [], name
