"""The benchmark in perfbench/ calls the package through ``cc.<name>`` and
``cli.main``; every such name must resolve, so that removing a public name
cannot break the benchmark unnoticed."""

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
