"""The library's named surface: exports resolve, and the tracer's names exist."""

import subprocess
import sys
from pathlib import Path

import pytest

from fracvar import fields, operators, quadrature

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", [fields, quadrature, operators], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_tracer_installs():
    # perfbench/tracer.py patches library functions by name; a deleted name
    # fails here rather than in a traced benchmark run.  -B keeps bytecode
    # out of perfbench/.
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
        "import fracvar, fracvar.cli, tracer\n"
        "tracer.Tracer().install(fracvar)\n"
    )
    res = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
