"""The traced benchmark run (``perfbench/trace_child.py``) on small inputs.

The tracer wraps each report builder by name on ``dualgraphs.reports``, which
resolves the builders on first use; a wrapper that is installed but never
called would read ``reports.build_s = 0`` while every name still resolves.
So each case runs the tracer in a fresh interpreter, checks that it counted
one build with some time, and that it printed what the plain CLI prints.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"


def _python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("family, parameter, command", [
    ("crosspolytope", "2", "analyze-complex"),
    ("hypercube", "3", "check-graph"),
])
def test_traced_run_times_one_report_build_and_prints_the_report(
        tmp_path, family, parameter, command, fmt):
    path = tmp_path / f"{family}.txt"
    assert _python("-m", "dualgraphs.cli", "generate", family, parameter,
                   "--out", str(path)).returncode == 0
    argv = [command, str(path), "--format", fmt]
    trace_path = tmp_path / "trace.json"
    traced = _python(str(TRACE_CHILD), str(trace_path), *argv)
    plain = _python("-m", "dualgraphs.cli", *argv)
    assert traced.returncode == 0, traced.stderr
    trace = json.loads(trace_path.read_text())
    assert trace["exit"] == 0
    assert trace["calls"]["reports.build"] == 1
    assert trace["group_s"]["reports.build"] > 0
    assert plain.returncode == 0
    assert traced.stdout == plain.stdout
