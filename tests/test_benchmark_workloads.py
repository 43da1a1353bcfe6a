"""Each benchmark workload runs once: load, build, one trial and its check.

The workloads in ``perfbench/workloads.py`` reach into the package by
attribute (``CssCode.dual_x_space``, ``LinearCode.contains``, the decoders),
so a rename there fails here and not only when the benchmark runs. The file
is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["qtb127-decode", "fqtb127-decode", "ael-decode",
                                  "qtb13-distance"])
def test_workload_runs_one_checked_trial(name):
    workload = _workloads()[name]()
    workload.load()
    workload.build()
    inp = workload.sample(1, 0)
    assert workload.check(inp, workload.call(inp))
    assert workload.facts
