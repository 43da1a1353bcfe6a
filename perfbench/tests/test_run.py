"""Short runs of every workload through the command-line entry point."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = list(WORKLOADS)
COUNTS = ("gf.nullspace.calls", "gf.rref.cells", "listdec.list_decode_rs.calls",
          "listdec.list_decode_frs.calls", "qtbdec.list_entries", "qtbdec.candidates",
          "qtbdec.useful_ratio", "qtbdec.dual_distance", "qtbdec.rs_radius",
          "polycode.evaluate_values.calls", "ensembles.inner_erasure_ratio",
          "classical.words_scanned")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *BENCH["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(workload, trace, seed=1):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
               "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOAD_NAMES)
def traced_pair(request):
    return request.param, result(request.param, 1), result(request.param, 1)


def units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    info, res = result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: m["unit"] for k, m in res["metrics"].items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert info["failed_frac"] == 0 and info["src_lines"] > 0
    assert set(info["env"]) == {"nproc", "cpu_model", "python", "numpy", "commit",
                                "malloc_pinned"}
    assert set(info["raw"]) == {"trials_per_s", "trial_ms_p50", "trial_ms_tail", "setup_s"}
    assert info["minor_faults_per_trial"] >= 0
    if workload == "qtb13-distance":
        assert info["facts"]["distance"] == 4


def test_traced_run_reports_every_per_layer_metric(traced_pair):
    workload, (info, res), _ = traced_pair
    assert res["correct"] and res["failed"] == 0
    assert {k: m["unit"] for k, m in res["metrics"].items()} == units("per_layer")
    assert info["untraced"] == []


def test_traced_counts_repeat_exactly(traced_pair):
    workload, (_, first), (_, second) = traced_pair
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_traced_layers_match_the_workload(traced_pair):
    workload, (_, res), _ = traced_pair
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if workload == "qtb127-decode":
        assert m["gf.nullspace.ms"] >= 0.8 * m["trace.trial_ms"]
        assert m["listdec.list_decode_frs.calls"] == 0 and m["qtbdec.candidates"] > 0
    elif workload == "fqtb127-decode":
        assert m["listdec.list_decode_rs.calls"] == 0 and m["listdec.list_decode_frs.calls"] > 0
    elif workload == "ael-decode":
        assert m["ensembles.ael_standard_build.s"] > 0 and m["qtbdec.candidates"] == 0
    else:
        assert m["classical.words_scanned"] == 13**7 and m["gf.nullspace.calls"] == 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


class Scripted:
    """Trial 0 leaves a wrong output, trial 1 breaks the decoder's contract,
    trial 2 fails to decode, and every later trial is right."""

    window = 4
    scaled = False
    facts: dict = {}

    def load(self):
        pass

    def build(self):
        pass

    def sample(self, seed, t):
        return t

    def call(self, t):
        from qlrc.errors import DecodeContractViolation, DecodingFailed

        if t == 1:
            raise DecodeContractViolation("non-identity residual")
        if t == 2:
            raise DecodingFailed("no candidate")
        return t

    def check(self, t, out):
        return t != 0


def test_wrong_outputs_and_contract_violations_make_the_run_incorrect(monkeypatch):
    from perfbench import run as bench

    times, raised, wrong = bench.run_trials(Scripted(), seed=1, seconds=0, min_trials=5)
    assert (len(times), raised, wrong) == (5, 1, 2)
    monkeypatch.setitem(bench.WORKLOADS, "scripted", Scripted)
    _, res = bench.run_one("scripted", seed=1, seconds=0, trace=True)
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 8, 6)


def test_scaling_and_tail_arithmetic():
    from perfbench.run import CALIB_REF_S, scaled, tail

    # a trial between calibrations of 2x and 4x the reference runs at 1/3 speed
    assert scaled([0.3, 0.1], [2 * CALIB_REF_S, 4 * CALIB_REF_S, CALIB_REF_S]) == \
        pytest.approx([0.1, 0.04])
    assert tail([5.0]) == (5.0, 100.0)
    assert tail([float(i) for i in range(30)]) == (19.0, pytest.approx(100 * 20 / 30))
