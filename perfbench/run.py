"""Seeded closed-loop benchmark of qlrc decoding and exact distance.

Run from the repository root:

    python3 perfbench/run.py --workload qtb127-decode --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One caller runs trials back to back in one process: the next trial starts
when the previous one returns. Trial ``t`` decodes the error drawn from
``stream_rng(seed, t)``; code parameters and the AEL code seed (90) are fixed.
Seeds 1-90 were used while the benchmark was built; seed 9001 is held out for
later claims. Trials continue until ``--seconds`` would be exceeded.

``--trace 0`` prints the end-to-end metrics:

- ``trials_per_s``: trials divided by the time spent inside the timed calls;
- ``trial_ms_p50``: median time of one trial;
- ``trial_ms_tail``: the highest percentile with at least ten trials beyond
  it (the maximum when there are fewer than 11 trials); the percentile and
  the trial count are in the info line;
- ``setup_s``: median over fresh interpreters of importing ``qlrc``, building
  the code and one warm-up call; numpy and interpreter start-up excluded. The
  number of interpreters is in the info line;
- ``peak_rss_mb``: peak resident memory of the workload process.

Decode times and set-up are reported at a fixed reference host speed. A
shared host changes speed by up to 1.6x in phases lasting seconds to minutes,
which spread raw times over ten runs by 4% to 41% of their median on
different days; scaled times spread 1.5 to 8 times less. So a fixed
calibration kernel (``calibration``) runs around the timed region, and a
time is scaled by ``CALIB_REF_S`` over the mean of the two calibrations
around it: one before the first trial and one after every trial, and one
each side of a set-up. A workload whose trials outlast the host's phases
(``scaled = False``) reports raw trial times. The raw times and the
calibration median are in the info line.

``--trace 1`` wraps the public functions of the ``qlrc`` modules (see
``spans.py``), prints per-layer metrics, writes the spans to
``.perfbench_out/`` and reports its overhead against the same first trials
run untraced. Those untraced trials also give
``process.minor_faults_per_trial``: with the heap pinned (``pin_allocator``)
a change in large temporaries may not move the trial times, but it moves this
count.

Every trial's output is checked outside the timed region. A trial that raises
a ``QlrcError`` or leaves a wrong output counts as failed and the run goes on;
``correct`` is false when any output was wrong. A ``DecodeContractViolation``
(``quantum_decode``'s own residual check) is a wrong output. The line before
the result holds the environment, ``src_lines`` and the failed fraction.
"""

from __future__ import annotations

import ctypes
import os

# Pinned before numpy loads its BLAS, and inherited by every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def pin_allocator() -> bool:
    """Serve every block from a heap that glibc never trims.

    By default glibc returns the heap top to the kernel whenever enough of it
    is free, so whether each large numpy temporary costs fresh page faults
    depends on whether some live object happens to sit at the heap top. On
    qtb127-decode that flips a trial by about 40% between processes that
    differ only in what they imported. Returns False where ``mallopt`` is
    missing (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_trim_threshold, 1 << 30) and mallopt(m_mmap_threshold, 1 << 25))


MALLOC_PINNED = pin_allocator()

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench.spans import SETUP, Tracer, layer_metrics
from perfbench.workloads import WORKLOADS

HELD_OUT_SEED = 9001
CALIB_REF_S = 0.016  # calibration time at the reference host speed; fixed for good
_CALIB_MATRIX = np.random.default_rng(0).integers(0, 127, size=(126, 127))
_CALIB_WORD = np.arange(6)
UNITS = {"trials_per_s": "1/s", "trial_ms_p50": "ms", "trial_ms_tail": "ms", "setup_s": "s"}
# Set-up is sampled in fresh interpreters, this process included: at least
# SETUP_SAMPLES of them, and more until SETUP_BUDGET_S has passed. A short
# set-up is mostly the ``qlrc`` import, whose time varies by about 18% between
# interpreters independently of the host's speed, so it takes more samples.
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 3.0
CHILD_TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_source() -> None:
    """Refuse to measure a ``qlrc`` that is not the checkout's own."""
    import qlrc

    if SRC.resolve() not in Path(qlrc.__file__).resolve().parents:
        fail(f"imported qlrc from {qlrc.__file__}, not from {SRC}")


def calibration() -> float:
    """Seconds for a fixed GF(127) row elimination on a 126 x 127 matrix,
    then a fixed loop of table lookups keyed by small arrays.

    The first part mirrors the masked modular row updates of ``gf.rref``, the
    second the per-block syndrome-table lookups of the AEL decoder: across
    runs, interpreter-bound trials swing about twice as much with the host's
    speed as the elimination does. Both are the benchmark's own code, so no
    change to ``qlrc`` can change them.
    """
    a = _CALIB_MATRIX.copy()
    table: dict[bytes, int] = {}
    start = perf_counter()
    for c in range(60):
        mask = a[:, c] != 0
        a[mask] = (a[mask] - a[mask, c][:, None] * a[c][None, :]) % 127
    for i in range(1500):
        key = ((_CALIB_WORD * (i % 5) + 1) % 5).tobytes()
        table[key] = table.get(key, 0) + 1
    return perf_counter() - start


def scaled(raw: list[float], calibs: list[float]) -> list[float]:
    """Each raw time at the reference speed, from the calibrations around it."""
    return [t * 2 * CALIB_REF_S / (calibs[i] + calibs[i + 1]) for i, t in enumerate(raw)]


def set_up(workload, tracer: Tracer | None = None) -> float:
    start = perf_counter()
    workload.load()
    check_source()
    if tracer is not None:
        tracer.install()
    workload.build()
    return perf_counter() - start


def scaled_set_up(workload) -> tuple[float, float]:
    """(scaled, raw) set-up time."""
    calibration()  # the first call in a process pays numpy's first-use costs
    before = calibration()
    raw = set_up(workload)
    return scaled([raw], [before, calibration()])[0], raw


def run_trials(workload, seed: int, seconds: float, min_trials: int,
               tracer: Tracer | None = None, calibs: list[float] | None = None):
    """Closed loop; returns (times, raised, wrong).

    With ``calibs``, a calibration is appended before the first trial and
    after every trial. ``quantum_decode`` checks its own residual within the
    certified radius and raises ``DecodeContractViolation`` when it is not a
    logical identity, so that error counts as a wrong output, not a raise.
    """
    from qlrc.errors import DecodeContractViolation, QlrcError

    times: list[float] = []
    raised = wrong = 0
    if calibs is not None:
        calibs.append(calibration())
    begin = perf_counter()
    t = 0
    while t < min_trials or perf_counter() - begin + statistics.fmean(times) <= seconds:
        inp = workload.sample(seed, t)
        if tracer is not None:
            tracer.trial = t
        start = perf_counter()
        try:
            out = workload.call(inp)
        except QlrcError as exc:
            out = exc
        times.append(perf_counter() - start)
        if calibs is not None:
            calibs.append(calibration())
        if tracer is not None:
            tracer.trial = SETUP
        if isinstance(out, DecodeContractViolation):
            wrong += 1
            print(f"perfbench: trial {t} returned a wrong output: {out}", file=sys.stderr)
        elif isinstance(out, QlrcError):
            raised += 1
            print(f"perfbench: trial {t} raised {type(out).__name__}: {out}", file=sys.stderr)
        elif not workload.check(inp, out):
            wrong += 1
            print(f"perfbench: trial {t} returned a wrong output", file=sys.stderr)
        t += 1
    return times, raised, wrong


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit, "malloc_pinned": MALLOC_PINNED}


def src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "qlrc").glob("*.py")))


def child(args: list[str], seconds: float = 0) -> list[str]:
    """Run this script in a fresh interpreter; return its stdout lines."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S + 2 * seconds)
    if proc.returncode != 0:
        fail(f"child {' '.join(args)} exited with {proc.returncode}")
    return proc.stdout.splitlines()


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten trials beyond it."""
    ordered = sorted(times)
    i = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def summary(times: list[float], setups: list[float]) -> dict[str, float]:
    """The timed end-to-end metrics of one run, by name."""
    return {"trials_per_s": len(times) / sum(times),
            "trial_ms_p50": 1000 * statistics.median(times),
            "trial_ms_tail": 1000 * tail(times)[0],
            "setup_s": statistics.median(setups)}


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[name]()
    info: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        tracer = Tracer()
        set_up(workload, tracer)
        # The first trials also run untraced, in this process, as the
        # overhead base.
        tracer.uninstall()
        k = workload.window
        faults = minor_faults()
        plain, raised, wrong = run_trials(workload, seed, 0, k)
        faults = minor_faults() - faults
        tracer.install()
        times, t_raised, t_wrong = run_trials(workload, seed, seconds, k, tracer)
        tracer.uninstall()
        raised, wrong = raised + t_raised, wrong + t_wrong
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"trace-{name}-seed{seed}.jsonl")
        metrics = {key: {"value": v, "unit": u} for key, (v, u) in
                   layer_metrics(tracer.spans, tracer.counts, len(times), k).items()}
        metrics["trace.trial_ms"] = {"value": 1000 * statistics.fmean(times), "unit": "ms"}
        metrics["trace.overhead"] = {"value": sum(times[:k]) / sum(plain) - 1, "unit": "ratio"}
        # from the untraced trials, so the tracer's own allocations stay out
        metrics["process.minor_faults_per_trial"] = {"value": faults / k, "unit": "count"}
        info.update(spans=len(tracer.spans), count_window=k, untraced=tracer.missing)
        attempted = len(times) + len(plain)
    else:
        setups: list[dict] = []
        begin = perf_counter()
        while len(setups) < SETUP_SAMPLES - 1 or perf_counter() - begin < SETUP_BUDGET_S:
            setups.append(json.loads(child(["--workload", name, "--setup-only"])[-1]))
        setups.append(dict(zip(("setup_s", "raw_setup_s"), scaled_set_up(workload))))
        calibs: list[float] | None = [] if workload.scaled else None
        faults = minor_faults()
        raw, raised, wrong = run_trials(workload, seed, seconds, 1, calibs=calibs)
        faults = minor_faults() - faults
        times = scaled(raw, calibs) if workload.scaled else raw
        metrics = {key: {"value": v, "unit": UNITS[key]}
                   for key, v in summary(times, [x["setup_s"] for x in setups]).items()}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024, "unit": "MB"}
        info.update(setup_samples=len(setups), trial_ms_tail_pct=tail(times)[1],
                    minor_faults_per_trial=faults / len(raw),
                    calibration_ms_p50=1000 * statistics.median(calibs) if calibs else None,
                    raw=summary(raw, [x["raw_setup_s"] for x in setups]))
        attempted = len(raw)
    failed = raised + wrong
    info.update(trials=attempted, failed_frac=failed / attempted, facts=workload.facts,
                src_lines=src_lines(), held_out_seed=HELD_OUT_SEED, env=environment())
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return info, result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own fresh interpreter; prints a table as it goes."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        lines = child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(int(trace))], seconds)
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        print(f"== {name}: {result['attempted']} trials, failed_frac {info['failed_frac']:g}, "
              f"correct {result['correct']}, facts {info['facts']}")
        for key, m in result["metrics"].items():
            print(f"   {key:<44} {m['value']:>16.6g} {m['unit']}")
            total["metrics"][f"{name}.{key}"] = m
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    return total


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "qlrc" / "__init__.py").is_file():
        fail(f"no qlrc sources under {SRC}")
    if args.setup_only:
        setup_s, raw_setup_s = scaled_set_up(WORKLOADS[args.workload]())
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, bool(args.trace))))
        return
    info, result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
