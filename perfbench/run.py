"""polariton-lab benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload eit-window --seed 1 --seconds 20 --trace 0

Run from the repository root (or any copy of it holding ``src/`` and
``perfbench/``).  The program is driven only through generated scenario INI
files fed to its CLI; see ``perfbench/README.md`` for the workloads, the
metrics and how each layer metric maps to an end-to-end one.

``--trace 0`` times whole passes over the workload's scenarios with
``--jobs`` at its default and prints the end-to-end metrics.  ``--trace 1``
runs one serial pass untraced and one traced, and prints the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from calib import CALIB_REFERENCE_S, at_reference_speed, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
SETUP_REFERENCE_S = 0.44
RUNNER_TIMEOUT_S = 150
PROBE_PERIOD_S = 0.2
FAULTS = ("scipy-hyp2f1", "jitter-1e-12")

END_TO_END_UNITS = {"points_per_s": "1/s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _run_runner(spec_path: Path, log_path: Path, probe: bool) -> tuple[int, list]:
    """Run the op process; kill its whole process group if it overruns.

    With ``probe``, every ``PROBE_PERIOD_S`` the op process and its pool
    workers are frozen (SIGSTOP) while the calibration loop runs, and then
    resumed, so a long op is calibrated while it runs but never under its
    own load.  Returns the exit code and the probes as (frozen from, frozen
    until, calibration) on the ``perf_counter`` clock, which on Linux is the
    system's monotonic clock in every process.
    """
    probes = []
    with log_path.open("wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "runner.py"), str(spec_path)],
            cwd=ROOT, env=_env(), stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        deadline = time.perf_counter() + RUNNER_TIMEOUT_S
        try:
            while True:
                try:
                    return proc.wait(timeout=PROBE_PERIOD_S), probes
                except subprocess.TimeoutExpired:
                    pass
                if time.perf_counter() > deadline:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                    return -1, probes
                if probe:
                    t0 = time.perf_counter()
                    os.killpg(proc.pid, signal.SIGSTOP)
                    try:
                        c = calibrate()
                    finally:
                        os.killpg(proc.pid, signal.SIGCONT)
                    probes.append((t0, time.perf_counter(), c))
        finally:
            try:  # reap pool workers left behind by a crashed runner
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def fold_probes(ops: list[dict], probes: list) -> None:
    """Give each op its wall time without the frozen intervals, and its speed.

    ``calib_s`` is the harmonic mean of the calibrations just before and
    after the op and of the probes taken while it ran: the op's average
    speed, which on a shared machine can switch between two levels several
    times during a long op.
    """
    for op in ops:
        t0, t1 = op["t0_s"], op["t0_s"] + op["wall_s"]
        inside = [(a, b, c) for a, b, c in probes if a < t1 and b > t0]
        op["wall_s"] -= sum(min(b, t1) - max(a, t0) for a, b, _ in inside)
        op["calib_s"] = statistics.harmonic_mean(op["calib"] + [c for _, _, c in inside])


def discount_steal(ops: list[dict]) -> float:
    """Set each op's ``run_s``: its wall time less the run's stolen share.

    On a virtual machine the host can stop a CPU that has work (steal).
    That stretches an op's wall time but not the calibration loop's thread
    CPU time, so it is removed here: over all ops of the run, the stolen
    ticks over the busy ticks.  The share is taken per run, not per op,
    because the ticks are 10 ms wide and most ops are only a few ticks long.
    Returns the share.
    """
    busy = sum(op["busy_ticks"] for op in ops)
    share = sum(op["steal_ticks"] for op in ops) / busy if busy else 0.0
    for op in ops:
        op["run_s"] = op["wall_s"] * (1.0 - share)
    return share


# Each runs in a fresh interpreter and prints how long its imports take.  The
# reference imports the third-party modules the CLI imports; the set-up
# imports the CLI and loads one config.
_REFERENCE_CODE = """
import time
t0 = time.perf_counter()
import numpy, scipy.constants, scipy.integrate, scipy.optimize
print(time.perf_counter() - t0)
"""
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import polariton_lab.cli as cli
cli.load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


def _time_interpreter(code: str, *args: str) -> float:
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=_env(),
                          check=True, capture_output=True, text=True)
    return float(proc.stdout)


def measure_setup(ini: Path) -> tuple[float, float]:
    """Set-up time, scaled by a reference import: (scaled, raw), medians.

    An import reads and maps hundreds of files, and on a shared machine its
    speed drifts over minutes in a way the calibration loop does not follow.
    So each set-up interpreter is paired with one that runs the reference
    import just before it, and the set-up time is given on a machine where
    the reference import takes ``SETUP_REFERENCE_S``.  The reference does
    not import the program, so a change to what the program imports or does
    at set-up moves the scaled time as it moves the raw one.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        ref = _time_interpreter(_REFERENCE_CODE)
        wall = _time_interpreter(_SETUP_CODE, str(ini))
        raw.append(wall)
        scaled.append(SETUP_REFERENCE_S * wall / ref)
    return statistics.median(scaled), statistics.median(raw)


def layer_metrics(trace: dict, ops: list[dict], untraced: list[dict]) -> dict[str, tuple[float, str]]:
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]
    m: dict[str, tuple[float, str]] = {}
    for layer, _, attr in tracing.LAYERS:
        name = f"{layer}.{attr}"
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    rows = sum(op["rows"] for op in ops)
    sp_calls = calls.get("dispersion.sp_wavevector", 0)
    gv_calls = calls.get("dispersion.group_velocity", 0)
    m["dispersion.sp_wavevector.calls_per_row"] = (sp_calls / rows if rows else 0.0, "calls/row")
    stencil = counts.get("dispersion.group_velocity.stencil_evals", 0)
    m["dispersion.group_velocity.stencil_evals_per_call"] = (stencil / gv_calls if gv_calls else 0.0, "evals/call")
    m["eit.alpha_closed.points"] = (counts.get("eit.alpha_closed.points", 0), "count")
    for region in ("series", "ring", "large"):
        m[f"eit.hyp2f1_special.{region}"] = (counts.get(f"eit.hyp2f1_special.{region}", 0), "count")
    m["csvio.write_csv.bytes"] = (counts.get("csvio.write_csv.bytes", 0), "B")
    m["cli.self_s"] = (self_s.get("cli", 0.0), "s")
    wall = sum(op["wall_s"] for op in ops)
    m["trace.wall_s"] = (wall, "s")
    # At the reference speed, so that the machine's drift between the two
    # passes does not swamp the cost of the wrappers.
    scaled = [sum(at_reference_speed(op["run_s"], op["calib_s"]) for op in p) for p in (ops, untraced)]
    m["trace.overhead_s"] = (scaled[0] - scaled[1], "s")
    return m


def end_to_end_metrics(ops: list[dict], peak_rss_kb: int, setup_s: float) -> dict[str, tuple[float, str]]:
    """Throughput and median op latency, in seconds at the reference speed.

    Each op's wall time is scaled by the calibration loop timed around it,
    which removes the machine's own speed swings (see ``calib.py``).  Both
    metrics rest on each scenario's median op, so they do not depend on how
    many passes fit in the run: throughput is the CSV rows of one pass over
    the sum of those medians, and latency is their median.
    """
    times: dict[str, list[float]] = {}
    rows: dict[str, int] = {}
    for op in ops:
        times.setdefault(op["sid"], []).append(at_reference_speed(op["run_s"], op["calib_s"]))
        rows[op["sid"]] = op["rows"]
    medians = [statistics.median(t) for t in times.values()]
    values = {
        "points_per_s": sum(rows.values()) / sum(medians),
        "op_p50_s": statistics.median(medians),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=FAULTS, help="self-test: replace the 2F1 kernel")
    args = parser.parse_args(argv)

    if not (SRC / "polariton_lab" / "cli.py").is_file():
        print(f"error: no polariton_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    import checks
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(scenarios.WORKLOADS)}",
              file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "ini").mkdir(parents=True)
    scen = scenarios.generate(args.workload, args.seed)

    def op_spec(s) -> dict:
        ini = run_dir / "ini" / f"{s.sid}.ini"
        ini.write_text(s.ini(), encoding="ascii")
        return {"sid": s.sid, "command": s.command, "plot": s.plot, "ini": str(ini)}

    spec = {
        "ops": [op_spec(s) for s in scen],
        "warmup": [op_spec(s) for s in scenarios.warmup(args.workload)],
        "seconds": args.seconds,
        "trace": args.trace,
        "fault": args.fault,
        "out": str(run_dir / "out"),
        "result": str(run_dir / "ops.json"),
        "spans": str(run_dir / "spans.csv"),
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    # Traced runs are not probed: a frozen interval would land in some span.
    rc, probes = _run_runner(spec_path, run_dir / "runner.log", probe=not args.trace)
    if rc != 0:
        print(f"error: op runner exited with {rc}; see {run_dir / 'runner.log'}", file=sys.stderr)
        return 1
    result = json.loads((run_dir / "ops.json").read_text())
    steal = {}
    for key in ("untraced", "ops"):
        fold_probes(result.get(key, []), probes)
        steal[key] = discount_steal(result.get(key, []))

    refs_path = HERE / "refs" / f"{args.workload}.json"
    refs = json.loads(refs_path.read_text())["seeds"].get(str(args.seed), {}) if refs_path.is_file() else {}
    problems = {
        s.sid: checks.check_scenario(s, run_dir / "out" / s.sid, args.seed, refs.get(s.sid))
        for s in scen
    }
    all_ops = result.get("untraced", []) + result["ops"]
    last = {op["sid"]: op["hashes"] for op in all_ops}
    failed = 0
    for op in all_ops:
        if op["rc"] != 0 or problems[op["sid"]] or op["hashes"] != last[op["sid"]]:
            failed += 1
    for sid, found in problems.items():
        for p in found[:5]:
            print(f"check failed: {args.workload} seed {args.seed} {sid}: {p}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(result["trace"], result["ops"], result["untraced"])
    else:
        setup_s, setup_raw = measure_setup(Path(spec["ops"][0]["ini"]))
        metrics = end_to_end_metrics(result["ops"], result["peak_rss_kb"], setup_s)
        ops = result["ops"]
        print(f"raw: points_per_s={sum(o['rows'] for o in ops) / sum(o['wall_s'] for o in ops):.6g} "
              f"op_p50_s={statistics.median(o['wall_s'] for o in ops):.6g} setup_s={setup_raw:.6g} "
              f"calib_p50_s={statistics.median(o['calib_s'] for o in ops):.6g} "
              f"(reference {CALIB_REFERENCE_S:g})")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={1 if args.trace else os.cpu_count()} ops={len(all_ops)} "
          f"failed_ops_frac={failed / len(all_ops):.4g} steal_frac={steal['ops']:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
