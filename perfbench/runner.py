"""Runs one workload's ops in a process of their own.

Usage: ``python3 perfbench/runner.py SPEC.json`` (written by ``run.py``).

Each op is one in-process ``polariton_lab.cli.main`` call on one generated
scenario, exactly the arguments a user would type; ``--jobs`` is left at its
default unless the spec traces.  The process does nothing but the ops, so its
peak resident memory (plus that of its pool workers) is the ops' memory.
Only the ``main`` call is timed; clearing the output directory, counting CSV
rows and hashing the outputs happen between timings.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import resource
import shutil
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import tracing
from calib import calibrate


def _argv(op: dict, out: Path, jobs: int | None) -> list[str]:
    argv = [op["command"], "--config", op["ini"], "--out", str(out)]
    if op["plot"]:
        argv.append("--plot")
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    return argv


def _outputs(out: Path) -> tuple[int, dict[str, str]]:
    """CSV data rows written and a hash of every CSV and SVG file.

    Only those files fall under the byte-determinism contract; anything else
    the program writes next to them is ignored.
    """
    rows = 0
    hashes = {}
    for path in sorted(out.iterdir()):
        if path.suffix not in (".csv", ".svg"):
            continue
        data = path.read_bytes()
        hashes[path.name] = hashlib.sha256(data).hexdigest()
        if path.suffix == ".csv":
            lines = data.decode("ascii").splitlines()
            rows += sum(1 for line in lines[1:] if not line.startswith("# "))
    return rows, hashes


def _cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks summed over the machine's CPUs, from /proc/stat.

    Stolen ticks are those a CPU wanted to run but its host ran something
    else.  The calibration loop measures thread CPU time, which leaves them
    out, so run.py takes their share out of the wall times.
    """
    with open("/proc/stat", encoding="ascii") as fh:
        t = [int(v) for v in fh.readline().split()[1:9]]
    return sum(t[:3]) + sum(t[5:8]), t[7]


def _run_op(main, op: dict, out_root: Path, jobs: int | None, tracer, index: int) -> dict:
    out = out_root / op["sid"]
    shutil.rmtree(out, ignore_errors=True)
    argv = _argv(op, out, jobs)
    # Calibrate only while the program is idle, just before and just after
    # the op; run.py adds the probes it takes while the op is frozen.
    calib = [calibrate()]
    ticks0 = _cpu_ticks()
    t0 = time.perf_counter()
    try:
        rc = tracer.op(index, main, argv) if tracer else main(argv)
    except Exception:  # an escaped exception is a failed op, not a benchmark crash
        traceback.print_exc()
        rc = -1
    wall = time.perf_counter() - t0
    ticks1 = _cpu_ticks()
    calib.append(calibrate())
    rows, hashes = _outputs(out) if out.is_dir() else (0, {})
    return {"sid": op["sid"], "rc": rc, "t0_s": t0, "wall_s": wall, "calib": calib,
            "busy_ticks": ticks1[0] - ticks0[0], "steal_ticks": ticks1[1] - ticks0[1],
            "rows": rows, "hashes": hashes}


def _passes(main, ops, out_root, seconds, jobs, tracer=None) -> list[dict]:
    """Whole passes over ``ops`` until the op time lands nearest ``seconds``.

    Passes after the first run the ops in a shuffled order, so that periodic
    interference from other processes on the machine does not keep hitting
    the same scenarios.
    """
    records: list[dict] = []
    spent = 0.0
    for n_pass in itertools.count():
        t_pass = 0.0
        order = list(ops)
        if n_pass:
            random.Random(n_pass).shuffle(order)
        for op in order:
            rec = _run_op(main, op, out_root, jobs, tracer, len(records))
            rec["pass"] = n_pass
            records.append(rec)
            t_pass += rec["wall_s"]
        spent += t_pass
        if seconds is None or spent + 0.5 * t_pass >= seconds:
            return records


def _install_fault(name: str) -> None:
    """Replace a kernel, to show what the output checks catch and admit."""
    from polariton_lab import eit, materials

    if name == "scipy-hyp2f1":
        from scipy.special import hyp2f1

        def kernel(b, z):
            return complex(hyp2f1(1.0, b, b + 1.0, complex(z)))

        tracing.rebind(eit.hyp2f1_special, kernel)
    elif name == "jitter-1e-12":
        # Deterministic relative changes of 1e-12 and 1e-13, the size of a
        # reordered sum, in the 2F1 kernel and in the permittivity.
        hyp, ev = eit.hyp2f1_special, materials.eval_material

        def kernel(b, z):
            return hyp(b, z) * (1.0 + 1e-12 * math.sin(1e3 * abs(z)))

        def eval_material(m, omega):
            r = ev(m, omega)
            return replace(r, epsilon=r.epsilon * (1.0 + 1e-13 * math.sin(omega * 1e-12)))

        tracing.rebind(hyp, kernel)
        tracing.rebind(ev, eval_material)
    else:
        raise SystemExit(f"unknown fault {name!r}")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    from polariton_lab import cli

    if spec.get("fault"):
        _install_fault(spec["fault"])
    out_root = Path(spec["out"])
    result: dict = {}
    for op in spec["warmup"]:
        _run_op(cli.main, op, out_root / "warmup", None, None, -1)

    if spec["trace"]:
        # Spans from forked workers are lost, so the traced run is serial;
        # the untraced serial pass gives the tracing overhead.
        result["untraced"] = _passes(cli.main, spec["ops"], out_root, None, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result["ops"] = _passes(cli.main, spec["ops"], out_root, None, 1, tracer)
        finally:
            tracer.uninstall()
        tracer.write(Path(spec["spans"]))
        result["trace"] = tracer.summary()
    else:
        result["ops"] = _passes(cli.main, spec["ops"], out_root, spec["seconds"], None)
        # Pool workers are forked copies of this process, so the pages they
        # share with it count twice, and only the largest worker counts.
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_kb"] = self_kb + child_kb
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
