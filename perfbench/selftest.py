"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

* With the 2F1 kernel replaced by ``scipy.special.hyp2f1`` (off by ~7e-2 in
  the ring 0.8 < |z| <= 2 at b = 1), ``failed_ops_frac`` must be non-zero on
  ``eit-window``: on seed 1, which has recorded references, and on seed
  1000, which has none, so the oracle spot rows must catch it alone.
* With 1e-12 relative jitter in the kernel and 1e-13 in the permittivity,
  the size of a reordered sum, no op may fail on ``eit-window`` or
  ``band-lossmap``: the tolerances admit what an exact refactor changes.

Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

CASES = (
    ("eit-window", 1, "scipy-hyp2f1", True),
    ("eit-window", 1000, "scipy-hyp2f1", True),
    ("eit-window", 1, "jitter-1e-12", False),
    ("band-lossmap", 1, "jitter-1e-12", False),
)


def run(workload: str, seed: int, fault: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--fault", fault]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for workload, seed, fault, must_fail in CASES:
        result = run(workload, seed, fault)
        frac = result["failed"] / result["attempted"]
        passed = (frac > 0) == must_fail
        ok &= passed
        expect = "> 0" if must_fail else "= 0"
        print(f"{'PASS' if passed else 'FAIL'} {workload} seed {seed} fault {fault}: "
              f"failed_ops_frac = {frac:.3g} (expected {expect})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
