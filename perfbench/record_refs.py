"""Record reference fingerprints of every scenario of the benchmark's own seeds.

    python3 perfbench/record_refs.py [--seeds 1-10] [--workload NAME]

Writes ``perfbench/refs/<workload>.json``.  Each scenario is run once through
the CLI and must pass the oracle checks before its fingerprint is recorded.
Run it only on a commit whose outputs are to become the reference; a later
change that alters outputs beyond the check tolerance fails the benchmark
instead of re-recording.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

import checks  # noqa: E402
import scenarios  # noqa: E402
from polariton_lab import cli  # noqa: E402


def record(workload: str, seeds: list[int], work: Path) -> dict:
    table = {}
    for seed in seeds:
        table[str(seed)] = {}
        for s in scenarios.generate(workload, seed):
            ini = work / f"{s.sid}.ini"
            out = work / s.sid
            shutil.rmtree(out, ignore_errors=True)
            ini.write_text(s.ini(), encoding="ascii")
            argv = [s.command, "--config", str(ini), "--out", str(out)] + (["--plot"] if s.plot else [])
            with contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            problems = checks.check_scenario(s, out, seed, None) if rc == 0 else [f"exit code {rc}"]
            if problems:
                raise SystemExit(f"{workload} seed {seed} {s.sid}: {problems}")
            table[str(seed)][s.sid] = checks.fingerprints(out)
        print(f"{workload}: seed {seed} recorded", file=sys.stderr)
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", choices=sorted(scenarios.WORKLOADS))
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    work = HERE.parent / ".perfbench" / "refs-build"
    work.mkdir(parents=True, exist_ok=True)
    for workload in [args.workload] if args.workload else sorted(scenarios.WORKLOADS):
        table = record(workload, list(range(lo, hi + 1)), work)
        path = HERE / "refs" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"rtol": checks.RTOL, "seeds": table}, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
