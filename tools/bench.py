#!/usr/bin/env python3
"""Benchmark trajectory: time this checkout against a git revision and write ``BENCH_<pr>.json``.

Usage:  python tools/bench.py REV --pr N

``REV`` is exported as ``tools/byte_gate.py`` exports it.  For each workload of
``BENCHMARK.json``, ``perfbench/run.py --trace 0`` runs in ten pairs, one run
of REV and one of this working tree at the same seed, each for the contract's
``run_seconds``: pair i uses seed i + 1, and the side that runs first
alternates from pair to pair, so that a drift of the machine falls on both
sides alike.  One ``--trace 1`` seed-1 run of the working tree then gives the
per-layer metrics.

The JSON written to the repository root holds, per workload, each end-to-end
metric's values, median and quartiles on both sides, the tree/REV ratio of
each pair and how many pairs the tree wins; the failed-op share of every run;
the traced layer metrics; the ``src/`` line counts; and the machine: CPU
count, numpy version, mean ``steal_frac`` of the timed runs and whether
``PYTHONDONTWRITEBYTECODE`` is set.  ``tree.src`` is the git tree hash of the
measured ``src/``, uncommitted edits included, so the entry names the code it
timed: it equals ``git rev-parse C:src`` for the commit C that holds that code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

from byte_gate import ROOT, export

PAIRS = 10

_SUMMARY = re.compile(r"^workload=\S+ .*failed_ops_frac=(\S+) steal_frac=(\S+)$", re.MULTILINE)


def parse_run(stdout: str) -> dict:
    """The metrics, units, failed-op share and steal share of one ``run.py`` output."""
    summary = _SUMMARY.search(stdout)
    if summary is None:
        raise ValueError("no 'workload=...' summary line in the run's output")
    last = json.loads(stdout.strip().splitlines()[-1])
    return {
        "metrics": {k: m["value"] for k, m in last["metrics"].items()},
        "units": {k: m["unit"] for k, m in last["metrics"].items()},
        "failed_ops_frac": float(summary.group(1)),
        "steal_frac": float(summary.group(2)),
    }


def summarize(values: list[float]) -> dict:
    """Median and quartiles of one side's values."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def assemble(pr: int, rev: str, pairs: dict[str, list[tuple[dict, dict]]],
             traced: dict[str, dict], contract: dict, src_lines: dict[str, int],
             machine: dict) -> dict:
    """The ``BENCH_<pr>.json`` document from parsed runs.

    ``pairs`` maps each workload to its (REV run, tree run) pairs and
    ``traced`` to the tree's traced run, each as :func:`parse_run` gives it;
    ``contract`` is ``BENCHMARK.json``, whose end-to-end metrics and their
    ``better`` direction are summarized.
    """
    workloads = {}
    steals = []
    for workload, runs in pairs.items():
        end_to_end = {}
        for metric in contract["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            old = [r["metrics"][name] for r, _ in runs]
            new = [t["metrics"][name] for _, t in runs]
            ratios = [b / a for a, b in zip(old, new)]
            old_s, new_s = summarize(old), summarize(new)
            end_to_end[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "rev": old_s,
                "tree": new_s,
                "pair_ratios": ratios,
                "pairs_tree_better": sum((r > 1.0) if higher else (r < 1.0) for r in ratios),
                "median_change": new_s["median"] / old_s["median"] - 1.0,
            }
        workloads[workload] = {
            "end_to_end": end_to_end,
            "failed_ops_frac": {
                "rev": [r["failed_ops_frac"] for r, _ in runs],
                "tree": [t["failed_ops_frac"] for _, t in runs],
            },
        }
        if workload in traced:
            run = traced[workload]
            workloads[workload]["layers"] = {
                k: {"value": v, "unit": run["units"][k]} for k, v in run["metrics"].items()
            }
        steals += [run["steal_frac"] for pair in runs for run in pair]
    return {
        "pr": pr,
        "rev": rev,
        "pairs": max((len(runs) for runs in pairs.values()), default=0),
        "src_lines": src_lines,
        "machine": dict(machine, steal_frac_mean=statistics.fmean(steals) if steals else None),
        "workloads": workloads,
    }


def count_src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((tree / "src").rglob("*.py")))


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench: {workload} seed {seed} in {tree} failed:\n{proc.stderr}")
    return parse_run(proc.stdout)


def _git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True, env=env).stdout.strip()


def src_tree_hash() -> str:
    """The git tree hash of this checkout's ``src/`` as it is on disk.

    ``src/`` is staged into a scratch index, so the repository's own index is
    left as it is.
    """
    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        _git("add", "--all", "src", env=env)
        return _git("write-tree", "--prefix=src/", env=env)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--pr", type=int, required=True, help="names the file BENCH_<pr>.json")
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"]
    machine = {
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }
    pairs: dict[str, list[tuple[dict, dict]]] = {}
    traced = {}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        rev_tree = Path(tmp).resolve() / "rev"
        export(args.rev, rev_tree)
        src_lines = {"rev": count_src_lines(rev_tree), "tree": count_src_lines(ROOT)}
        for workload in (w["name"] for w in contract["workloads"]):
            pairs[workload] = []
            for i in range(PAIRS):
                sides = [rev_tree, ROOT] if i % 2 == 0 else [ROOT, rev_tree]
                runs = {tree: _run(tree, workload, i + 1, seconds, 0) for tree in sides}
                pairs[workload].append((runs[rev_tree], runs[ROOT]))
                print(f"{workload} pair {i + 1}: points_per_s "
                      f"{runs[rev_tree]['metrics']['points_per_s']:.6g} -> "
                      f"{runs[ROOT]['metrics']['points_per_s']:.6g}", flush=True)
            traced[workload] = _run(ROOT, workload, 1, seconds, 1)

    doc = assemble(args.pr, _git("rev-parse", args.rev), pairs, traced, contract, src_lines,
                   machine)
    doc["tree"] = {"src": src_tree_hash()}
    doc["seconds"] = seconds
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
