#!/usr/bin/env python3
"""Byte gate: compare every shipped output of this checkout with those of a git revision.

Usage:  python tools/byte_gate.py REV

``REV`` is exported with ``git archive`` into a temporary directory (neither
``.git`` nor the working tree is touched).  For each of the two trees, REV and
this working tree, one interpreter with ``PYTHONDONTWRITEBYTECODE=1`` and
``PYTHONPATH=<tree>/src`` runs

* ``cli.main`` on every ``scenarios/*.ini`` of the tree with each of the four
  subcommands and ``--plot``, recording each exit code;
* each ``demos/*.py`` of the tree from a copy in the temporary directory, so
  that the demo's ``OUT`` lands there, capturing its stdout with the
  temporary path replaced by ``<run>``.

It then lists every output file whose bytes differ or that exists on one
side only, and every differing exit code, and exits 1 if there is any, else
0.  Both sides run on this machine: bytes are compared, not stored hashes,
because a complex multiply can round differently from machine to machine.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run inside the child interpreter: argv is (tree, run directory); prints
# the exit code of every run as one JSON object on its last line.
_DRIVER = r"""
import contextlib, io, json, runpy, shutil, sys, traceback
from pathlib import Path

from polariton_lab import cli

tree, run = Path(sys.argv[1]), Path(sys.argv[2])
codes = {}
for ini in sorted((tree / "scenarios").glob("*.ini")):
    for cmd in ("dispersion", "lossmap", "eit-spectrum", "propagate"):
        out = run / "cli" / ini.stem / cmd
        codes[f"cli {ini.stem} {cmd}"] = cli.main(
            [cmd, "--config", str(ini), "--out", str(out), "--plot"]
        )
demos = run / "demos"
demos.mkdir(parents=True)
for script in sorted((tree / "demos").glob("*.py")):
    copy = demos / script.name
    shutil.copy(script, copy)
    printed = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(printed):
        try:
            runpy.run_path(str(copy), run_name="__main__")
        except Exception:
            traceback.print_exc(file=printed)
            code = 1
    codes[f"demo {script.stem}"] = code
    copy.unlink()
    (demos / f"{script.stem}.stdout").write_text(printed.getvalue().replace(str(run), "<run>"))
print(json.dumps(codes))
"""


def _run(tree: Path, run: Path) -> dict[str, int]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, str(tree), str(run)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"byte gate: the run in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def export(rev: str, dest: Path) -> None:
    """Write the files of git revision ``rev`` to ``dest`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        stdout=subprocess.PIPE, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _files(run: Path) -> dict[str, bytes]:
    return {str(p.relative_to(run)): p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="byte-gate-") as tmp:
        tmp = Path(tmp).resolve()
        export(rev, tmp / "rev")
        sides = {rev: (tmp / "rev", tmp / "run-rev"), "tree": (ROOT, tmp / "run-tree")}
        codes, files = {}, {}
        for side, (tree, run) in sides.items():
            codes[side] = _run(tree, run)
            files[side] = _files(run)

    old, new = files[rev], files["tree"]
    problems = [f"only in {rev}: {name}" for name in sorted(old.keys() - new.keys())]
    problems += [f"only in tree: {name}" for name in sorted(new.keys() - old.keys())]
    problems += [f"differs: {name}" for name in sorted(old.keys() & new.keys())
                 if old[name] != new[name]]
    for run in sorted(codes[rev].keys() | codes["tree"].keys()):
        a, b = codes[rev].get(run), codes["tree"].get(run)
        if a != b:
            problems.append(f"exit code: {run}: {rev} {a}, tree {b}")
    for line in problems:
        print(line)
    exits = " ".join(f"{run}={code}" for run, code in sorted(codes["tree"].items()) if code)
    print(f"byte gate {rev} -> tree: {len(old.keys() | new.keys())} files, "
          f"{len(codes['tree'])} runs, nonzero exits: {exits or 'none'}; "
          f"{len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
