"""Every demo script runs to completion and writes its files."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script, files",
    [
        ("01_loss_abyss.py", ["dispersion.csv", "loss_comparison.svg"]),
        ("02_loss_landscape.py", ["abyss_track.csv", "loss_landscape_cuts.svg"]),
        ("03_transparency_window.py", ["eit_spectrum.csv", "transparency_window.svg"]),
        ("04_slow_pulse.py", ["delay_vs_control.csv", "pulse_profiles.csv", "slow_pulse.svg"]),
    ],
)
def test_demo_runs_and_writes_its_files(tmp_path, script, files):
    # A copy, so that the demo's OUT (next to the script) lands in tmp_path.
    # It runs as __main__ in this interpreter, importing the package under
    # test; an exception in the demo fails the test.
    shutil.copy(DEMOS / script, tmp_path / script)
    runpy.run_path(str(tmp_path / script), run_name="__main__")
    for name in files:
        assert (tmp_path / "out" / name).is_file()
