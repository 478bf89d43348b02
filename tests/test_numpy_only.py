"""The CLI's numeric path loads numpy alone; its literals match scipy's."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants as sc
from scipy.special import zeta

import polariton_lab
from polariton_lab import dispersion, eit, quantization


def _loaded_by_cli_import(roots):
    code = (
        "import sys, polariton_lab.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))"
    )
    # a fresh interpreter that finds this checkout's package first
    path = [str(Path(polariton_lab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _loaded_by_cli_import(("scipy",)) == "[]"


def test_cli_import_loads_no_fractions_or_decimal():
    # the CSV writer's power-of-ten tables come from int arithmetic alone
    assert _loaded_by_cli_import(("fractions", "decimal")) == "[]"


def test_constants_equal_scipy_codata():
    assert dispersion.C == sc.c
    assert quantization.C is dispersion.C
    assert quantization.HBAR == sc.hbar
    assert quantization.EPS0 == sc.epsilon_0
    assert quantization.DIPOLE_EA0 == sc.e * sc.physical_constants["Bohr radius"][0]


@pytest.mark.parametrize("k", range(1, 9))
def test_csc_series_coefficients_equal_zeta(k):
    # pi/sin(pi*e) - 1/e = sum_k 2*(1 - 2^(1-2k))*zeta(2k)*e^(2k-1), highest k first
    assert eit._CSC_ODD[8 - k] == 2.0 * (1.0 - 2.0 ** (1 - 2 * k)) * float(zeta(2 * k))
