"""The CLI's numeric path loads numpy alone; its literals match scipy's."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.constants as sc
from scipy.special import zeta

import polariton_lab
from polariton_lab import dispersion, eit, quantization


@functools.cache
def _loaded_by_cli_import():
    """Every module name in ``sys.modules`` after ``import polariton_lab.cli``."""
    code = "import sys, polariton_lab.cli; print(*sorted(sys.modules))"
    # one fresh interpreter, shared by the import checks, that finds this
    # checkout's package first
    path = [str(Path(polariton_lab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.split()


def _loaded_under(*roots):
    return [m for m in _loaded_by_cli_import() if m.split(".")[0] in roots]


def test_cli_import_loads_no_scipy():
    assert _loaded_under("scipy") == []


def test_cli_import_loads_no_fractions_or_decimal():
    # the CSV writer's power-of-ten tables come from int arithmetic alone
    assert _loaded_under("fractions", "decimal") == []


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


def test_cli_import_loads_no_numpy_polynomial():
    # the ring's Gauss-Legendre rule is written out, not computed at import
    assert "numpy" in _loaded_by_cli_import()  # the list is not empty by mistake
    assert "numpy.polynomial" not in _loaded_under("numpy")


def test_ring_rule_literals_equal_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(24)
    assert np.max(np.abs(eit._RING_NODES - nodes)) <= 2e-16
    assert np.max(np.abs(eit._RING_WEIGHTS - weights)) <= 2e-16
