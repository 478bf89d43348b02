"""2F1(1, b; b+1; z) in each of its regions, just off the cut, and as an array."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polariton_lab.eit import hyp2f1_special
from polariton_lab.errors import BranchCutError

mp.mp.dps = 40


def oracle(b: complex, z: complex) -> complex:
    return complex(mp.hyp2f1(1, mp.mpmathify(b), mp.mpmathify(b) + 1, mp.mpmathify(z)))


def test_b_equal_one_just_above_the_cut():
    # -log(1-z)/z: 1-z sits just below the negative real axis
    assert hyp2f1_special(1.0, 1.6 + 1e-9j) == pytest.approx(0.3193 + 1.9635j, abs=1e-4)
    assert hyp2f1_special(1.0, 1.1 + 1e-9j).imag == pytest.approx(math.pi / 1.1, rel=1e-8)


def _polar(r, th):
    return r * complex(math.cos(th), math.sin(th))


_RING_B = [0.3, 1.0, 1.5, 2.7, 2.53 - 0.97j, 4.2 + 0.5j, 1.0 + 2.0j]
_RING_Z = (
    # near e^{+-i*pi/3}, where no linear transformation of 2F1 brings |z| below 1
    [_polar(r, s * (math.pi / 3 + d)) for r in (0.97, 0.985, 1.0, 1.015, 1.03)
     for s in (-1, 1) for d in (-0.01, 0.0, 0.01)]
    # real z in (0.8, 1): the pole at 1 sits just past the end of the path
    + [0.81, 0.85, 0.9, 0.95, 0.99, 0.999, 0.999999]
    # just inside the ring's radii 0.8 and 1.25
    + [_polar(r, th) for r in (0.8 * (1 + 1e-12), 0.8 * (1 + 1e-6), 1.25 * (1 - 1e-12), 1.25)
       for th in (0.2, -0.7, 1.5, 2.9, -3.1)]
)


@pytest.mark.parametrize(
    "b, zs",
    [(b, _RING_Z) for b in _RING_B]
    # a ring point that adaptive quadrature got only to 4.4e-10
    + [(2.53 - 0.97j, [-0.4720019675241714 + 1.1246130255616935j])],
)
def test_ring_matches_oracle(b, zs):
    got = hyp2f1_special(b, np.array(zs))
    for z, value in zip(zs, got):
        ref = oracle(b, z)
        assert abs(value - ref) <= 1e-13 * abs(ref), (b, z)


@pytest.mark.parametrize("b", [1.0, 1.5, 2.7])
@pytest.mark.parametrize(
    "z",
    [x + 1j * y for x in (1.1, 1.6, 1.24) for y in (1e-9, 1e-7, 1e-6)]
    + [1.01 - 1e-12j, 3.0 + 1e-9j, 3.0 - 1e-9j, 3.0 + 1e-6j],
)
def test_just_off_the_cut_matches_oracle(b, z):
    ref = oracle(b, z)
    assert abs(hyp2f1_special(b, z) - ref) <= 1e-13 * abs(ref), (b, z)


_ANGLE = st.floats(-math.pi, math.pi)
_Z = st.one_of(
    st.builds(_polar, st.floats(0.0, 0.8), _ANGLE),  # series disc
    st.builds(_polar, st.floats(0.8, 1.25, exclude_min=True), _ANGLE),  # continuation ring
    st.builds(  # just above or below the cut [1, inf)
        lambda x, side, e: complex(x, side * 10.0**e),
        st.floats(1.0, 1e6),
        st.sampled_from((-1.0, 1.0)),
        st.floats(-12.0, -3.0),
    ),
    st.builds(lambda e, th: _polar(10.0**e, th), st.floats(0.1, 7.0), _ANGLE),  # |z| up to 1e7
).filter(lambda z: not (z.imag == 0.0 and z.real >= 1.0))
_B = st.one_of(
    st.floats(0.05, 8.0),
    st.builds(  # within 1e-9..1e-3 of an integer
        lambda k, side, e: k + side * 10.0**e,
        st.integers(1, 4),
        st.sampled_from((-1.0, 1.0)),
        st.floats(-9.0, -3.0),
    ),
    st.builds(complex, st.floats(0.05, 8.0), st.floats(-3.0, 3.0)),
)


@settings(max_examples=300, deadline=None)
@given(b=_B, z=_Z)
def test_kernel_matches_oracle(b, z):
    ref = oracle(b, z)
    assert abs(hyp2f1_special(b, z) - ref) <= 1e-11 * abs(ref), (b, z)


@settings(max_examples=40, deadline=None)
@given(b=_B, zs=st.lists(_Z, min_size=1, max_size=12))
def test_array_call_equals_scalar_calls(b, zs):
    z = np.array(zs)
    got = hyp2f1_special(b, z)
    assert got.shape == z.shape
    assert np.array_equal(got, [hyp2f1_special(b, v) for v in zs])
    assert np.array_equal(hyp2f1_special(b, z.reshape(1, -1)), got.reshape(1, -1))


@pytest.mark.parametrize("on_cut", [1.0, 2.5, 1e6])
def test_one_element_on_the_cut_rejects_the_array(on_cut):
    z = np.array([0.3 + 0.1j, -4.0, on_cut, 2.0 + 1e-9j])
    with pytest.raises(BranchCutError):
        hyp2f1_special(1.5, z)


# Elements that need very different numbers of series terms, so the series
# shrinks its working arrays at several points, in the disc's series
# (shift b) and in the 1/z formula's (shift 1 - b).
_MIXED_Z = st.one_of(
    st.builds(_polar, st.floats(1e-300, 1e-3), _ANGLE),  # stops after a term or two
    st.sampled_from([0.8, -0.8, 0.8j, -0.8j]),  # |z| = 0.8 exactly: the longest series
    st.builds(_polar, st.floats(0.8, 1.25, exclude_min=True), _ANGLE),  # ring start points
    st.builds(_polar, st.floats(1.25, 1.3, exclude_min=True), _ANGLE),  # |1/z| near 0.8
    st.builds(lambda e, th: _polar(10.0**e, th), st.floats(0.2, 12.0), _ANGLE),
).filter(lambda z: not (z.imag == 0.0 and z.real >= 1.0))
_MIXED_B = st.one_of(
    st.integers(1, 4).map(float),
    st.builds(
        lambda k, side, e: k + side * 10.0**e,
        st.integers(1, 4),
        st.sampled_from((-1.0, 1.0)),
        st.floats(-12.0, -3.0),
    ),
    st.builds(complex, st.floats(0.05, 6.0), st.floats(-2.0, 2.0)),
)


@settings(max_examples=60, deadline=None)
@given(b=_MIXED_B, zs=st.lists(_MIXED_Z, min_size=2, max_size=40))
def test_mixed_array_equals_one_element_calls(b, zs):
    got = hyp2f1_special(b, np.array(zs))
    for value, z in zip(got, zs):
        one = hyp2f1_special(b, np.array([z]))
        assert np.array_equal(np.array([value]).view(float), one.view(float)), (b, z)


@pytest.mark.parametrize("b", [1.0, 1.5, 2 + 0.3j, 0.3, 0.4 - 0.7j, 3.0000001])
@pytest.mark.parametrize("r_lo, r_hi", [(0.8, 1.25), (1.25, 1e6)], ids=["ring", "large"])
def test_call_size_does_not_change_values(b, r_lo, r_hi):
    # 20 000 complex elements pass numpy's 256 KiB threshold for reusing a
    # temporary in place, 2000 do not; the values must not notice
    rng = np.random.default_rng(11)
    r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), 20_000))
    z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, r.size))
    z = z[~((z.imag == 0.0) & (z.real >= 1.0))]
    whole = hyp2f1_special(b, z)
    chunks = np.concatenate([hyp2f1_special(b, z[i:i + 2000]) for i in range(0, z.size, 2000)])
    assert np.array_equal(whole.view(float), chunks.view(float))
    for i in (0, 4321, z.size - 1):
        one = hyp2f1_special(b, z[i:i + 1])
        assert np.array_equal(whole[i:i + 1].view(float), one.view(float))
