"""Tests for the diagonal Fock-state container and the L1 metric."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gauss_purify.fock import (
    DiagonalFockState,
    displacement_matrix,
    displacement_matrix_element,
    l1_distance,
    mean_photon,
    number_state,
    thermal_state,
    vacuum_state,
)

thermal_params = st.floats(min_value=0.0, max_value=0.95)


def test_thermal_entries_and_tail():
    state = thermal_state(0.5, 10)
    n = np.arange(11)
    assert np.allclose(state.probs, 0.5 * 0.5**n, rtol=0, atol=0)
    assert state.tail_bound == 0.5**11
    assert abs(state.norm + state.tail_bound - 1.0) < 1e-15


def test_vacuum_is_point_mass():
    state = vacuum_state(4)
    assert state.prob(0) == 1.0
    assert state.tail_bound == 0.0
    assert mean_photon(state) == 0.0


def test_number_state_default_cutoff():
    state = number_state(3)
    assert state.cutoff == 3
    assert state.prob(3) == 1.0
    with pytest.raises(ValueError):
        number_state(3, cutoff=2)


@given(s=thermal_params, cutoff=st.integers(min_value=5, max_value=80))
@settings(max_examples=60)
def test_thermal_mean_photon(s, cutoff):
    # retained mean approaches s / (1 - s) as the tail shrinks
    state = thermal_state(s, cutoff)
    exact = s / (1.0 - s)
    slack = (cutoff + 2) * state.tail_bound / max(1.0 - s, 1e-6)
    assert abs(mean_photon(state) - exact) <= slack + 1e-12


def test_constructor_validates():
    with pytest.raises(ValueError):
        DiagonalFockState([0.5, -0.1, 0.6])
    with pytest.raises(ValueError):
        DiagonalFockState([0.5, 0.2])  # misses 0.3 of mass, no tail declared
    state = DiagonalFockState([0.5, 0.2], tail_bound=0.3)
    assert state.cutoff == 1


def test_padded_is_plain_vector():
    state = thermal_state(0.3, 4)
    vec = state.padded(9)
    assert isinstance(vec, np.ndarray)
    assert vec.shape == (10,)
    assert vec[5:].sum() == 0.0
    with pytest.raises(ValueError):
        state.padded(2)


def test_l1_distance_identical_states():
    a = thermal_state(0.6, 200)
    assert l1_distance(a, a).value == 0.0


def test_l1_distance_certified_interval():
    a = thermal_state(0.5, 60)
    b = thermal_state(0.2, 60)
    got = l1_distance(a, b)
    # brute-force the exact distance with negligible tail
    n = np.arange(400)
    exact = np.abs(0.5 * 0.5**n - 0.8 * 0.2**n).sum()
    assert got.lower - 1e-15 <= exact <= got.upper + 1e-15


def test_l1_distance_rejects_unnormalized():
    # full head mass plus a fat declared tail overshoots norm + tail = 1
    bad = DiagonalFockState(np.array([1.0]), 0.5)
    with pytest.raises(ValueError):
        l1_distance(bad, thermal_state(0.5, 1))


@given(sa=thermal_params, sb=thermal_params)
@settings(max_examples=60)
def test_l1_metric_properties(sa, sb):
    a = thermal_state(sa, 120)
    b = thermal_state(sb, 120)
    dab = l1_distance(a, b).value
    dba = l1_distance(b, a).value
    assert dab == dba
    assert 0.0 <= dab <= 2.0 + 1e-12


@given(sa=thermal_params, sb=thermal_params, sc=thermal_params)
@settings(max_examples=40)
def test_l1_triangle_inequality(sa, sb, sc):
    a, b, c = (thermal_state(s, 150) for s in (sa, sb, sc))
    assert l1_distance(a, c).value <= (
        l1_distance(a, b).value + l1_distance(b, c).value + 1e-12
    )


def test_displacement_vacuum_element():
    # <0|W(alpha)|0> = exp(-|alpha|^2 / 2)
    got = displacement_matrix_element(0, 0, 0.6)
    assert abs(got - math.exp(-0.18)) < 1e-14
    got2 = displacement_matrix_element(0, 0, 0.3 + 0.4j)
    assert abs(got2 - math.exp(-0.125)) < 1e-14


def test_displacement_single_photon_element():
    # <1|W(alpha)|0> = alpha exp(-|alpha|^2 / 2)
    alpha = 0.7 - 0.2j
    want = alpha * math.exp(-abs(alpha) ** 2 / 2)
    assert abs(displacement_matrix_element(1, 0, alpha) - want) < 1e-14


def test_displacement_matrix_unitary_block():
    alpha = 0.9 + 0.3j
    dim = 40
    W = displacement_matrix(alpha, dim)
    gram = W.conj().T @ W
    # truncation only pollutes the high corner; the low block is clean
    block = gram[:20, :20]
    assert np.max(np.abs(block - np.eye(20))) < 1e-10


def test_displacement_inverse_is_adjoint():
    alpha = 0.5 + 0.1j
    dim = 30
    W = displacement_matrix(alpha, dim)
    V = displacement_matrix(-alpha, dim)
    assert np.max(np.abs(W[:12, :12].conj().T - V[:12, :12])) < 1e-10


def _displacement_mp(m: int, n: int, alpha: complex) -> complex:
    """<m|W_alpha|n> from the associated-Laguerre closed form, at working precision."""
    a = mpmath.mpc(alpha)
    x = abs(a) ** 2
    lo, d = min(m, n), abs(m - n)
    mag = mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(lo + d)) * mpmath.exp(-x / 2)
    phase = a**d if m >= n else (-mpmath.conj(a)) ** d
    return complex(mag * mpmath.laguerre(lo, d, x) * phase)


_DISPLACEMENT_ALPHAS = [
    math.sqrt(x) * unit
    for x in (1e-4, 1.0, 10.0)
    for unit in (1.0, -1.0, complex(math.cos(0.7), math.sin(0.7)))
]


@pytest.mark.parametrize("alpha", _DISPLACEMENT_ALPHAS)
def test_displacement_matrix_matches_the_laguerre_closed_form(alpha):
    # |alpha|^2 in {1e-4, 1, 10}, real, negative and complex, dim 500: the
    # docstring's range.  The entries checked are the corners, the deep
    # near-diagonal ones where the recurrence has run longest, and a spread
    # over both triangles; each is within 2e-13 of the 50-digit form.
    dim = 500
    W = displacement_matrix(alpha, dim)
    rng = np.random.default_rng(5)
    picks = [(0, 0), (dim - 1, 0), (0, dim - 1), (dim - 1, dim - 1), (447, 448), (448, 447)]
    picks += [(m, m - d) for m in (120, 300, 499) for d in (0, 1, 2, 40)]
    picks += [(n - d, n) for n in (120, 300, 499) for d in (1, 2, 40)]
    picks += [tuple(int(i) for i in rng.integers(0, dim, 2)) for _ in range(24)]
    with mpmath.workdps(50):
        for m, n in picks:
            assert abs(W[m, n] - _displacement_mp(m, n, alpha)) <= 2e-13, (m, n)


@pytest.mark.parametrize("m, n", [(0, 0), (3, 0), (0, 3), (17, 9), (9, 17), (120, 119)])
@pytest.mark.parametrize("alpha", [0.3, -1.2, 0.8 - 2.1j])
def test_displacement_element_is_the_matrix_entry(m, n, alpha):
    # one method: the element is read off the matrix, bit for bit
    assert displacement_matrix_element(m, n, alpha) == displacement_matrix(alpha, max(m, n) + 1)[m, n]


def test_thermal_long_cutoff_retains_mass():
    state = thermal_state(0.8, 200)
    # mass bound holds at the correctly rounded sum; the tail is ~3e-20
    assert math.fsum(state.probs) >= 1.0 - 0.8**201
    ratios = state.probs[:-1] / state.probs[1:]
    assert np.max(np.abs(ratios - 1.25)) < 1e-13


def test_l1_distance_worked_thermal_pair():
    got = l1_distance(thermal_state(0.5, 80), thermal_state(0.4, 80))
    assert abs(got.value - 0.2) < 1e-12


def test_l1_distance_orthogonal_point_masses():
    assert l1_distance(number_state(0, 6), number_state(3, 6)).value == 2.0


def test_displacement_zero_amplitude_is_identity():
    assert np.array_equal(displacement_matrix(0.0, 9), np.eye(9))
    assert displacement_matrix_element(4, 4, 0.0) == 1.0
    assert displacement_matrix_element(2, 5, 0.0) == 0.0
