import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PauliTerm,
    coupling_hamiltonian,
    full_hamiltonian,
    kron_realize,
    nmr_zz_hamiltonian,
    number_operator,
    onsite_hamiltonian,
    same_bits,
)
from pairgap.hamiltonian import PairingModel, _signs, realize, sector_basis
from pairgap.exact import Ramp
from pairgap.nmr import SpinSystem
from pairgap.presets import pairing_model

PI = math.pi

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def two_mode_model(v12=10.0, f=1.0):
    v = np.array([[0.0, v12], [v12, 0.0]])
    return PairingModel((3.0, 7.0), v, f)


def test_model_validation():
    with pytest.raises(ValueError):
        PairingModel((), np.zeros((0, 0)))
    with pytest.raises(ValueError):
        PairingModel((1.0, 2.0), np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        PairingModel((1.0,), np.zeros((2, 2)))  # size mismatch
    m = two_mode_model()
    assert m.n == 2
    with pytest.raises((ValueError, AttributeError, TypeError)):
        m.coupling[0, 1] = 99.0  # read-only view


def test_symmetry_tolerance_boundary():
    # the check is |V - V^T| <= 1e-12 entrywise, inclusive
    PairingModel((1.0, 2.0), np.array([[0.0, 1e-12], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="must be symmetric"):
        PairingModel((1.0, 2.0), np.array([[0.0, 2e-12], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="must be symmetric"):
        PairingModel((1.0, 2.0), np.array([[0.0, 0.0], [-2e-12, 0.0]]))


def test_with_coupling_scale_leaves_onsite_alone():
    m = two_mode_model(v12=10.0)
    half = m.with_coupling_scale(0.5)
    assert half.nu == m.nu
    assert half.coupling[0, 1] == 5.0
    assert half.convention_factor == m.convention_factor
    # scale 1 is an identity
    assert np.array_equal(m.with_coupling_scale(1.0).coupling, m.coupling)


def test_realize_msb_convention():
    # qubit 1 is the most significant bit: Z_1 flips sign on indices 4..7
    assert np.array_equal(_signs(3)[:, 0], np.diag(kron3(Z, I2, I2)).real)
    assert np.array_equal(_signs(3)[:, 2], np.diag(kron3(I2, I2, Z)).real)
    assert not _signs(3).flags.writeable
    # H = -(nu_m / 2) Z_m for one nonzero mode frequency
    for m, want in ((0, kron3(Z, I2, I2)), (2, kron3(I2, I2, Z))):
        nu = [0.0, 0.0, 0.0]
        nu[m] = -2.0
        assert np.array_equal(realize(PairingModel(tuple(nu), np.zeros((3, 3)))), want)


def test_realize_matches_explicit_kron():
    rng = np.random.default_rng(7)
    nu, v12, v23 = rng.normal(size=3), rng.normal(), rng.normal()
    v = np.zeros((3, 3))
    v[0, 1] = v[1, 0] = v12
    v[1, 2] = v[2, 1] = v23
    want = (
        -0.5 * nu[0] * kron3(Z, I2, I2)
        - 0.5 * nu[1] * kron3(I2, Z, I2)
        - 0.5 * nu[2] * kron3(I2, I2, Z)
        + 0.5 * v12 * (kron3(X, X, I2) + kron3(Y, Y, I2))
        + 0.5 * v23 * (kron3(I2, X, X) + kron3(I2, Y, Y))
    )
    assert np.allclose(realize(PairingModel(tuple(nu), v)), want, atol=1e-15, rtol=1e-15)


@st.composite
def pairing_models(draw):
    """Models of 1..7 modes with signed, zero and negative-zero frequencies
    and couplings, and any convention factor."""
    n = draw(st.integers(1, 7))
    value = st.floats(-1e4, 1e4, allow_nan=False) | st.sampled_from([0.0, -0.0])
    nu = draw(st.lists(value, min_size=n, max_size=n))
    v = np.zeros((n, n))
    for m in range(n):
        for l in range(m + 1, n):
            v[m, l] = v[l, m] = draw(value)
    factor = draw(st.sampled_from([1.0, 2.0, 0.37]) | st.floats(1e-3, 1e3))
    return PairingModel(tuple(nu), v, factor)


@settings(deadline=None, max_examples=120)
@given(pairing_models())
def test_realize_equals_the_kron_oracle_bit_for_bit(model):
    # the direct sum of hop-list blocks against the sum of Pauli-string
    # tensor products, signed zeros included
    assert same_bits(realize(model), kron_realize(full_hamiltonian(model)))


def test_realize_qubit_guard():
    model = PairingModel(tuple(range(1, 14)), np.zeros((13, 13)))
    with pytest.raises(ValueError, match="12"):
        realize(model)


def test_onsite_terms():
    m = two_mode_model(f=2.0)
    h = onsite_hamiltonian(m)
    assert h.terms == (
        PauliTerm(-3.0, ((1, "Z"),)),
        PauliTerm(-7.0, ((2, "Z"),)),
    )
    # matrix check: -f nu/2 Z on each mode
    want = -3.0 * np.kron(Z, I2) - 7.0 * np.kron(I2, Z)
    assert np.allclose(kron_realize(h), want)


def test_coupling_terms_and_axis():
    m = two_mode_model(v12=10.0)
    hx = coupling_hamiltonian(m, "X")
    assert hx.terms == (PauliTerm(5.0, ((1, "X"), (2, "X"))),)
    hy = coupling_hamiltonian(m, "Y")
    assert np.allclose(kron_realize(hy), 5.0 * np.kron(Y, Y))
    with pytest.raises(ValueError):
        coupling_hamiltonian(m, "Z")


def test_zero_couplings_are_dropped():
    v = np.zeros((3, 3))
    v[0, 1] = v[1, 0] = 4.0
    m = PairingModel((1.0, 2.0, 3.0), v)
    assert len(coupling_hamiltonian(m, "X").terms) == 1


def test_full_is_sum_of_parts():
    m = pairing_model("h1")
    total = kron_realize(onsite_hamiltonian(m))
    total = total + kron_realize(coupling_hamiltonian(m, "X"))
    total = total + kron_realize(coupling_hamiltonian(m, "Y"))
    assert np.allclose(realize(m), total, atol=0)
    with pytest.raises(ValueError):
        coupling_hamiltonian(m, "Z")


def test_full_hamiltonian_hermitian_and_real():
    h = realize(pairing_model("h1"))
    assert np.allclose(h, h.conj().T, atol=0)
    # XX + YY pairs cancel the imaginary parts entry by entry
    assert np.allclose(h.imag, 0.0, atol=1e-12)


def test_convention_factor_scales_everything():
    m1 = pairing_model("h2", convention_factor=1.0)
    m2 = pairing_model("h2", convention_factor=2.0)
    assert np.allclose(realize(m2), 2.0 * realize(m1))


def test_interpolation_endpoints_verbatim():
    m = pairing_model("h1")
    ramp = Ramp(m, 4, 2)
    assert full_hamiltonian(ramp.step_model(0)).terms == onsite_hamiltonian(m).terms
    assert full_hamiltonian(ramp.step_model(4)).terms == full_hamiltonian(m).terms
    # step 0's hops hold 0.0 and step S is the model's own H, bit for bit
    assert same_bits(realize(ramp.step_model(0)), kron_realize(onsite_hamiltonian(m)))
    assert same_bits(realize(ramp.step_model(4)), realize(m))


def test_interpolation_midpoint_matrix():
    m = pairing_model("h1")
    ramp = Ramp(m, 4, 2)
    h0 = kron_realize(onsite_hamiltonian(m))
    h1 = realize(m)
    got = realize(ramp.step_model(1))
    assert np.allclose(got, 0.75 * h0 + 0.25 * h1, rtol=1e-15, atol=1e-9)
    for s in (5, -1):
        with pytest.raises(ValueError, match="step index out of range"):
            ramp.step_model(s)
    with pytest.raises(ValueError, match="schedule.steps"):
        Ramp(m, 0, 2)


def test_nmr_zz_coefficients():
    j = np.array([[0.0, 8.0], [8.0, 0.0]])
    h = nmr_zz_hamiltonian(j)
    assert h.terms == (PauliTerm(4.0 * PI, ((1, "Z"), (2, "Z"))),)
    assert np.allclose(kron_realize(h), 4.0 * PI * np.kron(Z, Z))
    with pytest.raises(ValueError, match="diagonal"):
        SpinSystem(np.array([[1.0, 8.0], [8.0, 0.0]]))


def test_sector_basis_hamming_weight():
    assert sector_basis(3, 2).tolist() == [3, 5, 6]
    assert sector_basis(4, 2).tolist() == [3, 5, 6, 9, 10, 12]
    assert sector_basis(3, 0).tolist() == [0]
    with pytest.raises(ValueError):
        sector_basis(3, 4)


def test_number_operator_counts_excitations():
    nop = number_operator(3)
    assert np.array_equal(np.diag(nop).real, [bin(i).count("1") for i in range(8)])
    # the pairing Hamiltonian conserves excitation number
    h = realize(pairing_model("h1"))
    assert np.allclose(h @ nop - nop @ h, 0.0, atol=1e-9)
