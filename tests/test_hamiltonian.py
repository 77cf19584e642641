import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kron_axis_field, kron_realize, number_operator
from pairgap.hamiltonian import (
    _add_pauli,
    _pauli_pattern,
    PairingModel,
    PauliSum,
    PauliTerm,
    coupling_hamiltonian,
    full_hamiltonian,
    nmr_zz_hamiltonian,
    onsite_hamiltonian,
    realize,
    sector_basis,
)
from pairgap.exact import Ramp
from pairgap.nmr import _axis_field
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


def test_pauli_term_normalization():
    t = PauliTerm(2.0, ((3, "X"), (1, "Z")))
    assert t.factors == ((1, "Z"), (3, "X"))
    with pytest.raises(ValueError):
        PauliTerm(1.0, ((1, "X"), (1, "Y")))  # duplicate qubit
    with pytest.raises(ValueError):
        PauliTerm(1.0, ((0, "X"),))  # 1-based indices
    with pytest.raises(ValueError):
        PauliTerm(1.0, ((1, "Q"),))
    with pytest.raises(ValueError):
        PauliTerm(float("nan"), ())


def test_pauli_sum_bounds():
    t = PauliTerm(1.0, ((3, "X"),))
    with pytest.raises(ValueError):
        PauliSum((t,), 2)
    assert PauliSum((t,), 3).n == 3


def test_realize_msb_convention():
    # qubit 1 is the most significant bit: Z_1 flips sign on indices 4..7
    op = PauliSum((PauliTerm(1.0, ((1, "Z"),)),), 3)
    assert np.array_equal(realize(op), kron3(Z, I2, I2))
    op3 = PauliSum((PauliTerm(1.0, ((3, "Z"),)),), 3)
    assert np.array_equal(realize(op3), kron3(I2, I2, Z))


def test_realize_matches_explicit_kron():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=3)
    op = PauliSum(
        (
            PauliTerm(coeffs[0], ((1, "X"), (2, "X"))),
            PauliTerm(coeffs[1], ((2, "Y"), (3, "Y"))),
            PauliTerm(coeffs[2], ((2, "Z"),)),
        ),
        3,
    )
    want = (
        coeffs[0] * kron3(X, X, I2)
        + coeffs[1] * kron3(I2, Y, Y)
        + coeffs[2] * kron3(I2, Z, I2)
    )
    assert np.allclose(realize(op), want, atol=0, rtol=1e-15)


@st.composite
def pauli_sums(draw):
    n = draw(st.integers(1, 8))
    coeff = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    letters = st.dictionaries(st.integers(1, n), st.sampled_from("XYZ"), max_size=n)
    terms = draw(st.lists(st.builds(lambda c, f: PauliTerm(c, tuple(f.items())), coeff, letters), max_size=10))
    return PauliSum(tuple(terms), n)


@settings(deadline=None, max_examples=150)
@given(pauli_sums())
def test_realize_matches_kron_oracle_exactly(op):
    assert np.array_equal(realize(op), kron_realize(op))


def test_pauli_patterns_are_cached_read_only_and_bounded():
    assert _pauli_pattern.cache_info().maxsize is not None
    op = full_hamiltonian(pairing_model("h1"))
    first = realize(op)
    hits = _pauli_pattern.cache_info().hits
    again = realize(op)
    assert _pauli_pattern.cache_info().hits == hits + len(op.terms)
    assert np.array_equal(first, again) and np.array_equal(again, kron_realize(op))
    for n in (1, 3, 12):
        flat, odd, _ = _pauli_pattern(n, ((1, "Y"), (n, "X")))
        assert not flat.flags.writeable and not odd.flags.writeable
        assert flat.itemsize < np.dtype(np.intp).itemsize and odd.dtype == bool
        with pytest.raises(ValueError):
            flat[0] = 0
    for _ in range(2):
        assert np.array_equal(_axis_field(3, (1, 3), 0.7), kron_axis_field(3, (1, 3), 0.7))
    with pytest.raises(ValueError, match="C-contiguous"):
        _add_pauli(np.zeros((8, 8), dtype=complex).T, 1.0, ((1, "X"),))


def test_realize_qubit_guard():
    op = PauliSum((PauliTerm(1.0, ((13, "Z"),)),), 13)
    with pytest.raises(ValueError, match="12"):
        realize(op)


def test_onsite_terms():
    m = two_mode_model(f=2.0)
    h = onsite_hamiltonian(m)
    assert h.terms == (
        PauliTerm(-3.0, ((1, "Z"),)),
        PauliTerm(-7.0, ((2, "Z"),)),
    )
    # matrix check: -f nu/2 Z on each mode
    want = -3.0 * np.kron(Z, I2) - 7.0 * np.kron(I2, Z)
    assert np.allclose(realize(h), want)


def test_coupling_terms_and_axis():
    m = two_mode_model(v12=10.0)
    hx = coupling_hamiltonian(m, "X")
    assert hx.terms == (PauliTerm(5.0, ((1, "X"), (2, "X"))),)
    hy = coupling_hamiltonian(m, "Y")
    assert np.allclose(realize(hy), 5.0 * np.kron(Y, Y))
    with pytest.raises(ValueError):
        coupling_hamiltonian(m, "Z")


def test_zero_couplings_are_dropped():
    v = np.zeros((3, 3))
    v[0, 1] = v[1, 0] = 4.0
    m = PairingModel((1.0, 2.0, 3.0), v)
    assert len(coupling_hamiltonian(m, "X").terms) == 1


def test_full_is_sum_of_parts():
    m = pairing_model("h1")
    total = realize(onsite_hamiltonian(m))
    total = total + realize(coupling_hamiltonian(m, "X"))
    total = total + realize(coupling_hamiltonian(m, "Y"))
    assert np.allclose(realize(full_hamiltonian(m)), total, atol=0)
    with pytest.raises(ValueError):
        coupling_hamiltonian(m, "Z")


def test_full_hamiltonian_hermitian_and_real():
    h = realize(full_hamiltonian(pairing_model("h1")))
    assert np.allclose(h, h.conj().T, atol=0)
    # XX + YY pairs cancel the imaginary parts entry by entry
    assert np.allclose(h.imag, 0.0, atol=1e-12)


def test_convention_factor_scales_everything():
    m1 = pairing_model("h2", convention_factor=1.0)
    m2 = pairing_model("h2", convention_factor=2.0)
    assert np.allclose(realize(full_hamiltonian(m2)), 2.0 * realize(full_hamiltonian(m1)))


def test_interpolation_endpoints_verbatim():
    m = pairing_model("h1")
    ramp = Ramp(m, 4, 2)
    assert full_hamiltonian(ramp.step_model(0)).terms == onsite_hamiltonian(m).terms
    assert full_hamiltonian(ramp.step_model(4)).terms == full_hamiltonian(m).terms


def test_interpolation_midpoint_matrix():
    m = pairing_model("h1")
    ramp = Ramp(m, 4, 2)
    h0 = realize(onsite_hamiltonian(m))
    h1 = realize(full_hamiltonian(m))
    got = realize(full_hamiltonian(ramp.step_model(1)))
    assert np.allclose(got, 0.75 * h0 + 0.25 * h1, rtol=1e-15, atol=1e-9)
    assert np.array_equal(ramp.hamiltonian(1), got)
    for s in (5, -1):
        with pytest.raises(ValueError, match="step index out of range"):
            ramp.step_model(s)
    with pytest.raises(ValueError, match="schedule.steps"):
        Ramp(m, 0, 2)


def test_nmr_zz_coefficients():
    j = np.array([[0.0, 8.0], [8.0, 0.0]])
    h = nmr_zz_hamiltonian(j)
    assert h.terms == (PauliTerm(4.0 * PI, ((1, "Z"), (2, "Z"))),)
    assert np.allclose(realize(h), 4.0 * PI * np.kron(Z, Z))
    with pytest.raises(ValueError):
        nmr_zz_hamiltonian(np.array([[1.0, 8.0], [8.0, 0.0]]))


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
    h = realize(full_hamiltonian(pairing_model("h1")))
    assert np.allclose(h @ nop - nop @ h, 0.0, atol=1e-9)
