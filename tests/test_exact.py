import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import full_hamiltonian, kron_realize, same_bits
from pairgap.config import ExperimentConfig
from pairgap.exact import (
    Ramp,
    _require_hermitian,
    computational_state,
    eigendecompose,
    propagator,
    reachable_gap,
    sector_gap,
    sector_matrix,
)
from pairgap.hamiltonian import PairingModel, _sector_blocks, sector_basis
from pairgap.presets import pairing_model

# the run's default population floor
FLOOR = ExperimentConfig.population_floor

PI = math.pi
TWO_PI = 2 * PI

# Two-pair block of the first preset in units of pi, written out by hand from
# the model parameters nu = (150, 100, 50)*pi and V = (224, 50, -311)*pi.
H1_BLOCK_OVER_PI = np.array(
    [
        [0.0, 224.0, 50.0],
        [224.0, 50.0, -311.0],
        [50.0, -311.0, 100.0],
    ]
)


def test_eigendecompose_orthonormal():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = a + a.conj().T
    es = eigendecompose(h)
    assert np.all(np.diff(es.values) >= 0)
    assert np.allclose(es.vectors.conj().T @ es.vectors, np.eye(6), atol=1e-12)
    assert np.allclose(es.vectors @ np.diag(es.values) @ es.vectors.conj().T, h, atol=1e-12)


def test_hermiticity_guard():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        eigendecompose(bad)
    with pytest.raises(ValueError):
        propagator(bad, 0.1)


def test_propagator_against_expm():
    rng = np.random.default_rng(23)
    for _ in range(5):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = a + a.conj().T
        t = rng.uniform(0.05, 2.0)
        u = propagator(h, t)
        assert np.allclose(u, expm(-1j * h * t), atol=1e-12)
        assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


def test_propagator_zero_time_is_identity():
    h = np.diag([1.0, -2.0, 3.0])
    assert np.allclose(propagator(h, 0.0), np.eye(3), atol=0)


def test_evolve_preserves_norm():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    a = rng.normal(size=(4, 4))
    u = propagator(a + a.T, 0.7)
    out = u @ psi
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_computational_state_indexing():
    psi = computational_state(3, 3)
    assert psi[3] == 1.0 and np.count_nonzero(psi) == 1
    with pytest.raises(ValueError):
        computational_state(3, 8)


def test_sector_matrix_h1_block():
    sub, idx = sector_matrix(pairing_model("h1"), 2)
    assert idx.tolist() == [3, 5, 6]
    assert np.allclose(sub, PI * H1_BLOCK_OVER_PI, rtol=1e-15, atol=1e-9)
    # independent route: restrict the dense 8x8 matrix built from scratch
    h = kron_realize(full_hamiltonian(pairing_model("h1")))
    assert np.allclose(sub, h[np.ix_(idx, idx)], atol=0)


@st.composite
def ramp_models(draw):
    """Models of 1..8 modes with signed, zero and negative-zero frequencies
    and couplings, any convention factor, and a ramp length."""
    n = draw(st.integers(1, 8))
    value = st.floats(-1e4, 1e4, allow_nan=False) | st.sampled_from([0.0, -0.0])
    nu = draw(st.lists(value, min_size=n, max_size=n))
    v = np.zeros((n, n))
    for m in range(n):
        for l in range(m + 1, n):
            v[m, l] = v[l, m] = draw(value)
    factor = draw(st.sampled_from([1.0, 2.0, 0.5]) | st.floats(1e-3, 1e3))
    return PairingModel(tuple(nu), v, factor), draw(st.integers(1, 4))


@settings(deadline=None, max_examples=60)
@given(ramp_models())
def test_hop_list_block_equals_the_dense_slice_bit_for_bit(drawn):
    # the oracle is the Pauli sum's np.kron realization, built once per step
    # model and sliced for every sector; the blocks are the ramp's, stacked
    # at its scales s/S
    model, steps = drawn
    ramps = [Ramp(model, steps, pairs) for pairs in range(model.n + 1)]
    blocks = [_sector_blocks(model, ramp.pairs, [s / steps for s in range(steps + 1)]) for ramp in ramps]
    for s in range(steps + 1):
        dense = kron_realize(full_hamiltonian(ramps[0].step_model(s)))
        for ramp, stack in zip(ramps, blocks):
            assert same_bits(stack[s], dense[np.ix_(ramp.idx, ramp.idx)]), (ramp.pairs, s)
    dense = kron_realize(full_hamiltonian(model))
    for pairs in range(model.n + 1):
        sub, idx = sector_matrix(model, pairs)
        assert same_bits(sub, dense[np.ix_(idx, idx)])
        assert idx.tolist() == sector_basis(model.n, pairs).tolist()


def test_ramp_keeps_one_eigensystem_per_step(monkeypatch):
    # one stacked eigh of the S + 1 blocks, when the ramp is built
    solved = []
    eigh = np.linalg.eigh

    def counting(a):
        solved.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    ramp = Ramp(pairing_model("h1"), 4, 2)
    assert solved == [(5, 3, 3)]
    blocks = _sector_blocks(pairing_model("h1"), 2, [s / 4 for s in range(5)])
    for s in range(5):
        assert np.array_equal(ramp.values[s], eigendecompose(blocks[s]).values)
    assert np.array_equal(ramp.final_eigensystem().vectors, ramp.vectors[4])
    # the ramp keeps the eigensystems, not the blocks they came from
    assert set(vars(ramp)) == {"model", "steps", "pairs", "idx", "values", "vectors"}
    for s in (-1, 5):
        with pytest.raises(ValueError, match="step index"):
            ramp.step_model(s)
    with pytest.raises(ValueError, match="schedule.steps"):
        Ramp(pairing_model("h1"), 0, 2)


@st.composite
def ramp_sectors(draw):
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.uniform(-300, 300, (n, n)) * (rng.random((n, n)) < 0.7)
    model = PairingModel(tuple(rng.uniform(-200, 200, n) * PI), (v + v.T) * PI, draw(st.sampled_from([1.0, 2.0])))
    return model, draw(st.integers(1, 6))


@settings(deadline=None, max_examples=40)
@given(ramp_sectors())
def test_stacked_ramp_eigensystems_equal_per_block_eigh_bit_for_bit(drawn):
    model, steps = drawn
    for pairs in range(model.n + 1):
        ramp = Ramp(model, steps, pairs)
        blocks = _sector_blocks(model, pairs, [s / steps for s in range(steps + 1)])
        for s in range(steps + 1):
            values, vectors = np.linalg.eigh(blocks[s])
            assert same_bits(ramp.values[s], values), (pairs, s)
            assert same_bits(ramp.vectors[s], vectors), (pairs, s)


def test_non_hermitian_stack_is_refused():
    blocks = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError, match="Hermitian"):
        _require_hermitian(blocks)
    assert _require_hermitian(blocks[:1]).dtype == complex
    with pytest.raises(ValueError, match="square"):
        _require_hermitian(np.zeros((2, 2, 3)))


def test_h1_block_characteristic_cubic():
    # det(H/pi - x I) = -(x^3 - 150 x^2 - 144397 x + 12109000); cross-check the
    # eigenvalues against the cubic's roots
    roots = np.sort(np.roots([1.0, -150.0, -144397.0, 12109000.0]))
    sub, _ = sector_matrix(pairing_model("h1"), 2)
    vals = np.linalg.eigvalsh(sub) / PI
    assert np.allclose(vals, roots, rtol=1e-12)
    assert np.allclose(
        vals, [-354.19608348054, 80.732512616335, 423.46357086420], rtol=1e-13
    )


def test_sector_gap_h1_frozen():
    gap = sector_gap(pairing_model("h1"), 2)
    assert math.isclose(gap / TWO_PI, 217.46429804970757, rel_tol=1e-13)
    assert 216.5 <= gap / TWO_PI <= 218.5


def test_sector_gap_h2_closed_form():
    # one coupled pair at 224 Hz-equivalents: the connected level sits
    # sqrt(50^2 + 4*224^2)*pi above the ground level (factor 1)
    m1 = replace(pairing_model("h2"), convention_factor=1.0)
    want = math.sqrt(50.0**2 + 4 * 224.0**2) / 2.0
    assert math.isclose(sector_gap(m1, 2, target=2) / TWO_PI, want, rel_tol=1e-12)
    # factor 2 doubles every eigenvalue
    m2 = pairing_model("h2")
    assert math.isclose(sector_gap(m2, 2, target=2), 2 * sector_gap(m1, 2, target=2), rel_tol=1e-12)
    assert math.isclose(sector_gap(m2, 2, target=2) / TWO_PI, 450.78154354409861, rel_tol=1e-13)


def test_sector_gap_target_selection():
    m = pairing_model("h1")
    sub, _ = sector_matrix(m, 2)
    vals = np.linalg.eigvalsh(sub)
    assert math.isclose(sector_gap(m, 2, "first"), vals[1] - vals[0], rel_tol=1e-15)
    assert math.isclose(sector_gap(m, 2, target=2), vals[2] - vals[0], rel_tol=1e-15)
    with pytest.raises(ValueError):
        sector_gap(m, 2, target=0)
    with pytest.raises(ValueError):
        sector_gap(m, 2, target=3)


def test_reachable_gap_skips_empty_levels():
    m = pairing_model("h2")  # level 1 is decoupled from the initial state
    sub, idx = sector_matrix(m, 2)
    es = eigendecompose(sub)
    psi = np.zeros(8, dtype=complex)
    mix = 0.8 * es.vectors[:, 0] + 0.6 * es.vectors[:, 2]
    psi[idx] = mix
    level, gap = reachable_gap(Ramp(m, 1, 2), psi, FLOOR)
    assert level == 2
    assert math.isclose(gap, es.values[2] - es.values[0], rel_tol=1e-12)


def test_reachable_gap_floor():
    m = pairing_model("h1")
    sub, idx = sector_matrix(m, 2)
    es = eigendecompose(sub)
    psi = np.zeros(8, dtype=complex)
    psi[idx] = math.sqrt(0.99) * es.vectors[:, 0] + math.sqrt(0.01) * es.vectors[:, 1]
    with pytest.raises(ValueError, match="reachable"):
        reachable_gap(Ramp(m, 1, 2), psi, FLOOR)  # 1% is below the run's default floor
    level, _ = reachable_gap(Ramp(m, 1, 2), psi, population_floor=0.005)
    assert level == 1
    with pytest.raises(ValueError):
        reachable_gap(Ramp(m, 1, 2), psi, population_floor=1.5)


def test_reachable_gap_groups_degenerate_levels():
    # zero coupling leaves |101> and |110> degenerate (nu_2 + nu_3 split evenly)
    import pairgap.hamiltonian as ham

    v = np.zeros((3, 3))
    m = ham.PairingModel((100.0, 50.0, 50.0), v)
    sub, idx = sector_matrix(m, 2)
    es = eigendecompose(sub)
    psi = np.zeros(8, dtype=complex)
    psi[idx] = math.sqrt(0.5) * es.vectors[:, 0] + math.sqrt(0.5) * es.vectors[:, 1]
    level, gap = reachable_gap(Ramp(m, 1, 2), psi, FLOOR)
    assert level == 1
    assert gap > 0


def test_reachable_gap_norm_check():
    m = pairing_model("h1")
    with pytest.raises(ValueError):
        reachable_gap(Ramp(m, 1, 2), np.ones(8), FLOOR)
