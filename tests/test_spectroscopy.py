import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pairgap.pipeline as pipeline
import pairgap.spectroscopy as spectroscopy
from conftest import capped_lm_fit, column_stack_fit, loop_acquire
from pairgap.config import build_config
from pairgap.pipeline import RunResult, result_record, run_experiment, series_to_csv, spectrum_to_csv
from pairgap.spectroscopy import (
    Spectrum,
    TimeSeries,
    acquire,
    dft,
    epsilon_ft,
    fit_damped_sinusoid,
    peak_pick,
    systematic_offset,
)

TWO_PI = 2 * math.pi


def cosine_series(freq_hz, t0, q, amp=0.8, decay=0.0, phase=0.0):
    t = np.arange(q) * t0
    y = amp * np.exp(-decay * t) * np.cos(TWO_PI * freq_hz * t + phase)
    return TimeSeries(t0, y, t0)


def x_rotation(omega, t0):
    # H = (omega/2) X on one spin, so <Z(k t0)> = cos(omega k t0) from |0>
    half = omega * t0 / 2
    return np.array(
        [[math.cos(half), -1j * math.sin(half)], [-1j * math.sin(half), math.cos(half)]]
    )


def test_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(0.0, np.zeros(4), 1e-3)
    with pytest.raises(ValueError):
        TimeSeries(1e-3, np.zeros(1), 1e-3)
    with pytest.raises(ValueError):
        TimeSeries(1e-3, np.array([0.0, 1.2]), 1e-3)
    s = TimeSeries(1e-3, np.zeros(4), 2e-3)
    assert s.q == 4 and s.wall_per_step == 2e-3
    assert not s.values.flags.writeable
    assert np.allclose(s.times, [0.0, 1e-3, 2e-3, 3e-3])


def test_acquire_single_spin_cosine():
    omega = TWO_PI * 40.0
    t0, q = 1e-3, 32
    psi = np.array([1.0, 0.0], dtype=complex)
    series = acquire(psi, x_rotation(omega, t0), t0, q, t0, observed_spin=1)
    assert np.allclose(series.values, np.cos(omega * np.arange(q) * t0), atol=1e-12)
    assert series.wall_per_step == t0


def test_acquire_damping_uses_wall_clock():
    omega = TWO_PI * 40.0
    t0, q, wall, t2 = 1e-3, 16, 3e-3, 20e-3
    psi = np.array([1.0, 0.0], dtype=complex)
    series = acquire(psi, x_rotation(omega, t0), wall, q, t0, 1, t2=t2)
    k = np.arange(q)
    expected = np.cos(omega * k * t0) * np.exp(-k * wall / t2)
    expected[0] = 1.0  # the k = 0 sample is taken before any evolution
    assert np.allclose(series.values, expected, atol=1e-12)
    assert series.wall_per_step == wall


def test_acquire_observed_spin_selects_bit():
    # two spins, flip only spin 2: spin 1 stays at +1, spin 2 oscillates
    omega = TWO_PI * 25.0
    t0, q = 1e-3, 8
    half = omega * t0 / 2
    u1 = np.array([[math.cos(half), -1j * math.sin(half)], [-1j * math.sin(half), math.cos(half)]])
    u = np.kron(np.eye(2), u1)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    s1 = acquire(psi, u, t0, q, t0, observed_spin=1)
    s2 = acquire(psi, u, t0, q, t0, observed_spin=2)
    assert np.allclose(s1.values, 1.0, atol=1e-12)
    assert np.allclose(s2.values, np.cos(omega * np.arange(q) * t0), atol=1e-12)


def test_acquire_names_mismatched_shapes():
    # q this large would fail to allocate: the shapes are checked first
    with pytest.raises(ValueError, match=r"prepared state has shape \(3,\)"):
        acquire(np.ones(3), np.eye(3), 1e-3, 10**12, 1e-3, 1)
    with pytest.raises(ValueError, match=r"prepared state has shape \(2, 2\)"):
        acquire(np.ones((2, 2)), np.eye(4), 1e-3, 8, 1e-3, 1)
    with pytest.raises(ValueError, match=r"step unitary has shape \(2, 2\); need \(4, 4\)"):
        acquire(np.ones(4) / 2, np.eye(2), 1e-3, 10**12, 1e-3, 1)
    with pytest.raises(ValueError, match=r"step unitary has shape \(4,\)"):
        acquire(np.ones(4) / 2, np.ones(4), 1e-3, 8, 1e-3, 1)


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    qm, r = np.linalg.qr(z)
    return qm * (np.diag(r) / np.abs(np.diag(r)))


def within_doubling_rounding(values: np.ndarray, reference: np.ndarray) -> bool:
    """|d<Z>_k| <= 8 (k + 1) 2^-52: sample k of the doubled acquisition went
    through the binary powers of the step, whose rounding grows linearly in
    k (measured worst 0.5 (k + 1) 2^-52 for n <= 5, Q up to 4096)."""
    bound = 8 * (np.arange(len(reference)) + 1) * 2.0**-52
    return bool(np.all(np.abs(values - reference) <= bound))


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 5),
    st.integers(2, 80) | st.sampled_from([200, 801, 4096]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.data(),
)
def test_acquire_matches_the_loop_on_random_unitaries(n, q, seed, damped, data):
    rng = np.random.default_rng(seed)
    dim = 2**n
    u = random_unitary(dim, rng)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    spin = data.draw(st.integers(1, n))
    wall, t2 = 1.7e-3, (0.05 if damped else None)
    series = acquire(psi, u, wall, q, 1e-3, spin, t2)
    reference = loop_acquire(psi, u, wall, q, 1e-3, spin, t2)
    assert within_doubling_rounding(series.values, reference.values)
    assert series.wall_per_step == reference.wall_per_step


@pytest.mark.parametrize("n", range(1, 7))
def test_acquire_squares_the_step_only_while_more_than_2n_rows_are_left(monkeypatch, n):
    dim = 2**n
    rng = np.random.default_rng(n)
    u = random_unitary(dim, rng)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    shapes = []
    matmul = np.matmul

    def counting(a, b, *args, **kwargs):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    # Q - 1 <= 2^n: no square, each row u times the row before, as the loop
    for q in sorted({2, dim // 2 + 1, dim + 1}):
        series = acquire(psi, u, 1e-3, q, 1e-3, 1)
        assert ((dim, dim), (dim, dim)) not in shapes
        assert np.array_equal(series.values, loop_acquire(psi, u, 1e-3, q, 1e-3, 1).values)
    # more rows left than 2^n after the first step: the power is squared
    shapes.clear()
    acquire(psi, u, 1e-3, dim + 3, 1e-3, 1)
    assert ((dim, dim), (dim, dim)) in shapes


@pytest.mark.parametrize("damping", ["on", "off"])
@pytest.mark.parametrize("mode", ["delta", "finite"])
@pytest.mark.parametrize("method", ["ideal", "w1", "w2"])
@pytest.mark.parametrize("preset", ["h1", "h2"])
def test_pipeline_acquire_and_fit_match_the_references(monkeypatch, preset, method, mode, damping):
    # The pipeline's own inputs: its prepared state and step, its series.
    seen = []

    def recording(real, reference):
        def call(*args):
            result = real(*args)
            seen.append((result, reference(*args), args))
            return result
        return call

    monkeypatch.setattr(pipeline, "acquire", recording(acquire, loop_acquire))
    reference_fit = lambda spectrum, seed: column_stack_fit(spectrum.series, seed)  # noqa: E731
    monkeypatch.setattr(pipeline, "fit_damped_sinusoid", recording(fit_damped_sinusoid, reference_fit))
    overrides = (f"run.method={method}", f"run.pulse_mode={mode}", f"run.damping={damping}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the default ramps are quasiadiabatic
        pipeline.run_experiment(build_config(preset, None, overrides))
    (series, loop_series, _), (fit, reference_fit, (spectrum, seed)) = seen
    assert within_doubling_rounding(series.values, loop_series.values)
    assert series.wall_per_step == loop_series.wall_per_step
    assert spectrum.series is series  # the fit reads the series the pipeline transformed
    assert fit == reference_fit
    # The fit of the stepped-one-at-a-time series ends the same way, on the
    # same line to far below a Fourier bin.
    loop_fit = column_stack_fit(loop_series, seed)
    assert loop_fit.converged == fit.converged
    assert abs(loop_fit.delta_exp - fit.delta_exp) <= 1e-8 * epsilon_ft(series.q, series.t0)
    if preset == "h1" and method == "ideal" and damping == "off":
        assert fit.tau_e == 1e12  # ends on the rate bound


def test_dft_bin_layout_even():
    q, t0 = 8, 1e-3
    spec = dft(TimeSeries(t0, np.ones(q) * 0.5, t0))
    unit = TWO_PI / (q * t0)
    assert np.allclose(spec.omega / unit, [0, 1, 2, 3, 4], atol=1e-12)
    assert len(spec.amp) == len(spec.omega)


def test_dft_bin_layout_odd():
    q, t0 = 7, 2e-3
    spec = dft(TimeSeries(t0, np.ones(q) * 0.5, t0))
    unit = TWO_PI / (q * t0)
    assert np.allclose(spec.omega / unit, [0, 1, 2, 3], atol=1e-12)
    assert len(spec.amp) == len(spec.omega)


def test_dft_conjugate_symmetry_and_parseval():
    rng = np.random.default_rng(5)
    t0 = 1e-3
    for q in (64, 63):
        y = rng.uniform(-1, 1, size=q)
        spec = dft(TimeSeries(t0, y, t0))
        full = np.fft.fft(y)
        # the kept bins are numpy's FFT bins j = 0..Q//2, bit for bit, and
        # each dropped bin -j is the conjugate of bin j
        assert spec.amp.tobytes() == full[: q // 2 + 1].tobytes()
        assert spec.amp.base is None  # not a view that keeps the dropped half alive
        mirrored = (q - 1) // 2
        assert np.allclose(full[: -mirrored - 1 : -1], spec.amp[1 : mirrored + 1].conj(), rtol=0, atol=1e-12)
        # Parseval, one-sided: bins 1..(Q-1)//2 stand for their mirrors too
        weight = np.full(q // 2 + 1, 2.0)
        weight[0] = 1.0
        if q % 2 == 0:
            weight[-1] = 1.0  # the Nyquist bin has no mirror
        assert math.isclose(np.sum(y**2), np.sum(weight * np.abs(spec.amp) ** 2) / q, rel_tol=1e-12)


def test_dft_on_bin_cosine():
    # a cosine on bin j splits into two lines of magnitude Q/2 * amplitude
    q, t0 = 40, 1e-3
    series = cosine_series(freq_hz=5 * 1 / (q * t0), t0=t0, q=q, amp=0.6)
    spec = dft(series)
    peak_w, peak_mag = peak_pick(spec)
    assert math.isclose(peak_w, TWO_PI * 125.0, rel_tol=1e-12)
    assert math.isclose(peak_mag, 0.6 * q / 2, rel_tol=1e-9)


def test_peak_pick_tie_resolves_low():
    # bins 1 and 2 with bit-identical magnitudes
    spec = Spectrum(TimeSeries(1e-3, np.zeros(5), 1e-3), np.array([1.0, -5.0j, 3.0 + 4.0j]))
    w, mag = peak_pick(spec)
    assert w == spec.omega[1] == TWO_PI / 5e-3 and mag == 5.0


def test_peak_pick_dc_handling():
    q, t0 = 32, 1e-3
    t = np.arange(q) * t0
    y = 0.7 + 0.2 * np.cos(TWO_PI * 4 / (q * t0) * t)
    spec = dft(TimeSeries(t0, y, t0))
    assert spec.omega[np.argmax(np.abs(spec.amp))] == 0.0  # DC dominates
    w, _ = peak_pick(spec)
    assert w == TWO_PI * 4 / (q * t0)
    with pytest.raises(ValueError, match="no peak"):
        peak_pick(dft(TimeSeries(t0, np.zeros(q), t0)))


def test_epsilon_ft_reference_values():
    assert epsilon_ft(400, 1e-3) == 2.5 * TWO_PI
    assert epsilon_ft(200, 2e-3) == 2.5 * TWO_PI
    assert epsilon_ft(200, 0.5e-3) == 10 * TWO_PI
    with pytest.raises(ValueError):
        epsilon_ft(0, 1e-3)
    with pytest.raises(ValueError):
        epsilon_ft(100, 0.0)


def test_systematic_offset_signed():
    assert systematic_offset(10.0, 12.5) == -2.5
    assert systematic_offset(12.5, 10.0) == 2.5
    with pytest.raises(ValueError):
        systematic_offset(-1.0, 1.0)


def test_fit_recovers_damped_generator():
    series = cosine_series(100.0, 1e-3, 400, amp=0.8, decay=5.0, phase=0.3)
    fit = fit_damped_sinusoid(dft(series), TWO_PI * 100)
    assert abs(fit.amplitude - 0.8) < 1e-6 * 0.8
    assert abs(fit.tau_e - 0.2) < 1e-6 * 0.2
    assert abs(fit.delta_exp - TWO_PI * 100) < 1e-6 * TWO_PI * 100
    assert abs(fit.phase - 0.3) < 1e-6
    assert fit.converged
    assert fit.residual_norm < 1e-9


def test_fit_zero_decay_regime():
    q, t0 = 400, 1e-3
    series = cosine_series(100.0, t0, q, amp=0.8, decay=0.0, phase=0.3)
    fit = fit_damped_sinusoid(dft(series), TWO_PI * 100)
    assert abs(fit.delta_exp - TWO_PI * 100) < 1e-6 * TWO_PI * 100
    assert fit.tau_e >= 10 * q * t0


def test_fit_canonical_parameters():
    # generator with negative amplitude and frequency folds into A, delta >= 0
    q, t0 = 256, 1e-3
    t = np.arange(q) * t0
    y = -0.5 * np.exp(-3.0 * t) * np.cos(TWO_PI * 60 * t - 0.4)
    fit = fit_damped_sinusoid(dft(TimeSeries(t0, y, t0)), TWO_PI * 60)
    assert fit.amplitude > 0
    assert fit.delta_exp > 0
    assert -math.pi < fit.phase <= math.pi
    model = fit.amplitude * np.exp(-t / fit.tau_e) * np.cos(fit.delta_exp * t + fit.phase)
    assert np.allclose(model, y, atol=1e-6)


def test_fit_input_guards():
    with pytest.raises(ValueError):
        fit_damped_sinusoid(dft(TimeSeries(1e-3, np.zeros(4), 1e-3)), 1.0)
    flat = TimeSeries(1e-3, np.full(16, 0.25), 1e-3)
    with pytest.raises(ValueError, match="flat"):
        fit_damped_sinusoid(dft(flat), 1.0)


def test_fit_refuses_a_series_flat_to_rounding():
    # a spread up to 64 q 2^-52 is rounding, not a tone; a tone a few times
    # above it is fitted
    q, t0 = 200, 1e-3
    ripple = np.cos(TWO_PI * 50.0 * np.arange(q) * t0)
    bound = 64 * q * 2.0**-52
    for spread in (1e-16, bound / 4, bound):
        y = -1 + spread / np.ptp(ripple) * (ripple - ripple.min())
        with pytest.raises(ValueError, match="flat"):
            fit_damped_sinusoid(dft(TimeSeries(t0, y, t0)), TWO_PI * 50.0)
    fit = fit_damped_sinusoid(dft(TimeSeries(t0, 4 * bound * ripple, t0)), TWO_PI * 50.0)
    assert fit.delta_exp == pytest.approx(TWO_PI * 50.0, rel=1e-9)


@pytest.mark.filterwarnings("ignore::pairgap.adiabatic.AdiabaticityWarning")
def test_run_and_sweep_on_a_spectator_spin_raise_flat():
    # h2's spin 3 has no coupling, so <Z_3> stays at -1 up to rounding (a
    # spread of 0.3 q 2^-52); the fit used to converge on it at 3e14 Hz
    cfg = build_config("h2", overrides=("run.observed_spin=3",))
    with pytest.raises(ValueError, match="flat"):
        run_experiment(cfg)
    result = pipeline.sweep_t0(cfg, [0.25e-3, 0.5e-3])
    assert all(isinstance(r, ValueError) and "flat series" in str(r) for _, _, _, r in result.rows)
    assert result.offset_exponent is None


def test_fit_frequency_robust_to_noise():
    q, t0 = 200, 1e-3
    bin_width = TWO_PI / (q * t0)
    eta = 0.01
    worst = 0.0
    t = np.arange(q) * t0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        y = 0.8 * np.exp(-t / 0.15) * np.cos(TWO_PI * 87.0 * t + 0.2)
        y = np.clip(y + rng.uniform(-eta, eta, size=q), -1, 1)
        fit = fit_damped_sinusoid(dft(TimeSeries(t0, y, t0)), TWO_PI * 87.0)
        worst = max(worst, abs(fit.delta_exp - TWO_PI * 87.0))
    assert worst < 5 * eta * bin_width


# Generators for the fit: one tone sampled at q points of spacing t0, its
# frequency between 0.1 and 0.8 of Nyquist. The fit is seeded from the DFT peak,
# as the pipeline seeds it.


@st.composite
def tone(draw):
    q = draw(st.integers(16, 128))
    t0 = draw(st.floats(0.2e-3, 2e-3))
    omega = draw(st.floats(0.1, 0.8)) * math.pi / t0
    return q, t0, omega, draw(st.floats(0.2, 1.0)), draw(st.floats(-math.pi, math.pi))


def tone_series(q, t0, comps, noise=0.0, noise_seed=0):
    t = np.arange(q) * t0
    y = sum(a * np.exp(-rate * t) * np.cos(omega * t + phi) for a, rate, omega, phi in comps)
    y = y + noise * np.random.default_rng(noise_seed).standard_normal(q)
    return TimeSeries(t0, np.clip(y, -1.0, 1.0), t0)


def peak_fit(fit, series):
    return fit(series, peak_pick(dft(series))[0])


def package_fit(series, seed):
    """The package's fit on the series' spectrum, called as the references are."""
    return fit_damped_sinusoid(dft(series), seed)


def assert_no_worse_than_reference(fit, series):
    """Where the reference runs to its cap, the fit must end at or below its
    residual. Where the reference converges too, both stop within a 1e-10
    relative step of a minimum, so the residuals agree to that order only."""
    reference = peak_fit(capped_lm_fit, series)
    slack = 1e-9 if reference.converged else 1e-12
    assert fit.residual_norm <= reference.residual_norm * (1 + slack)


def assert_kkt_on_rate_bound(fit, series):
    """A fit that ends with its rate on 0 is a constrained minimum: the cost
    gradient pushes the rate out of rate >= 0 and vanishes in (A, Delta, phi)."""
    if fit.tau_e != 1e12:
        return
    beta = np.array([fit.amplitude, 0.0, fit.delta_exp, fit.phase])
    f, jac = spectroscopy._model_and_jacobian(beta, series.times, -series.times)
    g = jac.T @ (f - series.values)
    scale = np.linalg.norm(jac, axis=0) * np.linalg.norm(series.values)
    assert g[1] >= -1e-12 * scale[1]
    assert np.all(np.abs(g[[0, 2, 3]]) <= 1e-6 * scale[[0, 2, 3]])


@settings(deadline=None, max_examples=60)
@given(tone(), st.floats(2.0, 20.0))
def test_fit_off_the_rate_bound_matches_reference_exactly(case, decay_per_window):
    q, t0, omega, a, phi = case
    series = tone_series(q, t0, [(a, decay_per_window / (q * t0), omega, phi)])
    assert peak_fit(package_fit, series) == peak_fit(capped_lm_fit, series)


@settings(deadline=None, max_examples=80)
@given(tone(), st.sampled_from([0.0, 0.5, 5.0, 20.0]), st.sampled_from([0.0, 1e-3, 0.05]), st.integers(0, 2**32 - 1))
def test_fit_matches_the_column_stack_reference(case, decay_per_window, noise, noise_seed):
    q, t0, omega, a, phi = case
    series = tone_series(q, t0, [(a, decay_per_window / (q * t0), omega, phi)], noise, noise_seed)
    assert peak_fit(package_fit, series) == peak_fit(column_stack_fit, series)


@settings(deadline=None, max_examples=40)
@given(tone(), st.floats(1e-3, 0.05), st.integers(0, 2**32 - 1))
def test_fit_of_noisy_undamped_tone_converges_no_worse(case, noise, noise_seed):
    q, t0, omega, a, phi = case
    series = tone_series(q, t0, [(a, 0.0, omega, phi)], noise, noise_seed)
    fit = peak_fit(package_fit, series)
    assert fit.converged
    assert_no_worse_than_reference(fit, series)
    assert_kkt_on_rate_bound(fit, series)


@settings(deadline=None, max_examples=40)
@given(tone(), st.floats(3.0, 20.0), st.sampled_from([-1, 1]), st.floats(0.05, 0.4), st.floats(-math.pi, math.pi))
def test_fit_of_two_undamped_tones_converges_no_worse(case, bins_apart, side, ratio, phi2):
    q, t0, omega, a, phi = case
    bin_width = TWO_PI / (q * t0)
    omega2 = omega + side * bins_apart * bin_width
    # outside (0, Nyquist) the second tone aliases, possibly onto the first
    assume(bin_width < omega2 < math.pi / t0 - bin_width)
    series = tone_series(q, t0, [(a, 0.0, omega, phi), (ratio * a, 0.0, omega2, phi2)])
    fit = peak_fit(package_fit, series)
    assert fit.converged
    assert_no_worse_than_reference(fit, series)
    assert_kkt_on_rate_bound(fit, series)


@settings(deadline=None, max_examples=40)
@given(tone())
def test_fit_of_clean_undamped_tone_recovers_it(case):
    # Zero residual: the last steps are rounding, which may stall the
    # relative-step stop (see the xfail below) or stop it with a residual far
    # above the reference's, so the check is recovery of the tone.
    q, t0, omega, a, phi = case
    series = tone_series(q, t0, [(a, 0.0, omega, phi)])
    fit = peak_fit(package_fit, series)
    assert fit.delta_exp == pytest.approx(omega, rel=1e-9)
    assert fit.amplitude == pytest.approx(a, rel=1e-8)
    assert math.remainder(fit.phase - phi, TWO_PI) == pytest.approx(0.0, abs=1e-7)
    assert fit.residual_norm <= 1e-8 * np.linalg.norm(series.values)
    assert_kkt_on_rate_bound(fit, series)


@pytest.mark.xfail(strict=True, reason="rounding steps stall the relative-step stop at zero residual")
def test_fit_of_clean_tone_with_phase_near_zero_converges():
    # The fit reaches the tone exactly, but rounding still moves the phase of
    # 1e-9 by more than 1e-10 of itself on every step, so it runs to its cap.
    series = tone_series(110, 2e-4, [(1.0, 0.0, 0.1 * math.pi / 2e-4, 1e-9)])
    assert peak_fit(package_fit, series).converged


def test_default_h1_fit_stops_on_the_rate_bound(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the default ramp is quasiadiabatic
        series = run_experiment(build_config("h1", None, ())).spectrum.series
    calls = []
    model = spectroscopy._model_and_jacobian
    monkeypatch.setattr(spectroscopy, "_model_and_jacobian", lambda *args: calls.append(1) or model(*args))
    fit = peak_fit(package_fit, series)
    assert fit.converged and fit.tau_e == 1e12
    assert len(calls) <= 60  # 532 when the fit ran to its iteration cap


def test_a_run_takes_one_fft(monkeypatch):
    # the fit seeds from the spectrum's bins instead of transforming again
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kwargs: calls.append(1) or fft(*args, **kwargs))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the default ramp is quasiadiabatic
        result = run_experiment(build_config("h1", None, ("run.damping=on",)))
    assert len(calls) == 1


def test_program_stepper_wall_clock():
    from pairgap.backend import step
    from pairgap.nmr import EventTable, compile_trotter_step, wall_time
    from pairgap.presets import pairing_model, spin_system
    from pairgap.trotter import TrotterPlan

    machine = spin_system()
    model, plan = pairing_model("h2"), TrotterPlan(0.5e-3, 2)
    prog = compile_trotter_step(model, plan, "w1", machine)
    u, wall, clamps = step(model, plan, "w1", EventTable(machine, "delta"))
    assert math.isclose(wall, wall_time(prog, machine.t_pi), rel_tol=1e-15)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
    assert clamps == ()
    # an ideal step lasts its simulated time
    assert step(model, plan)[1] == plan.t0


def test_csv_layouts():
    series = TimeSeries(1e-3, np.array([0.5, -0.5]), 2e-3)
    text = series_to_csv(series)
    lines = text.strip().split("\n")
    assert lines[0] == "k,t_s,value,wall_s"
    assert lines[1] == "0,0.0,0.5,0.0"
    assert lines[2] == "1,0.001,-0.5,0.002"

    spec = dft(series)
    stext = spectrum_to_csv(spec)
    assert stext.startswith("omega_rad_s,re,im,abs\n")
    assert len(stext.strip().split("\n")) == 3

    # every cell is the repr of the per-element float, |a| included, to the last bit
    rng = np.random.default_rng(3)
    series = TimeSeries(1e-3, rng.uniform(-1, 1, 4096), rng.uniform(0, 1))
    spec = dft(series)
    rows = [f"{k},{float(k * series.t0)!r},{float(v)!r},{float(k * series.wall_per_step)!r}"
            for k, v in enumerate(series.values)]
    assert series_to_csv(series) == "\n".join(["k,t_s,value,wall_s", *rows]) + "\n"
    assert spectrum_to_csv(spec) == "\n".join(["omega_rad_s,re,im,abs", *two_sided_rows(spec)]) + "\n"


def two_sided_rows(spec):
    """spectrum.csv's rows from per-element floats: bins -j = (-omega_j,
    conj X[j]) for j = (Q-1)//2..1, then bins j = 0..Q//2."""
    omega, amp = spec.omega, spec.amp
    bins = [(-omega[j], amp[j].conjugate()) for j in range((spec.series.q - 1) // 2, 0, -1)]
    bins += list(zip(omega, amp))
    return [f"{float(w)!r},{float(a.real)!r},{float(a.imag)!r},{float(abs(a))!r}" for w, a in bins]


@pytest.mark.parametrize("q", [8, 9, 200, 201])
def test_csv_layouts_of_an_ideal_shaped_series(q):
    # wall = t0, as in every ideal run, so wall_s reuses t_s; odd and even Q
    # exercise the Nyquist bin and the mirrored half of the spectrum
    rng = np.random.default_rng(q)
    t0 = 0.7e-3
    series = TimeSeries(t0, rng.uniform(-1, 1, q), t0)
    rows = [f"{k},{float(k * t0)!r},{float(v)!r},{float(k * t0)!r}" for k, v in enumerate(series.values)]
    assert series_to_csv(series) == "\n".join(["k,t_s,value,wall_s", *rows]) + "\n"
    spec = dft(series)
    assert len(spec.omega) == q // 2 + 1 and spec.omega[0] == 0.0 and spec.omega[-1] == TWO_PI * (q // 2) / (q * t0)
    text = spectrum_to_csv(spec)
    assert text == "\n".join(["omega_rad_s,re,im,abs", *two_sided_rows(spec)]) + "\n"
    assert len(text.splitlines()) == 1 + q


def test_spectrum_csv_mirrors_signed_zeros_and_nan():
    # Q = 3: bins 0 and 1 are stored, and bin -1 is written as bin 1's mirror
    series = TimeSeries(1e-3, np.zeros(3), 1e-3)
    w = repr(TWO_PI / 3e-3)
    # a real bin's im of +0.0 mirrors to -0.0, and the text says so
    spec = Spectrum(series, np.array([1.0, 2.0], dtype=complex))
    assert spectrum_to_csv(spec).split("\n")[1:4] == [f"-{w},2.0,-0.0,2.0", "0.0,1.0,0.0,1.0", f"{w},2.0,0.0,2.0"]
    # repr drops a NaN's sign, so a NaN im stays "nan" in its mirror
    spec = Spectrum(series, np.array([1.0, complex(2.0, math.nan)]))
    assert spectrum_to_csv(spec).split("\n")[1:4] == [f"-{w},2.0,nan,nan", "0.0,1.0,0.0,1.0", f"{w},2.0,nan,nan"]


def test_fit_record_keys_and_json():
    # the fit's fields lead the result.json record
    series = cosine_series(100.0, 1e-3, 64, amp=0.5, decay=2.0)
    fit = fit_damped_sinusoid(dft(series), TWO_PI * 100)
    result = RunResult(build_config("h1"), 1.0, 1, fit.delta_exp, 1.0, 0.0, fit, dft(series), [], ())
    rec = result_record(result)
    assert list(rec)[:7] == [
        "delta_exp_rad_s",
        "delta_exp_over_2pi_hz",
        "tau_e_s",
        "amplitude",
        "phase_rad",
        "residual_norm",
        "converged",
    ]
    assert math.isclose(rec["delta_exp_over_2pi_hz"], 100.0, rel_tol=1e-6)
    json.dumps(rec)  # plain types only
