"""Config parsing, precedence and validation."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from pairgap.config import ConfigError, build_config, parse_config_text, with_plan
from pairgap.presets import pairing_model, spin_system

TWO_PI = 2 * math.pi


def test_parse_strips_comments_and_blanks():
    text = """
    # full-line comment
    plan.t0_s = 2e-3   # trailing comment
    run.q=200

    model.preset = h1
    """
    entries = parse_config_text(text)
    assert entries == {"plan.t0_s": "2e-3", "run.q": "200", "model.preset": "h1"}


def test_parse_rejects_bare_words_and_empty_sides():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("not a key value pair")
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_text("plan.t0_s =")
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_text("= 3")


def _models_equal(a, b):
    return (a.nu == b.nu and np.array_equal(a.coupling, b.coupling)
            and a.convention_factor == b.convention_factor)


def test_preset_defaults_h1():
    cfg = build_config(preset="h1")
    assert _models_equal(cfg.model, pairing_model("h1"))
    ref = spin_system()
    assert np.array_equal(cfg.machine.j_hz, ref.j_hz)
    assert cfg.machine.t_pi == ref.t_pi and cfg.machine.t2 == ref.t2
    assert cfg.plan.t0 == 2e-3 and cfg.plan.k == 2
    assert cfg.q == 200
    assert cfg.method == "ideal" and cfg.pulse_mode == "delta"
    assert cfg.observed_spin == 1
    assert cfg.init_bits == "011" and cfg.init_index == 3
    assert cfg.damping is False


def test_preset_via_file_key():
    cfg = build_config(config_text="model.preset = h2\n")
    assert _models_equal(cfg.model, pairing_model("h2"))
    assert cfg.plan.t0 == 0.5e-3 and cfg.plan.k == 2


def test_unknown_preset_named_in_error():
    with pytest.raises(ConfigError, match="model.preset"):
        build_config(preset="h3")


def test_precedence_file_over_preset_override_over_file():
    text = "plan.t0_s = 1e-3\nrun.q = 64\n"
    cfg = build_config(preset="h1", config_text=text)
    assert cfg.plan.t0 == 1e-3 and cfg.q == 64
    cfg = build_config(preset="h1", config_text=text, overrides=("plan.t0_s=4e-3",))
    assert cfg.plan.t0 == 4e-3 and cfg.q == 64  # only the overridden key moves


def test_model_coupling_hz_key_converts_to_rad_s():
    cfg = build_config(preset="h1", overrides=("model.v_1_2_hz=10",))
    want = np.array(pairing_model("h1").coupling)
    # explicit matrix entries replace the whole coupling table
    assert cfg.model.coupling[0][1] == pytest.approx(10 * TWO_PI, rel=1e-15)
    assert cfg.model.coupling[1][0] == cfg.model.coupling[0][1]
    assert cfg.model.coupling[0][2] == 0.0
    assert want[0, 1] != cfg.model.coupling[0][1]


def test_machine_j_stays_in_hz_and_rejects_rad_s():
    cfg = build_config(preset="h1", overrides=("machine.j_1_2_hz=100",))
    assert cfg.machine.j_hz[0][1] == 100.0
    with pytest.raises(ConfigError, match="machine couplings are given in Hz"):
        build_config(preset="h1", overrides=("machine.j_1_2_rad_s=10",))


@pytest.mark.parametrize("keys", [
    ("model.v_1_2_hz", "model.v_2_1_hz"),
    ("model.v_2_1_hz", "model.v_1_2_hz"),
    ("model.v_1_2_hz", "model.v_1_2_rad_s"),
    ("model.v_1_2_rad_s", "model.v_2_1_hz"),
    ("machine.j_1_2_hz", "machine.j_2_1_hz"),
    ("machine.j_2_1_hz", "machine.j_1_2_hz"),
])
def test_two_keys_for_one_coupling_entry_are_a_config_error(keys):
    # the entry order must not pick the value
    first, second = keys
    with pytest.raises(ConfigError, match=re.escape(f"{first}: give {first} or {second}, not both")):
        build_config(preset="h1", overrides=(f"{first}=10", f"{second}=20"))


def test_one_coupling_key_in_either_index_order():
    for key in ("model.v_1_2_hz", "model.v_2_1_hz"):
        coupling = build_config(preset="h1", overrides=(f"{key}=10",)).model.coupling
        assert coupling[0][1] == coupling[1][0] == pytest.approx(10 * TWO_PI, rel=1e-15)
    for key in ("machine.j_1_2_hz", "machine.j_2_1_hz"):
        j = build_config(preset="h1", overrides=(f"{key}=100",)).machine.j_hz
        assert j[0][1] == j[1][0] == 100.0


def test_matrix_indices_validated():
    with pytest.raises(ConfigError, match="model.v_1_1_hz"):
        build_config(preset="h1", overrides=("model.v_1_1_hz=5",))
    with pytest.raises(ConfigError, match="within 1..3"):
        build_config(preset="h1", overrides=("model.v_1_4_hz=5",))


def test_presetless_model_from_nu_list():
    text = "model.nu_hz = 10, 20\nmodel.v_1_2_hz = 5\nrun.init = 00\n"
    cfg = build_config(config_text=text)
    assert cfg.model.n == 2
    assert cfg.model.nu == pytest.approx((10 * TWO_PI, 20 * TWO_PI))
    assert cfg.model.coupling[0][1] == pytest.approx(5 * TWO_PI)
    assert cfg.model.convention_factor == 1.0
    # machine defaults for an ad-hoc model: no couplings, 20us pulses
    assert np.all(np.asarray(cfg.machine.j_hz) == 0.0)
    assert cfg.machine.t_pi == 20e-6
    assert cfg.machine.t2 == (0.25, 0.25)


@pytest.mark.parametrize("preset, overrides, bits", [
    (None, ("model.nu_hz=120,250,330,410", "run.init=0000"), "0000"),
    ("h1", ("run.init=000",), "000"),
    ("h1", ("run.init=111",), "111"),
])
def test_init_in_a_one_state_sector_is_a_config_error_when_read(preset, overrides, bits):
    # the config builds, so compile still works; the pair sector is refused
    cfg = build_config(preset, overrides=overrides)
    assert cfg.init_bits == bits
    with pytest.raises(ConfigError, match=f"^run.init: {bits} lies in a one-state pair sector"):
        cfg.pairs
    assert build_config("h1").pairs == 2
    assert build_config(overrides=("model.nu_hz=1,2,3,4", "run.init=0110")).pairs == 2


@pytest.mark.parametrize("nu, bits", [("120,250,330,410", None), ("120,250,330", "011")])
def test_presetless_init_defaults_only_at_three_modes(nu, bits):
    # the config builds, so compile still works; without a default a run is refused
    cfg = build_config(overrides=(f"model.nu_hz={nu}",))
    assert cfg.init_bits == bits
    if bits is None:
        for read in ("pairs", "init_index"):
            with pytest.raises(ConfigError, match=r"^run.init: required for a model without a preset unless n = 3$"):
                getattr(cfg, read)
    else:
        assert cfg.pairs == 2


def test_presetless_model_nu_rad_s_taken_verbatim():
    cfg = build_config(config_text="model.nu_rad_s = 1.5, 2.5\nrun.init = 10\n")
    assert cfg.model.nu == (1.5, 2.5)


def test_presetless_model_requires_nu():
    with pytest.raises(ConfigError, match="model.nu_hz"):
        build_config(config_text="plan.t0_s = 1e-3\n")


def test_model_n_must_agree_with_nu_length():
    with pytest.raises(ConfigError, match="model.n"):
        build_config(config_text="model.nu_hz = 1, 2, 3\nmodel.n = 4\n")


def test_explicit_nu_replaces_the_presets_and_model_n_is_checked():
    base = build_config("h1").model
    cfg = build_config("h1", overrides=("model.nu_hz=1,2,3",))
    assert cfg.model.nu == pytest.approx((TWO_PI, 2 * TWO_PI, 3 * TWO_PI))
    assert np.array_equal(cfg.model.coupling, base.coupling)
    assert cfg.model.convention_factor == base.convention_factor
    assert build_config("h2", overrides=("model.nu_rad_s=1,2,3",)).model.nu == (1.0, 2.0, 3.0)
    assert build_config("h1", overrides=("model.n=3",)).model.n == 3
    with pytest.raises(ConfigError, match="model.n:"):
        build_config("h1", overrides=("model.n=5",))
    with pytest.raises(ConfigError, match="model.nu_rad_s: preset h1 has 3 modes"):
        build_config("h1", overrides=("model.nu_rad_s=1,2",))


@pytest.mark.parametrize("preset", ["h1", None])
def test_both_nu_keys_are_a_config_error(preset):
    with pytest.raises(ConfigError, match="model.nu_hz or model.nu_rad_s, not both"):
        build_config(preset, overrides=("model.nu_hz=1,2,3", "model.nu_rad_s=1,2,3"))


def test_preset_argument_and_entry_must_agree():
    with pytest.raises(ConfigError, match="preset argument is h1 but model.preset = h2"):
        build_config("h1", overrides=("model.preset=h2",))
    with pytest.raises(ConfigError, match="preset argument is h2 but model.preset = h1"):
        build_config("h2", "model.preset = h1\n")
    agreeing, flag_only = build_config("h1", overrides=("model.preset=h1",)), build_config("h1")
    assert agreeing.model.nu == flag_only.model.nu
    assert np.array_equal(agreeing.model.coupling, flag_only.model.coupling)
    assert (agreeing.plan, agreeing.q) == (flag_only.plan, flag_only.q)


def test_t2_scalar_then_per_spin():
    cfg = build_config(preset="h1", overrides=("machine.t2_s=0.5", "machine.t2_2_s=0.1"))
    assert cfg.machine.t2 == (0.5, 0.1, 0.5)


def test_per_spin_t2_keys_parse_the_index_and_refuse_the_rest():
    # a leading zero names the same spin, as in model.v_01_2_hz
    assert build_config("h1", overrides=("machine.t2_03_s=0.1",)).machine.t2 == (0.25, 0.25, 0.1)
    for key in ("machine.t2_0_s", "machine.t2_4_s", "machine.t2_04_s"):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: spin index must lie within 1\.\.3$"):
            build_config("h1", overrides=(f"{key}=0.01",))
    with pytest.raises(ConfigError, match=r"^machine\.t2_1_s: give machine\.t2_1_s or machine\.t2_01_s, not both$"):
        build_config("h1", overrides=("machine.t2_1_s=0.1", "machine.t2_01_s=0.1"))
    # a preset-less model's range is its own n
    text = "model.nu_hz = 10, 20\nrun.init = 01\nmachine.t2_2_s = 0.1\n"
    assert build_config(None, text).machine.t2 == (0.25, 0.1)
    with pytest.raises(ConfigError, match=r"^machine\.t2_3_s: spin index must lie within 1\.\.2$"):
        build_config(None, text + "machine.t2_3_s = 0.1\n")


def test_negative_noise_seed_is_a_config_error_with_or_without_noise():
    for amplitude in ("0", "0.01"):
        with pytest.raises(ConfigError, match=r"^noise\.seed: must be non-negative$"):
            build_config("h2", overrides=(f"noise.amplitude={amplitude}", "noise.seed=-1"))
    assert build_config("h2", overrides=("noise.amplitude=0.01", "noise.seed=0")).noise_seed == 0


def test_negative_t0_names_the_key():
    with pytest.raises(ConfigError, match="plan.t0"):
        build_config(preset="h1", overrides=("plan.t0_s=-1e-3",))


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="run.qq"):
        build_config(preset="h1", overrides=("run.qq=100",))


def test_bad_enum_values():
    with pytest.raises(ConfigError, match="run.method"):
        build_config(preset="h1", overrides=("run.method=w3",))
    with pytest.raises(ConfigError, match="run.pulse_mode"):
        build_config(preset="h1", overrides=("run.pulse_mode=square",))
    with pytest.raises(ConfigError, match="schedule.evolver"):
        build_config(preset="h1", overrides=("schedule.evolver=magnus",))
    with pytest.raises(ConfigError, match="run.damping"):
        build_config(preset="h1", overrides=("run.damping=maybe",))


def test_flag_spellings():
    for word, want in (("on", True), ("TRUE", True), ("1", True),
                       ("off", False), ("no", False)):
        cfg = build_config(preset="h1", overrides=(f"run.damping={word}",))
        assert cfg.damping is want


def test_run_section_validation():
    with pytest.raises(ConfigError, match="run.observed_spin"):
        build_config(preset="h1", overrides=("run.observed_spin=4",))
    with pytest.raises(ConfigError, match="run.init"):
        build_config(preset="h1", overrides=("run.init=01",))
    with pytest.raises(ConfigError, match="run.q"):
        build_config(preset="h1", overrides=("run.q=1",))
    with pytest.raises(ConfigError, match="run.population_floor"):
        build_config(preset="h1", overrides=("run.population_floor=1.5",))
    with pytest.raises(ConfigError, match="not a number"):
        build_config(preset="h1", overrides=("plan.t0_s=fast",))
    with pytest.raises(ConfigError, match="not an integer"):
        build_config(preset="h1", overrides=("plan.k=2.5",))


def test_init_index_parses_binary():
    cfg = build_config(preset="h1", overrides=("run.init=101",))
    assert cfg.init_index == 5


def test_with_plan_replaces_only_the_plan():
    cfg = build_config(preset="h1")
    alt = with_plan(cfg, 1e-3)
    assert alt.plan.t0 == 1e-3 and alt.plan.k == cfg.plan.k and alt.q == cfg.q
    alt = with_plan(cfg, 1e-3, q=512)
    assert (alt.plan.t0, alt.plan.k, alt.q) == (1e-3, cfg.plan.k, 512)
    assert alt.model is cfg.model and alt.machine is cfg.machine
    with pytest.raises(ValueError):
        with_plan(cfg, -1e-3)


@pytest.mark.parametrize("factor", ["0", "-0.0", "-1", "nan"])
@pytest.mark.parametrize("preset", ["h1", None])
def test_invalid_convention_factor_is_a_config_error(preset, factor):
    text = None if preset else "model.nu_hz = 10, 20\nrun.init = 01\n"
    with pytest.raises(ConfigError, match="model.convention_factor"):
        build_config(preset, text, (f"model.convention_factor={factor}",))
    if preset:
        with pytest.raises(ValueError, match="model.convention_factor"):
            replace(pairing_model(preset), convention_factor=float(factor))
