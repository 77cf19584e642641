"""Flat key = value experiment configuration.

One assignment per line, dotted keys, '#' comments. Frequencies carry an
explicit unit suffix: keys ending in _hz are converted to rad/s internally
(machine J values are the exception and stay in Hz, as the machine model
defines them); _rad_s values pass through; _s values are seconds.

Recognized keys:

    model.preset              h1 | h2 (fills every default below; must
                              agree with a preset given as an argument)
    model.n                   mode count; must match the nu list
    model.nu_hz | model.nu_rad_s          comma list of on-site frequencies
                                          (one of the two; replaces a preset's)
    model.v_<i>_<j>_hz | ..._rad_s        coupling entries, one key each:
                                          v_1_2 or v_2_1, _hz or _rad_s
    model.convention_factor   overall coefficient multiplier
    machine.j_<i>_<j>_hz      scalar coupling entries, one key per entry
    machine.t_pi_s            pi-pulse duration
    machine.t2_s              dephasing time for all spins
    machine.t2_<i>_s          per-spin dephasing time, i in 1..n (t2_1 or
                              t2_01, not both); each T2 positive and finite
    schedule.steps            interpolation step count S
    schedule.t_ad_s           per-step preparation time
    schedule.evolver          default | exact | trotter | nmr
    plan.t0_s                 simulated time per sample step
    plan.k                    inner Trotter repetitions
    run.method                ideal | w1 | w2
    run.pulse_mode            delta | finite
    run.q                     sample count, at least 8 (the fit's minimum); q * 2^n <= 4^12 at n <= 12
    run.observed_spin         1-based spin measured
    run.damping               on | off
    run.init                  initial basis state as bits, e.g. 011
    run.population_floor      reachable-level population threshold
    noise.amplitude           uniform measurement noise half-width
                              (finite, >= 0)
    noise.seed                RNG seed for noise (>= 0)
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import presets
from .hamiltonian import _MAX_DENSE_QUBITS, PairingModel
from .nmr import SpinSystem
from .spectroscopy import MIN_FIT_SAMPLES
from .trotter import TrotterPlan

_TWO_PI = 2 * math.pi


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: PairingModel
    machine: SpinSystem
    plan: TrotterPlan
    schedule_steps: int = presets.SCHEDULE_STEPS
    t_ad: float = presets.SCHEDULE_T_AD
    evolver: str = "default"
    method: str = "ideal"
    pulse_mode: str = "delta"
    q: int = 200
    observed_spin: int = presets.OBSERVED_SPIN
    damping: bool = False
    init_bits: str | None = presets.INIT_BITS
    population_floor: float = 0.02
    noise_amplitude: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        if self.method not in ("ideal", "w1", "w2"):
            raise ConfigError("run.method: must be ideal, w1 or w2")
        if self.pulse_mode not in ("delta", "finite"):
            raise ConfigError("run.pulse_mode: must be delta or finite")
        if self.evolver not in ("default", "exact", "trotter", "nmr"):
            raise ConfigError("schedule.evolver: must be default, exact, trotter or nmr")
        if self.schedule_steps < 1:
            raise ConfigError("schedule.steps: must be >= 1")
        if not (self.t_ad >= 0 and math.isfinite(self.t_ad)):
            raise ConfigError("schedule.t_ad_s: must be non-negative and finite")
        if self.q < MIN_FIT_SAMPLES:
            raise ConfigError(f"run.q: need at least {MIN_FIT_SAMPLES} samples, the fit's minimum")
        # acquire's Q states of 2^n fit one 12-qubit operator; a run above 12 qubits fails before any
        n = self.model.n
        if n <= _MAX_DENSE_QUBITS and self.q * 2**n > 4**_MAX_DENSE_QUBITS:
            raise ConfigError(f"run.q: at most {4**_MAX_DENSE_QUBITS // 2**n} samples at n = {n} (q * 2^n <= 4^{_MAX_DENSE_QUBITS})")
        if not 1 <= self.observed_spin <= self.model.n:
            raise ConfigError("run.observed_spin: out of range")
        if self.init_bits is not None and (len(self.init_bits) != self.model.n or set(self.init_bits) - {"0", "1"}):
            raise ConfigError("run.init: need one bit per mode")
        if not 0.0 < self.population_floor < 1.0:
            raise ConfigError("run.population_floor: must lie in (0, 1)")
        # the noise is drawn from [-a, a], whose width 2a must be finite too
        if not (self.noise_amplitude >= 0 and math.isfinite(2 * self.noise_amplitude)):
            raise ConfigError("noise.amplitude: must be finite and non-negative, and 2 * amplitude finite")
        if self.noise_seed < 0:
            raise ConfigError("noise.seed: must be non-negative")
        if self.machine.n != self.model.n:
            raise ConfigError("machine.j_hz: spin count differs from the model")

    @property
    def init_index(self) -> int:
        return int(self._init_bits(), 2)

    @property
    def pairs(self) -> int:
        """The pair sector of run.init, where the ramp works. All 0s or all 1s
        is a one-state sector with no excited level, and None (a model without
        a preset and n != 3 has no default) is no init: each a ConfigError."""
        pairs = self._init_bits().count("1")
        if pairs in (0, self.model.n):
            raise ConfigError(f"run.init: {self.init_bits} lies in a one-state pair sector, with no excited level")
        return pairs

    def _init_bits(self) -> str:
        if self.init_bits is None:
            raise ConfigError("run.init: required for a model without a preset unless n = 3")
        return self.init_bits

    @property
    def compile_method(self) -> str:
        """run.method when it compiles a pulse program, else w1: an ideal
        run's `compile` output and NMR preparation use the w1 sequence."""
        return self.method if self.method in ("w1", "w2") else "w1"

    @property
    def preparation_method(self) -> str | None:
        """Method of the preparation ramp's steps; None evolves it exactly.
        schedule.evolver "default" means exact for an ideal run and the run's
        compiled program otherwise; "trotter" is the ideal step."""
        evolver = self.evolver
        if evolver == "default":
            evolver = "exact" if self.method == "ideal" else "nmr"
        return {"exact": None, "trotter": "ideal", "nmr": self.compile_method}[evolver]


def parse_config_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        entries[key] = value
    return entries


def _float(entries: dict[str, str], key: str) -> float:
    try:
        return float(entries[key])
    except ValueError:
        raise ConfigError(f"{key}: not a number: {entries[key]!r}") from None


def _int(entries: dict[str, str], key: str) -> int:
    try:
        return int(entries[key])
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {entries[key]!r}") from None


def _flag(entries: dict[str, str], key: str) -> bool:
    value = entries[key].lower()
    if value in ("on", "true", "1", "yes"):
        return True
    if value in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected on or off, got {entries[key]!r}")


def _float_list(entries: dict[str, str], key: str) -> list[float]:
    try:
        return [float(x) for x in entries[key].split(",")]
    except ValueError:
        raise ConfigError(f"{key}: not a comma-separated number list") from None


_MATRIX_KEY = re.compile(r"^(model\.v|machine\.j)_(\d+)_(\d+)_(hz|rad_s)$")
_T2_KEY = re.compile(r"^machine\.t2_(\d+)_s$")


def _matrix_entries(entries: dict[str, str], prefix: str, n: int) -> np.ndarray | None:
    """The symmetric table the ``prefix`` keys give, or None without one. Each
    entry takes one key: i_j and j_i, or _hz and _rad_s, for the same pair
    are a ConfigError."""
    keys: dict[tuple[int, int], str] = {}
    m = np.zeros((n, n))
    for key in entries:
        match = _MATRIX_KEY.match(key)
        if not match or match.group(1) != prefix:
            continue
        i, j = int(match.group(2)), int(match.group(3))
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise ConfigError(f"{key}: indices must be distinct and within 1..{n}")
        first = keys.setdefault((min(i, j), max(i, j)), key)
        if first != key:
            raise ConfigError(f"{first}: give {first} or {key}, not both")
        value = _float(entries, key)
        if match.group(4) == "hz" and prefix == "model.v":
            value *= _TWO_PI
        if match.group(4) == "rad_s" and prefix == "machine.j":
            raise ConfigError(f"{key}: machine couplings are given in Hz")
        m[i - 1, j - 1] = m[j - 1, i - 1] = value
    return m if keys else None


def _build_model(entries: dict[str, str], preset_name: str | None) -> PairingModel:
    """The preset's model (or an empty one) with every explicit model entry
    replacing its part: the nu list, the coupling table, the factor."""
    if "model.nu_hz" in entries and "model.nu_rad_s" in entries:
        raise ConfigError("model.nu_hz: give model.nu_hz or model.nu_rad_s, not both")
    base = presets.pairing_model(preset_name) if preset_name is not None else None
    if "model.nu_hz" in entries:
        nu = tuple(x * _TWO_PI for x in _float_list(entries, "model.nu_hz"))
    elif "model.nu_rad_s" in entries:
        nu = tuple(_float_list(entries, "model.nu_rad_s"))
    elif base is not None:
        nu = base.nu
    else:
        raise ConfigError("model.nu_hz: required when no preset is chosen")
    n = len(nu)
    if "model.n" in entries and _int(entries, "model.n") != n:
        raise ConfigError("model.n: disagrees with the nu list length")
    if base is not None and n != base.n:
        key = "model.nu_hz" if "model.nu_hz" in entries else "model.nu_rad_s"
        raise ConfigError(f"{key}: preset {preset_name} has {base.n} modes, got {n} frequencies")
    coupling = np.array(base.coupling) if base is not None else np.zeros((n, n))
    explicit = _matrix_entries(entries, "model.v", n)
    if explicit is not None:
        coupling = explicit
    factor = base.convention_factor if base is not None else 1.0
    if "model.convention_factor" in entries:
        factor = _float(entries, "model.convention_factor")
    return PairingModel(nu, coupling, factor)


def _build_machine(entries: dict[str, str], preset_name: str | None, n: int) -> SpinSystem:
    """The preset's machine (or SpinSystem's defaults with no couplings) with
    every explicit machine entry replacing its part."""
    base = presets.spin_system() if preset_name is not None else SpinSystem(np.zeros((n, n)))
    j = _matrix_entries(entries, "machine.j", n)
    t_pi = _float(entries, "machine.t_pi_s") if "machine.t_pi_s" in entries else base.t_pi
    t2 = [_t2(entries, "machine.t2_s")] * n if "machine.t2_s" in entries else list(base.t2)
    keys: dict[int, str] = {}
    for key in entries:
        if match := _T2_KEY.match(key):
            spin = int(match.group(1))
            if not 1 <= spin <= n:
                raise ConfigError(f"{key}: spin index must lie within 1..{n}")
            if spin in keys:
                raise ConfigError(f"{keys[spin]}: give {keys[spin]} or {key}, not both")
            keys[spin] = key
            t2[spin - 1] = _t2(entries, key)
    return SpinSystem(base.j_hz if j is None else j, t_pi, tuple(t2))


def _t2(entries: dict[str, str], key: str) -> float:
    t2 = _float(entries, key)
    if not (t2 > 0 and math.isfinite(t2)):
        raise ConfigError(f"{key}: must be positive and finite")
    return t2


def _text(entries: dict[str, str], key: str) -> str:
    return entries[key]


# Keys the model, machine and plan builders read.
_BUILDER_KEYS = {
    "model.preset",
    "model.n",
    "model.nu_hz",
    "model.nu_rad_s",
    "model.convention_factor",
    "machine.t_pi_s",
    "machine.t2_s",
    "plan.t0_s",
    "plan.k",
}

# Run keys as (key, ExperimentConfig field, parser), parsed in this order; an
# absent key leaves the field at its dataclass default.
_RUN_KEYS = (
    ("schedule.steps", "schedule_steps", _int),
    ("schedule.t_ad_s", "t_ad", _float),
    ("schedule.evolver", "evolver", _text),
    ("run.method", "method", _text),
    ("run.pulse_mode", "pulse_mode", _text),
    ("run.q", "q", _int),
    ("run.observed_spin", "observed_spin", _int),
    ("run.damping", "damping", _flag),
    ("run.init", "init_bits", _text),
    ("run.population_floor", "population_floor", _float),
    ("noise.amplitude", "noise_amplitude", _float),
    ("noise.seed", "noise_seed", _int),
)
_KNOWN_SCALARS = _BUILDER_KEYS | {key for key, _, _ in _RUN_KEYS}


def check_key(key: str) -> None:
    """Raise ConfigError unless ``key`` is a recognized configuration key."""
    if not (key in _KNOWN_SCALARS or _MATRIX_KEY.match(key) or _T2_KEY.match(key)):
        raise ConfigError(f"{key}: unknown configuration key")


def build_config(
    preset: str | None = None,
    config_text: str | None = None,
    overrides: tuple[str, ...] = (),
) -> ExperimentConfig:
    """Assemble a config from (in increasing precedence) preset defaults, a
    config file body and repeatable 'key=value' override strings. A preset
    argument and a model.preset entry that name different presets are a
    ConfigError, as is a ValueError the model, machine or plan raises."""
    entries: dict[str, str] = {}
    if config_text is not None:
        entries.update(parse_config_text(config_text))
    for item in overrides:
        entries.update(parse_config_text(item))
    entry = entries.get("model.preset")
    if preset and entry is not None and entry != preset:
        raise ConfigError(f"model.preset: the preset argument is {preset} but model.preset = {entry}; give one")
    preset_name = preset or entry
    if preset_name is not None and preset_name not in presets.PRESET_NAMES:
        raise ConfigError(f"model.preset: unknown preset {preset_name!r}")

    for key in entries:
        check_key(key)
    try:
        model = _build_model(entries, preset_name)
        machine = _build_machine(entries, preset_name, model.n)

        defaults = presets.DEFAULTS.get(preset_name or "", {"t0": 1e-3, "k": 1})
        t0 = _float(entries, "plan.t0_s") if "plan.t0_s" in entries else defaults["t0"]
        k = _int(entries, "plan.k") if "plan.k" in entries else defaults["k"]
        plan = TrotterPlan(t0, k)

        fields = {field: parse(entries, key) for key, field, parse in _RUN_KEYS if key in entries}
        fields.setdefault("init_bits", presets.INIT_BITS if model.n == 3 else None)
        return ExperimentConfig(model=model, machine=machine, plan=plan, **fields)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
