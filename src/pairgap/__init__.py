"""pairgap: estimate pairing-model spectral gaps from Trotterized time series,
with an exact oracle, a pulse-level NMR control-error model and resource
scaling estimators."""

from .adiabatic import AdiabaticityWarning, prepare, sector_population_report
from .backend import step
from .config import ConfigError, ExperimentConfig, build_config
from .exact import computational_state, reachable_gap, sector_gap
from .hamiltonian import PairingModel
from .nmr import PulseProgram, SpinSystem, compile_trotter_step, wall_time
from .pipeline import RunResult, program_to_text, run_experiment, sweep_t0, write_run_artifacts
from .presets import pairing_model, spin_system
from .resources import feasibility, gate_count, max_feasible_n
from .spectroscopy import TimeSeries, acquire, dft, epsilon_ft, fit_damped_sinusoid, peak_pick
from .trotter import TrotterPlan, symmetric3_step

__version__ = "0.1.0"
