"""The run pipeline above three modes: seeded nearest-neighbour chains at
n = 4..8, each with a half-filled initial state and a sampling step that keeps
every line of its pair sector below Nyquist. The prepared state and the series
are checked against the dense oracles, and the artifacts for repeatability.
No check is made of delta_exp against delta_exact: above n = 4 the strongest
line of the series is often another transition than the reachable one."""

import math
import warnings

import numpy as np
import pytest

import pairgap.pipeline as pipeline
from conftest import dense_prepare, dense_sector_block, loop_acquire
from pairgap.adiabatic import AdiabaticityWarning
from pairgap.config import build_config


def chain_config(n: int, seed: int):
    """A chain with nu/2pi in [100, 600] Hz and V/2pi in [50, 200] Hz on
    neighbours, init 0101..., and t0 at 0.9 of the Nyquist limit of the widest
    line in the sector, k = 2."""
    rng = np.random.default_rng(seed)
    nu = rng.uniform(100, 600, n)
    v = rng.uniform(50, 200, n - 1)
    overrides = ["model.nu_hz=" + ",".join(repr(float(x)) for x in nu), "run.init=" + ("01" * n)[:n], "plan.k=2"]
    overrides += [f"model.v_{m}_{m + 1}_hz={float(x)!r}" for m, x in enumerate(v, start=1)]
    cfg = build_config(None, None, tuple(overrides))
    widest = float(np.ptp(np.linalg.eigvalsh(dense_sector_block(cfg.model, cfg.init_bits.count("1")))))
    return build_config(None, None, tuple(overrides) + (f"plan.t0_s={0.9 * math.pi / widest!r}",))


@pytest.mark.parametrize("n", range(4, 9))
def test_chain_run_matches_the_dense_oracles_and_repeats(monkeypatch, tmp_path, n):
    cfg = chain_config(n, seed=7)
    seen, acquire = [], pipeline.acquire

    def recording(*args):
        seen.append(args)
        return acquire(*args)

    monkeypatch.setattr(pipeline, "acquire", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        results = [pipeline.run_experiment(cfg) for _ in range(2)]
    prepared = seen[0][0]
    init = np.zeros(2**n, dtype=complex)
    init[cfg.init_index] = 1.0
    assert np.max(np.abs(prepared - dense_prepare(cfg.model, init, cfg.schedule_steps, cfg.t_ad))) < 1e-13
    reference = loop_acquire(*seen[0])
    bound = 8 * (np.arange(cfg.q) + 1) * 2.0**-52
    assert np.all(np.abs(results[0].spectrum.series.values - reference.values) <= bound)
    files = [pipeline.write_run_artifacts(r, str(tmp_path / str(i))) for i, r in enumerate(results)]
    for name in files[0]:
        with open(files[0][name], "rb") as a, open(files[1][name], "rb") as b:
            assert a.read() == b.read(), name


@pytest.mark.filterwarnings("ignore::pairgap.adiabatic.AdiabaticityWarning")
@pytest.mark.parametrize("n, seed", [(4, 1), (6, 0)])
def test_chain_with_an_uncoupled_last_spin_refuses_its_flat_series(n, seed):
    # spin n has no coupling, so <Z_n> never moves; at Q = 1600 its series
    # spreads 2.8 (n = 4) and 1.8 (n = 6) q 2^-52, the widest spectators seen
    rng = np.random.default_rng(seed)
    nu = rng.uniform(100, 600, n)
    v = rng.uniform(50, 200, n - 2)
    overrides = ["model.nu_hz=" + ",".join(repr(float(x)) for x in nu), "run.init=" + ("01" * n)[:n],
                 f"run.observed_spin={n}", "run.q=1600", "plan.t0_s=2e-4"]
    overrides += [f"model.v_{m}_{m + 1}_hz={float(x)!r}" for m, x in enumerate(v, start=1)]
    with pytest.raises(ValueError, match="flat"):
        pipeline.run_experiment(build_config(None, None, tuple(overrides)))
