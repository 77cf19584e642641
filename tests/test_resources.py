import math
import time

import pytest

from pairgap.resources import (
    Feasibility,
    feasibility,
    gate_count,
    max_feasible_n,
)
from pairgap.pipeline import grid_to_csv


def test_gate_count_formula():
    assert gate_count(3, 100.0, 1.0) == 3 * 81 * 100
    assert gate_count(10, 1.0, 1.0) == 30000
    assert gate_count(1, 5.0, 2.5) == 6.0
    with pytest.raises(ValueError):
        gate_count(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gate_count(3, 1.0, 0.0)
    with pytest.raises(ValueError):
        gate_count(3, -1.0, 1.0)


def test_feasibility_reference_points():
    # one percent precision, 1e-5 tau gates, budget of one dephasing time
    f4 = feasibility(4, 100.0, 1.0)
    assert f4.feasible and math.isclose(f4.time_in_tau, 0.768, rel_tol=1e-12)
    f5 = feasibility(5, 100.0, 1.0)
    assert not f5.feasible and math.isclose(f5.time_in_tau, 1.875, rel_tol=1e-12)
    # at epsilon = delta even ten modes fit comfortably
    f10 = feasibility(10, 1.0, 1.0)
    assert f10.feasible and math.isclose(f10.time_in_tau, 0.3, rel_tol=1e-12)
    with pytest.raises(ValueError):
        feasibility(4, 100.0, 1.0, t_g_over_tau=0.0)


def test_max_feasible_n_scan_matches_closed_form():
    assert max_feasible_n(100.0, 1.0) == 4
    assert max_feasible_n(1.0, 1.0) == 13  # floor((1/3e-5)^(1/4))
    for ratio, t_g in ((100.0, 1e-5), (10.0, 1e-4), (1.0, 1e-6), (250.0, 2e-5)):
        got = max_feasible_n(ratio, 1.0, t_g_over_tau=t_g)
        want = math.floor((1.0 / (3.0 * ratio * t_g)) ** 0.25)
        assert got == want
    # budget too small for a single mode
    assert max_feasible_n(1e9, 1.0) == 0


def scan_max_feasible_n(delta, epsilon, t_g_over_tau, budget_in_tau):
    """The upward scan the closed form replaced."""
    n = 0
    while feasibility(n + 1, delta, epsilon, t_g_over_tau, budget_in_tau).feasible:
        n += 1
    return n


def test_max_feasible_n_equals_the_scan():
    for ratio in (0.3, 1.0, 7.0, 100.0, 1234.5):
        for t_g in (1e-9, 3e-8, 1e-7, 1e-6, 1e-5, 1e-4, 0.1):
            for budget in (0.5, 1.0, 2.0):
                want = scan_max_feasible_n(1.0, ratio, t_g, budget)
                assert max_feasible_n(1.0, ratio, t_g, budget) == want, (ratio, t_g, budget)
    # at exact fourth powers the closed form sits on the boundary
    for n in (1, 2, 3, 7, 10, 31):
        t_g = 1.0 / (3.0 * n**4)
        assert max_feasible_n(1.0, 1.0, t_g) == scan_max_feasible_n(1.0, 1.0, t_g, 1.0)


def test_max_feasible_n_at_tiny_gate_times_returns_at_once():
    start = time.perf_counter()
    n = max_feasible_n(100.0, 1.0, t_g_over_tau=1e-40)
    assert time.perf_counter() - start < 0.05
    assert feasibility(n, 100.0, 1.0, 1e-40).feasible
    assert not feasibility(n + 1, 100.0, 1.0, 1e-40).feasible


def test_max_feasible_n_without_a_bound_raises():
    with pytest.raises(ValueError, match="every qubit count fits"):
        max_feasible_n(0.0, 1.0)
    with pytest.raises(ValueError, match="exceeds 2\\^53"):
        max_feasible_n(1.0, 1.0, budget_in_tau=math.inf)


def test_grid_csv_layout():
    text = grid_to_csv([4, 5], [0.01, 1.0], 1e-5, 1.0)
    lines = text.strip().split("\n")
    assert lines[0] == "n,eps_over_delta,gates,time_in_tau,feasible"
    assert len(lines) == 5
    n, ratio, gates, time_in_tau, feasible = lines[1].split(",")
    assert int(n) == 4 and float(ratio) == 0.01
    assert math.isclose(float(gates), 76800.0)
    assert math.isclose(float(time_in_tau), 0.768)
    assert feasible == "1"
    # n = 5 at one percent precision blows the budget
    assert lines[3].endswith(",0")


def test_feasibility_is_a_plain_record():
    f = Feasibility(True, 0.5)
    assert f.feasible is True and f.time_in_tau == 0.5
