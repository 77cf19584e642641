"""Order-of-magnitude cost estimators for the gap-estimation protocol.

These score scaling laws only; exact event counts for a concrete pulse
program come from the compiler, not from here.
"""

from __future__ import annotations

from dataclasses import dataclass


def gate_count(n: int, delta: float, epsilon: float) -> float:
    """Gates needed to resolve a gap delta to precision epsilon: 3 n^4 delta/epsilon
    (decoupling pulses included in the constant)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return 3.0 * n**4 * (delta / epsilon)


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    time_in_tau: float


def feasibility(
    n: int,
    delta: float,
    epsilon: float,
    t_g_over_tau: float = 1e-5,
    budget_in_tau: float = 1.0,
) -> Feasibility:
    """Whether the run fits inside the coherence budget: gate count times the
    gate duration (in units of the dephasing time tau) must not exceed the
    budget (also in tau)."""
    if not (t_g_over_tau > 0 and budget_in_tau > 0):
        raise ValueError("t_g_over_tau and budget_in_tau must be positive")
    time_in_tau = gate_count(n, delta, epsilon) * t_g_over_tau
    return Feasibility(time_in_tau <= budget_in_tau, time_in_tau)


def max_feasible_n(
    delta: float,
    epsilon: float,
    t_g_over_tau: float = 1e-5,
    budget_in_tau: float = 1.0,
) -> int:
    """Largest qubit count that stays inside the budget; 0 when even n = 1
    does not fit. The closed form floor((budget / (3 (delta/epsilon)
    t_g_over_tau))^(1/4)) is stepped by one with ``feasibility`` onto the
    integer an upward scan stops at. Raises ValueError when every n fits or
    the answer passes 2^53.
    """
    one = feasibility(1, delta, epsilon, t_g_over_tau, budget_in_tau)
    if not one.feasible:
        return 0
    if one.time_in_tau == 0.0:
        raise ValueError("every qubit count fits the budget")
    start = (budget_in_tau / one.time_in_tau) ** 0.25
    if not start < 2.0**53:
        raise ValueError(f"max feasible n {start:.3g} exceeds 2^53")
    n = max(int(start), 1)
    while not feasibility(n, delta, epsilon, t_g_over_tau, budget_in_tau).feasible:
        n -= 1
    while feasibility(n + 1, delta, epsilon, t_g_over_tau, budget_in_tau).feasible:
        n += 1
    return n
