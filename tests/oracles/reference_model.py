"""Frozen seed copies of the Equation-(1) solvers, for the reference policy.

The vectorized-policy-core PR fused :func:`repro.core.model.t_max_curve`
and :func:`repro.core.model.optimal_split` into a shared kernel (fewer
NumPy dispatches, bit-identical output).  The reference policy
(:mod:`tests.oracles.reference_policy`) is the cost oracle the engine
benchmark and the golden bit-identity suite compare against, so it must
reproduce the seed's exact per-call work, not just its results.

This module preserves the seed's solver implementations verbatim —
expression structure, operation order, and call pattern — so reference
runs pay the seed's true cost.  Outputs are bit-identical to the fused
solvers (the fusion only removed redundant dispatches); only the wall
clock differs.  Do not optimise this file.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import SplitDecision
from repro.simulator.interference import DEFAULT_INTERFERENCE, InterferenceModel

__all__ = ["reference_t_max_curve", "reference_optimal_split"]


def reference_t_max_curve(
    y: np.ndarray,
    n: int,
    batch_size: int,
    solo: float,
    fbr: float,
    interference: InterferenceModel = DEFAULT_INTERFERENCE,
    existing_fbr: float = 0.0,
    existing_queue: int = 0,
    solo_single: float = 0.0,
) -> np.ndarray:
    """The seed's ``t_max_curve``, unfused (see module docstring)."""
    if n < 0 or batch_size < 1 or solo <= 0 or fbr < 0:
        raise ValueError("invalid model parameters")
    if existing_queue < 0:
        raise ValueError("existing_queue cannot be negative")
    y_arr = np.asarray(y, dtype=np.float64)
    n_spatial = n - y_arr
    k = np.ceil(n_spatial / batch_size)  # co-located batches
    total_fbr = existing_fbr + (n_spatial / batch_size) * fbr
    queued = np.where(
        y_arr > 0,
        np.maximum(solo_single, solo * ((existing_queue + y_arr) / batch_size)),
        0.0,
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        batch_frac = np.where(k > 0, n_spatial / (k * batch_size), 0.0)
    spatial_base = np.maximum(solo_single, solo * batch_frac)
    spatial = np.where(
        k > 0,
        spatial_base * interference.slowdown_array(total_fbr),
        0.0,
    )
    return queued + spatial


def reference_optimal_split(
    n: int,
    batch_size: int,
    solo: float,
    fbr: float,
    slo_seconds: float,
    interference: InterferenceModel = DEFAULT_INTERFERENCE,
    existing_fbr: float = 0.0,
    existing_queue: int = 0,
    max_coresident: int | None = None,
    max_total_fbr: float | None = None,
    solo_single: float = 0.0,
    y_step: int = 1,
) -> SplitDecision:
    """The seed's ``optimal_split``, unfused (see module docstring)."""
    if n <= 0:
        return SplitDecision(y=0, t_max=0.0, feasible=True, n=0, batch_size=batch_size)
    y = np.arange(0, n + 1, max(1, int(y_step)), dtype=np.int64)
    if y[-1] != n:
        y = np.append(y, n)
    t = reference_t_max_curve(
        y, n, batch_size, solo, fbr, interference,
        existing_fbr=existing_fbr, existing_queue=existing_queue,
        solo_single=solo_single,
    )
    k = np.ceil((n - y) / batch_size)
    if max_coresident is not None:
        t = np.where(k <= max_coresident, t, np.inf)
    if max_total_fbr is not None:
        t = np.where(existing_fbr + k * fbr <= max_total_fbr, t, np.inf)
    i = int(np.argmin(t))
    t_best = float(t[i])
    if not np.isfinite(t_best):
        return SplitDecision(
            y=n - 1, t_max=float("inf"), feasible=False, n=n, batch_size=batch_size
        )
    return SplitDecision(
        y=int(y[i]),
        t_max=t_best,
        feasible=t_best <= slo_seconds,
        n=n,
        batch_size=batch_size,
    )
