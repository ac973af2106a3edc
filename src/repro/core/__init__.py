"""Paldia's core: Equation (1), Algorithm 1, autoscaling, the policy."""

from repro.core.autoscaler import Autoscaler, containers_for_split
from repro.core.contention import ContentionAwarePaldiaPolicy
from repro.core.hardware_selection import HardwareSelector, SelectionOutcome
from repro.core.model import SplitDecision, cpu_t_max, optimal_split, t_max_curve
from repro.core.paldia import PaldiaPolicy
from repro.core.predictor import (
    EWMAPredictor, OraclePredictor, RatePredictor, RateTracker,
)

__all__ = [
    "Autoscaler", "ContentionAwarePaldiaPolicy", "EWMAPredictor", "HardwareSelector",
    "OraclePredictor", "PaldiaPolicy", "RatePredictor", "RateTracker",
    "SelectionOutcome", "SplitDecision", "containers_for_split", "cpu_t_max",
    "optimal_split", "t_max_curve",
]
