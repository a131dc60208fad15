"""Core of the reproduction: the paper's prediction and load shedding scheme.

Sub-modules:

* :mod:`repro.core.features`   — 42-feature traffic extraction (Section 3.2.1)
* :mod:`repro.core.fcbf`       — feature selection (Section 3.2.3)
* :mod:`repro.core.regression` — OLS / MLR machinery (Section 3.2.2)
* :mod:`repro.core.prediction` — MLR+FCBF, SLR and EWMA predictors
* :mod:`repro.core.sampling`   — packet and flowwise flow sampling
* :mod:`repro.core.shedding`   — Algorithm 1 controller and buffer discovery
* :mod:`repro.core.fairness`   — eq_srates / mmfs_cpu / mmfs_pkt strategies
* :mod:`repro.core.game`       — Nash-equilibrium model (Section 5.3)
* :mod:`repro.core.custom`     — custom load shedding enforcement (Chapter 6)
* :mod:`repro.core.cycles`     — simulated cycle accounting substrate
"""

from .cycles import CycleBudget, CycleClock, CycleMeter, OperationCosts
from .custom import CustomShedEnforcer
from .fairness import STRATEGIES, Allocation, eq_srates, mmfs_cpu, mmfs_pkt
from .features import FEATURE_NAMES, FeatureExtractor, FeatureVector
from .fcbf import fcbf_select, linear_correlation
from .game import (best_response, best_response_dynamics, equilibrium_profile,
                   is_nash_equilibrium, payoffs)
from .prediction import (EWMAPredictor, MLRPredictor, PredictionErrorTracker,
                         SLRPredictor, make_predictor)
from .regression import MultipleLinearRegression, SlidingHistory, ols_svd
from .sampling import FlowSampler, PacketSampler, scale_estimate
from .shedding import (BufferDiscovery, LoadSheddingController, ShedPlan,
                       reactive_rate)

__all__ = [
    "Allocation",
    "BufferDiscovery",
    "CustomShedEnforcer",
    "CycleBudget",
    "CycleClock",
    "CycleMeter",
    "EWMAPredictor",
    "FEATURE_NAMES",
    "FeatureExtractor",
    "FeatureVector",
    "FlowSampler",
    "LoadSheddingController",
    "MLRPredictor",
    "MultipleLinearRegression",
    "OperationCosts",
    "PacketSampler",
    "PredictionErrorTracker",
    "SLRPredictor",
    "STRATEGIES",
    "ShedPlan",
    "SlidingHistory",
    "best_response",
    "best_response_dynamics",
    "eq_srates",
    "equilibrium_profile",
    "fcbf_select",
    "is_nash_equilibrium",
    "linear_correlation",
    "make_predictor",
    "mmfs_cpu",
    "mmfs_pkt",
    "ols_svd",
    "payoffs",
    "reactive_rate",
    "scale_estimate",
]
