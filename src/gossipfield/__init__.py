"""Continuous opinion dynamics gossip models: stochastic simulation,
mean-field measure-valued ODE integration, moment analysis, and
concentration experiments."""

from .measures import (AtomicMeasure, Cluster, GridMeasure1D, detect_clusters,
                       moment, wasserstein1_1d)
from .kernels import (Atom, Atoms, BoundedConfidence, Bump, Constant,
                      FiniteMixture, Gaussian, Grid, KernelSpec, Law, Uniform,
                      env_moment)
from .agent_sim import SimConfig, SimState, run
from .meanfield import SolverConfig, apply_F, integrate
from .moments import (MomentConfig, MomentParams, MomentTrajectory,
                      gamma_k, integrate_moments, limit_moments)
from .experiments import (ConcentrationConfig, DeviationTable,
                          run_concentration, tail_rates)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
