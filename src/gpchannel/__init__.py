"""Capacities, rate regions, and random-coding simulation for discrete
state-dependent channels with encoder side information."""

__version__ = "0.1.0"

from .capacity import (
    CapacityResult,
    SequenceSpec,
    blahut_arimoto,
    cesaro_capacity,
    dyadic_alternation_value,
    gp_capacity_dm,
    interleaved_capacity,
    j_density_extrema,
    no_state_capacity,
    state_at_both_capacity,
)
from .coding import (
    CodingExperiment,
    MemorylessSystem,
    TrialRecord,
    TypicalityThresholds,
    build_code,
    decode,
    default_thresholds,
    design_experiment,
    encode,
    estimate_pi,
    eta,
    eta_exact,
    run_experiment,
)
from .info import (
    DensityTable,
    SpectrumSamples,
    conditional_mutual_information,
    density_table,
    mutual_information,
    spectral_rate_estimate,
)
from .mixture import MixtureSpec, maximize_mixed_lower_bound, mixed_lower_bound, mixture_spectrum_demo
from .prob import (
    ChannelKernel,
    ConditionalPmf,
    GPPolicy,
    JointSystem,
    Pmf,
    compose_joint,
    conditional,
    marginal,
)
from .region import RegionPoint, RegionPolicy, region_frontier, region_membership

__all__ = [name for name in dir() if not name.startswith("_")]
