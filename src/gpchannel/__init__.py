"""Capacities, rate regions, and random-coding simulation for discrete
state-dependent channels with encoder side information."""

__version__ = "0.1.0"

from .capacity import (
    CapacityResult,
    blahut_arimoto,
    cesaro_capacity,
    gp_capacity_dm,
    interleaved_value,
    j_density_extrema,
    j_structured_slots,
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
    run_experiment,
)
from .info import (
    SpectrumSamples,
    conditional_mutual_information,
    density_table,
    mutual_information,
    spectral_rate_estimate,
)
from .mixture import MixtureSpec, maximize_mixed_lower_bound, mixed_lower_bound, mixture_spectrum_demo
from .prob import ChannelKernel, GPPolicy, Pmf, effective_kernel
from .region import RegionPoint, RegionPolicy, region_frontier, region_membership

__all__ = [name for name in dir() if not name.startswith("_")]
