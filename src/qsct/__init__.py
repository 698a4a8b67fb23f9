"""Qudit spin-chain state transfer with entanglement tracking and noise."""

from .chain import (
    ChainSpec,
    build_hamiltonian,
    commutator_defect,
    default_couplings,
    find_pst_time,
)
from .channels import (
    KrausChannel,
    WeylTable,
    analytic_favg_2qutrit,
    apply_channel,
    apply_weyl_table,
    average_fidelity,
    average_fidelity_monte_carlo,
    embed_channel,
    gate_x,
    gate_z,
    phase_damping,
    phase_damping_table,
    weyl_channel,
    weyl_table,
)
from .entanglement import (
    amplified_ccnr_margin,
    ccnr,
    closed_form_l2_d2,
    closed_form_l2_d3,
    concurrence_pure,
    entanglement_level,
    fit_cosine_series,
    mixedness_indicator,
)
from .generators import GeneratorSet, beta, eta, generator_set, projector, theta
from .linalg import Bipartition, partial_trace, realign, trace_norm
from .protocol import (
    ConfigError,
    ExperimentConfig,
    NoiseSpec,
    TransferRecord,
    average_fidelity_comparison,
    conformance_closed_forms,
    gamma_check,
    run_experiment,
    run_noiseless,
    run_noisy,
)

__version__ = "0.1.0"
