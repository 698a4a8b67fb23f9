"""Qudit spin-chain state transfer with entanglement tracking and noise.

The names below come from the modules that `qsct run` loads. The closed-form
conformance report and its average fidelity are in qsct.conformance; import
them from there.
"""

from .chain import ChainSpec, default_couplings, find_pst_time
from .channels import WeylTable, apply_weyl_table, phase_damping_table, weyl_table
from .entanglement import (
    amplified_ccnr_margin,
    ccnr,
    concurrence_pure,
    entanglement_level,
    mixedness_indicator,
)
from .linalg import Bipartition, partial_trace, realign, trace_norm
from .protocol import (
    ConfigError,
    ExperimentConfig,
    NoiseSpec,
    TransferRecord,
    run_experiment,
)

__version__ = "0.1.0"
