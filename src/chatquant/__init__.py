"""Distributed scalar quantization with low-rate intersensor chatting.

The package designs, analyzes, and simulates sensor networks where each
node scalar-quantizes its observation for a fusion center computing a
function of all sources, after exchanging a few bits with its neighbors.
High-resolution theory drives the design (the optimal point density of
each codebook, rate allocation across links, closed-form distortion
laws); a deterministic Monte Carlo engine checks the predictions end to
end.
"""

from .probcore import (
    Pdf,
    binary_entropy,
    integrate_adaptive,
)
from .quantizer import (
    Compressor,
    InfeasibleCodebookError,
    PointDensity,
    Quantizer,
    build_fixed_rate_quantizer,
    output_entropy,
)
from .sensitivity import (
    MessageDistribution,
    SensitivityProfile,
    max_conditional_sensitivity,
    max_sensitivity,
    serial_max_message_distribution,
)
from .distortion import (
    ENTROPY_CONSTRAINED,
    FIXED_RATE,
    DistortionReport,
    InfeasibleRateError,
    UndefinedDistortionError,
    closed_form_max_nochat,
    fixed_rate_betas,
    optimal_density_entropy,
    optimal_density_fixed_rate,
    predict,
)
from .allocation import (
    AllocationResult,
    InfeasibleBudgetError,
    allocate,
    chat_budget_search,
    waterfill_kkt,
)
from .chatnet import (
    ChatNetworkSpec,
    NetworkDesign,
    SpecFormatError,
    build_banks,
    conditional_quantizer_bank,
    design_network,
    out_message_table,
    parse_spec_file,
)
from .simulator import (
    CONDITIONAL_EXPECTATION,
    PLUG_IN,
    SimulationResult,
    decode,
    measure_entropy_rate,
    replay_codebooks,
    run_simulation,
)
from .experiments import (
    SweepSpec,
    allocation_report,
    run_scenarios,
    standard_figures,
    sweep_chatting_rate,
    sweep_partition,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "ChatNetworkSpec",
    "Compressor",
    "CONDITIONAL_EXPECTATION",
    "DistortionReport",
    "ENTROPY_CONSTRAINED",
    "FIXED_RATE",
    "InfeasibleBudgetError",
    "InfeasibleCodebookError",
    "InfeasibleRateError",
    "MessageDistribution",
    "NetworkDesign",
    "PLUG_IN",
    "Pdf",
    "PointDensity",
    "Quantizer",
    "SensitivityProfile",
    "SimulationResult",
    "SpecFormatError",
    "SweepSpec",
    "UndefinedDistortionError",
    "allocate",
    "allocation_report",
    "binary_entropy",
    "build_banks",
    "build_fixed_rate_quantizer",
    "chat_budget_search",
    "closed_form_max_nochat",
    "conditional_quantizer_bank",
    "decode",
    "design_network",
    "fixed_rate_betas",
    "integrate_adaptive",
    "max_conditional_sensitivity",
    "max_sensitivity",
    "measure_entropy_rate",
    "optimal_density_entropy",
    "optimal_density_fixed_rate",
    "out_message_table",
    "output_entropy",
    "parse_spec_file",
    "predict",
    "replay_codebooks",
    "run_scenarios",
    "run_simulation",
    "serial_max_message_distribution",
    "standard_figures",
    "sweep_chatting_rate",
    "sweep_partition",
    "waterfill_kkt",
    "write_csv",
]
