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
    MAX_CODEBOOK_SIZE,
    CodebookTable,
    InfeasibleCodebookError,
    Quantizer,
)
from .sensitivity import SensitivityProfile
from .distortion import (
    ENTROPY_CONSTRAINED,
    FIXED_RATE,
    DistortionReport,
    InfeasibleRateError,
    closed_form_max_nochat,
    fixed_rate_betas,
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
    design_network,
    out_message_table,
    parse_spec_file,
)
from .simulator import (
    CONDITIONAL_EXPECTATION,
    PLUG_IN,
    SimulationResult,
    decode,
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
    "CONDITIONAL_EXPECTATION",
    "CodebookTable",
    "DistortionReport",
    "ENTROPY_CONSTRAINED",
    "FIXED_RATE",
    "InfeasibleBudgetError",
    "InfeasibleCodebookError",
    "InfeasibleRateError",
    "MAX_CODEBOOK_SIZE",
    "NetworkDesign",
    "PLUG_IN",
    "Pdf",
    "Quantizer",
    "SensitivityProfile",
    "SimulationResult",
    "SpecFormatError",
    "SweepSpec",
    "allocate",
    "allocation_report",
    "binary_entropy",
    "build_banks",
    "chat_budget_search",
    "closed_form_max_nochat",
    "decode",
    "design_network",
    "fixed_rate_betas",
    "integrate_adaptive",
    "out_message_table",
    "parse_spec_file",
    "predict",
    "replay_codebooks",
    "run_scenarios",
    "run_simulation",
    "standard_figures",
    "sweep_chatting_rate",
    "sweep_partition",
    "waterfill_kkt",
    "write_csv",
]
