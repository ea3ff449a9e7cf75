"""Online EVSE reservation auction with posted exponential pricing.

Library surface: domain types and validation (``model``), price curves and
the allocation-payment verifier (``pricing``), option generation
(``options``), the online mechanism (``engine``), offline references
(``oracle``), and scenario assembly (``scenario_io``).
"""

from .engine import AuctionOutcome, AuctionState, Quote, admit, quote, run_auction
from .model import (
    AllocationResult,
    ChargeOption,
    DemandState,
    GenerationPool,
    Location,
    Scenario,
    ScenarioValidationError,
    TimeGrid,
    UserType,
    ValueBounds,
    option_is_feasible,
    validate_scenario,
)
from .options import generate_options
from .oracle import (
    OfflineSolution,
    OracleBudgetExceeded,
    empirical_ratio,
    no_mechanism_baseline,
    offline_upper_bound,
    solve_offline_exact,
)
from .pricing import (
    ConfigurationError,
    alpha_1,
    alpha_2,
    cable_price,
    compute_bounds,
    conjugate_cable,
    conjugate_energy,
    conjugate_generation,
    energy_price,
    generation_cost,
    generation_price,
    price_scale,
    verify_dapr,
)
from .scenario_io import (
    UserPopulationSpec,
    build_preset,
    generate_users,
    load_price_trace,
    load_scenario,
    load_solar_trace,
    load_users,
    save_scenario,
    save_users,
)

__version__ = "0.1.0"
