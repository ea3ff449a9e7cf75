"""Online EVSE reservation auction with posted exponential pricing.

Modules: domain types and validation (``model``), price curves, ratio
constants and the allocation-payment check (``pricing``), option
generation (``options``), the online mechanism (``engine``), offline
references (``oracle``), scenario assembly (``scenario_io``) and the
experiment runner (``cli``). The package re-exports only the entry points
of a single run; everything else is imported from its module.
"""

from .engine import run_auction
from .model import (
    ChargeOption,
    ScenarioValidationError,
    UserType,
    option_is_feasible,
    validate_scenario,
)
from .options import generate_options
from .scenario_io import build_preset

__version__ = "0.1.0"
