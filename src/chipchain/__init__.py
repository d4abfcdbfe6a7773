"""chipchain: supply-chain provenance ledger and AIMD reputation engine.

A deterministic, in-process multi-chain ledger for chiplet and IC
traceability, an observer-relative reputation engine with additive rewards and
discounted multiplicative penalties, a seeded supply-chain simulator, and an
experiment harness with a brute-force verification oracle.
"""

from .domain import (
    STANDARD_CURRENCY,
    STANDARD_TABLE,
    Entity,
    ExchangeTable,
    Money,
    Role,
    hash_device_id,
)
from .errors import (
    AlreadyExists,
    ChipchainError,
    Conflict,
    CountMismatch,
    InvalidArgument,
    InvalidConfig,
    InvalidState,
    NotFound,
    NotOwner,
    PermissionDenied,
    UnknownCurrency,
)
from .ledger import Ledger, PartKind, PartRecord, PartStatus
from .reputation import (
    EntityReputation,
    ObserverView,
    PenaltyTrace,
    ReputationEngine,
    ReputationParams,
    edge_discount,
    normalized_score,
    penalty_rates,
)
from .simulator import (
    BehaviorProfile,
    SimConfig,
    Topology,
    assign_behaviors,
    build_topology,
    generate_stream,
    replay,
    sample_defect,
)
from .harness import (
    oracle_max_deviation,
    oracle_recompute,
    run_attack,
    run_basic,
    run_end_to_end,
)

__version__ = "0.1.0"
