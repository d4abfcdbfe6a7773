"""Core vocabulary shared by every other module.

Supply-chain participants, chains, device identifiers, and money are all plain
immutable values. Device ids never enter the ledger raw: only their SHA-256
digest is stored, serialized as 64-char lower-case hex.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .errors import InvalidArgument, UnknownCurrency

# Type aliases for readability; both are plain strings on the wire.
EntityId = str
ChainId = str
HashedDeviceId = str

STANDARD_CURRENCY = "STD"


class Role(str, Enum):
    """Participant roles in the traceability framework."""

    CHIPLET_MANUFACTURER = "CM"
    CHIPLET_DISTRIBUTOR = "CD"
    IC_MANUFACTURER = "ICM"
    IC_DISTRIBUTOR = "ICD"
    SYSTEM_INTEGRATOR = "SI"
    END_USER = "EU"
    TRUSTED_AUTHORITY = "TA"
    META_ENTITY = "META"


@dataclass(frozen=True, slots=True)
class Entity:
    """A supply-chain participant bound to exactly one chain."""

    id: EntityId
    role: Role
    chain: ChainId

    def __post_init__(self) -> None:
        if not self.id:
            raise InvalidArgument("entity id must be non-empty")
        if not self.chain:
            raise InvalidArgument("entity chain must be non-empty")


@dataclass(frozen=True, slots=True)
class Money:
    """A non-negative amount in some currency. Amounts are double-precision reals."""

    amount: float
    currency: str = STANDARD_CURRENCY

    def __post_init__(self) -> None:
        if not math.isfinite(self.amount) or self.amount < 0:
            raise InvalidArgument(f"money amount must be finite and >= 0, got {self.amount}")
        if not self.currency:
            raise InvalidArgument("currency code must be non-empty")


@dataclass(frozen=True)
class ExchangeTable:
    """Conversion rates from arbitrary currency codes into the standard currency.

    The standard currency always has rate 1; all rates must be finite and
    positive.
    Currency codes are case-sensitive ASCII.
    """

    rates: Mapping[str, float] = field(default_factory=dict)
    standard: str = STANDARD_CURRENCY

    def __post_init__(self) -> None:
        rates = dict(self.rates)
        std_rate = rates.setdefault(self.standard, 1.0)
        if std_rate != 1.0:
            raise InvalidArgument(f"standard currency {self.standard!r} must have rate 1")
        for code, rate in rates.items():
            if not math.isfinite(rate) or rate <= 0:
                raise InvalidArgument(f"exchange rate for {code!r} must be finite and positive")
        object.__setattr__(self, "rates", rates)

    def rate(self, currency: str) -> float:
        try:
            return self.rates[currency]
        except KeyError:
            raise UnknownCurrency(f"no exchange rate for currency {currency!r}") from None


#: Identity table: a single standard currency, rate 1.
STANDARD_TABLE = ExchangeTable()


def hash_device_id(raw: str | bytes) -> HashedDeviceId:
    """SHA-256 digest of a raw device id, as 64-char lower-case hex.

    Deterministic across runs and platforms; the raw id itself is never stored.
    """
    if not raw:
        raise InvalidArgument("device id must be non-empty")
    data = raw.encode("utf-8") if isinstance(raw, str) else bytes(raw)
    return hashlib.sha256(data).hexdigest()


_HASHED_ID = re.compile("[0-9a-f]{64}")


def is_hashed_id(value: str) -> bool:
    """True if ``value`` is a well-formed 64-char lower-case hex digest."""
    return isinstance(value, str) and _HASHED_ID.fullmatch(value) is not None
