"""Core vocabulary shared by every other module.

Supply-chain participants, chains, device identifiers, and money are all plain
immutable values. Device ids never enter the ledger raw: only their SHA-256
digest is stored, serialized as 64-char lower-case hex.
"""

from __future__ import annotations

import hashlib
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .errors import InvalidArgument, UnknownCurrency

# Type aliases for readability; both are plain strings on the wire.
EntityId = str
ChainId = str
HashedDeviceId = str

STANDARD_CURRENCY = "STD"

#: Largest finite double.
_MAX_FINITE = sys.float_info.max


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
        if type(self.id) is not str or not self.id:
            raise InvalidArgument(f"entity id must be a non-empty string, got {self.id!r}")
        if type(self.chain) is not str or not self.chain:
            raise InvalidArgument(f"entity chain must be a non-empty string, got {self.chain!r}")
        if not isinstance(self.role, Role):
            raise InvalidArgument(f"entity role must be a Role, got {self.role!r}")


@dataclass(frozen=True, slots=True)
class Money:
    """A non-negative amount in some currency.

    An amount is a built-in ``int`` or ``float`` that ``is_amount`` accepts.
    """

    amount: float
    currency: str = STANDARD_CURRENCY

    def __post_init__(self) -> None:
        if not is_amount(self.amount):
            if type(self.amount) is not float and type(self.amount) is not int:
                raise TypeError(f"must be real number, not {type(self.amount).__name__}")
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

    def __post_init__(self) -> None:
        rates = dict(self.rates)
        if rates.setdefault(STANDARD_CURRENCY, 1.0) != 1.0:
            raise InvalidArgument(f"standard currency {STANDARD_CURRENCY!r} must have rate 1")
        for code, rate in rates.items():
            if not isinstance(code, str) or not code:
                raise InvalidArgument(f"currency code must be a non-empty string, got {code!r}")
            if not is_real(rate) or rate <= 0:
                raise InvalidArgument(f"exchange rate for {code!r} must be finite and positive")
        object.__setattr__(self, "rates", rates)

    def rate(self, currency: str) -> float:
        try:
            return self.rates[currency]
        except KeyError:
            raise UnknownCurrency(f"no exchange rate for currency {currency!r}") from None


def is_real(value) -> bool:
    """True if ``value`` is a finite built-in ``int`` or ``float`` (a ``bool`` is neither).

    Such a value writes to JSON as the number it reads back as.
    """
    return (type(value) is float or type(value) is int) and -_MAX_FINITE <= value <= _MAX_FINITE


def is_amount(value) -> bool:
    """True if ``value`` can be a money amount: ``is_real`` and >= 0."""
    return is_real(value) and value >= 0


def chain_id_error(chain_id) -> str | None:
    """Why ``chain_id`` cannot name a chain, or None when it can.

    A chain id is a non-empty string without ``_`` or ``^``: those separate
    the parts of meta-entity ids, which must name exactly one chain pair.
    """
    if not isinstance(chain_id, str) or not chain_id:
        return "chain id must be a non-empty string"
    if "_" in chain_id or "^" in chain_id:
        return f"chain id {chain_id!r} may not contain '_' or '^'"
    return None


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
