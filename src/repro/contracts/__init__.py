"""repro.contracts — data contracts and governed ingest.

The governance layer over :mod:`repro.ingest` (ROADMAP item 3): every
proprietary dataset can declare a :class:`DataContract` — typed fields
with constraints, canonical-key normalization, a violation policy, and
a freshness SLA. The :class:`ContractManager` enforces it at load time
(reject / quarantine / coerce), detects schema drift between producer
and contract, tracks staleness against the refresh scheduler, and
feeds a platform-wide freshness error budget into :mod:`repro.slo`.
Contracts are a core module, not an option: every ``Symphony`` owns one
manager, and a table with no declared contract loads untouched. The
quarantine capacity, drift sample and freshness SLO shape are module
constants.

A contract is read one way. ``ContractEnforcer._check_row`` is the one
function that decides whether a row is clean, and each rule is written
once: normalization in ``FieldContract.normalized``, type conversion in
``repro.storage.records._COERCERS``, enum and range in
``ContractEnforcer._constraints`` (the ``coerce`` policy re-judges a
cast value through that same call).
"""

from .contract import (
    NORMALIZE_RULES,
    VIOLATION_POLICIES,
    DataContract,
    FieldContract,
    FreshnessSLA,
    normalize_value,
)
from .enforcer import (
    ContractEnforcer,
    DriftReport,
    EnforcementResult,
    Violation,
)
from .freshness import FeedFreshness, FreshnessTracker
from .manager import ContractManager
from .quarantine import QuarantinedRow, QuarantineStore

__all__ = [
    "DataContract",
    "FieldContract",
    "FreshnessSLA",
    "VIOLATION_POLICIES",
    "NORMALIZE_RULES",
    "normalize_value",
    "ContractEnforcer",
    "EnforcementResult",
    "DriftReport",
    "Violation",
    "QuarantineStore",
    "QuarantinedRow",
    "FreshnessTracker",
    "FeedFreshness",
    "ContractManager",
]
