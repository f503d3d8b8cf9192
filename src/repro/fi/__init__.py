"""Fault-injection substrate: ISA simulator, traces, campaigns,
validation (paper §V and §VI-A)."""

from repro.fi.accounting import (BitInstance, fault_injection_accounting,
                                 iter_bit_instances)
from repro.fi.campaign import (EFFECT_BENIGN, EFFECT_MASKED, EFFECT_SDC,
                               EFFECT_TIMEOUT, EFFECT_TRAP, CampaignResult,
                               Plan, classify_effect, plan_bec,
                               plan_exhaustive, plan_inject_on_read)
from repro.fi.chaos import ChaosError, ChaosPolicy
from repro.fi.engine import CampaignEngine
from repro.fi.machine import (DEFAULT_MAX_CYCLES, Injection, Machine,
                              MemoryInjection)
from repro.fi.prune import LivenessPruner
from repro.fi.memory import (iter_memory_bit_reads, memory_fault_accounting,
                             plan_memory_bec, plan_memory_inject_on_read)
from repro.fi.sampling import (AVFEstimate, estimate_avf, exhaustive_avf,
                               inject_on_read_population, wilson_interval)
from repro.fi.trace import Trace
from repro.fi.validate import ValidationReport, validate_bec

__all__ = [
    "AVFEstimate",
    "BitInstance",
    "CampaignEngine",
    "CampaignResult",
    "ChaosError",
    "ChaosPolicy",
    "DEFAULT_MAX_CYCLES",
    "EFFECT_BENIGN",
    "EFFECT_MASKED",
    "EFFECT_SDC",
    "EFFECT_TIMEOUT",
    "EFFECT_TRAP",
    "Injection",
    "LivenessPruner",
    "Machine",
    "MemoryInjection",
    "Plan",
    "Trace",
    "ValidationReport",
    "classify_effect",
    "estimate_avf",
    "exhaustive_avf",
    "fault_injection_accounting",
    "inject_on_read_population",
    "iter_bit_instances",
    "iter_memory_bit_reads",
    "memory_fault_accounting",
    "plan_bec",
    "plan_exhaustive",
    "plan_inject_on_read",
    "plan_memory_bec",
    "plan_memory_inject_on_read",
    "validate_bec",
    "wilson_interval",
]
