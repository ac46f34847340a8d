"""Rule registry: every shipped remoslint rule, in code order."""

from __future__ import annotations

from repro.lint.project import Rule
from repro.lint.rules.rml002_rng import SeededRngRule
from repro.lint.rules.rml005_excepts import BlindExceptRule
from repro.lint.rules.rml006_oid_literals import OidLiteralRule
from repro.lint.rules.rml101_layers import ImportLayeringRule
from repro.lint.rules.rml102_async_safety import AsyncSafetyRule
from repro.lint.rules.rml103_transitive_clock import TransitiveClockRule
from repro.lint.rules.rml104_status_flow import StatusFlowRule
from repro.lint.rules.rml105_dead_exports import DeadExportRule

ALL_RULES: tuple[type[Rule], ...] = (
    SeededRngRule,
    BlindExceptRule,
    OidLiteralRule,
    ImportLayeringRule,
    AsyncSafetyRule,
    TransitiveClockRule,
    StatusFlowRule,
    DeadExportRule,
)


def make_rules() -> list[Rule]:
    """One instance of every rule, in code order."""
    return [cls() for cls in ALL_RULES]
