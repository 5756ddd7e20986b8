"""The telephone call-recording scenario (the paper's original motivation).

"AT&T's call recording system records several million calls every hour" —
switches (database nodes) record call detail observations and update
account summaries (minutes used, balance due).  A call between two parties
on different switches is a multi-node recording transaction; a customer
balance check is an inquiry; fraud sweeps are audits.

The distinguishing knobs versus the hospital scenario: many more entities,
smaller per-transaction amounts, and a high update-to-read ratio — the
regime where the paper says global concurrency control is impractical.
"""

from __future__ import annotations

import typing

from repro.sim.distributions import RngRegistry
from repro.workloads.recording import RecordingConfig, RecordingWorkload


def switch_names(count: int) -> typing.List[str]:
    """Generate switch node ids (``sw00``, ``sw01``, ...)."""
    return [f"sw{index:02d}" for index in range(count)]


class TelecomWorkload(RecordingWorkload):
    """Recording workload with telephony naming."""

    def make_call(self, index: int):
        """Record one call: detail record + summary update per switch."""
        return self.make_recording(index)

    def make_balance_check(self, index: int):
        return self.make_inquiry(index)


def telecom_workload(
    switches: int = 8,
    accounts: int = 500,
    switches_per_call: int = 2,
    seed: int = 0,
    amount_mode: str = "money",
) -> TelecomWorkload:
    """Build a call-recording workload."""
    config = RecordingConfig(
        nodes=switch_names(switches),
        entities=accounts,
        span=switches_per_call,
        amount_mode=amount_mode,
        charge_low=0.05,
        charge_high=25.0,
        audit_entities=25,
    )
    return TelecomWorkload(config, RngRegistry(seed))
