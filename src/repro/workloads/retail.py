"""The point-of-sale inventory scenario (Section 1: "inventory management
in a 'point-of-sale' system").

Stores (or regional warehouses) are database nodes; products are entities
whose stock and revenue summaries are spread over the stores that carry
them.  A *sale* records the line items and adjusts stock/revenue — stock
decrements and revenue increments commute, so sales are well-behaved.  A
*stock inquiry* reads one product across its stores; an *inventory audit*
reads many.  A *stock take* (physical recount) *overwrites* the stock
level: the canonical non-commuting correction that needs NC3V.
"""

from __future__ import annotations

import typing

from repro.sim.distributions import RngRegistry
from repro.workloads.recording import RecordingConfig, RecordingWorkload


def store_names(count: int) -> typing.List[str]:
    return [f"store{index:02d}" for index in range(count)]


class RetailWorkload(RecordingWorkload):
    """Recording workload with retail naming.

    Sales *increment* the per-store product summary with a negative amount
    when viewed as stock, or a positive amount when viewed as revenue; the
    generic workload's single summary per (product, store) stands in for
    both, which preserves the commutativity structure that matters here.
    """

    def make_sale(self, index: int):
        return self.make_recording(index)

    def make_stock_inquiry(self, index: int):
        return self.make_inquiry(index)

    def make_stock_take(self, index: int, counted: typing.Optional[int] = None):
        """A physical recount overwriting the stock level (non-commuting)."""
        return self.make_correction(index, counted)


def retail_workload(
    stores: int = 6,
    products: int = 200,
    stores_per_product: int = 3,
    seed: int = 0,
    amount_mode: str = "money",
) -> RetailWorkload:
    """Build a point-of-sale workload."""
    config = RecordingConfig(
        nodes=store_names(stores),
        entities=products,
        span=stores_per_product,
        amount_mode=amount_mode,
        charge_low=1.0,
        charge_high=200.0,
        audit_entities=40,
    )
    return RetailWorkload(config, RngRegistry(seed))
