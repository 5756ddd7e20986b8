"""The recording-workload builders the class-aware ones replaced.

Kept verbatim, for tests only, as the reference the differential in
``tests/test_workload_reference.py`` runs the new builders against: every
tree went through ``_write_groups`` (one ``make_ops(slot, node)`` closure
call per record copy, one key f-string per op) and through the
``TransactionSpec`` constructor, whose ``validate()`` walk derived the
transaction's class.  The placement, ``_pick_entity`` and ``_amount``
are inherited unchanged, so both draw from the workload stream in the
same order; the per-op key helpers are kept here with the builders.
"""

from __future__ import annotations

import typing

from repro.storage.values import Assign, Increment, Record
from repro.txn.spec import ReadOp, SubtxnSpec, TransactionSpec, WriteOp
from repro.workloads.recording import RecordingWorkload, balance_key, log_key


class ReferenceRecordingWorkload(RecordingWorkload):
    """:class:`RecordingWorkload` with the builders it had before."""

    def _bal(self, entity: int, slot: int):
        return balance_key(entity, slot if self.config.replicated else None)

    def _log(self, entity: int, slot: int):
        return log_key(entity, slot if self.config.replicated else None)

    def _write_groups(self, entity: int, make_ops) -> typing.Dict[str, list]:
        """Group one entity's per-record writes by target node.

        Iterates slots in order and each slot's replicas in placement
        order, calling ``make_ops(slot, node)`` for every copy; the
        node's ops accumulate in first-appearance order.  At rf=1 the
        replica list collapses to the slot home, reproducing the historic
        one-group-per-span-node trees exactly.
        """
        groups: typing.Dict[str, list] = {}
        for slot in range(self.config.span):
            for node in self.placement_map.replicas(entity, slot):
                groups.setdefault(node, []).extend(make_ops(slot, node))
        return groups

    def make_recording(self, index: int) -> TransactionSpec:
        """A well-behaved multi-node recording transaction.

        Under replication every replica of every slot receives its own
        copy of the commuting increment (write-all-available fan-out);
        the observation payload records the *slot* rather than the node
        so replica copies stay byte-identical.
        """
        entity = self._pick_entity()
        amount = self._amount(entity)
        name = f"rec-{index}"
        if self.track_amounts:
            self.update_amounts[name] = (entity, amount)
        abort = (
            self.config.abort_fraction > 0
            and self._rng.random() < self.config.abort_fraction
        )
        replicated = self.config.replicated

        def ops(slot: int, node: str) -> list:
            result = [WriteOp(self._bal(entity, slot), Increment(amount))]
            if self.config.with_observations:
                tag = slot if replicated else node
                result.append(
                    WriteOp(self._log(entity, slot), Record((name, tag)))
                )
            return result

        groups = self._write_groups(entity, ops)
        targets = list(groups)
        children = [
            SubtxnSpec(node=node, ops=groups[node]) for node in targets[1:]
        ]
        if abort and children:
            children[-1].abort_here = True
        root = SubtxnSpec(
            node=targets[0], ops=groups[targets[0]], children=children
        )
        if abort and not children:
            root.abort_here = True
        return TransactionSpec(name=name, root=root)

    def make_inquiry(self, index: int) -> TransactionSpec:
        """Read one entity's summary for every slot (read-one per record).

        Each slot is read at its home replica; under replication the spec
        carries the slot's other replicas as ``alternates`` so the
        placement layer can re-point the read at any readable copy.
        """
        entity = self._pick_entity()
        name = f"inq-{index}:{entity}"
        if not self.config.replicated:
            nodes = self.entity_homes[entity]
            children = [
                SubtxnSpec(node=node, ops=[ReadOp(balance_key(entity))])
                for node in nodes[1:]
            ]
            root = SubtxnSpec(
                node=nodes[0], ops=[ReadOp(balance_key(entity))],
                children=children,
            )
            return TransactionSpec(name=name, root=root)
        specs = [
            SubtxnSpec(
                node=replicas[0],
                ops=[ReadOp(self._bal(entity, slot))],
                alternates=replicas[1:],
                label=f"s{slot}",
            )
            for slot, replicas in (
                (s, self.placement_map.replicas(entity, s))
                for s in range(self.config.span)
            )
        ]
        root = specs[0]
        root.children = specs[1:]
        return TransactionSpec(name=name, root=root)

    def make_audit(self, index: int) -> TransactionSpec:
        """Read the summaries of several entities (fans out wide)."""
        count = min(self.config.audit_entities, self.config.entities)
        entities = self._rng.sample(range(self.config.entities), count)
        name = f"aud-{index}"
        if not self.config.replicated:
            # Group reads by node; root at the busiest node.
            by_node: typing.Dict[str, list] = {}
            for entity in entities:
                for node in self.entity_homes[entity]:
                    by_node.setdefault(node, []).append(
                        ReadOp(balance_key(entity))
                    )
            nodes_sorted = sorted(
                by_node, key=lambda n: len(by_node[n]), reverse=True
            )
            root_node = nodes_sorted[0]
            children = [
                SubtxnSpec(node=node, ops=by_node[node])
                for node in nodes_sorted[1:]
            ]
            root = SubtxnSpec(
                node=root_node, ops=by_node[root_node], children=children
            )
            return TransactionSpec(name=name, root=root)
        # Replicated: one read per record at its home, alternates attached,
        # so each record independently falls back to a readable replica.
        specs = []
        for entity in entities:
            for slot in range(self.config.span):
                replicas = self.placement_map.replicas(entity, slot)
                specs.append(
                    SubtxnSpec(
                        node=replicas[0],
                        ops=[ReadOp(self._bal(entity, slot))],
                        alternates=replicas[1:],
                        label=f"e{entity}s{slot}",
                    )
                )
        root = specs[0]
        root.children = specs[1:]
        return TransactionSpec(name=name, root=root)

    def make_correction(self, index: int, value: typing.Optional[int] = None
                        ) -> TransactionSpec:
        """A non-commuting overwrite of one entity's summaries (NC3V).

        Corrections write *all* replicas and do not skip unavailable ones:
        a non-commuting assign cannot be replayed out of order, so the
        two-phase engine simply blocks on a down replica until it
        recovers — the availability contrast with write-all-available
        commuting updates is the point of the comparison.
        """
        entity = self._pick_entity()
        new_value = value if value is not None else round(
            self._rng.uniform(0.0, 100.0), 2
        )

        def ops(slot: int, node: str) -> list:
            return [WriteOp(self._bal(entity, slot), Assign(new_value))]

        groups = self._write_groups(entity, ops)
        targets = list(groups)
        children = [
            SubtxnSpec(node=node, ops=groups[node]) for node in targets[1:]
        ]
        root = SubtxnSpec(
            node=targets[0], ops=groups[targets[0]], children=children
        )
        self.correction_entities[f"cor-{index}"] = entity
        return TransactionSpec(name=f"cor-{index}", root=root)
