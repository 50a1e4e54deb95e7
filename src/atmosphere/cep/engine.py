"""Deterministic complex event processing over ordered event streams.

One engine hosts a DAG of deployed patterns. Ingesting an event advances the
engine clock, first firing every tumbling-window boundary crossed, then
routing the event; emissions cascade into downstream patterns within the same
call. Without a wall clock (event time) the clock moves only with event
timestamps and explicit :meth:`Engine.advance_clock` calls, which makes a
replay of the same log byte-identical. Given one (processing time), the
engine stamps arrivals with it, for live runs.

Instant ordering model
----------------------
Work at one timestamp ``t`` happens in phases, and every emission carries an
``order_key`` tuple ``(t, phase, minor, topo, seq)``:

* phase 0 is the boundary phase: batch windows ending at ``t`` close in
  topological order (minor 0), then their emissions cascade through
  downstream patterns (minor 1);
* phase k (k >= 1): the k-th raw event ingested at ``t`` and its cascade
  (minor 1).

``topo`` is the producing pattern's deployment index and ``seq`` its running
emission counter. Sorting any run's emissions by ``order_key`` is therefore a
stable, replayable total order; the reference replay in ``oracle.py``
produces the same keys independently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..errors import (
    DeploymentError,
    FieldTypeError,
    TimeRegressionError,
    UnknownStreamError,
)
from ..events import Event, SchemaRegistry, compare_values
from ..patterns import (
    CountAgg,
    CurrentTimestamp,
    FieldPath,
    FieldRef,
    PatternDef,
    StarOf,
)
from .infer import check_predicate_types, register_output_schema


@dataclass(frozen=True)
class Emission:
    event: Event
    produced_by: str
    target_tag: str | None
    order_key: tuple = field(compare=False, default=())


def _compile_binding(binding):
    """Split predicates into (field, op, literal) and cross-binding refs."""
    literal = []
    cross = []
    for pred in binding.predicates:
        if isinstance(pred.rhs, FieldPath):
            cross.append((pred.lhs.field, pred.op, pred.rhs.alias, pred.rhs.field))
        else:
            literal.append((pred.lhs.field, pred.op, pred.rhs.value))
    return literal, cross


def _literal_preds_pass(literal_preds, fields) -> bool:
    for fname, op, value in literal_preds:
        if not compare_values(op, fields[fname], value):
            return False
    return True


# Python types of a key value per declared field type. Within one class an
# ``=`` comparison can neither raise nor disagree with tuple equality, which is
# what lets a dict lookup stand in for ``compare_values``.
_KEY_TYPES = {
    "integer": (int, float),
    "number": (int, float),
    "string": (str,),
    "boolean": (bool,),
}


def _keyable(values, types) -> bool:
    # ``v == v`` rejects NaN, which compares unequal even to itself
    for value, allowed in zip(values, types):
        if type(value) not in allowed or value != value:
            return False
    return True


class _Deployed:
    """One deployed pattern plus its runtime state."""

    FILTER = "filter"
    BATCH = "batch"
    CONJUNCTION = "conjunction"

    def __init__(self, pattern: PatternDef, registry: SchemaRegistry, topo: int, now_ms: int):
        self.pattern = pattern
        self.topo = topo
        self.name = pattern.name
        self.emit_seq = 0
        self.window_ms = pattern.window.to_ms() if pattern.window else None
        self.next_boundary: int | None = None
        if self.window_ms:  # tumbling windows from time 0
            self.next_boundary = (now_ms // self.window_ms + 1) * self.window_ms
        self.bindings = list(pattern.bindings)
        self.compiled = [_compile_binding(b) for b in self.bindings]
        if pattern.is_conjunction:
            self.kind = self.CONJUNCTION
        elif self.window_ms:
            self.kind = self.BATCH
        else:
            self.kind = self.FILTER
        self.count_field = next(
            (i.path.field for i in pattern.select if isinstance(i, CountAgg)), None
        )
        self.group_fields = [path.field for path in pattern.group_by]
        # batch state: group key -> [non-null count, last event fields]
        self.groups: dict = {}
        # conjunction state: live partial matches by creation sequence number,
        # oldest first, and the equality index over them (see ``place``)
        self.partials: dict[int, dict] = {}
        self.partial_seq = 0
        self.emitted_keys: set = set()
        self.slots_of: dict[str, list[int]] = {}
        for slot, binding in enumerate(self.bindings):
            self.slots_of.setdefault(binding.stream, []).append(slot)
        # Slot s of a partial is indexed under ``key_refs[s]`` values once every
        # alias it references is bound; events look it up by ``key_fields[s]``.
        self.keyed = all(op == "=" for _, cross in self.compiled for _, op, _, _ in cross)
        self.key_fields = [[c[0] for c in cross] for _, cross in self.compiled]
        self.key_refs = [[(c[2], c[3]) for c in cross] for _, cross in self.compiled]
        self.waits_on = [frozenset(alias for alias, _ in refs) for refs in self.key_refs]
        self.key_types = []
        # alias -> (fields other slots compare against, their key types)
        self.referenced: dict[str, tuple[list, list]] = {b.alias: ([], []) for b in self.bindings}
        for binding, (_, cross) in zip(self.bindings, self.compiled):
            schema = registry.get(binding.stream)
            types = [_KEY_TYPES[schema.fields[fname]] for fname, _, _, _ in cross]
            self.key_types.append(types)
            for (_, _, ref_alias, ref_field), allowed in zip(cross, types):
                self.referenced[ref_alias][0].append(ref_field)
                self.referenced[ref_alias][1].append(allowed)
        self.index: list[dict[tuple, list[int]]] = [{} for _ in self.bindings]
        # live partials holding a referenced value the index cannot stand for
        # (null, or a type outside its key class); while any lives, events scan
        self.unkeyed: set[int] = set()

    # -- select realization ------------------------------------------------

    def _realize_single(self, fields: dict, now: int) -> dict:
        out = {}
        for item in self.pattern.select:
            if isinstance(item, CurrentTimestamp):
                out[item.as_name] = now
            elif isinstance(item, FieldRef):
                out[item.as_name] = fields[item.path.field]
            elif isinstance(item, StarOf):
                out.update(fields)
        return out

    def _realize_group(self, count: int, last_fields: dict, now: int) -> dict:
        out = {}
        for item in self.pattern.select:
            if isinstance(item, CurrentTimestamp):
                out[item.as_name] = now
            elif isinstance(item, CountAgg):
                out[item.as_name] = count
            elif isinstance(item, FieldRef):
                out[item.as_name] = last_fields[item.path.field]
            elif isinstance(item, StarOf):
                out.update(last_fields)
        return out

    def _realize_match(self, match: dict, now: int) -> dict:
        out = {}
        for item in self.pattern.select:
            if isinstance(item, CurrentTimestamp):
                out[item.as_name] = now
            elif isinstance(item, FieldRef):
                out[item.as_name] = match[item.path.alias].fields[item.path.field]
            elif isinstance(item, StarOf):
                out.update(match[item.alias].fields)
        return out

    # -- conjunction helpers -------------------------------------------------

    def _slot_eligible(self, slot: int, event: Event, match: dict) -> bool:
        binding = self.bindings[slot]
        if binding.stream != event.stream or binding.alias in match:
            return False
        literal, cross = self.compiled[slot]
        if not _literal_preds_pass(literal, event.fields):
            return False
        for fname, op, ref_alias, ref_field in cross:
            ref = match.get(ref_alias)
            if ref is None:
                return False  # dependency not yet assigned
            if not compare_values(op, event.fields[fname], ref.fields[ref_field]):
                return False
        return True

    def correlation_key(self, match: dict) -> tuple:
        key = []
        for binding, (_, cross) in zip(self.bindings, self.compiled):
            for fname, op, _ref_alias, _ref_field in cross:
                if op == "=":
                    key.append(match[binding.alias].fields[fname])
        return tuple(key)

    def place(self, event: Event) -> dict | None:
        """Extend the oldest compatible partial match with ``event``, else open
        a new one; returns the match if that completed it.

        A slot is compatible when its stream, literal and cross predicates hold;
        among compatible (partial, slot) pairs the oldest partial wins, then the
        first slot. For all-``=`` patterns the pair is found through the index;
        :meth:`_find_by_scan` is the general rule and decides whenever a
        predicate could raise instead of evaluating to false.
        """
        found = None
        if self.keyed and not self.unkeyed:
            found = self._find_by_key(event)
        if found is None:
            found = self._find_by_scan(event)
        seq, slot = found
        if slot is None:
            return None
        alias = self.bindings[slot].alias
        if seq is None:
            seq = self.partial_seq
            self.partial_seq += 1
            match = self.partials[seq] = {alias: event}
        else:
            match = self.partials[seq]
            match[alias] = event
            if self.keyed:
                self._unindex_head(slot, seq, match)
            if len(match) == len(self.bindings):
                del self.partials[seq]
                self.unkeyed.discard(seq)
                return match
        if self.keyed:
            self._index_ready(seq, match, alias, event)
        return None

    def reset_partials(self) -> None:
        self.partials = {}
        self.index = [{} for _ in self.bindings]
        self.unkeyed = set()
        self.emitted_keys = set()

    def _find_by_scan(self, event: Event) -> tuple:
        for seq, match in self.partials.items():
            for slot in range(len(self.bindings)):
                if self._slot_eligible(slot, event, match):
                    return seq, slot
        for slot in range(len(self.bindings)):
            if self._slot_eligible(slot, event, {}):
                return None, slot
        return None, None

    def _find_by_key(self, event: Event) -> tuple | None:
        """The scan's answer from the index, or None when only the scan can
        give it: a literal predicate raises, or a key value is not keyable."""
        best = None
        open_slot = None
        fields = event.fields
        for slot in self.slots_of.get(event.stream, ()):
            literal, cross = self.compiled[slot]
            try:
                if not _literal_preds_pass(literal, fields):
                    continue
                key = tuple([fields[f] for f in self.key_fields[slot]])
            except (FieldTypeError, KeyError):
                return None
            if not cross and open_slot is None:
                open_slot = slot
            if not _keyable(key, self.key_types[slot]):
                return None
            seq = self._live_head(slot, key)
            if seq is not None and (best is None or seq < best[0]):
                best = (seq, slot)
        return best if best is not None else (None, open_slot)

    def _live_head(self, slot: int, key: tuple) -> int | None:
        bucket = self.index[slot]
        heap = bucket.get(key)
        if heap is None:
            return None
        alias = self.bindings[slot].alias
        partials = self.partials
        while heap:
            match = partials.get(heap[0])
            if match is not None and alias not in match:
                return heap[0]
            heapq.heappop(heap)
        del bucket[key]
        return None

    def _slot_key(self, slot: int, match: dict) -> tuple:
        return tuple([match[alias].fields[f] for alias, f in self.key_refs[slot]])

    def _unindex_head(self, slot: int, seq: int, match: dict) -> None:
        # A slot filled through the index was its bucket's head; one filled by
        # the scan may sit deeper and is dropped lazily by ``_live_head``.
        bucket = self.index[slot]
        key = self._slot_key(slot, match)
        heap = bucket.get(key)
        if heap and heap[0] == seq:
            heapq.heappop(heap)
            if not heap:
                del bucket[key]

    def _index_ready(self, seq: int, match: dict, alias: str, event: Event) -> None:
        """Index the slots of ``match`` that binding ``alias`` made ready."""
        if seq in self.unkeyed:
            return
        ref_fields, types = self.referenced[alias]
        # a missing field reads as null, so the scan raises as it always has
        if not _keyable([event.fields.get(f) for f in ref_fields], types):
            self.unkeyed.add(seq)
            return
        opened = len(match) == 1
        for slot, waits_on in enumerate(self.waits_on):
            just_ready = alias in waits_on if waits_on else opened
            if just_ready and self.bindings[slot].alias not in match and waits_on <= match.keys():
                key = self._slot_key(slot, match)
                heapq.heappush(self.index[slot].setdefault(key, []), seq)


class Engine:
    """Pattern host for one fog or cloud node; ``now_ms`` is its time, and
    ``wall_clock``, when given, stamps each arrival (processing time)."""

    def __init__(self, node_id: str, registry: SchemaRegistry, wall_clock=None):
        self.node_id = node_id
        self.registry = registry
        self.now_ms = 0
        self._wall_clock = wall_clock
        self._deployed: list[_Deployed] = []
        self._by_name: dict[str, _Deployed] = {}
        self._consumers: dict[str, list[_Deployed]] = {}
        self._ingest_count = 0
        self._instant_ts = -1
        self._raw_phase = 0

    @property
    def ingest_count(self) -> int:
        return self._ingest_count

    def deployed_patterns(self) -> list[PatternDef]:
        return [d.pattern for d in self._deployed]

    def next_boundary(self) -> int | None:
        """Earliest pending batch boundary, for lockstep multi-engine drivers."""
        values = [d.next_boundary for d in self._deployed if d.next_boundary is not None]
        return min(values, default=None)

    def state_sizes(self) -> dict[str, dict[str, int]]:
        """Per pattern: live partial matches, indexed (slot, key) buckets, batch
        groups and suppressed correlation keys. A windowed pattern's sizes
        drop to zero at each of its boundaries."""
        return {
            d.name: {
                "partials": len(d.partials),
                "indexed_keys": sum(len(bucket) for bucket in d.index),
                "groups": len(d.groups),
                "emitted_keys": len(d.emitted_keys),
            }
            for d in self._deployed
        }

    # -- deployment ---------------------------------------------------------

    def deploy(self, pattern: PatternDef) -> None:
        if pattern.name in self._by_name:
            raise DeploymentError(f"pattern {pattern.name!r} already deployed")
        for stream in pattern.input_streams():
            if stream not in self.registry:
                raise UnknownStreamError(stream)
        self._check_acyclic(pattern)
        register_output_schema(pattern, self.registry)
        check_predicate_types(pattern, self.registry)
        deployed = _Deployed(
            pattern,
            self.registry,
            topo=len(self._deployed),
            now_ms=self.now_ms,
        )
        self._deployed.append(deployed)
        self._by_name[pattern.name] = deployed
        for stream in pattern.input_streams():
            self._consumers.setdefault(stream, []).append(deployed)

    def _check_acyclic(self, new: PatternDef) -> None:
        edges: dict[str, set[str]] = {}
        for d in self._deployed:
            for stream in d.pattern.input_streams():
                edges.setdefault(stream, set()).add(d.pattern.insert_into)
        for stream in new.input_streams():
            edges.setdefault(stream, set()).add(new.insert_into)
        # A cycle exists iff the new output reaches one of the new inputs.
        targets = set(new.input_streams())
        stack, seen = [new.insert_into], set()
        while stack:
            node = stack.pop()
            if node in targets:
                raise DeploymentError(
                    f"pattern {new.name!r} would create a stream cycle through {node!r}"
                )
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges.get(node, ()))

    # -- time ----------------------------------------------------------------

    def advance_clock(self, to_ms: int) -> list[Emission]:
        """Fire every batch boundary up to ``to_ms`` and move the clock there."""
        if to_ms < self.now_ms:
            raise TimeRegressionError(
                f"cannot advance from {self.now_ms} back to {to_ms}"
            )
        out: list[Emission] = []
        self._advance_to(to_ms, out)
        self.now_ms = max(self.now_ms, to_ms)
        return out

    def ingest(self, event: Event) -> list[Emission]:
        """Apply one event; returns the cascade of emissions it produced."""
        if event.stream not in self.registry:
            raise UnknownStreamError(event.stream)
        if self._wall_clock is None:
            ts = event.timestamp
            if ts < self.now_ms:
                raise TimeRegressionError(
                    f"event at {ts} behind engine clock {self.now_ms}"
                )
        else:
            ts = max(self.now_ms, self._wall_clock())
        self._ingest_count += 1
        out: list[Emission] = []
        self._advance_to(ts, out)
        self.now_ms = ts
        if ts == self._instant_ts:
            self._raw_phase += 1
        else:
            self._instant_ts = ts
            self._raw_phase = 1
        inboxes: dict[int, list[Event]] = {}
        for consumer in self._consumers.get(event.stream, ()):
            inboxes.setdefault(consumer.topo, []).append(event)
        self._sweep(inboxes, ts, self._raw_phase, out)
        return out

    def _advance_to(self, to_ms: int, out: list[Emission]) -> None:
        # Fire phases boundary time by boundary time; an empty batch fires
        # cheaply (no emissions), and a later boundary of another pattern may
        # be fed by an earlier one's cascade, so none may be skipped.
        while True:
            due_time: int | None = None
            for d in self._deployed:
                if d.next_boundary is None or d.next_boundary > to_ms:
                    continue
                if due_time is None or d.next_boundary < due_time:
                    due_time = d.next_boundary
            if due_time is None:
                return
            self._fire_boundary_phase(due_time, out)
            self.now_ms = max(self.now_ms, due_time)

    def _fire_boundary_phase(self, t: int, out: list[Emission]) -> None:
        inboxes: dict[int, list[Event]] = {}
        for d in self._deployed:
            if d.next_boundary != t:
                continue
            d.next_boundary += d.window_ms
            if d.kind == _Deployed.BATCH:
                for key, (count, last_fields) in d.groups.items():
                    fields = d._realize_group(count, last_fields, t)
                    self._emit(d, fields, t, phase=0, minor=0, out=out, inboxes=inboxes)
                d.groups = {}
            elif d.kind == _Deployed.CONJUNCTION:
                # Window rollover: open partial matches, their index and the
                # duplicate suppression set die with the batch.
                d.reset_partials()
        self._sweep(inboxes, t, 0, out)

    # -- cascade ---------------------------------------------------------------

    def _sweep(self, inboxes: dict[int, list[Event]], t: int, phase: int, out: list[Emission]) -> None:
        for d in self._deployed:
            events = inboxes.pop(d.topo, None)
            if not events:
                continue
            for event in events:
                self._consume(d, event, t, phase, out, inboxes)

    def _consume(self, d: _Deployed, event: Event, t: int, phase: int, out, inboxes) -> None:
        if d.kind == _Deployed.FILTER:
            literal, _ = d.compiled[0]
            if _literal_preds_pass(literal, event.fields):
                fields = d._realize_single(event.fields, t)
                self._emit(d, fields, t, phase=phase, minor=1, out=out, inboxes=inboxes)
            return
        if d.kind == _Deployed.BATCH:
            literal, _ = d.compiled[0]
            if not _literal_preds_pass(literal, event.fields):
                return
            key = tuple(event.fields[f] for f in d.group_fields)
            entry = d.groups.get(key)
            counted = 1
            if d.count_field is not None and event.fields[d.count_field] is None:
                counted = 0
            if entry is None:
                d.groups[key] = [counted, event.fields]
            else:
                entry[0] += counted
                entry[1] = event.fields
            return
        match = d.place(event)
        if match is not None:
            self._complete_match(d, match, t, phase, out, inboxes)

    def _complete_match(self, d: _Deployed, match: dict, t: int, phase: int, out, inboxes) -> None:
        if d.window_ms:
            key = d.correlation_key(match)
            if key in d.emitted_keys:
                return
            d.emitted_keys.add(key)
        fields = d._realize_match(match, t)
        self._emit(d, fields, t, phase=phase, minor=1, out=out, inboxes=inboxes)

    def _emit(self, d: _Deployed, fields: dict, t: int, phase: int, minor: int, out, inboxes) -> None:
        event = Event(
            stream=d.pattern.insert_into, fields=fields, timestamp=t, source=self.node_id
        )
        key = (t, phase, minor, d.topo, d.emit_seq)
        d.emit_seq += 1
        out.append(
            Emission(
                event=event,
                produced_by=d.name,
                target_tag=d.pattern.target,
                order_key=key,
            )
        )
        for consumer in self._consumers.get(event.stream, ()):
            inboxes.setdefault(consumer.topo, []).append(event)
