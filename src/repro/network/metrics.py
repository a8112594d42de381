"""Bit accounting for communication-complexity measurements.

Every benchmark in this repository is ultimately a statement about bits
sent, so metering is exact (integer bits, no sampling) and structured:
counters are keyed by a hierarchical dot-separated tag such as
``"gen3.matching.symbols"`` or ``"gen3.matching.M.bsb"``, and can be
aggregated by prefix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple


@dataclass(frozen=True)
class MeterSnapshot:
    """Immutable point-in-time view of a :class:`BitMeter`."""

    bits_by_tag: Dict[str, int]
    messages_by_tag: Dict[str, int]

    @property
    def total_bits(self) -> int:
        return sum(self.bits_by_tag.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_tag.values())

    def bits_with_prefix(self, prefix: str) -> int:
        """Sum of bits over all tags equal to or nested under ``prefix``."""
        return sum(
            bits
            for tag, bits in self.bits_by_tag.items()
            if tag == prefix or tag.startswith(prefix + ".")
        )

    def diff(self, earlier: "MeterSnapshot") -> "MeterSnapshot":
        """Bits/messages accumulated since ``earlier``.

        Deltas can be negative — e.g. diffing across a
        :meth:`BitMeter.reset` — and tags present only in ``earlier``
        are reported with their (negative) delta rather than dropped, so
        a diff never silently hides traffic that disappeared.
        """

        def deltas(now: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
            return {
                tag: now.get(tag, 0) - before.get(tag, 0)
                for tag in set(now) | set(before)
                if now.get(tag, 0) != before.get(tag, 0)
            }

        return MeterSnapshot(
            bits_by_tag=deltas(self.bits_by_tag, earlier.bits_by_tag),
            messages_by_tag=deltas(
                self.messages_by_tag, earlier.messages_by_tag
            ),
        )


@dataclass
class BitMeter:
    """Mutable accumulator of transmitted bits and message counts."""

    _bits: Counter = field(default_factory=Counter)
    _messages: Counter = field(default_factory=Counter)

    def add(self, tag: str, bits: int, messages: int = 1) -> None:
        """Record ``bits`` transmitted under ``tag``."""
        if bits < 0:
            raise ValueError("bits must be non-negative, got %d" % bits)
        if messages < 0:
            raise ValueError("messages must be non-negative, got %d" % messages)
        self._bits[tag] += bits
        self._messages[tag] += messages

    @property
    def total_bits(self) -> int:
        return sum(self._bits.values())

    @property
    def total_messages(self) -> int:
        return sum(self._messages.values())

    def bits_with_prefix(self, prefix: str) -> int:
        """Bits under ``prefix`` or any nested tag."""
        return sum(
            bits
            for tag, bits in self._bits.items()
            if tag == prefix or tag.startswith(prefix + ".")
        )

    def tags(self) -> Iterator[str]:
        return iter(sorted(self._bits))

    def snapshot(self) -> MeterSnapshot:
        return MeterSnapshot(
            bits_by_tag=dict(self._bits),
            messages_by_tag=dict(self._messages),
        )

    def reset(self) -> None:
        self._bits.clear()
        self._messages.clear()

    def items(self) -> Iterator[Tuple[str, int]]:
        """(tag, bits) pairs in sorted tag order."""
        return iter(sorted(self._bits.items()))
