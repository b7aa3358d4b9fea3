"""Globally unique identifiers (GUIDs) for entities, ranges and messages.

Section 3 of the paper: the SCINET "provides the necessary level of
abstraction in order for entities to communicate across many heterogeneous
network types using GUIDs rather than traditional addressing schemes."

GUIDs are fixed-width unsigned integers rendered in hexadecimal. The width is
configurable (default 128 bits) and the hex rendering is what the overlay's
prefix routing operates on, so GUIDs expose digit-level helpers
(:meth:`GUID.digit`, :meth:`GUID.shared_prefix_len`).

Determinism: GUIDs are minted through a :class:`GuidFactory` seeded by the
caller. Two simulation runs with the same seed mint identical id streams,
which keeps every benchmark and test reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.memo import decode_memo

#: Number of bits in a GUID.
GUID_BITS = 128

#: Bits encoded by one hex digit.
_BITS_PER_DIGIT = 4

#: Number of hex digits in a GUID's canonical rendering.
GUID_DIGITS = GUID_BITS // _BITS_PER_DIGIT

_HEX_FORMAT = f"0{GUID_DIGITS}x"


#: exclusive upper bound of a GUID's value
_LIMIT = 1 << GUID_BITS

_set = object.__setattr__


@dataclass(frozen=True, order=True, slots=True)
class GUID:
    """An immutable 128-bit identifier with hex-digit helpers.

    Instances are hashable and totally ordered by numeric value, so they can
    key dictionaries (routing tables, registrars) and sort deterministically.

    The hash is computed once, at construction, and is exactly the hash the
    generated dataclass method gave, ``hash((value,))``: sets of GUIDs keep
    their iteration order (and the simulation its event order) with it.
    ``hex`` is rendered on first use and kept in a slot; neither it nor the
    hash takes part in equality or ordering.
    """

    value: int
    _hash: int = field(init=False, repr=False, compare=False)
    _hex: Optional[str] = field(init=False, repr=False, compare=False,
                                default=None)

    def __init__(self, value: int):
        if not 0 <= value < _LIMIT:
            raise ValueError(f"GUID value out of range: {value!r}")
        # object.__setattr__ because the dataclass is frozen
        _set(self, "value", value)
        _set(self, "_hash", hash((value,)))
        _set(self, "_hex", None)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.value == other.value  # type: ignore[attr-defined]
        return NotImplemented

    @staticmethod
    @decode_memo
    def from_hex(text: str) -> "GUID":
        """Parse a GUID from its canonical hex rendering (``ValueError`` for
        any other text), memoised: a repeated text is the same GUID."""
        guid = GUID(int(text, 16))
        if guid.hex != text:  # "0x1F", " 1f", "1_f" name a GUID to int()
            raise ValueError(f"not a canonical GUID: {text!r}")
        return guid

    @classmethod
    def from_name(cls, name: str) -> "GUID":
        """Derive a stable GUID from a human-readable name.

        Used for well-known directory keys (e.g. the range directory root)
        where every node must independently agree on the identifier. An
        FNV-1a fold provides the raw hash and a splitmix64-style finalizer
        provides avalanche, so similar names ("place:1", "place:2") land far
        apart on the GUID ring. Stable across runs and Python versions,
        unlike :func:`hash`.
        """
        mask = 0xFFFFFFFFFFFFFFFF

        def mix(value: int) -> int:
            value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & mask
            value = (value ^ (value >> 27)) * 0x94D049BB133111EB & mask
            return value ^ (value >> 31)

        acc = 0xCBF29CE484222325
        for byte in name.encode("utf-8"):
            acc = ((acc ^ byte) * 0x100000001B3) & mask
        low = mix(acc)
        high = mix(acc ^ 0x9E3779B97F4A7C15)
        return cls((high << 64) | low)

    @property
    def hex(self) -> str:
        """Canonical fixed-width lowercase hex rendering."""
        text = self._hex
        if text is None:
            text = format(self.value, _HEX_FORMAT)
            _set(self, "_hex", text)
        return text

    def digit(self, index: int) -> int:
        """Return hex digit ``index`` (0 = most significant)."""
        if not 0 <= index < GUID_DIGITS:
            raise IndexError(f"digit index out of range: {index}")
        shift = (GUID_DIGITS - 1 - index) * _BITS_PER_DIGIT
        return (self.value >> shift) & 0xF

    def shared_prefix_len(self, other: "GUID") -> int:
        """Length of the common hex-digit prefix with ``other``.

        This is the quantity Pastry-style prefix routing maximises at each
        hop; it is computed arithmetically rather than via string rendering.
        """
        diff = self.value ^ other.value
        if diff == 0:
            return GUID_DIGITS
        return (GUID_BITS - diff.bit_length()) // _BITS_PER_DIGIT

    def distance(self, other: "GUID") -> int:
        """Circular numeric distance used for closest-node tie-breaking."""
        span = 1 << GUID_BITS
        raw = abs(self.value - other.value)
        return min(raw, span - raw)

    def __str__(self) -> str:
        return self.hex[:8]  # short form for logs; full form via .hex

    def __repr__(self) -> str:
        return f"GUID({self.hex[:12]}..)"


@dataclass
class GuidFactory:
    """Deterministic minting of unique GUIDs from a seed.

    >>> factory = GuidFactory(seed=7)
    >>> a, b = factory.mint(), factory.mint()
    >>> a != b
    True
    >>> GuidFactory(seed=7).mint() == a
    True
    """

    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)
    _minted: set = field(init=False, repr=False, default_factory=set)

    def __post_init__(self):
        self._rng = random.Random(self.seed)

    def mint(self) -> GUID:
        """Mint a fresh GUID, guaranteed unique within this factory."""
        while True:
            candidate = self._rng.getrandbits(GUID_BITS)
            if candidate not in self._minted:
                self._minted.add(candidate)
                return GUID(candidate)

    def mint_many(self, count: int) -> list:
        """Mint ``count`` distinct GUIDs."""
        return [self.mint() for _ in range(count)]
