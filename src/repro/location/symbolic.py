"""Symbolic (hierarchical) location model.

Places are named nodes in a containment tree — campus > building > floor >
room — addressed by slash paths like ``"strathclyde/livingstone/L10/L10.01"``
or by their unique leaf name (``"L10.01"``) when unambiguous. This is the
"hierarchical model" of Section 3.3.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.errors import LocationError


class SymbolicHierarchy:
    """A containment tree over named places."""

    def __init__(self, root: str):
        self.root = root
        self._parent: Dict[str, Optional[str]] = {root: None}
        self._children: Dict[str, List[str]] = {root: []}

    # -- construction ---------------------------------------------------------

    def add_place(self, name: str, parent: str) -> str:
        """Add ``name`` beneath ``parent``; names must be globally unique."""
        if name in self._parent:
            raise LocationError(f"duplicate place name: {name!r}")
        if parent not in self._parent:
            raise LocationError(f"unknown parent place: {parent!r}")
        self._parent[name] = parent
        self._children[name] = []
        self._children[parent].append(name)
        return name

    def add_path(self, path: str) -> str:
        """Ensure every component of ``"a/b/c"`` exists (rooted at the tree root)."""
        cursor = self.root
        for component in [part for part in path.split("/") if part]:
            if component == cursor:
                continue
            if component not in self._parent:
                self.add_place(component, cursor)
            elif self._parent[component] != cursor:
                raise LocationError(
                    f"place {component!r} already exists under "
                    f"{self._parent[component]!r}, not {cursor!r}"
                )
            cursor = component
        return cursor

    # -- queries --------------------------------------------------------------

    def known(self, name: str) -> bool:
        return name in self._parent

    def parent(self, name: str) -> Optional[str]:
        self._require(name)
        return self._parent[name]

    def children(self, name: str) -> List[str]:
        self._require(name)
        return list(self._children[name])

    def ancestors(self, name: str) -> List[str]:
        """``name`` first, root last."""
        self._require(name)
        chain = [name]
        cursor = self._parent[name]
        while cursor is not None:
            chain.append(cursor)
            cursor = self._parent[cursor]
        return chain

    def path_of(self, name: str) -> str:
        """Full slash path from the root to ``name``."""
        return "/".join(reversed(self.ancestors(name)))

    def depth(self, name: str) -> int:
        return len(self.ancestors(name)) - 1

    def contains(self, outer: str, inner: str) -> bool:
        """True when ``inner`` is ``outer`` or lies beneath it."""
        self._require(inner)
        while inner is not None and inner != outer:
            inner = self._parent[inner]
        return inner is not None

    def common_ancestor(self, first: str, second: str) -> str:
        """Lowest common ancestor — the basis of symbolic distance."""
        first_chain = self.ancestors(first)
        second_chain = set(self.ancestors(second))
        for place in first_chain:
            if place in second_chain:
                return place
        return self.root

    def symbolic_distance(self, first: str, second: str) -> int:
        """Tree hop count between two places (0 when identical).

        A coarse but total distance: rooms on one floor are closer than
        rooms on different floors, which suffices for Which policies when no
        geometric model is attached.
        """
        ancestor = self.common_ancestor(first, second)
        return (self.depth(first) - self.depth(ancestor)) + (
            self.depth(second) - self.depth(ancestor)
        )

    def leaves(self) -> List[str]:
        return [name for name, kids in self._children.items() if not kids]

    def descendants(self, name: str) -> List[str]:
        """All places beneath ``name`` (not including it), depth-first."""
        self._require(name)
        found: List[str] = []
        stack = list(self._children[name])
        while stack:
            place = stack.pop()
            found.append(place)
            stack.extend(self._children[place])
        return found

    def all_places(self) -> List[str]:
        return list(self._parent)

    def _require(self, name: str) -> None:
        if name not in self._parent:
            raise LocationError(f"unknown place: {name!r}")

    def __contains__(self, name: str) -> bool:
        return self.known(name)

    def __len__(self) -> int:
        return len(self._parent)

    def __repr__(self) -> str:
        return f"SymbolicHierarchy(root={self.root!r}, places={len(self)})"
