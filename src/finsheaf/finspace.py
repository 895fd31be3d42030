"""Finite T0 spaces as posets carrying the Alexandrov topology.

Convention, fixed once and tested: OPEN = UP-SET.  The minimal open set of
an element p is its up-set {q : q >= p}; for a face poset this is the open
star of the cell.  Mixing the two possible conventions corrupts every
computation downstream, so all openness checks route through `is_up_set`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InputError


class FinitePoset:
    """A finite partial order on labelled elements.

    Constructed from any generating set of strict relations a < b; the
    transitive closure is taken and cover relations (a < b with nothing in
    between) are derived.  Element order is insertion order and fixes the
    enumeration order of chains, so runs are reproducible.
    """

    def __init__(self, elements: Iterable[str], relations: Iterable[Sequence[str]] = ()):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise InputError("element labels must be unique")
        self._index = {e: i for i, e in enumerate(self.elements)}
        less = set()
        pairs = [tuple(p) for p in relations]
        for a, b in pairs:
            if a not in self._index or b not in self._index:
                raise InputError(f"relation ({a},{b}) references unknown element")
            if a != b:
                less.add((a, b))
        # transitive closure
        changed = True
        while changed:
            changed = False
            for a, b in list(less):
                for c, d in list(less):
                    if b == c and (a, d) not in less:
                        less.add((a, d))
                        changed = True
        for a, b in less:
            if (b, a) in less:
                raise InputError(f"relations contain a cycle through {a} and {b}")
        self._less = frozenset(less)
        above = {e: set() for e in self.elements}
        below = {e: set() for e in self.elements}
        for a, b in less:
            above[a].add(b)
            below[b].add(a)
        self._above = {e: frozenset(s) for e, s in above.items()}
        self._below = {e: frozenset(s) for e, s in below.items()}
        # up-sets in element order: chains extend along them
        self._above_ordered = {e: tuple(sorted(s, key=self._index.__getitem__)) for e, s in above.items()}
        covers = []
        for a, b in sorted(less, key=lambda ab: (self._index[ab[0]], self._index[ab[1]])):
            if not any((a, c) in less and (c, b) in less for c in above[a]):
                covers.append((a, b))
        self.covers = tuple(covers)
        # height bound cuts chain enumeration early
        self.height = self._compute_height()

    def _compute_height(self) -> int:
        depth = {}
        for e in self._topo_order():
            depth[e] = 1 + max((depth[c] for c, d in self.covers if d == e), default=0)
        return max(depth.values(), default=0) - 1

    def _topo_order(self):
        return sorted(self.elements, key=lambda e: (len(self._below[e]), self._index[e]))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self._index

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.elements == other.elements
            and self._less == other._less
        )

    def __hash__(self):
        return hash((self.elements, self._less))

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements, {len(self.covers)} covers)"

    def lt(self, a: str, b: str) -> bool:
        return (a, b) in self._less

    def leq(self, a: str, b: str) -> bool:
        return a == b or (a, b) in self._less

    def up_set(self, p: str) -> frozenset:
        if p not in self._index:
            raise InputError(f"unknown element {p!r}")
        return self._above[p] | {p}

    def down_set(self, p: str) -> frozenset:
        if p not in self._index:
            raise InputError(f"unknown element {p!r}")
        return self._below[p] | {p}

    def min_open(self, p: str) -> "OpenSet":
        """The smallest open set containing p: its up-set."""
        return OpenSet(self, self.up_set(p))

    def is_up_set(self, members: Iterable[str]) -> bool:
        s = set(members)
        for p in s:
            if p not in self._index:
                raise InputError(f"unknown element {p!r}")
        return all(self._above[p] <= s for p in s)

    def is_open(self, members: Iterable[str]) -> bool:
        return self.is_up_set(members)

    def is_closed(self, members: Iterable[str]) -> bool:
        s = set(members)
        return self.is_open(set(self.elements) - s)

    def subposet(self, members: Iterable[str]) -> "FinitePoset":
        """The induced order on an arbitrary subset (subspace topology)."""
        s = set(members)
        for p in s:
            if p not in self._index:
                raise InputError(f"unknown element {p!r}")
        kept = tuple(e for e in self.elements if e in s)
        rels = [(a, b) for (a, b) in self._less if a in s and b in s]
        return FinitePoset(kept, rels)

    def open_subspace(self, members: Iterable[str]) -> "FinitePoset":
        if not self.is_open(members):
            raise InputError("subset is not open (not an up-set)")
        return self.subposet(members)

    def closed_subspace(self, members: Iterable[str]) -> "FinitePoset":
        if not self.is_closed(members):
            raise InputError("subset is not closed (complement is not an up-set)")
        return self.subposet(members)

    def strict_chains(self, k: int) -> list:
        """All strictly increasing (k+1)-chains, ordered lexicographically
        by the fixed element order."""
        if k < 0:
            raise InputError("chain length must be >= 0")
        if k > self.height:
            return []
        chains = []

        def extend(chain, last):
            if len(chain) == k + 1:
                chains.append(tuple(chain))
                return
            for e in self._above_ordered[last]:
                chain.append(e)
                extend(chain, e)
                chain.pop()

        for e in self.elements:
            extend([e], e)
        return chains

    def connected_components(self) -> list:
        """Partition of the elements by the equivalence closure of comparability."""
        parent = {e: e for e in self.elements}

        def find(e):
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            return e

        for a, b in self.covers:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        comps = {}
        for e in self.elements:
            comps.setdefault(find(e), []).append(e)
        # deterministic: order components by first element
        return [frozenset(v) for _, v in sorted(comps.items(), key=lambda kv: self._index[kv[1][0]])]


class OpenSet:
    """An open subset (up-set) of a finite poset."""

    def __init__(self, parent: FinitePoset, members: Iterable[str]):
        members = frozenset(members)
        if not parent.is_up_set(members):
            raise InputError("members do not form an up-set")
        self.parent = parent
        self.members = members

    def __contains__(self, e):
        return e in self.members

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (
            isinstance(other, OpenSet)
            and self.parent == other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.parent, self.members))

    def __repr__(self):
        return f"OpenSet({sorted(self.members)})"

    def subspace(self) -> FinitePoset:
        return self.parent.subposet(self.members)


class RegularCWData:
    """Cells of a regular CW complex: dimension tags plus face incidences.

    The face lists may be any generating set; the face relation is closed
    transitively.  Faces must have strictly smaller dimension.
    """

    def __init__(self, cells: Sequence[tuple]):
        self.names = []
        self.dim = {}
        self.faces = {}
        for name, dim, faces in cells:
            if name in self.dim:
                raise InputError(f"duplicate cell {name!r}")
            self.names.append(name)
            self.dim[name] = dim
            self.faces[name] = list(faces)
        for name, fs in self.faces.items():
            for f in fs:
                if f not in self.dim:
                    raise InputError(f"cell {name!r} has dangling face reference {f!r}")
                if self.dim[f] >= self.dim[name]:
                    raise InputError(f"face {f!r} of {name!r} does not have smaller dimension")


def face_poset(cw: RegularCWData) -> FinitePoset:
    """Elements = cells, order = face relation; open sets are up-sets, so the
    minimal open set of a cell is its open star."""
    rels = [(f, name) for name in cw.names for f in cw.faces[name]]
    return FinitePoset(cw.names, rels)
