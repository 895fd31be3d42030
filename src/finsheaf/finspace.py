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
        succ = {e: set() for e in self.elements}
        for a, b in (tuple(p) for p in relations):
            if a not in self._index or b not in self._index:
                raise InputError(f"relation ({a},{b}) references unknown element")
            if a != b:
                succ[a].add(b)
        # one depth-first pass: the up-set of a is the union over its direct
        # successors s of {s} and the up-set of s; the covers of a are the
        # successors that lie in no such up-set
        above = {}
        cover_sets = {}
        rise = {}  # length of the longest chain of covers starting at a
        on_path = set()
        for root in self.elements:
            if root in above:
                continue
            stack = [(root, iter(succ[root]))]
            on_path.add(root)
            while stack:
                a, todo = stack[-1]
                for b in todo:
                    if b in on_path:
                        raise InputError(f"relations contain a cycle through {a} and {b}")
                    if b not in above:
                        stack.append((b, iter(succ[b])))
                        on_path.add(b)
                        break
                else:
                    stack.pop()
                    on_path.discard(a)
                    via = set().union(*(above[b] for b in succ[a]))
                    cover_sets[a] = succ[a] - via
                    above[a] = frozenset(via | succ[a])
                    rise[a] = 1 + max((rise[b] for b in cover_sets[a]), default=-1)
        self._above = {e: above[e] for e in self.elements}
        below = {e: set() for e in self.elements}
        for a, up in above.items():
            for b in up:
                below[b].add(a)
        self._below = {e: frozenset(s) for e, s in below.items()}
        self._less = frozenset((a, b) for a, up in above.items() for b in up)
        # up-sets in element order: chains extend along them
        self._above_ordered = {e: tuple(sorted(s, key=self._index.__getitem__)) for e, s in above.items()}
        self.covers = tuple(
            (a, b) for a in self.elements for b in sorted(cover_sets[a], key=self._index.__getitem__)
        )
        # height bound cuts chain enumeration early
        self.height = max(rise.values(), default=-1)

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
