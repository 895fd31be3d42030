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
        self._less = frozenset((a, b) for a, up in above.items() for b in up)
        # up-sets in element order: chains extend along them
        self._above_ordered = {e: tuple(sorted(s, key=self._index.__getitem__)) for e, s in above.items()}
        self.covers = tuple(
            (a, b) for a in self.elements for b in sorted(cover_sets[a], key=self._index.__getitem__)
        )
        # the length of the longest chain, less one: the top cochain degree
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

    def strict_chains(self, members: frozenset) -> list:
        """All strictly increasing chains of the elements in `members`, by
        length, each length ordered lexicographically by the fixed element
        order.  One pass: the chains of each length extend those one
        shorter, in order, by the members above their end, in order, which
        keeps every length sorted.  These are the chains of the induced
        order on `members`, listed in the element order."""
        chains = [(e,) for e in self.elements if e in members]
        start = 0
        while start < len(chains):
            shorter, start = chains[start:], len(chains)
            chains += [c + (e,) for c in shorter for e in self._above_ordered[c[-1]] if e in members]
        return chains

    def chain_count(self, members: frozenset) -> int:
        """len(strict_chains(members)), without listing a chain.  The chains
        starting at e are e alone and e followed by a chain starting above
        e, and an element comes after everything above it in order of
        up-set size."""
        starting = {}  # e -> the number of chains inside members starting at e
        for e in sorted(self._index.keys() & members, key=lambda e: len(self._above[e])):
            starting[e] = 1 + sum(map(starting.__getitem__, self._above[e] & members))
        return sum(starting.values())

    def core(self, members: Iterable[str]) -> frozenset:
        """What is left of `members` once its beat points are removed, in
        element order and pass after pass, until none is left.  A beat point
        p is one whose members above it have a minimum or whose members
        below it have a maximum.  Removing it is a strong deformation
        retraction of the subspace (Stong, "Finite topological spaces",
        Trans. AMS 123, 1966), so by McCord's theorem (Duke Math. J. 33,
        1966) the order complexes of `members` and of its core are homotopy
        equivalent, and their cohomology is the same."""
        kept = set(members)
        removed = True
        while removed:
            removed = False
            for p in [e for e in self.elements if e in kept]:
                up = self._above[p] & kept
                down = [q for q in kept if p in self._above[q]]
                # a minimum lies below the rest; a unique maximal element is the maximum
                if any(len(self._above[u] & up) == len(up) - 1 for u in up) or sum(
                    self._above[u].isdisjoint(down) for u in down
                ) == 1:
                    kept.discard(p)
                    removed = True
        return frozenset(kept)

    def components(self, members: frozenset) -> list:
        """The connected components of the subspace `members`, each a
        frozenset, ordered by their first element.  Two members are joined
        when one lies above the other, not only along the base's covers: a
        subset may hold a < c without the b between them."""
        root = {e: e for e in self.elements if e in members}

        def find(e):
            while root[e] != e:
                root[e] = root[root[e]]
                e = root[e]
            return e

        for a in root:
            for b in self._above[a] & members:
                root[find(a)] = find(b)
        comps = {}
        for e in root:
            comps.setdefault(find(e), []).append(e)
        return [frozenset(v) for v in comps.values()]


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
