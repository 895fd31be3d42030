"""Exact arithmetic of integer matrices and finitely generated abelian groups.

Everything here works over plain Python ints, which are arbitrary precision,
so Smith normal form never overflows no matter how badly the intermediate
entries blow up.  Matrices are immutable and sparse: each row is a dict of
its nonzero entries, so building, multiplying and comparing them costs time
in proportion to the nonzeros.  The Smith reduction eliminates on a copy of
those rows, unit pivots of least fill first, then entries of least absolute
value, and keeps its unimodular transforms as the recorded operations.
Groups are given by a generator count and an integer relation matrix, with
the canonical form (rank + invariant factors) computed through Smith normal
form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from typing import Callable, Iterable, Optional, Sequence

from .errors import ContractViolation, InputError


class IntMatrix:
    """Immutable sparse integer matrix: row i is the dict `_sparse[i]` of
    its nonzero entries {column: entry}.

    Block matrices (cochain differentials, chain maps, direct sums) are built
    only through `from_blocks`, which adds signed blocks into a zero matrix.
    `data` is the dense view, built on each use.
    """

    __slots__ = ("rows", "cols", "_sparse", "_hash")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable[int]]):
        data = [tuple(map(int, row)) for row in entries]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise InputError(f"expected {rows}x{cols} entries")
        IntMatrix._of(rows, cols, [{j: a for j, a in enumerate(row) if a} for row in data], self)

    @classmethod
    def _of(cls, rows: int, cols: int, sparse: list, m: Optional["IntMatrix"] = None) -> "IntMatrix":
        """The matrix with the given sparse rows, unchecked: the package
        builds them itself, from ints, and never changes them afterwards."""
        m = cls.__new__(cls) if m is None else m
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_sparse", sparse)
        object.__setattr__(m, "_hash", None)
        return m

    @classmethod
    def from_blocks(cls, rows: int, cols: int, blocks: Iterable[tuple]) -> "IntMatrix":
        """The rows x cols matrix that is the sum of the given blocks.

        Each block is (row offset, column offset, sign, matrix) and adds
        sign * matrix with its top-left entry at (row offset, column offset).
        Blocks may overlap, and overlapping entries add up; a block that does
        not fit raises IndexError.
        """
        out = [{} for _ in range(rows)]
        for r0, c0, sign, block in blocks:
            if min(r0, c0) < 0 or r0 + block.rows > rows or c0 + block.cols > cols:
                raise IndexError(f"{block.rows}x{block.cols} block at ({r0}, {c0}) does not fit {rows}x{cols}")
            for i, row in enumerate(block._sparse, r0):
                if row:
                    _add_into(out[i], row, sign, c0)
        return cls._of(rows, cols, out)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of(rows, cols, [{} for _ in range(rows)])

    @classmethod
    def diagonal(cls, entries: Sequence[int], rows: int, cols: int) -> "IntMatrix":
        if len(entries) > min(rows, cols):
            raise IndexError(f"{len(entries)} diagonal entries do not fit {rows}x{cols}")
        sparse = [{i: int(d)} if d else {} for i, d in enumerate(entries)]
        return cls._of(rows, cols, sparse + [{} for _ in range(rows - len(entries))])

    @property
    def data(self) -> tuple:
        return tuple(tuple(row.get(j, 0) for j in range(self.cols)) for row in self._sparse)

    def __eq__(self, other) -> bool:
        same_shape = isinstance(other, IntMatrix) and (self.rows, self.cols) == (other.rows, other.cols)
        return same_shape and self._sparse == other._sparse

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self._sparse)))
        return self._hash

    def __setattr__(self, name, value):
        # only the cached hash may be set; `_of` sets the rest directly
        if name != "_hash":
            raise AttributeError("IntMatrix is immutable")
        object.__setattr__(self, name, value)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {list(map(list, self.data))})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # each nonzero a = self[i][k] adds a * (row k of other) to row i
        right = other._sparse
        out = [{} for _ in range(self.rows)]
        for acc, row in zip(out, self._sparse):
            for k, a in row.items():
                if right[k]:
                    _add_into(acc, right[k], a, 0)
        return IntMatrix._of(self.rows, other.cols, out)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(self.rows, self.cols, [{j: -a for j, a in row.items()} for row in self._sparse])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError(f"cannot subtract {other.rows}x{other.cols} from {self.rows}x{self.cols}")
        return IntMatrix.from_blocks(self.rows, self.cols, [(0, 0, 1, self), (0, 0, -1, other)])

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise InputError("hstack: row counts differ")
        c = self.cols
        glued = [{**a, **{c + j: e for j, e in b.items()}} if b else a for a, b in zip(self._sparse, other._sparse)]
        return IntMatrix._of(self.rows, c + other.cols, glued)

    def submatrix_rows(self, row_indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix._of(len(row_indices), self.cols, [self._sparse[i] for i in row_indices])

    def is_zero(self) -> bool:
        return not any(self._sparse)


def _add_into(target: dict, row: dict, q: int, offset: int) -> None:
    """target += q * row, with row's columns shifted by offset; zeros dropped."""
    for j, e in row.items():
        j += offset
        v = target.get(j, 0) + q * e
        if v:
            target[j] = v
        else:
            target.pop(j, None)


def block_diag(blocks: Sequence[IntMatrix]) -> IntMatrix:
    placed = []
    r0 = c0 = 0
    for b in blocks:
        placed.append((r0, c0, 1, b))
        r0 += b.rows
        c0 += b.cols
    return IntMatrix.from_blocks(r0, c0, placed)


class SmithDecomposition:
    """U @ M @ V == D with U, V unimodular and D in Smith normal form.

    The decomposition is kept as the reduction that produced it.  With E
    the recorded row operations and F the recorded column operations,
    P and Q the orders that bring the pivot rows and columns first and S
    the pivot signs, U = S·P·E and V = F·Q.  Each transform or inverse is
    applied to a whole matrix by one pass of its operations over sparse rows
    (`_transform`): the matrices `U`, `V`, `U_inv` and `V_inv`, built on
    first access, kernel bases, canonical sections and every solve
    (`_smith_solve`) pass all their columns at once.
    """

    def __init__(self, shape, row_ops, col_ops, row_order, col_order, signs, diagonal):
        self.shape = shape
        self.diagonal = diagonal
        self._row_ops = row_ops  # (k, i, q): row k += q * row i, in order
        self._col_ops = col_ops  # (l, j, q): column l += q * column j, in order
        self._row_order = row_order  # row t of D comes from row row_order[t]
        self._col_order = col_order
        self._signs = signs  # of the pivot rows, which come first

    @property
    def num_nonzero(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def _transform(self, name: str, rows: list) -> list:
        """The sparse rows of T @ X, for T the transform `name` and `rows`
        the sparse rows of X, which the pass takes over and changes.

        T is a signed reordering `before`, then row operations, then a
        signed reordering `after`: position t goes to, or comes from, the
        row and sign at index t."""
        n = self.shape[name[0] == "V"]
        if len(rows) != n:
            raise InputError(f"{len(rows)} rows != {n}")
        if name[0] == "U":
            if self._row_ops is None:
                raise ContractViolation(f"{name} of a decomposition whose row operations were dropped")
            order = [(i, self._signs[t] if t < len(self._signs) else 1) for t, i in enumerate(self._row_order)]
            if name == "U":  # S·P·E
                before, ops, after = None, self._row_ops, order
            else:  # E⁻¹·Pᵀ·S
                before, ops, after = order, ((k, i, -q) for k, i, q in reversed(self._row_ops)), None
        else:
            order = [(j, 1) for j in self._col_order]
            if name == "V":  # F·Q
                before, ops, after = order, ((j, l, q) for l, j, q in reversed(self._col_ops)), None
            else:  # Qᵀ·F⁻¹
                before, ops, after = None, ((j, l, -q) for l, j, q in self._col_ops), order
        if before is not None:
            placed = [None] * n
            for (i, s), row in zip(before, rows):
                placed[i] = row if s > 0 else {k: -v for k, v in row.items()}
            rows = placed
        for a, b, q in ops:
            if rows[b]:
                _add_into(rows[a], rows[b], q, 0)
        if after is None:
            return rows
        return [rows[i] if s > 0 else {k: -v for k, v in rows[i].items()} for i, s in after]

    def drop_row_operations(self) -> None:
        """Free the row operations when only V and V⁻¹ will be read; U and
        U⁻¹ raise ContractViolation from then on."""
        self._row_ops = None

    def _columns(self, name: str, first: int = 0) -> IntMatrix:
        """Columns first, first + 1, ... of the transform `name`."""
        n = self.shape[name[0] == "V"]
        picked = [{t - first: 1} if t >= first else {} for t in range(n)]
        return IntMatrix._of(n, n - first, self._transform(name, picked))

    U = cached_property(lambda self: self._columns("U"))
    U_inv = cached_property(lambda self: self._columns("U_inv"))
    V = cached_property(lambda self: self._columns("V"))
    V_inv = cached_property(lambda self: self._columns("V_inv"))
    D = cached_property(lambda self: IntMatrix.diagonal(self.diagonal, *self.shape))


class _WorkingRows:
    """The rows `smith_decompose` eliminates on, and its choice of pivot.

    `rows` maps each nonzero row to its {column: entry} dict, copied in
    ascending column order; `where` maps each column to its rows.  `pivot`
    picks the ±1 entry of least fill, (row count - 1)·(column count - 1),
    the first in row order among equals and then the first in its row; with
    no unit entry, the first entry of least absolute value.  This is
    Markowitz's rule, without a rescan of every entry per pivot: each row's
    best unit entry is kept, with a heap of (fill, row, column) over them.
    A row in `changed`, whose entries changed since the last pick, is
    rescanned.  In any other row only the counts of the columns in
    `touched` moved, so each such unit entry's new fill is compared with the
    row's kept best (the count maintenance of Duff, Erisman and Reid): a
    lower fill becomes the best, and the row is rescanned only when the best
    entry's own fill rose or another entry ties it, since the first in row
    order must win.
    """

    def __init__(self, M: IntMatrix):
        self.rows = {i: dict(sorted(row.items())) for i, row in enumerate(M._sparse) if row}
        self.where = {}
        for i, row in self.rows.items():
            for j in row:
                self.where.setdefault(j, set()).add(i)
        self.best = {}  # row -> (fill, column) of its best unit entry
        self.heap = []
        self.changed, self.touched = set(self.rows), set()

    def add(self, k: int, i: int, q: int) -> None:
        """Row k += q * row i; row k is dropped when it becomes zero."""
        rows, where, target = self.rows, self.where, self.rows[k]
        for l, e in rows[i].items():
            v = target.get(l, 0) + q * e
            if v:
                if l not in target:
                    where[l].add(k)
                    self.touched.add(l)
                target[l] = v
            else:
                del target[l]
                where[l].discard(k)
                self.touched.add(l)
        self.changed.add(k)
        if not target:
            del rows[k]

    def _rescan(self, i: int) -> None:
        """Recompute the best unit entry of row i from every entry."""
        found = None
        entries = self.rows.get(i, {})
        spare = len(entries) - 1
        where = self.where
        for j, a in entries.items():
            if a == 1 or a == -1:
                fill = spare * (len(where[j]) - 1)
                if found is None or fill < found[0]:
                    found = (fill, j)
                    if not fill:
                        break
        if found is None:
            self.best.pop(i, None)
        elif found != self.best.get(i):
            self.best[i] = found
            heappush(self.heap, (found[0], i, found[1]))

    def pivot(self) -> Optional[tuple]:
        """(row, column) of the next pivot; None when no entry is left."""
        rows, where, best, heap, changed = self.rows, self.where, self.best, self.heap, self.changed
        for i in changed:
            self._rescan(i)
        for l in self.touched:
            column = where.get(l, ())
            count = len(column) - 1
            for i in column:
                if i in changed:
                    continue
                entries = rows[i]
                a = entries[l]
                if a != 1 and a != -1:
                    continue
                fill = (len(entries) - 1) * count
                kept_fill, kept_col = best[i]
                if fill < kept_fill:
                    best[i] = (fill, l)
                    heappush(heap, (fill, i, l))
                elif (fill == kept_fill) != (l == kept_col):
                    self._rescan(i)  # a tie in another column, or the best rose
        changed.clear()
        self.touched.clear()
        while heap:
            fill, i, j = heap[0]
            if best.get(i) == (fill, j):
                return i, j
            heappop(heap)
        if rows:
            return min(((i, j) for i, entries in rows.items() for j in entries), key=lambda ij: abs(rows[ij[0]][ij[1]]))
        return None


def smith_decompose(M: IntMatrix) -> SmithDecomposition:
    """The Smith form of M, by one sparse reduction.

    Each step takes a pivot p (see `_WorkingRows`) and clears its column
    with floor-quotient row operations, then its row with floor-quotient
    column operations; once the column is clear these touch only the pivot
    row, so they are recorded, not carried out.  A nonzero remainder is
    smaller than p, and the next step takes a pivot again.  A pivot with its
    row and column clear is kept when it divides every entry left; otherwise
    a row holding a non-multiple is added to the pivot row.  So each kept
    pivot divides the ones after it, the units come first, and D needs no
    sorting.
    """
    r, c = M.rows, M.cols
    work = _WorkingRows(M)
    rows, where = work.rows, work.where
    row_ops, col_ops, pivots = [], [], []
    while True:
        pivot = work.pivot()
        if pivot is None:
            break
        i, j = pivot
        p = rows[i][j]
        for k in where[j] - {i}:
            q = -(rows[k][j] // p)
            row_ops.append((k, i, q))
            work.add(k, i, q)
        if len(where[j]) > 1:
            continue  # a nonzero remainder in column j
        remainders = {}
        for l, e in rows[i].items():
            if l != j:
                q = -(e // p)
                col_ops.append((l, j, q))
                e += q * p
                if e:
                    remainders[l] = e
                else:
                    where[l].discard(i)
                    work.touched.add(l)
        rows[i] = {j: p, **remainders}
        work.changed.add(i)
        if remainders:
            continue
        if p != 1 and p != -1:
            bad = next((k for k, entries in rows.items() if any(a % p for a in entries.values())), None)
            if bad is not None:
                row_ops.append((i, bad, 1))
                work.add(i, bad, 1)
                continue
        del rows[i]
        del where[j]
        pivots.append((i, j, p))

    pivot_rows, pivot_cols = [i for i, _, _ in pivots], [j for _, j, _ in pivots]
    taken_rows, taken_cols = set(pivot_rows), set(pivot_cols)
    return SmithDecomposition(
        shape=(r, c),
        row_ops=row_ops,
        col_ops=col_ops,
        row_order=pivot_rows + [i for i in range(r) if i not in taken_rows],
        col_order=pivot_cols + [j for j in range(c) if j not in taken_cols],
        signs=[1 if p > 0 else -1 for _, _, p in pivots],
        diagonal=tuple([abs(p) for _, _, p in pivots] + [0] * (min(r, c) - len(pivots))),
    )


def kernel_basis(M: IntMatrix) -> IntMatrix:
    """Columns form a Z-basis of {x : M @ x = 0}: the identity when M has
    no rows, empty when it has no columns."""
    s = smith_decompose(M)
    return s._columns("V", s.num_nonzero)


def solve(M: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """An integer X with M @ X == B, or None when some column of B has no
    integral solution.  A zero B needs no Smith form: X is zero."""
    if B.rows != M.rows:
        raise InputError(f"right-hand side has {B.rows} rows, not {M.rows}")
    if B.is_zero():
        return IntMatrix.zero(M.cols, B.cols)
    return _smith_solve(smith_decompose(M), B)


def _smith_solve(s: SmithDecomposition, B: IntMatrix, lift: bool = True) -> Optional[IntMatrix]:
    """X with M @ X == B for the decomposition s = (U, D, V) of some M, or
    None when some column of B has no integral solution.

    All columns go through one pass of U, a division by D, and one pass of
    V.  With lift False the V pass is skipped and Z with D @ Z == U @ B is
    returned, which is all a membership test needs (X = V @ Z)."""
    ub = s._transform("U", [dict(row) for row in B._sparse])
    k = s.num_nonzero  # the nonzero diagonal entries come first
    if any(ub[k:]):
        return None
    z = []
    for d, row in zip(s.diagonal, ub[:k]):
        if d != 1:
            if any(v % d for v in row.values()):
                return None
            row = {j: v // d for j, v in row.items()}
        z.append(row)
    z += [{} for _ in range(s.shape[1] - k)]
    return IntMatrix._of(s.shape[1], B.cols, s._transform("V", z) if lift else z)


class PresentedAbGroup:
    """Finitely generated abelian group: free generators modulo integer relations.

    The relation matrix has one column per relation.  Canonical form is
    (rank, invariant factors > 1 in ascending divisibility order); two groups
    are isomorphic iff their canonical forms are equal.
    """

    __slots__ = ("generator_count", "relations", "__dict__")

    def __init__(self, generator_count: int, relations: IntMatrix):
        if relations.rows != generator_count:
            raise InputError("relation matrix must have one row per generator")
        self.generator_count = generator_count
        self.relations = relations

    @classmethod
    def free(cls, n: int) -> "PresentedAbGroup":
        return cls(n, IntMatrix.zero(n, 0))

    @classmethod
    def trivial(cls) -> "PresentedAbGroup":
        return cls.free(0)

    @classmethod
    def from_canonical_form(cls, rank: int, factors: Sequence[int]) -> "PresentedAbGroup":
        n = rank + len(factors)
        g = cls(n, IntMatrix.diagonal(list(factors), n, len(factors)))
        if all(d > 1 for d in factors) and all(b % a == 0 for a, b in zip(factors, factors[1:])):
            g.canonical = (rank, tuple(factors))  # already canonical: no Smith form to take
        return g

    @cached_property
    def _smith(self) -> SmithDecomposition:
        return smith_decompose(self.relations)

    @cached_property
    def canonical(self) -> tuple:
        """(rank, invariant_factors); a group whose relations are all zero
        is free and takes no Smith form."""
        if self.relations.is_zero():
            return self.generator_count, ()
        nonzero = self._smith.diagonal[: self._smith.num_nonzero]  # nonzero entries come first
        return self.generator_count - len(nonzero), tuple(d for d in nonzero if d > 1)

    @property
    def rank(self) -> int:
        return self.canonical[0]

    def is_trivial(self) -> bool:
        return self.canonical == (0, ())

    def is_isomorphic_to(self, other: "PresentedAbGroup") -> bool:
        return self.canonical == other.canonical

    def canonical_group(self) -> "PresentedAbGroup":
        """The same group presented on canonical generators (torsion first)."""
        rank, factors = self.canonical
        return PresentedAbGroup.from_canonical_form(rank, factors)

    # -- coordinates ---------------------------------------------------------
    # Canonical coordinates list the torsion generators (ascending factors)
    # followed by the free generators: rows `_units`, `_units` + 1, ... of
    # U, since the unit diagonal entries come first.

    @cached_property
    def _units(self) -> int:
        return sum(1 for d in self._smith.diagonal if d == 1)

    def to_canonical(self, M: IntMatrix) -> IntMatrix:
        """Canonical coordinates, one column each, of the elements that the
        columns of M represent."""
        s, u = self._smith, self._units
        rows = s._transform("U", [dict(row) for row in M._sparse])[u:]
        for t, d in enumerate(s.diagonal[u : s.num_nonzero]):  # torsion coordinates, mod their orders
            rows[t] = {j: v % d for j, v in rows[t].items() if v % d}
        return IntMatrix._of(len(rows), M.cols, rows)

    @cached_property
    def section(self) -> IntMatrix:
        """One generator vector per canonical generator, as columns:
        `to_canonical(section)` is the identity."""
        return self._smith._columns("U_inv", self._units)

    def represents_zero(self, M: IntMatrix) -> bool:
        """Does every column of M lie in the relation lattice?  Tested on
        all columns at once through the cached Smith form; without
        relations only zero columns do."""
        if M.rows != self.generator_count:
            raise InputError(f"{M.rows} rows != {self.generator_count} generators")
        if M.is_zero():
            return True
        return bool(self.relations.cols) and _smith_solve(self._smith, M, lift=False) is not None

    def __eq__(self, other):
        return (
            isinstance(other, PresentedAbGroup)
            and self.generator_count == other.generator_count
            and self.relations == other.relations
        )

    def __hash__(self):
        return hash((self.generator_count, self.relations))

    def __str__(self):
        rank, factors = self.canonical
        parts = []
        if rank == 1:
            parts.append("Z")
        elif rank > 1:
            parts.append(f"Z^{rank}")
        parts.extend(f"Z/{d}" for d in factors)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<PresentedAbGroup {self}>"


def direct_sum(groups: Sequence[PresentedAbGroup]) -> PresentedAbGroup:
    gens = sum(g.generator_count for g in groups)
    return PresentedAbGroup(gens, block_diag([g.relations for g in groups]))


class GroupHom:
    """Homomorphism of presented groups, recorded on generators; every one
    is checked to send the source relations into the target relation
    lattice (InputError), which for a free source takes no Smith form."""

    __slots__ = ("source", "target", "matrix", "__dict__")

    def __init__(self, source: PresentedAbGroup, target: PresentedAbGroup, matrix: IntMatrix):
        if matrix.rows != target.generator_count or matrix.cols != source.generator_count:
            raise InputError("hom matrix dimensions do not match the groups")
        if not target.represents_zero(matrix @ source.relations):
            raise InputError("matrix does not map source relations into target relations")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def identity(cls, g: PresentedAbGroup) -> "GroupHom":
        return cls(g, g, IntMatrix.identity(g.generator_count))

    def compose(self, first: "GroupHom") -> "GroupHom":
        """self ∘ first."""
        return GroupHom(first.source, self.target, self.matrix @ first.matrix)

    def equals_as_hom(self, other: "GroupHom") -> bool:
        """Equality as maps of groups (componentwise modulo target relations)."""
        if self.matrix.cols != other.matrix.cols or self.matrix.rows != other.matrix.rows:
            return False
        return self.matrix == other.matrix or self.target.represents_zero(self.matrix - other.matrix)

    def is_surjective(self) -> bool:
        return self.cokernel_group().is_trivial()

    def cokernel_group(self) -> PresentedAbGroup:
        return PresentedAbGroup(
            self.target.generator_count, self.target.relations.hstack(self.matrix)
        )

    def __repr__(self):
        return f"<GroupHom {self.source} -> {self.target}>"


class Subquotient:
    """ker(d_out)/im(d_in) inside a presented ambient group, with cycle lifting.

    Elements are the columns of a matrix.  A cycle x has d_out @ x in the
    relation lattice of `next_group`: it is the top of some [x; y] in the
    kernel of A = [d_out | -next relations].  One Smith form (U, D, V) of A,
    of rank r, gives the rest (Kaczynski, Mischaikow and Mrozek,
    *Computational Homology*, ch. 3).  `cycle_gens` is the top rows of
    columns r, r + 1, ... of V.  The coordinates of x on them are rows
    r, r + 1, ... of V⁻¹ @ [x; y], for y with next relations @ y == d_out @ x
    (a free next group has no y), and rows 0..r-1 vanish exactly when x is a
    cycle.  Another y moves them by the coordinates of [0; k], k in the
    kernel of the next relations, so the relations of `presented` are the
    coordinates of [d_in | ambient relations] and of those [0; k].

    `classes` maps cycles to the canonical coordinates of their classes;
    `reps` holds one representative cycle per canonical generator; `group`
    is `presented` in canonical form, computed on first use.  With d_in
    None it is the kernel of the homomorphism d_out, as a presented group.
    """

    def __init__(self, ambient: PresentedAbGroup, d_in: Optional[IntMatrix], d_out: IntMatrix,
                 next_group: PresentedAbGroup):
        g = ambient.generator_count
        self.ambient = ambient
        self.d_out = d_out
        self.next_group = next_group
        self._reduction = s = smith_decompose(d_out.hstack(-next_group.relations))
        self.cycle_gens = s._columns("V", s.num_nonzero).submatrix_rows(range(g))
        s.drop_row_operations()  # only V⁻¹ is read from here on
        rel = self.cycle_coordinates(ambient.relations if d_in is None else d_in.hstack(ambient.relations))
        if next_group.relations.cols:
            loops = next_group._smith._columns("V", next_group._smith.num_nonzero)
            rel = rel.hstack(self._lift(IntMatrix.zero(g, loops.cols), loops))
        self.presented = PresentedAbGroup(self.cycle_gens.cols, rel)

    @cached_property
    def group(self) -> PresentedAbGroup:
        return self.presented.canonical_group()

    def _lift(self, Z: IntMatrix, Y: Optional[IntMatrix] = None) -> Optional[IntMatrix]:
        """Rows r, r + 1, ... of V⁻¹ @ [Z; Y]: the coordinates of the columns
        of Z on cycle_gens, or None when one is not a cycle.  Y defaults to a
        solution of next relations @ Y == d_out @ Z."""
        nxt = self.next_group
        if Y is None and nxt.relations.cols:
            Y = _smith_solve(nxt._smith, self.d_out @ Z)
            if Y is None:
                return None
        s = self._reduction
        r = s.num_nonzero
        w = s._transform("V_inv", [dict(row) for row in Z._sparse + (Y._sparse if Y is not None else [])])
        return None if any(w[:r]) else IntMatrix._of(len(w) - r, Z.cols, w[r:])

    def cycle_coordinates(self, Z: IntMatrix) -> IntMatrix:
        """X with cycle_gens @ X == Z, for Z a matrix of cycles."""
        X = self._lift(Z)
        if X is None:
            raise ContractViolation("cycle does not lie in the computed cycle lattice")
        return X

    def classes(self, Z: IntMatrix) -> IntMatrix:
        """The canonical coordinates of the class of each column of Z; raises
        InputError when a column is not a cycle."""
        if Z.rows != self.ambient.generator_count:
            raise InputError(f"{Z.rows} rows != {self.ambient.generator_count} generators")
        n = self.group.generator_count
        if Z.is_zero():
            return IntMatrix.zero(n, Z.cols)
        X = self._lift(Z)
        if X is None:
            raise InputError("a column is not a cycle")
        if not n:
            return IntMatrix.zero(0, Z.cols)
        return self.presented.to_canonical(X)

    @cached_property
    def reps(self) -> IntMatrix:
        """Column k is a cycle representing canonical generator k."""
        if not self.group.generator_count:
            return IntMatrix.zero(self.ambient.generator_count, 0)
        return self.cycle_gens @ self.presented.section

    def induced_map(self, target: "Subquotient", f: IntMatrix) -> GroupHom:
        """The map self.group -> target.group of the chain map component f:
        each canonical generator goes to the class of f applied to its
        representative cycle."""
        return GroupHom(self.group, target.group, target.classes(f @ self.reps))


@dataclass
class ChainComplexData:
    """A finite complex of presented abelian groups and its differentials.

    maps[i] sends groups[i] to groups[i+1]; d∘d = 0 is checked modulo the
    target relations.  The complex is zero outside its stored degrees: read
    it through `group`, `degree_rank` and `differential`, which return the
    trivial group, 0 and zero matrices of the matching shape there, so
    complexes of different lengths line up without padding.
    """

    groups: list
    maps: list = field(default_factory=list)
    _homology: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.maps) != max(len(self.groups) - 1, 0):
            raise InputError("need exactly one map per adjacent pair of groups")
        for i, m in enumerate(self.maps):
            if m.cols != self.groups[i].generator_count or m.rows != self.groups[i + 1].generator_count:
                raise InputError(f"differential {i} has wrong dimensions")
        for i in range(len(self.maps) - 1):
            if not self.groups[i + 2].represents_zero(self.maps[i + 1] @ self.maps[i]):
                raise ContractViolation(f"d∘d != 0 between degrees {i} and {i + 2}")

    def group(self, k: int) -> PresentedAbGroup:
        return self.groups[k] if 0 <= k < len(self.groups) else PresentedAbGroup.trivial()

    def degree_rank(self, k: int) -> int:
        """Generator count of degree k."""
        return self.groups[k].generator_count if 0 <= k < len(self.groups) else 0

    def differential(self, k: int) -> IntMatrix:
        """The map from degree k to degree k+1."""
        if 0 <= k < len(self.maps):
            return self.maps[k]
        return IntMatrix.zero(self.degree_rank(k + 1), self.degree_rank(k))

    def homology(self, k: int) -> Subquotient:
        """The degree-k homology, computed on first use; no complex is
        changed after it is built."""
        h = self._homology.get(k)
        if h is None:
            h = self._homology[k] = Subquotient(
                self.group(k), self.differential(k - 1), self.differential(k), self.group(k + 1)
            )
        return h


class FaceComplex(ChainComplexData):
    """A complex whose degree-k summands sit on increasing (k+1)-tuples: the
    strict chains of a poset, or the simplices of a Čech nerve.

    `summands(k)` lists (tuple, offset, group, data) in degree k.  A subclass
    supplies `block(source data, target data)`, the matrix between two
    summands; the differential is the alternating face sum, which sends the
    summand of t with its i-th entry dropped to the summand of t by
    (-1)^i times that block.  A summand whose group has no generators adds
    no row and no column, so it is not laid out: `summand` does not find
    it, and no block into or out of it is asked for.
    """

    def __init__(self, summands: Sequence[Sequence[tuple]]):
        """`summands[k]` lists (tuple, group, data) in degree k, in order."""
        self._summands = []  # per degree: {tuple: (tuple, offset, group, data)} in order
        for entries in summands:
            placed = {}
            off = 0
            for t, g, data in entries:
                if g.generator_count:
                    placed[t] = (t, off, g, data)
                    off += g.generator_count
            self._summands.append(placed)
        groups = [direct_sum([g for _, _, g, _ in placed.values()]) for placed in self._summands]
        maps = []
        for k in range(len(groups) - 1):
            faces = self._summands[k]
            blocks = []
            for t, off, _, data in self._summands[k + 1].values():
                for i in range(len(t)):
                    face = faces.get(t[:i] + t[i + 1:])
                    if face is not None:
                        blocks.append((off, face[1], -1 if i % 2 else 1, self.block(face[3], data)))
            maps.append(IntMatrix.from_blocks(groups[k + 1].generator_count, groups[k].generator_count, blocks))
        super().__init__(groups, maps)

    def block(self, source_data, target_data) -> IntMatrix:
        raise NotImplementedError

    def summands(self, k: int) -> Iterable[tuple]:
        """The (tuple, offset, group, data) of degree k; none outside the stored degrees."""
        return self._summands[k].values() if 0 <= k < len(self._summands) else ()

    def summand(self, k: int, t: tuple) -> Optional[tuple]:
        """The (tuple, offset, group, data) of t in degree k, or None."""
        return self._summands[k].get(t) if 0 <= k < len(self._summands) else None


def face_chain_map(
    source: FaceComplex,
    target: FaceComplex,
    rule: Callable[[tuple], Optional[tuple]],
    block: Callable[[object, object], IntMatrix],
) -> list:
    """Per degree k of source, the map from degree k of source to degree k of
    target.  `rule(t)` names the (source tuple, sign) that feeds the target
    tuple t, or None; the map adds sign * block(source data, target data)
    there, and nothing where source lists no such tuple."""
    mats = []
    for k in range(len(source.groups)):
        blocks = []
        for t, off, _, data in target.summands(k):
            fed = rule(t)
            if fed is not None:
                found = source.summand(k, fed[0])
                if found is not None:
                    blocks.append((off, found[1], fed[1], block(found[3], data)))
        mats.append(IntMatrix.from_blocks(target.degree_rank(k), source.degree_rank(k), blocks))
    return mats


def _chain_component(f: Sequence[IntMatrix], k: int, source: ChainComplexData, target: ChainComplexData) -> IntMatrix:
    """f[k], or the zero map where f lists no degree k."""
    return f[k] if k < len(f) else IntMatrix.zero(target.degree_rank(k), source.degree_rank(k))


def check_chain_map(f: Sequence[IntMatrix], source: ChainComplexData, target: ChainComplexData) -> None:
    """Raise ContractViolation unless f commutes with the differentials.

    f[k] maps degree k of source to degree k of target; degrees f does not
    list are zero maps.  Every degree of source is checked, its top degree
    too, against the zero-extended target."""
    for k in range(len(source.groups)):
        tgt = target.group(k + 1)
        if not tgt.generator_count:
            continue  # nothing to compare in a trivial group
        left = _chain_component(f, k + 1, source, target) @ source.differential(k)
        right = target.differential(k) @ _chain_component(f, k, source, target)
        if not tgt.represents_zero(left - right):
            raise ContractViolation(f"chain map does not commute with d in degree {k}")


def induced_on_homology(
    f: Sequence[IntMatrix],
    source: ChainComplexData,
    target: ChainComplexData,
    p: int,
) -> GroupHom:
    """The well-defined map H^p(source) -> H^p(target) of a chain map."""
    check_chain_map(f, source, target)
    return source.homology(p).induced_map(target.homology(p), _chain_component(f, p, source, target))
