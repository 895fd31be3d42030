"""Exact arithmetic of integer matrices and finitely generated abelian groups.

Everything here works over plain Python ints, which are arbitrary precision,
so Smith normal form never overflows no matter how badly the intermediate
entries blow up.  Matrices are stored dense and immutable, but the Smith
reduction is sparse: it eliminates on a sparse copy, unit pivots of least
fill first, then entries of least absolute value.  Its unimodular transforms
are kept as the recorded operations and applied to vectors directly; dense
transform matrices are built only on use.  Groups are given by a generator
count and an integer relation matrix, with the canonical form (rank +
invariant factors) computed through Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import ContractViolation, InputError


class IntMatrix:
    """Immutable dense integer matrix, row-major.

    Block matrices (cochain differentials, chain maps, direct sums) are built
    only through `from_blocks`, which adds signed blocks into a zero matrix.
    """

    __slots__ = ("rows", "cols", "data", "_hash")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable[int]]):
        data = tuple(tuple(map(int, row)) for row in entries)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise InputError(f"expected {rows}x{cols} entries")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]], nrows: Optional[int] = None) -> "IntMatrix":
        if not cols:
            return cls.zero(nrows or 0, 0)
        n = len(cols[0])
        return cls(n, len(cols), [[c[i] for c in cols] for i in range(n)])

    @classmethod
    def from_blocks(cls, rows: int, cols: int, blocks: Iterable[tuple]) -> "IntMatrix":
        """The rows x cols matrix that is the sum of the given blocks.

        Each block is (row offset, column offset, sign, matrix) and adds
        sign * matrix with its top-left entry at (row offset, column offset).
        Blocks may overlap, and overlapping entries add up; a block that does
        not fit raises IndexError.
        """
        out = [[0] * cols for _ in range(rows)]
        for r0, c0, sign, block in blocks:
            for i, row in enumerate(block.data):
                target = out[r0 + i]
                for j, e in enumerate(row):
                    if e:
                        target[c0 + j] += sign * e
        return cls(rows, cols, out)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, entries: Sequence[int], rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        r = rows if rows is not None else len(entries)
        c = cols if cols is not None else len(entries)
        m = [[0] * c for _ in range(r)]
        for i, d in enumerate(entries):
            m[i][i] = d
        return cls(r, c, m)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.data))
        return self._hash

    def __setattr__(self, name, value):
        # only the cached hash may be set; __init__ sets the rest directly
        if name != "_hash":
            raise AttributeError("IntMatrix is immutable")
        object.__setattr__(self, name, value)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {list(map(list, self.data))})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # each nonzero a = self[i][k] adds a * (row k of other) to row i
        right = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        out = []
        for row in self.data:
            acc = [0] * other.cols
            for k, a in enumerate(row):
                if a:
                    for j, b in right[k]:
                        acc[j] += a * b
            out.append(acc)
        return IntMatrix(self.rows, other.cols, out)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [[-e for e in row] for row in self.data])

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def apply(self, vec: Sequence[int]) -> tuple:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise InputError(f"vector length {len(vec)} != {self.cols} columns")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.data)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise InputError("hstack: row counts differ")
        return IntMatrix(
            self.rows,
            self.cols + other.cols,
            [ra + rb for ra, rb in zip(self.data, other.data)],
        )

    def submatrix_rows(self, row_indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix(len(row_indices), self.cols, [self.data[i] for i in row_indices])

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.data for e in row)

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise InputError("determinant requires a square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


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
    the pivot signs, U = S·P·E and V = F·Q.  `apply_U`, `apply_U_inv`,
    `apply_V` and `apply_V_inv` apply a transform to one vector; the dense
    `U`, `D`, `V`, `U_inv` and `V_inv` are built on first access.
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

    @staticmethod
    def _vector(vec: Sequence[int], n: int) -> list:
        if len(vec) != n:
            raise InputError(f"vector length {len(vec)} != {n}")
        return list(vec)

    def _signed(self, vec: list) -> list:
        for t, s in enumerate(self._signs):
            if s < 0:
                vec[t] = -vec[t]
        return vec

    def apply_U(self, vec: Sequence[int]) -> list:
        y = self._vector(vec, self.shape[0])
        for k, i, q in self._row_ops:
            if y[i]:
                y[k] += q * y[i]
        return self._signed([y[i] for i in self._row_order])

    def apply_U_inv(self, vec: Sequence[int]) -> list:
        w = self._signed(self._vector(vec, self.shape[0]))
        y = [0] * self.shape[0]
        for t, i in enumerate(self._row_order):
            y[i] = w[t]
        for k, i, q in reversed(self._row_ops):
            if y[i]:
                y[k] -= q * y[i]
        return y

    def apply_V(self, vec: Sequence[int]) -> list:
        w = self._vector(vec, self.shape[1])
        x = [0] * self.shape[1]
        for t, j in enumerate(self._col_order):
            x[j] = w[t]
        for l, j, q in reversed(self._col_ops):
            if x[l]:
                x[j] += q * x[l]
        return x

    def apply_V_inv(self, vec: Sequence[int]) -> list:
        x = self._vector(vec, self.shape[1])
        for l, j, q in self._col_ops:
            if x[l]:
                x[j] -= q * x[l]
        return [x[j] for j in self._col_order]

    @staticmethod
    def _dense(apply: Callable[[list], list], n: int) -> IntMatrix:
        columns = [apply([1 if i == k else 0 for i in range(n)]) for k in range(n)]
        return IntMatrix(n, n, zip(*columns))

    @cached_property
    def U(self) -> IntMatrix:
        return self._dense(self.apply_U, self.shape[0])

    @cached_property
    def U_inv(self) -> IntMatrix:
        return self._dense(self.apply_U_inv, self.shape[0])

    @cached_property
    def V(self) -> IntMatrix:
        return self._dense(self.apply_V, self.shape[1])

    @cached_property
    def V_inv(self) -> IntMatrix:
        return self._dense(self.apply_V_inv, self.shape[1])

    @cached_property
    def D(self) -> IntMatrix:
        return IntMatrix.diagonal(self.diagonal, *self.shape)


def smith_decompose(M: IntMatrix) -> SmithDecomposition:
    """The Smith form of M, by one sparse reduction.

    M is copied as rows of {column: entry} dicts, with the rows of each
    column indexed.  Each step takes a pivot p (see `_pivot`) and clears its
    column with floor-quotient row operations, then its row with
    floor-quotient column operations; once the column is clear these touch
    only the pivot row, so they are recorded, not carried out.  A nonzero
    remainder is smaller than p, and the next step takes a pivot again.  A
    pivot with its row and column clear is kept when it divides every entry
    left; otherwise a row holding a non-multiple is added to the pivot row.
    So each kept pivot divides the ones after it, the units come first, and
    D needs no sorting.
    """
    r, c = M.rows, M.cols
    rows = {}
    where = {}  # column -> rows with a nonzero entry in it
    for i, row in enumerate(M.data):
        entries = {j: a for j, a in enumerate(row) if a}
        if entries:
            rows[i] = entries
            for j in entries:
                where.setdefault(j, set()).add(i)
    row_ops, col_ops, pivots = [], [], []
    while True:
        pivot = _pivot(rows, where)
        if pivot is None:
            break
        i, j = pivot
        prow = rows[i]
        p = prow[j]
        left = False  # a nonzero remainder in column j
        for k in where[j] - {i}:
            target = rows[k]
            q = -(target[j] // p)
            row_ops.append((k, i, q))
            for l, e in prow.items():
                v = target.get(l, 0) + q * e
                if v:
                    if l not in target:
                        where[l].add(k)
                    target[l] = v
                else:
                    del target[l]
                    where[l].discard(k)
            if not target:
                del rows[k]
            elif j in target:
                left = True
        if left:
            continue
        remainders = {}
        for l, e in prow.items():
            if l != j:
                q = -(e // p)
                col_ops.append((l, j, q))
                e += q * p
                if e:
                    remainders[l] = e
                else:
                    where[l].discard(i)
        prow = rows[i] = {j: p, **remainders}
        if remainders:
            continue
        if p != 1 and p != -1:
            bad = next((k for k, entries in rows.items() if any(a % p for a in entries.values())), None)
            if bad is not None:
                row_ops.append((i, bad, 1))
                for l, e in rows[bad].items():
                    prow[l] = e
                    where[l].add(i)
                continue
        del rows[i]
        del where[j]
        pivots.append((i, j, p))

    pivot_rows = [i for i, _, _ in pivots]
    pivot_cols = [j for _, j, _ in pivots]
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


def _pivot(rows: dict, where: dict) -> Optional[tuple]:
    """The ±1 entry of least fill, (row count - 1)·(column count - 1), the
    first in row order among equals; with no unit entry, the first entry of
    least absolute value; None when no entry is left."""
    best, best_fill = None, None
    for i, entries in rows.items():
        spare = len(entries) - 1
        for j, a in entries.items():
            if a == 1 or a == -1:
                fill = spare * (len(where[j]) - 1)
                if not fill:
                    return i, j
                if best is None or fill < best_fill:
                    best, best_fill = (i, j), fill
    if best is None and rows:
        best = min(((i, j) for i, entries in rows.items() for j in entries), key=lambda ij: abs(rows[ij[0]][ij[1]]))
    return best


def smith_normal_form(M: IntMatrix):
    """(U, D, V) with U @ M @ V == D, U and V unimodular, D in SNF."""
    s = smith_decompose(M)
    return s.U, s.D, s.V


def kernel_basis(M: IntMatrix) -> IntMatrix:
    """Columns form a Z-basis of {x : M @ x = 0}: the identity when M has
    no rows, empty when it has no columns."""
    s = smith_decompose(M)
    n = M.cols
    return IntMatrix.from_columns(
        [s.apply_V([1 if i == k else 0 for i in range(n)]) for k in range(s.num_nonzero, n)], nrows=n
    )


def solve(M: IntMatrix, b: Sequence[int]) -> Optional[tuple]:
    """An integer x with M @ x = b, or None when no integral solution exists."""
    if len(b) != M.rows:
        raise InputError(f"right-hand side length {len(b)} != {M.rows} rows")
    s = smith_decompose(M)
    z = _smith_solve(s, b)
    return None if z is None else tuple(s.apply_V(z))


def _smith_solve(s: SmithDecomposition, b: Sequence[int]) -> Optional[list]:
    """z with D @ z == U @ b for the decomposition s = (U, D, V) of some M,
    or None when there is none; x = V @ z then solves M @ x == b."""
    ub = s.apply_U(b)
    diag = s.diagonal
    z = [0] * s.shape[1]
    for i, e in enumerate(ub):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if e != 0:
                return None
        else:
            q, r = divmod(e, d)
            if r != 0:
                return None
            z[i] = q
    return z


def cokernel(M: IntMatrix) -> "PresentedAbGroup":
    """The group with generators the rows of M and relations its columns."""
    return PresentedAbGroup(M.rows, M)


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
        return cls(n, IntMatrix.diagonal(list(factors), rows=n, cols=len(factors)))

    @cached_property
    def _smith(self) -> SmithDecomposition:
        return smith_decompose(self.relations)

    @cached_property
    def canonical(self) -> tuple:
        """(rank, invariant_factors)."""
        diag = self._smith.diagonal
        nonzero = [d for d in diag if d != 0]
        rank = self.generator_count - len(nonzero)
        return rank, tuple(d for d in nonzero if d > 1)

    @property
    def rank(self) -> int:
        return self.canonical[0]

    @property
    def invariant_factors(self) -> tuple:
        return self.canonical[1]

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
    # followed by the free generators.

    @cached_property
    def _coordinate_layout(self):
        diag = self._smith.diagonal
        nonzero = len([d for d in diag if d != 0])
        torsion = [i for i in range(nonzero) if diag[i] > 1]
        free = list(range(nonzero, self.generator_count))
        return torsion, free

    def to_canonical(self, vec: Sequence[int]) -> tuple:
        """Canonical coordinates of the element represented by a generator vector."""
        if len(vec) != self.generator_count:
            raise InputError("vector length does not match generator count")
        z = self._smith.apply_U(vec)
        torsion, free = self._coordinate_layout
        diag = self._smith.diagonal
        return tuple(z[i] % diag[i] for i in torsion) + tuple(z[i] for i in free)

    def from_canonical(self, coords: Sequence[int]) -> tuple:
        """A generator vector representing the element with given canonical coordinates."""
        torsion, free = self._coordinate_layout
        if len(coords) != len(torsion) + len(free):
            raise InputError("coordinate length does not match canonical generators")
        z = [0] * self.generator_count
        for i, val in zip(torsion, coords[: len(torsion)]):
            z[i] = val
        for i, val in zip(free, coords[len(torsion):]):
            z[i] = val
        return tuple(self._smith.apply_U_inv(z))

    def contains_in_relations(self, vec: Sequence[int]) -> bool:
        """Does the vector lie in the relation lattice (i.e. represent 0)?

        Tested through the cached Smith form; without relations only the
        zero vector does."""
        if len(vec) != self.generator_count:
            raise InputError(f"vector length {len(vec)} != {self.generator_count} generators")
        if not self.relations.cols:
            return not any(vec)
        return _smith_solve(self._smith, vec) is not None

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
    """Homomorphism of presented groups, recorded on generators."""

    __slots__ = ("source", "target", "matrix", "__dict__")

    def __init__(self, source: PresentedAbGroup, target: PresentedAbGroup, matrix: IntMatrix, check: bool = True):
        if matrix.rows != target.generator_count or matrix.cols != source.generator_count:
            raise InputError("hom matrix dimensions do not match the groups")
        if check:
            for j in range(source.relations.cols):
                image = matrix.apply(source.relations.column(j))
                if not target.contains_in_relations(image):
                    raise InputError("matrix does not map source relations into target relations")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def identity(cls, g: PresentedAbGroup) -> "GroupHom":
        return cls(g, g, IntMatrix.identity(g.generator_count), check=False)

    @classmethod
    def zero(cls, source: PresentedAbGroup, target: PresentedAbGroup) -> "GroupHom":
        return cls(source, target, IntMatrix.zero(target.generator_count, source.generator_count), check=False)

    def compose(self, first: "GroupHom") -> "GroupHom":
        """self ∘ first."""
        return GroupHom(first.source, self.target, self.matrix @ first.matrix, check=False)

    def equals_as_hom(self, other: "GroupHom") -> bool:
        """Equality as maps of groups (componentwise modulo target relations)."""
        if self.matrix.cols != other.matrix.cols or self.matrix.rows != other.matrix.rows:
            return False
        for j in range(self.matrix.cols):
            diff = [a - b for a, b in zip(self.matrix.column(j), other.matrix.column(j))]
            if not self.target.contains_in_relations(diff):
                return False
        return True

    def is_surjective(self) -> bool:
        return cokernel(self.matrix.hstack(self.target.relations)).is_trivial()

    def kernel_group(self) -> PresentedAbGroup:
        """The kernel, as an abstract presented group."""
        return Subquotient(self.source, None, self.matrix, self.target.relations).presented

    def cokernel_group(self) -> PresentedAbGroup:
        return PresentedAbGroup(
            self.target.generator_count, self.target.relations.hstack(self.matrix)
        )

    def __repr__(self):
        return f"<GroupHom {self.source} -> {self.target}>"


class Subquotient:
    """ker(d_out)/im(d_in) inside a presented ambient group, with cycle lifting.

    `class_of` maps a cycle (generator vector of the ambient group) to the
    canonical coordinates of its class; `rep_of` picks a representative
    cycle of a class.  The homology group itself is exposed both as a raw
    presentation (`presented`) and in canonical form (`group`, computed on
    first use).  With d_in None and next_relations the relations of d_out's
    target, it is the kernel of d_out taken modulo those relations.
    """

    def __init__(
        self,
        ambient: PresentedAbGroup,
        d_in: Optional[IntMatrix],
        d_out: Optional[IntMatrix],
        next_relations: Optional[IntMatrix] = None,
    ):
        g = ambient.generator_count
        if d_in is None:
            d_in = IntMatrix.zero(g, 0)
        if d_out is None:
            d_out = IntMatrix.zero(0, g)
        if next_relations is None:
            next_relations = IntMatrix.zero(d_out.rows, 0)
        self.ambient = ambient
        self.d_in = d_in
        self.d_out = d_out
        self.next_relations = next_relations
        # cycles: x with d_out @ x in the next relation lattice
        full = kernel_basis(d_out.hstack(-next_relations))
        self.cycle_gens = full.submatrix_rows(range(g))
        # relations: combinations of cycle generators landing in
        # im(d_in) + ambient relations
        boundary = d_in.hstack(ambient.relations)
        rel = kernel_basis(self.cycle_gens.hstack(-boundary))
        self.presented = PresentedAbGroup(
            self.cycle_gens.cols, rel.submatrix_rows(range(self.cycle_gens.cols))
        )

    @cached_property
    def group(self) -> PresentedAbGroup:
        return self.presented.canonical_group()

    @cached_property
    def _next_group(self) -> PresentedAbGroup:
        return PresentedAbGroup(self.d_out.rows, self.next_relations)

    @cached_property
    def _cycle_smith(self) -> SmithDecomposition:
        return smith_decompose(self.cycle_gens)

    def is_cycle(self, vec: Sequence[int]) -> bool:
        return self._next_group.contains_in_relations(self.d_out.apply(vec))

    def class_of(self, vec: Sequence[int]) -> tuple:
        if not self.is_cycle(vec):
            raise InputError("vector is not a cycle")
        z = _smith_solve(self._cycle_smith, vec)
        if z is None:
            raise ContractViolation("cycle does not lie in the computed cycle lattice")
        return self.presented.to_canonical(self._cycle_smith.apply_V(z))

    def rep_of(self, coords: Sequence[int]) -> tuple:
        return self.cycle_gens.apply(self.presented.from_canonical(coords))

    def induced_map(self, target: "Subquotient", chain_map: Callable[[tuple], Sequence[int]]) -> GroupHom:
        """The map self.group -> target.group sending each canonical generator
        to the class of chain_map applied to its representative cycle."""
        n = self.group.generator_count
        cols = []
        for i in range(n):
            coords = [0] * n
            coords[i] = 1
            cols.append(list(target.class_of(chain_map(self.rep_of(coords)))))
        return GroupHom(self.group, target.group, IntMatrix.from_columns(cols, nrows=target.group.generator_count))


def homology_at(
    d1: Optional[IntMatrix],
    d2: Optional[IntMatrix],
    ambient: Optional[PresentedAbGroup] = None,
) -> Subquotient:
    """ker(d2)/im(d1) for a free chain group, with the lifting interface.

    Raises ContractViolation unless d2 @ d1 == 0.
    """
    if ambient is None:
        if d1 is not None:
            ambient = PresentedAbGroup.free(d1.rows)
        elif d2 is not None:
            ambient = PresentedAbGroup.free(d2.cols)
        else:
            raise InputError("need at least one differential or an ambient group")
    if d1 is not None and d2 is not None and not (d2 @ d1).is_zero():
        raise ContractViolation("d2 @ d1 != 0")
    return Subquotient(ambient, d1, d2)


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

    def __post_init__(self):
        if len(self.maps) != max(len(self.groups) - 1, 0):
            raise InputError("need exactly one map per adjacent pair of groups")
        for i, m in enumerate(self.maps):
            if m.cols != self.groups[i].generator_count or m.rows != self.groups[i + 1].generator_count:
                raise InputError(f"differential {i} has wrong dimensions")
        for i in range(len(self.maps) - 1):
            comp = self.maps[i + 1] @ self.maps[i]
            tgt = self.groups[i + 2]
            for j in range(comp.cols):
                if not tgt.contains_in_relations(comp.column(j)):
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
        return Subquotient(
            self.group(k), self.differential(k - 1), self.differential(k), self.group(k + 1).relations
        )


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
        for j in range(left.cols):
            diff = [a - b for a, b in zip(left.column(j), right.column(j))]
            if not tgt.contains_in_relations(diff):
                raise ContractViolation(f"chain map does not commute with d in degree {k}")


def induced_on_homology(
    f: Sequence[IntMatrix],
    source: ChainComplexData,
    target: ChainComplexData,
    p: int,
) -> GroupHom:
    """The well-defined map H^p(source) -> H^p(target) of a chain map."""
    check_chain_map(f, source, target)
    return source.homology(p).induced_map(target.homology(p), _chain_component(f, p, source, target).apply)
