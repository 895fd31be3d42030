"""Independent oracle: simplicial cohomology of the order complex.

Deliberately does not reuse the package's linear algebra.  Homology of the
order complex is computed from plain boundary matrices with a throwaway
Smith reduction (no transform tracking), then dualized by universal
coefficients: free part of H^q = free part of H_q, torsion of H^q =
torsion of H_{q-1}.

`dense_smith_diagonal` keeps the package's earlier dense Smith reduction,
also without transforms, as the reference for its sparse one.

`reference_induced_map` keeps the package's earlier route to a map on
homology, one generator at a time, as the reference for its batched one.
It does use the package's Smith form and `solve`, but only on one column
at a time and through the transform matrices, never through a
`Subquotient`'s own coordinates.

`reference_subquotient` keeps the package's earlier construction of a
homology group, two kernel bases of stacked matrices, as the reference for
its one-reduction `Subquotient`.

`universal_coefficients` turns the simplicial oracle's integral cohomology
into cohomology with coefficients Z/p.

`reference_subposet`, `reference_restricted_sheaf` and
`reference_components` keep the package's earlier reading of a subspace,
its own subposet and the sheaf restricted to it, as the reference for the
complexes and components read on the whole space's chains.

`reference_acyclic_connected` keeps condition (i)'s earlier test, the
whole constant-Z cohomology of the subset's own subposet, as the reference
for the one that reads the subset's core.

`det`, `column` and `kernel_group` read a matrix or a map in ways that only
the tests need: the unimodularity of Smith transforms, one column as a
tuple, and the kernel of a connecting map or stage transition.

`reference_cech_complex` builds the alternating Čech complex by its own
loops over a layout of (tuple, offset, group, intersection) per degree,
independent of the shared face-complex builder and of the covering's own
nerve listing: `subset_filter` tests every subset of members by the plain
`intersection` fold, and `reference_nerve` lists every degree that way.  `FreshCoefficients` gives
it groups and restrictions from cochain complexes each built afresh on its
open set, and `reference_cech_cohomology` reads Ȟ^p(U; H^q F) from the two.
"""

from functools import reduce
from itertools import combinations

from finsheaf.abgroup import (
    ChainComplexData,
    IntMatrix,
    PresentedAbGroup,
    Subquotient,
    direct_sum,
    kernel_basis,
    smith_decompose,
    solve,
)
from finsheaf.cohom import CochainComplex, cohomology, restriction_on_homology
from finsheaf.finspace import FinitePoset
from finsheaf.sheaf import PosetSheaf, constant_sheaf


def _simplices(elements, leq, dim):
    """All strict chains with dim+1 elements, as index tuples."""
    out = []
    for combo in combinations(range(len(elements)), dim + 1):
        if all(leq(elements[combo[i]], elements[combo[i + 1]]) and elements[combo[i]] != elements[combo[i + 1]] for i in range(dim)):
            out.append(combo)
    return out


def _boundary(simps_lo, simps_hi):
    """Matrix of the boundary map from dim-d simplices to dim-(d-1)."""
    index = {s: i for i, s in enumerate(simps_lo)}
    mat = [[0] * len(simps_hi) for _ in range(len(simps_lo))]
    for j, s in enumerate(simps_hi):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            mat[index[face]][j] = (-1) ** i
    return mat


def _smith_diagonal(mat):
    """Diagonal of the Smith form; destroys its argument."""
    if not mat or not mat[0]:
        return []
    rows, cols = len(mat), len(mat[0])
    diag = []
    top = 0
    while top < min(rows, cols):
        # find a pivot
        pr = pc = None
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if mat[i][j] != 0 and (best is None or abs(mat[i][j]) < best):
                    best, pr, pc = abs(mat[i][j]), i, j
        if pr is None:
            break
        mat[top], mat[pr] = mat[pr], mat[top]
        for row in mat:
            row[top], row[pc] = row[pc], row[top]
        while True:
            changed = False
            for i in range(top + 1, rows):
                q = mat[i][top] // mat[top][top]
                if q:
                    for j in range(cols):
                        mat[i][j] -= q * mat[top][j]
                if mat[i][top]:
                    mat[top], mat[i] = mat[i], mat[top]
                    changed = True
            for j in range(top + 1, cols):
                q = mat[top][j] // mat[top][top]
                if q:
                    for i in range(rows):
                        mat[i][j] -= q * mat[i][top]
                if mat[top][j]:
                    changed = True
            if not changed:
                break
        diag.append(abs(mat[top][top]))
        top += 1
    # divisibility repair by prime redistribution is unnecessary: only ranks
    # and the multiset of elementary divisors matter below
    return [d for d in diag if d]


def dense_smith_diagonal(mat):
    """Diagonal of the Smith form, length min(rows, cols), by the dense
    reduction the package used before its sparse one, without transforms:
    pivot on an entry of least absolute value (row-major tie-break), clear
    its row and column, and add a row to the pivot row until the pivot
    divides the rest.  Destroys its argument."""
    r = len(mat)
    c = len(mat[0]) if mat else 0
    A = mat
    t = 0
    limit = min(r, c)
    while t < limit:
        pivot = None
        for i in range(t, r):
            for j in range(t, c):
                if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        A[t], A[pivot[0]] = A[pivot[0]], A[t]
        for row in A:
            row[t], row[pivot[1]] = row[pivot[1]], row[t]
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
        p = A[t][t]
        restart = False
        for i in range(t + 1, r):
            if A[i][t] != 0:
                q = A[i][t] // p
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                if A[i][t] != 0:
                    restart = True
        if restart:
            continue
        for j in range(t + 1, c):
            if A[t][j] != 0:
                q = A[t][j] // p
                if q:
                    for row in A:
                        row[j] -= q * row[t]
                if A[t][j] != 0:
                    restart = True
        if restart:
            continue
        bad_row = None
        for i in range(t + 1, r):
            if any(A[i][j] % p != 0 for j in range(t + 1, c)):
                bad_row = i
                break
        if bad_row is not None:
            A[t] = [a + b for a, b in zip(A[t], A[bad_row])]
            continue
        t += 1
    return [A[i][i] for i in range(limit)]


def _rank(diag):
    return len(diag)


def primary_decomposition(factors):
    """Multiset of prime powers for a list of cyclic orders (> 1); this is
    the canonical form that does not depend on the divisibility chain."""
    out = []
    for f in factors:
        n = abs(f)
        p = 2
        while p * p <= n:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append(p**e)
            p += 1
        if n > 1:
            out.append(n)
    return sorted(out)


def simplicial_cohomology(elements, leq, max_dim=None):
    """List of (free_rank, sorted elementary divisors > 1) for H^0, H^1, ...

    `elements` is an ordered list of labels; `leq(a, b)` decides the order.
    """
    if max_dim is None:
        max_dim = len(elements)
    simps = []
    d = 0
    while d <= max_dim:
        s = _simplices(elements, leq, d)
        if not s:
            break
        simps.append(s)
        d += 1
    if not simps:
        return []
    # boundary_d : C_d -> C_{d-1}; store Smith diagonals
    diag = [None] * (len(simps) + 1)
    for d in range(1, len(simps)):
        diag[d] = _smith_diagonal(_boundary(simps[d - 1], simps[d]))
    diag[len(simps)] = []

    homology = []
    for d in range(len(simps)):
        n = len(simps[d])
        rank_in = _rank(diag[d + 1]) if d + 1 < len(diag) else 0
        rank_out = _rank(diag[d]) if d >= 1 else 0
        free = n - rank_out - rank_in
        torsion = sorted(x for x in (diag[d + 1] or []) if x > 1)
        homology.append((free, torsion))

    cohom = []
    for q in range(len(simps)):
        free = homology[q][0]
        torsion = homology[q - 1][1] if q >= 1 else []
        cohom.append((free, torsion))
    return cohom


def universal_coefficients(integral, prime, degrees):
    """Canonical forms of H^q(Z/prime) for q < degrees, from the list
    (free rank, torsion) of H^q(Z) that `simplicial_cohomology` returns:
    H^q(Z/p) = H^q(Z) (x) Z/p + Tor(H^{q+1}(Z), Z/p) has one Z/p for each
    free summand of H^q and each cyclic summand of H^q and of H^{q+1} whose
    order p divides."""

    def part(q):
        return integral[q] if q < len(integral) else (0, [])

    def divisible(q):
        return sum(1 for f in part(q)[1] if f % prime == 0)

    return [(0, (prime,) * (part(q)[0] + divisible(q) + divisible(q + 1))) for q in range(degrees)]


def reference_subposet(base, members):
    """The induced order on `members`, in the base's element order: every
    pair of members that `base.lt` relates."""
    kept = [e for e in base.elements if e in members]
    return FinitePoset(kept, [(a, b) for a in kept for b in kept if base.lt(a, b)])


def reference_restricted_sheaf(sheaf, members):
    """The sheaf induced on the subposet of `members`, its cover maps the
    sheaf's restrictions, checked to be a functor."""
    sub = reference_subposet(sheaf.base, members)
    stalks = {e: sheaf.stalks[e] for e in sub.elements}
    return PosetSheaf(sub, stalks, {(a, b): sheaf.restrictions(a, b) for a, b in sub.covers})


def reference_components(base, members):
    """The connected components of the subposet of `members`, by a union-find
    over its covers, ordered by their first element."""
    sub = reference_subposet(base, members)
    parent = {e: e for e in sub.elements}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for a, b in sub.covers:
        parent[find(a)] = find(b)
    comps = {}
    for e in sub.elements:
        comps.setdefault(find(e), []).append(e)
    return sorted((frozenset(v) for v in comps.values()), key=lambda c: min(map(base.elements.index, c)))


def reference_acyclic_connected(base, members):
    """Constant Z on the subposet of `members` has the cohomology of a
    point, every degree computed."""
    sub = reference_subposet(base, members)
    forms = [cohomology(sub, constant_sheaf(sub, PresentedAbGroup.free(1)), q).canonical for q in range(sub.height + 1)]
    return forms == [(1, ())] + [(0, ())] * sub.height


def _preimage_lattice(A, B):
    """Columns span {x : A @ x lies in the column span of B}."""
    return kernel_basis(A.hstack(-B)).submatrix_rows(range(A.cols))


def reference_subquotient(ambient, d_in, d_out, next_relations):
    """(cycle_gens, presentation) of ker(d_out)/im(d_in) by the package's
    earlier route: the cycles are the x with d_out @ x in the span of
    next_relations, and the relations are the combinations of cycle
    generators that land in im(d_in) + the ambient relations, each lattice
    from the kernel basis of its own stacked matrix."""
    cycle_gens = _preimage_lattice(d_out, next_relations)
    relations = _preimage_lattice(cycle_gens, d_in.hstack(ambient.relations))
    return cycle_gens, PresentedAbGroup(cycle_gens.cols, relations)


def column_matrix(m, j):
    """Column j of the IntMatrix m, as a one-column IntMatrix."""
    return IntMatrix(m.rows, 1, [[x] for x in column(m, j)])


def from_columns(columns, rows):
    """The IntMatrix with the given columns (lists of ints) and row count."""
    return IntMatrix(rows, len(columns), [[col[i] for col in columns] for i in range(rows)])


def reference_induced_map(source_h, target_h, f):
    """The matrix of the map source_h.group -> target_h.group that sends each
    canonical generator to the class of f applied to its representative
    cycle, one generator at a time.  f is a chain-map component (an
    IntMatrix), or a function taking one representative cycle, as a
    one-column matrix, to its image cycle.

    The representative of canonical generator k is cycle_gens times column
    u + k of U⁻¹ from the Smith form of the presentation, u its count of
    unit diagonal entries; an image is checked to be a cycle and written on
    the target's cycle generators by one solve each, and its canonical
    coordinates are the rows u, u + 1, ... of U times those, the torsion
    ones reduced mod their orders."""
    source, target = smith_decompose(source_h.presented.relations), smith_decompose(target_h.presented.relations)
    units = sum(1 for d in source.diagonal if d == 1)
    target_units = sum(1 for d in target.diagonal if d == 1)
    columns = []
    for k in range(units, source_h.presented.generator_count):
        rep = source_h.cycle_gens @ column_matrix(source.U_inv, k)
        image = f(rep) if callable(f) else f @ rep
        assert solve(target_h.next_group.relations, target_h.d_out @ image) is not None, "image is not a cycle"
        coordinates = solve(target_h.cycle_gens, image)
        assert coordinates is not None, "cycle off the cycle lattice"
        z = column(target.U @ coordinates, 0)
        canonical = []
        for i in range(target_units, len(z)):
            d = target.diagonal[i] if i < len(target.diagonal) else 0
            canonical.append(z[i] % d if d else z[i])
        columns.append(canonical)
    return from_columns(columns, target_h.presented.generator_count - target_units)


def det(m):
    """The exact determinant of the square IntMatrix m, by fraction-free
    (Bareiss) elimination."""
    assert m.rows == m.cols, "determinant of a matrix that is not square"
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.data]
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


def column(m, j):
    """Column j of the IntMatrix m, as a tuple: m times the j-th unit vector."""
    unit = IntMatrix(m.cols, 1, [[int(i == j)] for i in range(m.cols)])
    return tuple(row[0] for row in (m @ unit).data)


def kernel_group(hom):
    """The kernel of a GroupHom, as an abstract presented group."""
    return Subquotient(hom.source, None, hom.matrix, hom.target).presented


def intersection(c, names):
    """The intersection of the named members of the covering c; the whole
    space for no names."""
    return reduce(frozenset.__and__, (c.members[n] for n in names), frozenset(c.base.elements))


def subset_filter(c, p):
    """The nerve in degree p by testing every (p+1)-subset."""
    return [t for t in combinations(c.order, p + 1) if intersection(c, t)]


def reference_nerve(c):
    """Every simplex of the nerve, degree by degree, by `subset_filter`."""
    return [t for p in range(len(c.order)) for t in subset_filter(c, p)]


def reference_cech_complex(c, coeffs, q, top):
    """(layout, differentials) of the Čech complex with coefficients H^q,
    in degrees 0..top."""
    layout = []
    p = 0
    while p < len(c.order) and p <= top:
        tups = subset_filter(c, p)
        entries = []
        off = 0
        for t in tups:
            meet = intersection(c, t)
            g = coeffs.group(meet, q)
            entries.append((t, off, g, meet))
            off += g.generator_count
        layout.append(entries)
        if not tups:
            break
        p += 1
    maps = []
    for k in range(len(layout) - 1):
        src_index = {t: (off, meet) for t, off, _, meet in layout[k]}
        blocks = []
        for t, toff, _, meet in layout[k + 1]:
            for i in range(len(t)):
                face = src_index.get(t[:i] + t[i + 1:])
                if face is not None:
                    soff, big = face
                    blocks.append((toff, soff, -1 if i % 2 else 1, coeffs.restriction(big, meet, q).matrix))
        maps.append(IntMatrix.from_blocks(layout_rank(layout, k + 1), layout_rank(layout, k), blocks))
    return layout, maps


def layout_rank(layout, k):
    return sum(g.generator_count for _, _, g, _ in layout[k]) if k < len(layout) else 0


class FreshCoefficients:
    """Groups and restrictions as `reference_cech_complex` reads them, from
    cochain complexes each built afresh on its open set."""

    def __init__(self, sheaf):
        self.sheaf = sheaf
        self.complexes = {}

    def complex(self, V):
        if V not in self.complexes:
            self.complexes[V] = CochainComplex(self.sheaf, V)
        return self.complexes[V]

    def group(self, V, q):
        return self.complex(V).homology(q).group

    def restriction(self, V, W, q):
        return restriction_on_homology(self.complex(V), self.complex(W), q)


def reference_cech_cohomology(covering, sheaf, p, q):
    """The canonical form of Ȟ^p(U; H^q F) from the reference loop on fresh
    complexes of the sheaf."""
    layout, maps = reference_cech_complex(covering, FreshCoefficients(sheaf), q, p + 1)
    groups = [direct_sum([g for _, _, g, _ in entries]) for entries in layout]
    return ChainComplexData(groups, maps).homology(p).group.canonical
