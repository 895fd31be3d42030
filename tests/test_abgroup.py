import contextlib
import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from counting import counting_calls
from oracles import (
    column,
    column_matrix,
    dense_smith_diagonal,
    det,
    from_columns,
    kernel_group,
    reference_induced_map,
    reference_subquotient,
)

from finsheaf import abgroup, cli, wedge
from finsheaf.abgroup import (
    ChainComplexData,
    GroupHom,
    IntMatrix,
    PresentedAbGroup,
    Subquotient,
    block_diag,
    check_chain_map,
    direct_sum,
    induced_on_homology,
    kernel_basis,
    smith_decompose,
    solve,
)
from finsheaf.cech import cech_complex_hq
from finsheaf.cohom import cochain_complex, cohomology
from finsheaf.errors import ContractViolation, InputError
from finsheaf.sheaf import constant_sheaf


def random_matrix(rng, max_dim=6, bound=10):
    r, c = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return IntMatrix(r, c, [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)])


def is_unimodular(m):
    return m.rows == m.cols and abs(det(m)) == 1


def check_smith(m):
    s = smith_decompose(m)
    assert s.U @ m @ s.V == s.D
    assert is_unimodular(s.U) and is_unimodular(s.V)
    assert s.U @ s.U_inv == IntMatrix.identity(m.rows)
    assert s.V @ s.V_inv == IntMatrix.identity(m.cols)
    diag = s.diagonal
    nz = [d for d in diag if d != 0]
    assert all(d >= 0 for d in diag)
    assert list(diag[: len(nz)]) == nz, "nonzero entries come first"
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0, f"divisibility chain broken: {nz}"


def test_smith_small_examples():
    # diag(2,6) is already in Smith form
    m = IntMatrix(2, 2, [[2, 0], [0, 6]])
    d = smith_decompose(m).D
    assert [d.data[0][0], d.data[1][1]] == [2, 6]
    # diag(2,3) is not: invariant factors are 1, 6
    m = IntMatrix(2, 2, [[2, 0], [0, 3]])
    d = smith_decompose(m).D
    assert [d.data[0][0], d.data[1][1]] == [1, 6]


def test_smith_zero_and_identity():
    check_smith(IntMatrix.zero(3, 4))
    check_smith(IntMatrix.identity(5))


def test_smith_randomized():
    rng = random.Random(17)
    for _ in range(300):
        check_smith(random_matrix(rng))


def test_dropped_row_operations_keep_v_and_refuse_u():
    """After drop_row_operations, V and V⁻¹ are what they were, and U, U⁻¹
    raise ContractViolation instead of an unrelated error."""
    rng = random.Random(5)
    for _ in range(20):
        m = random_matrix(rng)
        s, kept = smith_decompose(m), smith_decompose(m)
        s.drop_row_operations()
        assert s.V == kept.V and s.V_inv == kept.V_inv
        for name in ("U", "U_inv"):
            with pytest.raises(ContractViolation, match="row operations were dropped"):
                getattr(s, name)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_smith_property(r, c, data):
    rows = [
        [data.draw(st.integers(-20, 20)) for _ in range(c)] for _ in range(r)
    ]
    check_smith(IntMatrix(r, c, rows))


def test_kernel_and_solve():
    rng = random.Random(5)
    for _ in range(100):
        m = random_matrix(rng)
        assert (m @ kernel_basis(m)).is_zero()
        width = rng.randint(0, 3)
        x = IntMatrix(m.cols, width, [[rng.randint(-5, 5) for _ in range(width)] for _ in range(m.cols)])
        b = m @ x
        y = solve(m, b)
        assert y is not None and m @ y == b


def test_solve_no_solution():
    m = IntMatrix(1, 1, [[2]])
    assert solve(m, IntMatrix(1, 1, [[3]])) is None
    assert solve(m, IntMatrix(1, 1, [[4]])) == IntMatrix(1, 1, [[2]])
    # one column without a solution is enough
    assert solve(m, IntMatrix(1, 2, [[4, 3]])) is None
    with pytest.raises(InputError):
        solve(m, IntMatrix.zero(2, 1))


def test_presented_group_canonical():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6
    g = PresentedAbGroup(2, IntMatrix(2, 2, [[2, 0], [0, 3]]))
    assert g.canonical == (0, (6,))
    assert str(g) == "Z/6"
    free = PresentedAbGroup.free(3)
    assert free.canonical == (3, ())
    assert PresentedAbGroup.from_canonical_form(1, [2]).canonical == (1, (2,))


def test_canonical_form_of_a_canonical_presentation_takes_no_smith_form(monkeypatch):
    calls = counting_calls(monkeypatch, abgroup, "smith_decompose")
    g = PresentedAbGroup.from_canonical_form(1, [2, 4])
    assert g.canonical == (1, (2, 4)) and PresentedAbGroup.free(3).canonical == (3, ())
    assert PresentedAbGroup(2, IntMatrix(2, 1, [[0], [0]])).canonical == (2, ())
    assert calls == []
    assert g.represents_zero(IntMatrix(3, 1, [[2], [4], [0]])) and len(calls) == 1  # the Smith form stays lazy
    # factors that are not a divisibility chain are normalised through the Smith form
    assert PresentedAbGroup.from_canonical_form(0, [3, 2]).canonical == (0, (6,))
    assert PresentedAbGroup.from_canonical_form(0, [1, 2]).canonical == (0, (2,))
    assert len(calls) == 3


def test_canonical_coordinates_roundtrip():
    g = PresentedAbGroup(3, IntMatrix(3, 2, [[2, 0], [0, 0], [4, 6]]))
    rank, factors = g.canonical
    n = rank + len(factors)
    assert g.section.cols == n
    assert g.to_canonical(g.section) == IntMatrix.identity(n)


def test_direct_sum():
    g = direct_sum([PresentedAbGroup.free(1), PresentedAbGroup(1, IntMatrix(1, 1, [[2]]))])
    assert g.canonical == (1, (2,))


def test_hom_kernel_cokernel():
    z = PresentedAbGroup.free(1)
    two = GroupHom(z, z, IntMatrix(1, 1, [[2]]))
    assert kernel_group(two).is_trivial()
    assert two.cokernel_group().canonical == (0, (2,))
    assert not two.is_surjective()
    assert GroupHom.identity(z).is_surjective()


def test_hom_compose_and_equality_mod_relations():
    z2 = PresentedAbGroup(1, IntMatrix(1, 1, [[2]]))
    f = GroupHom(z2, z2, IntMatrix(1, 1, [[1]]))
    g = GroupHom(z2, z2, IntMatrix(1, 1, [[3]]))
    assert f.equals_as_hom(g)
    assert f.compose(f).equals_as_hom(f)


def test_subquotient_examples():
    # ker(Z^2 --(1,-1)--> Z) / im(0) = diagonal Z
    d_in = IntMatrix.zero(2, 0)
    d_out = IntMatrix(1, 2, [[1, -1]])
    free = PresentedAbGroup.free
    h = ChainComplexData([free(0), free(2), free(1)], [d_in, d_out]).homology(1)
    assert h.group.canonical == (1, ())
    # Z / 2Z as homology
    h2 = ChainComplexData([free(1), free(1), free(0)], [IntMatrix(1, 1, [[2]]), IntMatrix.zero(0, 1)]).homology(1)
    assert h2.group.canonical == (0, (2,))


def test_subquotient_class_and_rep_roundtrip():
    d_in = IntMatrix(2, 1, [[2], [0]])
    d_out = IntMatrix(1, 2, [[0, 1]])
    free = PresentedAbGroup.free
    h = ChainComplexData([free(1), free(2), free(1)], [d_in, d_out]).homology(1)  # ker = Z e1, im = 2Z e1 -> Z/2
    assert h.group.canonical == (0, (2,))
    cls = h.classes(IntMatrix(2, 1, [[1], [0]]))
    assert cls == IntMatrix(1, 1, [[1]])
    assert h.classes(h.reps) == IntMatrix.identity(1)
    assert h.classes(h.reps @ cls) == cls
    # e1 + 2 e1 and e1 - 2 e1 are the same class; the zero column is 0
    assert h.classes(IntMatrix(2, 3, [[3, -1, 0], [0, 0, 0]])) == IntMatrix(1, 3, [[1, 1, 0]])
    with pytest.raises(InputError, match="not a cycle"):
        h.classes(IntMatrix(2, 2, [[1, 0], [0, 1]]))


def test_matrix_guards():
    with pytest.raises(InputError):
        IntMatrix(2, 2, [[1, 2], [3]])
    m = IntMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3


def test_from_blocks_adds_signed_blocks():
    a = IntMatrix(2, 2, [[1, 2], [3, 4]])
    m = IntMatrix.from_blocks(3, 4, [(0, 0, 1, a), (1, 1, -1, a), (2, 3, 1, IntMatrix.identity(1))])
    assert m == IntMatrix(3, 4, [[1, 2, 0, 0], [3, 3, -2, 0], [0, -3, -4, 1]])
    assert IntMatrix.from_blocks(2, 0, []) == IntMatrix.zero(2, 0)


def test_chain_map_checks_top_degree_of_shorter_source():
    # source: Z in degree 0 only; target: Z --1--> Z
    z = PresentedAbGroup.free(1)
    source = ChainComplexData([z])
    target = ChainComplexData([z, z], [IntMatrix.identity(1)])
    # the source generator goes to a target cochain whose coboundary is not 0
    with pytest.raises(ContractViolation):
        check_chain_map([IntMatrix.identity(1)], source, target)
    # into Z --0--> Z the same map is a chain map; degree 1 of the source is zero
    flat = ChainComplexData([z, z], [IntMatrix.zero(1, 1)])
    check_chain_map([IntMatrix.identity(1)], source, flat)
    assert induced_on_homology([IntMatrix.identity(1)], source, flat, 0).matrix == IntMatrix.identity(1)
    assert induced_on_homology([IntMatrix.identity(1)], source, flat, 1).source.is_trivial()


def test_membership_through_the_cached_smith_form_agrees_with_solve():
    rng = random.Random(9)
    for _ in range(100):
        rel = random_matrix(rng, bound=4)
        g = PresentedAbGroup(rel.rows, rel)
        for _ in range(5):
            if rng.random() < 0.5:
                col = rel @ IntMatrix(rel.cols, 1, [[rng.randint(-3, 3)] for _ in range(rel.cols)])
            else:
                col = IntMatrix(rel.rows, 1, [[rng.randint(-6, 6)] for _ in range(rel.rows)])
            assert g.represents_zero(col) == (solve(rel, col) is not None)
    with pytest.raises(InputError):
        PresentedAbGroup.free(2).represents_zero(IntMatrix.zero(3, 1))


def test_membership_reuses_one_smith_form(monkeypatch):
    calls = counting_calls(monkeypatch, abgroup, "smith_decompose")

    def column(*entries):
        return IntMatrix(len(entries), 1, [[e] for e in entries])

    free = PresentedAbGroup.free(4)
    assert free.represents_zero(column(0, 0, 0, 0))
    assert not free.represents_zero(column(0, 1, 0, 0))
    assert calls == []  # no relations: only zero columns, no Smith form
    g = PresentedAbGroup(2, IntMatrix(2, 1, [[2], [4]]))
    assert g.represents_zero(column(2, 4)) and g.represents_zero(column(-4, -8))
    assert not g.represents_zero(column(1, 2)) and not g.represents_zero(column(2, 0))
    assert g.represents_zero(IntMatrix(2, 2, [[2, -4], [4, -8]]))
    assert not g.represents_zero(IntMatrix(2, 2, [[2, 2], [4, 0]]))
    assert [(call["M"].rows, call["M"].cols) for call in calls] == [(2, 1)]  # the group's own Smith form, computed once


def check_against_dense_oracle(m):
    """Same diagonal as the earlier dense reduction, and exact transforms."""
    s = smith_decompose(m)
    assert list(s.diagonal) == dense_smith_diagonal([list(row) for row in m.data])
    assert s.U @ m @ s.V == s.D
    assert s.U @ s.U_inv == IntMatrix.identity(m.rows)
    assert s.V @ s.V_inv == IntMatrix.identity(m.cols)


def test_sparse_smith_matches_dense_oracle_on_sparse_unit_matrices():
    rng = random.Random(2024)
    for _ in range(500):
        r, c = rng.randint(1, 40), rng.randint(1, 40)
        rows = [[0] * c for _ in range(r)]
        for _ in range(rng.randint(0, 2 * (r + c))):
            rows[rng.randrange(r)][rng.randrange(c)] = rng.choice((1, -1))
        for _ in range(rng.randint(0, 3)):
            rows[rng.randrange(r)][rng.randrange(c)] = rng.choice((2, -2, 3, -3, 6, -6))
        check_against_dense_oracle(IntMatrix(r, c, rows))


def test_sparse_smith_matches_dense_oracle_without_unit_entries():
    # remainders, and pivots that fail to divide the rest (2·I_5 with a 3)
    twos_and_a_three = [[2 if i == j else 0 for j in range(5)] for i in range(5)]
    twos_and_a_three[4][4] = 3
    for m in (
        IntMatrix(3, 3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
        IntMatrix(2, 2, [[2, 0], [0, 3]]),
        IntMatrix(2, 2, [[4, 6], [6, 9]]),
        IntMatrix(1, 2, [[2, 3]]),
        IntMatrix(2, 2, [[4, 0], [0, 6]]),
        IntMatrix(1, 3, [[6, 10, 15]]),
        IntMatrix(5, 5, twos_and_a_three),
    ):
        check_against_dense_oracle(m)
    rng = random.Random(31)
    for _ in range(200):
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        check_against_dense_oracle(IntMatrix(r, c, [[rng.randint(-30, 30) for _ in range(c)] for _ in range(r)]))


def test_sparse_smith_matches_dense_oracle_on_wedge_differentials():
    for n in range(1, 5):
        w = wedge.build_wedge(n)
        for sheaf in (wedge.gap_sheaf(w), wedge.skeleton_sheaf(w), constant_sheaf(w.poset, PresentedAbGroup.free(1))):
            for d in cochain_complex(w.poset, sheaf).maps:
                check_against_dense_oracle(d)


def _reproduce(n):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["reproduce", "--disks", str(n)]) == 0


def test_matrices_without_entries():
    for r, c in ((0, 3), (2, 0), (0, 0)):
        s = smith_decompose(IntMatrix.zero(r, c))
        assert s.diagonal == ()
        assert s.U == s.U_inv == IntMatrix.identity(r)
        assert s.V == s.V_inv == IntMatrix.identity(c)
    assert PresentedAbGroup.free(3).canonical == (3, ())
    vec = IntMatrix(3, 1, [[1], [-2], [5]])
    assert PresentedAbGroup.free(3).to_canonical(vec) == vec
    assert PresentedAbGroup.free(2).section == IntMatrix.identity(2)
    assert PresentedAbGroup.trivial().to_canonical(IntMatrix.zero(0, 2)) == IntMatrix.zero(0, 2)
    assert kernel_basis(IntMatrix.zero(0, 3)) == IntMatrix.identity(3)
    assert kernel_basis(IntMatrix.zero(2, 0)) == IntMatrix.zero(0, 0)


def test_wedge_complexes_stay_on_the_unit_pivot_path():
    _reproduce(4)
    w = wedge.build_wedge(8)
    F = wedge.gap_sheaf(w)
    assert [cohomology(w.poset, F, q).canonical for q in range(3)] == [(0, ()), (0, ()), (8, ())]


# -- sparse matrices against a dense reference ---------------------------------


def dense_product(a, b, inner, cols):
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(len(a))]


def dense_blocks(rows, cols, blocks):
    out = [[0] * cols for _ in range(rows)]
    for r0, c0, sign, block in blocks:
        for i, row in enumerate(block):
            for j, e in enumerate(row):
                out[r0 + i][c0 + j] += sign * e
    return out


def stores_no_zero(m):
    return all(a != 0 and 0 <= j < m.cols for row in m._sparse for j, a in row.items()) and len(m._sparse) == m.rows


def dense_entries(r, c):
    return st.lists(
        st.lists(st.one_of(st.just(0), st.just(0), st.integers(-4, 4)), min_size=c, max_size=c), min_size=r, max_size=r
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_sparse_operations_agree_with_dense_reference(r, k, c, data):
    a, b, a2 = data.draw(dense_entries(r, k)), data.draw(dense_entries(k, c)), data.draw(dense_entries(r, k))
    ma, mb, ma2 = IntMatrix(r, k, a), IntMatrix(k, c, b), IntMatrix(r, k, a2)
    assert ma.data == tuple(map(tuple, a))
    results = {
        "product": (ma @ mb, dense_product(a, b, k, c)),
        "negation": (-ma, [[-e for e in row] for row in a]),
        "difference": (ma - ma2, [[x - y for x, y in zip(p, q)] for p, q in zip(a, a2)]),
        "hstack": (ma.hstack(ma2), [p + q for p, q in zip(a, a2)]),
    }
    picked = data.draw(st.lists(st.integers(0, r - 1), max_size=6)) if r else []
    results["submatrix_rows"] = (ma.submatrix_rows(picked), [a[i] for i in picked])
    for name, (got, want) in results.items():
        assert got.data == tuple(map(tuple, want)), name
        assert stores_no_zero(got), name
        assert got.is_zero() == all(e == 0 for row in want for e in row), name
    for j in range(k):
        assert column(ma, j) == tuple(row[j] for row in a)
    with pytest.raises(InputError):
        ma - IntMatrix.zero(r + 1, k)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_from_blocks_with_overlapping_and_cancelling_blocks(rows, cols, data):
    blocks, dense = [], []
    for _ in range(data.draw(st.integers(0, 5))):
        r0, c0 = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
        br, bc = data.draw(st.integers(0, rows - r0)), data.draw(st.integers(0, cols - c0))
        entries = data.draw(dense_entries(br, bc))
        sign = data.draw(st.sampled_from((1, -1)))
        blocks.append((r0, c0, sign, IntMatrix(br, bc, entries)))
        dense.append((r0, c0, sign, entries))
        if data.draw(st.booleans()):  # the same block again with the other sign cancels it
            blocks.append((r0, c0, -sign, IntMatrix(br, bc, entries)))
            dense.append((r0, c0, -sign, entries))
    m = IntMatrix.from_blocks(rows, cols, blocks)
    assert m.data == tuple(map(tuple, dense_blocks(rows, cols, dense)))
    assert stores_no_zero(m)
    with pytest.raises(IndexError):
        IntMatrix.from_blocks(rows, cols, [(0, 1, 1, IntMatrix.zero(1, cols))])
    with pytest.raises(IndexError):
        IntMatrix.from_blocks(rows, cols, [(rows, 0, 1, IntMatrix.zero(1, 1))])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_equal_matrices_built_by_different_routes_are_equal_and_hash_equal(r, c, data):
    dense = data.draw(dense_entries(r, c))
    other = data.draw(dense_entries(r, c))
    m = IntMatrix(r, c, dense)
    routes = [
        IntMatrix(r, c, m.data),
        # m + other - other, with the blocks in both orders: rows built in different insertion orders
        IntMatrix.from_blocks(r, c, [(0, 0, 1, IntMatrix(r, c, other)), (0, 0, 1, m), (0, 0, -1, IntMatrix(r, c, other))]),
        IntMatrix.from_blocks(r, c, [(0, 0, -1, IntMatrix(r, c, other)), (0, 0, 1, m), (0, 0, 1, IntMatrix(r, c, other))]),
        # column by column
        IntMatrix.from_blocks(r, c, [(0, j, 1, column_matrix(m, j)) for j in range(c)]),
        IntMatrix.identity(r) @ m,
        m @ IntMatrix.identity(c),
        -(-m),
    ]
    for built in routes:
        assert built == m and hash(built) == hash(m)
        assert stores_no_zero(built)
    assert (m == IntMatrix(r, c, other)) == (tuple(map(tuple, dense)) == tuple(map(tuple, other)))


# -- the incremental pivot against the full scan it replaced -------------------


def full_scan_pivot(rows, where):
    """The ±1 entry of least fill, (row count - 1)·(column count - 1), the
    first in row order among equals; with no unit entry, the first entry of
    least absolute value; None when no entry is left.  Every entry is
    scanned for every pivot."""
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


class FullScanRows(abgroup._WorkingRows):
    def pivot(self):
        self.changed.clear()
        self.touched.clear()
        return full_scan_pivot(self.rows, self.where)


def decompose_by_full_scan(monkeypatch, m):
    with monkeypatch.context() as patched:
        patched.setattr(abgroup, "_WorkingRows", FullScanRows)
        return smith_decompose(m)


def pivot_oracle_matrices():
    rng = random.Random(4141)
    for n in range(240):
        r, c = rng.randint(1, 24), rng.randint(1, 24)
        rows = [[0] * c for _ in range(r)]
        for _ in range(rng.randint(0, 3 * (r + c))):
            rows[rng.randrange(r)][rng.randrange(c)] = rng.choice((1, -1))
        if n % 2:  # mixed: non-unit entries too, some rows without units
            for _ in range(rng.randint(1, r + c)):
                rows[rng.randrange(r)][rng.randrange(c)] = rng.choice((2, -2, 3, -3, 4, 6, -9))
        yield IntMatrix(r, c, rows)
    # k units per row laid round the columns in a shuffled order, so that
    # most fills tie and one pivot step moves the counts of a row's best
    # column and of columns tied with it, up and down
    for _ in range(200):
        r, c = rng.randint(4, 20), rng.randint(4, 20)
        k = rng.randint(2, min(5, c))
        cols = rng.sample(range(c), c)
        rows = [[0] * c for _ in range(r)]
        for i in range(r):
            for t in range(k):
                rows[i][cols[(i * k + t) % c]] = rng.choice((1, -1))
        yield IntMatrix(r, c, rows)
    for n in (4, 8, 12):  # 12: the wide benchmark's sheaves on a smaller wedge
        w = wedge.build_wedge(n)
        for sheaf in (wedge.gap_sheaf(w), wedge.skeleton_sheaf(w), constant_sheaf(w.poset, PresentedAbGroup.free(1))):
            yield from cochain_complex(w.poset, sheaf).maps
        yield from cech_complex_hq(wedge.canonical_covering(w), wedge.gap_sheaf(w), 1).maps


def test_incremental_pivot_matches_the_full_scan(monkeypatch):
    count = 0
    for m in pivot_oracle_matrices():
        fast, slow = smith_decompose(m), decompose_by_full_scan(monkeypatch, m)
        assert fast.diagonal == slow.diagonal
        assert fast.U == slow.U and fast.V == slow.V
        count += 1
    assert count >= 440


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 5), st.data())
def test_represents_zero_is_the_column_by_column_membership_test(g, r, c, data):
    relations = IntMatrix(g, r, data.draw(dense_entries(g, r)))
    group = PresentedAbGroup(g, relations)
    columns = []
    for _ in range(c):
        kind = data.draw(st.sampled_from(["zero", "relation", "random"]))
        if kind == "zero":
            columns.append([0] * g)
        elif kind == "relation":
            combination = IntMatrix(r, 1, [[x] for x in data.draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))])
            columns.append(list(column(relations @ combination, 0)))
        else:
            columns.append(data.draw(st.lists(st.integers(-4, 4), min_size=g, max_size=g)))
    M = from_columns(columns, g)
    assert group.represents_zero(M) == all(solve(relations, column_matrix(M, j)) is not None for j in range(c))
    with pytest.raises(InputError):
        group.represents_zero(IntMatrix.zero(g + 1, c))


def test_homology_is_computed_once_per_degree():
    w = wedge.build_wedge(3)
    F = wedge.gap_sheaf(w)
    for cx in (cochain_complex(w.poset, F), cech_complex_hq(wedge.canonical_covering(w), F, 1)):
        for k in range(len(cx.groups)):
            assert cx.homology(k) is cx.homology(k)
        assert cx.homology(1) is not cx.homology(0)


# -- batched maps on homology against the per-column route ---------------------


def diagonal_group(orders):
    """Z/d for each order d > 0 and Z for each order 0, as one presentation."""
    torsion = [i for i, d in enumerate(orders) if d]
    entries = [[orders[i] if i == t else 0 for t in torsion] for i in range(len(orders))]
    return PresentedAbGroup(len(orders), IntMatrix(len(orders), len(torsion), entries))


def draw_hom(data, source_orders, target_orders):
    """A random matrix from diagonal_group(source_orders) to
    diagonal_group(target_orders) that maps relations into relations: each
    column of a torsion generator of order n is scaled, row by row, to a
    multiple of m / gcd(m, n) in a torsion row of order m, and is zero in a
    free row."""
    entries = []
    for m in target_orders:
        row = []
        for n in source_orders:
            x = data.draw(st.integers(-3, 3))
            row.append(x if not n else (x * (m // math.gcd(m, n)) if m else 0))
        entries.append(row)
    return IntMatrix(len(target_orders), len(source_orders), entries)


def two_term_complex(data, orders):
    """G0 --d--> G1 on diagonal groups with the given generator orders."""
    d = draw_hom(data, orders[0], orders[1])
    return ChainComplexData([diagonal_group(orders[0]), diagonal_group(orders[1])], [d])


orders_lists = st.lists(st.sampled_from([0, 0, 2, 3, 4, 6]), max_size=3)


@settings(max_examples=100, deadline=None)
@given(orders_lists, orders_lists, orders_lists, orders_lists, st.data())
def test_batched_induced_maps_equal_the_per_generator_route(a0, a1, b0, b1, data):
    """A chain map from S ⊕ S to (S ⊕ S) ⊕ T, for random two-term complexes
    S and T on free and torsion groups: A ⊗ 1 + dh + hd into S ⊕ S, for a
    random 2x2 integer A and homotopy h, and d'h' + h'd into T."""
    S, T = two_term_complex(data, (a0, a1)), two_term_complex(data, (b0, b1))
    doubled = [a0 + a0, a1 + a1]
    d = block_diag([S.maps[0], S.maps[0]])
    source = ChainComplexData([diagonal_group(doubled[0]), diagonal_group(doubled[1])], [d])
    target_orders = [doubled[0] + b0, doubled[1] + b1]
    target = ChainComplexData(
        [diagonal_group(target_orders[0]), diagonal_group(target_orders[1])], [block_diag([d, T.maps[0]])]
    )
    A = [[data.draw(st.integers(-2, 2)) for _ in range(2)] for _ in range(2)]
    h, h2 = draw_hom(data, doubled[1], doubled[0]), draw_hom(data, doubled[1], b0)
    homotopy = [(h @ d, h2 @ d), (d @ h, T.maps[0] @ h2)]
    f = []
    for k in (0, 1):
        n = len((a0, a1)[k])
        blocks = [(i * n, j * n, A[i][j], IntMatrix.identity(n)) for i in range(2) for j in range(2)]
        blocks += [(0, 0, 1, homotopy[k][0]), (2 * n, 0, 1, homotopy[k][1])]
        f.append(IntMatrix.from_blocks(len(target_orders[k]), 2 * n, blocks))
    for p in (0, 1):
        got = induced_on_homology(f, source, target, p)
        assert got.matrix == reference_induced_map(source.homology(p), target.homology(p), f[p])
        # the identity on homology, through the same batched route
        h_p = source.homology(p)
        assert h_p.induced_map(h_p, IntMatrix.identity(len(doubled[p]))).matrix == IntMatrix.identity(h_p.group.generator_count)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_batched_solve_and_membership_equal_the_per_column_results(r, c, width, data):
    M = IntMatrix(r, c, data.draw(dense_entries(r, c)))
    X = IntMatrix(c, width, data.draw(dense_entries(c, width)))
    reachable, other = M @ X, IntMatrix(r, width, data.draw(dense_entries(r, width)))
    picks = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
    B = from_columns([column(reachable if pick else other, j) for j, pick in enumerate(picks)], r)
    per_column = [solve(M, column_matrix(B, j)) for j in range(width)]
    got = solve(M, B)
    if any(x is None for x in per_column):
        assert got is None
    else:
        assert got == IntMatrix.from_blocks(c, width, [(0, j, 1, x) for j, x in enumerate(per_column)])
        assert M @ got == B
    group = PresentedAbGroup(r, M)
    assert group.represents_zero(B) == all(group.represents_zero(column_matrix(B, j)) for j in range(width))
    assert group.represents_zero(B) == all(x is not None for x in per_column)


# -- the one-reduction homology against the two-lattice reference ------------


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.booleans(), st.data())
def test_one_reduction_subquotient_equals_the_two_lattice_reference(g0, g1, g2, c2, dependent, data):
    """Homology of G0 -> G1 -> G2 for G0 free, random next relations (with
    a dependent pair 2e, 4e on one generator when `dependent`, so that they
    have a kernel) and ambient relations and boundaries drawn from the
    reference's cycles, so that G1 has torsion and d_out is a homomorphism."""
    R2 = IntMatrix(g2, c2, data.draw(dense_entries(g2, c2)))
    if dependent and g2:
        e = data.draw(st.integers(0, g2 - 1))
        R2 = R2.hstack(IntMatrix.from_blocks(g2, 2, [(e, 0, 1, IntMatrix(1, 2, [[2, 4]]))]))
    d_out = IntMatrix(g2, g1, data.draw(dense_entries(g2, g1)))
    cycles, _ = reference_subquotient(PresentedAbGroup.free(g1), IntMatrix.zero(g1, 0), d_out, R2)
    c1 = data.draw(st.integers(0, 3))
    R1 = cycles @ IntMatrix(cycles.cols, c1, data.draw(dense_entries(cycles.cols, c1)))
    d_in = cycles @ IntMatrix(cycles.cols, g0, data.draw(dense_entries(cycles.cols, g0)))
    ambient, next_group = PresentedAbGroup(g1, R1), PresentedAbGroup(g2, R2)

    h = Subquotient(ambient, d_in, d_out, next_group)
    ref_gens, ref = reference_subquotient(ambient, d_in, d_out, R2)
    assert h.cycle_gens == ref_gens
    assert h.presented.generator_count == ref.generator_count
    assert h.presented.represents_zero(ref.relations) and ref.represents_zero(h.presented.relations)
    assert h.group.canonical == ref.canonical
    # the reference's representatives give an endomorphism of the group
    # that is onto, hence invertible (f.g. abelian groups are Hopfian)
    on_reference_reps = GroupHom(h.group, h.group, h.classes(ref_gens @ ref.section))
    assert on_reference_reps.is_surjective()
    x = IntMatrix(g1, 1, data.draw(dense_entries(g1, 1)))
    if solve(R2, d_out @ x) is None:
        with pytest.raises(InputError, match="not a cycle"):
            h.classes(x)
    else:
        assert h.cycle_gens @ h.cycle_coordinates(x) == x
