import random

import pytest

from counting import counting_calls
from oracles import column, column_matrix, from_columns

from finsheaf import jsonio
from finsheaf.abgroup import GroupHom, IntMatrix, PresentedAbGroup, Subquotient, solve
from finsheaf.cohom import les_of_short_exact
from finsheaf.errors import ContractViolation, InputError
from finsheaf.finspace import FinitePoset, OpenSet
from finsheaf.wedge import build_wedge, structure_sequence
from finsheaf.sheaf import (
    ExactnessResult,
    PosetSheaf,
    SheafMorphism,
    closed_pushforward,
    cokernel_sheaf,
    constant_sheaf,
    extension_by_zero,
    is_exact,
    kernel_sheaf,
    zero_sheaf,
)

Z = PresentedAbGroup.free(1)


def chain_poset(n):
    labels = [f"c{i}" for i in range(n)]
    return FinitePoset(labels, list(zip(labels, labels[1:])))


def test_constant_sheaf_restrictions_are_identity():
    p = chain_poset(3)
    s = constant_sheaf(p, Z)
    for a in p.elements:
        for b in p.elements:
            if p.lt(a, b):
                assert s.restrictions(a, b) == IntMatrix.identity(1)


def test_functoriality_checked():
    p = FinitePoset("abc", [("a", "b"), ("b", "c")])
    bad = {("a", "b"): IntMatrix(1, 1, [[2]]), ("b", "c"): IntMatrix(1, 1, [[1]])}
    # single path, so any values on covers are functorial
    PosetSheaf(p, {e: Z for e in p.elements}, bad)
    # diamond with inconsistent composites is rejected
    d = FinitePoset("wxyz", [("w", "x"), ("w", "y"), ("x", "z"), ("y", "z")])
    maps = {
        ("w", "x"): IntMatrix(1, 1, [[1]]),
        ("w", "y"): IntMatrix(1, 1, [[1]]),
        ("x", "z"): IntMatrix(1, 1, [[1]]),
        ("y", "z"): IntMatrix(1, 1, [[2]]),
    }
    with pytest.raises(ContractViolation):
        PosetSheaf(d, {e: Z for e in d.elements}, maps)


def test_extension_by_zero_stalks():
    p = FinitePoset("abc", [("a", "b"), ("b", "c")])
    s = extension_by_zero(p, OpenSet(p, {"b", "c"}), Z)
    assert s.stalks["a"].is_trivial()
    assert s.stalks["b"].canonical == (1, ())
    assert s.restrictions("b", "c") == IntMatrix.identity(1)


def test_closed_pushforward_counts_components():
    # x below two maximal elements; closed subset = the two maximal points is
    # not closed, so use the poset where the closed set is the two minimal pts
    p = FinitePoset(["u", "v", "m"], [("u", "m"), ("v", "m")])
    s = closed_pushforward(p, {"u", "v"}, Z)
    # min_open(m) = {m} misses the closed set entirely
    assert s.stalks["m"].is_trivial()
    assert s.stalks["u"].canonical == (1, ())


def test_closed_pushforward_builds_no_poset(monkeypatch):
    """The components of each closed trace are read on the base: pushing Z
    forward from the skeleton of X_4 builds no poset, and the stalk at p
    has one Z per component of up_set(p) ∩ skeleton."""
    w = build_wedge(4)
    built = counting_calls(monkeypatch, FinitePoset, "__init__")
    s = closed_pushforward(w.poset, w.skeleton, Z)
    assert built == []
    ranks = {p: s.stalks[p].rank for p in w.poset.elements}
    assert ranks == {p: 0 if p.startswith("f") else 1 for p in w.poset.elements}


def test_structure_sequence_every_open_set():
    """Extension by zero from U, constant in the middle, pushforward from the
    closed complement: exact for every open U of a fixed test poset."""
    p = FinitePoset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    opens = []
    from itertools import combinations

    for r in range(len(p.elements) + 1):
        for sub in combinations(p.elements, r):
            if p.is_open(set(sub)):
                opens.append(frozenset(sub))
    assert len(opens) > 2
    for u in opens:
        F = extension_by_zero(p, OpenSet(p, u), Z)
        G = constant_sheaf(p, Z)
        H = closed_pushforward(p, frozenset(p.elements) - u, Z)
        comp_a = {
            e: IntMatrix.identity(1) if e in u else IntMatrix.zero(1, 0)
            for e in p.elements
        }
        comp_b = {
            e: IntMatrix(H.stalks[e].generator_count, 1, [[1]] * H.stalks[e].generator_count)
            for e in p.elements
        }
        seq = [SheafMorphism(F, G, comp_a), SheafMorphism(G, H, comp_b)]
        assert bool(is_exact(seq, p.elements)), f"not exact for U={sorted(u)}"


def test_kernel_sheaf_of_projection_is_extension_by_zero():
    p = FinitePoset("abc", [("a", "b"), ("b", "c")])
    u = {"b", "c"}
    G = constant_sheaf(p, Z)
    H = closed_pushforward(p, {"a"}, Z)
    comp = {
        e: IntMatrix(H.stalks[e].generator_count, 1, [[1]] * H.stalks[e].generator_count)
        for e in p.elements
    }
    ker = kernel_sheaf(SheafMorphism(G, H, comp))
    ref = extension_by_zero(p, OpenSet(p, u), Z)
    for e in p.elements:
        assert ker.stalks[e].canonical == ref.stalks[e].canonical


def test_cokernel_sheaf():
    p = chain_poset(2)
    s = constant_sheaf(p, Z)
    double = SheafMorphism(s, s, {e: IntMatrix(1, 1, [[2]]) for e in p.elements})
    cok = cokernel_sheaf(double)
    for e in p.elements:
        assert cok.stalks[e].canonical == (0, (2,))


def test_is_exact_certificates():
    p = chain_poset(2)
    s = constant_sheaf(p, Z)
    # 0 -> Z_X --0--> Z_X -> 0 is not exact anywhere
    res = is_exact([SheafMorphism.zero(s, s)], p.elements)
    assert not res.exact and res.failing_element is not None
    # 0 -> Z_X --id--> Z_X -> 0 is exact
    assert bool(is_exact([SheafMorphism.identity(s)], p.elements))
    # 0 -> Z --id--> Z --id--> Z -> 0 is not even a complex: id∘id != 0
    ab = FinitePoset("ab", [("a", "b")])
    z = constant_sheaf(ab, Z)
    assert is_exact([SheafMorphism.identity(z), SheafMorphism.identity(z)], ab.elements) == ExactnessResult(False, "a", 1)
    # positions count the sheaves from 0, the ends of the sequence included
    ident, zero = SheafMorphism.identity(z), SheafMorphism.zero(z, z)
    assert is_exact([zero], ab.elements) == ExactnessResult(False, "a", 0)  # ker 0 = Z at F_0
    assert is_exact([ident, zero], ab.elements) == ExactnessResult(False, "a", 2)  # coker 0 = Z at F_2
    assert is_exact([zero, ident, ident], ab.elements) == ExactnessResult(False, "a", 2)  # id∘id != 0 through F_2
    assert bool(is_exact([ident, zero, ident], ab.elements))
    # only the elements given are checked, in the base's order
    assert is_exact([zero], "ba") == ExactnessResult(False, "a", 0)
    assert is_exact([zero], "b") == ExactnessResult(False, "b", 0)
    assert bool(is_exact([zero], ()))


def test_is_exact_refuses_morphisms_that_do_not_compose():
    """The second morphism must start at the first one's target, or at a
    sheaf with the same stalks and cover maps: on a < b, 0 -> Z followed by
    g: B' -> Z, where B' restricts by -1, is exact stalk by stalk as
    matrices, but g does not start at Z.  The long exact sequence refuses
    it as bad input instead of failing inside."""
    ab = FinitePoset("ab", [("a", "b")])
    z = constant_sheaf(ab, Z)
    twisted = PosetSheaf(ab, {"a": Z, "b": Z}, {("a", "b"): IntMatrix(1, 1, [[-1]])})
    g = SheafMorphism(twisted, z, {"a": IntMatrix(1, 1, [[-1]]), "b": IntMatrix.identity(1)})
    sequence = [SheafMorphism.zero(zero_sheaf(ab), z), g]
    with pytest.raises(InputError, match="do not compose"):
        is_exact(sequence, ab.elements)
    with pytest.raises(InputError, match="do not compose"):
        les_of_short_exact(ab, sequence, OpenSet(ab, frozenset(ab.elements)))
    # a second copy of Z, equal stalks and cover maps, composes
    copy = constant_sheaf(ab, Z)
    assert bool(is_exact([SheafMorphism.identity(z), SheafMorphism.zero(copy, zero_sheaf(ab))], ab.elements))
    w = build_wedge(2)
    assert bool(is_exact(structure_sequence(w), w.poset.elements))


def test_zero_sheaf():
    p = chain_poset(3)
    z = zero_sheaf(p)
    assert all(z.stalks[e].is_trivial() for e in p.elements)


def test_restriction_on_random_sheaves_respects_relations():
    rng = random.Random(3)
    p = FinitePoset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    for _ in range(20):
        # random functorial sheaf: force the two composites to agree
        m_ab = IntMatrix(1, 1, [[rng.randint(-3, 3)]])
        m_bd = IntMatrix(1, 1, [[rng.randint(-3, 3)]])
        prod = m_bd @ m_ab
        m_ac = IntMatrix(1, 1, [[1]])
        maps = {("a", "b"): m_ab, ("a", "c"): m_ac, ("b", "d"): m_bd, ("c", "d"): prod}
        s = PosetSheaf(p, {e: Z for e in p.elements}, maps)
        assert s.restrictions("a", "d") == prod


def triple_loop_verdict(base, stalks, cover_maps):
    """The functoriality check over every triple p < m < q, kept as the
    reference for the check along covers: True when it accepts."""
    s = PosetSheaf(base, stalks, cover_maps, check=False)
    for p in base.elements:
        for q in base.elements:
            if not base.lt(p, q):
                continue
            direct = s.restrictions(p, q)
            for m in base.elements:
                if base.lt(p, m) and base.lt(m, q):
                    via = s.restrictions(m, q) @ s.restrictions(p, m)
                    if not stalks[q].represents_zero(direct - via):
                        return False
            images = direct @ stalks[p].relations
            for j in range(images.cols):
                if solve(stalks[q].relations, column_matrix(images, j)) is None:
                    return False
    return True


def random_presheaf(rng):
    """Stalks Z, Z^2, Z/2, Z/3 or 0 on a random poset; each cover map is a
    sign character s_a * s_b times the identity where it fits, else random."""
    n = rng.randint(3, 6)
    labels = [f"e{i}" for i in range(n)]
    rels = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    base = FinitePoset(labels, rels)
    torsion = [PresentedAbGroup.from_canonical_form(0, [d]) for d in (2, 3)]
    kinds = [Z, PresentedAbGroup.free(2), *torsion, PresentedAbGroup.trivial()]
    stalks = {e: rng.choice(kinds) for e in labels}
    sign = {e: rng.choice((1, -1)) for e in labels}
    maps = {}
    for a, b in base.covers:
        rows, cols = stalks[b].generator_count, stalks[a].generator_count
        if rows == cols and rng.random() < 0.8:
            maps[(a, b)] = IntMatrix.diagonal([sign[a] * sign[b]] * rows, rows, rows)
        else:
            maps[(a, b)] = IntMatrix(rows, cols, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
    return base, stalks, maps


def test_functoriality_along_covers_matches_the_triple_loop():
    rng = random.Random(5)
    verdicts = []
    for _ in range(600):
        base, stalks, maps = random_presheaf(rng)
        try:
            PosetSheaf(base, stalks, maps)
            accepted = True
        except ContractViolation:
            accepted = False
        assert accepted == triple_loop_verdict(base, stalks, maps)
        verdicts.append(accepted)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_cover_map_must_respect_relations():
    p = FinitePoset("ab", [("a", "b")])
    stalks = {"a": PresentedAbGroup.from_canonical_form(0, [2]), "b": Z}
    with pytest.raises(ContractViolation):
        PosetSheaf(p, stalks, {("a", "b"): IntMatrix(1, 1, [[1]])})
    stalks_json = {"a": {"rank": 0, "invariant_factors": [2]}, "b": {"rank": 1}}
    obj = {"stalks": stalks_json, "restrictions": {"a<b": [["1"]]}}
    with pytest.raises(InputError):
        jsonio.sheaf_from_json(p, obj)


def reference_kernel_sheaf(m):
    """Stalks and cover maps of the kernel sheaf, each restricted kernel
    generator lifted by solving against the kernel generators and the
    source relations at the target together."""
    base = m.source.base
    gens, stalks = {}, {}
    for p in base.elements:
        kernel = Subquotient(m.source.stalks[p], None, m.components[p], m.target.stalks[p])
        gens[p], stalks[p] = kernel.cycle_gens, kernel.presented
    maps = {}
    for (p, q) in base.covers:
        images = m.source.restrictions(p, q) @ gens[p]
        cols = []
        for j in range(images.cols):
            sol = solve(gens[q].hstack(-m.source.stalks[q].relations), column_matrix(images, j))
            assert sol is not None
            cols.append(list(column(sol, 0)[: gens[q].cols]))
        maps[(p, q)] = from_columns(cols, gens[q].cols)
    return stalks, maps


def random_torsion_sheaf(rng):
    """A sheaf with stalks Z, Z/4, Z + Z/6 or Z/2 on a random poset, or None
    when the drawn cover maps are not functorial.  A drawn cover map that
    does not respect relations is replaced by zero."""
    n = rng.randint(3, 6)
    labels = [f"e{i}" for i in range(n)]
    rels = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    base = FinitePoset(labels, rels)
    kinds = [PresentedAbGroup.from_canonical_form(r, f) for r, f in ((1, []), (0, [4]), (1, [6]), (0, [2]))]
    stalks = {e: rng.choice(kinds) for e in labels}
    maps = {}
    for a, b in base.covers:
        rows, cols = stalks[b].generator_count, stalks[a].generator_count
        if rows == cols and rng.random() < 0.6:
            mat = IntMatrix.diagonal([rng.choice((1, -1))] * rows, rows, rows)
        else:
            mat = IntMatrix(rows, cols, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        try:
            GroupHom(stalks[a], stalks[b], mat)
        except InputError:
            mat = IntMatrix.zero(rows, cols)
        maps[(a, b)] = mat
    try:
        return PosetSheaf(base, stalks, maps)
    except ContractViolation:
        return None


def test_kernel_sheaf_lift_matches_the_solve_reference():
    """Kernels of multiplication by k on torsion sheaves: the same stalks,
    and every cover map equal as a hom to the lift through `solve`."""
    rng = random.Random(17)
    sheaves = maps_compared = torsion_kernels = 0
    while sheaves < 50:
        F = random_torsion_sheaf(rng)
        if F is None:
            continue
        sheaves += 1
        k = rng.choice((0, 1, 2, 3, 4, 6))
        n = {e: g.generator_count for e, g in F.stalks.items()}
        m = SheafMorphism(F, F, {e: IntMatrix.diagonal([k] * n[e], n[e], n[e]) for e in n})
        ker = kernel_sheaf(m)
        ref_stalks, ref_maps = reference_kernel_sheaf(m)
        for e in F.base.elements:
            assert ker.stalks[e].canonical == ref_stalks[e].canonical
            torsion_kernels += bool(ker.stalks[e].canonical[1])
        for (p, q), mat in ref_maps.items():
            got = GroupHom(ker.stalks[p], ker.stalks[q], ker.cover_maps[(p, q)])
            assert got.equals_as_hom(GroupHom(ref_stalks[p], ref_stalks[q], mat))
            maps_compared += 1
    assert maps_compared >= 50 and torsion_kernels >= 20
