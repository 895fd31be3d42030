"""Random inputs shared by the test modules: posets, face posets of graphs,
groups and sheaves with free and torsion stalks, drawn by hypothesis; and
`two_copies`, the disjoint union of two copies of a sheaf's base."""

from hypothesis import strategies as st

from finsheaf.abgroup import PresentedAbGroup
from finsheaf.finspace import FinitePoset, OpenSet, RegularCWData, face_poset
from finsheaf.sheaf import PosetSheaf, closed_pushforward, constant_sheaf, extension_by_zero


@st.composite
def posets(draw, max_elements=7):
    """Elements e0, e1, ... listed in an order that extends the partial
    order, as the simplicial oracle needs; each pair i < j related or not."""
    n = draw(st.integers(2, max_elements))
    labels = [f"e{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return FinitePoset(labels, [pair for pair, keep in zip(pairs, kept) if keep])


@st.composite
def graphs(draw):
    """The face poset of a random graph with parallel edges but no loops:
    vertices v0, v1, ... below edges x0, x1, ..., listed in an order that
    extends the face order.  The up-set of a vertex is its open star."""
    vertices = [f"v{i}" for i in range(draw(st.integers(2, 5)))]
    ends = draw(st.lists(st.lists(st.sampled_from(vertices), min_size=2, max_size=2, unique=True), max_size=7))
    cells = [(v, 0, []) for v in vertices] + [(f"x{i}", 1, pair) for i, pair in enumerate(ends)]
    return face_poset(RegularCWData(cells))


# Z^rank plus cyclic factors, not always in divisibility order ([2, 3])
groups = st.builds(
    PresentedAbGroup.from_canonical_form, st.integers(0, 2), st.lists(st.sampled_from([2, 3, 4, 6]), max_size=2)
)


@st.composite
def sheaves(draw, bases=posets()):
    """A random base, a poset by default, and a sheaf on it with free and
    torsion stalks: a constant sheaf, one extended by zero from an open
    set, or the pushforward of a constant sheaf on the closed complement."""
    base = draw(bases)
    group = draw(groups)
    seeds = draw(st.lists(st.sampled_from(base.elements), min_size=1, unique=True))
    opens = set().union(*(base.up_set(e) for e in seeds))
    kind = draw(st.sampled_from(["constant", "extension", "pushforward"]))
    if kind == "constant":
        return base, constant_sheaf(base, group)
    if kind == "extension":
        return base, extension_by_zero(base, OpenSet(base, opens), group)
    return base, closed_pushforward(base, set(base.elements) - opens, group)


def two_copies(base, first, second):
    """The disjoint union of two copies of base, ...a before ...b, and the
    sheaf that is `first` on the first copy and `second`, a sheaf on base
    too, on the second."""
    copies = [{e: f"{e}{tag}" for e in base.elements} for tag in "ab"]
    poset = FinitePoset(
        [c[e] for c in copies for e in base.elements],
        [(c[a], c[b]) for c in copies for a, b in base.covers],
    )
    sheaves = list(zip(copies, (first, second)))
    stalks = {c[e]: sheaf.stalks[e] for c, sheaf in sheaves for e in base.elements}
    cover_maps = {(c[a], c[b]): m for c, sheaf in sheaves for (a, b), m in sheaf.cover_maps.items()}
    return copies, PosetSheaf(poset, stalks, cover_maps)
