import hashlib
import json
import re

import pytest
from counting import counting_calls
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import reference_acyclic_connected, reference_cech_cohomology
from strategies import sheaves, two_copies

from finsheaf import abgroup, cech, cohom, finspace, jsonio
from finsheaf.cech import Covering
from finsheaf.cli import main
from finsheaf.sheaf import PosetSheaf, constant_sheaf
from finsheaf.wedge import build_wedge, canonical_covering, gap_sheaf


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_space_build(capsys):
    code, out, _ = run(capsys, "space", "build", "--disks", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["disks"] == 2
    assert len(payload["space"]["elements"]) == 9
    assert payload["seed"] == 0


def test_cohomology_examples(capsys):
    code, out, _ = run(capsys, "cohomology", "--disks", "2", "--degree", "2")
    assert code == 0 and json.loads(out)["pretty"] == "Z^2"
    code, out, _ = run(capsys, "cohomology", "--disks", "1", "--coeff", "constant", "--degree", "0")
    assert code == 0 and json.loads(out)["pretty"] == "Z"
    code, out, _ = run(capsys, "cohomology", "--disks", "1", "--degree", "99")
    assert code == 0 and json.loads(out)["pretty"] == "0"


def test_too_many_strict_chains_exit_1(capsys, tmp_path):
    labels = [f"c{i}" for i in range(40)]
    space = tmp_path / "chain.json"
    space.write_text(json.dumps({"elements": labels, "covers": [list(r) for r in zip(labels, labels[1:])]}))
    code, out, err = run(capsys, "cohomology", "--space", str(space), "--coeff", "constant", "--degree", "1")
    assert code == 1 and out == ""
    assert "strict chains" in err


def test_cech_examples(capsys):
    code, out, _ = run(capsys, "cech", "--disks", "3", "--degree", "1", "--coeff-degree", "1")
    assert code == 0 and json.loads(out)["pretty"] == "Z^3"
    code, out, _ = run(capsys, "cech", "--disks", "3", "--degree", "2")
    assert code == 0 and json.loads(out)["pretty"] == "0"


def test_covering_validate(capsys):
    code, out, _ = run(capsys, "covering", "validate", "--disks", "2")
    assert code == 0 and json.loads(out)["ok"]


def test_reproduce_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "reproduce", "--disks", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["certificate"]["verdict"] == "uncountable"
    code, _, err = run(capsys, "reproduce", "--disks", "0")
    assert code == 1 and "disk" in err


def test_reproduce_single_disk_caveat(capsys):
    code, out, _ = run(capsys, "reproduce", "--disks", "1")
    assert code == 0
    assert json.loads(out)["certificate"]["caveats"]


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "42")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["seed"] == 42


def test_byte_identical_output(capsys):
    _, a, _ = run(capsys, "reproduce", "--disks", "2", "--seed", "7")
    _, b, _ = run(capsys, "reproduce", "--disks", "2", "--seed", "7")
    assert a == b


# sha256 of `reproduce --disks N --seed 0` stdout; any change to the output
# bytes, however small, must show up here.
REPRODUCE_SHA256 = {
    1: "eb86e8ef371826dfee29825aea29a93ea7fe9b62d7600e78f69ff4bbe0dbf5fb",
    2: "927fd6301933f78d198f078bfe97a444746f2cfb9536b6de9540b4f1e8504b99",
    3: "e9722a308dbbfe95cf63c624c0b5807ca06dc573ea9c62cfcbf524ad59ba7762",
    4: "f311a8a6e92736b51f7d7982a73fdda008587222863a385aad83500ef0b1f9d5",
    8: "5683915a8802a86c949bc476c0132bfe6ddc9acc1cf76b81cce16b5cffce8d4b",
    10: "0764a4699fb040b069c0a3d9045fb65f3628662bd92aa161595e02671f3af6a2",
}


@pytest.mark.parametrize("n", sorted(REPRODUCE_SHA256))
def test_reproduce_stdout_bytes_pinned(capsys, n):
    code, out, _ = run(capsys, "reproduce", "--disks", str(n), "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPRODUCE_SHA256[n]


# Smith forms computed by `reproduce --disks N`.  Unlike a time, the count
# does not depend on the machine, so a route that adds Smith forms fails here.
# The last stage reads out Z^0: its 0x0 readout is inverted by `solve`, which
# takes no Smith form of a zero right-hand side.  Condition (i) takes none:
# every member and skeleton trace of the canonical covering has a one-point
# core.  The comparison report and the stage run share one coefficient
# table, so the homology of each open set is computed once per degree, and
# once for all the open sets whose complexes have equal groups and
# differentials: the N alike disks' U_k and S_k = U0 ∩ U_k.
REPRODUCE_SMITH_FORMS = {2: 33, 3: 40, 4: 47}


@pytest.mark.parametrize("n", sorted(REPRODUCE_SMITH_FORMS))
def test_reproduce_smith_form_count_pinned(capsys, monkeypatch, n):
    built = counting_calls(monkeypatch, abgroup.SmithDecomposition, "__init__")
    code, _, _ = run(capsys, "reproduce", "--disks", str(n))
    assert code == 0
    assert len(built) == REPRODUCE_SMITH_FORMS[n]


# Čech complexes built by `reproduce --disks N`: two for the comparison
# report and one per stage, N + 1, which the stage system builds once each.
REPRODUCE_CECH_COMPLEXES = {2: 5, 3: 6, 4: 7}


@pytest.mark.parametrize("n", sorted(REPRODUCE_CECH_COMPLEXES))
def test_reproduce_cech_complex_count_pinned(capsys, monkeypatch, n):
    built = counting_calls(monkeypatch, cech.CechComplex, "__init__")
    code, _, _ = run(capsys, "reproduce", "--disks", str(n))
    assert code == 0
    assert len(built) == REPRODUCE_CECH_COMPLEXES[n]


# Posets and sheaves built by `reproduce --disks N`.  The wedge is the one
# poset: every cochain complex on an intersection, stage member or skeleton
# trace lies on the chains of the wedge inside it.  The one sheaf is the gap
# sheaf, whose coefficient table the comparison report and the stage system
# share; none is a restricted sheaf.  Condition (i) builds no sheaf: every
# member and skeleton trace of the canonical covering has a one-point core.
REPRODUCE_POSETS = {2: 1, 3: 1, 4: 1}
REPRODUCE_SHEAVES = {2: 1, 3: 1, 4: 1}


@pytest.mark.parametrize("n", sorted(REPRODUCE_POSETS))
def test_reproduce_poset_and_sheaf_counts_pinned(capsys, monkeypatch, n):
    posets = counting_calls(monkeypatch, finspace.FinitePoset, "__init__")
    sheaves = counting_calls(monkeypatch, PosetSheaf, "__init__")
    code, _, _ = run(capsys, "reproduce", "--disks", str(n))
    assert code == 0
    assert len(posets) == REPRODUCE_POSETS[n]
    assert len(sheaves) == REPRODUCE_SHEAVES[n]


# Cochain complexes built by `reproduce --disks N`: one per class of alike
# open sets of the coefficient table that the comparison report and the
# stage run share, for the first open set of the class that any covering
# and coefficient degree meets, and the gap sheaf's complex on the whole
# wedge for its sheaf cohomology.  Every other open set of the table is a
# relabelled view.  Built once per open set, they were 8/11/14.
REPRODUCE_COCHAIN_COMPLEXES = {2: 6, 3: 7, 4: 8}


@pytest.mark.parametrize("n", sorted(REPRODUCE_COCHAIN_COMPLEXES))
def test_reproduce_cochain_complex_count_pinned(capsys, monkeypatch, n):
    built = counting_calls(monkeypatch, cohom.CochainComplex, "__init__")
    code, _, _ = run(capsys, "reproduce", "--disks", str(n))
    assert code == 0
    assert len(built) == REPRODUCE_COCHAIN_COMPLEXES[n]
    assert len({call["members"] for call in built}) == len(built)


def test_constant_z_cohomology_takes_at_most_two_smith_forms_per_degree(monkeypatch):
    """H^q of constant Z on X_3 for q = 0..h: one reduction of the degree's
    cycle matrix, and one of its boundary coordinates unless they are all
    zero; the canonical group of the result takes none."""
    w = build_wedge(3)
    Z = constant_sheaf(w.poset, abgroup.PresentedAbGroup.free(1))
    built = counting_calls(monkeypatch, abgroup.SmithDecomposition, "__init__")
    groups = [cohom.cohomology(w.poset, Z, q).canonical for q in range(w.poset.height + 1)]
    assert groups == [(1, ()), (0, ()), (0, ())]
    assert len(built) == 5 <= 2 * len(groups)


# Cost counters of `reproduce --disks N`: restrictions H^q(big) -> H^q(small)
# computed and Čech summands laid out.  A summand without generators is not
# laid out and needs no restriction, so a change that lays them out again
# fails here.
REPRODUCE_RESTRICTIONS = {4: 3, 16: 15}
REPRODUCE_CECH_SUMMANDS = {4: 39, 16: 3892}


@pytest.mark.parametrize("n", sorted(REPRODUCE_RESTRICTIONS))
def test_reproduce_restriction_and_summand_counts_pinned(capsys, monkeypatch, n):
    restrictions = counting_calls(monkeypatch, cohom, "restriction_on_homology")
    complexes = counting_calls(monkeypatch, cech.CechComplex, "__init__")
    code, _, _ = run(capsys, "reproduce", "--disks", str(n))
    assert code == 0
    assert len(restrictions) == REPRODUCE_RESTRICTIONS[n]
    summands = [len(cx.summands(k)) for cx in (call["self"] for call in complexes) for k in range(len(cx.groups))]
    assert sum(summands) == REPRODUCE_CECH_SUMMANDS[n]


def _subcommand_invocations():
    n = ["--disks", "3"]
    return {
        "space": [["space", "build", *n]],
        "selftest": [["selftest"]],
        "cohomology": [["cohomology", *n, "--coeff", c, "--degree", str(q)] for c in ("gap", "constant") for q in range(3)],
        "cech": [
            ["cech", *n, "--degree", str(p), *coeff, *stage]
            for p in range(3)
            for coeff in ([], ["--coeff-degree", "1"])
            for stage in ([], ["--stage", "1"], ["--stage", "2"], ["--stage", "4"])
        ],
        "covering": [["covering", "validate", *n, *stage] for stage in ([], ["--stage", "1"], ["--stage", "2"])],
    }


# sha256 over "exit code, newline, stdout" of each invocation above in turn,
# per subcommand and format; pins the other subcommands' bytes as
# REPRODUCE_SHA256 pins `reproduce`.
SUBCOMMAND_SHA256 = {
    ("space", "json"): "0d996f9b249f0ff83c78ee1759ec68a245f4d5d2b41c1595365d85d9f0557de6",
    ("selftest", "json"): "4ded702747bbc90a545a2505c78a34ba983b9803968a57077c5c9dceadf829e5",
    ("cohomology", "json"): "127376812ba7b9d4ba12b14cd98ebf048a73d58a6b7d6caa889b9c5efd350e27",
    ("cech", "json"): "9170848075584ec0d5f8be5287a25f98eff0f8204815abead73dc374650c9505",
    ("covering", "json"): "21cb1336cb6040f4548bf5f46dc80f4082f12a2d68de72f3851b5ad5dad75f31",
    ("space", "table"): "8973ba992ba908deee15cad8a75be2ad70e74c33e1ef7435695dd3c65efe7324",
    ("selftest", "table"): "8d63e7ed85b6879796c040a2a022803c2a8a98185e87ae648bac0b5ffbe1c9e9",
    ("cohomology", "table"): "6e3b0ca4fc2d93eada4a4272a337bf8af399a43f32717a3f004c12e9030205b2",
    ("cech", "table"): "51956c317ae90b55615ccf5fd0162f8e948b9ab034cf8dd6569b38a347222a70",
    ("covering", "table"): "8a73a45eb0d5aa229edb029fb72f5c07f895d6a15f42bb71af901fa55e062845",
}


@pytest.mark.parametrize("command, fmt", sorted(SUBCOMMAND_SHA256))
def test_subcommand_stdout_bytes_pinned(capsys, command, fmt):
    digest = hashlib.sha256()
    for argv in _subcommand_invocations()[command]:
        code, out, _ = run(capsys, *argv, "--format", fmt)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == SUBCOMMAND_SHA256[(command, fmt)]


def test_bad_input_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "cohomology", "--space", str(bad), "--degree", "0")
    assert code == 1 and err

    missing = tmp_path / "nope.json"
    code, _, _ = run(capsys, "cohomology", "--space", str(missing), "--degree", "0")
    assert code == 1

    code, _, _ = run(capsys, "cohomology", "--degree", "0")
    assert code == 1  # neither --space nor --disks

    code, out, err = run(capsys, "cech", "--disks", "2", "--degree", "1", "--coeff-degree", "-1")
    assert code == 1 and out == "" and "coefficient degree" in err


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (["reproduce"], "usage: finsheaf reproduce .*\nfinsheaf reproduce: error: the following arguments are required: --disks\n"),
        (["reproduce", "--disks", "x"], "usage: finsheaf reproduce .*\nfinsheaf reproduce: error: argument --disks: invalid int value: 'x'\n"),
        (["cech", "--disks", "2", "--degree", "1", "--coeff-degree", "-1"], "error: coefficient degree must be >= 0\n"),
    ],
)
def test_usage_and_input_errors_exit_1(capsys, argv, stderr):
    """A usage error exits 1, as any bad input does (2 is kept for contract
    violations), with the usage line and the message on stderr; the next
    call in the same process still prints the pinned bytes."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and re.fullmatch(stderr, err, re.DOTALL)
    code, out, _ = run(capsys, "reproduce", "--disks", "2", "--seed", "0")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == REPRODUCE_SHA256[2]


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "reproduce", "--help")
    assert code == 0 and out.startswith("usage: finsheaf reproduce") and err == ""


def test_malformed_json_files_exit_1(capsys, tmp_path):
    """A negative rank, and labels that are not an array of strings, are
    refused as bad input: exit 1 with a message, never a traceback."""

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    space = write("space.json", {"elements": ["a", "b"], "covers": [["a", "b"]]})
    negative = write("negative.json", {"stalks": {"a": {"rank": -1}, "b": {"rank": 1}}, "restrictions": {"a<b": []}})
    nested = write("nested.json", {"elements": [["x"]], "covers": []})
    string = write("string.json", {"members": {"U": "ab"}, "order": ["U"]})
    for argv in (
        ["cohomology", "--space", space, "--sheaf", negative, "--degree", "0"],
        ["cohomology", "--space", nested, "--coeff", "constant", "--degree", "0"],
        ["cech", "--space", space, "--coeff", "constant", "--covering", string, "--degree", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:")


def test_cohomology_of_a_json_sheaf_with_torsion_stalks(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"]]}))
    z2 = {"rank": 0, "invariant_factors": [2]}
    sheaf = tmp_path / "sheaf.json"
    sheaf.write_text(json.dumps({"stalks": {"a": z2, "b": z2}, "restrictions": {"a<b": [["1"]]}}))
    for degree, pretty in ((0, "Z/2"), (1, "0")):
        code, out, _ = run(capsys, "cohomology", "--space", str(space), "--sheaf", str(sheaf), "--degree", str(degree))
        assert code == 0 and json.loads(out)["pretty"] == pretty


@pytest.mark.parametrize(
    "stalk, entry",
    [
        ({"rank": 0, "invariant_factors": [0]}, "1"),  # read as Z before
        ({"rank": 0, "invariant_factors": [1]}, "1"),  # read as 0 before
        ({"rank": 0, "invariant_factors": [-2]}, "1"),  # read as Z/2 before
        ({"rank": 1}, 2.7),  # read as 2 before
        ({"rank": 1}, True),  # read as 1 before
        ({"rank": 1.9}, "1"),  # read as rank 1 before
        ({"rank": True}, "1"),  # read as rank 1 before
        ({"rank": 1}, "1_0"),  # read as 10 before
        ({"rank": 1}, "+1"),  # read as 1 before
        ({"rank": 1}, " 1"),  # read as 1 before
        ({"rank": 1}, "\u0661"),  # an Arabic-Indic one, read as 1 before
    ],
    ids=[
        "factor-0",
        "factor-1",
        "factor-negative",
        "float-entry",
        "bool-entry",
        "float-rank",
        "bool-rank",
        "entry-separator",
        "entry-plus",
        "entry-space",
        "entry-non-ascii-digit",
    ],
)
def test_json_sheaf_that_states_another_group_exits_1(capsys, tmp_path, stalk, entry):
    """A group or matrix the file does not state exactly is refused, not
    read as a different one."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"]]}))
    sheaf = tmp_path / "sheaf.json"
    sheaf.write_text(json.dumps({"stalks": {"a": stalk, "b": stalk}, "restrictions": {"a<b": [[entry]]}}))
    code, out, err = run(capsys, "cohomology", "--space", str(space), "--sheaf", str(sheaf), "--degree", "0")
    assert code == 1 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "stalk",
    [
        {"rank": 0, "invariant_factors": "23"},  # read as Z/6 before
        {"rank": 0, "invariant_factors": {"4": 1}},  # read as Z/4 before
        {"rank": "1_0"},  # read as Z^10 before
        {"rank": 0, "invariant_factors": ["1_2"]},  # read as Z/12 before
        {"rank": "+1"},  # read as Z before
        {"rank": "\u0661"},  # an Arabic-Indic one, read as Z before
    ],
    ids=["factors-string", "factors-object", "rank-separator", "factor-separator", "rank-plus", "rank-non-ascii-digit"],
)
def test_json_stalk_spelled_otherwise_exits_1(capsys, tmp_path, stalk):
    """On a one-point space, where any group would fit, a stalk not stated
    as an array of factors and a rank and factors in plain decimal is
    refused, not read as some group."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"elements": ["a"], "covers": []}))
    sheaf = tmp_path / "sheaf.json"
    sheaf.write_text(json.dumps({"stalks": {"a": stalk}, "restrictions": {}}))
    code, out, err = run(capsys, "cohomology", "--space", str(space), "--sheaf", str(sheaf), "--degree", "0")
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_json_integers_and_decimal_strings_are_read_alike(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"]]}))
    sheaf = tmp_path / "sheaf.json"
    sheaf.write_text(json.dumps({"stalks": {"a": {"rank": 1}, "b": {"rank": "1"}}, "restrictions": {"a<b": [["-1"]]}}))
    code, out, _ = run(capsys, "cohomology", "--space", str(space), "--sheaf", str(sheaf), "--degree", "0")
    assert code == 0 and json.loads(out)["pretty"] == "Z"


def test_table_format(capsys):
    code, out, _ = run(capsys, "cohomology", "--disks", "2", "--degree", "2", "--format", "table")
    assert code == 0 and out.strip() == "H^2 = Z^2"


def test_stage_zero_is_refused_not_ignored(capsys):
    for argv in (["cech", "--disks", "2", "--degree", "1", "--stage", "0"], ["covering", "validate", "--disks", "2", "--stage", "0"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "stage must lie in 1..3" in err


def test_reproduce_over_the_nerve_budget_exits_1(capsys):
    code, out, err = run(capsys, "reproduce", "--disks", "100")
    assert code == 1 and out == ""
    assert "nerve simplices" in err


def test_covering_file_and_stage_are_refused_together(capsys, tmp_path):
    covering = tmp_path / "covering.json"
    covering.write_text(json.dumps(jsonio.covering_to_json(canonical_covering(build_wedge(2)))))
    for command in (["cech", "--disks", "2", "--degree", "1"], ["covering", "validate", "--disks", "2"]):
        code, _, _ = run(capsys, *command, "--covering", str(covering))
        assert code == 0
        for stage in ("1", "7"):
            code, out, err = run(capsys, *command, "--covering", str(covering), "--stage", stage)
            assert code == 1 and out == ""
            assert "not both" in err


def test_zero_disks_is_refused_not_ignored(capsys):
    for argv in (["cohomology", "--disks", "0", "--degree", "1"], ["cech", "--disks", "0", "--degree", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "need at least one disk" in err


@st.composite
def wedge_coverings(draw):
    """A wedge X_N, N <= 4, and an open covering of it in JSON: each member
    the union of the minimal open sets (up-sets) of the elements given to
    it, each element given to one or more members, members listed in any
    order."""
    w = build_wedge(draw(st.integers(1, 4)))
    names = [f"M{i}" for i in range(draw(st.integers(1, w.n + 2)))]
    members = {name: set() for name in names}
    for e in w.poset.elements:
        for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)):
            members[name] |= w.poset.up_set(e)
    order = draw(st.permutations(names))
    return w, {"members": {n: sorted(members[n], key=w.poset.elements.index) for n in names}, "order": order}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(wedge_coverings())
def test_covering_validate_round_trip_matches_the_condition_i_oracle(capsys, tmp_path, drawn):
    """`covering validate` on a covering file exits 0 or 1, never 2, and its
    condition (i) verdict and detail are those of the subposets' own
    constant-Z cohomology."""
    w, covering = drawn
    path = tmp_path / "covering.json"
    path.write_text(json.dumps(covering))
    code, out, _ = run(capsys, "covering", "validate", "--disks", str(w.n), "--covering", str(path))
    assert code in (0, 1)
    report = json.loads(out)
    assert code == (0 if report["ok"] else 1)
    bad = []
    for name in covering["order"]:
        m = frozenset(covering["members"][name])
        for label, subset in ((name, m), (f"{name} ∩ skeleton", m & w.skeleton)):
            if subset and not reference_acyclic_connected(w.poset, subset):
                bad.append(f"{label} not acyclic+connected")
    assert report["conditions"][0] == {"condition": "i", "ok": not bad, "detail": "; ".join(bad)}


@st.composite
def doubled_coverings(draw):
    """A random poset and sheaf with free and torsion stalks, doubled into
    two disjoint copies, with a covering of the double by alike up-sets:
    the up-sets of a few drawn elements, then the up-set of each element
    they leave out, in both copies, listed in any order; and degrees p <= 2
    and q <= the height."""
    base, sheaf = draw(sheaves())
    copies, doubled = two_copies(base, sheaf, sheaf)
    opens = [base.up_set(e) for e in draw(st.lists(st.sampled_from(base.elements), min_size=1, max_size=4, unique=True))]
    opens += [base.up_set(e) for e in base.elements if not any(e in V for V in opens)]
    members = {f"{tag}{i}": [c[e] for e in V] for i, V in enumerate(opens) for tag, c in zip("ab", copies)}
    covering = Covering(doubled.base, members, draw(st.permutations(sorted(members))))
    return doubled, covering, draw(st.integers(0, 2)), draw(st.integers(0, base.height))


def check_cech_on_covering_files(capsys, tmp_path, sheaf, covering, p, q):
    """Write the sheaf's poset, the sheaf and the covering through `jsonio`,
    run `cech` on the files, check that it exits 0 and prints the group the
    reference Čech loop gives on fresh complexes of `sheaf`, and return its
    argument list and the covering's JSON, which the files hold."""
    files = {
        "space": jsonio.poset_to_json(sheaf.base),
        "sheaf": jsonio.sheaf_to_json(sheaf),
        "covering": jsonio.covering_to_json(covering),
    }
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    argv = ["cech", *(f"--{name}={tmp_path / name}.json" for name in files), "--degree", str(p), "--coeff-degree", str(q)]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    rank, factors = reference_cech_cohomology(covering, sheaf, p, q)
    assert json.loads(out)["group"] == {"rank": rank, "invariant_factors": list(factors)}
    return argv, files["covering"]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doubled_coverings(), st.data())
def test_cech_on_covering_files_matches_the_reference_loop_on_fresh_complexes(capsys, tmp_path, drawn, data):
    """`cech --space --sheaf --covering` on files written by `jsonio` exits 0
    and prints Ȟ^p(U; H^q F) as the reference Čech loop gives it on fresh
    complexes of the drawn sheaf.  A covering file with a member that is not
    an up-set, or that names an unknown element, exits 1, never 2."""
    sheaf, covering, p, q = drawn
    argv, written = check_cech_on_covering_files(capsys, tmp_path, sheaf, covering, p, q)
    name = data.draw(st.sampled_from(covering.order))
    mutants = [[*written["members"][name], "nowhere"]]
    mutants += [[a] for a, _ in sheaf.base.covers[:1]]  # {a} without the b above it
    for member in mutants:
        mutant = {**written, "members": {**written["members"], name: member}}
        (tmp_path / "covering.json").write_text(json.dumps(mutant))
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("p, q, want", [(1, 1, (4, ())), (2, 0, (0, ())), (0, 1, (0, ()))])
def test_cech_on_covering_files_of_two_copies_of_a_wedge(capsys, tmp_path, p, q, want):
    """Two disjoint copies of X_2, the gap sheaf on each and the canonical
    covering in each: the files give the corner group Ȟ¹(U; H¹F) of both
    copies, Z^2 + Z^2, and the reference loop agrees in each degree."""
    w = build_wedge(2)
    c = canonical_covering(w)
    copies, doubled = two_copies(w.poset, gap_sheaf(w), gap_sheaf(w))
    members = {f"{name}{tag}": [copy[e] for e in c.members[name]] for name in c.order for tag, copy in zip("ab", copies)}
    covering = Covering(doubled.base, members, sorted(members))
    check_cech_on_covering_files(capsys, tmp_path, doubled, covering, p, q)
    assert cech.cech_cohomology_hq(covering, doubled, q, p).canonical == want
