import hashlib
import json

import pytest

from finsheaf.cli import main


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


def test_cohomology_of_a_json_sheaf_with_torsion_stalks(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"]]}))
    z2 = {"rank": 0, "invariant_factors": [2]}
    sheaf = tmp_path / "sheaf.json"
    sheaf.write_text(json.dumps({"stalks": {"a": z2, "b": z2}, "restrictions": {"a<b": [["1"]]}}))
    for degree, pretty in ((0, "Z/2"), (1, "0")):
        code, out, _ = run(capsys, "cohomology", "--space", str(space), "--sheaf", str(sheaf), "--degree", str(degree))
        assert code == 0 and json.loads(out)["pretty"] == pretty


def test_table_format(capsys):
    code, out, _ = run(capsys, "cohomology", "--disks", "2", "--degree", "2", "--format", "table")
    assert code == 0 and out.strip() == "H^2 = Z^2"
