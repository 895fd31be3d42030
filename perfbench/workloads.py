"""The benchmark's workloads: inputs made from a seed, jobs that push them
through finsheaf's public API, and checks of every output.

A workload exposes
  prepare(fs)      -> inputs built with the live finsheaf modules
  jobs(fs, inputs) -> [(label, thunk)], one round; each thunk is one job
  check(label, out) -> None, or a string saying what is wrong
The checks use closed forms, recorded digests and oracles written here,
never finsheaf itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

RECORDS = json.loads((Path(__file__).with_name("workloads.json")).read_text())


# -- flagship ----------------------------------------------------------------


class Flagship:
    """`finsheaf reproduce --disks N` for N = 2, 3, 4, stdout captured.

    The seed orders the jobs of a round and is passed as the CLI's --seed,
    which the CLI echoes; the stdout digest is taken with that echo set
    back to 0 and compared with the digest recorded per N."""

    def __init__(self, seed: int):
        rec = RECORDS["flagship"]
        self.disks = list(rec["disks"])
        random.Random(seed).shuffle(self.disks)
        self.cli_seed = seed
        self.digests = {int(n): d for n, d in rec["stdout_sha256_at_seed_0"].items()}

    def prepare(self, fs):
        return [["reproduce", "--disks", str(n), "--seed", str(self.cli_seed)] for n in self.disks]

    def jobs(self, fs, argvs):
        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = fs.cli.main(argv)
            return code, buf.getvalue()

        return [(int(argv[2]), (lambda argv=argv: run(argv))) for argv in argvs]

    def check(self, n, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(text)
        if payload.get("ok") is not True:
            return "ok is not true"
        cert = payload.get("certificate", {})
        if cert.get("verdict") != "uncountable" or cert.get("limit_cardinality") != "uncountable":
            return f"certificate is {cert.get('verdict')!r}"
        echo = f'\n  "seed": {self.cli_seed}\n}}\n'
        if not text.endswith(echo):
            return "seed echo not found at the end of stdout"
        canonical = text[: -len(echo)] + '\n  "seed": 0\n}\n'
        if hashlib.sha256(canonical.encode()).hexdigest() != self.digests[n]:
            return "stdout digest differs from the recorded one"
        return None


# -- wide --------------------------------------------------------------------


class Wide:
    """One wedge X_N at large N: sheaf H^q for F, Z_X and Z_skeleton, q = 0..2,
    and the canonical corner Hcheck^1(cov, H^1 F).  The seed orders the jobs."""

    # closed forms: (rank, invariant factors) as a function of N
    EXPECTED = {
        ("F", 0): lambda n: (0, ()),
        ("F", 1): lambda n: (0, ()),
        ("F", 2): lambda n: (n, ()),
        ("Z_X", 0): lambda n: (1, ()),
        ("Z_X", 1): lambda n: (0, ()),
        ("Z_X", 2): lambda n: (0, ()),
        ("Z_skeleton", 0): lambda n: (1, ()),
        ("Z_skeleton", 1): lambda n: (n, ()),
        ("Z_skeleton", 2): lambda n: (0, ()),
        ("corner", 1): lambda n: (n, ()),
    }

    def __init__(self, seed: int):
        self.n = RECORDS["wide"]["disks"]
        self.labels = list(self.EXPECTED)
        random.Random(seed).shuffle(self.labels)

    def prepare(self, fs):
        w = fs.wedge.build_wedge(self.n)
        Z = fs.abgroup.PresentedAbGroup.free(1)
        return {
            "poset": w.poset,
            "F": fs.wedge.gap_sheaf(w),
            "Z_X": fs.sheaf.constant_sheaf(w.poset, Z),
            "Z_skeleton": fs.wedge.skeleton_sheaf(w),
            "cov": fs.wedge.canonical_covering(w),
        }

    def jobs(self, fs, inp):
        def job(label):
            what, q = label
            if what == "corner":
                return lambda: fs.cech.cech_cohomology_hq(inp["cov"], inp["F"], 1, q).canonical
            return lambda: fs.cohom.cohomology(inp["poset"], inp[what], q).canonical

        return [(label, job(label)) for label in self.labels]

    def check(self, label, canonical):
        want = self.EXPECTED[label](self.n)
        if canonical != want:
            return f"{label}: got {canonical}, want {want}"
        return None


# -- random_posets -----------------------------------------------------------


def _closure(elements, relations):
    """Strict order as {a: set of elements above a}, by depth-first search."""
    up = {e: set() for e in elements}
    for a, b in relations:
        up[a].add(b)
    above = {}

    def visit(e):
        if e not in above:
            acc = set()
            for b in up[e]:
                acc.add(b)
                acc |= visit(b)
            above[e] = acc
        return above[e]

    for e in elements:
        visit(e)
    return above


def _components(members, above):
    """Connected components of the comparability graph on members."""
    members = set(members)
    parent = {e: e for e in members}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for a in members:
        for b in above[a] & members:
            parent[find(a)] = find(b)
    return len({find(e) for e in members})


def _chain_counts(elements, above, rank):
    """c[k] = sum over strict chains p_0 < ... < p_k of rank(p_k)."""
    # ending[e][k] = number of strict (k+1)-chains ending at e
    below = {e: [a for a in elements if e in above[a]] for e in elements}
    ending = {}
    order = sorted(elements, key=lambda e: len(below[e]))
    for e in order:
        counts = [1]
        for a in below[e]:
            for k, c in enumerate(ending[a]):
                if k + 1 >= len(counts):
                    counts.append(0)
                counts[k + 1] += c
        ending[e] = counts
    total = []
    for e in elements:
        for k, c in enumerate(ending[e]):
            if k >= len(total):
                total.append(0)
            total[k] += c * rank(e)
    return total


class RandomPosets:
    """Graded posets with 8-16 elements, at most 4 levels and relations
    between adjacent levels.  Each job builds one poset from its relation
    list and computes every degree of three free-stalk sheaves: constant Z,
    Z^2 extended by zero from an open set, and the closed pushforward of Z
    on its complement.

    The 40 shapes come from a fixed shape seed; --seed renames and reorders
    their elements and relations.  Letting --seed draw the shapes made the
    round time vary 2-3x from seed to seed, because the cost of one poset
    depends steeply on its structure; that would drown any change measured
    on this workload."""

    def __init__(self, seed: int):
        rec = RECORDS["random_posets"]
        shapes = [self._shape(random.Random(f"{rec['shape_seed']}/{i}"), i, rec) for i in range(rec["posets"])]
        rng = random.Random(seed)
        self.specs = [self._relabel(rng, shape) for shape in shapes]
        self._expected = {}

    @staticmethod
    def _shape(rng, i, rec):
        """Poset i: size and level count cycle through their ranges; a fixed
        share of the adjacent-level pairs are relations."""
        lo, hi = rec["min_elements"], rec["max_elements"]
        n = lo + i % (hi - lo + 1)
        levels = 2 + (i // (hi - lo + 1)) % (rec["max_levels"] - 1)
        layers = []
        for l in range(levels):
            size = n // levels + (1 if l < n % levels else 0)
            layers.append([f"p{l}_{j}" for j in range(size)])
        elements = [e for layer in layers for e in layer]
        relations = []
        for below, above in zip(layers, layers[1:]):
            pairs = [(a, b) for a in below for b in above]
            relations += rng.sample(pairs, max(1, round(rec["edge_fraction"] * len(pairs))))
        up = _closure(elements, relations)
        # a proper up-set of about a third of the poset
        opens = set()
        for e in rng.sample(elements, n):
            if len(opens) >= n // 3:
                break
            if len(opens | up[e] | {e}) < n:
                opens |= up[e] | {e}
        return {"elements": elements, "relations": relations, "open": sorted(opens)}

    @staticmethod
    def _relabel(rng, shape):
        elements = list(shape["elements"])
        rng.shuffle(elements)
        name = {e: f"e{k}" for k, e in enumerate(rng.sample(elements, len(elements)))}
        relations = [(name[a], name[b]) for a, b in shape["relations"]]
        rng.shuffle(relations)
        return {
            "elements": [name[e] for e in elements],
            "relations": relations,
            "open": sorted(name[e] for e in shape["open"]),
        }

    def prepare(self, fs):
        return self.specs

    def jobs(self, fs, specs):
        def job(spec):
            poset = fs.finspace.FinitePoset(spec["elements"], spec["relations"])
            opens = fs.finspace.OpenSet(poset, spec["open"])
            closed = set(poset.elements) - opens.members
            Z = fs.abgroup.PresentedAbGroup.free
            sheaves = {
                "constant": fs.sheaf.constant_sheaf(poset, Z(1)),
                "extension": fs.sheaf.extension_by_zero(poset, opens, Z(2)),
                "pushforward": fs.sheaf.closed_pushforward(poset, closed, Z(1)),
            }
            return {
                name: [fs.cohom.cohomology(poset, s, q).canonical for q in range(poset.height + 1)]
                for name, s in sheaves.items()
            }

        return [(i, (lambda spec=spec: job(spec))) for i, spec in enumerate(specs)]

    def expected(self, i):
        """Euler characteristics of the cochain complexes and the number of
        components, from this module's own chain enumeration."""
        if i not in self._expected:
            spec = self.specs[i]
            elements = spec["elements"]
            above = _closure(elements, spec["relations"])
            opens = set(spec["open"])
            closed = [e for e in elements if e not in opens]
            ranks = {
                "constant": lambda e: 1,
                "extension": lambda e: 2 if e in opens else 0,
                "pushforward": lambda e: _components((above[e] | {e}) & set(closed), above),
            }
            euler = {}
            for name, rank in ranks.items():
                counts = _chain_counts(elements, above, rank)
                euler[name] = (sum((-1) ** k * c for k, c in enumerate(counts)), len(counts))
            self._expected[i] = (euler, _components(elements, above))
        return self._expected[i]

    def check(self, i, out):
        euler, components = self.expected(i)
        for name, (chi, degrees) in euler.items():
            forms = out[name]
            if len(forms) != degrees:
                return f"poset {i} {name}: {len(forms)} degrees, want {degrees}"
            got = sum((-1) ** q * rank for q, (rank, _) in enumerate(forms))
            if got != chi:
                return f"poset {i} {name}: Euler characteristic {got}, want {chi}"
        if out["constant"][0] != (components, ()):
            return f"poset {i}: H^0 of the constant sheaf is {out['constant'][0]}, want Z^{components}"
        return None

    def torsion_probes(self, fs, outputs):
        """Constant Z/2 cohomology on each poset, against the universal
        coefficient formula applied to the constant-Z result of the job.
        Returns (attempted, failed, reasons)."""
        failed, reasons = 0, {}
        Z2 = fs.abgroup.PresentedAbGroup(1, fs.abgroup.IntMatrix(1, 1, [[2]]))
        for i, spec in enumerate(self.specs):
            integral = outputs[i]["constant"]

            def even(q):
                return sum(1 for f in integral[q][1] if f % 2 == 0) if q < len(integral) else 0

            try:
                poset = fs.finspace.FinitePoset(spec["elements"], spec["relations"])
                sheaf = fs.sheaf.constant_sheaf(poset, Z2)
                for q in range(len(integral)):
                    got = fs.cohom.cohomology(poset, sheaf, q).canonical
                    want = (0, (2,) * (integral[q][0] + even(q) + even(q + 1)))
                    if got != want:
                        raise ValueError(f"H^{q}(Z/2) is {got}, want {want}")
            except Exception as e:  # every probe outcome is recorded, none stops the run
                failed += 1
                reasons[type(e).__name__] = reasons.get(type(e).__name__, 0) + 1
        return len(self.specs), failed, reasons


WORKLOADS = {"flagship": Flagship, "wide": Wide, "random_posets": RandomPosets}
