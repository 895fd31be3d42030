"""Command-line front end.

Subcommands: `space build`, `cohomology`, `cech`, `covering validate`,
`reproduce`, `selftest`.  JSON output is emitted with sorted keys so that
identical inputs and seed give byte-identical bytes; the seed is echoed in
every output.  Exit codes: 0 success, 1 bad input (usage errors included)
or failed verdict, 2 internal contract violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from . import jsonio
from .abgroup import IntMatrix, PresentedAbGroup, smith_decompose
from .cech import Covering, _Coefficients, cech_cohomology, cech_cohomology_hq, covering_comparison_report
from .cohom import cohomology
from .errors import ContractViolation, InputError
from .finspace import FinitePoset
from .sheaf import constant_sheaf
from .symcolim import certify_theorem
from .wedge import (
    build_wedge,
    canonical_covering,
    collect_stage_evidence,
    gap_sheaf,
    stage_covering,
    validate_five_conditions,
)


def _emit(payload: dict, fmt: str, table_lines: list) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in table_lines:
            print(line)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}")


def _resolve_space(args) -> FinitePoset:
    if getattr(args, "space", None):
        return jsonio.poset_from_json(_load_json(args.space))
    if getattr(args, "disks", None) is not None:
        return build_wedge(args.disks).poset
    raise InputError("provide --space FILE or --disks N")


def _resolve_sheaf(args, base: FinitePoset):
    coeff = getattr(args, "coeff", "gap")
    if getattr(args, "sheaf", None):
        return jsonio.sheaf_from_json(base, _load_json(args.sheaf))
    if coeff == "constant":
        return constant_sheaf(base, PresentedAbGroup.free(1))
    if getattr(args, "disks", None) is not None:
        return gap_sheaf(build_wedge(args.disks))
    raise InputError("provide --sheaf FILE, or --disks N with --coeff gap|constant")


def cmd_space_build(args) -> int:
    w = build_wedge(args.disks)
    payload = {
        "seed": args.seed,
        "disks": args.disks,
        "space": jsonio.poset_to_json(w.poset),
        "skeleton": sorted(w.skeleton),
        "open_cells": sorted(w.open_u),
    }
    lines = [f"wedge of {args.disks} disks: {len(w.poset.elements)} elements"]
    lines += [f"  {a} < {b}" for a, b in w.poset.covers]
    _emit(payload, args.format, lines)
    return 0


def cmd_cohomology(args) -> int:
    base = _resolve_space(args)
    sheaf = _resolve_sheaf(args, base)
    g = cohomology(base, sheaf, args.degree)
    payload = {
        "seed": args.seed,
        "degree": args.degree,
        "group": jsonio.group_to_json(g),
        "pretty": str(g),
    }
    _emit(payload, args.format, [f"H^{args.degree} = {g}"])
    return 0


def _resolve_covering(args, base: FinitePoset) -> Covering:
    """The --covering file on base, or the --stage or canonical covering of
    the wedge of --disks disks."""
    if args.covering:
        if args.stage is not None:
            raise InputError("give --covering FILE or --stage M, not both")
        return jsonio.covering_from_json(base, _load_json(args.covering))
    if args.disks is None:
        raise InputError("provide --covering FILE or --disks N")
    w = build_wedge(args.disks)
    return stage_covering(w, args.stage) if args.stage is not None else canonical_covering(w)


def cmd_cech(args) -> int:
    base = _resolve_space(args)
    sheaf = _resolve_sheaf(args, base)
    cov = _resolve_covering(args, base)
    q = args.coeff_degree
    if q is None:
        g = cech_cohomology(cov, sheaf, args.degree)
        label = f"Hcheck^{args.degree}"
    else:
        g = cech_cohomology_hq(cov, sheaf, q, args.degree)
        label = f"Hcheck^{args.degree}(H^{q})"
    payload = {
        "seed": args.seed,
        "degree": args.degree,
        "coefficient_degree": q,
        "group": jsonio.group_to_json(g),
        "pretty": str(g),
    }
    _emit(payload, args.format, [f"{label} = {g}"])
    return 0


def cmd_covering_validate(args) -> int:
    w = build_wedge(args.disks)
    report = validate_five_conditions(w, _resolve_covering(args, w.poset))
    payload = {"seed": args.seed, **report.to_dict()}
    lines = [f"condition ({v.condition}): {'ok' if v.ok else 'FAIL  ' + v.detail}" for v in report.verdicts]
    lines.append("valid" if report.ok else "invalid")
    _emit(payload, args.format, lines)
    return 0 if report.ok else 1


def cmd_reproduce(args) -> int:
    n = args.disks
    links = []
    lines = []

    def link(name: str, ok: bool, detail: str = ""):
        links.append({"link": name, "ok": bool(ok), "detail": detail})
        lines.append(f"[{'pass' if ok else 'FAIL'}] {name}" + (f"  {detail}" if detail else ""))
        return ok

    w = build_wedge(n)
    coefficients = _Coefficients(gap_sheaf(w))
    cov = canonical_covering(w)

    link("five conditions on the canonical covering", validate_five_conditions(w, cov).ok)

    rep = covering_comparison_report(cov, coefficients)
    link(
        "corner group Hcheck^1 of degree-one coefficients",
        rep.cech_h1_of_h1.canonical == (n, ()),
        f"got {rep.cech_h1_of_h1}, want Z^{n}",
    )
    link("Cech H^2 vanishes", rep.cech_h2.is_trivial(), f"got {rep.cech_h2}")
    link("sheaf H^2", rep.sheaf_h2.canonical == (n, ()), f"got {rep.sheaf_h2}, want Z^{n}")
    link("gap detected with consistent bookkeeping", rep.gap and rep.rank_bookkeeping_ok and rep.torsion_ok)

    evidence = collect_stage_evidence(w, coefficients)
    tr_ok = all(t["surjective"] and t["kernel_rank"] == t["m2"] - t["m"] for t in evidence.transitions)
    link("stage transitions are surjective projections", tr_ok)

    cert = certify_theorem(evidence.to_dict())
    link("symbolic certificate", cert.ok and cert.limit_cardinality == "uncountable", cert.verdict)

    ok = all(l["ok"] for l in links)
    payload = {
        "seed": args.seed,
        "disks": n,
        "ok": ok,
        "links": links,
        "certificate": cert.to_dict(),
    }
    if cert.caveats:
        lines.append("caveats: " + "; ".join(cert.caveats))
    lines.append("REPRODUCED" if ok else "FAILED")
    _emit(payload, args.format, lines)
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    checks = []

    snf_fail = 0
    for _ in range(50):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix(r, c, [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        s = smith_decompose(m)
        if not (s.U @ m @ s.V == s.D):
            snf_fail += 1
    checks.append({"check": "smith normal form on 50 seeded matrices", "ok": snf_fail == 0})

    w = build_wedge(2)
    F = gap_sheaf(w)
    checks.append({"check": "H^2(X_2, F) = Z^2", "ok": cohomology(w.poset, F, 2).canonical == (2, ())})
    checks.append(
        {
            "check": "Hcheck^1 of degree-one coefficients = Z^2",
            "ok": cech_cohomology_hq(canonical_covering(w), F, 1, 1).canonical == (2, ()),
        }
    )
    ok = all(c["ok"] for c in checks)
    payload = {"seed": args.seed, "ok": ok, "checks": checks}
    lines = [f"[{'pass' if c['ok'] else 'FAIL'}] {c['check']}" for c in checks]
    _emit(payload, args.format, lines)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="finsheaf", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("space", help="space constructions")
    ssub = sp.add_subparsers(dest="space_command", required=True)
    b = ssub.add_parser("build", help="build the wedge of N disks")
    b.add_argument("--disks", type=int, required=True)
    common(b)
    b.set_defaults(func=cmd_space_build)

    ch = sub.add_parser("cohomology", help="sheaf cohomology of a finite space")
    ch.add_argument("--space", help="poset JSON file")
    ch.add_argument("--sheaf", help="sheaf JSON file")
    ch.add_argument("--disks", type=int, help="use the wedge of N disks")
    ch.add_argument("--coeff", choices=["gap", "constant"], default="gap")
    ch.add_argument("--degree", type=int, required=True)
    common(ch)
    ch.set_defaults(func=cmd_cohomology)

    ce = sub.add_parser("cech", help="Cech cohomology of a covering")
    ce.add_argument("--space", help="poset JSON file")
    ce.add_argument("--sheaf", help="sheaf JSON file")
    ce.add_argument("--covering", help="covering JSON file")
    ce.add_argument("--disks", type=int, help="use the wedge of N disks")
    ce.add_argument("--stage", type=int, help="use the stage-m covering (default canonical; not with --covering)")
    ce.add_argument("--coeff", choices=["gap", "constant"], default="gap")
    ce.add_argument("--degree", type=int, required=True)
    ce.add_argument(
        "--coeff-degree",
        dest="coeff_degree",
        type=int,
        default=None,
        help="q: use degree-q cohomology presheaf coefficients",
    )
    common(ce)
    ce.set_defaults(func=cmd_cech)

    cv = sub.add_parser("covering", help="covering checks")
    csub = cv.add_subparsers(dest="covering_command", required=True)
    v = csub.add_parser("validate", help="five-condition validation on the wedge")
    v.add_argument("--disks", type=int, required=True)
    v.add_argument("--covering", help="covering JSON file (default canonical)")
    v.add_argument("--stage", type=int, help="validate the stage-m covering (not with --covering)")
    common(v)
    v.set_defaults(func=cmd_covering_validate)

    rp = sub.add_parser("reproduce", help="full counterexample pipeline for N disks")
    rp.add_argument("--disks", type=int, required=True)
    common(rp)
    rp.set_defaults(func=cmd_reproduce)

    st = sub.add_parser("selftest", help="quick seeded sanity suite")
    common(st)
    st.set_defaults(func=cmd_selftest)
    return ap


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:  # argparse's: 0 after --help, 2 after a usage error
        return 1 if e.code else 0
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ContractViolation as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
