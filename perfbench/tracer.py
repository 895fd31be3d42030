"""Span tracing of finsheaf from outside the package.

`Tracer.install` replaces each public function of the traced modules, and
the public methods, `__init__` and `__post_init__` of their public classes,
with a wrapper that records one span (name, start, end, parent, job id)
and calls through.  A function is replaced under every name a finsheaf
module binds it to, so lookups through a module object (`_cohom.x`),
imports inside function bodies (`from .abgroup import x`) and names bound
at import time (`cli.smith_decompose`) all reach the wrapper.

A few wrappers also keep counters (SNF input shapes, chains and nerve
simplices enumerated, repeated restriction and cochain keys).  That
bookkeeping runs in its own `trace.bookkeeping` span, outside the span of
the call it describes, so summed self times still account for the wall time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

MODULES = ("finspace", "sheaf", "cohom", "cech", "abgroup", "wedge", "symcolim", "cli")
# Order predicates called once per element pair inside chain enumeration:
# over half of all spans, and their time already shows as finspace self time.
UNTRACED = {"finspace.FinitePoset.lt", "finspace.FinitePoset.leq"}
BOOKKEEPING = "trace.bookkeeping"
JOB = "bench.job"


def _targets(mod):
    """(owner, attribute, qualified name, kind) for everything traced in mod."""
    short = mod.__name__.rsplit(".", 1)[1]
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield mod, name, f"{short}.{name}", None
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    yield obj, attr, f"{short}.{name}.{attr}", type(raw)
                elif inspect.isfunction(raw):
                    yield obj, attr, f"{short}.{name}.{attr}", None


class Tracer:
    def __init__(self):
        self.fs = None
        self.names = [JOB, BOOKKEEPING]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.job_id = -1
        self.counters = {}
        self._seen_keys = {}
        self._patches = []  # (owner, attribute, original raw value, wrapped raw value)
        self._hooks = {
            "abgroup.smith_decompose": (self._note_snf, None),
            "finspace.FinitePoset.strict_chains": (None, self._note_chains),
            "cech.Covering.tuples": (None, self._note_tuples),
            "cohom.restriction_induced": (self._note_restriction, None),
            "cohom.cochain_complex": (self._note_cochain, None),
        }

    # -- spans ---------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_job.append(self.job_id)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def run_job(self, job_id: int, fn):
        """Run one job under a root span; keys for repeat ratios are per job."""
        self.job_id = job_id
        self._seen_keys = {}
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)
            self.job_id = -1

    def _wrap(self, fn, name: str):
        name_id = self._id(name)
        pre, post = self._hooks.get(name, (None, None))
        tracer = self

        def traced(*args, **kwargs):
            if pre is not None:
                book = tracer._open(1)
                pre(args, kwargs)
                tracer._close(book)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post is not None:
                book = tracer._open(1)
                post(result)
                tracer._close(book)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, fs) -> None:
        """Wrap the traced names of the finsheaf package `fs` as loaded now."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.fs = fs
        functions = {}  # id(module-level function) -> (function, wrapper)
        for short in MODULES:
            mod = sys.modules[f"finsheaf.{short}"]
            for owner, attr, name, kind in _targets(mod):
                if name in UNTRACED:
                    continue
                raw = vars(owner)[attr]
                fn = raw.__func__ if kind else raw
                wrapper = self._wrap(fn, name)
                if owner is mod:
                    functions[id(fn)] = (fn, wrapper)
                else:
                    self._patches.append((owner, attr, raw, kind(wrapper) if kind else wrapper))
        # every module-level name bound to a wrapped function, the defining one too
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "finsheaf":
                continue
            for attr, value in vars(mod).items():
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value, hit[1]))
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old, _ in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches = []

    # -- counters --------------------------------------------------------------

    def _bump(self, key: str, by: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def _note_snf(self, args, kwargs) -> None:
        m = args[0] if args else kwargs["M"]
        cells = m.rows * m.cols
        self._bump("snf_empty_calls", 1 if cells == 0 else 0)
        self.counters["snf_max_cells"] = max(self.counters.get("snf_max_cells", 0), cells)

    def _note_chains(self, result) -> None:
        self._bump("chains_enumerated", len(result))

    def _note_tuples(self, result) -> None:
        self._bump("nerve_simplices", len(result))

    def _repeat(self, kind: str, key) -> None:
        seen = self._seen_keys.setdefault(kind, set())
        self._bump(f"{kind}_repeats", 1 if key in seen else 0)
        seen.add(key)

    def _note_restriction(self, args, kwargs) -> None:
        a = dict(zip(("base", "V", "W", "sheaf", "q"), args), **kwargs)
        # sheaves hash by identity; the key holds the sheaf for the whole job
        self._repeat("restriction", (a["V"].members, a["W"].members, a["sheaf"], a["q"]))

    def _note_cochain(self, args, kwargs) -> None:
        a = dict(zip(("base", "sheaf"), args), **kwargs)
        self._repeat("cochain", self.cochain_key(a["base"], a["sheaf"]))

    def cochain_key(self, base, sheaf) -> str:
        """The jsonio poset serialisation plus the sheaf's stalk presentations
        and cover matrices.  `jsonio.sheaf_to_json` is not called because it
        would fill the stalks' Smith-form caches ahead of the program."""
        jsonio = self.fs.jsonio
        return json.dumps(
            [
                jsonio.poset_to_json(base),
                [
                    [e, sheaf.stalks[e].generator_count, jsonio.matrix_to_json(sheaf.stalks[e].relations)]
                    for e in base.elements
                ],
                [[p, q, jsonio.matrix_to_json(sheaf.cover_maps[(p, q)])] for p, q in base.covers],
            ]
        )

    # -- results ---------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def summarize(self, first: int, last: int) -> dict:
        """Per-layer figures for spans [first, last), one traced round.

        Spans are stored in start order, so a parent comes before its
        children.  A group's busy time sums its outermost spans only."""
        names, parent, name_of = self.names, self.span_parent, self.span_name
        start, end = self.span_start, self.span_end
        child = array("d", [0.0]) * (last - first)
        for i in range(first, last):
            if parent[i] >= first:
                child[parent[i] - first] += end[i] - start[i]
        calls, self_s, busy_s = {}, {}, {}
        groups_of = [_groups(n) for n in names]
        step = {}  # (groups open above, name id) -> (groups it opens, groups open in it)
        active = [frozenset()] * (last - first)
        for i in range(first, last):
            p = parent[i]
            above = active[p - first] if p >= first else frozenset()
            key = (above, name_of[i])
            hit = step.get(key)
            if hit is None:
                mine = groups_of[name_of[i]]
                hit = step[key] = (mine - above, above | mine)
            opened, active[i - first] = hit
            d = end[i] - start[i]
            for g in opened:
                busy_s[g] = busy_s.get(g, 0.0) + d
            n = names[name_of[i]]
            layer = n.split(".", 1)[0]
            calls[n] = calls.get(n, 0) + 1
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + d - child[i - first]
        return {"calls": calls, "self_s": self_s, "busy_s": busy_s}

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: name,start,end,parent,job."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,job\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{names[self.span_name[i]]},{self.span_start[i]:.9f},{self.span_end[i]:.9f},"
                    f"{self.span_parent[i]},{self.span_job[i]}\n"
                )


# Named groups whose busy time (outermost spans only) is reported on its own.
NAMED_GROUPS = {
    "cohom.restriction": ("cohom.restriction_induced",),
    "cohom.cochain": ("cohom.cochain_complex",),
    "abgroup.snf": ("abgroup.smith_decompose",),
    "abgroup.homology": ("abgroup.Subquotient.__init__",),
    "abgroup.complex_check": ("abgroup.ChainComplexData.__post_init__",),
    "abgroup.chain_map_check": ("abgroup.check_chain_map",),
    "finspace.poset_build": ("finspace.FinitePoset.__init__",),
    "finspace.chain_enum": ("finspace.FinitePoset.strict_chains",),
    "sheaf.build": (
        "sheaf.PosetSheaf.__init__",
        "sheaf.PosetSheaf.restricted_to",
        "sheaf.constant_sheaf",
        "sheaf.zero_sheaf",
        "sheaf.extension_by_zero",
        "sheaf.closed_pushforward",
        "sheaf.kernel_sheaf",
        "sheaf.cokernel_sheaf",
    ),
    "cech.complex": ("cech.cech_complex_hq",),
    "cech.refinement": ("cech.refinement_map",),
    "wedge.stage_evidence": ("wedge.collect_stage_evidence",),
    "wedge.validate": ("wedge.validate_five_conditions",),
    "symcolim.certify": ("symcolim.certify_theorem",),
}


def _groups(name: str) -> frozenset:
    """The layer of a span name plus every named group listing it."""
    return frozenset({name.split(".", 1)[0]} | {g for g, members in NAMED_GROUPS.items() if name in members})
