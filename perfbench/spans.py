"""Span recording for the traced run, and the per-layer metrics derived from it.

The traced run replaces the public functions of every ``mubkit`` module, in
every module namespace that binds them, with wrappers defined here. Each call
then records one span ``(name, layer, start, end, parent, note)``. Spans stay
in memory until the pass ends. A span's self time is its duration minus the
part of it that its child spans cover, and a layer's self time is the sum over
its spans. Nothing in ``mubkit`` itself changes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import statistics
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

LAYERS = ("gf", "characters", "construct", "mub", "cplx", "manifests", "axioms", "cli")

# One-line numeric helpers called once per matrix, per entry or per check.
# A wrapper on each would cost more than the work it measures, so their time
# stays in the self time of whichever function called them.
UNWRAPPED = frozenset({"cplx.as_matrix", "cplx.max_abs", "cplx.identity", "cplx.unit_root"})

# FiniteField members traced besides the module-level functions: the cached
# tables (only their first, computing access reaches the wrapper) and dlog.
FIELD_TABLES = ("add_table", "mul_table", "trace_vector")
FIELD_METHODS = ("dlog",)


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int
    note: object


def _table_fingerprint(ueb) -> str:
    """Content key of an operator table from a few of its operators."""
    ops = ueb.ops if hasattr(ueb, "ops") else ueb
    d = len(ops)
    h = hashlib.blake2b(digest_size=12)
    for x, a in ((0, 1 % d), (d - 1, d - 1), (1 % d, 0)):
        h.update(np.asarray(ops[x][a]).tobytes())
    return f"{d}:{h.hexdigest()}"


def _kind_and_size(obj, path):
    return obj.get("kind"), os.path.getsize(path), obj.get("dimension")


# name -> note(args, kwargs, result); evaluated after the call returns.
NOTES = {
    "construct.is_ueb": lambda a, k, r: a[0].d if hasattr(a[0], "d") else len(a[0]),
    "construct.is_partitioned_ueb": lambda a, k, r: _table_fingerprint(a[0]),
    "manifests.write_manifest": lambda a, k, r: _kind_and_size(a[0], a[1]),
    "manifests.load_manifest": lambda a, k, r: os.path.getsize(a[0]),
    "cli.main": lambda a, k, r: r,
    "axioms.run_axiom_suite": lambda a, k, r: len(r),
}


class Tracer:
    """Installs span-recording wrappers into ``mubkit`` and removes them."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = Span(name, layer, start, time.perf_counter(), parent, None)
                stack.pop()
                raise
            end = time.perf_counter()
            stack.pop()
            spans[idx] = Span(name, layer, start, end, parent,
                              note(args, kwargs, result) if note else None)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public mubkit function in every namespace binding it."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        wrappers: dict = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                name = f"{layer}.{obj.__name__}"
                if layer not in LAYERS or name in UNWRAPPED:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(obj, name, layer)
                self._undo.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

        field_cls = importlib.import_module(f"{package.__name__}.gf").FiniteField
        for attr in FIELD_TABLES:
            prop = field_cls.__dict__[attr]
            traced = functools.cached_property(self.wrap(prop.func, f"gf.{attr}", "gf"))
            traced.__set_name__(field_cls, attr)
            self._undo.append((field_cls, attr, prop))
            setattr(field_cls, attr, traced)
        for attr in FIELD_METHODS:
            method = field_cls.__dict__[attr]
            self._undo.append((field_cls, attr, method))
            setattr(field_cls, attr, self.wrap(method, f"gf.{attr}", "gf"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Self time of each span: its duration minus the union of the
    intervals of its direct children, clipped to the span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


# (metric, unit) in report order; every workload reports every one of them.
PER_LAYER_UNITS = {
    "gf.busy_s": "s", "gf.calls": "count",
    "characters.busy_s": "s", "characters.hadamard_checks": "count",
    "construct.self_s": "s", "construct.build_s": "s", "construct.is_ueb_s": "s",
    "construct.partition_s": "s", "construct.eigendata_s": "s",
    "construct.validate_calls": "count", "construct.validate_useful_ratio": "ratio",
    "construct.gram_gflops_computed": "GFLOP/s",
    "mub.self_s": "s", "mub.theta_s": "s", "mub.maximal_check_s": "s", "mub.calls": "count",
    "cplx.self_s": "s", "cplx.simdiag_s": "s", "cplx.simdiag_calls": "count",
    "cplx.eig_s": "s", "cplx.eig_calls": "count", "cplx.simdiag_retries": "count",
    "cplx.commutes_s": "s", "cplx.commutes_calls": "count", "cplx.unitary_checks": "count",
    "manifests.self_s": "s", "manifests.build_s": "s", "manifests.write_s": "s",
    "manifests.write_bytes": "B", "manifests.write_mbps": "MB/s", "manifests.load_s": "s",
    "manifests.parse_s": "s", "manifests.load_bytes": "B",
    "axioms.self_s": "s", "axioms.build_s": "s", "axioms.frobenius_s": "s",
    "axioms.bialgebra_s": "s", "axioms.field_equations_s": "s", "axioms.auxiliary_s": "s",
    "axioms.equations": "count",
    "cli.self_s": "s", "cli.commands": "count", "cli.nonzero_exits": "count",
}

_BUILDERS = ("construct.ueb_from_field", "construct.ueb_from_mub", "construct.conjugate_ueb",
             "construct.shift_multiply_ueb")
_MANIFEST_BUILDERS = ("manifests.field_manifest", "manifests.hadamard_manifest",
                      "manifests.controlled_hadamard_manifest", "manifests.mub_manifest",
                      "manifests.ueb_manifest", "manifests.report_manifest",
                      "manifests.matrix_to_json")
_MANIFEST_PARSERS = ("manifests.field_from_manifest", "manifests.hadamard_from_manifest",
                     "manifests.controlled_from_manifest", "manifests.mub_from_manifest",
                     "manifests.ueb_from_manifest", "manifests.matrix_from_json")


def layer_metrics(spans) -> dict:
    """Every per-layer metric of :data:`PER_LAYER_UNITS` from one pass's spans."""
    own = defaultdict(float)
    calls = Counter()
    for s, t in zip(spans, self_times(spans)):
        own[s.name] += t
        calls[s.name] += 1
    table = layer_table(spans)
    layer_self = {layer: seconds for layer, (seconds, _) in table.items()}
    layer_calls = {layer: count for layer, (_, count) in table.items()}

    def own_s(*names):
        return sum(own[n] for n in names)

    def notes(name):
        return [s.note for s in spans if s.name == name and s.note is not None]

    simdiag = {i for i, s in enumerate(spans) if s.name == "cplx.simultaneous_eigenbasis"}
    eig_in_simdiag = sum(1 for s in spans if s.name == "cplx.eig_hermitian" and s.parent in simdiag)
    validate_calls = calls["construct.is_partitioned_ueb"]
    distinct_tables = len(set(notes("construct.is_partitioned_ueb")))
    is_ueb_s = own["construct.is_ueb"]
    gram_flops = sum(8.0 * d ** 6 for d in notes("construct.is_ueb"))
    writes = notes("manifests.write_manifest")
    write_bytes = sum(note[1] for note in writes)
    write_s = own_s("manifests.write_manifest", "manifests.dumps")
    return {
        "gf.busy_s": layer_self["gf"],
        "gf.calls": layer_calls["gf"],
        "characters.busy_s": layer_self["characters"],
        "characters.hadamard_checks": calls["characters.is_hadamard"],
        "construct.self_s": layer_self["construct"],
        "construct.build_s": own_s(*_BUILDERS),
        "construct.is_ueb_s": is_ueb_s,
        "construct.partition_s": own["construct.is_partitioned_ueb"],
        "construct.eigendata_s": own["construct.eigendata"],
        "construct.validate_calls": validate_calls,
        "construct.validate_useful_ratio": (
            distinct_tables / validate_calls if validate_calls else 0.0
        ),
        "construct.gram_gflops_computed": gram_flops / is_ueb_s / 1e9 if is_ueb_s > 0 else 0.0,
        "mub.self_s": layer_self["mub"],
        "mub.theta_s": own["mub.mub_from_ueb"],
        "mub.maximal_check_s": own["mub.is_maximal_mub_family"],
        "mub.calls": layer_calls["mub"],
        "cplx.self_s": layer_self["cplx"],
        "cplx.simdiag_s": own["cplx.simultaneous_eigenbasis"],
        "cplx.simdiag_calls": len(simdiag),
        "cplx.eig_s": own["cplx.eig_hermitian"],
        "cplx.eig_calls": calls["cplx.eig_hermitian"],
        "cplx.simdiag_retries": eig_in_simdiag - len(simdiag),
        "cplx.commutes_s": own["cplx.commutes"],
        "cplx.commutes_calls": calls["cplx.commutes"],
        "cplx.unitary_checks": calls["cplx.is_unitary"],
        "manifests.self_s": layer_self["manifests"],
        "manifests.build_s": own_s(*_MANIFEST_BUILDERS),
        "manifests.write_s": write_s,
        "manifests.write_bytes": write_bytes,
        "manifests.write_mbps": write_bytes / 1e6 / write_s if write_s > 0 else 0.0,
        "manifests.load_s": own["manifests.load_manifest"],
        "manifests.parse_s": own_s(*_MANIFEST_PARSERS),
        "manifests.load_bytes": sum(notes("manifests.load_manifest")),
        "axioms.self_s": layer_self["axioms"],
        "axioms.build_s": own_s("axioms.build_structure_tensors", "axioms.ring_structure_tensors"),
        "axioms.frobenius_s": own["axioms.verify_frobenius"],
        "axioms.bialgebra_s": own["axioms.verify_bialgebra_and_complementarity"],
        "axioms.field_equations_s": own["axioms.verify_field_equations"],
        "axioms.auxiliary_s": own["axioms.verify_auxiliary_identities"],
        "axioms.equations": sum(notes("axioms.run_axiom_suite")),
        "cli.self_s": layer_self["cli"],
        "cli.commands": calls["cli.main"],
        "cli.nonzero_exits": sum(1 for rc in notes("cli.main") if rc != 0),
    }


def layer_table(spans) -> dict:
    """layer -> (self seconds, span count) for every layer, zeros included."""
    table = {layer: [0.0, 0] for layer in LAYERS}
    for s, t in zip(spans, self_times(spans)):
        table[s.layer][0] += t
        table[s.layer][1] += 1
    return {layer: tuple(v) for layer, v in table.items()}


def roadmap_stages(spans) -> dict:
    """Per-call medians of the stages the ROADMAP baseline table lists.

    ``is_partitioned_ueb`` is the whole validation; theta is ``mub_from_ueb``
    without its own validation; a UEB manifest write is ``ueb_manifest`` plus
    ``write_manifest`` of a ``ueb`` manifest (paired in call order).
    """
    def dur(i):
        return spans[i].end - spans[i].start

    def row(seconds, d, size=None):
        return {"median_s": statistics.median(seconds), "calls": len(seconds), "d": d,
                "bytes": size}

    validate = [i for i, s in enumerate(spans) if s.name == "construct.is_partitioned_ueb"]
    out = {}
    if validate:
        d = int(spans[validate[0]].note.split(":")[0])
        out["is_partitioned_ueb"] = row([dur(i) for i in validate], d)
        theta = [dur(i) - sum(dur(j) for j in validate if spans[j].parent == i)
                 for i, s in enumerate(spans) if s.name == "mub.mub_from_ueb"]
        if theta:
            out["theta"] = row(theta, d)
    builds = [dur(i) for i, s in enumerate(spans) if s.name == "manifests.ueb_manifest"]
    writes = [(dur(i), s.note) for i, s in enumerate(spans)
              if s.name == "manifests.write_manifest" and s.note and s.note[0] == "ueb"]
    if builds and writes:
        out["ueb_manifest_write"] = row([b + w for b, (w, _) in zip(builds, writes)],
                                        writes[0][1][2], statistics.median(n[1] for _, n in writes))
    return out
