"""In-memory span tracer that wraps relfock's layer functions from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` at every module
attribute through which it can be called (``hilbert.validate_embedding`` and
``composition.validate_embedding`` are the same function reached two ways),
plus ``numpy.linalg.eigh/eigvalsh/svd`` and ``Report.to_machine_bytes``.
``uninstall`` puts the originals back, so untraced repetitions run the
program exactly as shipped. No file under ``src/`` changes.

A span is (name, start, end, parent, tag). Functions not in ``LAYERS`` are
not wrapped; their time is part of the self time of the layer that called
them. A call nested inside a span of the same layer records no span of its
own (``trace_deficit_trajectory`` -> ``evolve_trajectory``), which leaves
that layer's self time unchanged.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
from time import perf_counter

import numpy as np

import relfock.report

# Fully qualified function -> the layer its self time counts toward.
LAYERS = {
    "relfock.scenario.load_scenario": "scenario.self",
    "relfock.runner.run_scenario": "runner.self",
    "relfock.report.Report.to_machine_bytes": "report.serialize",
    "relfock.hilbert.build_fock_space": "hilbert.space_build",
    "relfock.hilbert.mode_partition_embedding": "hilbert.partition_build",
    "relfock.hilbert.validate_embedding": "hilbert.validate",
    "relfock.hilbert.embedding_from_isometry": "hilbert.isometry_wrap",
    "relfock.hilbert.ladder_operator": "dynamics.assemble",
    "relfock.hilbert.number_operator": "dynamics.assemble",
    "relfock.dynamics.build_hamiltonian": "dynamics.assemble",
    "relfock.dynamics.evolve": "dynamics.evolve",
    "relfock.dynamics.evolve_trajectory": "dynamics.trajectory",
    "relfock.dynamics.trace_deficit_trajectory": "dynamics.trajectory",
    "relfock.relational.relational_state": "relational.reduce",
    "relfock.relational.possible_internal_states": "relational.spectrum",
    "relfock.relational.sample_internal_states": "relational.sample",
    "relfock.composition.compose_embeddings": "composition.compose",
    "relfock.composition.regroup_embedding": "composition.regroup",
    "relfock.composition.joint_distribution": "composition.joint",
    "relfock.composition.schmidt_decompose": "composition.schmidt",
    "relfock.superselection.check_superselection": "superselection.check",
    "numpy.linalg.eigh": "linalg.eigh",
    "numpy.linalg.eigvalsh": "linalg.eigvalsh",
    "numpy.linalg.svd": "linalg.svd",
}

# The entry points the benchmark calls; their self time is glue that no
# deeper layer covers, reported as trace.untraced_share.
ENTRY_LAYERS = ("scenario.self", "runner.self")


def _matrix_size(args, kwargs):
    return int(np.shape(args[0] if args else kwargs["a"])[-1])


def _reduction_key(fn):
    signature = inspect.signature(fn)

    def tag(args, kwargs):
        a = signature.bind(*args, **kwargs).arguments
        return f"{id(a['psi_R'])}:{id(a['e'])}:{a.get('factor', 'A')}"
    return tag


def _times_count(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: len(signature.bind(*args, **kwargs).arguments["times"])


TAGGERS = {
    "linalg.eigh": lambda fn: _matrix_size,
    "relational.reduce": _reduction_key,
    "dynamics.trajectory": _times_count,
}


def _qualified(obj) -> str:
    return f"{obj.__module__}.{obj.__qualname__}"


class Tracer:
    """Records spans while installed; ``spans`` survives uninstall."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []  # (span index, layer) of open spans
        self._patches: list = []

    def _wrap(self, fn, name: str, layer: str):
        tagger = TAGGERS[layer](fn) if layer in TAGGERS else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            tag = tagger(args, kwargs) if tagger else None
            spans.append(None)
            stack.append((index, layer))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tag)
        return traced

    def install(self) -> None:
        targets = {f"numpy.linalg.{f}": [(np.linalg, f)] for f in ("eigh", "eigvalsh", "svd")}
        targets["relfock.report.Report.to_machine_bytes"] = [
            (relfock.report.Report, "to_machine_bytes")]
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("relfock."):
                continue
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and _qualified(value) in LAYERS:
                    targets.setdefault(_qualified(value), []).append((module, attr))
        for name, sites in targets.items():
            wrapped = self._wrap(getattr(*sites[0]), name, LAYERS[name])
            for owner, attr in sites:
                self._patches.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def rep_layers(spans: list) -> dict:
    """Per layer: self time, call count and (root span, tag) pairs, for one
    repetition's spans. Parents precede their children in ``spans``."""
    child = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root[i] = root[parent]
    out: dict = {}
    for i, (name, start, end, parent, tag) in enumerate(spans):
        entry = out.setdefault(LAYERS[name], {"self_s": 0.0, "calls": 0, "tags": []})
        entry["self_s"] += (end - start) - child[i]
        entry["calls"] += 1
        if tag is not None:
            entry["tags"].append((root[i], tag))
    return out


def layer_metrics(reps: list[tuple[list, float, int]]) -> dict:
    """Per-layer metrics as medians over traced repetitions. Each element of
    ``reps`` is (spans of the repetition, its wall time, report bytes)."""
    rows = []
    for spans, wall, nbytes in reps:
        layers = rep_layers(spans)

        def self_s(layer):
            return layers.get(layer, {}).get("self_s", 0.0)

        def calls(layer):
            return layers.get(layer, {}).get("calls", 0)

        def tags(layer):
            return [tag for _, tag in layers.get(layer, {}).get("tags", [])]

        eigh_n = tags("linalg.eigh")
        points = sum(tags("dynamics.trajectory"))
        reductions = layers.get("relational.reduce", {}).get("tags", [])
        row = {f"{layer}_s": self_s(layer) for layer in set(LAYERS.values())}
        row.update({
            "hilbert.validate_calls": calls("hilbert.validate"),
            "linalg.eigh_calls": calls("linalg.eigh"),
            "linalg.eigh_max_n": max(eigh_n, default=0),
            "linalg.eigh_n3": sum(n ** 3 for n in eigh_n),
            "relational.reduce_calls": len(reductions),
            "relational.reduce_unique_ratio":
                len(set(reductions)) / len(reductions) if reductions else 1.0,
            "dynamics.step_s": self_s("dynamics.trajectory") / points if points else 0.0,
            "report.bytes": nbytes,
            "trace.untraced_share": sum(self_s(l) for l in ENTRY_LAYERS) / wall,
        })
        rows.append(row)
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
