"""In-memory span tracer that times loccgate's layers from the outside.

The tracer replaces the module attribute each caller uses to reach a layer
function (for example ``loccgate.gate.select_independent_subset``, which is
how ``gate.py`` reaches the linalg routine) with a timing wrapper, and puts
the original back on exit.  The program's own call path therefore runs
unchanged and no source file is touched.

Spans carry name, start, end and parent span; the spans of one operation
share the index of its outermost span as their identifier.  They are kept in
a list while the run lasts and written out once at the end.  Counters are
computed by hooks from the arguments and results seen at the same wrapped
boundaries; the hooks run when the tracer is left, so their own work falls in
no span.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import time

import numpy as np

# Every wrapped attribute: (module the caller looks the name up in, attribute,
# span name).  Span names use the layer (module) that defines the function.
WRAP_POINTS = (
    ("loccgate.gate", "gate_channel", "gate.gate_channel"),
    ("loccgate.sweeps", "gate_channel", "gate.gate_channel"),
    ("loccgate.cli", "gate_channel", "gate.gate_channel"),
    ("loccgate.gate", "gate_party", "gate.gate_party"),
    ("loccgate.gate", "check_completeness", "channels.check_completeness"),
    ("loccgate.cli", "check_completeness", "channels.check_completeness"),
    ("loccgate.gate", "pair_products", "gate.pair_products"),
    ("loccgate.gate", "select_independent_subset", "linalg.select_independent_subset"),
    ("loccgate.gate", "q_matrix_for_products", "gate.q_matrix_for_products"),
    ("loccgate.gate", "identity_vector", "gate.identity_vector"),
    ("loccgate.gate", "nullspace_dimension", "linalg.nullspace_dimension"),
    ("loccgate.gate", "kraus_rank", "channels.kraus_rank"),
    ("loccgate.sweeps", "rotated_domino_channel", "zoo.build"),
    ("loccgate.sweeps", "random_unitary_channel", "zoo.build"),
    ("loccgate.sweeps", "usd_channel", "zoo.build"),
    ("loccgate.sweeps", "run_sweep", "sweeps.run_sweep"),
    ("loccgate.sweeps", "write_csv_atomic", "sweeps.write_csv_atomic"),
    ("loccgate.cli", "main", "cli.main"),
    ("loccgate.cli", "load_channel", "serialize.load_channel"),
    ("loccgate.cli", "load_protocol", "serialize.load_protocol"),
    ("loccgate.cli", "verify_protocol", "protocols.verify_protocol"),
    ("loccgate.protocols", "protocol_to_channel", "protocols.protocol_to_channel"),
    ("loccgate.protocols", "channels_equal", "channels.channels_equal"),
)

# Real flops of one complex multiply-add.
_FLOPS_PER_CMAC = 8

_DEFAULT_SUBSET_TOL = getattr(
    importlib.import_module("loccgate.linalg"), "DEFAULT_INDEPENDENCE_TOL", 1e-9
)


def subset_flops(vectors, selected, tol) -> int:
    """Computed flop count of subset selection.

    Mirrors ``select_independent_subset``.  A vector whose norm is at most
    ``tol`` times the largest is skipped; every other vector is projected
    against each already selected direction twice (one reorthogonalisation
    pass), and each projection is an inner product plus an update, one complex
    multiply-add per entry each.  The rejected vectors are then expanded over
    the selected ones by least squares, counted as a QR of the m x k basis
    (m k^2 multiply-adds) applied to the r rejected targets (m k r).
    """
    norms = [float(np.linalg.norm(v)) for v in vectors]
    if not norms:
        return 0
    scale = max(norms)
    selected = set(selected)
    macs = 0
    rank = 0
    for idx, (v, norm) in enumerate(zip(vectors, norms)):
        if norm <= tol * scale:
            continue
        macs += 2 * rank * 2 * v.size
        if idx in selected:
            rank += 1
    rejected = len(vectors) - rank
    if rejected and rank:
        length = vectors[0].size
        macs += length * rank * rank + length * rank * rejected
    return _FLOPS_PER_CMAC * macs


def _count_subset(counters, args, kwargs, result):
    tol = args[1] if len(args) > 1 else kwargs.get("tol", _DEFAULT_SUBSET_TOL)
    counters["linalg.select_independent_subset.flops_computed"] += subset_flops(
        list(args[0]), result.indices, tol
    )


def _count_verdict(counters, args, kwargs, result):
    channel = args[0]
    counters["gate.pairs_attempted"] += channel.n_kraus**2 * channel.n_parties
    counters["gate.pairs_selected"] += sum(r.pair_count for r in result.reports)
    counters["gate.q_rows"] += sum(r.q_rows for r in result.reports)


def _count_file_read(counters, args, kwargs, result):
    counters["serialize.bytes_read"] += os.path.getsize(args[0])


def _count_csv(counters, args, kwargs, result):
    counters["sweeps.csv_bytes"] += os.path.getsize(args[0])


HOOKS = {
    "linalg.select_independent_subset": _count_subset,
    "gate.gate_channel": _count_verdict,
    "serialize.load_channel": _count_file_read,
    "serialize.load_protocol": _count_file_read,
    "sweeps.write_csv_atomic": _count_csv,
}


class Tracer:
    """Collects spans and counters while installed as a context manager.

    One tracer can be entered many times; spans and counters accumulate.
    ``absent`` lists wrap points whose attribute no longer exists.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._pending: list[tuple] = []  # (hook, args, kwargs, result)

    def _wrap(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            where = f"{module.__name__}.{attr}"
            if where not in self.absent:
                self.absent.append(where)
            return
        hook = HOOKS.get(name)
        spans, stack, pending = self.spans, self._stack, self._pending

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                pending.append((hook, args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def __enter__(self):
        for module_name, attr, name in WRAP_POINTS:
            self._wrap(importlib.import_module(module_name), attr, name)
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        for hook, args, kwargs, result in self._pending:
            hook(self.counters, args, kwargs, result)
        self._pending.clear()
        return False

    def summary(self, weights=None) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread never overlap their siblings.  Each
        span's times are multiplied by ``weights[index]`` when given.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            weight = 1.0 if weights is None else weights[index]
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) * weight
            entry["self_s"] += (end - start - child_time[index]) * weight
        return out

    def write(self, path, extra: dict) -> None:
        """Write every span, with its operation id, and the counters as JSON."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        root: list[int] = []
        rows = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            root.append(index if parent < 0 else root[parent])
            rows.append([code[name], start, end, parent, root[index]])
        doc = {
            **extra,
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": rows,
            "counters": dict(self.counters),
            "absent": self.absent,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
