"""Per-module tracing from outside the program.

:class:`Tracer` wraps every public function of every ``symsense`` module in
each module namespace that binds it (``cli``, ``protocols`` and ``verify``
bind names with ``from ... import``, so one function can have several
bindings; calls through any of them reach the same wrapper).  Each call
records one span (function, start, end, parent span) in memory; ``dump``
writes them, with the pass id and the counters the hooks below derive from
arguments and results, when the pass ends.  :func:`reduce_spans` turns the
spans into calls, inclusive seconds and self seconds per function.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import time
from collections import Counter

# Scalar combinatorics leaf called ~6e5 times per dicke pass from the channel
# loops of noise; a wrapper there would dominate the traced time.
UNTRACED = frozenset({"symcore.log_binom"})


def traced_name(obj) -> str | None:
    """``module.function`` for a public symsense function, else None."""
    fn = inspect.unwrap(obj) if callable(obj) else None
    if not inspect.isfunction(fn) or fn.__name__.startswith("_"):
        return None
    module = fn.__module__ or ""
    if not module.startswith("symsense."):
        return None
    name = f"{module.removeprefix('symsense.')}.{fn.__name__}"
    return None if name in UNTRACED else name


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _branch_mass(stats, result):
    err = abs(sum(br.weight for br in result) + result.pruned_mass - 1.0)
    stats["noise.branch_mass_error"] = max(stats.get("noise.branch_mass_error", 0.0), err)


def _amplitude_damp(stats, args, kwargs, result):
    n = _arg(args, kwargs, 0, "state").n_qubits
    stats["noise.amplitude_damp.ops"] += (n + 1) * (n + 2) // 2
    stats["noise.amplitude_damp.kept"] += len(result)
    stats["noise.amplitude_damp.branches"] += n + 1
    _branch_mass(stats, result)


def _delete(stats, args, kwargs, result):
    _branch_mass(stats, result)


def _pauli_op(stats, args, kwargs, result):
    # computed size of one dense complex128 2^N x 2^N matrix
    stats["fullspace.pauli_op.bytes"] += 16 * 4 ** _arg(args, kwargs, 0, "N")


def _write_trajectories_jsonl(stats, args, kwargs, result):
    stats["protocols.write_trajectories_jsonl.bytes"] += os.path.getsize(
        _arg(args, kwargs, 1, "path")
    )


def _feasible_vertices(stats, args, kwargs, result):
    inst = _arg(args, kwargs, 0, "inst")
    variant = args[1] if len(args) > 1 else kwargs.get("ghz_proof_variant", False)
    rows = inst.constraints(variant)
    stats["optimizer.feasible_vertices.candidates"] += sum(
        1 for (_, a1, b1, _), (_, a2, b2, _) in itertools.combinations(rows, 2)
        if a1 * b2 - a2 * b1 != 0
    )
    stats["optimizer.feasible_vertices.kept"] += len(result)


HOOKS = {
    "noise.amplitude_damp": _amplitude_damp,
    "noise.delete": _delete,
    "fullspace.pauli_op": _pauli_op,
    "protocols.write_trajectories_jsonl": _write_trajectories_jsonl,
    "optimizer.feasible_vertices": _feasible_vertices,
}


def _command(args, kwargs):
    return _arg(args, kwargs, 0, "argv")[0]


TAGS = {"cli.main": _command}


class Tracer:
    """Span recorder for one pass."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.names: list[str] = []
        self.spans: list = []  # [name id, start, end, parent span index or -1, tag]
        self.stats: Counter = Counter()
        self._stack: list[int] = []

    def install(self) -> None:
        # import every module first, so that the `from ... import` statements
        # inside function bodies also find the wrappers
        import symsense.cli  # noqa: F401
        import symsense.verify  # noqa: F401

        wrappers = {}
        for modname, module in sorted(sys.modules.items()):
            if modname != "symsense" and not modname.startswith("symsense."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) not in wrappers:
                    name = traced_name(obj)
                    wrappers[id(obj)] = None if name is None else self._wrap(name, obj)
                if wrappers[id(obj)] is not None:
                    setattr(module, attr, wrappers[id(obj)])

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, stats, clock = self.spans, self._stack, self.stats, time.perf_counter
        hook, tag = HOOKS.get(name), TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, tag(args, kwargs) if tag else None)
            if hook is not None:
                hook(stats, args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"pass": self.pass_id, "names": self.names, "spans": self.spans,
                 "stats": dict(self.stats)},
                fh,
            )


def reduce_spans(doc: dict) -> dict:
    """Calls, inclusive and self seconds per function from one dumped trace.

    Inclusive time skips spans nested in a span of the same function, so
    recursion is not counted twice; self time is a span's duration minus its
    direct children's.  ``tagged`` holds inclusive time per (function, tag),
    e.g. per command for ``cli.main``.
    """
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, incl, self_s, tagged = Counter(), Counter(), Counter(), Counter()
    for i, (nid, start, end, parent, tag) in enumerate(spans):
        name, dur = names[nid], end - start
        calls[name] += 1
        self_s[name] += dur - child[i]
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            incl[name] += dur
            if tag is not None:
                tagged[f"{name}.{tag}"] += dur
    return {"calls": calls, "s": incl, "self_s": self_s, "tagged": tagged,
            "stats": Counter(doc["stats"])}
