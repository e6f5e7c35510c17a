"""Outside-in span tracer for the nckey layers.

The tracer wraps the public functions of each layer module from outside, in
every namespace that bound them (``from .fieldmath import rank`` in
``agreement`` binds its own name), plus the ``Subspace`` lattice methods.
Nothing under ``src/`` changes, and nothing is patched unless ``install`` is
called.  Spans stay in memory as ``(name, start, end, parent, op, info)``
tuples, where ``parent`` is the index of the enclosing span (-1 at the top)
and ``op`` the benchmark operation id that was current when the span opened.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

from benchmarks.checks import mulmod

LAYERS = ("fieldmath", "subspaces", "channel", "simplex", "bounds", "agreement", "cli")
SUBSPACE_METHODS = ("__add__", "intersect", "complement", "contains")
VERIFY = "trace.verify"


def _observe_elimination(args, kwargs, result):
    rows, cols = args[0].shape
    r = result if isinstance(result, int) else result[1]
    return {"rows": rows, "cols": cols, "rank": r}


def _observe_solve(args, kwargs, result):
    """Check C @ basis == target for a returned C; the check runs in its own
    ``trace.verify`` span so it is not billed to the caller's self time."""
    if result is None:
        return {"solved": False}
    target, basis = args[0], args[1]
    ok = bool(
        result.shape == (target.rows, basis.rows)
        and (mulmod(result.arr, basis.arr, basis.ctx.q) == target.arr).all()
    )
    return {"solved": True, "verified": ok}


def _observe_maximize(args, kwargs, result):
    a_rows = args[1] if len(args) > 1 else kwargs["a_rows"]
    return {"rows": len(a_rows)}


OBSERVERS = {
    "fieldmath.rank": (_observe_elimination, False),
    "fieldmath.rref": (_observe_elimination, False),
    "fieldmath.solve_in_rowspan": (_observe_solve, True),
    "simplex.maximize": (_observe_maximize, False),
}


class Tracer:
    """Records nested spans around nckey layer calls while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe, timed = OBSERVERS.get(name, (None, False))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, None)
            if observe is not None:
                v_start = clock()
                info = observe(args, kwargs, result)
                spans[idx] = (name, start, end, parent, self.op, info)
                if timed:
                    spans.append((VERIFY, v_start, clock(), parent, self.op, None))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function in every loaded nckey module
        that binds it, and the Subspace lattice methods."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"nckey.{layer}")
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "nckey" or modname.startswith("nckey.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
        subspace_cls = sys.modules["nckey.subspaces"].Subspace
        for meth in SUBSPACE_METHODS:
            original = subspace_cls.__dict__[meth]
            self._restore.append((subspace_cls, meth, original))
            setattr(subspace_cls, meth, self._wrap(f"subspaces.Subspace.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, info."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, info]) + "\n")


def wrapper_cost(calls: int = 20000, batches: int = 7) -> float:
    """Seconds one tracer wrapper adds to a call: a wrapped no-op against a
    bare one, median over batches.  Spans times this cost, plus the
    ``trace.verify`` time, is what tracing adds to a traced round."""
    probe = Tracer()

    def noop():
        return None

    wrapped = probe._wrap("trace.probe", noop)
    samples = []
    for _ in range(batches):
        probe.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(samples)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children cover.

    Children of one span never overlap (one thread, nested calls), so the
    covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


def _has_ancestor(spans, idx: int, pred) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if pred(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round (counts and seconds alike)."""
    own = self_times(spans)
    per = 1.0 / max(rounds, 1)
    by_name: dict[str, dict] = {}
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        agg = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += own[i]
        # total time counts only the outermost span of a recursive name
        if not _has_ancestor(spans, i, lambda n, name=name: n == name):
            agg["total_s"] += end - start

    def stat(name, key):
        return by_name.get(name, {}).get(key, 0.0) * per

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per * sum(
            a["self_s"] for n, a in by_name.items() if n.split(".")[0] == layer
        )
    for fn in ("rank", "rref", "solve_in_rowspan", "mat_mul"):
        out[f"fieldmath.{fn}.self_s"] = stat(f"fieldmath.{fn}", "self_s")
    out["fieldmath.calls"] = per * sum(
        a["calls"] for n, a in by_name.items() if n.startswith("fieldmath.")
    )

    cells = 0
    solved = verified = 0
    lp_rows = []
    extract_checks = extract_full = 0
    sums_in_feasibility = 0
    disclosure_s = 0.0
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        if name in ("fieldmath.rank", "fieldmath.rref"):
            cells += info["rows"] * info["cols"] * info["rank"]
            if parent >= 0 and spans[parent][0] == "agreement.extract_secure_subspaces":
                extract_checks += 1
                extract_full += info["rank"] == info["rows"]
        elif name == "fieldmath.solve_in_rowspan":
            if info and info["solved"]:
                solved += 1
                verified += info["verified"]
            if parent >= 0 and spans[parent][0] == "agreement.run_session":
                disclosure_s += end - start
        elif name == "simplex.maximize":
            lp_rows.append(info["rows"])
        elif name == "subspaces.Subspace.__add__":
            if _has_ancestor(spans, i, lambda n: n == "agreement.check_allocation_feasible"):
                sums_in_feasibility += 1

    elim_s = stat("fieldmath.rank", "self_s") + stat("fieldmath.rref", "self_s")
    out["fieldmath.elim_cells"] = per * cells
    out["fieldmath.cells_per_s"] = per * cells / elim_s if elim_s > 0 else 0.0
    out["fieldmath.solve_verified_ratio"] = verified / solved if solved else 1.0
    out["subspaces.sum_calls"] = stat("subspaces.Subspace.__add__", "calls")
    out["subspaces.intersect_calls"] = stat("subspaces.Subspace.intersect", "calls")
    out["agreement.check_allocation_feasible.total_s"] = stat(
        "agreement.check_allocation_feasible", "total_s"
    )
    out["agreement.check_allocation_feasible.sums"] = per * sums_in_feasibility
    out["simplex.maximize.self_s"] = stat("simplex.maximize", "self_s")
    out["simplex.maximize.calls"] = stat("simplex.maximize", "calls")
    out["simplex.rows"] = sum(lp_rows) / len(lp_rows) if lp_rows else 0.0
    out["agreement.extract_secure_subspaces.total_s"] = stat(
        "agreement.extract_secure_subspaces", "total_s"
    )
    out["agreement.extract.rank_checks"] = per * extract_checks
    out["agreement.extract.useful_ratio"] = (
        extract_full / extract_checks if extract_checks else 1.0
    )
    out["agreement.disclosure.total_s"] = per * disclosure_s
    out["agreement.certify_zero_leakage.total_s"] = stat(
        "agreement.certify_zero_leakage", "total_s"
    )
    out["agreement.run_session.self_s"] = stat("agreement.run_session", "self_s")
    out["channel.broadcast_slot.self_s"] = stat("channel.broadcast_slot", "self_s")
    out["bounds.exact_cmi_oracle.total_s"] = stat("bounds.exact_cmi_oracle", "total_s")
    out["cli.main.self_s"] = stat("cli.main", "self_s")
    out["cli.emit.total_s"] = stat("cli.emit", "total_s")
    out["trace.verify_s"] = stat(VERIFY, "total_s")
    return out
