"""Span tracing of the fimalloc layers, installed from outside the package.

The tracer replaces public functions of `fisher`, `quantcomm`, `solvers`,
`cli` and `model` (plus the private continuous power split, which greedy
reaches through no public function) with wrappers that record one span per
call: name, start, end and the index of the enclosing span.  Spans stay in
memory and are written out once, after the timed solves.  Nothing under
`src/` is modified; the package is patched in the traced child process only.

Names that a later version of the package no longer defines are skipped and
listed in `missing`, so their metrics read zero instead of the run failing.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from fimalloc import cli, fisher, model, quantcomm, solvers

# Algorithms whose spans count as solver time inside `cli.main`.
SOLVER_SPANS = ("solvers.ufa", "solvers.usu", "solvers.greedy", "solvers.mckp")
MODEL_SPANS = ("model.generate_deployment", "model.homogeneous_network",
               "model.save_scenario", "model.load_scenario")


class Tracer:
    """Wraps functions so each call appends a span; restores them on `uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.missing: list[str] = []
        self._stack = [-1]
        self._patches = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, before=None, after=None):
        """Return `fn` wrapped to record a span; hooks see (args, kwargs) / (args, result)."""
        span_name = self.name_id(name)
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(name_ids)
            name_ids.append(span_name)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, name, owners, attr, before=None, after=None):
        """Replace `attr` on every owner that holds the same object as the first."""
        original = getattr(owners[0], attr, None)
        if original is None:
            self.missing.append(name)
            return
        traced = self.wrap(name, original, before, after)
        for owner in owners:
            if getattr(owner, attr, None) is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self):
        return (np.asarray(self.name_ids, dtype=np.int32),
                np.asarray(self.starts, dtype=np.int64),
                np.asarray(self.ends, dtype=np.int64),
                np.asarray(self.parents, dtype=np.int64))

    def save(self, path):
        ids, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name_id=ids,
                            start_ns=start, end_ns=end, parent=parent)


class KernelWork:
    """Counts kernel calls with their node count n and level count M.

    The flop and byte figures are computed from n and M, not measured:
    expected_g does two (n x M) @ (M x M) products plus about 5 nM
    elementwise operations and an n-long dot; expected_g_slope does four
    products, about 11 nM elementwise operations, the M x M slope matrix
    (about 10 M^2) and the dot.  Bytes are the float64 operands each call
    must read: the two n x M node tables, the weights and the M x M
    confusion matrix (two matrices for the slope).
    """

    def __init__(self, slope: bool):
        self.slope = slope
        self.calls = 0
        self.flop = 0.0
        self.bytes = 0.0

    def __call__(self, args, kwargs):
        kernel = args[0]
        weights = getattr(kernel, "_weights", None)
        self.calls += 1
        if weights is None:
            return
        n, m = weights.size, 2 ** kernel.sensor.bits
        if self.slope:
            self.flop += 8 * n * m * m + 11 * n * m + 2 * n + 10 * m * m
            self.bytes += 8 * (2 * n * m + n + 2 * m * m)
        else:
            self.flop += 4 * n * m * m + 5 * n * m + 2 * n
            self.bytes += 8 * (2 * n * m + n + m * m)


class Counters:
    """Values read from call results: kernel builds and power-split outcomes."""

    def __init__(self):
        self.kernel_nodes = 0
        self.kernels_with_tables = 0
        self.escalations = 0
        self.bisect_iters = 0
        self.fallbacks = 0
        self.greedy_rounds = 0

    def kernel_built(self, args, result):
        kernel = args[0]
        weights = getattr(kernel, "_weights", None)
        if weights is not None:
            self.kernel_nodes += weights.size
            self.kernels_with_tables += 1
        if getattr(kernel, "n_nodes", 0) >= 4 * fisher.DEFAULT_NODES - 3:
            self.escalations += 1

    def power_split(self, args, solution):
        self.bisect_iters += solution.iterations
        self.fallbacks += int(solution.fallback)

    def greedy_done(self, args, alloc):
        self.greedy_rounds += alloc.iterations


class SolveLog:
    """Remembers which span index and budget each solver call got."""

    def __init__(self, tracer: Tracer, name: str, entries: list):
        self.tracer, self.name, self.entries = tracer, name, entries

    def __call__(self, args, kwargs):
        p_tot = args[1] if len(args) > 1 else kwargs.get("p_tot")
        self.entries.append((len(self.tracer.name_ids), self.name, p_tot))


@dataclass
class Hooks:
    """What the wrappers gather besides spans."""

    counters: Counters = field(default_factory=Counters)
    g_work: KernelWork = field(default_factory=lambda: KernelWork(slope=False))
    slope_work: KernelWork = field(default_factory=lambda: KernelWork(slope=True))
    solve_log: list = field(default_factory=list)


def install(tracer: Tracer) -> Hooks:
    """Patch every traced function; returns the hooks that gather counts."""
    hooks = Hooks()
    counters, g_work, slope_work = hooks.counters, hooks.g_work, hooks.slope_work
    kernel = fisher.InfoKernel
    tracer.patch("fisher.kernel_build", [kernel], "__init__", after=counters.kernel_built)
    tracer.patch("fisher.expected_g", [kernel], "expected_g", before=g_work)
    tracer.patch("fisher.expected_g_slope", [kernel], "expected_g_slope", before=slope_work)
    tracer.patch("fisher.t_prime", [kernel], "t_prime")
    for name in ("t_k", "trace_fim", "tabulate_t"):
        tracer.patch(f"fisher.{name}", [fisher, solvers], name)
    tracer.patch("quantcomm.bit_error_prob", [quantcomm, fisher], "bit_error_prob")
    tracer.patch("solvers.power_split", [solvers], "_allocate_power_core",
                 after=counters.power_split)
    tracer.patch("solvers.newton", [solvers], "_newton_root")
    for algorithm, attr in (("greedy", "solve_greedy"), ("mckp", "solve_mckp_network"),
                            ("usu", "solve_usu"), ("ufa", "solve_ufa")):
        tracer.patch(f"solvers.{algorithm}", [solvers], attr,
                     before=SolveLog(tracer, algorithm, hooks.solve_log),
                     after=counters.greedy_done if algorithm == "greedy" else None)
    tracer.patch("solvers.mckp_dp", [solvers], "solve_mckp")
    tracer.patch("cli.main", [cli], "main")
    for name in MODEL_SPANS:
        tracer.patch(name, [model], name.split(".", 1)[1])
    return hooks


def cache_state():
    """cache_info() of the node-table and confusion-matrix caches (None if gone)."""
    state = {}
    for key, owner, attr in (("node_tables", fisher, "_node_tables"),
                             ("alpha", quantcomm, "_alpha_entries")):
        cached = getattr(owner, attr, None)
        state[key] = cached.cache_info() if hasattr(cached, "cache_info") else None
    return state


def _cache_delta(before, after):
    """(lookups, hit_ratio, evictions) between two cache_info() snapshots."""
    if before is None or after is None:
        return 0, 0.0, 0
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    lookups = hits + misses
    evictions = misses - (after.currsize - before.currsize)
    return lookups, (hits / lookups if lookups else 0.0), evictions


def _under(ids, parent, target):
    """Boolean mask of spans with an ancestor named by id `target`."""
    flag = np.zeros(ids.size, dtype=bool)
    ancestor = parent.copy()
    while np.any(ancestor >= 0):
        live = ancestor >= 0
        flag[live] |= ids[ancestor[live]] == target
        ancestor[live] = parent[ancestor[live]]
    return flag


def layer_metrics(tracer, hooks: Hooks, caches_before, caches_after, wall_s):
    """Per-layer metrics of one traced cycle, keyed by the BENCHMARK.json names."""
    counters, g_work, slope_work = hooks.counters, hooks.g_work, hooks.slope_work
    ids, start, end, parent = tracer.arrays()
    dur = (end - start) / 1e9
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=ids.size)
    self_time = dur - covered
    count = np.bincount(ids, minlength=len(tracer.names))
    busy_by_id = np.bincount(ids, weights=dur, minlength=len(tracer.names))

    def calls(name):
        return int(count[tracer.names.index(name)]) if name in tracer.names else 0

    def busy(name):
        return float(busy_by_id[tracer.names.index(name)]) if name in tracer.names else 0.0

    def per_call_us(name):
        return 1e6 * busy(name) / calls(name) if calls(name) else 0.0

    layer_of = np.array([name.split(".", 1)[0] for name in tracer.names])

    def layer_self(layer):
        return float(np.sum(self_time[layer_of[ids] == layer])) if ids.size else 0.0

    below = {}

    def within(name, target):
        if name not in tracer.names or target not in tracer.names:
            return np.zeros(ids.size, dtype=bool)
        if target not in below:
            below[target] = _under(ids, parent, tracer.names.index(target))
        return (ids == tracer.names.index(name)) & below[target]

    splits = calls("solvers.power_split")
    candidates = int(np.sum(within("solvers.power_split", "solvers.greedy")))
    solver_in_cli = sum(float(np.sum(dur[within(name, "cli.main")])) for name in SOLVER_SPANS)
    node_lookups, node_ratio, _ = _cache_delta(caches_before["node_tables"],
                                               caches_after["node_tables"])
    alpha_lookups, alpha_ratio, alpha_evictions = _cache_delta(caches_before["alpha"],
                                                               caches_after["alpha"])
    metrics = {}
    for kernel, work in (("expected_g", g_work), ("expected_g_slope", slope_work)):
        name = f"fisher.{kernel}"
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.busy_s"] = busy(name)
        metrics[f"{name}.us_per_call"] = per_call_us(name)
        per_call = 1e3 * work.calls
        metrics[f"{name}.computed_kflop_per_call"] = work.flop / per_call if work.calls else 0.0
        metrics[f"{name}.computed_kbytes_per_call"] = work.bytes / per_call if work.calls else 0.0
    metrics["fisher.kernel_mflop"] = (g_work.flop + slope_work.flop) / 1e6
    metrics["fisher.kernel_mbytes"] = (g_work.bytes + slope_work.bytes) / 1e6
    metrics["fisher.t_prime.calls"] = calls("fisher.t_prime")
    for name in ("t_k", "trace_fim", "tabulate_t", "kernel_build"):
        metrics[f"fisher.{name}.calls"] = calls(f"fisher.{name}")
        metrics[f"fisher.{name}.busy_s"] = busy(f"fisher.{name}")
    metrics["fisher.escalations"] = counters.escalations
    metrics["fisher.node_tables.lookups"] = node_lookups
    metrics["fisher.node_tables.hit_ratio"] = node_ratio
    metrics["fisher.nodes_per_kernel"] = (counters.kernel_nodes / counters.kernels_with_tables
                                          if counters.kernels_with_tables else 0.0)
    metrics["fisher.self_s"] = layer_self("fisher")
    metrics["quantcomm.bit_error_prob.calls"] = calls("quantcomm.bit_error_prob")
    metrics["quantcomm.alpha_cache.lookups"] = alpha_lookups
    metrics["quantcomm.alpha_cache.hit_ratio"] = alpha_ratio
    metrics["quantcomm.alpha_cache.evictions"] = alpha_evictions
    metrics["quantcomm.self_s"] = layer_self("quantcomm")
    metrics["solvers.power_split.calls"] = splits
    metrics["solvers.power_split.busy_s"] = busy("solvers.power_split")
    metrics["solvers.power_split.bisect_iters"] = counters.bisect_iters
    metrics["solvers.power_split.fallbacks"] = counters.fallbacks
    metrics["solvers.newton.calls"] = calls("solvers.newton")
    metrics["solvers.newton.t_prime_per_split"] = (
        float(np.sum(within("fisher.t_prime", "solvers.power_split"))) / splits if splits else 0.0)
    metrics["solvers.greedy.rounds"] = counters.greedy_rounds
    metrics["solvers.greedy.candidates"] = candidates
    metrics["solvers.greedy.accept_ratio"] = (counters.greedy_rounds / candidates
                                              if candidates else 0.0)
    for name in ("greedy", "mckp", "usu"):
        metrics[f"solvers.{name}.busy_s"] = busy(f"solvers.{name}")
    metrics["solvers.mckp_dp.calls"] = calls("solvers.mckp_dp")
    metrics["solvers.mckp_dp.busy_s"] = busy("solvers.mckp_dp")
    metrics["solvers.self_s"] = layer_self("solvers")
    metrics["cli.sweep.overhead_s"] = busy("cli.main") - solver_in_cli
    metrics["model.scenario.busy_s"] = sum(busy(name) for name in MODEL_SPANS)
    metrics["trace.wall_s"] = wall_s
    metrics["trace.spans"] = int(ids.size)
    return metrics


def per_solve(tracer, hooks: Hooks):
    """Span counts below each solver call, for checking counts against known figures."""
    ids, start, end, _ = tracer.arrays()
    shown = [name for name in ("solvers.power_split", "fisher.expected_g_slope",
                               "fisher.expected_g", "fisher.tabulate_t")
             if name in tracer.names]
    rows = []
    for index, algorithm, p_tot in hooks.solve_log:
        # Spans are stored in call order, so a call's descendants follow it contiguously.
        last = int(np.searchsorted(start, end[index], side="left"))
        below = np.bincount(ids[index + 1:last], minlength=len(tracer.names))
        counts = {name: int(below[tracer.names.index(name)]) for name in shown}
        rows.append({"solve": f"{algorithm}@{p_tot:g}", "s": (end[index] - start[index]) / 1e9,
                     "counts": counts})
    return rows
