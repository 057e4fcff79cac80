"""Fingerprint of the solvers' outputs, to show that a change leaves them unchanged.

    python scripts/fingerprint.py write OUT.json
    python scripts/fingerprint.py diff A.json B.json [--rtol R]

`write` runs every solver in `solvers.SOLVERS` on golden at p = 5, 15, 30
and 50, on `homogeneous_network(k)` for k = 2, 3, 5, 6, 7 and 10 at the
same budgets, on two networks of golden sensors with repeats, which mix
twins with distinct sensors (tests/test_solvers.py's `golden-twins`,
sensors 3, 0, 3, 5, 0, 7, 3, 11, 0, 15, 5, 5, and `golden-twin-slots`,
sensors 1, 5, 3, 15, 0, 1), at the golden budgets, on 30 seeded
`random_network`s (tests/conftest.py) at p = 5, 20 and 50, and on
`sharp3`, `homogeneous_network(3, sigma_n=0.001, bits=2)`, at the golden
budgets: its sensor's Kronrod check flags 89 of the powers 0.5, 1.0, ...,
79.5, so these cases fingerprint the values that the quadrature guard's
split-2 kernel confirms.  It also runs greedy on each twin network at the
golden budgets with eps0 = 1e-6, and
on `homogeneous_network(10)` at p = 5 with eps0 = 1e-5 (the benchmark's
`homog-k10` setting); every other case uses `DEFAULT_EPS0`.  Each case
records the selection, the repr of every power, the repr of the
objective, the iteration count and the diagnostics (each (iteration,
objective) pair as the iteration and the objective's repr), or the
exception's type and message.
It also records the golden sweep CSV (`fimalloc sweep --alg
ufa,usu,mckp`, default grid) without its `wall_time_ms` column, and the
repr of `t_k` for every golden sensor at 26 powers over [0, 50].
Everything runs in one process, in this order.
Kernel memos carry over only within one network: every solve of a network
runs on one Network object, budget after budget, as in a sweep, and a new
network (the twin networks, the second golden load, the sweep's) starts
with none.  Checkouts that cached kernels process-wide by value also
carried memos between networks with equal sensors; no output depends on
either.  The sweep goes through
`cli.main`, not `solvers.sweep`, so that `write` also runs on checkouts
older than `solvers.sweep`, and the CSV covers the CLI's row formatting.

`diff` reports, per field, how many cases match exactly and the largest
relative difference among numeric fields that differ; it exits 1 if any
field differs.  With `--rtol R`, objectives, powers, `t_k` values and the
sweep CSV's numbers within R relative count as matching (and are counted
apart); selections, iteration counts, diagnostics and error messages
must still match exactly.  Run `write` with PYTHONPATH pointing at each
version's `src/` to compare two versions (`diff` needs no fimalloc).
This is a tool, not a test.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden_k20_seed42.json"
BUDGETS = (5.0, 15.0, 30.0, 50.0)
RANDOM_BUDGETS = (5.0, 20.0, 50.0)
HOMOGENEOUS_K = (2, 3, 5, 6, 7, 10)
RANDOM_SEED = 2024
RANDOM_COUNT = 30
HOMOG_K10_EPS0 = 1e-5
TWIN_PICKS = {"golden-twins": (3, 0, 3, 5, 0, 7, 3, 11, 0, 15, 5, 5),
              "golden-twin-slots": (1, 5, 3, 15, 0, 1)}
TWIN_EPS0 = 1e-6
SHARP = {"sigma_n": 0.001, "bits": 2}


def _solve(name, network, p_tot, eps0=None) -> dict:
    from fimalloc import solvers

    try:
        alloc = solvers.SOLVERS[name](network, p_tot, 100,
                                      solvers.DEFAULT_EPS0 if eps0 is None else eps0)
    except Exception as exc:  # a solver's failure is part of its output
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "selection": [int(s) for s in alloc.selection],
        "powers": [repr(float(p)) for p in alloc.powers],
        "objective": repr(float(alloc.objective)),
        "iterations": int(alloc.iterations),
        "diagnostics": [[int(i), repr(float(value))] for i, value in alloc.diagnostics],
    }


def _twin_networks(golden) -> dict:
    """Each TWIN_PICKS network: golden's sensors picked by index, with repeats."""
    from fimalloc import model

    return {label: model.Network(sensors=tuple(golden.sensors[i] for i in picks),
                                 prior=golden.prior)
            for label, picks in TWIN_PICKS.items()}


def _networks():
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import random_network
    from fimalloc import model

    golden = model.load_scenario(GOLDEN)
    yield "golden", golden, BUDGETS
    for k in HOMOGENEOUS_K:
        yield f"homogeneous{k}", model.homogeneous_network(k), BUDGETS
    for label, network in _twin_networks(golden).items():
        yield label, network, BUDGETS
    rng = np.random.default_rng(RANDOM_SEED)
    for i in range(RANDOM_COUNT):
        yield f"random{i}", random_network(rng), RANDOM_BUDGETS
    yield "sharp3", model.homogeneous_network(3, **SHARP), BUDGETS


def _sweep_rows() -> list:
    from fimalloc import cli

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        code = cli.main(["sweep", "--scenario", str(GOLDEN), "--alg", "ufa,usu,mckp",
                         "--out", str(out)])
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
    for row in rows:
        row.pop("wall_time_ms", None)
    return [f"exit {code}"] + [",".join(f"{key}={value}" for key, value in row.items())
                               for row in rows]


def fingerprint() -> dict:
    """Every case's output, keyed as the module docstring lists them."""
    from fimalloc import fisher, model, solvers

    cases = {}
    for label, network, budgets in _networks():
        for p_tot in budgets:
            for name in solvers.SOLVERS:
                cases[f"{label}/{name}@{p_tot:g}"] = _solve(name, network, p_tot)
    golden = model.load_scenario(GOLDEN)
    for label, network in _twin_networks(golden).items():
        for p_tot in BUDGETS:
            cases[f"{label}/greedy@{p_tot:g}/eps0={TWIN_EPS0:g}"] = _solve(
                "greedy", network, p_tot, TWIN_EPS0)
    cases[f"homogeneous10/greedy@5/eps0={HOMOG_K10_EPS0:g}"] = _solve(
        "greedy", model.homogeneous_network(10), 5.0, HOMOG_K10_EPS0)
    t_values = {}
    for i, sensor in enumerate(golden.sensors):
        for power in np.linspace(0.0, 50.0, 26):
            try:
                value = repr(fisher.t_k(float(power), sensor, golden.prior))
            except Exception as exc:
                value = f"{type(exc).__name__}: {exc}"
            t_values[f"sensor{i}@{power:g}"] = value
    return {"cases": cases, "sweep_csv": _sweep_rows(), "t_k": t_values}


def _relative(a, b) -> float:
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.nan
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def _worst(differences) -> float:
    """The largest of some relative differences, NaN if any is NaN, 0 if there are none."""
    differences = list(differences)
    return math.nan if any(map(math.isnan, differences)) else max(differences, default=0.0)


def _largest(x, y) -> float:
    """Largest relative difference between two values, or two equal-length (nested) lists
    of them."""
    if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        return _worst(_largest(u, v) for u, v in zip(x, y))
    return _relative(x, y)


def _row_difference(x: str, y: str) -> float:
    """Largest relative difference between two sweep rows' values, field by field.

    NaN unless both rows name the same fields and every non-numeric value
    (algorithm, scenario id, diagnostic) is equal.
    """
    left, right = ([field.partition("=") for field in row.split(",")] for row in (x, y))
    if len(left) != len(right) or any(u[0] != v[0] for u, v in zip(left, right)):
        return math.nan
    return _worst(_relative(u[2], v[2]) for u, v in zip(left, right) if u != v)


# The numeric fields of a case that --rtol lets differ; selections,
# iteration counts, diagnostics and error messages must always match exactly.
_RTOL_FIELDS = ("objective", "powers")


def diff(a: dict, b: dict, rtol: float = 0.0) -> bool:
    """Print per-field match counts and largest relative differences; True if all match.

    Values match when they are equal or, with rtol > 0, when they are
    objectives, powers, t_k values or sweep-row numbers within rtol
    relative (see `_RTOL_FIELDS`).
    """
    groups: dict = {}

    def tally(group, key, x, y, numeric, rel):
        stats = groups.setdefault(group, {"same": 0, "close": 0, "differ": [], "worst": 0.0})
        if x == y:
            stats["same"] += 1
            return
        stats["worst"] = max(stats["worst"], rel) if not math.isnan(rel) else math.nan
        if numeric and rel <= rtol:
            stats["close"] += 1
        else:
            stats["differ"].append(key)

    for key in sorted(set(a["cases"]) | set(b["cases"])):
        left, right = a["cases"].get(key, {}), b["cases"].get(key, {})
        for field in sorted(set(left) | set(right)):
            x, y = left.get(field), right.get(field)
            tally(f"cases.{field}", key, x, y, field in _RTOL_FIELDS, _largest(x, y))
    for section in ("sweep_csv", "t_k"):
        left, right = a[section], b[section]
        if isinstance(left, list):  # sweep rows, by position
            left, right = dict(enumerate(left)), dict(enumerate(right))
        for key in sorted(set(left) | set(right)):
            x, y = left.get(key), right.get(key)
            rel = _row_difference(x, y) if section == "sweep_csv" and x and y else _relative(x, y)
            tally(section, str(key), x, y, True, rel)
    identical = True
    for group, stats in groups.items():
        line = f"{group}: {stats['same']} identical"
        if rtol > 0.0:
            line += f", {stats['close']} within {rtol:g}"
        line += f", {len(stats['differ'])} differ"
        if stats["close"] or stats["differ"]:
            line += f" (largest relative difference {stats['worst']:.3g})"
        if stats["differ"]:
            line += ": " + ", ".join(stats["differ"])
        print(line)
        identical = identical and not stats["differ"]
    return identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    write = sub.add_parser("write", help="write the fingerprint of the importable fimalloc")
    write.add_argument("out")
    compare = sub.add_parser("diff", help="compare two fingerprint files")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.add_argument("--rtol", type=float, default=0.0,
                         help="let objectives, powers, t_k values and sweep numbers differ "
                              "by this much relative (default 0: bit identity)")
    args = parser.parse_args(argv)
    if args.command == "write":
        with open(args.out, "w") as fh:
            json.dump(fingerprint(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    with open(args.a) as fa, open(args.b) as fb:
        return 0 if diff(json.load(fa), json.load(fb), args.rtol) else 1


if __name__ == "__main__":
    sys.exit(main())
