"""Regenerate perfbench/reference.json: the objective and selection count of every solve.

    PYTHONPATH=src python3 perfbench/make_reference.py

The benchmark compares each solve against these values (and, for the K=20
bits=3 workloads, against tests/fixtures/golden_objectives.json as well).
Rerun only when a change to the package is meant to move objectives.
"""

import json
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        for name in workloads.WORKLOADS:
            inputs = workloads.setup(name, workloads.DEPLOYMENT_SEED, Path(tmp))
            reference[name] = {
                solve.label: {"objective": solve.objective, "num_selected": solve.num_selected}
                for solve in workloads.run(name, inputs)
            }
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
