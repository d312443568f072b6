"""Regenerate reference.json: workload outputs for the default seed.

    python3 perfbench/make_reference.py

Run only when a change to the benchmark's inputs or workloads is meant to
change the outputs; a program change must match the stored values.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import WORK, locate_program  # noqa: E402


def main() -> int:
    locate_program()
    from perfbench.gate import REFERENCE_PATH, REFERENCE_SEED
    from perfbench.workloads import WORKLOADS

    reference = {"seed": REFERENCE_SEED}
    for name, cls in WORKLOADS.items():
        wl = cls()
        workdir = WORK / f"reference-{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            _, files, _ = wl.datasets(REFERENCE_SEED, workdir, REFERENCE_SEED)
            unit = wl.run(wl.setup(files))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        reference[name] = {"sizes": wl.sizes, "outputs": unit.outputs}
        print(f"{name}: {len(unit.outputs)} outputs")
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
