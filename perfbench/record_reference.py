"""Record reference.json: the answer of every lattice input at the current commit.

Run from the root of the repository:

    python3 perfbench/record_reference.py [workload ...]

Each lattice input is answered once, untimed and untraced, and must pass
its own checks; its compared values (bracket ends, sup of psi, max Mach)
are stored.  The benchmark then requires every answer to match them within
the tolerances in spec.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import env

env.pin_threads()

import workloads  # noqa: E402  (after the thread pinning)

OUT = workloads.HERE / "reference.json"


def main(argv: list[str]) -> int:
    root = Path.cwd()
    api = env.import_package(root)
    names = argv or list(workloads.WORKLOADS)
    reference = json.loads(OUT.read_text()) if OUT.is_file() else {}
    workdir = root / ".perfbench_work" / "reference"
    failures = []
    for name in names:
        workload = workloads.WORKLOADS[name]
        entries = {}
        for params in workloads.lattice(name):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            state = workload.prepare(api, [params], workdir)
            start = time.perf_counter()
            outcome = workload.answer(state, 0, workdir)
            seconds = time.perf_counter() - start
            obs = workload.observe(state, 0, outcome, workdir)
            key = workloads.lattice_key(params)
            print(f"{name} {key} {seconds:.3f}s passed={obs.passed} "
                  f"counts={obs.counts} values={obs.values} {obs.note}", flush=True)
            if obs.passed:
                entries[key] = obs.values
            else:
                failures.append(f"{name} {key}")
        reference[name] = entries
    shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        print("answers failing their checks, nothing recorded: " + "; ".join(failures),
              file=sys.stderr)
        return 1
    OUT.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
