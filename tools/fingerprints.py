"""Print the output fingerprint of every lattice input of perfbench workloads.

Run from anywhere in a checkout; the package is imported from its ./src:

    python3 tools/fingerprints.py critical-bracket shrink-chain cli-field

Each input that any seed can draw is answered once, through the workload's
own prepare, answer and observe steps in perfbench/workloads.py, and
checked against perfbench/reference.json.  One line per input reads

    workload lattice_key passed|failed fingerprint

The fingerprint is the workload's digest of its outputs: critical.txt,
psi with shrink_delta's steps, or field.csv with diagnostics.txt.  Two
checkouts give the same outputs when this prints the same lines in both;
diff the two.  The digests depend on the BLAS build, so compare runs from
one machine only.  Exits 1 if any input fails its checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import env  # noqa: E402

env.pin_threads()

import workloads  # noqa: E402  (numpy loads after the thread pinning)


def fingerprints(api, name: str, reference: dict, workdir: Path):
    """Yield (lattice_key, passed, fingerprint) for every lattice input of name."""
    workload = workloads.WORKLOADS[name]
    inputs = workloads.lattice(name)
    state = workload.prepare(api, inputs, workdir)
    for i, params in enumerate(inputs):
        outdir = workdir / f"answer{i}"
        outdir.mkdir()
        try:
            obs = workload.observe(state, i, workload.answer(state, i, outdir), outdir)
        except Exception:  # reported as a failed input, not a crash
            print(f"{name} input {i} raised:", file=sys.stderr)
            traceback.print_exc()
            yield workloads.lattice_key(params), False, "-"
            continue
        checks = dict(obs.checks)
        checks.update(workloads.compare_reference(name, params, obs, reference))
        yield workloads.lattice_key(params), all(checks.values()), obs.fingerprint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", nargs="+", choices=tuple(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    api = env.import_package(ROOT)
    reference = json.loads((workloads.HERE / "reference.json").read_text())
    all_passed = True
    for name in args.workload:
        with tempfile.TemporaryDirectory(prefix=f"fingerprints-{name}-") as tmp:
            for key, passed, digest in fingerprints(api, name, reference, Path(tmp)):
                print(f"{name} {key} {'passed' if passed else 'failed'} {digest}", flush=True)
                all_passed &= passed
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
