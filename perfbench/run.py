"""Benchmark: time to a certified flow on three seeded workloads.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload critical-bracket --seed 1 --seconds 25 --trace 0

One process answers in a closed loop with one caller.  A pass answers
every input the seed drew once.  Passes repeat for --seconds: a pass
starts only if it should end within half a pass of the deadline, and
there are at least two, so that repeats can be compared.  Every answer
is checked after its pass, outside the timed region.

--trace 0 prints the end-to-end metrics:
  setup_s      median over fresh processes of the time from spawn to the
               first timed call (imports, gas constants, profiles, grids)
  answer_s     median over passes of the wall time per answer
  peak_rss_mb  peak resident memory of this process
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (spans.py), with the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

env.pin_threads()

import spans  # noqa: E402  (numpy loads after the thread pinning)
import workloads  # noqa: E402

SETUP_PROBES = 5
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120

UNITS = {
    "gas.points": "count", "gas.ns_per_point": "ns", "gas.points_per_cell_iter": "count",
    "solver.newton_solves": "count", "solver.newton_iters": "count",
    "solver.energy_evals": "count", "solver.energy_evals_per_iter": "count",
    "continuation.probes": "count", "continuation.solves_per_answer": "count",
    "continuation.iters_per_solve": "count", "fields.calls": "count",
    "nozzle.grids_built": "count", "cli.bytes_written": "B", "cli.write_mb_per_s": "MB/s",
    "trace.spans": "count",
}


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Spawn-to-ready times of SETUP_PROBES fresh processes, one after another."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for k in range(SETUP_PROBES):
        target = workdir / f"setup{k}"
        target.mkdir(parents=True)
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(probe), workload, str(seed), str(target)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            try:
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(ready - start)
    return times


class Checker:
    """Per-answer checks, repeat checks across passes, and count cross-checks."""

    def __init__(self, name: str, inputs: list[dict], reference: dict):
        self.name = name
        self.inputs = inputs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.mismatches: list[str] = []   # count cross-check failures
        self._fingerprints: dict[int, str] = {}
        self._counts: dict[int, dict] = {}
        self._traced: dict[int, dict] = {}

    def _same_as_first(self, store: dict, i: int, value, label: str, target: list) -> bool:
        """Keep the first pass's value for input i; later passes must repeat it."""
        if i not in store:
            store[i] = value
            return True
        if store[i] != value:
            target.append(f"input {i}: {label} {value} != first pass {store[i]}")
            return False
        return True

    def check(self, workload, state, i, outdir, outcome, traced_counts) -> None:
        self.attempted += 1
        params = self.inputs[i]
        if isinstance(outcome, Exception):
            self.failed += 1
            self.notes.append(f"input {i} {params}: {type(outcome).__name__}: {outcome}")
            return
        try:
            obs = workload.observe(state, i, outcome, outdir)
        except Exception as exc:  # a broken answer must not abort the run
            self.failed += 1
            self.notes.append(f"input {i} {params}: check raised {type(exc).__name__}: {exc}")
            return
        checks = dict(obs.checks)
        checks.update(workloads.compare_reference(self.name, params, obs, self.reference))
        checks["outputs_repeat"] = self._same_as_first(
            self._fingerprints, i, obs.fingerprint, "output fingerprint", self.notes)
        self._same_as_first(self._counts, i, obs.counts, "returned counts", self.mismatches)
        if traced_counts is not None:
            for key, value in obs.counts.items():
                if traced_counts[key] != value:
                    self.mismatches.append(f"input {i}: traced {key} {traced_counts[key]} "
                                           f"!= returned {value}")
            self._same_as_first(self._traced, i, traced_counts, "traced counts", self.mismatches)
        if not all(checks.values()):
            self.failed += 1
            bad = sorted(k for k, ok in checks.items() if not ok)
            self.notes.append(f"input {i} {params}: failed {bad} {obs.note}".rstrip())


def run(args) -> int:
    root = Path.cwd()
    api = env.import_package(root)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.draw_inputs(args.workload, args.seed)
    reference = json.loads((workloads.HERE / "reference.json").read_text())
    workdir = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        print("env " + json.dumps(env.describe(), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed}: {len(inputs)} inputs per pass "
              + json.dumps(inputs))
        setup_times = measure_setup(args.workload, args.seed, workdir / "setup")
        state = workload.prepare(api, inputs, workdir)
        checker = Checker(args.workload, inputs, reference)

        plain, traced_passes = [], []
        deadline = time.perf_counter() + args.seconds
        number = 0
        last_pass = 0.0
        # start a pass only if it should end no later than half a pass past the deadline
        while number < MIN_PASSES or time.perf_counter() + 0.5 * last_pass < deadline:
            traced = tracer is not None and number % 2 == 1
            cycle_start = time.perf_counter()
            outdirs = [workdir / f"pass{number}" / f"answer{i}" for i in range(len(inputs))]
            for outdir in outdirs:
                outdir.mkdir(parents=True)
            if traced:
                tracer.install(api)
            outcomes, seconds = [], []
            for i, outdir in enumerate(outdirs):
                if traced:
                    tracer.answer = f"{number}.{i}"
                start = time.perf_counter()
                try:
                    outcomes.append(workload.answer(state, i, outdir))
                except Exception as exc:  # counted as a failed answer
                    outcomes.append(exc)
                seconds.append(time.perf_counter() - start)
            per_answer = sum(seconds) / len(seconds)
            if traced:
                tracer.uninstall()
                tracer.answer = None
            (traced_passes if traced else plain).append(per_answer)
            counts = tracer.answer_counts() if traced else {}
            for i, (outdir, outcome) in enumerate(zip(outdirs, outcomes)):
                traced_counts = counts.get(f"{number}.{i}", spans.EMPTY_COUNTS) if traced else None
                checker.check(workload, state, i, outdir, outcome, traced_counts)
            shutil.rmtree(workdir / f"pass{number}")
            print(f"pass {number} {'traced' if traced else 'plain'}: "
                  f"{per_answer:.4f} s per answer; answers "
                  + " ".join(f"{s:.4f}" for s in seconds), flush=True)
            number += 1
            last_pass = time.perf_counter() - cycle_start

        metrics = {}
        if tracer is None:
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            metrics["answer_s"] = (statistics.median(plain), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                      "MB")
        else:
            answers = len(traced_passes) * len(inputs)
            for name, value in tracer.layer_metrics(answers).items():
                metrics[name] = (value, UNITS.get(name, "s"))
            metrics["trace.answer_s"] = (statistics.median(traced_passes), "s")
            metrics["trace.overhead_s"] = (statistics.median(traced_passes)
                                           - statistics.median(plain), "s")
            trace_file = root / ".perfbench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_file)
            print(f"spans written to {trace_file.relative_to(root)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
    failed_frac = checker.failed / checker.attempted
    print(f"failed_frac = {failed_frac:.4f} ({checker.failed} of {checker.attempted} answers)")
    for note in checker.notes + checker.mismatches:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = checker.failed == 0 and not checker.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
