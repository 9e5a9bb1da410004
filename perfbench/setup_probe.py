"""One set-up of a workload in a fresh process, for the setup_s metric.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Imports the package from ./src, draws the seed's inputs and prepares them
(configs, gas model constants, profiles and grids), then prints "ready".
The parent times the span from spawning this process to that line.
"""

import sys
from pathlib import Path

import env

env.pin_threads()


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    api = env.import_package(Path.cwd())
    import workloads

    workloads.WORKLOADS[workload].prepare(api, workloads.draw_inputs(workload, seed), workdir)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
