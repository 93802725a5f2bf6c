"""Check that the host-speed probe does not feel the program's own work.

Run from the root of a checkout:

    python3 perfbench/probecheck.py --workload wide --units 24 --pause 0.3

After every unit of work the probe is sampled twice: right away, as run.py
does, and again after an idle pause, by which time any BLAS worker threads
the unit left spinning have gone to sleep.  If the work slowed the probe,
the first sample of each pair would be the slower one.  Prints the median
and quartiles of the paired ratio (right away over after the pause).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, default="wide")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--units", type=int, default=24)
    parser.add_argument("--pause", type=float, default=0.3)
    args = parser.parse_args(argv)
    with run.work_dir() as tmp:
        wl, state, _, _ = run.set_up(args.workload, args.seed, tmp, trace=False)
        probe = run.HostProbe()
        ratios = []
        try:
            for unit in range(args.units):
                if args.workload == "grid":
                    config = wl.grid_config(tmp, args.seed, unit % wl.FIXED_UNITS["grid"])
                    wl.run_cli_experiment(config, tmp / f"out_{unit}", threads=1)
                else:
                    item = state["pool"][unit % len(state["pool"])]
                    wl.learn(wl.LEARN[args.workload], wl.Dataset(item.data.values))
                right_away = probe()
                time.sleep(args.pause)
                ratios.append(right_away / probe())
        finally:
            probe.close()
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"{args.workload}: {len(ratios)} pairs, probe right after a unit over probe after "
          f"{args.pause} s idle: median {median:.3f}, quartiles {q1:.3f} and {q3:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
