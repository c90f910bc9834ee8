"""Time one sweep set-up: import through the workload's first cell.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR``; prints
the seconds from this script's first line to the first cell's result.
"""

import time

START = time.perf_counter()

import pathlib  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list) -> int:
    from perfbench import sweeps

    workload, seed, work = argv
    sweeps.first_cell(workload, int(seed), sweeps.Journals(pathlib.Path(work)))
    elapsed = time.perf_counter() - START
    sweeps.shutdown_executors()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
