"""Times one start-up step in a fresh interpreter and prints the seconds.

    probe.py setup WORKLOAD SEED WORKDIR   the workload's set-up (imports included)
    probe.py import MODULE                 importing MODULE (scipy.optimize after numpy)
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv) -> None:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    if argv[0] == "setup":
        workload, seed, workdir = argv[1], int(argv[2]), Path(argv[3])
        if workload == "cli-session":
            import inputs

            inputs.write_channel_files(seed, workdir)
        else:
            import workloads

            workloads.setup(workload, seed, workdir)
        print(time.perf_counter() - T0)
    elif argv[0] == "import":
        if argv[1] == "scipy.optimize":
            import numpy  # noqa: F401
        t0 = time.perf_counter()
        importlib.import_module(argv[1])
        print(time.perf_counter() - t0)
    else:
        raise SystemExit(f"unknown probe {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
