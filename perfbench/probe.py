"""Set-up probe: a fresh interpreter's ``import sectorpoly`` plus the first call
of a workload's entry point, timed from inside that interpreter.

    python3 perfbench/probe.py <src dir> campaign '["cot", 2, 123]'
    python3 perfbench/probe.py <src dir> cli '["classify", "--matrix", "m.json"]'

Prints the seconds taken. The probe checks no outputs; the timed run checks
every call it makes.
"""

import contextlib
import io
import json
import sys
import time


def main() -> None:
    src, entry, arg = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import sectorpoly  # noqa: F401  (the import is what is timed)

    if entry == "campaign":
        from sectorpoly.campaigns import run_suite

        run_suite(*arg)
    else:
        from sectorpoly.cli import main as cli_main

        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(arg)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
