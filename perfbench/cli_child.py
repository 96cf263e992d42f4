"""Run the ``carkov`` command line in a fresh process.

Does what the installed ``carkov`` script does: imports carkov.cli and
exits with the code of main(argv). When PERFBENCH_TRACE names a file,
the run is traced and the layer counters, with the import time of
carkov.cli, are written there as JSON.

Usage: python cli_child.py <carkov arguments>
"""

import os
import sys
import time


def main() -> int:
    trace_file = os.environ.get("PERFBENCH_TRACE")
    t0 = time.perf_counter()
    import carkov.cli

    import_s = time.perf_counter() - t0
    if not trace_file:
        return carkov.cli.main(sys.argv[1:])

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return carkov.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(trace_file, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
