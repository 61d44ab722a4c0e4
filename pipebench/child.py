"""Run one flatm command in a fresh process and report what it cost.

Usage: python3 child.py RESULT_JSON SRC_DIR FLATM_ARG...

The process imports flatm from SRC_DIR and does nothing else before it
calls ``flatm.cli.main``, so its peak resident memory belongs to the
command. RESULT_JSON receives the exit code, the wall-clock time at which
the command started (``time.time()``, comparable across processes), the
command's own duration and the peak RSS. A crash leaves no result file.

Peak RSS is ``VmHWM`` from /proc/self/status, the high-water mark of this
program image alone. ``getrusage`` is no use here: on Linux its
``ru_maxrss`` keeps the parent's high-water mark across fork and exec, so
it would report the benchmark harness whenever that is the larger.
"""

import json
import re
import sys
import time


def main() -> None:
    result_path, src_dir, *argv = sys.argv[1:]
    sys.path.insert(0, src_dir)
    from flatm.cli import main as flatm_main

    started_at = time.time()
    t0 = time.perf_counter()
    rc = flatm_main(argv)
    wall_s = time.perf_counter() - t0
    with open("/proc/self/status", encoding="ascii") as f:
        peak_kb = int(re.search(r"VmHWM:\s*(\d+) kB", f.read()).group(1))
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(
            {"rc": rc, "started_at": started_at, "wall_s": wall_s, "peak_kb": peak_kb},
            f,
        )


if __name__ == "__main__":
    main()
