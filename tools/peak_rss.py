"""Run a module as ``python -m`` does and record the process's own peak
resident set size when it ends.

    python tools/peak_rss.py OUT MODULE [ARGS...]

Writes one line to OUT, the peak in MB, however the module ends (a return,
``sys.exit`` or an error), and keeps its exit status.  The peak is
``VmHWM`` of ``/proc/self/status``: the peak of this process's own memory
image since exec.  Neither a parent's ``wait4`` nor the child's own
``RUSAGE_SELF`` is that on Linux: both carry the peak of the process that
forked it (a child of a parent that touched 200 MB read 213 MB by
``RUSAGE_SELF`` and 13.5 MB by ``VmHWM``).  Only where there is no
``/proc`` is ``ru_maxrss`` of ``RUSAGE_SELF`` read instead, as KiB.
Stdlib only.
"""

from __future__ import annotations

import resource
import runpy
import sys


def peak_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    out, module, *args = sys.argv[1:]
    sys.argv = [module, *args]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(f"{peak_mb():.1f}\n")


if __name__ == "__main__":
    main()
