"""Run one hybridsem CLI call, then report this process's peak RSS.

    python3 child.py <hybridsem arguments>

This is what the installed `hybridsem` entry point runs, plus one last
stderr line `peak_rss_kib N`.  N is VmHWM, the peak resident set since
exec.  The wait4 rusage of a forked child would also count the heap of
the benchmark process it was forked from.
"""

import sys


def peak_rss_kib() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


try:
    from hybridsem.cli import main

    code = main()
finally:
    print(f"peak_rss_kib {peak_rss_kib()}", file=sys.stderr)
sys.exit(code)
