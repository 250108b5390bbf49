"""Run the funcseries command line and report its time in main() and its
peak memory.

    python3 perfbench/cli_stamp.py <funcseries arguments>

It calls ``funcseries.cli.main`` as the ``funcseries`` command does.
stdout and the exit code are the CLI's own.  The last stderr line is
JSON ``{"main_s": seconds, "peak_rss_kib": kibibytes}``; everything else
the process spends (interpreter start-up, ``import funcseries``,
shutdown) is start-up.
"""

import json
import resource
import sys
import time


def peak_rss_kib() -> int:
    """Peak resident memory of this process image (VmHWM).

    ``ru_maxrss`` is not used where VmHWM exists: Linux carries the
    parent's peak at fork over into the child, so a small child would
    report its parent's memory.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    from funcseries import cli

    start = time.perf_counter()
    code = cli.main(sys.argv[1:])
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    print(json.dumps({"main_s": main_s, "peak_rss_kib": peak_rss_kib()}), file=sys.stderr)
    raise SystemExit(code)
