"""One benchmark operation: a single hive-vqe command in a fresh process.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec names the source
tree, the command-line arguments for ``hive_vqe.cli.main``, whether to trace
every layer, and where to write the result.  The result holds the clock
reading when the command returned (``time.perf_counter`` is the
system-wide monotonic clock, so the parent compares it with its own spawn
time), the spans, every convergence trace the optimizer returned, the
norm-repair count and the peak resident memory.
"""

import json
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ``getrusage`` is not used: across ``exec`` Linux carries the parent's
    peak into the child's ``ru_maxrss``, so a large parent would show up.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    before_import = time.perf_counter()
    from hive_vqe import cli
    from hive_vqe.statevector import renormalization_count
    import_s = time.perf_counter() - before_import

    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer, full=spec["trace"])
    repairs_before = renormalization_count()
    exit_code = cli.main(spec["argv"])
    done = time.perf_counter()
    result = {
        "done": done,
        "exit_code": exit_code,
        "import_s": import_s,
        "maxrss_kb": peak_rss_kb(),
        "norm_repairs": renormalization_count() - repairs_before,
        "spans": tracer.spans,
        "traces": tracer.traces,
        "counters": tracer.counters,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
