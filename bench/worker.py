"""One timed call of `confoundsim.cli.main` in a fresh process.

    python3 bench/worker.py SPAWNED [--trace SPANS.json] -- CLI ARGS...

SPAWNED is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start-up and the import of the
package, which every CLI user pays on every run.  `wall_s` is the duration
of the `cli.main` call.  With --trace the layers are wrapped first and their
spans written to SPANS.json afterwards; without it the tracer is never
imported.  Prints one JSON line: setup_s, wall_s, exit_code, peak_rss_mb.
"""

import json
import sys
import time


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    Read from /proc rather than getrusage: on Linux ru_maxrss survives
    execve, so it would report the parent's size whenever that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    spawned = float(argv[0])
    split = argv.index("--")
    options, cli_args = argv[1:split], argv[split + 1:]
    trace_path = options[1] if options[:1] == ["--trace"] else None

    import confoundsim.cli
    setup_s = time.monotonic() - spawned

    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    code = confoundsim.cli.main(cli_args)
    wall_s = time.perf_counter() - start

    if tracer is not None:
        tracer.dump(trace_path)
    print(json.dumps({"setup_s": setup_s, "wall_s": wall_s, "exit_code": code,
                      "peak_rss_mb": peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
