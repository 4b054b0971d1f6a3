"""Start ``repro serve`` for the serve-history workload.

Usage: ``python3 perfbench/serve.py [--trace-dir DIR] -- <repro serve args>``

The first line printed is ``t0 <perf_counter>``, read before the program is
imported, so the client can time the service's own set-up (imports, store
recovery, journal adoption, bind) up to the first answered ``ping`` without
the interpreter's start.  With ``--trace-dir`` the benchmark's timing
wrappers are installed first; the service writes its spans there when it
stops, and each pool worker when its task loop returns.
"""

import sys
import time

T0 = time.perf_counter()


def main() -> int:
    print(f"t0 {T0!r}", flush=True)
    argv = sys.argv[1:]
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro import cli

    if trace_dir is None:
        return cli.main(["serve", *argv])

    import functools

    import spans
    from repro.experiments import scheduler

    tracer = spans.Tracer()
    tracer.install()
    worker_main = scheduler._pool_worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        try:
            return worker_main(*args, **kwargs)
        finally:
            tracer.dump(trace_dir)

    # Pool workers are forked from this process, so they inherit the
    # wrappers; this hook only writes their spans when their loop returns.
    scheduler._pool_worker_main = traced_worker_main
    try:
        return cli.main(["serve", *argv])
    finally:
        tracer.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main())
