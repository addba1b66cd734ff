"""``gendp-serve`` with the benchmark's span shims installed.

The traced run of ``serve_small_mixed`` starts the server through this
file instead of ``repro.cli.serve_main`` directly, so the production
topology (server process + shm workers) is kept and only the shims are
added.  SIGUSR1 switches span recording on and SIGUSR2 off (the
benchmark traces every second pass and compares it with its
neighbours).  On exit -- the benchmark's SIGTERM, which gendp-serve
turns into a graceful drain -- the spans and one cumulative counter
sample per engine drain are written to the path given first; both
carry ``time.perf_counter()`` stamps the benchmark's own clock shares.

usage: serve_traced.py TRACE_OUT [gendp-serve arguments...]
"""

import os
import signal
import sys
import time

# The script directory would shadow the stdlib ``trace`` module.
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    from bench import trace
    from bench.harness import flatten_engine
    from repro.cli import serve_main
    from repro.engine.service import Engine

    trace_out, arguments = argv[0], argv[1:]
    recorder = trace.install()
    signal.signal(signal.SIGUSR1, lambda *_: setattr(recorder, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(recorder, "enabled", False))
    samples = []
    traced_drain = Engine.drain

    def sampled_drain(self):
        results = traced_drain(self)
        samples.append([time.perf_counter(), flatten_engine([self.snapshot()])])
        return results

    Engine.drain = sampled_drain
    try:
        return serve_main(arguments)
    finally:
        recorder.dump(trace_out, counter_samples=samples)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
