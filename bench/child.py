"""One benchmark round: a single campaign in a fresh process.

Run with ``PYTHONPATH=src`` from the repository root::

    python3 bench/child.py --config round/config.json --out round/results \
        --roi round/roi.npz [--spans round/spans.npz | --probe]

The round imports ``prefnorm``, loads the config, runs the campaign with
one worker and writes its results, timing each phase.  With ``--spans``
it also traces calls into the package (see ``tracing.py``) and writes
the spans there.  With ``--probe`` it samples the host's speed all through
the round (see ``SpeedProbe``) and leaves the probes' time out of every
timing it reports.  The reference sets the campaign built are saved to
``--roi`` for the correctness checks.  The last line of standard output
is one JSON object with the timings and counts.
"""
from __future__ import annotations

import argparse
import json
import logging
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np


class PackageLog(logging.Handler):
    """Counts the package's log records instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.cyclic_lumps = 0
        self.cyclic_lumped = 0
        self.runs_failed = 0

    def emit(self, record):
        if record.msg.startswith("cyclic dominance"):
            self.cyclic_lumps += 1
            self.cyclic_lumped += int(record.args[0])
        elif record.msg.startswith("run failed"):
            self.runs_failed += 1
        else:
            print(f"prefnorm: {record.getMessage()}", file=sys.stderr)


class SpeedProbe:
    """Samples the host's speed all through a round.

    Every ``EVERY_S`` of wall time a timer signal runs a fixed piece of
    array work, ``PASSES`` distance-and-minimum passes over 40000 points
    in 3-D like those of the front samplers, and records when it ran.
    The host's speed drifts by tens of percent within minutes; the mean
    probe time of a round moves with the round's campaign time on all
    three workloads (see the README's "Host speed").
    """

    EVERY_S = 0.5
    PASSES = 8

    def __init__(self):
        self.spans: list[tuple[float, float]] = []

    def _work(self) -> None:
        for i in range(self.PASSES):
            np.minimum(self.dist,
                       np.linalg.norm(self.points - self.points[i], axis=1),
                       out=self.dist)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._work()
        self.spans.append((start, time.perf_counter()))

    def start(self) -> None:
        self.points = np.random.default_rng(0).random((40000, 3))
        self.dist = np.full(len(self.points), np.inf)
        self._work()  # the first pass over fresh arrays is slow: not timed
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def within(self, windows, but=()) -> list[float]:
        """Durations of the probes inside one of the (start, end)
        ``windows`` and inside none of ``but``.  A probe runs between two
        bytecodes, so it never straddles a timestamp the round takes."""
        def inside(s, e, spans):
            return any(a <= s and e <= b for a, b in spans)
        return [e - s for s, e in self.spans
                if inside(s, e, windows) and not inside(s, e, but)]

    def net(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` without the probes' time."""
        return end - start - sum(self.within([(start, end)]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--roi", required=True, type=Path)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--spans", type=Path)
    mode.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    if args.probe:
        probe.start()
    t0 = time.perf_counter()
    import prefnorm
    imported = time.perf_counter()
    from prefnorm import harness

    log = PackageLog()
    pkg_logger = logging.getLogger("prefnorm")
    pkg_logger.addHandler(log)
    pkg_logger.propagate = False

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(tracing.traced_sites(prefnorm))

    builds: list[tuple[float, float]] = []
    rois: dict[str, np.ndarray] = {}
    build_cell_roi = harness.build_cell_roi

    def timed_build(config, name, m):
        t = time.perf_counter()
        z, roi = build_cell_roi(config, name, m)
        builds.append((t, time.perf_counter()))
        rois[f"{name}:{m}"] = roi.points
        return z, roi

    harness.build_cell_roi = timed_build

    root = tracer.open(0) if tracer else None  # name 0 is the root span
    start = time.perf_counter()
    config = harness.load_config(args.config)
    loaded = time.perf_counter()
    failed_error = None
    try:
        traces = harness.execute_campaign(config, workers=1)
    except RuntimeError as exc:
        traces = None
        failed_error = str(exc).splitlines()[0]
    executed = time.perf_counter()
    if traces is not None:
        harness.write_results(traces, config, args.out)
    end = time.perf_counter()
    if tracer:
        tracer.close(root)
        tracer.uninstall()
    probe.stop()

    np.savez(args.roi, **rois)
    written = [p for p in args.out.rglob("*") if p.is_file()]
    result = {
        "import_s": probe.net(t0, imported),
        "load_s": probe.net(start, loaded),
        "build_s": sum(probe.net(a, b) for a, b in builds),
        "execute_s": probe.net(loaded, executed),
        "campaign_s": probe.net(start, end),
        # probe times in the optimizer runs and in the rest of the round,
        # whose probes run slower beside the set-up's array work
        "probe_s": {
            "runs": probe.within([(loaded, executed)], but=builds),
            "other": probe.within([(t0, imported), (start, loaded), *builds,
                                   (executed, end)]),
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "runs_attempted": (len(config.problems) * len(config.algorithms)
                           * len(config.normalizations) * config.runs),
        "runs_failed": log.runs_failed,
        "failed_error": failed_error,
        "cyclic_lumps": log.cyclic_lumps,
        "cyclic_lumped": log.cyclic_lumped,
        "result_files": len(written),
        "result_bytes": sum(p.stat().st_size for p in written),
    }
    if tracer:
        result["rows"] = tracer.rows
        result["layers"] = tracer.summary()
        tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
