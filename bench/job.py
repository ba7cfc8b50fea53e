"""One benchmark job: ``setquant run`` in a fresh process, with its clocks.

Usage: ``python3 bench/job.py CONFIG OUT_DIR WORKERS T0 RESULT_JSON [--setup-only] [--trace]``

``T0`` is the launcher's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC on Linux, shared by all processes), so the set-up
time covers interpreter start, importing setquant and parsing the config.
The job then calls ``setquant.cli.main`` exactly as the ``setquant`` script
does, with ``cli.dispatch`` wrapped to read the clock on entry and on return.
``--setup-only`` returns from that wrapper without dispatching.  The
verdict of ``validate_eps_delta`` is kept too, so that the counterexample
trajectory it recorded can be written out for the launcher to check.
"""

import json
import resource
import sys
import time


def own_peak_kb() -> int:
    """Peak resident set of this process since it started (VmHWM).

    ``ru_maxrss`` of RUSAGE_SELF would not do: exec carries the launching
    process's high-water mark over into the new program's.  Pool workers are
    forked without exec, so RUSAGE_CHILDREN measures them.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    config, out_dir, workers, t0, result_path = argv[:5]
    setup_only, traced = "--setup-only" in argv, "--trace" in argv
    from setquant import cli

    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    clock = {}
    verdicts = []
    dispatch, validate = cli.dispatch, cli.validate_eps_delta

    def timed_dispatch(*args, **kwargs):
        clock["start"] = time.monotonic()
        if setup_only:
            return 0
        try:
            return dispatch(*args, **kwargs)
        finally:
            clock["end"] = time.monotonic()

    def keep_verdict(*args, **kwargs):
        out = validate(*args, **kwargs)
        verdicts.append(out)
        return out

    cli.dispatch, cli.validate_eps_delta = timed_dispatch, keep_verdict
    code = cli.main(["run", config, "--workers", workers, "--output", out_dir])

    result = {"exit_code": code, "setup_s": clock["start"] - float(t0)}
    if not setup_only:
        result["solve_s"] = clock["end"] - clock["start"]
        result["peak_rss_mb"] = max(own_peak_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    ce = verdicts[-1].counterexample if verdicts else None
    if ce is not None:
        result["counterexample"] = {"states": ce.states.tolist(), "actions": ce.actions.tolist()}
    if tracer is not None:
        result["spans"] = tracer.stats
        result["counts"] = dict(tracer.counts)
        result["sizes"] = tracer.sizes
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
