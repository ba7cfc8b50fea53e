"""Spans around the public calls into each setquant module, installed from outside.

``install(tracer)`` rebinds every module attribute through which setquant
reaches one of the traced functions (``step`` is called as
``scenario.step`` by rollouts and as ``oracle.step`` by the oracle, for
example), so one wrapper sees every call whichever module makes it.  Nothing
inside ``src/`` is edited; the wrappers only exist in a traced job process.

Spans are aggregated in memory as they close — per name a call count, the
inclusive time and the self time (inclusive time minus the time of the spans
it caused) — and written out once when the job ends.  Millions of ``step``
spans a run make a per-span log too large to keep.
"""

from __future__ import annotations

import os
import time
from collections import Counter

CANONICAL = ("report.json", "cells.csv", "oracle.csv", "slices.csv")


class Tracer:
    def __init__(self):
        self.stack: list = []  # one [name, child_seconds] frame per open span
        self.open: Counter = Counter()  # name -> open spans of that name
        self.stats: dict = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self.sizes: dict = {}

    def _close(self, name: str, frame: list, dur: float) -> None:
        self.stack.pop()
        self.open[name] -= 1
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]
        if self.stack:
            self.stack[-1][1] += dur

    def wrap(self, fn, name: str, after=None):
        """A span-recording replacement for ``fn``; ``after(args, kwargs, out)`` may count."""
        clock = time.perf_counter
        stack, open_, close = self.stack, self.open, self._close

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            open_[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(name, frame, clock() - t0)
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def span_iter(self, iterable, name: str, per_item=None):
        """Span from the first request of an iterator until it is exhausted.

        The loop body that consumes the items runs inside the span, so its
        calls count as the span's children.
        """
        frame = [name, 0.0]
        self.stack.append(frame)
        self.open[name] += 1
        t0 = time.perf_counter()
        try:
            for item in iterable:
                if per_item is not None:
                    per_item(item)
                yield item
        finally:
            self._close(name, frame, time.perf_counter() - t0)


def _rebind(bindings, fn_name: str, replacement) -> None:
    for mod in bindings:
        setattr(mod, fn_name, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of setquant in spans and counters."""
    from setquant import cli, config, geometry, oracle, quantification, reporting, scenario, validation

    t, c, sizes = tracer, tracer.counts, tracer.sizes

    # scenario: transitions, rollouts, action draws
    _rebind((scenario, oracle), "step", t.wrap(scenario.step, "scenario.step"))

    def note_rollout(args, kwargs, out):
        if t.open["validation.validate_eps_delta"]:
            c["validation.samples"] += 1

    _rebind((scenario, validation, quantification), "run_scenario",
            t.wrap(scenario.run_scenario, "scenario.run_scenario", note_rollout))
    scenario.UniformPolicy.__call__ = t.wrap(scenario.UniformPolicy.__call__, "scenario.action_draw")

    # geometry: the cover query, growth, refinement and volume
    def note_query(args, kwargs, out):
        c["geometry.batch_distances.pairs"] += int(out.shape[0]) * args[0].n_active()

    geometry.DeltaCover.batch_distances = t.wrap(geometry.DeltaCover.batch_distances,
                                                 "geometry.batch_distances", note_query)

    def note_append(args, kwargs, out):
        if t.open["quantification.quantify_spe"] and not t.open["geometry.refine_cover"]:
            c["quantification.discoveries"] += 1

    geometry.DeltaCover.append = t.wrap(geometry.DeltaCover.append, "geometry.append", note_append)
    _rebind((geometry, quantification), "refine_cover",
            t.wrap(geometry.refine_cover, "geometry.refine_cover"))
    _rebind((geometry, quantification), "volume_estimate",
            t.wrap(geometry.volume_estimate, "geometry.volume_estimate"))

    # quantification: pruning, replay, and the per-sample event flag
    quantification.reachable_closure = t.wrap(quantification.reachable_closure,
                                              "quantification.reachable_closure")
    buffer_iter = quantification.TrajectoryBuffer.__iter__

    def count_replayed(record):
        c["quantification.replayed_transitions"] += max(0, record[1].shape[0] - 1)

    quantification.TrajectoryBuffer.__iter__ = lambda self: t.span_iter(
        buffer_iter(self), "quantification.replay", count_replayed)

    def note_spe(args, kwargs, out):
        c["quantification.fresh_samples"] += out.report.n_fresh_samples
        c["quantification.decays"] += out.report.n_decays
        sizes["cover_cells"], sizes["active_cells"] = len(out.cover), out.cover.n_active()

    spe = t.wrap(quantification.quantify_spe, "quantification.quantify_spe", note_spe)

    def spe_with_events(*args, **kwargs):
        def on_sample(n, cover, event):
            c["quantification.event_samples"] += int(event)
        return spe(*args, trace=on_sample, **kwargs)

    _rebind((quantification, cli), "quantify_spe", spe_with_events)

    # oracle: the all-cells nearest query and the sweeps
    oracle._nearest_all = t.wrap(oracle._nearest_all, "oracle.nearest")

    def note_oracle(args, kwargs, out):
        c["oracle.sweeps"] += out.sweeps
        sizes["cover_cells"], sizes["active_cells"] = len(out.grid), out.count()

    _rebind((oracle, cli), "brute_force_invariant",
            t.wrap(oracle.brute_force_invariant, "oracle.brute_force_invariant", note_oracle))

    # validation: the verdict and the parent's wait on its process pool
    def note_validate(args, kwargs, out):
        cover = args[1]
        sizes["cover_cells"], sizes["active_cells"] = len(cover), cover.n_active()

    _rebind((validation, quantification, cli), "validate_eps_delta",
            t.wrap(validation.validate_eps_delta, "validation.validate_eps_delta", note_validate))
    run_samples = validation._run_samples
    pooled = t.wrap(run_samples, "validation.pool_wait")

    def run_samples_split(*args, **kwargs):
        workers, record = args[6], kwargs.get("record")
        return (pooled if workers > 1 and record is None else run_samples)(*args, **kwargs)

    validation._run_samples = run_samples_split

    # reporting: artifact writes and the bytes of the canonical ones
    def note_write(args, kwargs, out):
        path = args[0]
        if os.path.basename(path) in CANONICAL:
            c["reporting.bytes"] += os.path.getsize(path)

    for fn_name in ("write_report_json", "write_cells_csv", "write_oracle_csv", "write_slices_csv",
                    "write_trajectories_ndjson", "write_run_meta"):
        setattr(cli, fn_name, t.wrap(getattr(reporting, fn_name), "reporting.write", note_write))

    # config and cli glue
    cli.parse_config = t.wrap(config.parse_config, "config.parse_config")
    cli.dispatch = t.wrap(cli.dispatch, "cli.dispatch")
