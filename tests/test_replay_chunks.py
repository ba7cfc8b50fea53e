"""The replay pass in chunks of 1, 2 and 5 trajectories, against the sequential loop.

``quantify_spe`` replays its buffer ``_REPLAY_CHUNK`` records at a time: one
cover query per chunk, and one more for the rest of a chunk after each
event.  With 64-record chunks an event rarely falls on a chunk's edge;
chunks this small put events on every edge and make the rest of a chunk
short or empty.  Each run must equal ``sequential_spe`` of
``test_speculative`` bit for bit: the report, the cover's centers and
activity bits, the reach graph and every ``trace`` call.  The three configs
have events in their replay passes, noisy box inputs and a held input.
"""

import warnings

import numpy as np
import pytest

from setquant import quantification
from setquant.geometry import DeltaCover
from setquant.scenario import FiniteActionSet
from test_held import HELD_CONFIGS
from test_speculative import CONFIGS, observed, same_bits, sequential_spe


def config(name: str) -> tuple:
    """(system, actions, hyper, seed, prioritized) of a replaying config of ``test_speculative`` or ``test_held``."""
    if name in HELD_CONFIGS:
        make, point, hyper, seed, prioritized, _ = HELD_CONFIGS[name]
        return make(), FiniteActionSet([point]), hyper, seed, prioritized
    make, acts, hyper, seed, prioritized, _ = CONFIGS[name]
    sys_ = make()
    assert acts is None
    return sys_, sys_.action_box, hyper, seed, prioritized


def replay_events(monkeypatch) -> list:
    """A list that gets one entry per discovery or prune made while the replay pass reads the buffer."""
    events, replaying = [], [False]
    inner_iter, inner_append, inner_closure = (quantification.TrajectoryBuffer.__iter__, DeltaCover.append,
                                               quantification.reachable_closure)

    def iterate(buffer):
        replaying[0] = True
        try:
            yield from inner_iter(buffer)
        finally:
            replaying[0] = False

    def append(cover, point):
        if replaying[0]:
            events.append("discovery")
        return inner_append(cover, point)

    def closure(graph, vertex):
        if replaying[0]:
            events.append("prune")
        return inner_closure(graph, vertex)

    monkeypatch.setattr(quantification.TrajectoryBuffer, "__iter__", iterate)
    monkeypatch.setattr(DeltaCover, "append", append)
    monkeypatch.setattr(quantification, "reachable_closure", closure)
    return events


@pytest.mark.parametrize("chunk", [1, 2, 5])
@pytest.mark.parametrize("name", ["threshold-noisy", "two-basins-noisy-prioritized", "toy-shift-rediscovers"])
def test_replay_in_small_chunks_equals_the_sequential_loop(monkeypatch, name, chunk):
    sys_, actions, hyper, seed, prioritized = config(name)
    (rep, cover, pruned, graph), want_traces, _ = observed(lambda **kw: sequential_spe(
        sys_, actions, hyper, seed, prioritized=prioritized, replay=True, **kw))
    monkeypatch.setattr(quantification, "_REPLAY_CHUNK", chunk)
    events = replay_events(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got, traces, _ = observed(lambda **kw: quantification.quantify_spe(
            sys_, actions, hyper, seed, prioritized=prioritized, replay=True, **kw))

    assert events  # the replay pass changed the cover, so its chunk edges mattered
    assert got.report == rep and got.report.n_replayed > 0
    assert same_bits(got.cover.centers, cover.centers)
    np.testing.assert_array_equal(got.cover.active, cover.active)
    assert got.graph.parents == graph.parents
    assert traces == want_traces
