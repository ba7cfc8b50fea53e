"""PCG64 in lanes, against numpy's own generator, bit for bit.

Every block of box noise and of a finite set's picks, and validation's start
picks, come from the lane kernel (``streams._pcg64_next``) instead of one
numpy ``Generator`` per stream.  Every word, double and pick must equal what
numpy's ``SeedSequence`` and ``PCG64`` give for the same seed descriptor
(``sample_stream``), and a failed verdict's counterexample, taken from the
block that found it, must equal the one ``replay_counterexample`` rolls from
the descriptor alone.
"""

import numpy as np
import pytest

from setquant import streams, validation
from setquant.geometry import BoxRegion, build_cover
from setquant.scenario import (
    BoxActionSet,
    FiniteActionSet,
    UniformPolicy,
    make_lead_follow,
    make_toy_shrink,
    noise_sampler,
    sample_stream,
)
from setquant.streams import (
    _SELECT,
    _doubles,
    _FreshStream,
    _jump,
    _jumps,
    _lemire_picks,
    _pcg64_next,
    _sample_desc,
    _stream_words,
)
from setquant.validation import replay_counterexample, validate_eps, validate_eps_delta

SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
# 5-word entropy below 2**32, 6-word above it, and the selection stream
ORDINALS = [[0, 1, 2, 5], [2**32 - 1, 2**32, 2**32 + 7, 2**63], [_SELECT]]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cells", [streams._LANE_CELLS, 8, 1])
@pytest.mark.parametrize("count", [0, 1, 39, 77])
@pytest.mark.parametrize("ordinals", ORDINALS)
@pytest.mark.parametrize("seed", SEEDS)
def test_lane_words_and_doubles_equal_numpys_pcg64(monkeypatch, seed, ordinals, count, cells):
    # a small _LANE_CELLS steps a few columns at a time: the jumps between runs are exercised too
    monkeypatch.setattr(streams, "_LANE_CELLS", cells)
    words = _stream_words(seed, ordinals, count)
    assert words.shape == (len(ordinals), count)
    for j, i in enumerate(ordinals):
        desc = _sample_desc(seed, i)
        assert same_bits(words[j], sample_stream(desc).bit_generator.random_raw(count))
        assert same_bits(_doubles(words[j].copy()), sample_stream(desc).random(count))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_box_noise_blocks_of_any_size_equal_the_per_sample_draws(seed):
    # 8 to 64 rows are qnt-spe's speculative blocks, 259 past validation's first block
    sys_ = make_lead_follow(omega_bar=0.3)
    draw = noise_sampler(sys_, UniformPolicy(sys_.action_box), 13)
    acts, omegas = draw.block(seed, [])
    assert acts.shape == (0, 13, 1) and omegas.shape == (0, 13, sys_.disturbance_dim)
    for rows in (1, 6, 8, 64, 259):
        ordinals = np.arange(2**32 - 5, 2**32 - 5 + rows)  # both entropy lengths in one block
        acts, omegas = draw.block(seed, ordinals)
        for j in sorted({0, min(4, rows - 1), min(5, rows - 1), rows - 1}):
            u, w = draw(sample_stream(_sample_desc(seed, int(ordinals[j]))))
            assert same_bits(acts[j], u) and same_bits(omegas[j], w)


@pytest.mark.parametrize("points", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_finite_set_blocks_equal_the_per_sample_draws(seed, points):
    sys_ = make_lead_follow()
    actions = FiniteActionSet([(-5.0 + 2.0 * p,) for p in range(points)])
    draw = noise_sampler(sys_, UniformPolicy(actions), 39)
    for rows in (0, 1, 8, 300):
        ordinals = np.arange(2**32 - rows // 2, 2**32 - rows // 2 + rows)  # both entropy lengths in one block
        acts, omegas = draw.block(seed, ordinals)
        assert acts.shape == (rows, 39, 1) and omegas.shape == (rows, 39, sys_.disturbance_dim)
        for j, i in enumerate(ordinals):
            u, w = draw(sample_stream(_sample_desc(seed, int(i))))
            assert same_bits(acts[j], u) and same_bits(omegas[j], w)


@pytest.mark.parametrize("k", [2**31 + 1, 3 * 10**9])
@pytest.mark.parametrize("seed", SEEDS)
def test_lane_picks_equal_numpys_integers_per_lane(seed, k):
    # these k reject about half and a third of the halves: at the mean rate,
    # some of 40 lanes fall short, and every lane draws again
    ordinals = np.arange(2**32 - 20, 2**32 + 20)
    counts = []

    def words(count):
        counts.append(count)
        return _stream_words(seed, ordinals, count)

    for n in (1, 7, 100):
        counts.clear()
        picks, used = _lemire_picks(words, k, n)
        assert picks.shape == (len(ordinals), n) and len(counts) > 1
        for j, i in enumerate(ordinals):
            stream = sample_stream(_sample_desc(seed, int(i)))
            assert same_bits(picks[j], stream.integers(k, size=n))
            # numpy read the same halves: its next word follows them, and an odd count leaves a half pending
            read = -(-int(used[j]) // 2)
            assert stream.bit_generator.state["has_uint32"] == used[j] % 2
            assert stream.bit_generator.random_raw() == words(read + 1)[j, read]


@pytest.mark.parametrize("k", [1, 2, 3, 2**31 + 1, 3 * 10**9, 2**32 - 1, 2**32])
@pytest.mark.parametrize("seed", SEEDS)
def test_start_picks_equal_numpys_integers(seed, k):
    # k = 2**31 + 1 and 3e9 reject about half and a third of the halves
    for n in (0, 1, 2, 7, 1001):
        want = sample_stream(_sample_desc(seed, _SELECT)).integers(k, size=n)
        assert same_bits(_FreshStream(seed, _SELECT).integers(k, size=n), want)


def test_start_picks_refuse_more_than_two_to_the_32_values():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _FreshStream(0, _SELECT).integers(2**32 + 1, size=3)


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (7, 3), (4603, 3)])
@pytest.mark.parametrize("seed", SEEDS)
def test_box_starts_equal_numpys_random(seed, shape):
    want = sample_stream(_sample_desc(seed, _SELECT)).random(shape)
    assert same_bits(_FreshStream(seed, _SELECT).random(shape), want)


def assert_same_place(mine, theirs):
    """The lane stream stands where numpy's generator does: the words read and the pending half."""
    at, half = mine.position
    a, s = _jump(at)
    state = theirs.bit_generator.state
    assert state["state"]["state"] == (a * mine.state + s * mine.inc) % 2**128
    assert state["has_uint32"] == (half is not None) and (half is None or state["uinteger"] == half)


@pytest.mark.parametrize("cells", [streams._LANE_CELLS, 8, 1])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_the_stateful_stream_equals_one_numpy_generator(monkeypatch, seed, cells):
    # one stream, many calls: a small _LANE_CELLS refills the window often, at jumped positions
    monkeypatch.setattr(streams, "_LANE_CELLS", cells)
    theirs, mine = sample_stream(_sample_desc(seed, _SELECT)), _FreshStream(seed, _SELECT)
    plan = np.random.default_rng(seed % 1000 + cells)
    saved = []
    for _ in range(600):
        op, n = int(plan.integers(5)), int(plan.integers(0, 12))
        if op == 0:
            assert same_bits(mine.random(n), theirs.random(n))
        elif op in (1, 2):
            k = int(plan.choice([1, 2, 3, 7, 2**31 + 1, 2**32]))
            assert same_bits(mine.integers(k, size=n), theirs.integers(k, size=n))
        elif op == 3:
            saved.append((mine.position, theirs.bit_generator.state))
        elif saved:
            mine.position, theirs.bit_generator.state = saved[int(plan.integers(len(saved)))]
        assert_same_place(mine, theirs)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_after_an_odd_number_of_halves_keeps_the_pending_half(seed):
    # k = 2 accepts every half: three picks read one word and a half, and the high half waits
    theirs, mine = sample_stream(_sample_desc(seed, _SELECT)), _FreshStream(seed, _SELECT)
    assert same_bits(mine.integers(2, size=3), theirs.integers(2, size=3))
    assert mine.position[0] == 2 and mine.position[1] is not None
    for draw in (lambda g: g.random(4), lambda g: g.random(0),
                 lambda g: g.integers(3, size=0), lambda g: g.integers(1, size=5), lambda g: g.integers(2**32, size=1),
                 lambda g: g.random((2, 3)), lambda g: g.integers(2**31 + 1, size=9)):
        assert same_bits(draw(mine), draw(theirs))
        assert_same_place(mine, theirs)


def test_a_position_far_along_the_stream_is_one_jump():
    # 10**12 and 2**70 words on: the window starts there, with no stepping from word 0
    for at in (10**12, 2**70 + 3):
        theirs, mine = sample_stream(_sample_desc(5, _SELECT)), _FreshStream(5, _SELECT)
        theirs.bit_generator.advance(at)
        mine.position = (at, None)
        assert same_bits(mine.integers(2**31 + 1, size=50), theirs.integers(2**31 + 1, size=50))
        assert same_bits(mine.random(7), theirs.random(7))
        assert_same_place(mine, theirs)
    assert all(_jump(t) == (powers[-1], sums[-1]) for t in (1, 2, 63, 64, 100) for powers, sums in [_jumps(t)])


LF, SHRINK = make_lead_follow(), make_toy_shrink()
LF_COVER = build_cover(LF.state_box, 1.0)
SHRINK_COVER = build_cover(BoxRegion([-0.5], [0.5]), 0.25)
NARROW, WIDE = BoxActionSet([-0.38], [0.38]), BoxActionSet([-0.46], [0.46])
# name: (system, region, horizon, actions, seed, first block's rows or None for _BLOCK, failing index)
FAILURES = {
    # unsafe exits: the lead brakes the gap shut
    "eps-delta-unsafe-first": (LF, LF_COVER, 40, LF.action_box, 0, None, 77),
    "eps-delta-unsafe-later": (LF, LF_COVER, 40, LF.action_box, 3, 32, 131),
    "eps-delta-unsafe-small-block": (LF, LF_COVER, 40, LF.action_box, 0, 32, 77),
    "eps-unsafe-first": (LF, LF.state_box, 40, LF.action_box, 0, None, 15),
    "eps-unsafe-later": (LF, LF.state_box, 40, LF.action_box, 6, 32, 127),
    # leaving the region: x' = x / 2 + u runs past the cover or the box
    "eps-delta-leaves-first": (SHRINK, SHRINK_COVER, 2, NARROW, 5, None, 9),
    "eps-delta-leaves-later": (SHRINK, SHRINK_COVER, 2, NARROW, 1, None, 520),
    "eps-leaves-first": (SHRINK, BoxRegion([-0.9], [0.9]), 2, WIDE, 5, None, 122),
    "eps-leaves-later": (SHRINK, BoxRegion([-0.9], [0.9]), 2, WIDE, 8, None, 1908),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_the_block_counterexample_equals_its_replay(monkeypatch, name):
    # the first block holds 256 rows; one of 32 puts index 77 in a 64-row
    # block, and 127 and 131 in a 128-row one
    sys_, region, horizon, actions, seed, first_block, index = FAILURES[name]
    if first_block is not None:
        monkeypatch.setattr(validation, "_BLOCK", first_block)
    validate = validate_eps if isinstance(region, BoxRegion) else validate_eps_delta
    verdict = validate(sys_, region, horizon, 0.001, 0.01, actions, seed)
    assert not verdict.result and verdict.counterexample_seed == _sample_desc(seed, index)
    want = replay_counterexample(sys_, verdict, horizon, actions)
    got = verdict.counterexample
    assert same_bits(got.states, want.states) and same_bits(got.actions, want.actions)
    assert (got.exit_kind, got.exit_facet) == (want.exit_kind, want.exit_facet)
    assert (got.exit_kind == "unsafe") == ("unsafe" in name)
