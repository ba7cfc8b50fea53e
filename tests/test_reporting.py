"""The cover artifact writers against the row-by-row writers they replaced, byte for byte, and the config digest."""

import csv
import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from setquant.geometry import KEY_DIGITS, BoxRegion, DeltaCover, _fmt, build_cover, refine_cover, save_cover_csv
from setquant.reporting import config_digest, write_slices_csv


def _reference_save_cover_csv(cover, path, flags=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dim", "delta"])
        w.writerow([cover.dim, _fmt(cover.radius)])
        for i, row in enumerate(cover.centers):
            rec = [_fmt(v) for v in row]
            if flags is not None:
                rec.append(str(int(flags[i])))
            w.writerow(rec)


def _reference_slices_csv(path, cover):
    rows = []
    act = cover.active_centers()
    n = cover.dim
    for axis in range(n):
        groups: dict = {}
        for c in act:
            key = tuple(round(float(c[d]), KEY_DIGITS) for d in range(n) if d != axis)
            v = float(c[axis])
            lohi = groups.get(key)
            if lohi is None:
                groups[key] = [v, v]
            else:
                lohi[0] = min(lohi[0], v)
                lohi[1] = max(lohi[1], v)
        other = [d for d in range(n) if d != axis]
        for key in sorted(groups):
            fixed = ";".join(f"{d}={_fmt(val)}" for d, val in zip(other, key))
            rows.append([axis, fixed, _fmt(groups[key][0]), _fmt(groups[key][1])])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["axis", "fixed", "min_center", "max_center"])
        w.writerows(rows)


# zeros of both signs, values that round together at KEY_DIGITS (and print
# apart), long decimals, magnitudes that _fmt writes without an exponent
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-11, -1e-11, 0.5, 0.5 + 2e-11, 0.5 - 2e-11, -0.5, 1.25, 1.25 + 4e-11,
                     0.123456789012, 0.123456789049, 1e-7, 123456.5, -3.0]),
    st.integers(-8, 8).map(lambda k: k / 4.0),
    st.floats(-1e3, 1e3),
)


def _check_writers(tmp, cover):
    for flags in (None, cover.active.astype(int)):
        save_cover_csv(cover, tmp / "a.csv", flags=flags)
        _reference_save_cover_csv(cover, tmp / "b.csv", flags=flags)
        assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()
    write_slices_csv(tmp / "a.csv", cover)
    _reference_slices_csv(tmp / "b.csv", cover)
    assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_cover_writers_equal_the_row_by_row_writers(tmp_path_factory, dim, data):
    rows = data.draw(st.lists(st.lists(coordinates, min_size=dim, max_size=dim), max_size=30))
    centers = np.array(rows, dtype=float).reshape(-1, dim)
    active = np.array(data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))), dtype=bool)
    cover = DeltaCover(centers, data.draw(st.sampled_from([0.25, 1.0 / 3.0, 2.0])),
                       BoxRegion(-np.full(dim, 1e3), np.full(dim, 1e3)), active=active)
    _check_writers(tmp_path_factory.mktemp("w"), cover)


def test_cover_writers_on_signed_zeros_refined_and_emptied_covers(tmp_path):
    # both zeros in one group, at its min and at its max, and in its fixed key: the first seen is written
    zeros = DeltaCover([[0.0, 1.0], [-0.0, 1.0], [-0.0, 2.0], [0.0, 2.0], [-1.0, -0.0], [-1.0, 0.0], [-0.0, 0.0]],
                       0.5, BoxRegion([-2.0, -2.0], [2.0, 2.0]))
    _check_writers(tmp_path, zeros)
    cover = refine_cover(build_cover(BoxRegion([0.0, 5.5, 20.0], [4.0, 16.0, 60.0]), 2.0), 0.5)
    cover.deactivate(np.arange(0, len(cover), 3))
    _check_writers(tmp_path, cover)
    one = build_cover(BoxRegion([-1.0], [1.5]), 0.3)
    _check_writers(tmp_path, one)
    cover.deactivate(cover.active_indices())
    _check_writers(tmp_path, cover)


# text within one line: no line boundary of str.splitlines, and no surrogate, which UTF-8 refuses
_in_line = st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
_pad = st.text(" \t", max_size=3)
# a setting starts with a letter, so once stripped it is neither blank nor a comment
_setting = st.tuples(st.sampled_from(["algorithm", "hyper.δ0", "système.name", "options.方", "Ω"]),
                     st.sampled_from([" = ", "=", " =\t"]), _in_line).map(lambda t: "".join(t).strip())


@settings(max_examples=200, deadline=None)
@given(st.lists(_setting, max_size=8),
       st.lists(st.one_of(st.tuples(_pad, _in_line).map(lambda t: t[0] + "#" + t[1]), _pad), max_size=4), st.data())
def test_the_config_digest_is_hashlib_sha256_of_the_canonical_body(settings_, others, data):
    # the body is the stripped settings, sorted, joined by newlines, in UTF-8; comments and blank lines drop out
    want = hashlib.sha256("\n".join(sorted(settings_)).encode("utf-8")).hexdigest()
    lines = [data.draw(_pad) + ln + data.draw(_pad) for ln in settings_]
    lines = data.draw(st.permutations(lines + others))
    text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines) + data.draw(st.sampled_from(["", "\n"]))
    assert config_digest(text) == want


def test_the_digest_of_a_fixed_config_is_pinned():
    text = ("# the acceptance reference config, δ ≤ 4\n"
            "algorithm = qnt-spe\nseed = 0\nsystem.name = lead-follow\n\nhyper.delta0 = 4.0\n"
            "  hyper.delta_min = 1.0   \nhyper.K = 40\nhyper.N = 200000\nhyper.epsilon = 0.01\nhyper.beta = 0.1\n"
            "options.action_points = [[-5.0]]\noptions.prioritized = true\noptions.replay = true\n")
    assert config_digest(text) == "553c2350a4aed3fd44e1740afdd4203cdb521125a3698fe0e84661af0e2207d9"
