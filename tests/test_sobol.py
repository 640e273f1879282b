"""The numpy scrambled Sobol' generator: its sequence, its scramble and its tiles."""

import itertools

import numpy as np
import pytest

import gaussvol._sobol as _sobol

_TILE = 1 << 16


def _unscrambled(n):
    """(4, n) words of the first n unscrambled points, bit by bit from their indices."""
    index = np.arange(n, dtype=np.uint64)
    out = np.zeros((4, n), dtype=np.uint32)
    for k in range(_sobol.BITS):
        out ^= np.where((index >> np.uint64(k)) & 1 == 1, _sobol._V[:, k:k + 1],
                        0).astype(np.uint32)
    return out


def _as_set(points):
    """Rows of an (n, 4) array in lexicographic order."""
    return points[np.lexsort(points.T[::-1])]


@pytest.mark.parametrize("m", range(18))
def test_unscrambled_points_match_scipy(m):
    qmc = pytest.importorskip("scipy.stats").qmc
    n = 1 << m
    want = qmc.Sobol(d=4, scramble=False, bits=32).random_base2(m)
    got = _unscrambled(n).T * 2.0 ** -32
    assert np.array_equal(_as_set(got), _as_set(want))


def _t_value(x, y, m):
    """The least t such that each elementary box of volume 2^(t - m) holds 2^t of the words.

    ``x`` and ``y`` are the uint32 words of 2^m points in two dimensions.
    """
    for t in range(m + 1):
        ok = True
        for k in range(m - t + 1):
            cell = (x.astype(np.int64) >> (32 - k)) << (m - t - k) if k else 0
            cell = cell + (y.astype(np.int64) >> (32 - (m - t - k)) if m - t - k else 0)
            counts = np.bincount(np.broadcast_to(cell, x.shape), minlength=1 << (m - t))
            ok &= bool((counts == 1 << t).all())
        if ok:
            return t
    return m


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scrambled_blocks_keep_the_stratification(seed):
    # every aligned block of 2^m scrambled points, at any offset, holds one
    # point in each of 2^m intervals of each dimension, and in each 2-d
    # projection as many points per elementary box as the unscrambled block
    scramble = _sobol.Scramble(np.random.default_rng(seed))
    plain = _unscrambled(1 << 12)
    rng = np.random.default_rng(100 + seed)
    for m in range(1, 13):
        start = int(rng.integers(0, 1 << 10)) * _TILE
        tile = np.empty((4, _TILE))
        scramble.tile(start, tile, slice(0, 4))
        b = int(rng.integers(0, _TILE >> m))
        words = (tile[:, b << m:(b + 1) << m] * 2.0 ** 32).astype(np.uint32)
        for dim in words:
            assert np.array_equal(np.sort(dim >> np.uint32(32 - m)), np.arange(1 << m)), m
        for i, j in itertools.combinations(range(4), 2):
            want = _t_value(plain[i, :1 << m], plain[j, :1 << m], m)
            assert _t_value(words[i], words[j], m) == want, (m, i, j)


def test_scramble_is_seeded():
    first, again, other = (_sobol.Scramble(np.random.default_rng(s)) for s in (7, 7, 8))
    assert np.array_equal(first.v, again.v) and np.array_equal(first.shift, again.shift)
    assert not np.array_equal(first.v, other.v)
    assert not np.array_equal(first.shift, other.shift)


@pytest.mark.parametrize("start", [0, 5 * _TILE, (1 << 31) + 37 * _TILE, (1 << 32) - _TILE])
@pytest.mark.parametrize("t", [1, 255, 256, 40_000, _TILE])
def test_tile_and_gather_match_the_direct_form(start, t):
    scramble = _sobol.Scramble(np.random.default_rng(start % 97 + t))
    want = scramble.words(np.arange(start, start + t, dtype=np.uint64)) * 2.0 ** -32
    got = np.empty((4, t))
    scramble.tile(start, got[:2], slice(0, 2))
    scramble.tile(start, got[2:], slice(2, 4))
    assert np.array_equal(got, want)
