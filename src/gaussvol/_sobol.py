"""Scrambled 4-d Sobol' points at 32 bits, in numpy.

The direction numbers are Joe and Kuo's (2008) for dimensions 1-4.  The
unscrambled point of index i is the XOR of the direction numbers at the set
bits of i: natural order, not Gray-code order, which gives the same set of
points in every aligned block of 2^m indices.  A ``Scramble`` applies a
random linear matrix scramble, one lower-triangular binary matrix with unit
diagonal per dimension, to the direction numbers, and XORs a random digital
shift onto every point: Owen's random linear scramble, which is what
``scipy.stats.qmc.Sobol(scramble=True)`` does.  Every aligned block of 2^m
points keeps the stratification of the unscrambled one, and each point is
uniform over the 2^32 grid.

A point is the XOR of four table words, one per byte of its index, so the
2^16 points of a tile at an aligned index are one constant XORed with the
outer XOR of two 256-entry tables.  ``tile`` builds them by doubling: the
first 256 points from the low table, then each block of as many points as
are done from those, XORed with the direction number of the next index
bit, so every XOR runs along a whole row.  The words are kept shifted into the
mantissa of a float64 in [1, 2), so that the XOR writes the floats 1 + u and
one subtraction gives the uniforms u, with no integer-to-float conversion.
"""

from __future__ import annotations

import numpy as np

BITS = 32
# Joe and Kuo's dimensions 2-4: each primitive polynomial's degree s, its
# interior coefficients a (a_1 the most significant bit) and m_1, ..., m_s
_JOE_KUO = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)))
_BYTE = 8
# a word w in the top of a float64 mantissa, under the exponent of 1.0, is 1 + w 2^-BITS
_MANTISSA_SHIFT = np.uint64(52 - BITS)
_ONE = np.float64(1.0).view(np.uint64)


def _direction_numbers() -> np.ndarray:
    """The (4, BITS) direction numbers v_k = m_k 2^(BITS - 1 - k), k = 0, ..., BITS - 1."""
    rows = [[1] * BITS]
    for s, a, m in _JOE_KUO:
        m = list(m)
        for k in range(s, BITS):
            new = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    new ^= m[k - i] << i
            m.append(new)
        rows.append(m)
    return np.array([[mk << (BITS - 1 - k) for k, mk in enumerate(m)] for m in rows],
                    dtype=np.uint32)


_V = _direction_numbers()
_PLACES = np.arange(BITS - 1, -1, -1, dtype=np.uint64)  # bit p of a word, most significant first


def _xor_table(v: np.ndarray) -> np.ndarray:
    """(d, 2^k) table of the XOR of ``v``'s (d, k) columns at the set bits of each index."""
    table = np.zeros((v.shape[0], 1), dtype=v.dtype)
    for col in v.T:
        table = np.concatenate([table, table ^ col[:, None]], axis=1)
    return table


class Scramble:
    """One random linear matrix scramble plus digital shift of the 4-d sequence.

    ``rng`` draws the four matrices' entries below their diagonals, then
    the four shifts.  ``words`` gives any point's words from its index, bit
    by bit; ``tile`` gives a tile's uniforms from the byte tables, and
    ``words`` is its reference.
    """

    def __init__(self, rng: np.random.Generator):
        lower = np.tril(rng.integers(0, 2, size=(4, BITS, BITS), dtype=np.uint8), -1)
        lower[:, np.arange(BITS), np.arange(BITS)] = 1
        self.shift = rng.integers(0, 1 << BITS, size=4, dtype=np.uint64).astype(np.uint32)
        # bit p of a scrambled direction number is the parity of row p of
        # the matrix ANDed with the direction number's bits
        bits = (_V[:, :, None].astype(np.uint64) >> _PLACES) & 1
        out = np.einsum("dpq,dkq->dkp", lower.astype(np.uint64), bits) & 1
        self.v = (out << _PLACES).sum(axis=2).astype(np.uint32)
        # the direction numbers and the table of index byte j, each word in a
        # float mantissa; ``tile`` reads byte 0's and ``_base`` bytes 2 and 3's
        self._words = self.v.astype(np.uint64) << _MANTISSA_SHIFT
        self._bytes = {j: _xor_table(self._words[:, _BYTE * j:_BYTE * (j + 1)]) for j in (0, 2, 3)}

    def words(self, index) -> np.ndarray:
        """(4, n) uint32 words of the points at the given indices."""
        index = np.asarray(index, dtype=np.uint64).reshape(-1)
        out = np.repeat(self.shift[:, None], index.size, axis=1)
        for k in range(BITS):
            out ^= np.where((index >> np.uint64(k)) & 1 == 1, self.v[:, k:k + 1], 0)
        return out

    def _base(self, start: int, dims: slice) -> np.ndarray:
        """The float bits of 1 + the point at the aligned tile index ``start``, one per dim."""
        base = (self.shift[dims].astype(np.uint64) << _MANTISSA_SHIFT) | _ONE
        for j in range(2, BITS // _BYTE):
            base ^= self._bytes[j][dims, (start >> (_BYTE * j)) & 0xFF]
        return base

    def tile(self, start: int, out: np.ndarray, dims: slice) -> None:
        """Fill ``out`` with the uniforms of the first points of tile ``start`` in ``dims``.

        ``start`` is a multiple of 2^16 below 2^32, and ``out`` is a
        C-contiguous float array with one row per dim, of at most 2^16 points.
        """
        # the first 256 points are the low table XOR the tile's base; the
        # 256 2^k points from 256 2^k on are those before them XOR the
        # direction number of index bit 8 + k.  Each XOR runs along a row,
        # which cut a 2-dim tile from 2.2 to 1.2 ns per point against the
        # byte tables' outer XOR, whose rows are 256 long (2 cores)
        n = out.shape[1]
        bits = out.view(np.uint64)
        done = min(n, 256)
        np.bitwise_xor(self._bytes[0][dims, :done], self._base(start, dims)[:, None],
                       out=bits[:, :done])
        for k in range(_BYTE, 2 * _BYTE):
            if done == n:
                break
            size = min(done, n - done)
            np.bitwise_xor(bits[:, :size], self._words[dims, k, None], out=bits[:, done:done + size])
            done += size
        out -= 1.0
