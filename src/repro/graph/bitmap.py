"""Fixed-size bitmaps backed by ``uint64`` words.

The paper (Section IV, citing Agarwal et al. [16]) stores the current
queue of the bottom-up sweep as a bitmap so the membership test
``u in CQ`` is one load plus one mask.  This module provides that data
structure for the vectorized kernels in :mod:`repro.bfs`: a dense bitset
over vertex ids ``0..n-1`` with word-level NumPy operations, plus
conversions to and from sparse index arrays.

All mutating operations are in-place on the word array (the hpc guides'
"in place operations / views not copies" idiom); nothing here allocates
proportional to the number of set bits except :meth:`Bitmap.nonzero`.
"""

from __future__ import annotations

import sys
from typing import Iterator

import numpy as np

from repro.errors import GraphError

__all__ = ["Bitmap", "WORD_BITS"]

#: Number of bits per storage word.
WORD_BITS = 64

_WORD_SHIFT = 6  # log2(WORD_BITS)
_WORD_MASK = WORD_BITS - 1

# The byte-view fast path of test_many assumes bit i of word w lives in
# byte w*8 + i//8, which holds only for little-endian word storage.
_LITTLE_ENDIAN = sys.byteorder == "little"


class Bitmap:
    """A dense bitset over the integers ``[0, size)``.

    Parameters
    ----------
    size:
        Number of addressable bits.  Must be non-negative.
    words:
        Optional pre-existing word array to wrap (shared, not copied).
        Must be ``uint64`` of length ``ceil(size / 64)``.

    Notes
    -----
    Bits beyond ``size`` in the final word are kept at zero by every
    public operation; :meth:`count` and :meth:`nonzero` rely on that
    invariant.
    """

    __slots__ = ("size", "words")

    def __init__(self, size: int, words: np.ndarray | None = None) -> None:
        if size < 0:
            raise GraphError(f"bitmap size must be non-negative, got {size}")
        self.size = int(size)
        nwords = (self.size + WORD_BITS - 1) >> _WORD_SHIFT
        if words is None:
            self.words = np.zeros(nwords, dtype=np.uint64)
        else:
            if words.dtype != np.uint64 or words.shape != (nwords,):
                raise GraphError(
                    f"expected uint64 word array of length {nwords}, "
                    f"got dtype={words.dtype} shape={words.shape}"
                )
            self.words = words

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_indices(cls, size: int, indices: np.ndarray) -> "Bitmap":
        """Build a bitmap with the given bit positions set.

        ``indices`` may contain duplicates; out-of-range indices raise
        :class:`~repro.errors.GraphError`.
        """
        bm = cls(size)
        bm.set_many(indices)
        return bm

    @classmethod
    def from_bool(cls, mask: np.ndarray) -> "Bitmap":
        """Build a bitmap from a boolean vector (one bit per element)."""
        if mask.dtype != np.bool_:
            mask = mask.astype(bool)
        bm = cls(mask.shape[0])
        idx = np.nonzero(mask)[0]
        bm.set_many(idx)
        return bm

    @classmethod
    def full(cls, size: int) -> "Bitmap":
        """Build a bitmap with every bit in ``[0, size)`` set."""
        bm = cls(size)
        bm.words.fill(np.uint64(0xFFFFFFFFFFFFFFFF))
        bm._trim()
        return bm

    # -- invariants -----------------------------------------------------

    def _trim(self) -> None:
        """Zero the slack bits of the final word."""
        rem = self.size & _WORD_MASK
        if rem and self.words.size:
            keep = (np.uint64(1) << np.uint64(rem)) - np.uint64(1)
            self.words[-1] &= keep

    def _check_indices(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        if indices.size == 0:
            return indices.astype(np.int64)
        if indices.min() < 0 or indices.max() >= self.size:
            raise GraphError(
                f"bit index out of range for bitmap of size {self.size}"
            )
        return indices.astype(np.int64, copy=False)

    # -- single-bit operations -------------------------------------------

    def set(self, i: int) -> None:
        """Set bit ``i``."""
        if not 0 <= i < self.size:
            raise GraphError(f"bit index {i} out of range [0, {self.size})")
        self.words[i >> _WORD_SHIFT] |= np.uint64(1) << np.uint64(i & _WORD_MASK)

    def clear(self, i: int) -> None:
        """Clear bit ``i``."""
        if not 0 <= i < self.size:
            raise GraphError(f"bit index {i} out of range [0, {self.size})")
        self.words[i >> _WORD_SHIFT] &= ~(np.uint64(1) << np.uint64(i & _WORD_MASK))

    def test(self, i: int) -> bool:
        """Return whether bit ``i`` is set."""
        if not 0 <= i < self.size:
            raise GraphError(f"bit index {i} out of range [0, {self.size})")
        word = self.words[i >> _WORD_SHIFT]
        return bool((word >> np.uint64(i & _WORD_MASK)) & np.uint64(1))

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.size and self.test(i)

    # -- bulk operations --------------------------------------------------

    def set_many(self, indices: np.ndarray) -> None:
        """Set every bit listed in ``indices`` (duplicates allowed).

        Each word's bits are OR-ed by one ``bitwise_or.reduceat`` over
        the run of indices that fall in it, so unsorted input is sorted
        first; BFS frontiers arrive ascending and skip the sort.
        """
        indices = self._check_indices(indices)
        if indices.size == 0:
            return
        if (indices[1:] < indices[:-1]).any():
            indices = np.sort(indices)
        word_idx = indices >> _WORD_SHIFT
        bit = np.uint64(1) << (indices & _WORD_MASK).astype(np.uint64)
        heads = np.flatnonzero(
            np.concatenate(([True], word_idx[1:] != word_idx[:-1]))
        )
        self.words[word_idx[heads]] |= np.bitwise_or.reduceat(bit, heads)

    def clear_many(self, indices: np.ndarray) -> None:
        """Clear every bit listed in ``indices``."""
        indices = self._check_indices(indices)
        if indices.size == 0:
            return
        word_idx = indices >> _WORD_SHIFT
        bit = np.uint64(1) << (indices & _WORD_MASK).astype(np.uint64)
        np.bitwise_and.at(self.words, word_idx, ~bit)

    def test_many(
        self, indices: np.ndarray, *, checked: bool = True
    ) -> np.ndarray:
        """Vectorized membership test; returns a boolean array.

        With ``checked=False`` the range validation (two reductions over
        ``indices``) is skipped — the fast path for kernels that test
        indices already known to be valid vertex ids (e.g. CSR targets).
        Out-of-range indices are undefined behavior on that path.
        """
        if checked:
            indices = self._check_indices(indices)
        else:
            indices = np.asarray(indices)
        if indices.size == 0:
            return np.zeros(0, dtype=bool)
        if _LITTLE_ENDIAN:
            # Byte-granular probe: narrower gather and uint8 arithmetic
            # beat the uint64 word path on every level-sized input.
            byte = self.words.view(np.uint8)[indices >> 3]
            byte >>= (indices & 7).astype(np.uint8)
            byte &= np.uint8(1)
            return byte.view(bool)
        word = self.words[indices >> _WORD_SHIFT]
        shift = (indices & _WORD_MASK).astype(np.uint64)
        return ((word >> shift) & np.uint64(1)).astype(bool)

    def zero_words_of(self, indices: np.ndarray) -> None:
        """Zero every storage word containing a listed bit.

        Clears the bitmap in ``O(len(indices))`` when the set bits are
        known (the workspace's frontier-clear path) instead of ``O(V /
        64)`` for a full :meth:`reset`.  Collateral bits in the touched
        words are cleared too, so this is only correct when ``indices``
        covers every set bit — which is exactly the frontier-reload
        invariant.
        """
        indices = np.asarray(indices)
        if indices.size:
            self.words[indices >> _WORD_SHIFT] = 0

    def fill(self) -> None:
        """Set every bit."""
        self.words.fill(np.uint64(0xFFFFFFFFFFFFFFFF))
        self._trim()

    def reset(self) -> None:
        """Clear every bit (in place)."""
        self.words.fill(0)

    # -- set algebra (in place, returning self for chaining) ---------------

    def _check_peer(self, other: "Bitmap") -> None:
        if self.size != other.size:
            raise GraphError(
                f"bitmap size mismatch: {self.size} vs {other.size}"
            )

    def ior(self, other: "Bitmap") -> "Bitmap":
        """In-place union."""
        self._check_peer(other)
        np.bitwise_or(self.words, other.words, out=self.words)
        return self

    def iand(self, other: "Bitmap") -> "Bitmap":
        """In-place intersection."""
        self._check_peer(other)
        np.bitwise_and(self.words, other.words, out=self.words)
        return self

    def iandnot(self, other: "Bitmap") -> "Bitmap":
        """In-place difference ``self &= ~other``."""
        self._check_peer(other)
        np.bitwise_and(self.words, np.bitwise_not(other.words), out=self.words)
        return self

    def invert(self) -> "Bitmap":
        """In-place complement within ``[0, size)``."""
        np.bitwise_not(self.words, out=self.words)
        self._trim()
        return self

    def __or__(self, other: "Bitmap") -> "Bitmap":
        return self.copy().ior(other)

    def __and__(self, other: "Bitmap") -> "Bitmap":
        return self.copy().iand(other)

    # -- queries -----------------------------------------------------------

    def count(self) -> int:
        """Number of set bits (population count)."""
        return int(np.bitwise_count(self.words).sum())

    def any(self) -> bool:
        """Whether at least one bit is set."""
        return bool(self.words.any())

    def nonzero(self) -> np.ndarray:
        """Indices of set bits, ascending, as ``int64``."""
        return np.nonzero(self.to_bool())[0].astype(np.int64)

    def to_bool(self) -> np.ndarray:
        """Expand to a boolean vector of length ``size``."""
        if self.size == 0:
            return np.zeros(0, dtype=bool)
        bits = np.unpackbits(
            self.words.view(np.uint8), bitorder="little"
        )
        return bits[: self.size].astype(bool)

    def copy(self) -> "Bitmap":
        """Deep copy."""
        return Bitmap(self.size, self.words.copy())

    def nbytes(self) -> int:
        """Bytes of backing storage — the quantity the cost model charges."""
        return int(self.words.nbytes)

    # -- dunder -------------------------------------------------------------

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.size == other.size and bool(
            np.array_equal(self.words, other.words)
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self.nonzero().tolist())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Bitmap(size={self.size}, count={self.count()})"
