"""Columnar view of a batch of text values for the rule kernels.

``TextBatch`` holds the values as one Arrow string array. The rules'
columnar kernels work on its ASCII rows through byte look-up tables and
a token table (each value's tokens as int ids into the batch's token
vocabulary), both built once and shared by every rule that reads them;
non-ASCII rows and nulls go through each rule's scalar definition
(``TextBatch.per_ascii``). This is the move of *Accelerating Python UDFs in
Vectorized Query Execution* (CIDR'22): the per-value semantics stay, the
per-row interpreter loop goes.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Python's str.isspace over ASCII: \t \n \x0b \x0c \r \x1c-\x1f and space
IS_SPACE = np.array([chr(b).isspace() for b in range(256)])
IS_ALNUM = np.array([chr(b).isascii() and chr(b).isalnum() for b in range(256)])


def byte_lut(table: np.ndarray) -> bytes:
    """A 256-entry table as a ``bytes.translate`` table."""
    return np.asarray(table, dtype=np.uint8).tobytes()


def segment_sums(x: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Per segment ``[off[i], off[i+1])`` of a small-int array, its sum
    (0 for an empty segment)."""
    out = np.zeros(len(off) - 1, dtype=np.int64)
    full = np.flatnonzero(off[1:] > off[:-1])
    if len(full):
        out[full] = np.add.reduceat(x, off[full], dtype=np.int64)
    return out


# ``lower().split()`` tokens: ASCII-lower, every Python space to ' ' (Arrow's
# ascii_split_whitespace does not split on \x1c-\x1f)
_word = np.where(IS_SPACE, 32, np.arange(256))
_word[65:91] += 32
WORD_LUT = byte_lut(_word)
# letter-run tokens (``[^\W\d_]+`` over ASCII is [A-Za-z]+), lower-cased
_letter = np.full(256, 32)
_letter[97:123] = _letter[65:91] = np.arange(97, 123)
LETTER_LUT = byte_lut(_letter)


def to_arrow(values) -> pa.StringArray:
    """Values (Arrow array/chunked array, numpy object array or list of
    str/None) as one Arrow string array."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if isinstance(values, pa.Array):
        return values.cast(pa.string()) if values.type != pa.string() else values
    return pa.array(np.asarray(values, dtype=object), type=pa.string(), from_pandas=True)


class TokenTable:
    """Tokens of every row of a batch: ``ids`` (int into ``vocab``) in row
    order, ``counts`` per row (0 for rows the table does not cover)."""

    def __init__(self, vocab: pa.Array, ids: np.ndarray, counts: np.ndarray):
        self.vocab, self.ids, self.counts = vocab, ids, counts

    @cached_property
    def parent(self) -> np.ndarray:
        """Row of each token."""
        return np.repeat(np.arange(len(self.counts)), self.counts)

    @cached_property
    def position(self) -> np.ndarray:
        """Position of each token within its row."""
        starts = np.cumsum(self.counts) - self.counts
        return np.arange(len(self.ids)) - np.repeat(starts, self.counts)

    def take(self, rows: np.ndarray) -> "TokenTable":
        counts = self.counts[rows]
        starts = (np.cumsum(self.counts) - self.counts)[rows]
        new_starts = np.cumsum(counts) - counts
        gather = np.arange(counts.sum()) + np.repeat(starts - new_starts, counts)
        return TokenTable(self.vocab, self.ids[gather], counts)

    def vocab_mask(self, words) -> np.ndarray:
        """Per token: is it one of ``words``."""
        hit = pc.is_in(self.vocab, value_set=pa.array(sorted(words), type=pa.string()))
        return hit.to_numpy(zero_copy_only=False)[self.ids]

    def per_row_sum(self, tok_mask: np.ndarray) -> np.ndarray:
        return np.bincount(self.parent[tok_mask], minlength=len(self.counts))


class TextBatch:
    """The values of one batch as Arrow, with the byte and token tables of
    its ASCII rows built on first use. ``take`` gives a view of some rows
    whose token tables index into this batch's (built once per batch)."""

    def __init__(self, arr: pa.StringArray, base: "TextBatch | None" = None,
                 rows: np.ndarray | None = None):
        self.arr = arr
        self._base, self._rows = base, rows

    @classmethod
    def of(cls, values) -> "TextBatch":
        return values if isinstance(values, TextBatch) else cls(to_arrow(values))

    def __len__(self) -> int:
        return len(self.arr)

    def take(self, rows: np.ndarray) -> "TextBatch":
        return TextBatch(self.arr.take(rows), self, rows)

    @cached_property
    def values(self) -> np.ndarray:
        """Object array of str/None."""
        return self.arr.to_numpy(zero_copy_only=False)

    @staticmethod
    def _buffers(a: pa.StringArray) -> tuple[np.ndarray, np.ndarray]:
        off = np.frombuffer(a.buffers()[1], dtype=np.int32)[a.offset: a.offset + len(a) + 1]
        data = a.buffers()[2]
        data = np.frombuffer(data, dtype=np.uint8) if data is not None else np.zeros(0, np.uint8)
        return data[off[0]: off[-1]], (off - off[0]).astype(np.int64)

    @cached_property
    def ascii(self) -> np.ndarray:
        """Non-null ASCII rows."""
        data, off = self._buffers(self.arr)
        out = self.arr.is_valid().to_numpy(zero_copy_only=False)
        if len(data) and data.max() >= 128:
            out &= segment_sums((data >= 128).view(np.uint8), off) == 0
        return out

    @cached_property
    def codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Bytes of the ASCII rows (uint8) and their int64 offsets."""
        a = self.arr if self.ascii.all() else self.arr.filter(pa.array(self.ascii))
        return self._buffers(a)

    def byte_counts(self, lut: bytes) -> np.ndarray:
        """Per ASCII row: how many of its bytes map to 1 under ``lut``
        (a 256-byte 0/1 table, ``byte_lut``)."""
        data, off = self.codes
        return segment_sums(np.frombuffer(data.tobytes().translate(lut), dtype=np.uint8), off)

    def _split(self, lut: np.ndarray) -> TokenTable:
        """Whitespace tokens of the ASCII rows after mapping their bytes
        through ``lut``; rows outside the ASCII set get no tokens."""
        data, off = self.codes
        n_ascii = len(off) - 1
        mapped = pa.StringArray.from_buffers(
            n_ascii, pa.py_buffer(off.astype(np.int32)), pa.py_buffer(data.tobytes().translate(lut)))
        lists = pc.ascii_split_whitespace(mapped)
        flat = pc.list_flatten(lists)
        # Arrow keeps an empty token at each leading/trailing space run
        keep = pc.greater(pc.binary_length(flat), 0)
        parent = pc.list_parent_indices(lists).to_numpy()[keep.to_numpy(zero_copy_only=False)]
        enc = pc.dictionary_encode(flat.filter(keep))
        counts = np.zeros(len(self), dtype=np.int64)
        counts[np.flatnonzero(self.ascii)] = np.bincount(parent, minlength=n_ascii)
        return TokenTable(enc.dictionary, enc.indices.to_numpy(), counts)

    @cached_property
    def words(self) -> TokenTable:
        """``v.lower().split()`` tokens of the ASCII rows."""
        if self._base is not None:
            return self._base.words.take(self._rows)
        return self._split(WORD_LUT)

    @cached_property
    def letters(self) -> TokenTable:
        """Lower-cased letter runs (``[^\\W\\d_]+``) of the ASCII rows."""
        if self._base is not None:
            return self._base.letters.take(self._rows)
        return self._split(LETTER_LUT)

    def per_ascii(self, ascii_result: np.ndarray, one, dtype=bool) -> np.ndarray:
        """Scatter a result over the ASCII rows; the other rows (nulls,
        non-ASCII) get ``one(value)``, once per distinct value."""
        out = np.zeros(len(self), dtype=dtype)
        out[self.ascii] = ascii_result
        memo: dict = {}
        vals = self.values
        for i in np.flatnonzero(~self.ascii):
            v = vals[i]
            if v not in memo:
                memo[v] = one(v)
            out[i] = memo[v]
        return out
