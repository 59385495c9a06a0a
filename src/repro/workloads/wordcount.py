"""Word Count (WC): the canonical MapReduce workload.

"Each Map task takes a part of the input and emits a ``<word, 1>``
pair for each word it sees.  Each Reduce task takes one distinct key
(word) and sums all the values sharing the same key" (Section IV-B).

Record shapes match Table II: input key = a text line (32.44 / 2.59
bytes), input value = a 4-byte line index; intermediate key = a word
(5.46 / 2.53), value = the 4-byte constant 1; Map emits ~5 words per
line, and the Zipf vocabulary yields the large (tens:1) Reduce ratio.
"""

from __future__ import annotations

import struct

import numpy as np

from ..framework.api import MapReduceSpec
from ..framework.columns import Column, ColumnBatch
from ..framework.records import KeyValueSet
from .base import ProblemSize, Workload
from .datagen import text_lines

ONE = (1).to_bytes(4, "little")


def wc_map(key, value, emit, const) -> None:
    """Emit ``(word, 1)`` for every word in the line (the key)."""
    line = key.to_bytes()
    for word in line.split(b" "):
        if word:
            emit(word, ONE)


def wc_map_batch(cols, *, const=None):
    """Vectorized Map: split the whole batch of lines with one scan.

    Joining the lines with the separator makes every line boundary a
    word boundary, so the words between separators are exactly those
    of :func:`wc_map`, line by line and in order.  One
    ``np.frombuffer(text) == 32`` scan finds the separators; the gaps
    between them are the word lengths, empty words (from leading,
    trailing or repeated spaces and empty lines) are dropped as there,
    and the text with its separators deleted is the words' blob — so
    the key column is blob-form and no word object is created.  Each
    word pairs with ``ONE``: no local combine, so the Reduce sees the
    same value lists as after the scalar Map.
    """
    text = b" ".join(cols.keys.tolist())
    seps = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == 32)
    lengths = np.diff(seps, prepend=-1, append=len(text)) - 1
    lengths = lengths[lengths > 0]
    return ColumnBatch(Column(text.translate(None, b" "), lengths),
                       Column.repeated(ONE, len(lengths)))


def wc_reduce(key, values, emit, const) -> None:
    """TR reduce: sum the occurrence counts of one word."""
    total = 0
    for v in values:
        total += v.u32()
    emit(key.to_bytes(), struct.pack("<I", total))


def wc_reduce_batch(keys, offsets, values, *, const=None):
    """Vectorized TR reduce: per-word ``reduceat`` count sums.

    The words are ragged, so the Shuffle groups them by representative
    (see :func:`~repro.framework.columns.sort_and_group`); the counts are
    fixed 4-byte values, so the sums vectorize.  A sum past ``u32``
    declines to the scalar path so ``struct.pack("<I", ...)`` raises
    the identical overflow error the scalar kernel always raised.
    """
    if values.fixed_width != 4:
        return None
    vals = values.fixed_array("<u4").reshape(-1).astype(np.int64)
    sums = np.add.reduceat(vals, offsets[:-1])
    if sums.size and int(sums.max()) > 0xFFFFFFFF:
        return None
    return ColumnBatch(keys, Column.from_array(sums.astype("<u4")))


def wc_combine(a: bytes, b: bytes) -> bytes:
    """BR combine: add two partial counts."""
    return struct.pack(
        "<I", (struct.unpack("<I", a)[0] + struct.unpack("<I", b)[0]) & 0xFFFFFFFF
    )


def wc_finalize(key: bytes, acc: bytes, count: int) -> tuple[bytes, bytes]:
    return key, acc


class WordCount(Workload):
    code = "WC"
    title = "Word Count"
    has_reduce = True

    def __init__(self, *, vocabulary_size: int = 512, zipf_s: float = 1.05):
        self.vocabulary_size = vocabulary_size
        self.zipf_s = zipf_s

    def spec(self) -> MapReduceSpec:
        return MapReduceSpec(
            name="wordcount",
            map_record=wc_map,
            map_batch=wc_map_batch,
            reduce_record=wc_reduce,
            reduce_batch=wc_reduce_batch,
            combine=wc_combine,
            finalize=wc_finalize,
            io_ratio=0.25,  # WC is output-heavy: favour the output area
            cycles_per_record=24.0,
            cycles_per_access=6.0,
            out_bytes_factor=4.0,
            out_records_factor=16.0,
        )

    def sizes(self) -> dict[str, ProblemSize]:
        # Paper: 16 / 32 / 64 MB documents; scaled ~256x down.
        return {
            "small": ProblemSize("small", 64 * 1024, "16MB"),
            "medium": ProblemSize("medium", 128 * 1024, "32MB"),
            "large": ProblemSize("large", 256 * 1024, "64MB"),
        }

    def generate(self, size: str = "small", *, seed: int = 0, scale: float = 1.0
                 ) -> KeyValueSet:
        nbytes = self.size_value(size, scale)
        lines = text_lines(
            nbytes,
            seed=seed,
            vocabulary_size=self.vocabulary_size,
            zipf_s=self.zipf_s,
        )
        out = KeyValueSet()
        for i, line in enumerate(lines):
            out.append(line, struct.pack("<I", i))
        return out
