"""Shared-memory race detection (GRace-style happened-before).

Each warp of a block carries a vector clock; happened-before edges
come from the block barrier (``__syncthreads()``), from shared-memory
atomics, and from the flag words the collector declares as *sync
words* (its control area).  Two accesses to the same shared-memory
byte race when at least one is a write and neither is ordered before
the other.

Granularity is the 4-byte word with a per-byte mask, so the staging
copies' unaligned chunk boundaries do not alias into false sharing.
The simulator's shared memory is sequentially consistent (reads
always observe the latest write), so treating a plain write to a sync
word as a *release* and a plain read as an *acquire* is sound: the
protocols only ever publish data by writing a flag the consumer
spins on.
"""

from __future__ import annotations

from .report import Finding

_FULL = 0xF  # all four bytes of a word


def _words(off: int, nbytes: int):
    """Yield ``(word_index, byte_mask)`` covering ``[off, off+nbytes)``."""
    if nbytes <= 0:
        return
    first = off >> 2
    last = (off + nbytes - 1) >> 2
    if first == last:
        mask = (((1 << nbytes) - 1) << (off & 3)) & _FULL
        yield first, mask
        return
    head = off & 3
    yield first, (_FULL >> head) << head & _FULL
    for w in range(first + 1, last):
        yield w, _FULL
    yield last, (1 << (((off + nbytes - 1) & 3) + 1)) - 1


class _BlockRaces:
    """Per-block vector clocks and last-access tables."""

    __slots__ = ("n_warps", "vcs", "tokens", "sync_words",
                 "writes", "reads", "retired")

    def __init__(self, n_warps: int):
        self.n_warps = n_warps
        self.vcs = [[0] * n_warps for _ in range(n_warps)]
        for w in range(n_warps):
            self.vcs[w][w] = 1
        #: Release tokens per sync word (the VC its last releaser held).
        self.tokens: dict[int, list[int]] = {}
        self.sync_words: set[int] = set()
        #: word -> {warp: [clock per byte]} of this epoch's accesses.
        #: Per-byte clocks, not (clock, mask): a warp may touch
        #: different bytes of one word at different clocks (unaligned
        #: records straddle words), and merging them under the latest
        #: clock would claim old bytes were written later than they
        #: were — a false race against a warp that synchronised with
        #: the old write but not the new one.
        self.writes: dict[int, dict[int, list[int]]] = {}
        self.reads: dict[int, dict[int, list[int]]] = {}
        #: Clock merged from retired warps (a dead warp's writes are
        #: ordered before everything a barrier releases afterwards).
        self.retired = [0] * n_warps


class RaceDetector:
    """Vector-clock race detector over one launch's blocks."""

    def __init__(self, report, config):
        self.report = report
        self.max_findings = config.max_findings
        self.blocks: dict[int, _BlockRaces] = {}
        self._seen: set[tuple] = set()

    # -- lifecycle -----------------------------------------------------

    def block_started(self, block_id: int, n_warps: int) -> None:
        self.blocks[block_id] = _BlockRaces(n_warps)

    def declare_sync(self, block_id: int, off: int, nbytes: int) -> None:
        st = self.blocks.get(block_id)
        if st is None:
            return
        for word, _ in _words(off, nbytes):
            st.sync_words.add(word)
            # Forget accesses recorded before the range was declared
            # (e.g. the zeroing writes of init_collector).
            st.writes.pop(word, None)
            st.reads.pop(word, None)

    # -- access hooks --------------------------------------------------

    @staticmethod
    def _conflicts(mask: int, clocks: list[int], limit: int) -> bool:
        """Does any byte under ``mask`` carry a clock not ordered
        before us (``> limit``)?"""
        for b in range(4):
            if (mask >> b) & 1 and clocks[b] > limit:
                return True
        return False

    @staticmethod
    def _stamp(table: dict, warp: int, mask: int, clock: int) -> None:
        entry = table.get(warp)
        if entry is None:
            entry = table[warp] = [0, 0, 0, 0]
        for b in range(4):
            if (mask >> b) & 1:
                entry[b] = clock

    def on_read(self, block_id: int, warp: int, off: int, nbytes: int) -> None:
        st = self.blocks.get(block_id)
        if st is None or warp >= st.n_warps:
            return
        vc = st.vcs[warp]
        for word, mask in _words(off, nbytes):
            if word in st.sync_words:
                tok = st.tokens.get(word)
                if tok is not None:  # acquire
                    for i, v in enumerate(tok):
                        if v > vc[i]:
                            vc[i] = v
                continue
            writes = st.writes.get(word)
            if writes:
                for ow, oclocks in writes.items():
                    if ow != warp and self._conflicts(mask, oclocks, vc[ow]):
                        self._record("read-write-race", block_id, word,
                                     warp, ow)
            self._stamp(st.reads.setdefault(word, {}), warp, mask, vc[warp])

    def on_write(self, block_id: int, warp: int, off: int, nbytes: int) -> None:
        st = self.blocks.get(block_id)
        if st is None or warp >= st.n_warps:
            return
        vc = st.vcs[warp]
        for word, mask in _words(off, nbytes):
            if word in st.sync_words:
                self._release(st, warp, word)
                continue
            writes = st.writes.setdefault(word, {})
            for ow, oclocks in writes.items():
                if ow != warp and self._conflicts(mask, oclocks, vc[ow]):
                    self._record("write-write-race", block_id, word, warp, ow)
            reads = st.reads.get(word)
            if reads:
                for ow, oclocks in reads.items():
                    if ow != warp and self._conflicts(mask, oclocks, vc[ow]):
                        self._record("read-write-race", block_id, word,
                                     warp, ow)
            self._stamp(writes, warp, mask, vc[warp])

    def on_atomic(self, block_id: int, warp: int, off: int) -> None:
        """A shared-memory RMW: acquire + release on that word."""
        st = self.blocks.get(block_id)
        if st is None or warp >= st.n_warps:
            return
        word = off >> 2
        vc = st.vcs[warp]
        tok = st.tokens.get(word)
        if tok is not None:
            for i, v in enumerate(tok):
                if v > vc[i]:
                    vc[i] = v
        self._release(st, warp, word)

    # -- HB edges from the engine --------------------------------------

    def barrier_release(self, block_id: int, warp_ids) -> None:
        st = self.blocks.get(block_id)
        if st is None:
            return
        merged = list(st.retired)
        for w in warp_ids:
            for i, v in enumerate(st.vcs[w]):
                if v > merged[i]:
                    merged[i] = v
        for w in warp_ids:
            vc = list(merged)
            vc[w] += 1
            st.vcs[w] = vc
        # The epoch boundary: accesses before the barrier can no
        # longer race with anything after it, so drop the tables.
        st.writes.clear()
        st.reads.clear()

    def warp_retired(self, block_id: int, warp: int) -> None:
        st = self.blocks.get(block_id)
        if st is None:
            return
        for i, v in enumerate(st.vcs[warp]):
            if v > st.retired[i]:
                st.retired[i] = v

    # -- reporting -----------------------------------------------------

    def _release(self, st: _BlockRaces, warp: int, word: int) -> None:
        vc = st.vcs[warp]
        tok = st.tokens.get(word)
        if tok is None:
            st.tokens[word] = list(vc)
        else:
            for i, v in enumerate(vc):
                if v > tok[i]:
                    tok[i] = v
        vc[warp] += 1

    def _record(self, kind: str, block_id: int, word: int,
                warp_a: int, warp_b: int) -> None:
        lo, hi = sorted((warp_a, warp_b))
        key = (kind, block_id, word, lo, hi)
        if key in self._seen:
            return
        self._seen.add(key)
        self.report.count("race_conflicts")
        self.report.add(Finding(
            detector="race",
            kind=kind,
            message=(f"warps {lo} and {hi} access shared word at offset "
                     f"{word * 4} without a happened-before edge"),
            block=block_id,
            warp=warp_a,
            details={"offset": word * 4, "other_warp": warp_b},
        ), self.max_findings)
