"""Resident profile index: mmap'd ``.snpbin`` shards + an append tail.

The serving problem (ROADMAP item 1, PAPER.md's NDIS-scale FastID
scenario) keeps the packed database *resident* across requests instead
of re-reading and re-packing it per query set.  :class:`ProfileIndex`
holds the database as a sequence of immutable :class:`Segment` runs:

* **sealed segments** -- ``.snpbin`` shard files memory-mapped through
  :class:`repro.io_stream.format.PackedDatasetReader` (the OS pages
  them in on first touch and keeps hot shards cached);
* **tail segments** -- profiles appended online, frozen in memory one
  append at a time, sealed to a new shard file once ``shard_rows``
  accumulate (directory-backed indexes only).

Appends never repack existing shards: a new profile lands in the tail,
the tail eventually becomes one more shard file, and every previously
issued global row index stays valid -- rows are numbered in arrival
order, exactly like :meth:`StreamingIdentitySearch.add_batch` numbers
streamed batches, which is what keeps served top-k results bit-exact
against the offline path.

**Append barrier**: :meth:`ProfileIndex.append` returns only after the
new rows are visible to every later :meth:`snapshot`.  A query admitted
after ``append`` returned is therefore guaranteed to be scored against
the appended profiles; in-flight queries batched *before* the append
may or may not see them (their snapshot was already taken).

Reopening a directory-backed index scans ``*.snpbin`` in sorted
filename order; shards the index seals itself are named with a
monotonic sequence number so the scan order matches write order.  Let
the index own its directory (see :meth:`ProfileIndex.build`) rather
than mixing foreign files into it.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.errors import DatasetError
from repro.io_stream.format import PackedDatasetReader, write_snpbin
from repro.util.validation import check_binary_matrix

__all__ = ["Segment", "ProfileIndex"]


class Segment:
    """One immutable run of profile rows with a stable global base index.

    ``sid`` uniquely identifies the segment's *contents* within its
    index for the index's lifetime (sealing replaces tail segments with
    one shard segment under a fresh sid), so callers may cache derived
    artifacts -- packed operands, most importantly -- keyed by sid.
    """

    __slots__ = ("sid", "base", "n_rows", "n_bits", "_bits", "_words")

    def __init__(
        self,
        sid: int,
        base: int,
        n_rows: int,
        n_bits: int,
        bits: Callable[[], np.ndarray],
        words: Callable[[int], "np.ndarray | None"] | None = None,
    ) -> None:
        self.sid = sid
        self.base = base
        self.n_rows = n_rows
        self.n_bits = n_bits
        self._bits = bits
        self._words = words

    def bits(self) -> np.ndarray:
        """The segment's rows as an unpacked 0/1 ``uint8`` matrix."""
        return self._bits()

    def packed_words(self, word_bits: int) -> np.ndarray | None:
        """Packed words in ``pack_bits`` layout, or ``None``.

        Non-``None`` only when the backing store already holds words of
        the requested width (a ``.snpbin`` shard written with the
        serving device's word size) -- the zero-repack residency path.
        """
        if self._words is None:
            return None
        return self._words(word_bits)

    def __repr__(self) -> str:
        return (
            f"Segment(sid={self.sid}, base={self.base}, "
            f"n_rows={self.n_rows}, n_bits={self.n_bits})"
        )


def _shard_segment(sid: int, base: int, reader: PackedDatasetReader) -> Segment:
    def words(word_bits: int) -> np.ndarray | None:
        if reader.word_bits != word_bits:
            return None
        return reader.read_words(0, reader.n_rows)

    return Segment(
        sid=sid,
        base=base,
        n_rows=reader.n_rows,
        n_bits=reader.n_bits,
        bits=lambda: reader.read_bits(0, reader.n_rows),
        words=words,
    )


def _tail_segment(sid: int, base: int, block: np.ndarray) -> Segment:
    return Segment(
        sid=sid,
        base=base,
        n_rows=int(block.shape[0]),
        n_bits=int(block.shape[1]),
        bits=lambda: block,
    )


class ProfileIndex:
    """Thread-safe resident database: sealed shards plus an append tail.

    Parameters
    ----------
    directory:
        Shard directory.  ``None`` keeps everything in memory (tests,
        benches, ephemeral services); otherwise existing ``*.snpbin``
        files are opened (sorted filename order) and future seals land
        here.
    n_bits:
        Site count; required when the index starts empty, validated
        against the shards otherwise.
    shard_rows:
        Tail size that triggers an automatic :meth:`seal` (directory
        indexes only).
    word_bits:
        Word width for shards this index writes.  Match the serving
        device's word size (32 for the modeled GPUs) and the packed
        file bytes double as the resident operand without repacking.
    """

    def __init__(
        self,
        directory: "str | Path | None" = None,
        n_bits: int | None = None,
        shard_rows: int = 4096,
        word_bits: int = 64,
    ) -> None:
        if shard_rows <= 0:
            raise DatasetError(
                f"ProfileIndex: shard_rows must be positive, got {shard_rows}"
            )
        self.directory = Path(directory) if directory is not None else None
        self.shard_rows = shard_rows
        self.word_bits = word_bits
        self._lock = threading.Lock()
        self._readers: list[PackedDatasetReader] = []
        self._sealed: list[Segment] = []
        self._tail: list[Segment] = []
        self._tail_rows = 0
        self._next_sid = 0
        self._next_shard_seq = 0
        self._n_bits = n_bits
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            base = 0
            for path in sorted(self.directory.glob("*.snpbin")):
                reader = PackedDatasetReader(path)
                if self._n_bits is None:
                    self._n_bits = reader.n_bits
                elif reader.n_bits != self._n_bits:
                    raise DatasetError(
                        f"ProfileIndex: shard {path} covers {reader.n_bits} "
                        f"sites, index is {self._n_bits} sites wide"
                    )
                if reader.n_rows == 0:
                    reader.close()
                    continue
                self._readers.append(reader)
                self._sealed.append(
                    _shard_segment(self._next_sid, base, reader)
                )
                self._next_sid += 1
                base += reader.n_rows
            self._next_shard_seq = len(self._sealed)
        if self._n_bits is None:
            raise DatasetError(
                "ProfileIndex: n_bits is required for an empty index "
                "(no shards to infer it from)"
            )

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        directory: "str | Path",
        profiles: np.ndarray,
        shard_rows: int = 4096,
        word_bits: int = 64,
    ) -> "ProfileIndex":
        """Shard a profile matrix into ``directory`` and open the index."""
        arr = check_binary_matrix("ProfileIndex.build: profiles", profiles)
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if shard_rows <= 0:
            raise DatasetError(
                f"ProfileIndex.build: shard_rows must be positive, got {shard_rows}"
            )
        for seq, start in enumerate(range(0, arr.shape[0], shard_rows)):
            write_snpbin(
                directory / f"shard-{seq:06d}.snpbin",
                arr[start : start + shard_rows],
                word_bits=word_bits,
            )
        return cls(
            directory,
            n_bits=int(arr.shape[1]),
            shard_rows=shard_rows,
            word_bits=word_bits,
        )

    # -- introspection ---------------------------------------------------------

    @property
    def n_bits(self) -> int:
        assert self._n_bits is not None  # guaranteed by __init__
        return self._n_bits

    @property
    def n_rows(self) -> int:
        with self._lock:
            return self._row_count()

    @property
    def n_segments(self) -> int:
        with self._lock:
            return len(self._sealed) + len(self._tail)

    def _row_count(self) -> int:
        sealed = sum(s.n_rows for s in self._sealed)
        return sealed + self._tail_rows

    # -- mutation --------------------------------------------------------------

    def append(self, profiles: np.ndarray) -> tuple[int, int]:
        """Append profile rows; returns their global ``[start, stop)``.

        This is the **append barrier**: once ``append`` returns, every
        later :meth:`snapshot` includes the new rows, so any query
        admitted afterwards is scored against them.
        """
        arr = check_binary_matrix("ProfileIndex.append: profiles", profiles)
        if arr.shape[1] != self.n_bits:
            raise DatasetError(
                f"ProfileIndex.append: profiles cover {arr.shape[1]} sites, "
                f"index is {self.n_bits} sites wide"
            )
        if arr.shape[0] == 0:
            with self._lock:
                rows = self._row_count()
            return rows, rows
        block = np.ascontiguousarray(arr, dtype=np.uint8)
        block.setflags(write=False)
        with self._lock:
            start = self._row_count()
            self._tail.append(_tail_segment(self._next_sid, start, block))
            self._next_sid += 1
            self._tail_rows += int(block.shape[0])
            if self.directory is not None and self._tail_rows >= self.shard_rows:
                self._seal_locked()
            return start, start + int(block.shape[0])

    def seal(self) -> "Path | None":
        """Flush the tail to a new shard file (directory indexes only).

        Returns the new shard's path, or ``None`` when there is nothing
        to seal or the index is memory-only.  Global row indices are
        unaffected; only segment identities (sids) change, so cached
        per-segment artifacts are rebuilt once.
        """
        with self._lock:
            return self._seal_locked()

    def _seal_locked(self) -> "Path | None":
        if self.directory is None or not self._tail:
            return None
        base = self._tail[0].base
        block = np.vstack([seg.bits() for seg in self._tail])
        path = self.directory / f"shard-{self._next_shard_seq:06d}.snpbin"
        self._next_shard_seq += 1
        write_snpbin(path, block, word_bits=self.word_bits)
        reader = PackedDatasetReader(path)
        self._readers.append(reader)
        self._sealed.append(_shard_segment(self._next_sid, base, reader))
        self._next_sid += 1
        self._tail = []
        self._tail_rows = 0
        return path

    # -- reading ---------------------------------------------------------------

    def snapshot(self) -> tuple[Segment, ...]:
        """Immutable view of every segment, in global row order.

        Segments are immutable, so the snapshot stays valid (and
        consistent) however many appends or seals happen afterwards.
        """
        with self._lock:
            return tuple(self._sealed) + tuple(self._tail)

    def iter_bits(self, chunk_rows: int = 8192) -> Iterator[np.ndarray]:
        """Yield the whole database as unpacked chunks (offline oracle)."""
        if chunk_rows <= 0:
            raise DatasetError(
                f"ProfileIndex.iter_bits: chunk_rows must be positive, "
                f"got {chunk_rows}"
            )
        for seg in self.snapshot():
            bits = seg.bits()
            for start in range(0, seg.n_rows, chunk_rows):
                yield bits[start : start + chunk_rows]

    def close(self) -> None:
        """Release shard mappings (the index is unusable afterwards)."""
        with self._lock:
            for reader in self._readers:
                reader.close()
            self._readers = []
            self._sealed = []
            self._tail = []
            self._tail_rows = 0

    def __enter__(self) -> "ProfileIndex":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ProfileIndex(directory={str(self.directory)!r}, "
            f"n_rows={self.n_rows}, n_bits={self.n_bits}, "
            f"segments={self.n_segments})"
        )
