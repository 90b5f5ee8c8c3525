"""Persistent hash table (static hashing with overflow chains).

DeepLens supports "hash tables ... over any key" (Section 3.2) for equality
lookups on discrete metadata — labels, OCR tokens, video ids. This is the
disk structure behind :class:`repro.indexes.hash_index.HashIndex`: a fixed
power-of-two bucket directory where each bucket is a chain of pages holding
``(key, value)`` entries. It is a multimap: one key may map to many patch
identifiers.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Iterator

from repro.errors import StorageError
from repro.storage.kvstore import serialization
from repro.storage.kvstore.pager import Pager

_NO_PAGE = 0


def _hash_key(key_bytes: bytes) -> int:
    # crc32 is stable across processes (unlike hash()) and fast enough;
    # bucket selection only needs uniformity, not cryptographic strength.
    return zlib.crc32(key_bytes)


class HashFile:
    """A named persistent hash multimap inside a :class:`Pager`.

    Each bucket page stores ``serialization.dumps([next_page, entries])``
    where ``entries`` is a list of ``(key_bytes, value_bytes)`` pairs; pages
    chain through ``next_page`` when a bucket overflows.
    """

    def __init__(self, pager: Pager, name: str = "hash", n_buckets: int = 256) -> None:
        if n_buckets < 1 or n_buckets & (n_buckets - 1):
            raise StorageError(f"n_buckets must be a power of two, got {n_buckets}")
        self.pager = pager
        self.name = name
        self._meta_key = f"hash:{name}"
        meta = pager.get_meta()
        state = meta.get(self._meta_key)
        if state is None:
            self.n_buckets = n_buckets
            self.clear()
        else:
            self.n_buckets = state["n_buckets"]
            self._count = state["count"]
            self._dir_pages = list(state["dir_pages"])
            self._directory = self._read_directory()
        self._state_dirty = False
        pager.register_sync_hook(self._save_state)

    def __len__(self) -> int:
        return self._count

    def put(self, key: Any, value: bytes) -> None:
        """Insert one ``key -> value`` entry (duplicates accumulate)."""
        if not isinstance(value, (bytes, bytearray)):
            raise StorageError(
                f"hash values must be bytes, got {type(value).__name__}"
            )
        key_bytes = serialization.encode_key(key)
        entry_size = len(key_bytes) + len(value)
        if entry_size > self.pager.capacity // 2:
            raise StorageError(
                f"hash entry of {entry_size} bytes exceeds half a page; "
                f"store the payload in a BlobHeap"
            )
        page_id = self._bucket_for(key_bytes)
        # Append into the first page of the chain with room; otherwise grow
        # the chain with a fresh head so hot buckets stay one seek deep.
        next_page, entries = self._read_bucket(page_id)
        entries.append((key_bytes, bytes(value)))
        if self._bucket_fits(next_page, entries):
            self._write_bucket(page_id, next_page, entries)
        else:
            entries.pop()
            overflow = self.pager.allocate()
            self._write_bucket(overflow, next_page, entries)
            self._write_bucket(page_id, overflow, [(key_bytes, bytes(value))])
        self._count += 1
        self._state_dirty = True

    def get(self, key: Any) -> list[bytes]:
        """Return every value stored under ``key`` (empty list if none)."""
        key_bytes = serialization.encode_key(key)
        out: list[bytes] = []
        page_id = self._bucket_for(key_bytes)
        while page_id != _NO_PAGE:
            next_page, entries = self._read_bucket(page_id)
            out.extend(value for k, value in entries if k == key_bytes)
            page_id = next_page
        return out

    def contains(self, key: Any) -> bool:
        return bool(self.get(key))

    def delete(self, key: Any, value: bytes | None = None) -> int:
        """Remove entries under ``key`` (all, or only those equal to ``value``)."""
        key_bytes = serialization.encode_key(key)
        removed = 0
        page_id = self._bucket_for(key_bytes)
        while page_id != _NO_PAGE:
            next_page, entries = self._read_bucket(page_id)
            kept = [
                (k, v)
                for k, v in entries
                if not (k == key_bytes and (value is None or v == value))
            ]
            if len(kept) != len(entries):
                removed += len(entries) - len(kept)
                self._write_bucket(page_id, next_page, kept)
            page_id = next_page
        self._count -= removed
        self._state_dirty = True
        return removed

    def items(self) -> Iterator[tuple[Any, bytes]]:
        """Yield every ``(key, value)`` pair (bucket order, not key order)."""
        for head in self._directory:
            page_id = head
            while page_id != _NO_PAGE:
                next_page, entries = self._read_bucket(page_id)
                for key_bytes, value in entries:
                    yield serialization.decode_key(key_bytes), value
                page_id = next_page

    def clear(self) -> None:
        """Drop every entry (old pages are leaked until compaction)."""
        self._directory = [self.pager.allocate() for _ in range(self.n_buckets)]
        for page_id in self._directory:
            self._write_bucket(page_id, _NO_PAGE, [])
        self._count = 0
        self._dir_pages = self._write_directory()
        self._state_dirty = True
        self._save_state()

    def sync(self) -> None:
        self._save_state()
        self.pager.sync()

    # -- internals ----------------------------------------------------------

    def _bucket_for(self, key_bytes: bytes) -> int:
        return self._directory[_hash_key(key_bytes) & (self.n_buckets - 1)]

    def _read_bucket(self, page_id: int) -> tuple[int, list[tuple[bytes, bytes]]]:
        image = bytes(self.pager.read(page_id))
        (length,) = struct.unpack_from(">I", image, 0)
        if length == 0:
            return _NO_PAGE, []
        payload = serialization.loads(image[4 : 4 + length])
        return payload[0], [(k, v) for k, v in payload[1]]

    def _write_bucket(
        self, page_id: int, next_page: int, entries: list[tuple[bytes, bytes]]
    ) -> None:
        payload = serialization.dumps(
            [next_page, [list(e) for e in entries]], compress_arrays=False
        )
        image = bytearray(4 + len(payload))
        struct.pack_into(">I", image, 0, len(payload))
        image[4:] = payload
        self.pager.write(page_id, bytes(image))

    def _bucket_fits(self, next_page: int, entries: list[tuple[bytes, bytes]]) -> bool:
        payload = serialization.dumps(
            [next_page, [list(e) for e in entries]], compress_arrays=False
        )
        return 4 + len(payload) <= self.pager.capacity

    def _save_state(self) -> None:
        if not getattr(self, "_state_dirty", True):
            return
        meta = self.pager.get_meta()
        meta[self._meta_key] = {
            "n_buckets": self.n_buckets,
            "count": self._count,
            "dir_pages": list(self._dir_pages),
        }
        self.pager.set_meta(meta)
        self._state_dirty = False

    # The bucket directory can be arbitrarily large, so it lives in its
    # own chain of pages rather than the (single-page) metadata dict.
    _DIR_SLOTS = 400  # 8-byte ids with serialization overhead per 4K page

    def _write_directory(self) -> list[int]:
        pages = []
        for start in range(0, len(self._directory), self._DIR_SLOTS):
            chunk = self._directory[start : start + self._DIR_SLOTS]
            page_id = self.pager.allocate()
            payload = serialization.dumps(list(chunk), compress_arrays=False)
            image = bytearray(4 + len(payload))
            struct.pack_into(">I", image, 0, len(payload))
            image[4:] = payload
            self.pager.write(page_id, bytes(image))
            pages.append(page_id)
        return pages

    def _read_directory(self) -> list[int]:
        out: list[int] = []
        for page_id in self._dir_pages:
            image = bytes(self.pager.read(page_id))
            (length,) = struct.unpack_from(">I", image, 0)
            out.extend(serialization.loads(image[4 : 4 + length]))
        return out
