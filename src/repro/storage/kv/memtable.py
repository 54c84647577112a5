"""The memtable: an in-memory buffer of recent writes.

Entries carry a sequence number and a kind (value or tombstone), like
RocksDB's internal keys; lookups return the newest entry at or below
the read snapshot.

The store is a hash map from user key to that key's versions in
ascending sequence order, sorted by key only when a flush or scan asks
for order.  Point reads and writes are the hot path and touch one
dict slot; sorting once per flush is cheaper than keeping an ordered
index (RocksDB's skiplist) up to date on every write.  Plain ``bytes``
ordering of the user keys, each key's versions newest-first, is the
(user_key ascending, sequence descending) order SSTables need.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["MemTable", "VALUE", "TOMBSTONE"]

VALUE = 0
TOMBSTONE = 1

_MAX_SEQ = (1 << 56) - 1


class MemTable:
    """User key -> [(sequence, kind, value), ...] with byte-size accounting."""

    def __init__(self) -> None:
        self._versions: Dict[bytes, List[Tuple[int, int, bytes]]] = {}
        self._size = 0
        self._bytes = 0
        self.entries = 0

    @property
    def approximate_bytes(self) -> int:
        """Rough memory footprint used for flush decisions."""
        return self._bytes

    def add(self, sequence: int, kind: int, user_key: bytes, value: bytes = b"") -> None:
        """Record a put (kind=VALUE) or delete (kind=TOMBSTONE).

        Adding an existing (key, sequence) pair replaces its entry.
        """
        if kind not in (VALUE, TOMBSTONE):
            raise ConfigurationError(f"unknown entry kind: {kind}")
        if not 0 <= sequence <= _MAX_SEQ:
            raise ConfigurationError(f"sequence out of range: {sequence}")
        if not isinstance(user_key, bytes):
            raise ConfigurationError(f"keys must be bytes, got {type(user_key).__name__}")
        entry = (sequence, kind, value)
        versions = self._versions.get(user_key)
        if versions is None:
            self._versions[user_key] = [entry]
            self._size += 1
        elif versions[-1][0] < sequence:
            versions.append(entry)
            self._size += 1
        else:
            index = len(versions)
            while index and versions[index - 1][0] > sequence:
                index -= 1
            if index and versions[index - 1][0] == sequence:
                versions[index - 1] = entry
            else:
                versions.insert(index, entry)
                self._size += 1
        self._bytes += len(user_key) + len(value) + 16
        self.entries += 1

    def get(self, user_key: bytes, snapshot: Optional[int] = None) -> "Optional[Tuple[int, bytes]]":
        """Newest (kind, value) visible at ``snapshot``, or None.

        ``None`` means the key is unknown here (check older tables);
        a TOMBSTONE result means it is known deleted.
        """
        if snapshot is None:
            versions = self._versions.get(user_key)
            if versions is None:
                return None
            _, kind, value = versions[-1]
            return kind, value
        if not 0 <= snapshot <= _MAX_SEQ:
            raise ConfigurationError(f"sequence out of range: {snapshot}")
        for sequence, kind, value in reversed(self._versions.get(user_key, ())):
            if sequence <= snapshot:
                return kind, value
        return None

    def __len__(self) -> int:
        return self._size

    def iterate(self) -> Iterator[Tuple[bytes, int, int, bytes]]:
        """Yield (user_key, sequence, kind, value), newest-first per key."""
        for user_key in sorted(self._versions):
            for sequence, kind, value in reversed(self._versions[user_key]):
                yield user_key, sequence, kind, value
