import errno

import pytest

from attnsum import corpus


class _FullDisk:
    """A file that takes `room` more bytes, then fails as a full disk does:
    the write that overflows stores what fits and raises ENOSPC."""

    def __init__(self, fh, room):
        self._fh = fh
        self._room = room

    def write(self, data):
        if len(data) > self._room:
            self._fh.write(data[:self._room])
            self._room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self._room -= len(data)
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __iter__(self):
        return iter(self._fh)

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture
def disk_full_after(monkeypatch):
    """disk_full_after(n): files that the package writes through
    corpus.atomic_open fail once n bytes are written."""

    def limit(room):
        monkeypatch.setattr(
            corpus, "open",
            lambda *args, **kwargs: _FullDisk(open(*args, **kwargs), room),
            raising=False)

    return limit
