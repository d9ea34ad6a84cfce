"""Pseudo-filesystem plumbing for the dproc /proc interface.

A minimal in-memory procfs: directories are implicit, files are
callback-backed (reads compute fresh content; writes invoke a handler).
The dproc toolkit serves its tree here::

    /proc/loadavg                      (standard Linux entry)
    /proc/cluster/<node>/loadavg       (remote monitoring data)
    /proc/cluster/<node>/freemem
    ...
    /proc/cluster/<node>/control       (parameters + filter deployment)

Per-member trees like ``/proc/cluster/<node>/`` are one routed
:class:`ProcDir`, resolved on lookup as Linux generates ``/proc/<pid>/``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Mapping, Optional, Union

from repro.errors import ProcfsError

__all__ = ["ProcFS", "ProcFile", "ProcDir"]

ReadFn = Callable[[], str]
WriteFn = Callable[[str], None]
Key = tuple[str, ...]


class ProcFile:
    """One pseudo-file: read callback plus optional write handler."""

    def __init__(self, read_fn: ReadFn,
                 write_fn: Optional[WriteFn] = None) -> None:
        self._read = read_fn
        self._write = write_fn

    def read(self) -> str:
        return self._read()

    def write(self, text: str) -> None:
        if self._write is None:
            raise ProcfsError("file is read-only")
        self._write(text)


class ProcDir:
    """A routed directory: the same files under every ``<member>/``.

    ``files`` maps a member-relative path (``"dproc/overhead"``) to
    ``(read(member), write(member, text) or None)``.  Adding a member
    is a set insert; the directory exists once it has one.
    """

    def __init__(self, files: Mapping[str, tuple[Callable,
                                                 Optional[Callable]]],
                 members: Iterable[str] = ()) -> None:
        self.members: set[str] = set(members)
        self._files = {_split(rel): fns for rel, fns in files.items()}

    def file(self, rel: Key) -> Optional[ProcFile]:
        """The file at ``(member, *path)``, bound to that member."""
        fns = rel and rel[0] in self.members and self._files.get(rel[1:])
        if not fns:
            return None
        read, write = fns
        return ProcFile(partial(read, rel[0]),
                        write and partial(write, rel[0]))

    def listing(self, rel: Key) -> set[str]:
        """Names directly under ``rel`` (empty if it is no directory)."""
        if not rel:
            return set(self.members)
        return _children(self._files, rel[1:]) \
            if rel[0] in self.members else set()


def _split(path: str) -> Key:
    parts = tuple(p for p in path.strip().split("/") if p)
    if not parts:
        raise ProcfsError(f"bad path {path!r}")
    return parts


def _children(keys: Iterable[Key], key: Key) -> set[str]:
    depth = len(key)
    return {k[depth] for k in keys if len(k) > depth and k[:depth] == key}


class ProcFS:
    """In-memory pseudo-filesystem: mounted files, routed directories."""

    def __init__(self) -> None:
        self._files: dict[Key, ProcFile] = {}
        self._dirs: dict[Key, ProcDir] = {}

    def mount(self, path: str, entry: Union[ProcFile, ProcDir]) -> None:
        """Install a file or routed directory at ``path`` (intermediate
        dirs are implicit; mounts may not nest)."""
        key = _split(path)
        for other in (*self._files, *self._dirs):
            if other == key:
                raise ProcfsError(f"{path!r} already mounted")
            if other[:len(key)] == key:
                raise ProcfsError(
                    f"{path!r} conflicts with existing mounts below it")
            if key[:len(other)] == other:
                raise ProcfsError(
                    f"{path!r} conflicts with existing mount "
                    f"{'/' + '/'.join(other)!r}")
        mounts = self._dirs if isinstance(entry, ProcDir) else self._files
        mounts[key] = entry

    # -- access ---------------------------------------------------------------

    def read(self, path: str) -> str:
        """Read a file's current content."""
        return self._lookup(path).read()

    def write(self, path: str, text: str) -> None:
        """Write ``text`` to a file (its handler interprets it)."""
        self._lookup(path).write(text)

    def exists(self, path: str) -> bool:
        """True for both files and (implicit) directories."""
        key = _split(path)
        return self._file(key) is not None or bool(self._listing(key))

    def is_dir(self, path: str) -> bool:
        return bool(self._listing(_split(path)))

    def listdir(self, path: str) -> list[str]:
        """Names directly under a directory."""
        key = _split(path) if path.strip("/") else ()
        if self._file(key) is not None:
            raise ProcfsError(f"{path!r} is a file, not a directory")
        names = self._listing(key)
        if not names and key:
            raise ProcfsError(f"no such directory {path!r}")
        return sorted(names)

    def _lookup(self, path: str) -> ProcFile:
        file = self._file(_split(path))
        if file is None:
            raise ProcfsError(f"no such file {path!r}")
        return file

    def _file(self, key: Key) -> Optional[ProcFile]:
        file = self._files.get(key)
        if file is None:
            for prefix, routed in self._dirs.items():
                if key[:len(prefix)] == prefix:
                    return routed.file(key[len(prefix):])
        return file

    def _listing(self, key: Key) -> set[str]:
        """Names under ``key``, empty if no directory (scans the mounts)."""
        names = _children(self._files, key)
        for prefix, routed in self._dirs.items():
            if key[:len(prefix)] == prefix:
                return routed.listing(key[len(prefix):])
            if prefix[:len(key)] == key and routed.members:
                names.add(prefix[len(key)])
        return names
