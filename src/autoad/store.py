"""The documents and appended files of one data directory, kept as a
write-ahead log with redo recovery (Mohan et al., "ARIES", 1992):

- ``scores/*.csv`` are appended during a tick, and nothing else is: a
  metric's alerts are read from its committed rows.  ``jobs/*.json`` and
  ``tunes/*.json`` are written whole, at once: a job is registered
  outside any tick, and ``tunes/`` is never read back and a replayed
  tick rewrites it byte for byte.
- ``meta.json`` is the checkpoint, the one file of documents: every
  metric's committed scoring state, model record and health document,
  under their store names (``state/<m>.json``, ``models/<m>.json``,
  ``health/<m>.json``), the clock, every appended file's length and the
  store's :data:`SCHEMA`.  It is compact JSON, as the indented encoder
  is pure Python (about 130 µs against 40 µs for a two-metric fleet's
  2.9 KB document); read it with ``python -m json.tool meta.json`` or
  ``autoad status``.
- Every tick commits (:meth:`Store.commit`) by appending one line to
  ``journal.jsonl``: the tick, the full documents put and the byte
  lengths of the files appended to since the last commit.  A tick with
  no work writes only its tick.
- A commit whose line takes the journal past :data:`CHECKPOINT_RATIO`
  times the size of ``meta.json`` then compacts it: it rewrites the
  checkpoint, atomically by one rename, and empties the journal in place
  by truncation.  So the journal never holds more than that bound plus
  one line, the checkpoint's cost is spread over the ticks that grew the
  journal, and the decision reads only the byte lengths of committed
  files: a store that is reopened, or a run split into chunks, compacts
  at the same ticks and writes the same bytes (a log-structured file
  system cleans by size too: Rosenblum & Ousterhout, 1992).  A new
  store's first write is a checkpoint, and it is not compacted again
  before it holds a document.
- A new store loads the checkpoint and redoes, in order and in memory,
  every complete journal line (records hold full documents, so redoing
  lines the checkpoint already holds changes nothing).  If a running
  store compacted between the two reads, the journal's first record is
  not of the checkpoint's next tick, and both are read again.  Opening a
  store changes no file, so ``status`` and ``eval`` may run beside a
  running engine, and opening creates none: a missing data directory
  stays missing until the first write makes it.  Before its first write
  (:meth:`Store.repair`), the store cuts a torn last line from the
  journal, cuts the appended files back to the lengths of the last
  commit and finishes a compaction a crash cut short (a journal past its
  bound, or one whose last record is of no later tick than the
  checkpoint).  A tick that crashed before its commit is then run again:
  its appended rows come out exactly once.
- A directory whose ``meta.json`` holds another schema, or none, is
  refused with :class:`~autoad.errors.UnsupportedStore` and left as it
  is; its jobs are registered again in a new data directory.

Only one store may write to a directory at a time.

The store appends through handles it holds open, one per appended file
(the journal included), opened on first append; at most
:data:`MAX_HANDLES` are open, the least recently used being closed past
that.  The handles are unbuffered, so each append is one ``write(2)``
and nothing waits in the process to be written later: a store that
crashed, or was dropped unclosed, cannot add bytes after a new store has
repaired the directory.  :meth:`Store.close` closes them; a later append
opens its file again.  Nothing calls ``fsync``.  The store keeps every
committed document in memory and never reads one back from disk.
"""

from __future__ import annotations

import io
import json
import os
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from .errors import UnsupportedStore

JOURNAL = "journal.jsonl"
SCHEMA = 4  # the layout of the directory, meta.json and its documents; no other is read
APPENDED = (("scores", "*.csv"),)  # files a tick appends to
# append handles a store holds open at once: every scores file and the
# journal of a fleet of up to 127 metrics, while six stores in one
# process still leave a quarter of the usual soft limit of 1024 descriptors
# for the files, pipes and sockets the rest of the program opens
MAX_HANDLES = 128
# a commit that takes the journal past this many times the size of meta.json
# compacts it into a checkpoint: over the 1,440 ticks of the two-metric
# benchmark fleet, 12 compactions (it trains 29 times) and a journal of at
# most 47 KB; 8 compacts about twice as often (23), 32 doubles the journal
# to redo
CHECKPOINT_RATIO = 16


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _compact(data) -> str:
    """The journal's and the checkpoint's encoding, which runs the C encoder."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _close(handles: OrderedDict) -> None:
    while handles:
        handles.popitem()[1].close()


def _write(fh, data: bytes, truncate: bool = False) -> None:
    """Append ``data`` to a held file in one ``write(2)``, after emptying
    the file if ``truncate``.  Every change the store makes to an appended
    file comes through here.  A short write cuts the file back to its
    length before the write and raises, so the file ends where the lengths
    the store records say it does."""
    if truncate:
        fh.truncate(0)
    written = fh.write(data) if data else 0
    if written != len(data):
        fh.truncate(fh.tell() - written)
        raise OSError(f"short write to {fh.name}")


class Store:
    """The journaled documents and appended files under ``root``."""

    def __init__(self, root):
        self._handles: OrderedDict[str, io.FileIO] = OrderedDict()  # store name -> held append handle
        # a store dropped unclosed (the benchmark harness drops its engines)
        # closes its handles without a ResourceWarning, also inside a garbage
        # cycle, where a weakref's callback runs before any object's __del__
        weakref.finalize(self, _close, self._handles)
        self.root = Path(root)
        # documents by store name: put since the last commit, and
        # committed (the checkpoint's, with the journal's redone over them)
        self._pending: dict[str, dict] = {}
        self._committed: dict[str, dict] = {}
        self._appended: set[str] = set()  # scores/ files appended to since the last commit
        self._repaired = False
        self._load()

    def close(self) -> None:
        """Close the held append handles.  Idempotent; the store stays
        usable, and its next append to a file opens it again."""
        _close(self._handles)

    def doc(self, name: str) -> Optional[dict]:
        """A document as last put: since the last commit, or committed."""
        return self._pending.get(name, self._committed.get(name))

    def put(self, name: str, doc: dict) -> None:
        """Replace a document whole; the next commit journals it."""
        self._pending[name] = doc

    def length(self, name: str) -> int:
        """An appended file's byte length: committed, and this store's appends since."""
        return self._lengths.get(name, 0)

    def append(self, name: str, text: str) -> None:
        """Append ``text`` to an appended file; the next commit records its length."""
        data = text.encode()
        _write(self._handle(name), data)
        self._lengths[name] = self._lengths.get(name, 0) + len(data)
        self._appended.add(name)

    def committed(self, name: str) -> bytes:
        """An appended file's first :meth:`length` bytes, without another store's uncommitted rows."""
        if not self.length(name):
            return b""
        with open(self.root / name, "rb") as fh:
            return fh.read(self.length(name))

    def write(self, name: str, doc) -> None:
        """Write ``doc`` as indented JSON to the file ``name``, replacing it
        by one rename and making its directory; not journaled."""
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, json.dumps(doc, indent=1, sort_keys=True))

    def _load(self) -> None:
        """Read the committed store: the checkpoint, then every complete
        journal line in order.  Changes no file; see :meth:`repair`.
        A store of another schema raises UnsupportedStore."""
        path = self.root / "meta.json"
        text = path.read_text() if path.exists() else None
        while True:
            self._meta_size = len(text or "")  # meta.json is ASCII, so this is its byte length
            if text is None:
                meta = {"docs": {}, "lengths": self._appended_lengths(), "now": 0}
            else:
                meta = json.loads(text)
                if meta.get("schema") != SCHEMA:
                    raise UnsupportedStore(f"{self.root} holds a store of schema {meta.get('schema')}, "
                                           f"not {SCHEMA}; register its jobs again in a new data directory")
            self.now, self._committed, self._lengths = int(meta["now"]), meta["docs"], meta["lengths"]
            records, self._journal_end = self._read_journal()
            # only a tick commits, so the records after a checkpoint start at
            # its next tick, unless the journal is spent: a crash inside a
            # compaction left it, or a running store has renamed meta.json and
            # not yet emptied the journal
            spent = bool(records) and int(records[-1]["tick"]) <= self.now
            if not records or spent or int(records[0]["tick"]) == self.now + 1:
                break
            # a running store compacted between the two reads: these records
            # follow a later checkpoint, so read both again
            again = path.read_text() if path.exists() else None
            if again == text:
                break
            text = again
        for record in records:
            self.now = int(record["tick"])
            self._lengths.update(record.get("lengths", {}))
            self._committed.update(record.get("docs", {}))
        # the first write of a new store checkpoints it, and so does the first
        # write after a crash inside a compaction: before its rename the journal
        # is past its bound, after it the journal is spent
        self._checkpoint_due = text is None or spent or self._compaction_due()

    def _read_journal(self) -> tuple[list[dict], int]:
        """The journal's complete records and their byte length; a torn
        last line is not among them."""
        path = self.root / JOURNAL
        if not path.exists():
            return [], 0
        records, end = [], 0
        for line in path.read_bytes().split(b"\n")[:-1]:
            try:
                records.append(json.loads(line))
            except ValueError:
                break
            end += len(line) + 1
        return records, end

    def repair(self) -> None:
        """Before this store's first write, bring the files in line with the
        committed store: make its directories, cut the journal back to the
        records it redid, cut the appended files back to their committed
        lengths, and checkpoint a new store or one whose compaction a crash
        cut short.  Idempotent."""
        if self._repaired:
            return
        for sub in ("scores", "tunes"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        journal = self.root / JOURNAL
        if journal.exists() and journal.stat().st_size > self._journal_end:
            os.truncate(journal, self._journal_end)
        for name, size in self._appended_lengths().items():
            committed = self._lengths.get(name)
            if committed is None:
                (self.root / name).unlink()
            elif size > committed:
                os.truncate(self.root / name, committed)
        if self._checkpoint_due:
            self._checkpoint()
        self._repaired = True

    def _appended_lengths(self) -> dict[str, int]:
        return {f"{sub}/{path.name}": path.stat().st_size
                for sub, pattern in APPENDED for path in sorted((self.root / sub).glob(pattern))}

    def commit(self, tick: int) -> None:
        """Commit ``tick``, with what was put and appended since the last
        commit, by appending its record to the journal; then, once the
        journal has outgrown CHECKPOINT_RATIO times meta.json, compact it
        into a checkpoint.  A record that fails to be written commits
        nothing: the next commit's record carries what this one held."""
        record: dict = {"tick": tick}
        if self._pending or self._appended:
            record.update(docs=self._pending, lengths={name: self._lengths[name] for name in self._appended})
        data = (_compact(record) + "\n").encode()
        _write(self._handle(JOURNAL), data)
        self._journal_end += len(data)
        self.now = tick
        self._committed.update(self._pending)
        self._pending = {}
        self._appended.clear()
        if self._compaction_due():
            self._checkpoint()

    def _compaction_due(self) -> bool:
        """Whether the journal has outgrown CHECKPOINT_RATIO times meta.json.
        A store that holds no document yet (one warming up to its first
        training) is not compacted: its checkpoint would hold only the clock."""
        return bool(self._committed) and self._journal_end > CHECKPOINT_RATIO * self._meta_size

    def _checkpoint(self) -> None:
        """Write every committed document, the clock, the appended files'
        lengths and the schema to meta.json by one rename; then empty the
        journal, whose records the checkpoint holds."""
        text = _compact({"docs": self._committed, "lengths": self._lengths, "now": self.now, "schema": SCHEMA})
        _atomic_write(self.root / "meta.json", text)
        self._meta_size = len(text)
        _write(self._handle(JOURNAL), b"", truncate=True)
        self._journal_end = 0

    def _handle(self, name: str) -> io.FileIO:
        """The held append handle of an appended file, opened on first use;
        past MAX_HANDLES the least recently used one is closed."""
        fh = self._handles.get(name)
        if fh is not None:
            self._handles.move_to_end(name)
            return fh
        if len(self._handles) >= MAX_HANDLES:
            self._handles.popitem(last=False)[1].close()
        fh = self._handles[name] = open(self.root / name, "ab", buffering=0)
        return fh
