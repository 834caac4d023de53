"""CouchDB substrate: a revisioned document store.

The ServerlessBench applications use CouchDB (§5.3): Alexa's reminder skill
reads/writes schedules, and the data-analysis app's *analysis chain is
triggered when the database is updated* (the dashed box of Fig 8(b)).  The
platform fires that trigger itself when a guest writes a database
(``ServerlessPlatform.register_db_trigger``); a database only counts its
writes, in :attr:`CouchDatabase.last_seq`.

Semantics modeled after CouchDB's MVCC: every write must carry the current
revision or it conflicts; reads return the latest revision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import DatabaseError, DocumentConflictError


@dataclass(frozen=True)
class DbLatency:
    """Server-side cost of one database operation (ms)."""

    get_ms: float = 1.2
    put_ms: float = 2.4
    per_kb_ms: float = 0.02

    def get_cost(self, kb: float) -> float:
        """Server-side cost of reading a *kb*-sized document (ms)."""
        return self.get_ms + kb * self.per_kb_ms

    def put_cost(self, kb: float) -> float:
        """Server-side cost of writing a *kb*-sized document (ms)."""
        return self.put_ms + kb * self.per_kb_ms


@dataclass
class Document:
    """A stored document with CouchDB-style revision tracking."""

    doc_id: str
    rev: int
    body: Dict[str, Any]


class CouchDatabase:
    """One database: documents and the sequence number of its last write."""

    def __init__(self, name: str, latency: Optional[DbLatency] = None) -> None:
        self.name = name
        self.latency = latency or DbLatency()
        self._docs: Dict[str, Document] = {}
        #: Writes so far: CouchDB's update sequence, bumped by each put.
        self.last_seq = 0

    # -- document API -----------------------------------------------------------
    def put(self, doc_id: str, body: Dict[str, Any],
            rev: Optional[int] = None) -> Document:
        """Insert or update a document.  Updates must carry the current rev."""
        existing = self._docs.get(doc_id)
        if existing is not None:
            if rev != existing.rev:
                raise DocumentConflictError(
                    f"{self.name}/{doc_id}: rev {rev} is stale "
                    f"(current {existing.rev})")
            document = Document(doc_id, existing.rev + 1, dict(body))
        else:
            if rev not in (None, 0):
                raise DocumentConflictError(
                    f"{self.name}/{doc_id}: new document with rev {rev}")
            document = Document(doc_id, 1, dict(body))
        self._docs[doc_id] = document
        self.last_seq += 1
        return document

    def get(self, doc_id: str) -> Document:
        """Fetch a document; DatabaseError if absent."""
        if doc_id not in self._docs:
            raise DatabaseError(f"{self.name}/{doc_id}: not found")
        return self._docs[doc_id]

    def contains(self, doc_id: str) -> bool:
        """Whether the document exists."""
        return doc_id in self._docs

    def all_docs(self) -> List[Document]:
        """Every document, ordered by id."""
        return sorted(self._docs.values(), key=lambda d: d.doc_id)

    def __len__(self) -> int:
        return len(self._docs)


class CouchServer:
    """A CouchDB instance hosting named databases."""

    def __init__(self, latency: Optional[DbLatency] = None) -> None:
        self.latency = latency or DbLatency()
        self._databases: Dict[str, CouchDatabase] = {}

    def database(self, name: str) -> CouchDatabase:
        """Get-or-create a database (CouchDB's PUT /dbname idiom)."""
        if name not in self._databases:
            self._databases[name] = CouchDatabase(name, self.latency)
        return self._databases[name]

    def has_database(self, name: str) -> bool:
        """Whether the named database exists."""
        return name in self._databases

    def database_names(self):
        """Names of all databases on this server."""
        return tuple(self._databases)
