"""Database substrate: the CouchDB-like document store."""

from repro.db.couchdb import CouchDatabase, CouchServer, DbLatency, Document

__all__ = ["CouchDatabase", "CouchServer", "DbLatency", "Document"]
