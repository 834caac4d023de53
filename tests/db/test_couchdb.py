"""Unit tests for the CouchDB substrate."""

import pytest

from repro.db.couchdb import CouchDatabase, CouchServer, DbLatency
from repro.errors import DatabaseError, DocumentConflictError


@pytest.fixture
def db():
    return CouchDatabase("reminders")


class TestDocuments:
    def test_put_and_get(self, db):
        doc = db.put("r1", {"item": "dentist", "place": "downtown"})
        assert doc.rev == 1
        assert db.get("r1").body["item"] == "dentist"

    def test_update_needs_current_rev(self, db):
        db.put("r1", {"v": 1})
        doc = db.put("r1", {"v": 2}, rev=1)
        assert doc.rev == 2
        with pytest.raises(DocumentConflictError):
            db.put("r1", {"v": 3}, rev=1)  # stale

    def test_new_document_with_rev_rejected(self, db):
        with pytest.raises(DocumentConflictError):
            db.put("r1", {"v": 1}, rev=5)

    def test_get_missing_raises(self, db):
        with pytest.raises(DatabaseError):
            db.get("ghost")

    def test_put_copies_body(self, db):
        body = {"v": 1}
        db.put("r1", body)
        body["v"] = 99
        assert db.get("r1").body["v"] == 1

    def test_all_docs_sorted(self, db):
        for doc_id in ("c", "a", "b"):
            db.put(doc_id, {})
        assert [d.doc_id for d in db.all_docs()] == ["a", "b", "c"]
        assert len(db) == 3


class TestChangeFeed:
    """The update sequence, ``last_seq``: one step per accepted write."""

    def test_a_new_database_is_at_sequence_zero(self, db):
        assert db.last_seq == 0 and type(db.last_seq) is int

    def test_a_rejected_new_document_does_not_advance(self, db):
        with pytest.raises(DocumentConflictError):
            db.put("a", {}, rev=3)
        assert db.last_seq == 0
        assert not db.contains("a")

    def test_changes_are_sequenced(self, db):
        seqs = []
        db.put("a", {})
        seqs.append(db.last_seq)
        db.put("b", {})
        seqs.append(db.last_seq)
        db.put("a", {}, rev=1)
        seqs.append(db.last_seq)
        assert seqs == [1, 2, 3]
        assert db.get("a").rev == 2

    def test_changes_since_filters(self, db):
        db.put("a", {})
        db.put("b", {})
        with pytest.raises(DocumentConflictError):
            db.put("b", {}, rev=7)
        assert db.last_seq == 2


class TestServer:
    def test_database_get_or_create(self):
        server = CouchServer()
        db1 = server.database("wages")
        db2 = server.database("wages")
        assert db1 is db2
        assert server.has_database("wages")
        assert server.database_names() == ("wages",)

    def test_latency_model(self):
        latency = DbLatency(get_ms=1.0, put_ms=2.0, per_kb_ms=0.1)
        assert latency.get_cost(10) == pytest.approx(2.0)
        assert latency.put_cost(10) == pytest.approx(3.0)
        assert latency.put_cost(0) > latency.get_cost(0)
