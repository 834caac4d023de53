"""Property-based tests: CouchDB revision and update-sequence invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.couchdb import CouchDatabase
from repro.errors import DocumentConflictError

doc_ids = st.sampled_from(["a", "b", "c", "d"])
ops = st.lists(st.tuples(st.sampled_from(["put", "put-stale"]), doc_ids),
               min_size=1, max_size=40)


class TestRevisionModel:
    @given(ops)
    @settings(max_examples=80)
    def test_invariants_under_arbitrary_histories(self, operations):
        db = CouchDatabase("t")
        shadow = {}          # doc_id -> rev
        feed_len = 0

        for op, doc_id in operations:
            if op == "put":
                rev = shadow.get(doc_id)
                doc = db.put(doc_id, {"op": op}, rev=rev)
                shadow[doc_id] = doc.rev
                feed_len += 1
            elif doc_id in shadow:  # put-stale
                try:
                    db.put(doc_id, {}, rev=shadow[doc_id] - 1)
                    raise AssertionError("stale put accepted")
                except DocumentConflictError:
                    pass

        # Invariant 1: the shadow and the database agree on contents.
        assert {doc.doc_id for doc in db.all_docs()} == set(shadow)
        for doc_id, rev in shadow.items():
            assert db.get(doc_id).rev == rev

        # Invariant 2: the update sequence counted every accepted write.
        assert db.last_seq == feed_len

    @given(st.lists(doc_ids, min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_revisions_increase_monotonically(self, id_sequence):
        db = CouchDatabase("t")
        last_rev = {}
        for doc_id in id_sequence:
            doc = db.put(doc_id, {}, rev=last_rev.get(doc_id))
            if doc_id in last_rev:
                assert doc.rev == last_rev[doc_id] + 1
            else:
                assert doc.rev == 1
            last_rev[doc_id] = doc.rev
