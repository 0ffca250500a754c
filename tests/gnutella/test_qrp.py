"""Tests for the Query Routing Protocol tables."""

import pytest

from repro.gnutella.qrp import keyword_hashes, text_hash_table
from gnutella_reference.messages import Query, new_guid
from gnutella_reference.peer import PeerMode, PeerNode
from gnutella_reference.qrp import QueryRouteTable, keyword_hash


class TestKeywordHash:
    def test_deterministic(self):
        assert keyword_hash("music", 16) == keyword_hash("music", 16)

    def test_case_insensitive(self):
        assert keyword_hash("Music", 16) == keyword_hash("mUSIC", 16)

    def test_within_range(self):
        for bits in (4, 8, 16, 24):
            value = keyword_hash("some keyword", bits)
            assert 0 <= value < (1 << bits)

    def test_spreads_values(self):
        hashes = {keyword_hash(f"word{i}", 16) for i in range(500)}
        assert len(hashes) > 450  # few collisions at 2**16 slots

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            keyword_hash("x", 0)
        with pytest.raises(ValueError):
            keyword_hash("x", 33)


class TestQueryRouteTable:
    def test_no_false_negatives(self):
        """QRP's defining property: a shared file always matches."""
        table = QueryRouteTable(log_size=12)
        names = [f"artist{i} song{i} mp3" for i in range(100)]
        table.add_library(names)
        for name in names:
            assert table.might_match(name)

    def test_subset_queries_match(self):
        table = QueryRouteTable(log_size=12)
        table.add_file("pink floyd dark side moon")
        assert table.might_match("pink floyd")
        assert table.might_match("moon")

    def test_unrelated_query_usually_misses(self):
        table = QueryRouteTable(log_size=16)
        table.add_file("one single file")
        misses = sum(
            not table.might_match(f"unrelated{i} query{i}") for i in range(200)
        )
        assert misses > 195  # false positives possible but rare

    def test_empty_query_never_matches(self):
        table = QueryRouteTable()
        table.add_file("something")
        assert not table.might_match("")
        assert not table.might_match("   ")

    def test_fill_ratio(self):
        table = QueryRouteTable(log_size=8)
        assert table.fill_ratio == 0.0
        table.add_file("a b c")
        assert 0.0 < table.fill_ratio <= 3 / 256

    def test_merge_union(self):
        a = QueryRouteTable(log_size=10)
        b = QueryRouteTable(log_size=10)
        a.add_file("alpha")
        b.add_file("beta")
        merged = a.merge(b)
        assert merged.might_match("alpha") and merged.might_match("beta")

    def test_merge_size_mismatch(self):
        with pytest.raises(ValueError):
            QueryRouteTable(log_size=10).merge(QueryRouteTable(log_size=12))

    def test_invalid_log_size(self):
        with pytest.raises(ValueError):
            QueryRouteTable(log_size=2)


class TestQrpForwarding:
    def make_ultrapeer_with_leaf(self, leaf_library):
        up = PeerNode(node_id="up", ip="64.0.0.1", mode=PeerMode.ULTRAPEER)
        leaf = PeerNode(node_id="leaf", ip="64.0.0.2", mode=PeerMode.LEAF,
                        library=set(leaf_library))
        up.add_neighbour("origin", PeerMode.ULTRAPEER)
        up.add_neighbour("leaf", PeerMode.LEAF)
        up.install_leaf_table("leaf", leaf.build_qrp_table())
        return up

    def test_matching_query_forwarded_to_leaf(self):
        up = self.make_ultrapeer_with_leaf({"rare tune"})
        q = Query(guid=new_guid(), ttl=5, hops=1, keywords="rare tune")
        targets = [dest for dest, _ in up.handle(q, "origin", now=0.0)]
        assert "leaf" in targets

    def test_non_matching_query_spares_leaf(self):
        up = self.make_ultrapeer_with_leaf({"rare tune"})
        q = Query(guid=new_guid(), ttl=5, hops=1, keywords="completely different")
        targets = [dest for dest, _ in up.handle(q, "origin", now=0.0)]
        assert "leaf" not in targets

    def test_table_removed_with_neighbour(self):
        up = self.make_ultrapeer_with_leaf({"rare tune"})
        up.remove_neighbour("leaf")
        assert "leaf" not in up.leaf_tables

    def test_install_validates_neighbour(self):
        up = PeerNode(node_id="up", ip="64.0.0.1", mode=PeerMode.ULTRAPEER)
        with pytest.raises(ValueError):
            up.install_leaf_table("stranger", QueryRouteTable())
        up.add_neighbour("peer", PeerMode.ULTRAPEER)
        with pytest.raises(ValueError):
            up.install_leaf_table("peer", QueryRouteTable())  # not a leaf


class TestBatchedParity:
    """The vectorized forms must be bit-exact with the scalar ones."""

    WORDS = ["alpha", "Beta", "gamma-9", "ümlaut", "x", "longerkeywordhere"]

    def test_keyword_hashes_match_scalar(self):
        for bits in (4, 12, 16, 24, 32):
            batch = keyword_hashes(self.WORDS, bits)
            scalar = [keyword_hash(w, bits) for w in self.WORDS]
            assert batch.tolist() == scalar

    def test_keyword_hashes_empty_batch(self):
        assert keyword_hashes([], 12).size == 0

    def test_keyword_hashes_reject_empty_keyword(self):
        with pytest.raises(ValueError, match="empty"):
            keyword_hashes(["ok", ""], 12)

    def test_keyword_hashes_reject_bad_bits(self):
        with pytest.raises(ValueError, match="bits"):
            keyword_hashes(["ok"], 0)

    def test_text_hash_table_matches_scalar_tokenizer(self):
        texts = ["Alpha beta", "beta beta beta", "", "  ", "one two THREE"]
        hashes, counts = text_hash_table(texts, 12)
        assert counts.sum() == hashes.size
        offset = 0
        for text, count in zip(texts, counts):
            segment = hashes[offset:offset + count].tolist()
            want = sorted({keyword_hash(w, 12) for w in text.lower().split() if w})
            assert segment == want
            offset += count
