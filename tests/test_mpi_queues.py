"""Unit tests for ADI queues, envelopes, and matching semantics."""

from hypothesis import given, settings, strategies as st

from repro.mpi.adi.packets import Envelope
from repro.mpi.adi.queues import (
    PostedQueue,
    UnexpectedEntry,
    UnexpectedKind,
    UnexpectedQueue,
)
from repro.mpi.adi.rhandle import RecvHandle
from repro.mpi.constants import ANY_SOURCE, ANY_TAG


def env(context=0, source=0, tag=0, size=0):
    return Envelope(context, source, tag, size)


class TestEnvelopeMatching:
    def test_exact_match(self):
        assert env(source=3, tag=7).matches(3, 7)

    def test_wildcards(self):
        assert env(source=3, tag=7).matches(ANY_SOURCE, 7)
        assert env(source=3, tag=7).matches(3, ANY_TAG)
        assert env(source=3, tag=7).matches(ANY_SOURCE, ANY_TAG)

    def test_mismatches(self):
        assert not env(source=3, tag=7).matches(4, 7)
        assert not env(source=3, tag=7).matches(3, 8)


class TestPostedQueue:
    def test_first_match_wins(self):
        q = PostedQueue()
        h1 = RecvHandle(0, ANY_SOURCE, ANY_TAG)
        h2 = RecvHandle(0, ANY_SOURCE, ANY_TAG)
        q.post(h1)
        q.post(h2)
        assert q.match(env()) is h1
        assert q.match(env()) is h2
        assert q.match(env()) is None

    def test_context_isolation(self):
        q = PostedQueue()
        handle = RecvHandle(5, ANY_SOURCE, ANY_TAG)
        q.post(handle)
        assert q.match(env(context=0)) is None
        assert q.match(env(context=5)) is handle

    def test_specific_source_skips_nonmatching(self):
        q = PostedQueue()
        h_for_2 = RecvHandle(0, 2, ANY_TAG)
        h_any = RecvHandle(0, ANY_SOURCE, ANY_TAG)
        q.post(h_for_2)
        q.post(h_any)
        assert q.match(env(source=1)) is h_any
        assert q.match(env(source=2)) is h_for_2

    def test_remove(self):
        q = PostedQueue()
        handle = RecvHandle(0, ANY_SOURCE, ANY_TAG)
        q.post(handle)
        assert q.remove(handle)
        assert not q.remove(handle)
        assert q.match(env()) is None


class TestUnexpectedQueue:
    def test_fifo_match_order(self):
        q = UnexpectedQueue()
        e1 = UnexpectedEntry(env(tag=1, size=4), UnexpectedKind.EAGER, data=b"a")
        e2 = UnexpectedEntry(env(tag=1, size=4), UnexpectedKind.EAGER, data=b"b")
        q.add(e1)
        q.add(e2)
        assert q.match(0, ANY_SOURCE, 1) is e1
        assert q.match(0, ANY_SOURCE, 1) is e2

    def test_peek_is_nondestructive(self):
        q = UnexpectedQueue()
        entry = UnexpectedEntry(env(), UnexpectedKind.EAGER, data=b"x")
        q.add(entry)
        assert q.peek(0, ANY_SOURCE, ANY_TAG) is entry
        assert len(q) == 1

    def test_buffered_bytes_accounting(self):
        q = UnexpectedQueue()
        q.add(UnexpectedEntry(env(size=100), UnexpectedKind.EAGER, data=b""))
        q.add(UnexpectedEntry(env(size=50), UnexpectedKind.RNDV_REQUEST))
        assert q.buffered_bytes == 100
        q.match(0, ANY_SOURCE, ANY_TAG)
        assert q.buffered_bytes == 0

    def test_tag_filtering(self):
        q = UnexpectedQueue()
        q.add(UnexpectedEntry(env(tag=1), UnexpectedKind.EAGER))
        q.add(UnexpectedEntry(env(tag=2), UnexpectedKind.EAGER))
        assert q.match(0, ANY_SOURCE, 2).envelope.tag == 2
        assert q.match(0, ANY_SOURCE, 2) is None


class TestMatchingProperties:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_posted_matching_preserves_post_order_per_pattern(self, arrivals):
        """For any arrival sequence, matches come out in post order."""
        q = PostedQueue()
        handles = []
        for i in range(10):
            h = RecvHandle(0, ANY_SOURCE, ANY_TAG)
            h.order = i
            q.post(h)
            handles.append(h)
        matched = []
        for source, tag in arrivals:
            h = q.match(env(source=source, tag=tag))
            if h is not None:
                matched.append(h.order)
        assert matched == sorted(matched)

    @given(st.lists(st.integers(0, 2), min_size=0, max_size=12),
           st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_unexpected_match_returns_oldest_matching_tag(self, tags, want):
        q = UnexpectedQueue()
        for i, tag in enumerate(tags):
            q.add(UnexpectedEntry(env(tag=tag, size=i), UnexpectedKind.EAGER))
        entry = q.match(0, ANY_SOURCE, want)
        expected = next((i for i, t in enumerate(tags) if t == want), None)
        if expected is None:
            assert entry is None
        else:
            assert entry.envelope.size == expected
