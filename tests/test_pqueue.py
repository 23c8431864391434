"""Unit tests for the bucket queue behind the Algorithm 1 oracle."""

import random

import pytest

from tests.oracles import BucketQueue


@pytest.fixture(params=[BucketQueue])
def queue(request):
    return request.param()


class TestCommonBehaviour:
    def test_insert_pop_max(self, queue):
        queue.insert("a", 3)
        queue.insert("b", 7)
        queue.insert("c", 5)
        assert queue.pop() == "b"
        assert queue.pop() == "c"
        assert queue.pop() == "a"

    def test_len_and_contains(self, queue):
        queue.insert("x", 1)
        assert len(queue) == 1
        assert "x" in queue
        assert "y" not in queue
        queue.remove("x")
        assert len(queue) == 0
        assert "x" not in queue

    def test_duplicate_insert_rejected(self, queue):
        queue.insert("a", 0)
        with pytest.raises(KeyError):
            queue.insert("a", 1)

    def test_inc_key_promotes(self, queue):
        queue.insert("a", 0)
        queue.insert("b", 2)
        queue.inc_key("a", 5)
        assert queue.pop() == "a"

    def test_dec_key_demotes(self, queue):
        queue.insert("a", 5)
        queue.insert("b", 3)
        queue.dec_key("a", 4)
        assert queue.pop() == "b"

    def test_key_of(self, queue):
        queue.insert("a", 4)
        queue.inc_key("a", 2)
        assert queue.key_of("a") == 6

    def test_peek_does_not_remove(self, queue):
        queue.insert("a", 9)
        item, key = queue.peek()
        assert (item, key) == ("a", 9)
        assert len(queue) == 1

    def test_pop_empty_raises(self, queue):
        with pytest.raises(IndexError):
            queue.pop()
        with pytest.raises(IndexError):
            queue.peek()

    def test_negative_delta_rejected(self, queue):
        queue.insert("a", 5)
        with pytest.raises(ValueError):
            queue.inc_key("a", -1)
        with pytest.raises(ValueError):
            queue.dec_key("a", -1)

    def test_tie_break_insertion_order(self, queue):
        queue.insert("first", 5)
        queue.insert("second", 5)
        assert queue.pop() == "first"

    def test_randomized_against_reference(self, queue):
        rng = random.Random(42)
        reference = {}
        for i in range(200):
            reference[i] = rng.randint(0, 20)
            queue.insert(i, reference[i])
        for _ in range(300):
            item = rng.choice(list(reference))
            if rng.random() < 0.5:
                queue.inc_key(item, 1)
                reference[item] += 1
            elif reference[item] > 0:
                queue.dec_key(item, 1)
                reference[item] -= 1
        while reference:
            popped = queue.pop()
            assert reference[popped] == max(reference.values())
            del reference[popped]


class TestBucketSpecific:
    def test_rejects_negative_keys(self):
        queue = BucketQueue()
        with pytest.raises(ValueError):
            queue.insert("a", -1)
        queue.insert("b", 0)
        with pytest.raises(ValueError, match="negative"):
            queue.dec_key("b", 1)

    def test_max_tracks_after_removal(self):
        queue = BucketQueue()
        queue.insert("hi", 10)
        queue.insert("lo", 1)
        queue.remove("hi")
        assert queue.pop() == "lo"
