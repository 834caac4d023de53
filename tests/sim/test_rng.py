"""Unit tests for named RNG streams."""

from repro.sim.rng import RngStreams


class TestStreams:
    def test_same_name_same_stream(self):
        rng = RngStreams(1)
        assert rng.stream("a") is rng.stream("a")

    def test_streams_are_independent(self):
        """Drawing from one stream must not perturb another."""
        rng1 = RngStreams(1)
        baseline = [rng1.stream("a").random() for _ in range(5)]

        rng2 = RngStreams(1)
        rng2.stream("b").random()  # interleaved draw from another stream
        interleaved = [rng2.stream("a").random() for _ in range(5)]
        assert baseline == interleaved

    def test_different_names_different_sequences(self):
        rng = RngStreams(1)
        assert rng.stream("a").random() != rng.stream("b").random()

    def test_reproducible_across_instances(self):
        assert RngStreams(42).stream("x").random() == \
            RngStreams(42).stream("x").random()


class TestFork:
    def test_fork_is_deterministic(self):
        a = RngStreams(1).fork("child").stream("x").random()
        b = RngStreams(1).fork("child").stream("x").random()
        assert a == b

    def test_fork_differs_from_parent(self):
        parent = RngStreams(1)
        child = parent.fork("child")
        assert parent.stream("x").random() != child.stream("x").random()
