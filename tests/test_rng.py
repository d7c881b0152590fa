"""Deterministic stream-splitting contract of :mod:`repro.rng`."""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.rng import (
    FAMILY_PTS,
    FAMILY_SHOTS,
    StreamFactory,
    make_rng,
    root_sequence,
    trajectory_rng,
    uint16_draws,
)
from repro.errors import BackendError

DRAWS = 1 << 16


def words(rng, count=DRAWS):
    """The next ``count`` raw 64-bit outputs of the stream."""
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def philox_state(rng):
    state = rng.bit_generator.state["state"]
    return state["key"].tolist(), state["counter"].tolist()


class TestTrajectoryStreams:
    def test_same_seed_same_index_same_stream(self):
        a = trajectory_rng(7, 3).random(16)
        b = trajectory_rng(7, 3).random(16)
        assert np.array_equal(a, b)

    def test_different_indices_differ(self):
        a = trajectory_rng(7, 0).random(16)
        b = trajectory_rng(7, 1).random(16)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = trajectory_rng(7, 0).random(16)
        b = trajectory_rng(8, 0).random(16)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("order", [range(9), reversed(range(9)), (5, 0, 8, 5, 3, 5)])
    def test_stream_independent_of_enumeration_order(self, order):
        """Stream i is identical no matter which streams were made, or
        drawn from, before it — from the function or from one factory."""
        factory = StreamFactory(42)
        for i in order:
            factory.sampler_rng().random(2)
            assert np.array_equal(factory.rng_for(i).random(8), trajectory_rng(42, i).random(8))
            factory.rng_for(i).random(3)  # a stream handed out twice starts over

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            trajectory_rng(0, -1)
        with pytest.raises(ValueError):
            StreamFactory(0).rng_for(-1)

    def test_unseeded_function_draws_fresh_entropy(self):
        assert not np.array_equal(trajectory_rng(None, 0).random(4), trajectory_rng(None, 0).random(4))


class TestCounterLayout:
    """key = hash(seed), counter = [0, 0, index, family]: what the module
    docstring promises, read back from the bit generator."""

    def test_streams_of_a_seed_share_the_key_and_start_on_their_own_counter(self):
        factory = StreamFactory(7)
        key, counter = philox_state(factory.rng_for(0))
        assert counter == [0, 0, 0, FAMILY_SHOTS]
        for index in (1, 2, 3354, 2**40):
            assert philox_state(factory.rng_for(index)) == (key, [0, 0, index, FAMILY_SHOTS])
        assert philox_state(factory.sampler_rng()) == (key, [0, 0, 0, FAMILY_PTS])
        assert philox_state(StreamFactory(8).rng_for(0))[0] != key

    def test_the_key_is_hashed_once_per_factory(self, monkeypatch):
        from repro import rng as rng_module

        def no_new_sequences(*args, **kwargs):
            raise AssertionError("a SeedSequence was built on the shot path")

        factory = StreamFactory(3)
        monkeypatch.setattr(np.random, "SeedSequence", no_new_sequences)
        # Nor is OS entropy drawn: Philox(key=...) draws a SeedSequence() it drops.
        monkeypatch.setattr(np.random.bit_generator, "randbits", no_new_sequences)
        first = [factory.rng_for(i).random() for i in range(50)] + [factory.sampler_rng().random()]
        monkeypatch.undo()
        assert first == [StreamFactory(3).rng_for(i).random() for i in range(50)] + [
            StreamFactory(3).sampler_rng().random()
        ]
        hashed = np.random.SeedSequence(3, spawn_key=(rng_module.STREAM_KEY,))
        assert philox_state(factory.rng_for(0))[0] == hashed.generate_state(2, np.uint64).tolist()

    def test_drawing_moves_only_the_low_counter_words(self):
        rng = StreamFactory(7).rng_for(11)
        words(rng)
        _, counter = philox_state(rng)
        assert counter == [DRAWS // 4, 0, 11, FAMILY_SHOTS]

    def test_no_stream_is_the_plain_seeded_generator(self):
        plain = make_rng(7).random(8)
        factory = StreamFactory(7)
        for rng in (factory.rng_for(0), factory.rng_for(1), factory.sampler_rng()):
            assert not np.array_equal(rng.random(8), plain)


class TestStreamsDoNotMeet:
    def test_sampler_stream_is_no_trajectory_stream(self):
        # Until the sampler had a family of its own it drew from rng_for(0):
        # trajectory 0's shots reused the uniforms that chose the trajectories.
        factory = StreamFactory(7)
        sampler = words(factory.sampler_rng(), 256)
        for index in range(64):
            assert not np.intersect1d(sampler, words(factory.rng_for(index), 256)).size

    def test_streams_do_not_overlap_over_65536_draws(self):
        factory = StreamFactory(11)
        streams = {
            "pts": words(factory.sampler_rng()),
            **{index: words(factory.rng_for(index)) for index in (0, 1, 2, 3354, 2**32)},
        }
        names = list(streams)
        for a, name in enumerate(names):
            assert len(np.unique(streams[name])) == DRAWS
            for other in names[a + 1 :]:
                assert not np.intersect1d(streams[name], streams[other]).size, (name, other)


def _draw(factory, seed, index):
    """In a pool worker: the pickled factory's stream and a fresh factory's."""
    return (
        factory.rng_for(index).random(8),
        StreamFactory(seed).rng_for(index).random(8),
        factory.sampler_rng().random(8),
    )


class TestStreamFactory:
    def test_entropy_seed_is_fixed_at_construction(self):
        factory = StreamFactory(None)
        a = factory.rng_for(0).random(4)
        b = factory.rng_for(0).random(4)
        assert np.array_equal(a, b)
        assert np.array_equal(StreamFactory(factory.seed).rng_for(0).random(4), a)

    def test_factories_agree_across_a_process_pool_round_trip(self):
        factory = StreamFactory(19)
        here = [factory.rng_for(i).random(8) for i in (0, 5)]
        with ProcessPoolExecutor(1) as pool:
            there = [pool.submit(_draw, factory, 19, i).result(timeout=60) for i in (0, 5)]
        for mine, (pickled, rebuilt, sampler) in zip(here, there):
            assert np.array_equal(mine, pickled) and np.array_equal(mine, rebuilt)
            assert np.array_equal(sampler, factory.sampler_rng().random(8))


class TestUint16Draws:
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 7, 200, 1001])
    def test_raw_words_are_the_full_range_integers_draw(self, count):
        """A fresh stream's ``count`` 16-bit words are its raw 64-bit
        outputs cut into little-endian quarters, which is what
        ``Generator.integers`` serves for the full ``uint16`` range."""
        factory = StreamFactory(7)
        drawn = uint16_draws(factory.rng_for(3), count)
        expected = factory.rng_for(3).integers(0, 0xFFFF, count, np.uint16, endpoint=True)
        assert drawn.shape == (count,) and np.array_equal(drawn, expected)
        rng = factory.rng_for(3)
        uint16_draws(rng, count)
        assert np.array_equal(words(rng, 1), words(factory.rng_for(3), -(-count // 4) + 1)[-1:])

    def test_a_32_bit_raw_stream_is_refused(self):
        with pytest.raises(BackendError, match="MT19937 has no 64-bit raw output"):
            uint16_draws(np.random.Generator(np.random.MT19937(1)), 4)


def test_make_rng_reproducible():
    assert np.array_equal(make_rng(1).random(8), make_rng(1).random(8))


def test_make_rng_is_philox_on_the_root_sequence():
    direct = np.random.Generator(np.random.Philox(root_sequence(1)))
    assert np.array_equal(make_rng(1).random(8), direct.random(8))
    assert root_sequence(1).spawn_key == ()
