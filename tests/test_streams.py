import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rupsim import map_indexed, substream, substreams
from rupsim.streams import STACK_POINTS

# 0, small, at and beyond each 32-bit word boundary; parts may also be labels
_INTS = st.integers(0, 2 ** 32 - 1) | st.integers(2 ** 32, 2 ** 130) | st.sampled_from(
    [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 96, 2 ** 128])
_PARTS = _INTS | st.text(max_size=8)


def _same_stream(a: np.random.Generator, b: np.random.Generator) -> bool:
    return (a.bit_generator.state == b.bit_generator.state
            and np.array_equal(a.random(3), b.random(3))
            and np.array_equal(a.integers(0, 2 ** 62, 3), b.integers(0, 2 ** 62, 3)))


@settings(max_examples=150, deadline=None)
@given(seed=_INTS, prefix=st.lists(_PARTS, max_size=3), count=st.integers(0, 40))
def test_substreams_element_i_is_substream_i(seed, prefix, count):
    batch = substreams(seed, *prefix, count=count)
    assert len(batch) == count
    for i in range(count):
        assert _same_stream(batch[i], substream(seed, *prefix, i))


def test_substreams_of_the_shipped_prefixes_match_at_scale():
    for seed, prefix, count in ((40927, ("design", 3), 450), (52361, ("xi",), 1500),
                                (52361, ("data",), 1500), (0, ("oracle-design",), 300)):
        batch = substreams(seed, *prefix, count=count)
        for i in (0, 1, count // 2, count - 1):
            assert _same_stream(batch[i], substream(seed, *prefix, i))


def test_each_read_builds_a_fresh_generator_at_the_stream_start():
    batch = substreams(7, "x", count=3)
    first = batch[2].random(4)
    assert np.array_equal(batch[2].random(4), first)
    assert np.array_equal(batch[-1].random(4), first)
    with pytest.raises(IndexError):
        batch[3]
    with pytest.raises(TypeError):
        batch[0:2]


def test_empty_batch_and_invalid_arguments():
    assert len(substreams(3, "x", count=0)) == 0
    assert list(substreams(3, count=0)) == []
    for bad in (lambda: substreams(-1, count=2), lambda: substreams(1, "x", -2, count=2),
                lambda: substreams(1, "x", count=-1), lambda: substreams(1, count=2 ** 32 + 1)):
        with pytest.raises(ValueError):
            bad()
    with pytest.raises(TypeError):
        substreams(1, count=2.5)


def test_a_batched_generator_cannot_spawn():
    with pytest.raises(TypeError):
        substreams(1, "x", count=1)[0].spawn(1)


def test_map_indexed_runs_in_index_order():
    assert map_indexed(lambda i: i * i, 4) == [0, 1, 4, 9]
    with pytest.raises(ValueError):
        map_indexed(lambda i: i, -1)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(0, 70), n=st.integers(1, 3 * STACK_POINTS) | st.sampled_from(
    [1, 2, 3, STACK_POINTS // 7, STACK_POINTS // 2, STACK_POINTS - 1, STACK_POINTS,
     STACK_POINTS + 1]))
def test_stacks_cover_the_batch_in_order_within_the_point_budget(count, n):
    batch = substreams(29, "s", count=count)
    runs = list(batch.stacks(n))
    size = max(1, STACK_POINTS // n)
    assert [i for run, _ in runs for i in run] == list(range(count))
    assert all(isinstance(run, range) and run.step == 1 for run, _ in runs)
    assert all(len(run) == size for run, _ in runs[:-1])
    assert all(1 <= len(run) <= size for run, _ in runs)
    for run, rngs in runs:
        assert len(rngs) == len(run)
        for i, rng in zip(run, rngs):
            assert rng.bit_generator.state == substream(29, "s", i).bit_generator.state


def test_stacks_of_an_empty_batch_or_of_wide_streams():
    assert list(substreams(5, count=0).stacks(10)) == []
    runs = [run for run, _ in substreams(5, count=3).stacks(STACK_POINTS + 1)]
    assert runs == [range(0, 1), range(1, 2), range(2, 3)]


def test_a_negative_seed_or_a_seed_state_other_than_four_uint64_words_is_refused():
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        substream(-1)
    seed_words = substreams(1, "x", count=1)[0].bit_generator.seed_seq
    assert seed_words.generate_state(4, np.uint64).shape == (4,)
    for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64)):
        with pytest.raises(ValueError, match="four uint64 words"):
            seed_words.generate_state(n_words, dtype)
