"""The generated inputs are pure functions of the seed."""

from workloads import TCP_KEYS, VALUE_BYTES, OpStream, poisson_schedule


def draw(seed, count=500, read_fraction=0.9):
    stream = OpStream(seed, read_fraction)
    return [stream.next() for _ in range(count)]


def test_op_stream_is_a_function_of_the_seed():
    assert draw(7) == draw(7)
    assert draw("7/closed") == draw("7/closed")
    assert draw(7) != draw(8)


def test_op_stream_mix_keys_and_values():
    ops = draw(3, count=4000, read_fraction=0.9)
    reads = [op for op in ops if op[0]]
    writes = [op for op in ops if not op[0]]
    assert 0.87 < len(reads) / len(ops) < 0.93
    assert {key for _, key, _ in ops} == {f"k{i}" for i in range(TCP_KEYS)}
    assert all(value is None for _, _, value in reads)
    values = [value for _, _, value in writes]
    assert len(set(values)) == len(values)
    assert all(len(value) == VALUE_BYTES for value in values)


def test_poisson_schedule_is_a_function_of_the_seed():
    assert poisson_schedule(5, 1500.0, 2.0) == poisson_schedule(5, 1500.0, 2.0)
    assert poisson_schedule(5, 1500.0, 2.0) != poisson_schedule(6, 1500.0, 2.0)


def test_poisson_schedule_rate_and_order():
    due = poisson_schedule(11, 1000.0, 10.0)
    assert due == sorted(due)
    assert 0.0 < due[0] and due[-1] < 10.0
    assert 9500 < len(due) < 10500
