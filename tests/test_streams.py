import numpy as np
import pytest

from mpdp.streams import RandomStream


def test_same_path_same_output():
    a = RandomStream(42).child("noise", 3).generator().standard_normal(8)
    b = RandomStream(42).child("noise", 3).generator().standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_sibling_streams_differ():
    base = RandomStream(42)
    a = base.child(1).generator().standard_normal(8)
    b = base.child(2).generator().standard_normal(8)
    assert not np.array_equal(a, b)


def test_string_and_int_tags_are_distinct_dimensions():
    base = RandomStream(7)
    assert base.child("mixing").seed64() != base.child(0).seed64()
    assert base.child("mixing").seed64() == base.child("mixing").seed64()


def test_child_extends_path():
    s = RandomStream(5).child(1).child("data", 2)
    assert s.entropy == 5
    assert len(s.path) == 3


def test_seed64_stable_value():
    # Frozen regression value: flags any change in the derivation scheme.
    assert RandomStream(12345).child("mixing").seed64() == 16625284544937917324


def test_generator_stable_values():
    # Frozen first draws of one stream: flags any change of bit generator
    # (numerics v4: SFC64), or of how its state is seeded.
    data = RandomStream(12345).child("data")
    assert data.generator().standard_normal(3).tolist() == [
        -0.2928700222738288, 1.1376185857297139, 0.9681522304033261,
    ]
    assert data.generator().uniform(-1, 1, 3).tolist() == [
        0.6132178610157419, 0.6684618927193786, -0.648338482775096,
    ]

def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        RandomStream(-1)
    with pytest.raises(ValueError):
        RandomStream(3).child(-2)


def _reference(stream):
    """numpy's own derivation of a stream, from (entropy, spawn_key)."""
    return np.random.SeedSequence(stream.entropy, spawn_key=stream.path)


@pytest.mark.parametrize("root_words", [1, 2])
def test_streams_equal_seed_sequence_spawn_keys(root_words):
    # the stream is seeded from the assembled entropy words; its draws and
    # seed64 must be those of SeedSequence(entropy, spawn_key=path)
    rng = np.random.default_rng(root_words)
    for _ in range(20):
        root = int(rng.integers(2**31, 2**32)) if root_words == 1 else int(
            rng.integers(2**32, 2**63)) * 2 + 1
        paths = [(), (0,), (int(rng.integers(2**32)),), ("synthetic", 7, "rmgm", 2, 21, 5),
                 (2**32, 3), (2**64 + 5,), (int(rng.integers(2**32, 2**63)), "dgm", 0)]
        for path in paths:
            stream = RandomStream(root).child(*path)
            reference = _reference(stream)
            draws = np.random.Generator(np.random.SFC64(reference)).standard_normal(4)
            np.testing.assert_array_equal(stream.generator().standard_normal(4), draws)
            assert stream.seed64() == int(reference.generate_state(1, np.uint64)[0])


def test_zero_and_wide_roots_equal_seed_sequence_spawn_keys():
    # root 0 is one zero word; a 5-word root fills the pool without padding
    for root in (0, 2**128 + 3):
        for path in ((), (0,), (2**40,)):
            stream = RandomStream(root).child(*path)
            assert stream.seed64() == int(_reference(stream).generate_state(1, np.uint64)[0])
