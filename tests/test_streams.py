import numpy as np
import pytest

from fluxtem.streams import DOMAIN_IMAGE, DOMAIN_PROTOCOL, DOMAIN_SCALING, derive


def draws(seed, *path):
    return derive(seed, *path).random(8)


def test_a_stream_depends_on_seed_and_path_not_on_creation_order():
    paths = [(DOMAIN_PROTOCOL, i) for i in range(5)]
    forward = {path: draws(12345, *path) for path in paths}
    for path in reversed(paths):
        derive(12345, DOMAIN_SCALING, 4, 400).random(3)  # an unrelated stream in between
        np.testing.assert_array_equal(draws(12345, *path), forward[path])


@pytest.mark.parametrize(
    "a, b",
    [
        ((12345, DOMAIN_PROTOCOL, 0), (12345, DOMAIN_PROTOCOL, 1)),
        ((12345, DOMAIN_PROTOCOL, 0), (12345, DOMAIN_SCALING, 0)),
        ((12345, DOMAIN_IMAGE, 0, 1, 2), (12345, DOMAIN_IMAGE, 0, 2, 1)),
        ((12345, DOMAIN_IMAGE, 0, 1), (12345, DOMAIN_IMAGE, 0, 1, 0)),
        ((12345, DOMAIN_PROTOCOL, 0), (12346, DOMAIN_PROTOCOL, 0)),
    ],
    ids=["element", "domain", "order", "length", "seed"],
)
def test_different_paths_give_different_streams(a, b):
    assert not np.array_equal(draws(*a), draws(*b))


def test_numpy_integer_path_elements_give_the_python_int_stream():
    want = draws(12345, DOMAIN_IMAGE, 1, 3, 7)
    got = draws(np.int64(12345), np.int8(DOMAIN_IMAGE), np.uint16(1), np.int32(3), np.int64(7))
    np.testing.assert_array_equal(got, want)


def test_first_protocol_draw_is_pinned():
    # a change of bit generator or seed derivation shows here before the golden trees
    assert derive(12345, DOMAIN_PROTOCOL, 0).random() == 0.7741921356747337
