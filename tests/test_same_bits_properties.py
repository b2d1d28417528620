"""Property tests: the closed forms and fast idioms have the bits of what they replace.

Each compares the bytes of two arrays, so that even the sign of a zero counts:
``scenario.distances`` against ``np.linalg.norm`` over the length-2 axis,
``objective.noise_gradient_matrix`` against ``gradient_matrix`` at sigma^2 I,
the reciprocal scaling ``synthesize`` averages with against complex division,
and ``scenario.seed_states`` and ``streams`` against numpy's ``SeedSequence`` and
``default_rng``, which guards the per-AP streams if numpy ever changes its hash.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from coopdetect.objective import gradient_matrix, noise_gradient_matrix
from coopdetect.scenario import distances, entropy_rows, seed_states, seed_words, streams

finite = st.floats(allow_nan=False, allow_infinity=False)


def points(count):
    return st.lists(st.tuples(finite, finite), min_size=1, max_size=count).map(
        lambda p: np.array(p, dtype=float))


@given(points(12), points(12))
def test_distances_are_numpys_norm(a, b):
    with np.errstate(over="ignore"):  # far apart points overflow to inf on both sides
        want = np.linalg.norm(a[:, None] - b[None], axis=2)
        assert distances(a, b).tobytes() == want.tobytes()


def gram_stack(seed, k, l, scale_exp):
    """k random Hermitian PSD (l, l) matrices Y Y^H / m, scaled by 10^scale_exp."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 2 * l + 2))
    y = rng.standard_normal((k, l, m)) + 1j * rng.standard_normal((k, l, m))
    return (y @ y.conj().swapaxes(-1, -2)) * (10.0 ** scale_exp / m)


@given(st.integers(1, 70), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3), st.floats(-8, 8))
@example(70, 3, 0, [-10.0, 0.0, 10.0], 8.0)        # the largest L, at both ends of the decades
@example(64, 1, 1, [1.14, 0.0, 0.0], 5.3)           # long_pilot's L and signal-to-noise scale
def test_first_round_gradient_is_gradient_matrix(l, k, seed, noise_exps, scale_exp):
    # One noise power per matrix of the stack, as batched problems have.
    covs = gram_stack(seed, k, l, scale_exp)
    sigma = (10.0 ** np.array(noise_exps[:k]))[:, None, None] * np.eye(l, dtype=complex)
    want = gradient_matrix(sigma, covs)
    assert noise_gradient_matrix(sigma, covs).tobytes() == want.tobytes()


@given(st.integers(1, 10**6), st.lists(st.tuples(finite, finite), min_size=1, max_size=40))
def test_reciprocal_scaling_is_complex_division(m, parts):
    # Adding 0.0 turns a -0.0 part into 0.0: the one case where the two differ
    # (numpy's division adds parts times zero that keep a -0.0 there); a
    # product Y Y^H never holds one, which the next test checks.
    x = np.array([complex(re + 0.0, im + 0.0) for re, im in parts])
    divided, scaled = x.copy(), x.copy()
    divided /= m
    scaled *= 1.0 / m
    assert scaled.tobytes() == divided.tobytes()


@given(st.integers(1, 1024), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_reciprocal_scaling_of_sample_covariances(m, l, seed):
    y = np.random.default_rng(seed).standard_normal((2, 3, l, m))
    y = y[0] + 1j * y[1]
    cov = y @ y.conj().swapaxes(-1, -2)
    divided, scaled = cov.copy(), cov
    divided /= m
    scaled *= 1.0 / m
    assert scaled.tobytes() == divided.tobytes()


# Seeds at the word boundaries of numpy's entropy, and any up to five words.
seeds = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**160))
ap_ids = st.lists(st.integers(0, 300), min_size=1, max_size=12)


def padded(words):
    return [*words, *[0] * (4 - len(words))]


@given(seeds, ap_ids, st.integers(0, 2**32 - 1))
@example(2**64 - 1, [0, 300], 3)
@example(0, [0], 0)
def test_seed_states_with_a_spawn_key_are_numpys(seed, ids, key):
    # The child SeedSequence(seed).spawn(k + 1)[k].spawn(i + 1)[i] is the one with spawn key (k, i).
    got = seed_states(entropy_rows([*padded(seed_words(seed)), key], np.array(ids)))
    want = [np.random.SeedSequence(seed, spawn_key=(key, i)).generate_state(4, np.uint64)
            for i in ids]
    assert got.tobytes() == np.array(want).tobytes()


@given(seeds, ap_ids, st.integers(0, 2**32 - 1))
@example(2**32 - 1, [0, 1, 300], 0x5E1EC7)
@example(2**32, [300], 0x5E1EC7)
def test_seed_states_without_a_spawn_key_are_numpys(seed, ids, salt):
    got = seed_states(entropy_rows([salt, *seed_words(seed)], np.array(ids)))
    want = [np.random.SeedSequence([salt, seed, i]).generate_state(4, np.uint64) for i in ids]
    assert got.tobytes() == np.array(want).tobytes()


@given(seeds, ap_ids, st.booleans())
def test_streams_draw_what_default_rng_draws(seed, ids, spawned):
    if spawned:
        words = entropy_rows([*padded(seed_words(seed)), 3], np.array(ids))
        sequences = [np.random.SeedSequence(seed, spawn_key=(3, i)) for i in ids]
    else:
        words = entropy_rows([0x5E1EC7, *seed_words(seed)], np.array(ids))
        sequences = [np.random.SeedSequence([0x5E1EC7, seed, i]) for i in ids]
    for rng, sequence in zip(streams(words), sequences, strict=True):
        want = np.random.default_rng(sequence)
        assert rng.standard_normal(7).tobytes() == want.standard_normal(7).tobytes()
        assert rng.random(5).tobytes() == want.random(5).tobytes()
