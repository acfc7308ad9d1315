import math

import pytest

from ledgerloop.rng import MASK64, SplitMix64, derive_seed, splitmix64_next, unit_float


# Reference outputs of the canonical SplitMix64 algorithm from seed 0.
SEED0_OUTPUTS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_reference_vectors():
    state = 0
    for expected in SEED0_OUTPUTS:
        state, out = splitmix64_next(state)
        assert out == expected


def test_splitmix64_stream_matches_step_function():
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in range(3)] == list(SEED0_OUTPUTS)


def test_unit_float_range_and_value():
    u = unit_float(SEED0_OUTPUTS[0])
    assert 0.0 <= u < 1.0
    assert u == (SEED0_OUTPUTS[0] >> 11) * 2.0**-53


def test_derive_seed_deterministic_and_sensitive():
    a = derive_seed(7, "p1", 0)
    assert a == derive_seed(7, "p1", 0)
    assert a != derive_seed(7, "p1", 1)
    assert a != derive_seed(7, "p2", 0)
    assert a != derive_seed(8, "p1", 0)
    assert 0 <= a <= MASK64


def test_derive_seed_part_boundaries_matter():
    # "ab" + "c" and "a" + "bc" must not collide by construction of the test
    # inputs below; the derivation concatenates raw bytes, so this documents
    # that distinct purpose tags should not be ambiguous prefixes.
    assert derive_seed(0, "twin-noise", "p1") != derive_seed(0, "twin-", "noisep1")


def test_gauss_is_deterministic_and_plausible():
    gen = SplitMix64(1234)
    values = [gen.next_gauss() for _ in range(2000)]
    gen2 = SplitMix64(1234)
    assert values == [gen2.next_gauss() for _ in range(2000)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert abs(mean) < 0.1
    assert abs(var - 1.0) < 0.15
    assert all(math.isfinite(v) for v in values)


def test_geometric_p_one_is_always_zero():
    gen = SplitMix64(5)
    assert all(gen.next_geometric(1.0) == 0 for _ in range(100))


def test_geometric_distribution_mass():
    gen = SplitMix64(99)
    draws = [gen.next_geometric(0.5) for _ in range(20000)]
    assert all(k >= 0 for k in draws)
    frac0 = sum(1 for k in draws if k == 0) / len(draws)
    assert abs(frac0 - 0.5) < 0.02
    mean = sum(draws) / len(draws)
    assert abs(mean - 1.0) < 0.05  # E[k] = (1-p)/p = 1


def test_geometric_consumes_one_draw_regardless_of_p():
    g1 = SplitMix64(42)
    g2 = SplitMix64(42)
    g1.next_geometric(0.2)
    g2.next_geometric(0.9)
    assert g1.state == g2.state


# -- each method against the reference composition --------------------------------

_GOLDEN = 0x9E3779B97F4A7C15
# Seed 0, the largest seed, and states whose next step wraps past 2**64.
SEEDS = (0, MASK64, MASK64 - _GOLDEN + 1, MASK64 - _GOLDEN + 2**40)
DRAWS = 10_000


def reference_float(state):
    state, word = splitmix64_next(state)
    return state, unit_float(word)


def reference_gauss(state):
    state, a = reference_float(state)
    state, b = reference_float(state)
    return state, math.sqrt(-2.0 * math.log(1.0 - a)) * math.cos(2.0 * math.pi * b)


def reference_geometric(state, p):
    state, u = reference_float(state)
    if p >= 1.0 or u == 0.0:
        return state, 0
    return state, int(math.log1p(-u) // math.log1p(-p))


def draws_of(method, reference, seed):
    """``DRAWS`` draws of a SplitMix64 method and of its reference, each with
    the state after it; floats as their bits."""
    gen, state = SplitMix64(seed), seed
    got, want = [], []
    for _ in range(DRAWS):
        value = method(gen)
        state, expected = reference(state)
        got.append((value.hex() if isinstance(value, float) else value, gen.state))
        want.append((expected.hex() if isinstance(expected, float) else expected, state))
    return got, want


def test_seeds_include_states_that_wrap():
    assert all(seed + _GOLDEN > MASK64 for seed in SEEDS[1:])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "method, reference",
    [
        (SplitMix64.next_u64, splitmix64_next),
        (SplitMix64.next_float, reference_float),
        (SplitMix64.next_gauss, reference_gauss),
    ],
    ids=["u64", "float", "gauss"],
)
def test_each_draw_has_the_bits_of_the_reference_composition(method, reference, seed):
    got, want = draws_of(method, reference, seed)
    assert got == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", [1.0, 0.95, 0.5, 1e-9])
def test_geometric_draws_match_the_reference_inversion(p, seed):
    got, want = draws_of(
        lambda gen: gen.next_geometric(p), lambda state: reference_geometric(state, p), seed
    )
    assert got == want


def _unmix(word: int) -> int:
    """The stepped state whose SplitMix64 output is ``word``: the finalizer
    inverted, each xorshift undone and each multiplier inverted mod 2**64."""
    def unshift(z, k):
        x = z
        for _ in range(64 // k):
            x = z ^ (x >> k)
        return x

    z = unshift(word, 31)
    z = unshift((z * pow(0x94D049BB133111EB, -1, 2**64)) & MASK64, 27)
    return unshift((z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & MASK64, 30)


def test_a_zero_uniform_reaches_the_geometric_guard():
    # A nonzero word below 2**11 maps to u == 0.0, where log1p(-u) is 0.
    stepped = _unmix(0x7FF)
    state = (stepped - _GOLDEN) & MASK64
    assert splitmix64_next(state) == (stepped, 0x7FF)
    assert unit_float(0x7FF) == 0.0
    for p in (0.95, 0.5, 1e-9):
        gen = SplitMix64(state)
        assert gen.next_geometric(p) == 0
        assert gen.state == stepped
    assert SplitMix64(state).next_float() == 0.0
    with pytest.raises(ValueError, match="must be > 0"):
        SplitMix64(state).next_geometric(0.0)
