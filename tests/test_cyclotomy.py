import operator
import random
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from divisor_text import parse_divisor
from zetalab.cyclotomy import Divisor, Root, divisor_mul, rho_tilde, sigma

roots = st.builds(Root, st.integers(0, 40), st.integers(1, 24))
pairs = st.lists(st.tuples(roots, st.integers(-5, 5)), max_size=12)
divisors = st.lists(st.tuples(roots, st.integers(-5, 5)), max_size=6).map(Divisor)


def random_divisor(rng, max_den=12, max_terms=5):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        den = rng.randint(1, max_den)
        terms.append((Root(rng.randrange(den), den), rng.randint(-4, 4)))
    return Divisor(terms)


class TestRoot:
    def test_reduction_and_range(self):
        r = Root(10, 6)
        assert (r.num, r.den) == (2, 3)
        assert (Root(-1, 3).num, Root(-1, 3).den) == (2, 3)
        assert Root(7, 7) == Root(0, 1)

    def test_add_examples(self):
        assert Root(1, 3) + Root(1, 4) == Root(7, 12)
        assert Root(1, 2) + Root(1, 2) == Root(0, 1)
        assert Root(5, 6) + Root(5, 6) == Root(2, 3)
        assert Root(3, 4) - Root(1, 2) == Root(1, 4)

    @given(roots, roots, roots)
    def test_group_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + Root(0) == a
        assert a + (-a) == Root(0)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.lt])
    @pytest.mark.parametrize("other", [1, Fraction(1, 2), "1/2"])
    def test_non_root_operand_raises_type_error(self, op, other):
        # the operator returns NotImplemented, not an AttributeError on other.den
        with pytest.raises(TypeError):
            op(Root(1, 2), other)

    def test_preimages(self):
        assert Root(0).preimages(2) == [Root(0), Root(1, 2)]
        pre = Root(1, 3).preimages(2)
        assert sorted(pre) == [Root(2, 3), Root(1, 6)]
        for rp in pre:
            assert rp.scale(2) == Root(1, 3)


class TestSigmaRho:
    def test_sigma_examples(self):
        assert sigma(2, Divisor.of(Root(1, 3))) == Divisor.of(Root(2, 3))
        assert sigma(3, parse_divisor("e(1/3) + e(2/3)")) == parse_divisor("2*e(0)")

    def test_rho_examples(self):
        assert rho_tilde(2, Divisor.of(Root(0))) == parse_divisor("e(0) + e(1/2)")
        assert rho_tilde(2, Divisor.of(Root(1, 3))) == parse_divisor("e(1/6) + e(2/3)")
        assert rho_tilde(3, Divisor.of(Root(0))) == parse_divisor("e(0) + e(1/3) + e(2/3)")

    def test_sigma_rho_roundtrip_example(self):
        x = Divisor.of(Root(1, 3))
        assert sigma(2, rho_tilde(2, x)) == 2 * x

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sigma(0, Divisor.of(Root(0)))
        with pytest.raises(ValueError):
            rho_tilde(-1, Divisor.of(Root(0)))

    def test_composition_laws(self):
        rng = random.Random(7)
        for _ in range(30):
            x = random_divisor(rng)
            for n in (2, 3, 4):
                for m in (2, 3):
                    assert sigma(n, sigma(m, x)) == sigma(n * m, x)
                    assert rho_tilde(n, rho_tilde(m, x)) == rho_tilde(n * m, x)

    def test_sigma_rho_n_times(self):
        rng = random.Random(8)
        for _ in range(20):
            x = random_divisor(rng)
            for n in range(1, 13):
                assert sigma(n, rho_tilde(n, x)) == n * x
                # the augmentation map to Z: the sum of the coefficients
                assert sum(c for _, c in rho_tilde(n, x).items()) == n * sum(c for _, c in x.items())

    def test_projection_formula(self):
        # rho_n(sigma_n(x) * y) == x * rho_n(y): the crossed-product relation
        rng = random.Random(9)
        for _ in range(20):
            x = random_divisor(rng, max_den=8, max_terms=3)
            y = random_divisor(rng, max_den=8, max_terms=3)
            for n in range(1, 9):
                assert rho_tilde(n, sigma(n, x) * y) == x * rho_tilde(n, y)

    def test_coprime_commutation(self):
        rng = random.Random(10)
        for _ in range(20):
            x = random_divisor(rng, max_den=8, max_terms=3)
            for n, m in [(2, 3), (3, 4), (2, 5), (5, 6), (3, 7)]:
                assert sigma(n, rho_tilde(m, x)) == rho_tilde(m, sigma(n, x))


class TestDivisorRing:
    def test_mul_examples(self):
        assert Divisor.of(Root(1, 3)) * Divisor.of(Root(1, 4)) == Divisor.of(Root(7, 12))
        two = parse_divisor("e(0) + e(1/2)")
        assert two * two == parse_divisor("2*e(0) + 2*e(1/2)")
        assert parse_divisor("e(1/6) + e(2/3)") * Divisor.of(Root(1, 2)) == parse_divisor(
            "e(2/3) + e(1/6)"
        )

    @given(divisors, divisors, divisors)
    @settings(max_examples=60)
    def test_ring_laws(self, x, y, z):
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    def test_unit(self):
        one = Divisor.of(Root(0))
        x = parse_divisor("3*e(1/5) - e(0)")
        assert divisor_mul(one, x) == x

    def test_zero_coefficients_dropped(self):
        d = Divisor([(Root(1, 3), 2), (Root(1, 3), -2)])
        assert not d
        assert d == Divisor()


class TestAccumulator:
    @given(pairs)
    def test_pair_stream_matches_counter(self, terms):
        ref: Counter = Counter()
        for root, coeff in terms:
            ref[root] += coeff
        got = Divisor(iter(terms))
        assert list(got.items()) == sorted((r, c) for r, c in ref.items() if c)

    @given(pairs)
    def test_pair_stream_cancels_fully(self, terms):
        # every pair followed later by its negative, as one generator
        d = Divisor((r, sign * c) for sign in (1, -1) for r, c in terms)
        assert not d and d == Divisor() and not list(d.items())

    def test_mapping_input_and_key_check(self):
        third = Root(1, 3)
        d = Divisor(MappingProxyType({third: 2, Root(0): 0}))
        assert list(d.items()) == [(third, 2)]
        for bad in ({"1/3": 1}, [(Fraction(1, 3), 1)], [(third, 1), ((1, 3), 1)]):
            with pytest.raises(TypeError):
                Divisor(bad)

    @pytest.mark.parametrize("coeff", [1.5, Fraction(1, 3), mp.mpf(2)],
                             ids=["float", "fraction", "mpf"])
    def test_rejects_non_integer_coefficients(self, coeff):
        half = Root(1, 2)
        for terms in ([(half, coeff)], {half: coeff}, [(half, 1), (Root(0), coeff)]):
            with pytest.raises(TypeError):
                Divisor(terms)

    def test_reads_integer_like_coefficients_as_int(self):
        d = Divisor([(Root(1, 2), np.int64(2)), (Root(1, 3), True)])
        assert list(d.items()) == [(Root(1, 2), 2), (Root(1, 3), 1)]
        assert all(type(c) is int for _, c in d.items())


class TestSerialization:
    def test_format_sorted_by_den_num(self):
        d = Divisor([(Root(1, 6), 1), (Root(2, 3), 1), (Root(0), 2)])
        assert str(d) == "2*e(0) + e(2/3) + e(1/6)"

    def test_negative_and_unit_coefficients(self):
        d = Divisor([(Root(1, 2), -1), (Root(0), 1)])
        assert str(d) == "e(0) - e(1/2)"

    def test_empty(self):
        assert str(Divisor()) == "0"
        assert parse_divisor("0") == Divisor()

    @given(divisors)
    def test_roundtrip(self, d):
        assert parse_divisor(str(d)) == d
        assert eval(repr(d)) == d
