import random
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from divisor_text import parse_divisor
from tau_oracle import dense_product, eigenvalue_divisor, embed_complex, range_tau
from zetalab.cyclotomy import Divisor, Root, rho_tilde, sigma
from zetalab.witt import (
    DivisorMatrix,
    MonoidMatrix,
    compose,
    fourier_pair,
    frobenius,
    smash,
    tau,
    verschiebung,
    wedge,
)


def random_matrix(rng, max_n=6, max_den=6, fill=0.8):
    n = rng.randint(1, max_n)
    cols = {}
    for j in range(1, n + 1):
        if rng.random() < fill:
            den = rng.randint(1, max_den)
            cols[j] = (rng.randint(1, n), Root(rng.randrange(den), den))
    return MonoidMatrix(n, cols)


def random_root(rng, max_den=6):
    den = rng.randint(1, max_den)
    return Root(rng.randrange(den), den)


def tailed_matrix(rng, n):
    """A pointed map on n shuffled columns: a few cycles, fixed points among
    them, over about a quarter of the columns; the rest form tails, each
    column unbound or bound, mostly to the column before it, so the tails
    run long into the cycles or into unbound columns."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    cols, pos = {}, 0
    while pos < n // 4:
        cycle = order[pos:pos + rng.choice((1, 1, 2, 3, 5))]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            cols[a] = (b, random_root(rng))
        pos += len(cycle)
    for k in range(pos, n):
        if k and rng.random() < 0.9:
            target = order[k - 1] if rng.random() < 0.8 else order[rng.randrange(k)]
            cols[order[k]] = (target, random_root(rng))
    return MonoidMatrix(n, cols)


roots = st.builds(Root, st.integers(0, 40), st.integers(1, 24))
signed = st.lists(st.tuples(roots, st.integers(-3, 3)), max_size=3).map(Divisor)


@st.composite
def cancelling_factors(draw):
    """(a, b) whose j = 0, 1 terms of a @ b cancel: columns 0 and 1 of a are
    equal and row 1 of b is minus row 0."""
    n = draw(st.integers(2, 4))
    a = [[draw(signed) for _ in range(n)] for _ in range(n)]
    b = [[draw(signed) for _ in range(n)] for _ in range(n)]
    for row in a:
        row[1] = row[0]
    b[1] = [-x for x in b[0]]
    return DivisorMatrix(n, a), DivisorMatrix(n, b)


@st.composite
def monoid_and_divisor(draw):
    """(M, A) of one size: M's columns are unbound or bound to any row, so
    some rows collect several columns; A's entries are signed divisors."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.none() | st.integers(1, n), min_size=n, max_size=n))
    m = MonoidMatrix(n, {j: (i, draw(roots)) for j, i in enumerate(rows, 1) if i})
    return m, DivisorMatrix(n, [[draw(signed) for _ in range(n)] for _ in range(n)])


# column 2 unbound, columns 1 and 3 both bound to row 2
SHARED_ROW = MonoidMatrix(3, {1: (2, Root(1, 3)), 3: (2, Root(1, 4))})


TWO_CYCLE = MonoidMatrix(2, {1: (2, Root(1, 4)), 2: (1, Root(1, 3))})


def unit_shift_cases():
    """(A, M) with M a permutation by e(0): V and W against C(n), and a
    seeded permutation against signed divisors."""
    for n in (1, 3, 8):
        v, w, c, _ = fourier_pair(n)
        yield v, c
        yield w, c
    rng = random.Random(13)
    perm = list(range(1, 6))
    rng.shuffle(perm)
    m = MonoidMatrix(5, {j: (i, Root(0)) for j, i in enumerate(perm, 1)})
    yield DivisorMatrix(5, [[Divisor([(random_root(rng), rng.randint(-3, 3)) for _ in range(3)])
                             for _ in range(5)] for _ in range(5)]), m


UNIT_SHIFT_CASES = list(unit_shift_cases())


def identity(n):
    return MonoidMatrix(n, {j: (j, Root(0)) for j in range(1, n + 1)})


class TestCompose:
    def test_identity(self):
        rng = random.Random(0)
        for _ in range(10):
            t = random_matrix(rng)
            eye = identity(t.n)
            assert compose(eye, t) == t
            assert compose(t, eye) == t

    def test_two_cycle_squares_to_diagonal(self):
        sq = compose(TWO_CYCLE, TWO_CYCLE)
        assert sq == MonoidMatrix(2, {1: (1, Root(7, 12)), 2: (2, Root(7, 12))})

    def test_empty_column_absorbs(self):
        t = MonoidMatrix(2, {1: (2, Root(1, 3))})  # column 2 empty
        sq = compose(t, t)
        assert 1 not in sq.cols and 2 not in sq.cols

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(2), identity(3))

    @pytest.mark.parametrize("n, cols", [(2.5, {}), (2, {1.5: (1, Root(0))}), (2, {1: (1.0, Root(0))})],
                             ids=["n", "column", "row"])
    def test_rejects_non_integer_indices(self, n, cols):
        # a float index fails at construction; truncated, 1.5 would bind column 1
        with pytest.raises(TypeError):
            MonoidMatrix(n, cols)

    def test_associativity(self):
        rng = random.Random(1)
        for _ in range(20):
            a = random_matrix(rng, max_n=5)
            # build b, c with matching dimension
            def rand_same(nn):
                cols = {}
                for j in range(1, nn + 1):
                    if rng.random() < 0.8:
                        den = rng.randint(1, 6)
                        cols[j] = (rng.randint(1, nn), Root(rng.randrange(den), den))
                return MonoidMatrix(nn, cols)

            b, c = rand_same(a.n), rand_same(a.n)
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestTau:
    def test_one_dimensional(self):
        assert tau(MonoidMatrix(1, {1: (1, Root(2, 5))})) == Divisor.of(Root(2, 5))

    def test_two_cycle(self):
        assert tau(TWO_CYCLE) == parse_divisor("e(7/24) + e(19/24)")

    def test_nilpotent_chain(self):
        t = MonoidMatrix(3, {2: (1, Root(1, 3)), 3: (2, Root(1, 5))})
        assert tau(t) == Divisor()

    def test_zero_matrix(self):
        assert tau(MonoidMatrix(3)) == Divisor()

    def test_wedge_additive(self):
        rng = random.Random(2)
        for _ in range(25):
            t1, t2 = random_matrix(rng), random_matrix(rng)
            assert tau(wedge(t1, t2)) == tau(t1) + tau(t2)

    def test_smash_multiplicative_on_lines(self):
        assert tau(smash(
            MonoidMatrix(1, {1: (1, Root(1, 3))}),
            MonoidMatrix(1, {1: (1, Root(1, 4))}),
        )) == Divisor.of(Root(7, 12))

    def test_smash_multiplicative(self):
        rng = random.Random(3)
        for _ in range(15):
            t1, t2 = random_matrix(rng, max_n=4), random_matrix(rng, max_n=4)
            assert tau(smash(t1, t2)) == tau(t1) * tau(t2)

    def test_smash_with_unit(self):
        rng = random.Random(4)
        unit = MonoidMatrix(1, {1: (1, Root(0))})
        for _ in range(10):
            t = random_matrix(rng)
            assert tau(smash(t, unit)) == tau(t)
            assert tau(smash(unit, t)) == tau(t)

    def test_similarity_invariance_diagonal(self):
        # conjugation by an invertible diagonal with Root entries
        rng = random.Random(5)
        for _ in range(25):
            t = random_matrix(rng)
            diag = [Root(rng.randrange(6), rng.randint(1, 6)) for _ in range(t.n)]
            cols = {}
            for j, (i, r) in t.cols.items():
                cols[j] = (i, diag[i - 1] + r - diag[j - 1])
            assert tau(MonoidMatrix(t.n, cols)) == tau(t)

    def test_matches_range_oracle(self):
        rng = random.Random(10)
        for n in [1, 2, 3, 5, 8] + [rng.randint(10, 80) for _ in range(60)]:
            t = tailed_matrix(rng, n)
            assert tau(t) == range_tau(t)

    def test_long_chain_into_cycle(self):
        # columns 1..n-3 form one chain into the 3-cycle n-2 -> n-1 -> n -> n-2
        n = 20_000
        cols = {j: (j + 1, Root(1, 2)) for j in range(1, n - 2)}
        cols.update({n - 2: (n - 1, Root(1, 5)), n - 1: (n, Root(1, 7)), n: (n - 2, Root(0))})
        assert tau(MonoidMatrix(n, cols)) == rho_tilde(3, Divisor.of(Root(12, 35)))

    def test_similarity_invariance_permutation(self):
        rng = random.Random(6)
        for _ in range(25):
            t = random_matrix(rng)
            perm = list(range(1, t.n + 1))
            rng.shuffle(perm)
            cols = {perm[j - 1]: (perm[i - 1], r) for j, (i, r) in t.cols.items()}
            assert tau(MonoidMatrix(t.n, cols)) == tau(t)


class TestFrobeniusVerschiebung:
    def test_f1_v1(self):
        rng = random.Random(7)
        t = random_matrix(rng)
        assert frobenius(1, t) == t
        assert verschiebung(1, t) == t

    def test_f2_of_two_cycle(self):
        assert frobenius(2, TWO_CYCLE) == compose(TWO_CYCLE, TWO_CYCLE)
        assert tau(frobenius(2, TWO_CYCLE)) == sigma(2, tau(TWO_CYCLE))
        assert tau(frobenius(2, TWO_CYCLE)) == parse_divisor("2*e(7/12)")

    def test_frobenius_matches_repeated_compose(self):
        rng = random.Random(11)
        for _ in range(10):
            t = random_matrix(rng)
            for n in range(1, 9):
                assert frobenius(n, t) == reduce(compose, [t] * n)

    def test_frobenius_huge_power(self):
        rng = random.Random(12)
        cycles = MonoidMatrix(3, {1: (2, Root(1, 4)), 2: (1, Root(1, 3)), 3: (3, Root(2, 7))})
        for t in [cycles] + [random_matrix(rng, max_n=3) for _ in range(5)]:
            assert tau(frobenius(10**9, t)) == sigma(10**9, tau(t))

    def test_frobenius_rejects_bad_powers(self):
        with pytest.raises(TypeError):
            frobenius(2.0, TWO_CYCLE)
        with pytest.raises(ValueError):
            frobenius(0, TWO_CYCLE)

    def test_v2_unrolled(self):
        t = MonoidMatrix(1, {1: (1, Root(1, 3))})
        v2 = verschiebung(2, t)
        assert v2 == MonoidMatrix(2, {1: (2, Root(0)), 2: (1, Root(1, 3))})
        assert tau(v2) == parse_divisor("e(1/6) + e(2/3)")
        assert tau(v2) == rho_tilde(2, tau(t))

    def test_tau_intertwines(self):
        rng = random.Random(8)
        for _ in range(40):
            t = random_matrix(rng)
            d = tau(t)
            for n in range(1, 7):
                assert tau(frobenius(n, t)) == sigma(n, d)
                assert tau(verschiebung(n, t)) == rho_tilde(n, d)


class TestFourier:
    def test_n1(self):
        v, w, c, d = fourier_pair(1)
        assert v.rows[0][0] == Divisor.of(Root(0)) == w.rows[0][0]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            fourier_pair(0)

    @pytest.mark.parametrize("n", [2, 3, 6, 12])
    def test_exact_relations(self, n):
        v, w, c, d = fourier_pair(n)
        assert d @ v == v @ c == dense_product(v, c)
        assert c @ w == w @ d == dense_product(c, w)

    @given(cancelling_factors())
    @settings(max_examples=40, deadline=None)
    def test_signed_products_match_complex_model(self, ab):
        a, b = ab
        n = a.n
        prod = dense_product(a, b)
        rest = [[sum((a[i, j] * b[j, k] for j in range(2, n)), Divisor()) for k in range(n)]
                for i in range(n)]
        assert prod == DivisorMatrix(n, rest)
        with mp.workprec(128):
            gap = embed_complex(prod) - embed_complex(a) * embed_complex(b)
            assert mp.mnorm(gap, 1) < mp.mpf(2) ** -100

    @pytest.mark.parametrize("n", [2, 6])
    def test_vw_equals_n_in_complex_model(self, n):
        v, w, _, _ = fourier_pair(n)
        prod = dense_product(v, w)
        with mp.workprec(256):
            num = embed_complex(prod)
            tol = mp.mpf(2) ** -200
            for i in range(n):
                for j in range(n):
                    want = n if i == j else 0
                    assert abs(num[i, j] - want) < tol


class TestDivisorMatrix:
    @given(monoid_and_divisor())
    @example((SHARED_ROW, DivisorMatrix(3, [[Divisor.of(Root(i + j, 5), i - j) for j in range(3)]
                                            for i in range(3)])))
    @settings(max_examples=60, deadline=None)
    def test_both_sides_match_dense_and_complex(self, ma):
        m, a = ma
        right, left = a @ m, m @ a
        assert right == dense_product(a, m)
        assert left == dense_product(m, a)
        with mp.workprec(128):
            em, ea = embed_complex(m), embed_complex(a)
            for exact, num in ((right, ea * em), (left, em * ea)):
                assert mp.mnorm(embed_complex(exact) - num, 1) < mp.mpf(2) ** -100

    @pytest.mark.parametrize("a, m", UNIT_SHIFT_CASES)
    def test_unit_shifts_reuse_entries(self, a, m):
        # m binds every column by e(0): both products permute the entries of
        # a, the same Divisor objects, without rebuilding them
        right, left = a @ m, m @ a
        for j, (i, _root) in m.cols.items():
            assert all(right[x, j - 1] is a[x, i - 1] for x in range(a.n))
            assert all(left[i - 1, y] is a[j - 1, y] for y in range(a.n))
        assert right == dense_product(a, m)
        assert left == dense_product(m, a)

    def test_hashable(self):
        v, w, _, _ = fourier_pair(3)
        again = DivisorMatrix(3, [list(row) for row in v.rows])
        assert again == v and hash(again) == hash(v)
        assert len({v, again, w}) == 2

    def test_dimension_mismatch(self):
        a = fourier_pair(3)[0]
        for m in (MonoidMatrix(2), MonoidMatrix(4)):
            with pytest.raises(ValueError):
                a @ m
            with pytest.raises(ValueError):
                m @ a

    def test_no_product_of_two_divisor_matrices(self):
        v, w, _, _ = fourier_pair(3)
        with pytest.raises(TypeError):
            v @ w

    def test_rejects_non_divisor_entries(self):
        with pytest.raises(TypeError):
            DivisorMatrix(2, [[1, 0], [0, 1]])


class TestOracle:
    def test_two_cycle(self):
        assert eigenvalue_divisor(TWO_CYCLE) == tau(TWO_CYCLE)

    def test_matches_tau_randomized(self):
        rng = random.Random(9)
        for _ in range(40):
            t = random_matrix(rng, max_n=5)
            assert eigenvalue_divisor(t) == tau(t)

    def test_empty(self):
        assert eigenvalue_divisor(MonoidMatrix(4)) == Divisor()
