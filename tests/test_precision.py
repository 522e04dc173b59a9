import random

import numpy as np
import pytest
from mpmath import mp, mpf

from zetalab.precision import HPMatrix, jacobi_eigensystem


def random_symmetric(rng, n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.uniform(-2, 2)
        for j in range(i):
            a[i][j] = a[j][i] = rng.uniform(-1, 1)
    return a


class TestHPMatrix:
    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            HPMatrix([[1, 2], [3, 1]], 128)

    @pytest.mark.parametrize("entries", [[[1j, 0], [0, 1]], [[1, 1j], [-1j, 1]]])
    def test_rejects_complex_entries(self, entries):
        with pytest.raises(ValueError, match="real"):
            HPMatrix(entries, 128)

    def test_keeps_symmetric_entries_exactly(self):
        # an entry already equal to its mirror is not rounded to 128 bits
        with mp.workprec(256):
            third = mpf(1) / 3
        m = HPMatrix([[1, third], [third, 2]], 128)
        assert m[0, 1] == third and m[1, 0] == third

    def test_enforces_exact_symmetry(self):
        eps = 1e-25
        m = HPMatrix([[1, 0.5 + eps], [0.5, 2]], 64)
        assert m[0, 1] == m[1, 0]

    def test_shape_check(self):
        with pytest.raises(ValueError):
            HPMatrix([[1, 0]], 128)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HPMatrix([[1, 0, bad], [0, 2, 0], [bad, 0, 3]], 128)


class TestJacobi:
    def test_diagonal(self):
        m = HPMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]], 128)
        res = jacobi_eigensystem(m)
        assert [float(x) for x in res.eigenvalues] == [1.0, 2.0, 3.0]

    def test_swap(self):
        res = jacobi_eigensystem(HPMatrix([[0, 1], [1, 0]], 128))
        assert [float(x) for x in res.eigenvalues] == [-1.0, 1.0]
        assert float(res.max_residual()) < 1e-30

    def test_trace_identity_12x12_256bits(self):
        rng = random.Random(5)
        a = random_symmetric(rng, 12)
        m = HPMatrix(a, 256)
        res = jacobi_eigensystem(m)
        with mp.workprec(300):
            trace = mp.fsum(m[i, i] for i in range(12))
            diff = abs(mp.fsum(res.eigenvalues) - trace)
        assert diff < mpf(10) ** -70
        assert float(res.max_residual()) < 1e-70

    @pytest.mark.parametrize("seed", [7, 8, 9, 10])
    def test_matches_numpy(self, seed):
        m = HPMatrix(random_symmetric(random.Random(seed), 9), 192)
        res = jacobi_eigensystem(m)
        ref = np.linalg.eigvalsh(np.array([[float(x) for x in r] for r in m.rows]))
        got = np.array([float(x) for x in res.eigenvalues])
        assert np.allclose(got, ref, atol=1e-12)

    def test_eigenvector_orthonormality(self):
        rng = random.Random(11)
        m = HPMatrix(random_symmetric(rng, 8), 192)
        res = jacobi_eigensystem(m)
        with mp.workprec(200):
            for i in range(8):
                for j in range(i + 1):
                    dot = mp.fdot(res.vectors[i], res.vectors[j])
                    want = 1 if i == j else 0
                    assert abs(dot - want) < mpf(2) ** -150

    def test_tiny_eigenvalue_resolved(self):
        # 2x2 with eigenvalues ~ {1, 1e-60}: certified at 256 bits
        with mp.workprec(300):
            e = mpf(10) ** -60
            c = mp.cos(mpf(1) / 3)
            s = mp.sin(mpf(1) / 3)
            a = [
                [c * c + e * s * s, (1 - e) * c * s],
                [(1 - e) * c * s, s * s + e * c * c],
            ]
        m = HPMatrix(a, 256)
        res = jacobi_eigensystem(m)
        small = res.eigenvalues[0]
        assert abs(small - mpf(10) ** -60) < mpf(10) ** -70
        assert res.max_residual() < mpf(2) ** -200

    def test_empty(self):
        res = jacobi_eigensystem(HPMatrix([], 128))
        assert res.eigenvalues == []
