import random

import numpy as np
import pytest
from mpmath import mp, mpf

from zetalab.precision import EigenResult, HPMatrix, jacobi_eigensystem


def random_hermitian(rng, n, cplx=False):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.uniform(-2, 2)
        for j in range(i):
            v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if cplx else rng.uniform(-1, 1)
            a[i][j] = v
            a[j][i] = v.conjugate() if cplx else v
    return a


class TestHPMatrix:
    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            HPMatrix([[1, 2], [3, 1]], 128)

    def test_rejects_complex_diagonal(self):
        with pytest.raises(ValueError):
            HPMatrix([[1j, 0], [0, 1]], 128)

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
        res = jacobi_eigensystem(m, want_vectors=False)
        assert [float(x) for x in res.eigenvalues] == [1.0, 2.0, 3.0]

    def test_swap(self):
        res = jacobi_eigensystem(HPMatrix([[0, 1], [1, 0]], 128), want_vectors=True)
        assert [float(x) for x in res.eigenvalues] == [-1.0, 1.0]
        assert float(res.max_residual()) < 1e-30

    def test_trace_identity_12x12_256bits(self):
        rng = random.Random(5)
        a = random_hermitian(rng, 12, cplx=True)
        m = HPMatrix(a, 256)
        res = jacobi_eigensystem(m, want_vectors=True)
        with mp.workprec(300):
            trace = mp.fsum(m[i, i] for i in range(12))
            diff = abs(mp.fsum(res.eigenvalues) - trace)
        assert diff < mpf(10) ** -70
        assert float(res.max_residual()) < 1e-70

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("warm", [False, True])
    def test_matches_numpy(self, cplx, warm):
        rng = random.Random(7 if cplx else 8)
        a = random_hermitian(rng, 9, cplx=cplx)
        m = HPMatrix(a, 192)
        res = jacobi_eigensystem(m, warm_start=warm, want_vectors=True)
        ref = np.linalg.eigvalsh(m.to_numpy())
        got = np.array([float(x) for x in res.eigenvalues])
        assert np.allclose(got, ref, atol=1e-12)

    def test_eigenvector_orthonormality(self):
        rng = random.Random(11)
        m = HPMatrix(random_hermitian(rng, 8, cplx=True), 192)
        res = jacobi_eigensystem(m, want_vectors=True)
        with mp.workprec(200):
            for i in range(8):
                for j in range(i + 1):
                    dot = mp.fsum(
                        mp.conj(res.vectors[i][k]) * res.vectors[j][k] for k in range(8)
                    )
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
        res = jacobi_eigensystem(m, want_vectors=True)
        small = res.eigenvalues[0]
        assert abs(small - mpf(10) ** -60) < mpf(10) ** -70
        assert res.max_residual() < mpf(2) ** -200

    def test_empty(self):
        res = jacobi_eigensystem(HPMatrix([], 128), want_vectors=False)
        assert res.eigenvalues == []
