"""Processor-grid factorization enumeration."""

from repro.machine.grid import factorizations


class TestFactorizations:
    def test_count_p8_3d(self):
        f = factorizations(8, 3)
        assert (2, 2, 2) in f and (1, 1, 8) in f and (8, 1, 1) in f
        for a, b, c in f:
            assert a * b * c == 8

    def test_prime(self):
        assert factorizations(7, 2) == [(1, 7), (7, 1)]

    def test_one_dim(self):
        assert factorizations(12, 1) == [(12,)]
