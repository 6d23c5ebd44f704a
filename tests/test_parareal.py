"""Para-real ring arithmetic: exact, rational, with guarded inversion."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bzfc.cardinal import Cardinal
from bzfc.errors import GuardError
from bzfc.parareal import ONE, ParaReal, ZERO

rationals = st.fractions(max_denominator=12,
                         min_value=Fraction(-10), max_value=Fraction(10))
parareals = st.builds(ParaReal, rationals, rationals, rationals)
invertibles = parareals.filter(
    lambda x: x.xt != 0 and x.xt + x.xb != 0 and x.xt + x.xn != 0)
B_UNIT = ParaReal(0, 1, 0)
N_UNIT = ParaReal(0, 0, 1)


class TestConstruction:
    def test_components_become_fractions(self):
        x = ParaReal(1, "1/3", Fraction(2, 4))
        assert x.xt == 1 and x.xb == Fraction(1, 3) and x.xn == Fraction(1, 2)

    def test_constants(self):
        assert ZERO == ParaReal(0, 0, 0)
        assert ONE == ParaReal(1, 0, 0)


class TestRingLaws:
    @given(parareals)
    def test_self_difference_vanishes(self, x):
        assert x - x == ZERO

    @given(parareals)
    def test_negation(self, x):
        assert x + (-x) == ZERO
        assert -(-x) == x

    @given(parareals, parareals, parareals)
    def test_addition_laws(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x + ZERO == x

    @given(parareals, parareals, parareals)
    def test_multiplication_laws(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * ONE == x
        assert x * ZERO == ZERO
        assert x * (y + z) == x * y + x * z

    def test_unit_products(self):
        assert B_UNIT * N_UNIT == ZERO
        assert B_UNIT * B_UNIT == B_UNIT
        assert N_UNIT * N_UNIT == N_UNIT

    def test_worked_product(self):
        assert ParaReal(1, 1, 0) * ParaReal(1, 0, 1) == ParaReal(1, 1, 1)


class TestInversion:
    def test_classical_embedding(self):
        assert ParaReal(2, 0, 0).inverse() == ParaReal(Fraction(1, 2), 0, 0)

    def test_worked_inverse(self):
        assert ParaReal(1, 1, 0).inverse() == ParaReal(1, Fraction(-1, 2), 0)
        assert ParaReal(1, 1, 0) * ParaReal(1, 1, 0).inverse() == ONE

    def test_guards_reported(self):
        with pytest.raises(GuardError) as exc:
            ParaReal(1, -1, 0).inverse()
        assert "t+b" in str(exc.value)
        with pytest.raises(GuardError) as exc:
            ParaReal(0, 1, 1).inverse()
        assert "t component" in str(exc.value)
        with pytest.raises(GuardError) as exc:
            ParaReal(2, 0, -2).inverse()
        assert "t+n" in str(exc.value)

    @given(invertibles)
    def test_inverse_is_exact(self, y):
        assert y * y.inverse() == ONE
        assert ONE / y == y.inverse()

    @given(parareals, invertibles)
    def test_division(self, x, y):
        assert (x / y) * y == x

    @given(invertibles)
    def test_self_division_is_one(self, y):
        assert y / y == ONE


class TestAgreementWithCardinals:
    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
           st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
    def test_products_match_on_naturals(self, t1, b1, n1, t2, b2, n2):
        x = ParaReal(t1, b1, n1) * ParaReal(t2, b2, n2)
        k = Cardinal(t1, b1, n1) * Cardinal(t2, b2, n2)
        assert (x.xt, x.xb, x.xn) == k.decompose()


class TestRendering:
    def test_literal_format(self):
        assert str(ParaReal(Fraction(3, 2), Fraction(1, 3), -2)) == "3/2 + 1/3 b - 2 n"
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(B_UNIT) == "b"
        assert str(-B_UNIT) == "-b"
        assert str(ParaReal(0, -1, 1)) == "-b + n"
        assert str(ParaReal(-1, 0, Fraction(5, 7))) == "-1 + 5/7 n"
        # A coefficient is a Fraction, even an integral one, so it stands
        # apart from its unit, where a cardinal's int does not (2b).
        assert str(ParaReal(0, 2, 0)) == "2 b"
        assert str(ParaReal(-2)) == "-2"
        assert str(ParaReal(0, 0, -1)) == "-n"
