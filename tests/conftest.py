"""Shared hypothesis strategies for the test suite."""

from fractions import Fraction

from hypothesis import strategies as st

from qualutil import NSReal

exponents = st.integers(min_value=-3, max_value=3)

nonzero_coefficients = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=12
).filter(lambda f: f != 0)

term_lists = st.lists(st.tuples(exponents, nonzero_coefficients), max_size=4)

nsreals = st.builds(NSReal.from_terms, term_lists)

positive_nsreals = nsreals.filter(lambda value: value.sign() > 0)

nonnegative_nsreals = nsreals.map(lambda value: -value if value.sign() < 0 else value)

standard_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=10
)

unit_weights = st.fractions(
    min_value=Fraction(0), max_value=Fraction(1), max_denominator=16
).filter(lambda f: 0 < f < 1)

scalars = st.one_of(st.integers(min_value=-4, max_value=4), standard_fractions)

operands = st.one_of(nsreals, scalars)
