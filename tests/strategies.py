"""Hypothesis strategies for elements of every field kind."""

from hypothesis import strategies as st

from padic_tate.field import PadicElement, _make, make_field

# one field of each kind, two base fields (p = 2 is the odd one out)
FIELDS = {
    "Q5": make_field(5),
    "Q2": make_field(2),
    "Q5(pi^2=5)": make_field(5, "eisenstein", e=2, c=1),
    "Q9": make_field(3, "unramified", f=2),
}

# coefficient entries: zeros and p-powers often, so that cancellation,
# imprecise zeros and valuation jumps all occur
_ENTRIES = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6),
                     st.sampled_from([1, -1, 2, 3, 4, 5, 8, 9, 25, 27, 125]))


@st.composite
def elements(draw, field, lo: int = -3, hi: int = 5, rel: int = 12) -> PadicElement:
    """pi^shift * vec known to a precision at most ``rel`` past the shift;
    a precision at or below the shift gives an imprecise zero."""
    shift = draw(st.integers(lo, hi))
    prec = draw(st.integers(shift - 1, shift + rel))
    vec = [draw(_ENTRIES) for _ in range(field.coeff_len)]
    return _make(field, shift, vec, prec)


@st.composite
def units(draw, field, rel: int) -> PadicElement:
    """A unit known to pi^rel."""
    vec = [draw(st.integers(0, 10 ** 6)) for _ in range(field.coeff_len)]
    vec[0] = vec[0] * field.p + draw(st.integers(1, field.p - 1))
    return _make(field, 0, vec, rel)


def int_operands(p: int):
    """Integer operands: 0, small values, and signed multiples of p-powers."""
    return st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6),
                     st.builds(lambda k, s, u: s * u * p ** k,
                               st.integers(0, 30), st.sampled_from([1, -1]),
                               st.integers(1, 9)))
