import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from closed_forms import from_json_form, parse_form, sqrt_form
from slvir.errors import InvalidParameter, NotRepresentable
from slvir.scalar import Scalar, sqrt_exact

S = Scalar.of


class RefScalar:
    """The reference Q(i) arithmetic: a plain pair of Fractions (re, im),
    each operator written out from its textbook formula."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(s: Scalar) -> "RefScalar":
        return RefScalar(s.re, s.im)

    def __add__(self, o):
        return RefScalar(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return RefScalar(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return RefScalar(-self.re, -self.im)

    def __mul__(self, o):
        return RefScalar(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError
        return RefScalar((self.re * o.re + self.im * o.im) / n,
                         (self.im * o.re - self.re * o.im) / n)

    def __pow__(self, k):
        out = RefScalar(1)
        for _ in range(abs(k)):
            out = out * self
        return RefScalar(1) / out if k < 0 else out

    def __eq__(self, o):
        return (self.re, self.im) == (o.re, o.im)

    def __str__(self):
        if not self.re and not self.im:
            return "0"
        out = str(self.re) if self.re else ""
        if self.im:
            sign = "-" if self.im < 0 else ("+" if out else "")
            out += f"{sign}{abs(self.im)}*i"
        return out

    def to_json(self):
        return [str(self.re.numerator), str(self.re.denominator),
                str(self.im.numerator), str(self.im.denominator)]

    def sort_key(self):
        return (self.re, self.im)


def assert_canonical(s: Scalar):
    """(n + m*i)/d with plain ints, d > 0 and gcd(n, m, d) == 1."""
    assert all(type(x) is int for x in (s.n, s.m, s.d))
    assert s.d > 0 and math.gcd(s.n, s.m, s.d) == 1


def agrees(s: Scalar, ref: RefScalar) -> bool:
    assert_canonical(s)
    return (s.re, s.im) == (ref.re, ref.im)


# wide numerators and denominators with many shared factors, so that the
# same-denominator paths and the final gcd both get exercised
_parts = st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 6, 9, 12, 35]))
gaussian = st.builds(Scalar, _parts, _parts | st.just(0))
non_real = st.builds(Scalar, _parts, _parts.filter(bool))


def scalars(nonzero=False):
    fracs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    base = st.builds(Scalar, fracs, fracs)
    if nonzero:
        return base.filter(lambda s: not s.is_zero())
    return base


def test_product_of_conjugates():
    assert S("1/2+1*i") * S("1/2-1*i") == S("5/4")


def test_fraction_addition():
    assert S("2/3") + S("1/6") == S("5/6")


@given(scalars(nonzero=True))
def test_self_division_is_one(x):
    assert x / x == Scalar.one()


@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        S(1) / Scalar.zero()


def test_pow_negative():
    assert S("1/2") ** -2 == S(4)
    assert Scalar.i() ** -1 == -Scalar.i()


def test_sqrt_examples():
    assert sqrt_exact(S("9/4")) == S("3/2")
    assert sqrt_exact(S(-1)) == Scalar.i()
    with pytest.raises(NotRepresentable):
        sqrt_exact(S(2))


def test_sqrt_branch_choice():
    # positive real part; for purely real negatives, nonnegative imaginary
    assert sqrt_exact(S("2*i")) == S("1+1*i")
    assert sqrt_exact(S("-2*i")) == S("1-1*i")
    assert sqrt_exact(S(-4)) == S("2*i")
    assert sqrt_exact(Scalar.zero()) == Scalar.zero()


@given(scalars())
def test_sqrt_of_square(s):
    r = sqrt_exact(s * s)
    assert r in (s, -s)
    assert r * r == s * s


def test_parse_and_str_round_trip():
    for text in ["0", "3", "-1/2", "1/2+2*i", "1/2-2*i", "-1/3*i", "1*i"]:
        v = Scalar.parse(text)
        assert Scalar.parse(str(v)) == v
    # a multi-digit imaginary coefficient is not split into a real part
    assert Scalar.parse("12*i") == S(12) * Scalar.i()
    assert Scalar.parse("1/12*i") == Scalar.i() / 12
    with pytest.raises(ValueError):
        Scalar.parse("2i")
    assert Scalar.parse("i") == Scalar.i()
    assert Scalar.parse("-i") == -Scalar.i()
    with pytest.raises(ValueError):
        Scalar.parse("1//2")
    with pytest.raises(ValueError):
        Scalar.parse("")


def test_parse_allows_spaces_only_around_the_joining_sign():
    assert Scalar.parse("1 + 2*i") == Scalar(1, 2)
    assert Scalar.parse("3 - i") == Scalar(3, -1)
    assert Scalar.parse("  -1/2 +1/3*i ") == Scalar(Fraction(-1, 2), Fraction(1, 3))
    for text in ["1 2", "1 /2", "- i", "1 + 2 * i", "12 *i", "1 2*i"]:
        with pytest.raises(ValueError):
            Scalar.parse(text)


def test_json_round_trip():
    v = Scalar(Fraction(-3, 7), Fraction(5, 2))
    assert Scalar.from_json(v.to_json()) == v
    assert v.to_json() == ["-3", "7", "5", "2"]


def test_integer_predicates():
    assert S(4).is_integer() and S(4).as_int() == 4
    assert not S("1/2").is_integer()
    assert not S("1*i").is_integer()
    with pytest.raises(ValueError):
        S("1/2").as_int()


# -- the (n, m, d) form against the Fraction-pair reference -------------------------


@given(_parts, _parts)
def test_parts_read_back(p, q):
    # the reference reads a Scalar through re and im, so those are pinned
    # to the constructor's input first
    s = Scalar(p, q)
    assert_canonical(s)
    assert (s.re, s.im) == (p, q) and type(s.re) is Fraction


@settings(max_examples=300)
@given(gaussian, gaussian)
def test_ring_operators_match_reference(a, b):
    ra, rb = RefScalar.of(a), RefScalar.of(b)
    assert agrees(a + b, ra + rb)
    assert agrees(a - b, ra - rb)
    assert agrees(a * b, ra * rb)
    assert agrees(-a, -ra)
    assert (a == b) == (ra == rb)
    if not b.is_zero():
        assert agrees(a / b, ra / rb)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


@settings(max_examples=200)
@given(gaussian, non_real)
def test_division_by_non_real_matches_reference(a, b):
    assert agrees(a / b, RefScalar.of(a) / RefScalar.of(b))
    if not a.is_zero():
        assert agrees(b / a, RefScalar.of(b) / RefScalar.of(a))


@settings(max_examples=200)
@given(gaussian, st.integers(-30, 30), _parts)
def test_mixed_operands_match_reference(a, k, q):
    ra = RefScalar.of(a)
    for x in (k, q):
        rx = RefScalar(x)
        assert agrees(a + x, ra + rx) and agrees(x + a, rx + ra)
        assert agrees(a - x, ra - rx) and agrees(x - a, rx - ra)
        assert agrees(a * x, ra * rx) and agrees(x * a, rx * ra)
        assert (a == x) == (ra == rx)
        if x:
            assert agrees(a / x, ra / rx)
        if not a.is_zero():
            assert agrees(x / a, rx / ra)


@given(gaussian, st.integers(-5, 6))
def test_powers_match_reference(a, k):
    if a.is_zero() and k < 0:
        with pytest.raises(ZeroDivisionError):
            a ** k
        return
    assert agrees(a ** k, RefScalar.of(a) ** k)


@settings(max_examples=200)
@given(gaussian)
def test_text_and_json_forms_match_reference(a):
    ref = RefScalar.of(a)
    assert str(a) == str(ref)
    assert a.to_json() == ref.to_json()
    assert a.sort_key() == ref.sort_key()
    assert Scalar.parse(str(a)) == a and agrees(Scalar.parse(str(a)), ref)
    assert Scalar.from_json(a.to_json()) == a
    # a non-canonical JSON form reads as the same canonical Scalar
    n, d, m, e = (int(x) for x in a.to_json())
    assert Scalar.from_json([3 * n, -3 * d, m, -e]) == -a


@given(st.lists(gaussian, min_size=2, max_size=6))
def test_sort_key_order_matches_reference(values):
    assert [str(x) for x in sorted(values, key=Scalar.sort_key)] == \
        [str(RefScalar.of(x)) for x in sorted(values, key=lambda x: RefScalar.of(x).sort_key())]


@settings(max_examples=200)
@given(gaussian, gaussian)
def test_hash_agrees_with_equality(a, b):
    # the same value reached two ways has one form, so one hash
    c = (a + b) - b
    assert c == a and hash(c) == hash(a)
    if not a.m:
        assert hash(a) == hash(a.re)
        assert a == a.re
        if a.d == 1:
            assert hash(a) == hash(a.n) and a == a.n


def test_hash_of_real_values():
    assert hash(S(3)) == hash(3) and S(3) == 3
    assert hash(S(-1)) == hash(-1) == -2
    assert hash(S("-7/12")) == hash(Fraction(-7, 12))
    assert len({S(2), Fraction(2), 2, S("4/2")}) == 1


def test_constructor_takes_only_ints_and_fractions():
    assert Scalar(Fraction(1, 2), 3) == S("1/2+3*i")
    for bad in [(0.1,), (True, Fraction(3, 2)), (1, True), (1, 1.5), ("1",), (1 + 2j,)]:
        with pytest.raises(TypeError):
            Scalar(*bad)


def test_canonical_form_examples():
    assert (S("2/4+6/4*i").n, S("2/4+6/4*i").m, S("2/4+6/4*i").d) == (1, 3, 2)
    assert (Scalar.zero().n, Scalar.zero().m, Scalar.zero().d) == (0, 0, 1)
    z = S("1/6+1/3*i") - S("1/6+1/3*i")
    assert (z.n, z.m, z.d) == (0, 0, 1)
    q = S("1+1*i") / S("-2")
    assert (q.n, q.m, q.d) == (-1, -1, 2)
    with pytest.raises(AttributeError):
        q.n = 3


# -- the integer input edge against the Fraction readers of closed_forms -------------


def _outcome(fn, *args):
    """fn's canonical value, or the type and text of the error it raises."""
    try:
        out = fn(*args)
    except (ValueError, InvalidParameter, NotRepresentable) as exc:
        return type(exc), str(exc)
    assert_canonical(out)
    return out


# digits with leading zeros, zero denominators and 40-digit integers
_digits = st.one_of(st.integers(0, 20).map(str), st.integers(10**39, 10**40 - 1).map(str),
                    st.builds(lambda z, n: "0" * z + str(n), st.integers(1, 3),
                              st.integers(0, 99)))
_number = st.builds(lambda a, b: a if b is None else f"{a}/{b}", _digits, st.none() | _digits)
_sign = st.sampled_from(["", "+", "-"])
# the imaginary sign with spaces around it, and i, c*i, ci and c i
_joins = st.sampled_from(["+", "-", " + ", " - ", "+ ", " -", "  +  ", " "])
_imags = st.builds(lambda c, form: form.format(c), _number,
                   st.sampled_from(["i", "{}*i", "{}i", "{} i", "{}* i", "{}/i"]))
_pads = st.sampled_from(["", " ", "  ", "\t"])
scalar_texts = st.one_of(
    st.builds(lambda a, s, x, b: f"{a}{s}{x}{b}", _pads, _sign, _number, _pads),
    st.builds(lambda a, s, x, b: f"{a}{s}{x}{b}", _pads, _sign, _imags, _pads),
    st.builds(lambda s, x, j, y: f"{s}{x}{j}{y}", _sign, _number, _joins, _imags),
    st.text(alphabet="0123456789+-/*i ", max_size=12),
)


@settings(max_examples=600)
@given(scalar_texts)
def test_parse_matches_the_fraction_reader(text):
    assert _outcome(Scalar.parse, text) == _outcome(parse_form, text)


def test_parse_rejects_as_the_fraction_reader_does():
    for text in ["1 2", "2i", "1/0", "0/0*i", "1+1/0*i", "1/0+1/00*i", "", " ", "1//2",
                 "i*i", "+-1", "1 /2", "- i", "1 + 2 * i", "12 *i", "1 2*i", "1+", "*i",
                 "0" * 40 + "1/" + "0" * 40]:
        got = _outcome(Scalar.parse, text)
        assert got == _outcome(parse_form, text) and got[0] is ValueError, text


_json_ints = st.integers(-5, 5) | st.integers(-10**40, 10**40)
_json_parts = _json_ints | _json_ints.map(str)


@settings(max_examples=300)
@given(st.lists(_json_parts, min_size=4, max_size=4))
def test_from_json_matches_the_fraction_reader(data):
    # negative and zero denominators among them
    assert _outcome(Scalar.from_json, data) == _outcome(from_json_form, data)


_square_parts = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 5, 12]))


@settings(max_examples=300)
@given(st.one_of(gaussian, st.builds(lambda a, b: Scalar(a, b) ** 2, _square_parts,
                                     _square_parts),
                 st.builds(lambda a: -(a * a), gaussian)))
def test_sqrt_exact_matches_the_fraction_reference(a):
    # real, non-real and non-square values: the same root on the same branch
    assert _outcome(sqrt_exact, a) == _outcome(sqrt_form, a)
