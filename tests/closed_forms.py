"""The per-key Scalar closed forms of the sl2 families of slvir.modules.

Each form gives x . key, for an sl2 element x and one basis key, as a dict
key -> Scalar (zero values allowed), evaluated in Scalar arithmetic on the
whole element.  The modules build the same action one letter at a time as
integer rows; the tests compare the two, key by key and letter by letter.
:func:`aut_apply_form` is the same kind of reference for
``Automorphism.apply``: the Scalar product of its 3x3 matrix with x, and
:func:`bracket_form` and :func:`embed_form` are the same for the sl2
bracket and the embedding of sl2 in Vir, which slvir.lie reads off its
letter tables, and :func:`value_at_form` for ``MuData.value_at``, which
sums in integers.  :func:`sum_terms` is the Scalar-dict sum they share,
the reference for the row arithmetic of :class:`slvir.sparse.Terms`.

:func:`parse_form`, :func:`from_json_form` and :func:`sqrt_form` are the
Fraction-based readers that ``Scalar.parse``, ``Scalar.from_json`` and
``sqrt_exact`` replace with integer arithmetic: each builds both parts as
fractions.Fraction and the Scalar from them, and raises what they raise.
:func:`divmod_window_form` is the Scalar-arithmetic division that
``divmod_window`` runs on integer rows.
"""

import re
from fractions import Fraction
from math import comb, isqrt

from slvir.errors import InvalidParameter, NotRepresentable
from slvir.laurent import LaurentPoly, check_window_poly, sl2_window
from slvir.lie import SL2Elt, VirElt
from slvir.scalar import Scalar


def sum_terms(pairs) -> dict:
    """The dict key -> nonzero Scalar summing the Scalars of (key, Scalar)
    pairs that share a key; keys keep the order of their first pair."""
    out: dict = {}
    get = out.get
    for k, c in pairs:
        prev = get(k)
        out[k] = c if prev is None else prev + c
    return {k: c for k, c in out.items() if c.n or c.m}


def w_form(w, x, key) -> dict:
    # h f^a = f^a (h - 2a), e f^a = f^a e + a f^(a-1) (h - a + 1) and
    # e h^b = (h - 2)^b e, with e x = eta x
    a, b = key
    pairs = [((a + 1, b), x.cf), ((a, b + 1), x.ch), (key, x.ch * (-2 * a))]
    ce_eta = x.ce * w.eta
    pairs += [((a, j), ce_eta * (comb(b, j) * (-2) ** (b - j))) for j in range(b + 1)]
    if a:
        pairs += [((a - 1, b + 1), x.ce * a), ((a - 1, b), x.ce * (-a * (a - 1)))]
    return sum_terms(pairs)


def x_form(xm, x, key) -> dict:
    # h f^k = f^k (h - 2k), e f^k = f^k e + k f^(k-1) (h - k + 1), and h
    # acts by xi + 2l on e^l x
    k, l = key
    out = {(k + 1, l): x.cf, key: x.ch * (xm.xi + 2 * (l - k)), (k, l + 1): x.ce}
    if k:
        out[(k - 1, l)] = x.ce * k * (xm.xi + 2 * l - k + 1)
    return out


def fe_scalar(xbar, l: int) -> Scalar:
    """fe on the weight-(xi + 2(l-1)) vector e^(l-1) xbar: (tau - (xi + 2l - 1)^2)/4."""
    w = xbar.xi + 2 * l - 1
    return (xbar.tau - w * w) / 4


def xbar_form(xbar, x, key) -> dict:
    side, n = key
    if side == "e":
        out = {("e", n + 1): x.ce, key: x.ch * (xbar.xi + 2 * n)}
        if n >= 1:
            out[("e", n - 1)] = x.cf * fe_scalar(xbar, n)
        else:
            out[("f", 1)] = x.cf
        return out
    coeff = fe_scalar(xbar, 1) + n * xbar.xi - Scalar.of(n * (n - 1))
    return {("f", n - 1) if n > 1 else ("e", 0): x.ce * coeff,
            key: x.ch * (xbar.xi - 2 * n), ("f", n + 1): x.cf}


def xbar_quotient_form(quotient, x, key) -> dict:
    return {k: c for k, c in xbar_form(quotient, x, key).items() if quotient._keep(k)}


def dense_form(dense, x, w) -> dict:
    return {w - 2: x.cf, w: x.ch * w, w + 2: x.ce * (dense.tau - (w + 1) ** 2) / 4}


def verma_form(verma, x, k) -> dict:
    out = {k: x.ch * (verma.delta - 2 * k), k + 1: x.cf}
    if k >= 1:
        out[k - 1] = x.ce * k * (verma.delta - (k - 1))
    return out


def low_verma_form(low, x, k) -> dict:
    out = {k + 1: x.ce, k: x.ch * (low.delta + 2 * k)}
    if k >= 1:
        out[k - 1] = -x.cf * k * (low.delta + (k - 1))
    return out


FORMS = {"W": w_form, "X": x_form, "Xbar": xbar_form, "XbarModY": xbar_quotient_form,
         "Vdense": dense_form, "Verma": verma_form, "LowVerma": low_verma_form}


def act_key(module, x, key) -> dict:
    """x on one basis key of a closed-form family, by its Scalar form."""
    return FORMS[module.family](module, x, key)


def aut_apply_form(aut, x) -> SL2Elt:
    """aut(x) as the Scalar product of aut's matrix with x's coordinates."""
    return SL2Elt(*(sum((a * b for a, b in zip(row, x.coords())), Scalar.zero())
                    for row in aut.matrix))


def bracket_form(x, y) -> SL2Elt:
    """[x, y] by the bilinear antisymmetric extension of [h,e] = 2e,
    [e,f] = h and [h,f] = -2f."""
    return SL2Elt((x.ch * y.ce - x.ce * y.ch) * 2,
                  x.ce * y.cf - x.cf * y.ce,
                  (x.cf * y.ch - x.ch * y.cf) * 2)


def embed_form(x) -> VirElt:
    """x in Vir by h -> 2 e_0, e -> e_1, f -> -e_{-1}."""
    return VirElt({1: x.ce, 0: x.ch * 2, -1: -x.cf})


def value_at_form(mu, j: int) -> Scalar:
    """mu(t^j f) = sum_i p_i(j) lambda_i^j, in Scalar arithmetic."""
    total = Scalar.zero()
    for (lam, _), p in zip(mu.roots, mu.polys):
        pj = Scalar.zero()
        for e, c in enumerate(p):
            pj = pj + c * j**e
        total = total + pj * lam**j
    return total


_SCALAR_TEXT = re.compile(
    r"(?P<real>[+-]?\d+(?:/\d+)?)?(?P<imag>(?(real) *[+-] *|[+-]?)(?:\d+(?:/\d+)?\*)?i)?"
)
_JSON_INT_TEXT = re.compile(r"-?[0-9]+")


def parse_form(text: str) -> Scalar:
    """``Scalar.parse`` through Fraction's string reader, part by part."""
    s = text.strip()
    m = _SCALAR_TEXT.fullmatch(s)
    if not m or (m.group("real") is None and m.group("imag") is None) or not s:
        raise ValueError(f"cannot parse scalar {text!r}")
    try:
        re_part = Fraction(m.group("real").lstrip("+")) if m.group("real") else Fraction(0)
        im_part = Fraction(0)
        if m.group("imag"):
            imtxt = m.group("imag").replace(" ", "")
            sign = -1 if imtxt.startswith("-") else 1
            imtxt = imtxt.lstrip("+-")
            coeff = imtxt[:-1].rstrip("*")
            im_part = sign * (Fraction(coeff) if coeff else Fraction(1))
    except ZeroDivisionError:
        raise ValueError(f"cannot parse scalar {text!r}: zero denominator") from None
    return Scalar(re_part, im_part)


def from_json_form(data) -> Scalar:
    """``Scalar.from_json`` with each part a Fraction of two ints."""
    def is_int(x):
        return _JSON_INT_TEXT.fullmatch(x) is not None if isinstance(x, str) else type(x) is int

    if not isinstance(data, (list, tuple)) or len(data) != 4 or not all(map(is_int, data)):
        raise InvalidParameter(f"bad scalar {data!r}: four integers expected")
    rn, rd, im, id_ = (int(x) for x in data)
    if not rd or not id_:
        raise InvalidParameter(f"bad scalar {data!r}: zero denominator")
    return Scalar(Fraction(rn, rd), Fraction(im, id_))


def _fraction_sqrt(q):
    if q < 0:
        return None
    ns, ds = isqrt(q.numerator), isqrt(q.denominator)
    if ns * ns != q.numerator or ds * ds != q.denominator:
        return None
    return Fraction(ns, ds)


def sqrt_form(a: Scalar) -> Scalar:
    """``sqrt_exact`` on Fraction parts: positive real part, or nonnegative
    imaginary part when the real part is zero."""
    re_part, im_part = a.re, a.im
    if not im_part:
        if not re_part:
            return Scalar.zero()
        r = _fraction_sqrt(abs(re_part))
        if r is None:
            raise NotRepresentable(f"{a} has no square root in Q(i)")
        return Scalar(r) if re_part > 0 else Scalar(0, r)
    norm = _fraction_sqrt(re_part * re_part + im_part * im_part)
    if norm is None:
        raise NotRepresentable(f"{a} has no square root in Q(i)")
    c = _fraction_sqrt((re_part + norm) / 2)
    if c is None or not c:
        raise NotRepresentable(f"{a} has no square root in Q(i)")
    return Scalar(c, im_part / (2 * c))


def divmod_window_form(p, f):
    """(q, r) with p = q*f + r and r on the window, one Scalar quotient
    coefficient and one LaurentPoly subtraction per eliminated exponent."""
    k = check_window_poly(f)
    window = sl2_window(k)
    a0, ak = f.coeff(0), f.coeff(k)
    q: dict = {}
    r = p
    while not r.is_zero() and (m := r.max_exp()) > window[-1]:
        q[m - k] = c = r.coeff(m) / ak
        r = r - f.shift(m - k).scale(c)
    while not r.is_zero() and (m := r.min_exp()) < window[0]:
        q[m] = c = r.coeff(m) / a0
        r = r - f.shift(m).scale(c)
    return LaurentPoly(q), r
