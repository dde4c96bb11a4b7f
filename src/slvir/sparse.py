"""Sparse vectors over Q(i) in integer form.

A *row* is a triple ``(den, re, im)``: a positive integer denominator and
two dicts mapping keys to nonzero integers, the real and the imaginary
numerators.  It stands for the vector sending key k to
``(re.get(k, 0) + im.get(k, 0)*i) / den``.  Every row is canonical: den
is the least common denominator of its coefficients, so that
gcd(den, all numerators) == 1, and two rows are equal exactly when they
stand for the same vector.  Rows are never mutated once built, so caches
and vectors may share them.

All linear algebra on rows goes through :func:`lincomb`.  It sums integer
multiples of rows over one common denominator and removes the common
factor once per result, instead of reducing a fraction at every
multiply-add.  A real row keeps ``im`` empty, so real data never pays for
the imaginary half.

A Scalar is the one-key case of this form: its ``(n, m, d)`` is
``(re, im, den)`` of a single coefficient (:func:`gauss`), so rows are read
from and written to Scalars with integer arithmetic only.  Sparse maps
key -> Scalar (Laurent polynomials, Virasoro and U(sl2) elements, the
per-key reference actions) are summed by :func:`sum_terms`.

:func:`residues` sends a row to the finite field F_P of :data:`MODULUS`,
where the module-map certificate of :mod:`slvir.verify` tests ranks,
:func:`pack` packs residues into one int of :func:`slot_width` bits a key,
and :func:`reduce_slots` reduces every slot of such an int mod P.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .scalar import Scalar, _reduced

ZERO_ROW = (1, {}, {})

# (P, I): a prime P = 1 (mod 4) and I with I*I = -1 (mod P).  Sending i to I
# is a ring map from Z[i][1/den] to F_P for every den that P does not divide.
MODULUS = (2147483629, 1518275076)


def unit_row(key) -> tuple:
    return (1, {key: 1}, {})


def gauss(s: Scalar) -> tuple:
    """``(re, im, den)`` with s == (re + im*i)/den, den the least such."""
    return (s.n, s.m, s.d)


def row_from_scalars(terms: dict) -> tuple:
    """The canonical row of a dict key -> Scalar."""
    return row_of(*[(k, c.n, c.m, c.d) for k, c in terms.items()])


def row_keys(row) -> list:
    """The support of a row, real keys first, in insertion order."""
    _, re, im = row
    if not im:
        return list(re)
    return list(re) + [k for k in im if k not in re]


def residues(row, p: int, i: int) -> dict | None:
    """The image of a row in F_p with i sent to ``i``: a dict key ->
    (re + im*i) * den^-1 mod p with no zero values; None when p divides den."""
    den, re, im = row
    if not den % p:
        return None
    inv = 1 if den == 1 else pow(den, -1, p)
    if not im:
        return {k: r for k, v in re.items() if (r := v * inv % p)}
    return {k: r for k in row_keys(row) if (r := (re.get(k, 0) + im.get(k, 0) * i) * inv % p)}


def slot_width(p: int) -> int:
    """Bits per slot of a packed row mod p: slot j is the bits
    [w*j, w*(j+1)) of one non-negative int.  A slot that sums fewer than
    2**32 products of two residues in [0, p) stays below 2**w, so it never
    carries into the next slot."""
    return 2 * p.bit_length() + 32


def pack(items, cols: dict, w: int) -> int:
    """The packed row of (key, value) pairs with values in [0, 2**w): key k
    goes to slot cols[k], and a new key takes the next free slot."""
    row = 0
    for k, v in items:
        if v:
            row |= v << w * cols.setdefault(k, len(cols))
    return row


def reduce_slots(row: int, p: int, w: int, scale: int = 1) -> int:
    """The packed row with each slot v, of w bits, replaced by v * scale mod p."""
    mask = (1 << w) - 1
    out, j = 0, 0
    while row:
        out |= (row & mask) * scale % p << j
        row >>= w
        j += w
    return out


def row_to_scalars(row) -> dict:
    """The row as a dict key -> nonzero Scalar (each coefficient reduced)."""
    den, re, im = row
    return {k: _reduced(re.get(k, 0), im.get(k, 0), den) for k in row_keys(row)}


def sum_terms(pairs) -> dict:
    """The dict key -> nonzero Scalar summing the Scalars of (key, Scalar)
    pairs that share a key; keys keep the order of their first pair."""
    out: dict = {}
    get = out.get
    for k, c in pairs:
        prev = get(k)
        out[k] = c if prev is None else prev + c
    return {k: c for k, c in out.items() if c.n or c.m}


class Terms:
    """An immutable finite map key -> nonzero Scalar; the empty map is zero.

    Each subclass reads the keys given to its constructor through its own
    ``_key``, which returns a key or raises InvalidParameter naming it.  The
    operations keep the subclass, and values of two subclasses never agree.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        key = self._key
        object.__setattr__(self, "terms", sum_terms(
            (key(k), Scalar.of(c)) for k, c in (terms or {}).items()))

    @classmethod
    def _raw(cls, terms: dict):
        # internal: terms must already map valid keys to nonzero Scalars
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls._raw({})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return self._raw(sum_terms(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = Scalar.of(c)
        if c.is_zero():
            return self.zero()
        return self._raw({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return str(self)


def rekey(row, f) -> tuple:
    den, re, im = row
    return (den, {f(k): v for k, v in re.items()}, {f(k): v for k, v in im.items()})


def _canonical(den, re, im) -> tuple:
    # (den, re, im) with no zero values, divided by the gcd of all its ints
    g = gcd(den, *re.values(), *im.values())
    if g == 1:
        return (den, re, im)
    return (den // g, {k: v // g for k, v in re.items()}, {k: v // g for k, v in im.items()})


def restrict(row, keep) -> tuple:
    """The canonical row of the part of a row on the keys k with keep(k)."""
    den, re, im = row
    return _canonical(den, {k: v for k, v in re.items() if keep(k)},
                      {k: v for k, v in im.items() if keep(k)})


def row_of(*terms) -> tuple:
    """The canonical row of terms ``(key, re, im, den)`` with den > 0, one per
    key: zero terms drop out, and the keys keep the order of the terms."""
    den = lcm(*[d for _, _, _, d in terms])
    return _canonical(den, {k: a * (den // d) for k, a, _, d in terms if a},
                      {k: b * (den // d) for k, _, b, d in terms if b})


def lincomb(items) -> tuple:
    """The canonical row of sum((cr + ci*i)/cd * row) over (cr, ci, cd, row).

    Every cd must be positive.  The sum is taken with exact integers over
    the least common multiple of the cd * den, and reduced by one gcd.
    """
    items = [it for it in items if it[0] or it[1]]
    if not items:
        return ZERO_ROW
    if len(items) == 1:
        cr, ci, cd, row = items[0]
        if cr == cd and not ci:
            return row
    den = lcm(*[cd * row[0] for _, _, cd, row in items])
    re: dict = {}
    im: dict = {}
    for cr, ci, cd, (rd, rre, rim) in items:
        m = den // (cd * rd)
        if cr:
            a = cr * m
            if re:
                re_get = re.get
                for k, v in rre.items():
                    re[k] = re_get(k, 0) + a * v
            else:
                re = {k: a * v for k, v in rre.items()}
            if rim:
                im_get = im.get
                for k, v in rim.items():
                    im[k] = im_get(k, 0) + a * v
        if ci:
            b = ci * m
            im_get = im.get
            for k, v in rre.items():
                im[k] = im_get(k, 0) + b * v
            re_get = re.get
            for k, v in rim.items():
                re[k] = re_get(k, 0) - b * v
    g = gcd(den, *re.values(), *im.values())
    if g != 1:
        return (den // g, {k: v // g for k, v in re.items() if v},
                {k: v // g for k, v in im.items() if v})
    if 0 in re.values():
        re = {k: v for k, v in re.items() if v}
    if 0 in im.values():
        im = {k: v for k, v in im.items() if v}
    return (den, re, im)


def expand(row, action) -> list:
    """lincomb items of an action applied to a row.

    ``action`` is a list of ``(cr, ci, cd, row_of)``: the operator
    sum((cr + ci*i)/cd * A), where ``row_of(k)`` is the row of A applied to
    the basis key k.
    """
    den, re, im = row
    out = []
    append = out.append
    for cr, ci, cd, row_of in action:
        dd = den * cd
        for k, ar in re.items():
            append((ar * cr, ar * ci, dd, row_of(k)))
        for k, ai in im.items():
            append((-ai * ci, ai * cr, dd, row_of(k)))
    return out
