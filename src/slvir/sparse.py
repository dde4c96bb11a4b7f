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
the imaginary half.  :func:`expand` applies a linear action to a row, and
:func:`bilinear` a product of two rows, as lincomb items.

A Scalar is the one-key case of this form: its ``(n, m, d)`` is
``(re, im, den)`` of a single coefficient (:func:`gauss`), so rows are read
from and written to Scalars with integer arithmetic only.  :class:`Terms`,
the sparse map behind algebra elements and module vectors, holds a row.

:func:`residues` sends a row to the finite field F_P of :data:`MODULUS`,
where the module-map certificate of :mod:`slvir.verify` tests ranks,
:func:`pack` packs residues into one int of :func:`slot_width` bits a key,
:func:`reduce_slots` reduces every slot of such an int mod P, and
:func:`low_slot` finds its lowest nonzero slot.
"""

from __future__ import annotations

from functools import cache, partial
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


def low_slot(row: int, mask: int) -> int:
    """The number of zero slots below the lowest nonzero slot of a packed
    row > 0 whose slots are ``mask = 2**w - 1``: 0 at once when the lowest
    slot is nonzero, else read off the lowest set bit, so that a run of
    zero slots is jumped, never walked."""
    if row & mask:
        return 0
    return ((row & -row).bit_length() - 1) // mask.bit_length()


@cache
def _fold_masks(n: int) -> tuple:
    """The low 31 bits, the low 63 bits, the unit and 19 in each of n slots
    of 94 bits, the slot width of P = 2**31 - 19; n is a power of two, so
    the cache holds one entry per doubling of the widest row."""
    ones = ((1 << 94 * n) - 1) // ((1 << 94) - 1)
    return ones * ((1 << 31) - 1), ones * ((1 << 63) - 1), ones, 19 * ones


def _fold(row: int, lo: int, hi: int) -> int:
    # 2**31 = 19 (mod 2**31 - 19): three folds take a slot below 2**94 to
    # below 2**68, 2**42 and 2**31 + 19 * 2**11
    for _ in range(3):
        row = (row & lo) + 19 * (row >> 31 & hi)
    return row


def reduce_slots(row: int, p: int, w: int, scale: int = 1) -> int:
    """The packed row with each slot v, of w bits, replaced by v * scale mod
    p, in [0, p).

    For p = 2**31 - 19, the first value of :data:`MODULUS`, with w = 94 and
    more than three slots, every slot is reduced at once: 2**31 = 19 mod p,
    so ``(row & LO) + 19 * (row >> 31 & HI)``, with LO and HI the low 31 and
    the low 63 bits of every slot, keeps each slot's residue.  Three such
    folds take any slot below 2**94 to below 2**31 + 38,912 < 2p, and one
    masked subtraction of p, where adding 19 sets bit 31, makes every slot
    canonical.  A scale in [0, p) multiplies the folded slots, below 2**32,
    so the products stay below 2**63 and fold the same way.  Any other
    modulus, and a row of at most three slots, take one slot at a time."""
    if p != 2 ** 31 - 19 or w != 94 or row.bit_length() <= 3 * w:
        mask = (1 << w) - 1
        out, j = 0, 0
        while row:
            out |= (row & mask) * scale % p << j
            row >>= w
            j += w
        return out
    lo, hi, ones, nineteens = _fold_masks(1 << ((row.bit_length() - 1) // w).bit_length())
    row = _fold(row, lo, hi)
    if scale != 1:
        row = _fold(row * scale, lo, hi)
    return row - p * ((row + nineteens) >> 31 & ones)


def row_to_scalars(row, keys=None) -> dict:
    """The row as a dict key -> nonzero Scalar (each coefficient reduced),
    over its support ``keys``, by default in the order of :func:`row_keys`."""
    den, re, im = row
    return {k: _reduced(re.get(k, 0), im.get(k, 0), den)
            for k in (row_keys(row) if keys is None else keys)}


class Terms:
    """An immutable finite map key -> nonzero Scalar held as a canonical
    ``row``; the empty map is zero.  ``terms``, the map as a dict in the
    order of :meth:`keys`, is built when first read.

    ``+``, ``-``, unary ``-`` and :meth:`scale` are one :func:`lincomb`
    each; equality and the hash compare rows.  Each subclass reads the keys
    given to its constructor through its own ``_key``, which returns a key
    or raises InvalidParameter naming it.  The operations keep the subclass
    (:meth:`_like`), and values of two subclasses never agree.
    """

    __slots__ = ("row", "_terms")

    def __init__(self, terms=None):
        # each key is read before its coefficient
        key = self._key
        _set_row(self, row_of(*[(key(k), *gauss(Scalar.of(c))) for k, c in (terms or {}).items()]))
        _set_terms(self, None)

    @classmethod
    def _of_row(cls, row):
        # internal: row must be canonical and keyed by valid keys
        obj = object.__new__(cls)
        _set_row(obj, row)
        _set_terms(obj, None)
        return obj

    def _like(self, row):
        """The value of self's type (and module, for a vector) holding row."""
        return self._of_row(row)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls._of_row(ZERO_ROW)

    @property
    def terms(self) -> dict:
        terms = self._terms
        if terms is None:
            terms = row_to_scalars(self.row, self.keys())
            _set_terms(self, terms)
        return terms

    def keys(self) -> list:
        """The support, real keys first (:func:`row_keys`)."""
        return row_keys(self.row)

    def is_zero(self) -> bool:
        return not self.row[1] and not self.row[2]

    def __add__(self, other):
        return self._like(lincomb([(1, 0, 1, self.row), (1, 0, 1, other.row)]))

    def __sub__(self, other):
        return self._like(lincomb([(1, 0, 1, self.row), (-1, 0, 1, other.row)]))

    def __neg__(self):
        return self._like(lincomb([(-1, 0, 1, self.row)]))

    def scale(self, c):
        c = Scalar.of(c)
        return self._like(lincomb([(c.n, c.m, c.d, self.row)]))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.row == other.row

    def __hash__(self):
        den, re, im = self.row
        return hash((den, frozenset(re.items()), frozenset(im.items())))

    def __repr__(self):
        return str(self)


_set_row, _set_terms = Terms.row.__set__, Terms._terms.__set__


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


def bilinear(x, y, product) -> tuple:
    """The row of sum(x_a * y_b * product(a, b)) over the keys a of row x and
    b of row y, where ``product(a, b)`` is a row: one :func:`expand` of y,
    each key of x an operator on it, and one :func:`lincomb`."""
    den, re, im = x
    return lincomb(expand(y, [(re.get(a, 0), im.get(a, 0), den, partial(product, a))
                              for a in row_keys(x)]))
