"""The module zoo: every family with a uniform exact action interface.

Families over sl2: the e-induced family W(eta) with basis f^a h^b x, the
Cartan-induced family X(xi) with basis f^k e^l x, its Casimir quotient
Xbar(xi, tau), the dense weight modules Vdense(xi, tau), highest and
lowest weight Verma modules, automorphism twists and tensor products.
Modules over the Virasoro algebra induced from polynomial subalgebras
live in :mod:`slvir.induced` and share this interface.

A vector (:class:`ModVec`) and an algebra element are both
:class:`~slvir.sparse.Terms`, so :meth:`Module._ops` reads an element's
ops (its letters e, h, f, or the indices n of its e_n) and their integer
coefficients off its row, and a handle memoises per op and basis key the
integer row of op . key.  A family supplies how rows and *top rows* (the
part at depth ``key_depth(key) + 1`` that
:func:`~slvir.verify.check_module_map` reads) are built.  Each sl2 family
builds the row of one letter on one key by its closed form in integer
arithmetic, and reads its tops off gr U(sl2) (on W, X and the Verma
families, one table of slot shifts); the tests keep the Scalar closed
forms and independent routes (multiply in U(sl2) and substitute, or act
upstairs in X and reduce) to check them.  A tensor product acts by its
factors' ops tagged by side, through their rows and tops, and has a slot
table when each factor has one key per depth (the density rule of
:class:`TensorModule`); a twist acts through its inner module's, and the
others cut tops from rows.
"""

from __future__ import annotations

import json
from functools import cache, partial, partialmethod
from math import comb

from .errors import (MAX_VIR_INDEX, InvalidParameter, NotWeightModule, WrongAlgebra,
                     bounded_depth, nonnegative_int, only_keys, required_keys)
from .lie import LETTERS, Automorphism, E, F, H, SL2Elt, VirElt
from .pbw import UEnvElt, casimir_elt, monomial_letters
from .scalar import Scalar
from .sparse import (ZERO_ROW, Terms, expand, gauss, lincomb, rekey, restrict, row_keys, row_of,
                     unit_row)


class KeyAboveTop(Exception):
    """A row reaches a key above ``key_depth(key) + 1``: outside the
    contract of :meth:`Module.key_depth`, so no top row exists."""


class ModVec(Terms):
    """Finite basis-key -> Scalar vector in a fixed module: a
    :class:`~slvir.sparse.Terms` that adds only its module."""

    __slots__ = ("module",)

    # the module checks the keys (Module.basis_vec and Module.vector)
    _key = staticmethod(lambda key: key)

    def __init__(self, module, terms=None):
        object.__setattr__(self, "module", module)
        super().__init__(terms)

    @classmethod
    def _of_row(cls, module, row) -> "ModVec":
        obj = super()._of_row(row)
        object.__setattr__(obj, "module", module)
        return obj

    def _like(self, row):
        return ModVec._of_row(self.module, row)

    def _same_module(self, other):
        if self.module is not other.module and self.module != other.module:
            raise InvalidParameter("vectors live in different modules")

    def __add__(self, other):
        self._same_module(other)
        return super().__add__(other)

    def __sub__(self, other):
        self._same_module(other)
        return super().__sub__(other)

    def __eq__(self, other):
        if not isinstance(other, ModVec):
            return NotImplemented
        # canonical rows: equal vectors have equal rows
        return self.module == other.module and self.row == other.row

    def __hash__(self):
        return hash((self.module, super().__hash__()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self.module.key_sort_token(kv[0]))

    def __str__(self):
        key_str = self.module.key_str
        return " + ".join(f"({c})*[{key_str(k)}]" for k, c in self.sorted_terms()) or "0"

    def to_json(self):
        return {
            "schema": "modvec/1",
            "family": self.module.family,
            "params": self.module.params_json(),
            "terms": [[self.module.key_json(k), c.to_json()] for k, c in self.sorted_terms()],
        }


class Module:
    """Shared interface of the module families."""

    family = "abstract"
    accepts_vir = False
    # the attributes, all Scalars, that name a handle of the family, in the
    # order the constructor takes them: read by params_json and make_module
    PARAMS: tuple = ()
    _TOP_SLOTS: dict | None = None  # set on a _ShiftModule, some tensors and their twists

    def __init__(self, *values):
        if len(values) != len(self.PARAMS):
            raise TypeError(f"{self.family} takes the params {self.PARAMS}, "
                            f"got {len(values)} values")
        for name, value in zip(self.PARAMS, values):
            setattr(self, name, Scalar.of(value))

    # -- vectors -------------------------------------------------------------

    def basis_vec(self, key, coeff=1) -> ModVec:
        return self.vector({key: coeff})

    def vector(self, mapping) -> ModVec:
        for key in mapping:
            self.validate_key(key)
        return ModVec(self, mapping)

    # -- the action ----------------------------------------------------------

    def act(self, x, vec: ModVec) -> ModVec:
        """Exact action of an algebra element; linear in x and vec."""
        if vec.module is not self and vec.module != self:
            raise InvalidParameter("vector does not belong to this module")
        if isinstance(x, VirElt):
            if not self.accepts_vir:
                raise WrongAlgebra(f"{self.family} only accepts sl2 elements")
            if abs(n := max(x.keys(), key=abs, default=0)) > MAX_VIR_INDEX:
                raise InvalidParameter(f"Virasoro index {n} exceeds the limit of {MAX_VIR_INDEX}")
        elif not isinstance(x, SL2Elt):
            raise TypeError(f"cannot act by {x!r}")
        return ModVec._of_row(self, lincomb(expand(vec.row, self._action(x))))

    def _ops(self, x) -> list:
        """x as ``((re, im, den), op)`` per key of ``x.keys()``, read off its
        row: an op is a letter e, h or f of an sl2 element, or the index n
        of a Virasoro e_n (z acts as zero).  Tensors and twists override it."""
        den, re, im = x.row
        return [((re.get(op, 0), im.get(op, 0), den), op) for op in x.keys()]

    def _action(self, x) -> list:
        """The action of x as a list of ``(cr, ci, cd, row_of)``: x acts as
        the sum of (cr + ci*i)/cd times the operator whose row on a basis
        key k is ``row_of(k)`` (see :func:`~slvir.sparse.expand`), one
        memoised :meth:`_row` per op of :meth:`_ops`."""
        return [c + (partial(self._row, op),) for c, op in self._ops(x)]

    def _row(self, op, key) -> tuple:
        """The row of op . key, from the family's ``_build_row``; memoised per
        handle (the cache only holds recomputable values)."""
        rows = self.__dict__.setdefault("_rows", {})
        row = rows.get((op, key))
        if row is None:
            row = rows[(op, key)] = self._build_row(op, key)
        return row

    def _top(self, op, key) -> tuple:
        """The part of op . key at depth key_depth(key) + 1, cut from its row."""
        return self._top_part(key, self._row(op, key))

    def _top_part(self, key, row) -> tuple:
        """The part of a row of an operator on key at depth key_depth(key) + 1."""
        target = self.key_depth(key) + 1
        depths = {k: self.key_depth(k) for k in row_keys(row)}
        if depths and max(depths.values()) > target:
            raise KeyAboveTop(f"{self.family}: a key above depth {target}")
        return restrict(row, lambda k: depths[k] == target)

    # -- structure metadata ---------------------------------------------------

    def validate_key(self, key):
        raise NotImplementedError

    def key_depth(self, key) -> int:
        """The depth of a basis key in the module's PBW filtration.

        Contract: each letter e, h, f raises it by at most one, i.e. every
        key of ``act(letter, basis_vec(key))`` has depth at most
        ``key_depth(key) + 1``; ``basis_keys(n)`` lists every key of depth
        at most n.  The graded certificate of
        :func:`~slvir.verify.check_module_map` rests on it; every top row
        cut from a full row checks the bound.
        """
        raise NotImplementedError

    def key_weight(self, key) -> Scalar:
        """The weight of a basis key; a weight family is one whose keys
        have weights."""
        raise NotWeightModule(f"{self.family} is not a weight-module family")

    def basis_keys(self, depth: int) -> list:
        raise NotImplementedError

    def key_sort_token(self, key):
        return key

    def key_str(self, key) -> str:
        return str(key)

    def key_json(self, key):
        return key

    def key_from_json(self, data):
        return data

    # -- cyclic-module data (families used as map sources) --------------------

    def generator(self) -> ModVec:
        """The basis vector of the one key of depth 0 (the contract of
        :meth:`key_depth` makes it unique): every module here is cyclic on it."""
        (key,) = self.basis_keys(0)
        return self.basis_vec(key)

    def generator_relations(self) -> list:
        """Pairs (u, s) with u in U(sl2) and u . generator == s * generator."""
        raise NotImplementedError(f"{self.family} has no generator relations")

    def basis_words(self, depth: int) -> list:
        """Pairs (key, word), word a tuple of the letters "e", "h", "f" whose
        right-to-left application to the generator yields the basis vector.
        A word's length is its key's depth, and the words are closed under
        suffixes, so sorted by depth they list each suffix first."""
        raise NotImplementedError(f"{self.family} has no free monomial basis")

    # -- identity --------------------------------------------------------------

    def params_json(self):
        return {name: getattr(self, name).to_json() for name in self.PARAMS}

    def signature(self) -> str:
        cached = getattr(self, "_signature", None)
        if cached is None:
            cached = json.dumps({"family": self.family, "params": self.params_json()},
                                sort_keys=True)
            self._signature = cached
        return cached

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Module):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return self.signature()


def _two_entries(module, data) -> list:
    """A JSON key that must be a list of two entries, read whole."""
    if not (isinstance(data, list) and len(data) == 2):
        raise InvalidParameter(f"bad {module.family} key {data!r}")
    return data


def _pairs_up_to(depth: int):
    for total in range(depth + 1):
        for first in range(total, -1, -1):
            yield (first, total - first)


class _ShiftModule(Module):
    """A family whose gr is a polynomial ring with the basis keys as
    monomials.  The keys of one depth sit in slots (``_slot(key)``, and
    ``_key_at(depth, slot)`` back); the top of a letter l on a key is the
    key of the next depth ``_TOP_SLOTS[l]`` slots up, or zero if l is not
    in the table, which the certificate of :mod:`slvir.verify` reads too."""

    def _top(self, letter, key):
        shift = self._TOP_SLOTS.get(letter)
        if shift is None:
            return ZERO_ROW
        return unit_row(self._key_at(self.key_depth(key) + 1, self._slot(key) + shift))


class _PairModule(_ShiftModule):
    """The shared part of W and X: basis keys (a, b) with a, b >= 0, of
    depth a + b, in slot b, and the generator (0, 0).  The parameter
    letter has top zero."""

    def validate_key(self, key):
        # type(), not isinstance(): a bool is not a key entry
        if not (isinstance(key, tuple) and len(key) == 2
                and all(type(v) is int and v >= 0 for v in key)):
            raise InvalidParameter(f"bad {self.family} key {key!r}")

    def key_depth(self, key):
        return key[0] + key[1]

    def basis_keys(self, depth):
        return list(_pairs_up_to(depth))

    def key_json(self, key):
        return list(key)

    def key_from_json(self, data):
        return tuple(_two_entries(self, data))

    def _slot(self, key):
        return key[1]

    def _key_at(self, depth, slot):
        return (depth - slot, slot)


class WModule(_PairModule):
    """Induced from Ce with e acting by eta; basis keys (a, b) for f^a h^b x."""

    family = "W"
    PARAMS = ("eta",)
    _TOP_SLOTS = {"f": 0, "h": 1}

    def _build_row(self, letter, key):
        # h f^a = f^a (h - 2a), e f^a = f^a e + a f^(a-1) (h - a + 1) and
        # e h^b = (h - 2)^b e, with e x = eta x
        a, b = key
        if letter == "f":
            return unit_row((a + 1, b))
        if letter == "h":
            return row_of(((a, b + 1), 1, 0, 1), (key, -2 * a, 0, 1))
        n, m, d = gauss(self.eta)
        binomials = [((a, j), comb(b, j) * (-2) ** (b - j)) for j in (b, *range(b))]
        return row_of(*[(k, c * n, c * m, d) for k, c in binomials],
                      ((a - 1, b + 1), a, 0, 1), ((a - 1, b), -a * (a - 1), 0, 1))

    def key_str(self, key):
        return f"f^{key[0]} h^{key[1]} x"

    def generator_relations(self):
        return [(UEnvElt.from_sl2(E), self.eta)]

    def basis_words(self, depth):
        return [((a, b), ("f",) * a + ("h",) * b) for a, b in _pairs_up_to(depth)]


class XModule(_PairModule):
    """Induced from Ch with h acting by xi; basis keys (k, l) for f^k e^l x."""

    family = "X"
    PARAMS = ("xi",)
    _TOP_SLOTS = {"f": 0, "e": 1}

    def _build_row(self, letter, key):
        # h f^k = f^k (h - 2k), e f^k = f^k e + k f^(k-1) (h - k + 1), and h
        # acts by xi + 2l on e^l x
        k, l = key
        if letter == "f":
            return unit_row((k + 1, l))
        n, m, d = gauss(self.xi)
        if letter == "h":
            return row_of((key, n + 2 * (l - k) * d, m, d))
        return row_of(((k, l + 1), 1, 0, 1), ((k - 1, l), k * (n + (2 * l - k + 1) * d), k * m, d))

    def key_weight(self, key):
        return self.xi + 2 * (key[1] - key[0])

    def key_str(self, key):
        return f"f^{key[0]} e^{key[1]} x"

    def generator_relations(self):
        return [(UEnvElt.from_sl2(H), self.xi)]

    def basis_words(self, depth):
        return [((k, l), ("f",) * k + ("e",) * l) for k, l in _pairs_up_to(depth)]


def _fe(tau: Scalar, n: int, m: int, d: int) -> tuple:
    """fe on a vector of weight (n + m*i)/d where the Casimir 4fe + (h+1)^2
    acts by tau: (tau - (weight + 1)^2)/4 as (re, im, den), not reduced."""
    n += d
    dd = d * d
    return (tau.n * dd - tau.d * (n * n - m * m), tau.m * dd - 2 * tau.d * n * m, 4 * tau.d * dd)


class XbarModule(Module):
    """The quotient of X(xi) on which the Casimir acts by tau.

    Basis keys ("e", l) for l >= 0 and ("f", k) for k >= 1; the key
    ("e", 0) is the generator.  The closed forms below come from rewriting
    fe = (c - (h+1)^2)/4 with c -> tau and h -> the weight (:func:`_fe`).
    """

    family = "Xbar"
    PARAMS = ("xi", "tau")

    def _build_row(self, letter, key):
        side, n = key
        xn, xm, xd = gauss(self.xi)
        if letter == "h":
            return row_of((key, xn + 2 * n * xd if side == "e" else xn - 2 * n * xd, xm, xd))
        if letter == side or not n:  # e e^n, f f^n and f e^0 are basis vectors
            return unit_row((letter, n + 1))
        if side == "e":  # f e^n xbar = fe e^(n-1) xbar
            return row_of((("e", n - 1),) + _fe(self.tau, xn + 2 * (n - 1) * xd, xm, xd))
        # e f^n xbar = (fe + n xi - n(n-1)) f^(n-1) xbar, with fe on the weight xi
        fr, fi, fd = _fe(self.tau, xn, xm, xd)
        return row_of((("f", n - 1) if n > 1 else ("e", 0),
                       fr * xd + fd * (n * xn - n * (n - 1) * xd), fi * xd + fd * n * xm, fd * xd))

    def _top(self, letter, key):
        # gr U(sl2) commutes: e raises ("e", n), f raises ("f", n) and ("e", 0); h has top 0
        side, n = key
        raises = letter == side or (letter == "f" and not n)
        return unit_row((letter, n + 1)) if raises else ZERO_ROW

    def validate_key(self, key):
        ok = (isinstance(key, tuple) and len(key) == 2 and key[0] in ("e", "f")
              and type(key[1]) is int
              and (key[1] >= 0 if key[0] == "e" else key[1] >= 1))
        if not ok:
            raise InvalidParameter(f"bad Xbar key {key!r}")

    def key_depth(self, key):
        return key[1]

    def key_weight(self, key):
        side, n = key
        return self.xi + 2 * n if side == "e" else self.xi - 2 * n

    def basis_keys(self, depth):
        return [("e", l) for l in range(depth + 1)] + [("f", k) for k in range(1, depth + 1)]

    def key_str(self, key):
        return f"{key[0]}^{key[1]} xbar"

    def key_json(self, key):
        return [key[0], key[1]]

    def key_from_json(self, data):
        return tuple(_two_entries(self, data))

    def generator_relations(self):
        return [(UEnvElt.from_sl2(H), self.xi), (casimir_elt(), self.tau)]

    def basis_words(self, depth):
        return [((side, n), (side,) * n) for side, n in self.basis_keys(depth)]


class XbarQuotientModule(XbarModule):
    """Internal: Xbar(xi, tau) modulo the span of e^{j0+i} xbar for i > 0.

    Only meaningful when tau = (xi + 2 j0 + 1)^2, where that span is
    invariant; the action is the Xbar action followed by dropping the
    truncated keys.

    The composition-series map from a Verma module onto ("e", j0) always
    takes the exact route of :func:`~slvir.verify.check_module_map`: that
    generator sits at depth j0 and f lowers the e-side depth, so the first
    certificate top is zero.  Grading from the generator would change
    ``basis_keys``, and with it the report's window-rank data.
    """

    family = "XbarModY"

    def __init__(self, xi, tau, j0):
        super().__init__(xi, tau)
        self.j0 = int(j0)

    def _keep(self, key):
        return key[0] == "f" or key[1] <= self.j0

    def _build_row(self, letter, key):
        return restrict(super()._build_row(letter, key), self._keep)

    def _top(self, letter, key):
        return restrict(super()._top(letter, key), self._keep)

    def validate_key(self, key):
        super().validate_key(key)
        if not self._keep(key):
            raise InvalidParameter(f"key {key!r} lies in the quotiented span")

    def basis_keys(self, depth):
        return [k for k in super().basis_keys(depth) if self._keep(k)]

    def params_json(self):
        out = super().params_json()
        out["j0"] = self.j0
        return out


class DenseModule(Module):
    """Dense weight module: one-dimensional weight spaces over xi + 2Z.

    Keys are the weights themselves.  The action is the defining one:
    f v_w = v_{w-2}, h v_w = w v_w, e v_w = (tau - (w+1)^2)/4 v_{w+2}.
    """

    family = "Vdense"
    PARAMS = ("xi", "tau")

    def _build_row(self, letter, w):
        if letter == "e":
            return row_of((w + 2,) + _fe(self.tau, w.n, w.m, w.d))
        return unit_row(w - 2) if letter == "f" else row_of((w, w.n, w.m, w.d))

    def validate_key(self, key):
        if not isinstance(key, Scalar):
            raise InvalidParameter(f"bad Vdense key {key!r}")
        off = (key - self.xi) / 2
        if not off.is_integer():
            raise InvalidParameter(f"weight {key} is not in the coset of {self.xi}")

    def key_depth(self, key):
        return abs(((key - self.xi) / 2).as_int())

    def key_weight(self, key):
        return key

    def basis_keys(self, depth):
        return [self.xi + 2 * m for m in range(-depth, depth + 1)]

    def key_sort_token(self, key):
        return key.sort_key()

    def key_str(self, key):
        return f"v[{key}]"

    def key_json(self, key):
        return key.to_json()

    def key_from_json(self, data):
        return Scalar.from_json(data)

    def generator_relations(self):
        return [(UEnvElt.from_sl2(H), self.xi), (casimir_elt(), self.tau)]


class _VermaBase(_ShiftModule):
    """The shared part of the highest and lowest weight Verma modules:
    highest (lowest) weight delta, keys k >= 0 of depth k, in slot 0, and
    generator 0."""

    PARAMS = ("delta",)

    def validate_key(self, key):
        nonnegative_int(key, f"{self.family} key")

    def key_depth(self, key):
        return key

    def basis_keys(self, depth):
        return list(range(depth + 1))

    def key_weight(self, key):
        return self.delta + 2 * self._SIGN * key

    def _slot(self, key):
        return 0

    def _key_at(self, depth, slot):
        return depth

    def _build_row(self, letter, k):
        # the third letter lowers k: e f^k m = k (delta - k + 1) f^(k-1) m on a Verma module
        if letter in self._TOP_SLOTS:
            return unit_row(k + 1)
        n, m, d, s = *gauss(self.delta), self._SIGN
        if letter == "h":
            return row_of((k, n + 2 * s * k * d, m, d))
        return row_of((k - 1, -s * k * (n + s * (k - 1) * d), -s * k * m, d))


class VermaModule(_VermaBase):
    """Highest weight Verma module; keys k >= 0 for f^k m."""

    family = "Verma"
    _TOP_SLOTS, _SIGN = {"f": 0}, -1

    def key_str(self, key):
        return f"f^{key} m"

    def generator_relations(self):
        return [(UEnvElt.from_sl2(H), self.delta), (UEnvElt.from_sl2(E), Scalar.zero())]

    def basis_words(self, depth):
        return [(k, ("f",) * k) for k in range(depth + 1)]


class LowVermaModule(_VermaBase):
    """Lowest weight Verma module; keys k >= 0 for e^k m."""

    family = "LowVerma"
    _TOP_SLOTS, _SIGN = {"e": 0}, 1

    def key_str(self, key):
        return f"e^{key} m"

    def generator_relations(self):
        return [(UEnvElt.from_sl2(H), self.delta), (UEnvElt.from_sl2(F), Scalar.zero())]

    def basis_words(self, depth):
        return [(k, ("e",) * k) for k in range(depth + 1)]


# the methods on basis keys that a twist takes from its inner module
_KEY_METHODS = ("validate_key", "key_depth", "key_weight", "basis_keys", "key_sort_token",
                "key_str", "key_json", "key_from_json")


class TwistModule(Module):
    """Same underlying space as ``inner``; x acts as aut(x) does on inner.

    It builds no rows of its own: x splits into the ops of aut(x) on
    inner, computed once per x, and acts through inner's rows and tops.
    Its keys are inner's, with inner's key methods and slot table; a key's
    weight is taken with respect to the twisted Cartan generator
    aut^{-1}(h).  A twist is only ever a map target: it has no generator
    relations or words.
    """

    family = "Twist"

    def __init__(self, inner: Module, aut):
        if not isinstance(inner, Module):
            raise InvalidParameter("Twist needs an inner module")
        self.inner = inner
        self.aut = aut
        self._ops = cache(lambda x: inner._ops(aut.apply(x)))
        self._row, self._top = inner._row, inner._top
        if inner._TOP_SLOTS is not None:
            self._TOP_SLOTS, self._slot = inner._TOP_SLOTS, inner._slot
        for name in _KEY_METHODS:
            setattr(self, name, getattr(inner, name))

    def params_json(self):
        return {"inner": {"family": self.inner.family, "params": self.inner.params_json()},
                "aut": self.aut.to_json()}


class TensorModule(Module):
    """Tensor product with the Leibniz action x(a@b) = xa@b + a@xb: x acts
    as its factors' ops tagged by side (0 left, 1 right), each through its
    factor's memoised rows and tops, rekeyed onto the pairs of keys.

    Density rule: when each factor has one key per depth (a slot table
    shifting every op by 0: Verma, LowVerma and their twists), (kl, kr)
    sits in slot key_depth(kl), so depth d is d + 1 dense slots, and a left
    op shifts a top one slot up, a right op none.  Other factors leave no
    table: several keys per depth would need a packing base fixed over
    MAX_DEPTH, and most slots would be zero.
    """

    family = "Tensor"

    def __init__(self, left: Module, right: Module):
        self.left = left
        self.right = right
        self.accepts_vir = left.accepts_vir and right.accepts_vir
        tables = (left._TOP_SLOTS, right._TOP_SLOTS)
        if None not in tables and not any(v for table in tables for v in table.values()):
            self._TOP_SLOTS = {(0, op): 1 for op in tables[0]} | {(1, op): 0 for op in tables[1]}

    def _slot(self, key):
        return self.left.key_depth(key[0])

    def _ops(self, x):
        return ([(c, (0, op)) for c, op in self.left._ops(x)]
                + [(c, (1, op)) for c, op in self.right._ops(x)])

    def _on_side(self, part, tagged, key):
        # the factor's row or top (part "_row" or "_top") of op on its own key, rekeyed
        (side, op), (kl, kr) = tagged, key
        if side:
            return rekey(getattr(self.right, part)(op, kr), lambda k: (kl, k))
        return rekey(getattr(self.left, part)(op, kl), lambda k: (k, kr))

    _build_row, _top = partialmethod(_on_side, "_row"), partialmethod(_on_side, "_top")

    def validate_key(self, key):
        if not (isinstance(key, tuple) and len(key) == 2):
            raise InvalidParameter(f"bad Tensor key {key!r}")
        self.left.validate_key(key[0])
        self.right.validate_key(key[1])

    def key_depth(self, key):
        return self.left.key_depth(key[0]) + self.right.key_depth(key[1])

    def key_weight(self, key):
        return self.left.key_weight(key[0]) + self.right.key_weight(key[1])

    def basis_keys(self, depth):
        return [(kl, kr) for kl in self.left.basis_keys(depth)
                for kr in self.right.basis_keys(depth - self.left.key_depth(kl))]

    def key_sort_token(self, key):
        return (self.left.key_sort_token(key[0]), self.right.key_sort_token(key[1]))

    def key_str(self, key):
        return f"{self.left.key_str(key[0])} @ {self.right.key_str(key[1])}"

    def key_json(self, key):
        return [self.left.key_json(key[0]), self.right.key_json(key[1])]

    def key_from_json(self, data):
        kl, kr = _two_entries(self, data)
        return (self.left.key_from_json(kl), self.right.key_from_json(kr))

    def params_json(self):
        return {side: {"family": m.family, "params": m.params_json()}
                for side, m in (("left", self.left), ("right", self.right))}


# -- operations on top of the zoo ---------------------------------------------


def _word_images(act, words, vec):
    """Yield (key, image) for each (key, word) of ``words``, in order: the
    image of vec under the word, a tuple of letters, applied right to left
    by ``act(letter, v)``.

    The image of a word is word[0] acting on the image of word[1:], so
    every distinct suffix, keyed by its letters, is acted on once.
    """
    images = {(): vec}
    for key, word in words:
        start = 0
        while word[start:] not in images:
            start += 1
        for j in range(start - 1, -1, -1):
            images[word[j:]] = act(word[j], images[word[j + 1:]])
        yield key, images[word]


def act_uenv(module: Module, u: UEnvElt, vec: ModVec) -> ModVec:
    """Extend the action to U(sl2): each PBW monomial is a chain of letter
    rows applied to vec's row, monomials that share a suffix share its
    image, and the monomials are summed over u's row in one lincomb."""
    if vec.module is not module and vec.module != module:
        raise InvalidParameter("vector does not belong to this module")
    images = dict(_word_images(lambda x, row: lincomb(expand(row, module._action(LETTERS[x]))),
                               [(mono, monomial_letters(mono)) for mono in u.keys()], vec.row))
    return ModVec._of_row(module, lincomb(expand(u.row, [(1, 0, 1, images.__getitem__)])))


# kept while perfbench/tracing.py wraps it and tests/test_tooling.py pins it (ROADMAP item 7)
def act_word(module: Module, word, vec: ModVec) -> ModVec:
    """Apply a tuple of algebra elements right-to-left."""
    cur = vec
    for x in reversed(word):
        cur = module.act(x, cur)
    return cur


def casimir_action(module: Module, vec: ModVec) -> ModVec:
    """Action of the Casimir element 4fe + (h+1)^2 through act_uenv."""
    return act_uenv(module, casimir_elt(), vec)


def weight_decompose(module: Module, vec: ModVec) -> list:
    """Group a vector by exact weight; raises for non-weight families, the
    ones whose depth-0 key has no weight."""
    groups: dict = {}
    try:
        (gen_key,) = module.basis_keys(0)
        module.key_weight(gen_key)
        for key, coeff in vec.terms.items():
            groups.setdefault(module.key_weight(key), {})[key] = coeff
    except NotWeightModule:
        # name this module, not the factor or inner module that raised
        raise NotWeightModule(f"{module.family} is not a weight-module family") from None
    return [(w, ModVec(module, groups[w]))
            for w in sorted(groups, key=lambda s: s.sort_key())]


# how many scalars an automorphism spec's "params" list holds, per kind
_AUT_ARITY = {"identity": 0, "sigma": 0, "inverse": 0, "gamma": 1, "gamma2": 2}


def aut_from_json(data, what="an automorphism spec"):
    if not isinstance(data, dict):
        raise InvalidParameter(f"{what} must be a JSON object, got {data!r}")
    required_keys(data, ("kind",), what)
    kind = data["kind"]
    if kind not in _AUT_ARITY:
        raise InvalidParameter(f"unknown automorphism kind {kind!r}")
    what = f"a {kind!r} automorphism spec"
    only_keys(data, ("kind", "params") + (("of",) if kind == "inverse" else ()), what)
    if kind == "inverse" or _AUT_ARITY[kind]:
        required_keys(data, ("of",) if kind == "inverse" else ("params",), what)
    params = data.get("params", [])
    if not isinstance(params, list) or len(params) != _AUT_ARITY[kind]:
        raise InvalidParameter(f"automorphism {kind!r} takes a list of "
                               f"{_AUT_ARITY[kind]} params, got {params!r}")
    if kind == "inverse":
        return aut_from_json(data["of"], "the 'of' of an 'inverse' automorphism spec").inverse()
    return getattr(Automorphism, kind)(*map(Scalar.of, params))


# family -> class of the module specs read as Scalars, one per PARAMS name
_SCALAR_SPECS = {cls.family: cls for cls in (WModule, XModule, XbarModule, DenseModule,
                                             VermaModule, LowVermaModule)}
# the parameter keys of every module spec, per family
_SPEC_KEYS = {**{family: cls.PARAMS for family, cls in _SCALAR_SPECS.items()},
              "VirPoly": ("roots", "polys", "depth"), "Twist": ("inner", "aut"),
              "Tensor": ("left", "right")}


def make_module(spec: dict) -> Module:
    """Build a module handle from its JSON description: ``family`` and that
    family's parameter keys, no others."""
    from .induced import MuData, VirPolyModule

    if not isinstance(spec, dict) or "family" not in spec:
        raise InvalidParameter("module spec must carry a family tag")
    family = spec["family"]
    if not isinstance(family, str) or family not in _SPEC_KEYS:
        raise InvalidParameter(f"unknown module family {family!r}")
    what = f"a {family} module spec"
    only_keys(spec, ("family",) + _SPEC_KEYS[family], what)
    required_keys(spec, [key for key in _SPEC_KEYS[family] if key != "depth"], what)
    if family in _SCALAR_SPECS:
        cls = _SCALAR_SPECS[family]
        return cls(*(spec[k] for k in cls.PARAMS))
    if family == "VirPoly":
        depth = bounded_depth(spec.get("depth", 6), "VirPoly depth")
        return VirPolyModule(MuData.from_json(spec), depth)
    if family == "Twist":
        return TwistModule(make_module(spec["inner"]), aut_from_json(spec["aut"]))
    return TensorModule(make_module(spec["left"]), make_module(spec["right"]))
