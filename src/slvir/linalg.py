"""Exact sparse linear algebra over Q(i), and rank tests mod a prime.

Vectors are the canonical integer rows of :mod:`slvir.sparse` over an
arbitrary hashable key set with a caller-supplied total order (a module
vector passes ``ModVec.row``, a basis key ``unit_row(key)``).  The main
structure here is an incrementally maintained reduced echelon: every
stored row has pivot coefficient one and its tail is supported on
non-pivot keys only, so membership tests, ranks and canonical reductions
are all one substitution pass.  Each new pivot is substituted into the
stored rows that hold it.  The full route of the module-map checks of
:mod:`slvir.verify` inserts whole images here; induced modules
interreduce their relations here, and their normal forms come from
Groebner division, not from a table of the whole window.  The elimination
runs on exact integers; nothing is ever rounded.

The graded certificate of those checks eliminates its per-degree blocks
of top rows in :class:`BlockModP` instead, mod the prime P of
:data:`~slvir.sparse.MODULUS`, on packed rows: each row is one int with
one slot of bits per column (:func:`~slvir.sparse.pack`), so a step of
the elimination is one big-int multiply-add.  Rank can only drop under a
ring map, so a block of full rank mod P has full rank over Q(i); a block
singular mod P proves nothing, and the exact full route then decides.
"""

from __future__ import annotations

from .sparse import lincomb, row_keys, slot_width


class Echelon:
    """Reduced echelon form of a growing set of sparse vectors.

    ``key_order(key)`` must return a sortable token; the pivot of a row is
    its largest key under that order.  For PBW monomials the degree-lex
    order keeps reductions degree-compatible.
    """

    def __init__(self, key_order=None):
        self.key_order = key_order if key_order is not None else _default_order
        self.rows: dict[object, tuple] = {}  # pivot key -> reduced row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _residue(self, row) -> tuple:
        # rows are fully reduced against each other, so one substitution
        # pass suffices: eliminating a pivot only introduces non-pivot keys
        den, re, im = row
        items = [(1, 0, 1, row)]
        for key in row_keys(row):
            prow = self.rows.get(key)
            if prow is not None:
                items.append((-re.get(key, 0), -im.get(key, 0), den, prow))
        return lincomb(items)

    def reduce(self, row) -> tuple:
        """Residue of a row after eliminating every pivot key."""
        return self._residue(row)

    def insert(self, row) -> bool:
        """Add a row; True if it enlarged the span."""
        residue = self._residue(row)
        den, re, im = residue
        if not re and not im:
            return False
        pivot = max(row_keys(residue), key=self.key_order)
        # divide by the pivot coefficient (pr + pi*i)/den
        pr, pi = re.get(pivot, 0), im.get(pivot, 0)
        row = lincomb([(den * pr, -den * pi, pr * pr + pi * pi, residue)])
        # keep existing rows reduced against the new pivot
        rows = self.rows
        for pk, existing in rows.items():
            eden, ere, eim = existing
            if pivot in ere or pivot in eim:
                rows[pk] = lincomb([(1, 0, 1, existing),
                                    (-ere.get(pivot, 0), -eim.get(pivot, 0), eden, row)])
        rows[pivot] = row
        return True

    def contains(self, row) -> bool:
        den, re, im = self._residue(row)
        return not re and not im

    # kept while perfbench/tracing.py wraps it and tests/test_tooling.py pins it (ROADMAP item 7)
    def reduction_table(self) -> dict:
        """pivot key -> tail row, i.e. pivot = tail on the row space.

        The tests build the whole-window reduction table of an induced
        module with it, as the reference its normal forms are checked
        against."""
        return {pivot: (den, {k: -v for k, v in re.items() if k != pivot},
                        {k: -v for k, v in im.items()})
                for pivot, (den, re, im) in self.rows.items()}


class BlockModP:
    """Row echelon form mod a prime p of a growing set of packed rows, with
    no back-substitution.

    A row is one non-negative int whose slot j (w = slot_width(p) bits)
    holds column j, reduced mod p only where read.  Each stored row has
    every slot in [0, p), is reduced against the rows before it and is
    scaled to one at its pivot, its first nonzero slot, so one pass in
    order reduces a new row by ``row += (p - c) * prow`` per stored row:
    no slot goes negative, and a row of slots below n * p*p stays below
    (n + rank) * p*p < 2**w while n + rank < 2**32, so no slot carries.
    The depth cap of 100 keeps a certificate block to 5,151 columns.
    """

    def __init__(self, p: int):
        self.p = p
        self.w = slot_width(p)
        self.rows: list = []  # (bit offset of the pivot slot, row), in insertion order

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, row: int) -> bool:
        """Add a packed row; True if it is independent of the stored rows mod p."""
        if row < 0:  # it has no slots: its shifts tend to -1, never 0
            raise ValueError("a packed row must be non-negative")
        p, w = self.p, self.w
        mask = (1 << w) - 1
        for shift, prow in self.rows:
            c = (row >> shift & mask) % p
            if c:
                row += (p - c) * prow
        shift = 0
        while row and not (row & mask) % p:
            row >>= w
            shift += w
        if not row:
            return False
        inv = pow(row & mask, -1, p)
        out, j = 0, shift
        while row:
            out |= (row & mask) * inv % p << j
            row >>= w
            j += w
        self.rows.append((shift, out))
        return True


def _default_order(key):
    return key


def degree_lex(mono) -> tuple:
    """Sort token for PBW monomials: total degree first, then tuple order."""
    return (sum(mono), mono)
