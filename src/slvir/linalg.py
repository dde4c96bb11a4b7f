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
:data:`~slvir.sparse.MODULUS`.  Rank can only drop under a ring map, so a
block of full rank mod P has full rank over Q(i); a block singular mod P
proves nothing, and the exact full route then decides.
"""

from __future__ import annotations

from .sparse import lincomb, row_keys


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

    def reduction_table(self) -> dict:
        """pivot key -> tail row, i.e. pivot = tail on the row space.

        The tests build the whole-window reduction table of an induced
        module with it, as the reference its normal forms are checked
        against."""
        return {pivot: (den, {k: -v for k, v in re.items() if k != pivot},
                        {k: -v for k, v in im.items()})
                for pivot, (den, re, im) in self.rows.items()}


class BlockModP:
    """Row echelon form mod a prime p of a growing set of rows, with no
    back-substitution.

    A row is a dict key -> nonzero residue.  Keys get columns in the order
    they first appear, and rows are stored as lists (the certificate's
    blocks are dense).  Each stored row is reduced against the rows before
    it and scaled to one at its pivot, its first nonzero column, so one
    pass in order reduces a new row.
    """

    def __init__(self, p: int):
        self.p = p
        self.cols: dict = {}  # key -> column
        self.rows: list = []  # (pivot column, row), in insertion order

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, row: dict) -> bool:
        """Add a row; True if it is independent of the stored rows mod p."""
        p, cols = self.p, self.cols
        dense = [0] * len(cols)
        for k, v in row.items():
            j = cols.setdefault(k, len(cols))
            if j < len(dense):
                dense[j] = v
            else:
                dense.append(v)
        # entries are reduced mod p only where read: a step adds less than p*p
        for pivot, prow in self.rows:
            c = dense[pivot] % p
            if c:
                dense[:len(prow)] = [a - c * b for a, b in zip(dense, prow)]
        for j, c in enumerate(dense):
            if c % p:
                inv = pow(c, -1, p)
                self.rows.append((j, [a * inv % p for a in dense]))
                return True
        return False


def _default_order(key):
    return key


def degree_lex(mono) -> tuple:
    """Sort token for PBW monomials: total degree first, then tuple order."""
    return (sum(mono), mono)
