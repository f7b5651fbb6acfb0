"""Marginally large two-row Young tableaux for G2.

Boxes carry letters from the ordered alphabet

    1 < 2 < 3 < 0 < 3b < 2b < 1b          (nb written bar-n)

realizing the seven-element fundamental crystal chain
1 -1-> 2 -2-> 3 -1-> 0 -1-> 3b -2-> 2b -1-> 1b; the per-letter eps/phi
tables below are forced by that chain (the middle of the length-two
1-string through 3, 0, 3b has eps_1 = phi_1 = 1).

A marginally large tableau has two rows: row 2 is a single 2 followed by
3s, and row 1 is weakly increasing with exactly one more 1 than the length
of row 2.  Such tableaux are summarized by the count vector
``(b2, b3, b0, b3bar, b2bar, b1bar, b3low)``: counts of the letters above 1
in row 1, then the number of 3s in row 2.  The counts are a complete
invariant.  The operators follow the literal steps: far-eastern reading,
signature word with (0,1) cancellation, box replacement, and column
insertion or removal to restore marginal largeness.  They act on runs of the
reading, not on a materialised grid: the reading is at most nine units of
equal boxes or columns, each unit's signature symbols form runs, and a
surviving symbol's offset in its run gives its box.  So the cost does not
grow with the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import COUNT_FIELDS, CountVector, pairing, reduce_signature, roots_to_weight

LETTER_NAMES = ("1", "2", "3", "0", "3b", "2b", "1b")
L1, L2, L3, L0, L3B, L2B, L1B = range(7)

# Structure constants of the fundamental crystal, indexed by letter.
EPS = {1: (0, 1, 0, 1, 2, 0, 1), 2: (0, 0, 1, 0, 0, 1, 0)}
PHI = {1: (1, 0, 2, 1, 0, 1, 0), 2: (0, 1, 0, 0, 1, 0, 0)}
F_STEP = {1: {L1: L2, L3: L0, L0: L3B, L2B: L1B}, 2: {L2: L3, L3B: L2B}}
E_STEP = {i: {dst: src for src, dst in steps.items()} for i, steps in F_STEP.items()}

# The units of the far-eastern reading, in reading order: the row-1 letters
# right of row 2 (1b, 2b, 3b, 0, 3, 2, then the last 1), the columns of 1
# over 3, and the column of 1 over 2.  Each unit lists its boxes top to
# bottom as ``(row, letter)`` cells.
_UNITS = tuple(((0, x),) for x in (L1B, L2B, L3B, L0, L3, L2, L1)) + (
    ((0, L1), (1, L3)),
    ((0, L1), (1, L2)),
)


def _segments(i, cells):
    """One unit's i-signature (eps_i ones then phi_i zeros per box) split
    into maximal runs of one symbol, as ``(symbol, cells)`` pairs with one
    cell per symbol."""
    out = []
    for cell in cells:
        for sym in (1,) * EPS[i][cell[1]] + (0,) * PHI[i][cell[1]]:
            if out and out[-1][0] == sym:
                out[-1][1].append(cell)
            else:
                out.append((sym, [cell]))
    return tuple((sym, tuple(run)) for sym, run in out)


_SEGMENTS = {i: [_segments(i, cells) for cells in _UNITS] for i in EPS}


@dataclass(frozen=True)
class MLTableau(CountVector):
    """A marginally large G2 tableau, stored as its count vector."""

    def key(self):
        return self.counts()

    def rows(self):
        row1 = (
            [L1] * (self.b3low + 2)
            + [L2] * self.b2
            + [L3] * self.b3
            + [L0] * self.b0
            + [L3B] * self.b3bar
            + [L2B] * self.b2bar
            + [L1B] * self.b1bar
        )
        row2 = [L2] + [L3] * self.b3low
        return row1, row2

    @classmethod
    def from_rows(cls, row1, row2):
        """Build from an explicit grid, validating the canonical shape."""
        if not row1 or not row2:
            raise ValueError("both rows must be non-empty")
        if list(row1) != sorted(row1):
            raise ValueError("row 1 must be weakly increasing")
        if row2[0] != L2 or any(x != L3 for x in row2[1:]):
            raise ValueError("row 2 must be one 2 followed by 3s")
        if len(row2) > len(row1):
            raise ValueError("row 2 longer than row 1")
        if any(row1[c] >= row2[c] for c in range(len(row2))):
            raise ValueError("columns must increase strictly")
        ones = sum(1 for x in row1 if x == L1)
        if ones != len(row2) + 1:
            raise ValueError(
                f"not marginally large: {ones} ones in row 1 over a row 2 of length {len(row2)}"
            )
        n = [0] * 7
        for x in row1:
            n[x] += 1
        return cls(n[L2], n[L3], n[L0], n[L3B], n[L2B], n[L1B], len(row2) - 1)

    # -- reading and signature ----------------------------------------------

    def reading(self):
        """Far-eastern reading: columns right to left, top to bottom.

        Returns ``(letter, (row, col))`` pairs so operator steps can locate
        the box they act on.
        """
        row1, row2 = self.rows()
        out = []
        for col in range(len(row1) - 1, -1, -1):
            out.append((row1[col], (0, col)))
            if col < len(row2):
                out.append((row2[col], (1, col)))
        return out

    def signature_word(self, i):
        """The i-signature word of the far-eastern reading, as runs
        ``(symbol, (cells, units, first column), mult)``.

        A unit whose symbols all agree gives one run over all its columns;
        the two units that emit both symbols (letter 0 and the column of 1
        over 2 under i = 1) occur once.  Symbol ``k`` of a run lies in the
        box ``cells[k % len(cells)]`` of column ``first - k // len(cells)``.
        """
        col = self.b3low + 1 + self.b2 + self.b3 + self.b0 + self.b3bar + self.b2bar + self.b1bar
        sizes = (self.b1bar, self.b2bar, self.b3bar, self.b0, self.b3, self.b2, 1, self.b3low, 1)
        runs = []
        for pattern, units in zip(_SEGMENTS[i], sizes):
            if len(pattern) == 1:
                sym, cells = pattern[0]
                runs.append((sym, (cells, units, col), units * len(cells)))
            elif pattern:
                for unit in range(units):
                    runs += [(sym, (cells, 1, col - unit), len(cells)) for sym, cells in pattern]
            col -= units
        return runs

    def _reduced(self, i):
        return reduce_signature(self.signature_word(i))

    def signature(self, i):
        """Reduced i-signature: eps_i(x) ones then phi_i(x) zeros per box,
        with (0,1) adjacencies cancelled; one ``(symbol, (row, col))`` pair
        per survivor, expanded from the reduced runs."""
        out = []
        for sym, (cells, units, first), mult in self._reduced(i):
            size = len(cells)
            start = 0 if sym == 0 else units * size - mult
            for k in range(start, start + mult):
                out.append((sym, (cells[k % size][0], first - k // size)))
        return out

    # -- Kashiwara operators --------------------------------------------------

    def f(self, i):
        """Lower the box at the leftmost surviving 0, inserting a fresh
        ``i``-row column when the result would not be large."""
        tag = next((tag for sym, tag, _m in self._reduced(i) if sym == 0), None)
        if tag is None:
            raise RuntimeError("the lowering operator is total on marginally large tableaux")
        cells, _units, col = tag
        row, letter = cells[0]
        return self._replace_box(row, col, letter, F_STEP[i][letter])

    def e(self, i):
        """Raise the box at the rightmost surviving 1, removing its column
        when the result is large but not marginally large; ``None`` when no
        1 survives."""
        ones = [tag for sym, tag, _m in self._reduced(i) if sym == 1]
        if not ones:
            return None
        cells, units, first = ones[-1]
        row, letter = cells[-1]
        return self._replace_box(row, first - units + 1, letter, E_STEP[i][letter])

    def _replace_box(self, row, col, letter, new):
        """Write ``new`` into the box ``(row, col)`` holding ``letter``, then
        insert or remove the column that restores marginal largeness, all on
        the counts.  Three cases occur:

        * a row-1 letter other than 1 moves one letter along, and the tableau
          stays marginally large;
        * the last 1 of row 1 becomes a 2, and a column 1 is inserted, or the
          first 2 of row 1 becomes a 1, and its column is removed: b2 +- 1;
        * row 2's 2 becomes a 3, and a column 1 over 2 is inserted, or the 3
          in column 1 becomes a 2, and its column is removed: b3low +- 1.
        """
        n = list(self.counts())
        if row == 0 and L1 not in (letter, new):
            n[letter - 1] -= 1
            n[new - 1] += 1
        elif row == 0 and (letter, new, col) in ((L1, L2, self.b3low + 1), (L2, L1, self.b3low + 2)):
            n[L2 - 1] += 1 if new == L2 else -1
        elif row == 1 and (letter, new, col) in ((L2, L3, 0), (L3, L2, 1)):
            n[6] += 1 if new == L3 else -1
        else:
            raise ValueError(
                f"writing {LETTER_NAMES[new]} over {LETTER_NAMES[letter]} at box {(row, col)} "
                f"leaves no marginally large tableau (counts {self.counts()})"
            )
        return MLTableau(*n)

    # -- structure maps --------------------------------------------------------

    def wt(self):
        """Weight in Lambda-coordinates, from the count formula

        wt = -(b2 + b3 + 2 b0 + 3 b3bar + 3 b2bar + 4 b1bar) alpha_1
             -(b3 + b0 + b3bar + 2 b2bar + 2 b1bar + b3low) alpha_2.
        """
        a = self.b2 + self.b3 + 2 * self.b0 + 3 * self.b3bar + 3 * self.b2bar + 4 * self.b1bar
        b = self.b3 + self.b0 + self.b3bar + 2 * self.b2bar + 2 * self.b1bar + self.b3low
        return roots_to_weight(-a, -b)

    def eps(self, i):
        return sum(m for sym, _tag, m in self._reduced(i) if sym == 1)

    def phi(self, i):
        return self.eps(i) + pairing(i, self.wt())

    # -- serialization -----------------------------------------------------------

    def text(self):
        row1, row2 = self.rows()
        return " ".join(LETTER_NAMES[x] for x in row1) + " / " + " ".join(
            LETTER_NAMES[x] for x in row2
        )

    def pretty(self):
        """Two-line rendering with bracketed boxes."""
        row1, row2 = self.rows()
        top = "".join(f"[{LETTER_NAMES[x]}]" for x in row1)
        bottom = "".join(f"[{LETTER_NAMES[x]}]" for x in row2)
        return top + "\n" + bottom

    def to_json(self):
        return dict(zip(COUNT_FIELDS, self.counts()))


def highest_tableau():
    """The tableau with i-th row consisting only of i-boxes: rows 1 1 / 2."""
    return MLTableau()

