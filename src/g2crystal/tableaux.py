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
invariant, but the operators work on the materialized grid through the
literal steps: far-eastern reading, signature word with (0,1) cancellation,
box replacement, and column insertion or removal to restore marginal
largeness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import pairing, roots_to_weight

LETTER_NAMES = ("1", "2", "3", "0", "3b", "2b", "1b")
L1, L2, L3, L0, L3B, L2B, L1B = range(7)

# Structure constants of the fundamental crystal, indexed by letter.
EPS = {1: (0, 1, 0, 1, 2, 0, 1), 2: (0, 0, 1, 0, 0, 1, 0)}
PHI = {1: (1, 0, 2, 1, 0, 1, 0), 2: (0, 1, 0, 0, 1, 0, 0)}
F_STEP = {1: {L1: L2, L3: L0, L0: L3B, L2B: L1B}, 2: {L2: L3, L3B: L2B}}
E_STEP = {i: {dst: src for src, dst in steps.items()} for i, steps in F_STEP.items()}


@dataclass(frozen=True)
class MLTableau:
    """A marginally large G2 tableau, stored as its count vector."""

    b2: int = 0
    b3: int = 0
    b0: int = 0
    b3bar: int = 0
    b2bar: int = 0
    b1bar: int = 0
    b3low: int = 0

    def __post_init__(self):
        counts = self.counts()
        if any(c < 0 for c in counts):
            raise ValueError(f"negative count in {counts}")
        if self.b0 > 1:
            raise ValueError(f"b0 must be 0 or 1, got {self.b0}")

    def counts(self):
        return (self.b2, self.b3, self.b0, self.b3bar, self.b2bar, self.b1bar, self.b3low)

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

    def signature(self, i):
        """Reduced i-signature: eps_i(x) ones then phi_i(x) zeros per box,
        with (0,1) adjacencies cancelled; survivors keep their box position."""
        word = []
        for letter, pos in self.reading():
            word += [(1, pos)] * EPS[i][letter]
            word += [(0, pos)] * PHI[i][letter]
        reduced = []
        for sym in word:
            if sym[0] == 1 and reduced and reduced[-1][0] == 0:
                reduced.pop()
            else:
                reduced.append(sym)
        return reduced

    # -- Kashiwara operators --------------------------------------------------

    def f(self, i):
        """Lower the box at the leftmost surviving 0, inserting a fresh
        ``i``-row column when the result would not be large."""
        sig = self.signature(i)
        zeros = [pos for sym, pos in sig if sym == 0]
        if not zeros:
            raise RuntimeError("the lowering operator is total on marginally large tableaux")
        row, col = zeros[0]
        grid = [list(r) for r in self.rows()]
        letter = grid[row][col]
        grid[row][col] = F_STEP[i][letter]
        if not _is_large(grid):
            for rr in range(i):
                grid[rr].insert(col, rr)  # letter of row rr+1 is rr (L1 or L2)
        return MLTableau.from_rows(grid[0], grid[1])

    def e(self, i):
        """Raise the box at the rightmost surviving 1, removing its column
        when the result is large but not marginally large; ``None`` when no
        1 survives."""
        sig = self.signature(i)
        ones = [pos for sym, pos in sig if sym == 1]
        if not ones:
            return None
        row, col = ones[-1]
        grid = [list(r) for r in self.rows()]
        letter = grid[row][col]
        grid[row][col] = E_STEP[i][letter]
        if not _is_marginally_large(grid):
            if not _is_large(grid):
                raise RuntimeError("a raised tableau must stay large")
            removed = [grid[rr][col] for rr in range(2) if col < len(grid[rr])]
            if removed != [L1] and removed != [L1, L2]:
                raise RuntimeError(f"removed column {removed} is not an i-row column")
            for rr in range(2):
                if col < len(grid[rr]):
                    del grid[rr][col]
        return MLTableau.from_rows(grid[0], grid[1])

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
        return sum(1 for sym, _pos in self.signature(i) if sym == 1)

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
        return {
            "b2": self.b2,
            "b3": self.b3,
            "b0": self.b0,
            "b3bar": self.b3bar,
            "b2bar": self.b2bar,
            "b1bar": self.b1bar,
            "b3low": self.b3low,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(**{k: int(v) for k, v in obj.items()})


def highest_tableau():
    """The tableau with i-th row consisting only of i-boxes: rows 1 1 / 2."""
    return MLTableau()


def _is_large(grid):
    row1, row2 = grid
    ones = sum(1 for x in row1 if x == L1)
    return ones > len(row2) and any(x == L2 for x in row2)


def _is_marginally_large(grid):
    row1, row2 = grid
    ones = sum(1 for x in row1 if x == L1)
    return ones == len(row2) + 1 and sum(1 for x in row2 if x == L2) == 1
