from __future__ import annotations

import itertools

import pytest

from g2crystal.cartan import INDEX_SET, reduce_signature, simple_root, weight_sub
from g2crystal.isomorphisms import convert
from g2crystal.tableaux import (
    EPS,
    E_STEP,
    F_STEP,
    L0,
    L1,
    L2,
    L3,
    L1B,
    L2B,
    L3B,
    LETTER_NAMES,
    PHI,
    _SEGMENTS,
    MLTableau,
    highest_tableau,
)

from conftest import (
    DEPTH2_COUNTS,
    EXAMPLE_COUNTS,
    EXAMPLE_ROW1,
    EXAMPLE_ROW2,
    letter_reduce,
    oracle_vectors,
    outcome,
)


def _letters(names):
    return [LETTER_NAMES.index(n) for n in names]


def _reading(elem):
    """Far-eastern reading of the grid: columns right to left, top to
    bottom, as ``(letter, (row, col))`` pairs."""
    row1, row2 = elem.rows()
    out = []
    for col in range(len(row1) - 1, -1, -1):
        out.append((row1[col], (0, col)))
        if col < len(row2):
            out.append((row2[col], (1, col)))
    return out


def _boxes(runs):
    """A reduced run word as one ``(symbol, (row, col))`` pair per surviving
    symbol: the letter-level signature the run form replaced.  A zeros run
    keeps its first ``mult`` symbols, a ones run its last."""
    out = []
    for sym, (cells, units, first), mult in runs:
        size = len(cells)
        start = 0 if sym == 0 else units * size - mult
        for k in range(start, start + mult):
            out.append((sym, (cells[k % size][0], first - k // size)))
    return out


def test_letter_tables_realize_the_fundamental_chain():
    # chain 1 -1-> 2 -2-> 3 -1-> 0 -1-> 3b -2-> 2b -1-> 1b
    assert F_STEP[1] == {L1: L2, L3: L0, L0: L3B, L2B: L1B}
    assert F_STEP[2] == {L2: L3, L3B: L2B}
    for i in INDEX_SET:
        for src, dst in F_STEP[i].items():
            assert E_STEP[i][dst] == src
            # eps counts steps up the i-string, phi steps down
            assert PHI[i][src] >= 1 and EPS[i][dst] >= 1
    assert EPS[1] == (0, 1, 0, 1, 2, 0, 1)
    assert PHI[1] == (1, 0, 2, 1, 0, 1, 0)
    assert EPS[2] == (0, 0, 1, 0, 0, 1, 0)
    assert PHI[2] == (0, 1, 0, 0, 1, 0, 0)


def test_highest_tableau_shape():
    top = highest_tableau()
    assert top.rows() == ([L1, L1], [L2])
    assert top.text() == "1 1 / 2"


def test_reading_is_far_eastern():
    top = highest_tableau()
    assert _reading(top) == [(L1, (0, 1)), (L1, (0, 0)), (L2, (1, 0))]
    example = MLTableau(*EXAMPLE_COUNTS)
    assert [LETTER_NAMES[x] for x, _pos in _reading(example)] == [
        "1b", "3b", "3b", "0", "2", "1", "1", "3", "1", "3", "1", "2",
    ]


def test_signatures_of_highest():
    top = highest_tableau()
    # raw word 0 0 1 loses its middle pair, leaving the rightmost column's 0
    assert _boxes(top.signature(1)) == [(0, (0, 1))]
    assert _boxes(top.signature(2)) == [(0, (1, 0))]
    assert top.eps(1) == 0 and top.eps(2) == 0
    # structure map contract: phi = eps + <h_i, wt>, not the surviving-zero count
    assert top.phi(1) == 0 and top.phi(2) == 0


def test_lowering_from_highest():
    top = highest_tableau()
    down1 = top.f(1)
    assert down1.rows() == ([L1, L1, L2], [L2])
    assert down1.counts() == (1, 0, 0, 0, 0, 0, 0)
    down2 = top.f(2)
    assert down2.rows() == ([L1, L1, L1], [L2, L3])
    assert down2.counts() == (0, 0, 0, 0, 0, 0, 1)


def test_raising_inverts_and_removes_columns():
    top = highest_tableau()
    assert top.e(1) is None and top.e(2) is None
    assert top.f(1).e(1) == top  # removes the inserted single-row column
    assert top.f(2).e(2) == top  # removes the inserted two-row column
    for word in DEPTH2_COUNTS:
        elem = top
        for i in word:
            elem = elem.f(i)
        for i in INDEX_SET:
            assert elem.f(i).e(i) == elem


def test_depth_two_slice():
    for word, counts in DEPTH2_COUNTS.items():
        elem = highest_tableau()
        for i in word:
            elem = elem.f(i)
        assert elem.counts() == counts, f"word {word}"


def test_from_rows_validation():
    row1, row2 = _letters(EXAMPLE_ROW1), _letters(EXAMPLE_ROW2)
    assert MLTableau.from_rows(row1, row2).counts() == EXAMPLE_COUNTS
    with pytest.raises(ValueError):
        MLTableau.from_rows([L1, L2], [L2])  # not large
    with pytest.raises(ValueError):
        MLTableau.from_rows([L1, L1, L1, L2], [L2])  # too many ones
    with pytest.raises(ValueError):
        MLTableau.from_rows([L1, L1], [L3])  # no 2 in row 2
    with pytest.raises(ValueError):
        MLTableau.from_rows([L1, L1, L1], [L2, L2])  # two 2s in row 2
    with pytest.raises(ValueError):
        MLTableau.from_rows([L2, L1, L1], [L2])  # row 1 not sorted
    with pytest.raises(ValueError):
        MLTableau.from_rows([L1, L1], [])  # empty row
    with pytest.raises(ValueError, match="b0 must be 0 or 1"):
        MLTableau.from_rows([L1, L1, L0, L0], [L2])  # two 0 boxes
    with pytest.raises(ValueError, match="b0 must be 0 or 1"):
        MLTableau(b0=2)
    with pytest.raises(ValueError, match="nonnegative integers"):
        MLTableau(b3=True)
    # letters outside the alphabet: -1 once read as 1b, 99 raised IndexError,
    # and True passed for the letter 2
    for row1, row2, bad in (
        ([-1, L1, L1], [L2], "-1"),
        ([L1, L1, 99], [L2], "99"),
        ([L1, L1, True], [L2], "True"),
        ([L1, L1], [True], "True"),
        ([L1, L1, 2.0], [L2], "2.0"),
    ):
        with pytest.raises(ValueError, match=f"letters must be ints 0..6, got {bad}"):
            MLTableau.from_rows(row1, row2)


@pytest.mark.parametrize("rows", [(5, [L1]), ([L1, L1], 5), ([L1, L1], None)], ids=repr)
def test_from_rows_refuses_rows_that_are_not_sequences(rows):
    with pytest.raises(ValueError, match="rows must be lists or tuples"):
        MLTableau.from_rows(*rows)


def _reference_from_rows(row1, row2):
    """The five hand-written shape rules and the ones count that the
    comparison with ``rows()`` replaced, kept as the reference."""
    if not isinstance(row1, (list, tuple)) or not isinstance(row2, (list, tuple)):
        raise ValueError("rows must be lists or tuples of letters")
    if not row1 or not row2:
        raise ValueError("both rows must be non-empty")
    for x in (*row1, *row2):
        if type(x) is not int or not L1 <= x <= L1B:
            raise ValueError(f"letters must be ints 0..6, got {x!r}")
    if list(row1) != sorted(row1):
        raise ValueError("row 1 must be weakly increasing")
    if row2[0] != L2 or any(x != L3 for x in row2[1:]):
        raise ValueError("row 2 must be one 2 followed by 3s")
    if len(row2) > len(row1):
        raise ValueError("row 2 longer than row 1")
    if any(row1[c] >= row2[c] for c in range(len(row2))):
        raise ValueError("columns must increase strictly")
    n = [row1.count(x) for x in range(7)]
    if n[L1] != len(row2) + 1:
        raise ValueError(
            f"not marginally large: {n[L1]} ones in row 1 over a row 2 of length {len(row2)}"
        )
    return MLTableau(*n[L2:], len(row2) - 1)


def _small_grids(boxes):
    """Every pair of letter rows with at most ``boxes`` boxes in all."""
    for total in range(boxes + 1):
        for cells in itertools.product(range(7), repeat=total):
            for split in range(total + 1):
                yield list(cells[:split]), list(cells[split:])


def test_from_rows_matches_shape_rule_reference():
    """The same grids are accepted, with the same counts, and the same
    refused: every grid of at most 4 boxes and the grid of each oracle
    vector."""
    grids = list(_small_grids(4))
    grids += [MLTableau(*counts).rows() for counts in oracle_vectors()]
    accepted = 0
    for row1, row2 in grids:
        got = outcome(lambda: MLTableau.from_rows(row1, row2))
        assert got == outcome(lambda: _reference_from_rows(row1, row2)), (row1, row2)
        accepted += got is not ValueError
    assert accepted == 7 + 2 * 4**6 + 2000  # 1 1 / 2, and 1 1 x / 2 for the six letters x > 1


def test_from_rows_refuses_other_grids_with_one_message():
    for row1, row2 in (([L1, L2], [L2]), ([L2, L1, L1], [L2]), ([L1, L1], [])):
        with pytest.raises(ValueError, match=r"^not a marginally large tableau: \["):
            MLTableau.from_rows(row1, row2)


def test_weights():
    assert highest_tableau().wt() == (0, 0)
    assert MLTableau(*EXAMPLE_COUNTS).wt() == (-5, -1)
    assert highest_tableau().f(1).wt() == weight_sub((0, 0), simple_root(1))


def test_example_structure_maps():
    example = MLTableau(*EXAMPLE_COUNTS)
    assert example.eps(1) == 6
    assert example.eps(2) == 0
    assert example.counts() == tuple(example.key())


def test_weight_step_through_depth_four():
    frontier = [highest_tableau()]
    seen = {frontier[0]}
    for _ in range(4):
        nxt = []
        for elem in frontier:
            for i in INDEX_SET:
                down = elem.f(i)
                assert weight_sub(elem.wt(), down.wt()) == simple_root(i)
                assert down.eps(i) == elem.eps(i) + 1
                assert down.phi(i) == elem.phi(i) - 1
                if down not in seen:
                    seen.add(down)
                    nxt.append(down)
        frontier = nxt
    assert len(seen) == 26


def test_eps_counts_the_raising_string():
    """The signature-count definition of eps agrees with the number of times
    the raising operator applies before hitting the crystal zero."""
    frontier = [highest_tableau()]
    seen = {frontier[0]}
    for _ in range(4):
        nxt = []
        for elem in frontier:
            for i in (1, 2):
                steps, cursor = 0, elem
                while cursor.e(i) is not None:
                    cursor = cursor.e(i)
                    steps += 1
                assert steps == elem.eps(i)
                down = elem.f(i)
                if down not in seen:
                    seen.add(down)
                    nxt.append(down)
        frontier = nxt


def test_counts_are_complete_invariant():
    a = MLTableau(1, 0, 1, 0, 0, 0, 2)
    b = MLTableau(1, 0, 1, 0, 0, 0, 2)
    assert a == b and hash(a) == hash(b)
    assert a != MLTableau(1, 0, 1, 0, 0, 1, 2)


def test_rendering_and_json():
    example = MLTableau(*EXAMPLE_COUNTS)
    assert example.text() == "1 1 1 1 2 0 3b 3b 1b / 2 3 3"
    assert MLTableau.from_json(example.to_json()) == example


# The grid operators the run-length rule replaced, kept as the reference:
# the letter-level reading, box replacement on a list grid, and column
# insertion or removal checked by the largeness predicates.
def _reference_signature(elem, i):
    word = []
    for letter, pos in _reading(elem):
        word += [(1, pos)] * EPS[i][letter]
        word += [(0, pos)] * PHI[i][letter]
    return letter_reduce(word)


def _is_large(grid):
    row1, row2 = grid
    ones = sum(1 for x in row1 if x == L1)
    return ones > len(row2) and any(x == L2 for x in row2)


def _is_marginally_large(grid):
    row1, row2 = grid
    ones = sum(1 for x in row1 if x == L1)
    return ones == len(row2) + 1 and sum(1 for x in row2 if x == L2) == 1


def _reference_f(elem, i, sig):
    zeros = [pos for sym, pos in sig if sym == 0]
    if not zeros:
        raise RuntimeError("the lowering operator is total on marginally large tableaux")
    row, col = zeros[0]
    grid = [list(r) for r in elem.rows()]
    letter = grid[row][col]
    grid[row][col] = F_STEP[i][letter]
    if not _is_large(grid):
        for rr in range(i):
            grid[rr].insert(col, rr)  # letter of row rr+1 is rr (L1 or L2)
    return MLTableau.from_rows(grid[0], grid[1])


def _reference_e(elem, i, sig):
    ones = [pos for sym, pos in sig if sym == 1]
    if not ones:
        return None
    row, col = ones[-1]
    grid = [list(r) for r in elem.rows()]
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


def test_run_rule_matches_grid_reference():
    for counts in oracle_vectors():
        elem = MLTableau(*counts)
        for i in INDEX_SET:
            sig = _reference_signature(elem, i)
            assert _boxes(elem.signature(i)) == sig, (counts, i)
            eps = sum(1 for sym, _pos in sig if sym == 1)
            assert elem.eps(i) == eps, (counts, i)
            assert elem.phi(i) == eps + elem.wt()[i - 1], (counts, i)
            assert outcome(lambda: elem.f(i)) == outcome(lambda: _reference_f(elem, i, sig))
            assert outcome(lambda: elem.e(i)) == outcome(lambda: _reference_e(elem, i, sig))


def _reference_signature_word(elem, i):
    """The word with a single-symbol branch and one run per unit for
    patterns of both symbols, which the one flattened emission replaced."""
    col = elem.b3low + 1 + elem.b2 + elem.b3 + elem.b0 + elem.b3bar + elem.b2bar + elem.b1bar
    sizes = (elem.b1bar, elem.b2bar, elem.b3bar, elem.b0, elem.b3, elem.b2, 1, elem.b3low, 1)
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


def test_flat_word_matches_per_unit_reference():
    """The same runs, once the ``mult`` 0 runs that the cancellation skips
    are set aside, and the same reduced word."""
    for counts in oracle_vectors():
        elem = MLTableau(*counts)
        for i in INDEX_SET:
            word, reference = elem.signature_word(i), _reference_signature_word(elem, i)
            assert [r for r in word if r[2]] == [r for r in reference if r[2]], (counts, i)
            assert elem.signature(i) == reduce_signature(reference), (counts, i)


def test_box_outside_the_three_cases_rejected():
    top = highest_tableau()
    with pytest.raises(ValueError):
        top._replace_box(0, 0, L1, L2)  # the 1 over row 2's 2 cannot become a 2
    with pytest.raises(ValueError):
        top._replace_box(1, 0, L2, L1)  # row 2's 2 cannot become a 1
    tab = MLTableau(b3=1, b0=1)
    with pytest.raises(ValueError):  # the box is one of the cases; the constructor refuses
        tab._apply(*tab._replace_box(0, 3, L3, L0))  # a second 0 box


def test_operator_cost_does_not_grow_with_the_counts():
    """With b0 = 1 and every other count 10**9 the reduced words stay a few
    runs, and the operators agree with M(infinity) through ``convert``."""
    big = 10**9
    tab = MLTableau(big, big, 1, big, big, big, big)
    image = convert(tab, "tableaux", "minf")
    for i in INDEX_SET:
        for elem in (tab, image):
            assert len(elem.signature(i)) <= 9
        assert tab.eps(i) == image.eps(i) > 0
        assert tab.phi(i) == image.phi(i)
        assert convert(tab.f(i), "tableaux", "minf") == image.f(i)
        assert convert(tab.e(i), "tableaux", "minf") == image.e(i)
        assert tab.f(i).e(i) == tab and tab.e(i).f(i) == tab
