from __future__ import annotations

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
    assert top.reading() == [(L1, (0, 1)), (L1, (0, 0)), (L2, (1, 0))]
    example = MLTableau(*EXAMPLE_COUNTS)
    assert [LETTER_NAMES[x] for x, _pos in example.reading()] == [
        "1b", "3b", "3b", "0", "2", "1", "1", "3", "1", "3", "1", "2",
    ]


def test_signatures_of_highest():
    top = highest_tableau()
    # raw word 0 0 1 loses its middle pair, leaving the rightmost column's 0
    assert top.signature(1) == [(0, (0, 1))]
    assert top.signature(2) == [(0, (1, 0))]
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
    assert example.pretty() == "[1][1][1][1][2][0][3b][3b][1b]\n[2][3][3]"
    assert MLTableau.from_json(example.to_json()) == example


# The grid operators the run-length rule replaced, kept as the reference:
# the letter-level reading, box replacement on a list grid, and column
# insertion or removal checked by the largeness predicates.
def _reference_signature(elem, i):
    word = []
    for letter, pos in elem.reading():
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
            assert elem.signature(i) == sig, (counts, i)
            eps = sum(1 for sym, _pos in sig if sym == 1)
            assert elem.eps(i) == eps, (counts, i)
            assert elem.phi(i) == eps + elem.wt()[i - 1], (counts, i)
            assert outcome(lambda: elem.f(i)) == outcome(lambda: _reference_f(elem, i, sig))
            assert outcome(lambda: elem.e(i)) == outcome(lambda: _reference_e(elem, i, sig))


def test_box_outside_the_three_cases_rejected():
    top = highest_tableau()
    with pytest.raises(ValueError):
        top._replace_box(0, 0, L1, L2)  # the 1 over row 2's 2 cannot become a 2
    with pytest.raises(ValueError):
        top._replace_box(1, 0, L2, L1)  # row 2's 2 cannot become a 1
    with pytest.raises(ValueError):
        MLTableau(b3=1, b0=1)._replace_box(0, 3, L3, L0)  # a second 0 box


def test_operator_cost_does_not_grow_with_the_counts():
    """With b0 = 1 and every other count 10**9 the reduced words stay a few
    runs, and the operators agree with M(infinity) through ``convert``."""
    big = 10**9
    tab = MLTableau(big, big, 1, big, big, big, big)
    image = convert(tab, "tableaux", "minf")
    for i in INDEX_SET:
        for elem in (tab, image):
            assert len(reduce_signature(elem.signature_word(i))) <= 9
        assert tab.eps(i) == image.eps(i) > 0
        assert tab.phi(i) == image.phi(i)
        assert convert(tab.f(i), "tableaux", "minf") == image.f(i)
        assert convert(tab.e(i), "tableaux", "minf") == image.e(i)
        assert tab.f(i).e(i) == tab and tab.e(i).f(i) == tab
