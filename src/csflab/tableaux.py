"""Order-theoretic arrays and tableaux over a poset.

Two layouts are used throughout:

* column layout (``cols``): a tuple of columns, each a top-to-bottom tuple.
  This is the faithful form for tableaux and for ragged column-shaped
  arrays; columns must increase downward in the poset order.
* row layout (``rows``): a tuple of rows, used for the row-shaped arrays
  whose rows must be powersum words (see `is_powerful_array`).

The textual form everywhere is rows joined by "/" with comma-separated
entries, e.g. "1,2,4/3,5/6".

The hot kernels read the poset's bitmasks (``_up``, ``_down``, ``_inc``:
bit b of ``_up[a]`` is set when a < b) into locals once per call and work
on sets of entries as integers.  The element-by-element versions they
replaced are kept in ``tests/oracles.py`` and checked against them.
"""

from __future__ import annotations

import functools

from .qcore import QPoly, check_partition, compositions_with_sort, conjugate


# ---------------------------------------------------------------------------
# layout plumbing
# ---------------------------------------------------------------------------

def cols_to_rows(cols):
    if not cols:
        return ()
    nrows = max(len(c) for c in cols)
    return tuple(
        tuple(c[i] for c in cols if len(c) > i) for i in range(nrows)
    )


def rows_to_cols(rows):
    if not rows:
        return ()
    ncols = max(len(r) for r in rows)
    return tuple(
        tuple(r[j] for r in rows if len(r) > j) for j in range(ncols)
    )


def rows_to_text(rows):
    return "/".join(",".join(str(v) for v in row) for row in rows)


def text_to_rows(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(
        tuple(int(tok) for tok in part.split(",")) for part in text.split("/")
    )


def tableau_to_text(cols):
    return rows_to_text(cols_to_rows(cols))


def text_to_tableau(text):
    return rows_to_cols(text_to_rows(text))


# ---------------------------------------------------------------------------
# inversion statistics
# ---------------------------------------------------------------------------

def colword(cols):
    """Entries read bottom-to-top within each column, columns left to right."""
    out = []
    for c in cols:
        out.extend(reversed(c))
    return tuple(out)


def inv_word(p, w):
    """Pairs read in decreasing label order whose entries are incomparable,
    for a word without repeated letters: each letter counts the larger
    letters incomparable to it that were read before it."""
    inc = p._inc
    seen = total = 0
    for v in w:
        total += (seen & inc[v] & ~((2 << v) - 1)).bit_count()
        seen |= 1 << v
    return total


def inv_p(p, x):
    """Inversion count of a word, or of a tableau given in column layout."""
    if x and isinstance(x[0], tuple):
        return inv_word(p, colword(x))
    return inv_word(p, x)


def inv_sum(p, tableaux):
    """Sum of q^inv over a collection of tableaux (or words)."""
    counts = {}
    for x in tableaux:
        k = inv_p(p, x)
        counts[k] = counts.get(k, 0) + 1
    if not counts:
        return QPoly.zero()
    return QPoly(tuple(counts.get(i, 0) for i in range(max(counts) + 1)))


# ---------------------------------------------------------------------------
# enumeration of standard tableaux
# ---------------------------------------------------------------------------

def _walk_standard(p, lam, leaf):
    """Call ``leaf(grid, inv)`` on every tableau of the given row shape
    using each of 1..n once; ``grid`` is the column layout as lists, valid
    only during the call, and ``inv`` is its inversion count.

    Cells are filled along the column word (leftmost column bottom-to-top
    first) trying small values first, so tableaux come sorted by column
    word.  A cell takes the unused values below the cell under it and not
    below the cell to its left.  The fill order is the reading order of
    `inv_word`, so each entry adds the larger incomparable entries already
    placed.
    """
    lam = check_partition(lam)
    if sum(lam) != p.n:
        raise ValueError(f"shape {lam} does not use {p.n} entries")
    if not lam:
        leaf([], 0)
        return
    down, inc = p._down, p._inc
    hi = [inc[v] & ~((2 << v) - 1) for v in range(p.n + 1)]
    heights = conjugate(lam)
    # (column, row, has a cell below, has a cell to the left) in fill order
    cells = [
        (j, i, i + 1 < heights[j], j > 0)
        for j in range(lam[0])
        for i in range(heights[j] - 1, -1, -1)
    ]
    last = len(cells) - 1
    grid = [[0] * height for height in heights]

    def place(idx, free, inv):
        j, i, below, left = cells[idx]
        cand = free
        if below:
            cand &= down[grid[j][i + 1]]
        if left:
            cand &= ~down[grid[j - 1][i]]
        column = grid[j]
        while cand:
            low = cand & -cand
            cand ^= low
            v = column[i] = low.bit_length() - 1
            now = inv + (hi[v] & ~free).bit_count()
            if idx == last:
                leaf(grid, now)
            else:
                place(idx + 1, free ^ low, now)

    place(0, (1 << (p.n + 1)) - 2, 0)


def enumerate_standard(p, lam):
    """All tableaux of the given row shape using each of 1..n once, in
    column layout, sorted by column word (see `_walk_standard`)."""
    out = []
    _walk_standard(p, lam, lambda grid, inv: out.append(tuple(map(tuple, grid))))
    return out


# ---------------------------------------------------------------------------
# strength
# ---------------------------------------------------------------------------

def _reach(inc, mask):
    """Every element incomparable to some element of the mask."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= inc[low.bit_length() - 1]
    return out


def is_strong(p, cols):
    """No adjacent column pair carries a right-unbalanced ladder.

    A ladder is one component of the incomparability graph between the two
    columns; each one that meets the right column is grown from a seed
    there and must hold at least as many left entries as right ones.
    """
    inc = p._inc
    for j in range(1, len(cols)):
        left_col = right_col = 0
        for v in cols[j - 1]:
            left_col |= 1 << v
        for v in cols[j]:
            right_col |= 1 << v
        rest = right_col
        while rest:
            right = grow = rest & -rest
            left = 0
            while grow:
                new_left = _reach(inc, grow) & left_col & ~left
                left |= new_left
                grow = _reach(inc, new_left) & rest & ~right
                right |= grow
            if right.bit_count() > left.bit_count():
                return False
            rest &= ~right
    return True


# ---------------------------------------------------------------------------
# powersum words and row-shaped arrays
# ---------------------------------------------------------------------------

def is_powersum_word(p, w):
    """No adjacent step down in P, and no position other than the last that
    sits below everything to its right."""
    up = p._up
    later = after = 0  # the letters right of v, and v's right neighbour
    for v in reversed(w):
        if later and (not later & ~up[v] or (up[after] >> v) & 1):
            return False
        later |= 1 << v
        after = v
    return True


def is_powerful_array(p, rows):
    if not all(rows) or not rows:
        return False
    for row in rows:
        if not is_powersum_word(p, row):
            return False
    ncols = max(len(r) for r in rows)
    for t in range(ncols):
        present = [r for r in range(len(rows)) if len(rows[r]) > t]
        for a in range(len(present)):
            for b in range(a + 1, len(present)):
                if not p.less(rows[present[a]][t], rows[present[b]][t]):
                    return False
    for r in range(len(rows)):
        last = rows[r][-1]
        for s in range(r + 1, len(rows)):
            for t in range(len(rows[r]), len(rows[s])):
                if not p.less(last, rows[s][t]):
                    return False
    return True


def tab(p, rows):
    """Top-justify the columns of a row-shaped powerful array."""
    rows = tuple(tuple(r) for r in rows)
    if not is_powerful_array(p, rows):
        raise ValueError(f"not a powerful array: {rows_to_text(rows)}")
    return rows_to_cols(rows)


def enumerate_powerful_arrays(p, lam):
    """All row-shaped powerful arrays using 1..n once, over every ordering
    of lam's parts.  Returned as (row_shape, rows) pairs.

    Rows are filled left to right trying small values first.  A value may
    not step down from its left neighbour and must sit above the anchor of
    every earlier row: that row's entry in the same column, or its last
    entry when the row is shorter.  ``pending`` holds the entries of the
    row so far that sit below everything after them; the last entry must
    clear them all, which makes the row a powersum word.  A value is also
    dropped when too few unused values sit above it to fill the cells of
    later rows that it anchors.
    """
    lam = check_partition(lam)
    if sum(lam) != p.n:
        raise ValueError(f"shape {lam} does not use {p.n} entries")
    if not lam:
        return [((), ())]
    up, down = p._up, p._down
    full = (1 << (p.n + 1)) - 2
    out = []

    def fill_row(alpha, need, rows, free):
        width, wanted = alpha[len(rows)], need[len(rows)]
        anchored = [full] * width
        for prev in rows:
            for pos in range(width):
                anchored[pos] &= up[prev[pos] if pos < len(prev) else prev[-1]]
        row = [0] * width

        def fill(pos, free, allowed, pending):
            cand = free & allowed & anchored[pos]
            last = pos + 1 == width
            while cand:
                low = cand & -cand
                cand ^= low
                v = row[pos] = low.bit_length() - 1
                rest = free ^ low
                if (rest & up[v]).bit_count() < wanted[pos]:
                    continue
                if not last:
                    fill(pos + 1, rest, ~down[v], (pending & down[v]) | low)
                elif not pending & down[v]:
                    rows.append(tuple(row))
                    if len(rows) == len(alpha):
                        out.append((alpha, tuple(rows)))
                    else:
                        fill_row(alpha, need, rows, rest)
                    rows.pop()

        fill(0, free, -1, 0)

    for alpha, need in _powerful_plan(lam):
        fill_row(alpha, need, [], full)
    return out


@functools.lru_cache(maxsize=None)
def _powerful_plan(lam):
    """Each ordering alpha of lam's parts with its table need[r][pos]: the
    cells of later rows that must sit above row r's entry at pos (the same
    column, and every column from there on when pos is the row's last)."""
    return tuple(
        (alpha, tuple(
            tuple(sum(max(0, part - pos) if pos + 1 == width else part > pos
                      for part in alpha[r + 1 :]) for pos in range(width))
            for r, width in enumerate(alpha)
        ))
        for alpha in compositions_with_sort(lam)
    )


def enumerate_class(p, lam, which):
    """Standard tableaux of a shape, optionally filtered to the strong ones
    or replaced by the image of the powerful arrays."""
    if which == "standard":
        return enumerate_standard(p, lam)
    if which == "strong":
        return [t for t in enumerate_standard(p, lam) if is_strong(p, t)]
    if which == "powerful":
        images = {rows_to_cols(rows) for _, rows in enumerate_powerful_arrays(p, lam)}
        return sorted(images, key=colword)
    raise ValueError(f"unknown tableau class {which!r}")
