"""Order-theoretic arrays and tableaux over a poset.

Two layouts are used throughout:

* column layout (``cols``): a tuple of columns, each a top-to-bottom tuple.
  This is the faithful form for tableaux and for ragged column-shaped
  arrays; columns must increase downward in the poset order.
* row layout (``rows``): a tuple of rows, used for the row-shaped arrays
  whose rows must be powersum words (see `is_powerful_array`).

The package writes tableaux as text only: rows joined by "/" with
comma-separated entries, e.g. "1,2,4/3,5/6"; ``tests/oracles.py`` parses
that form back.

The hot kernels read the poset's bitmasks (``_up``, ``_down``, ``_inc``,
``_hi``: bit b of ``_up[a]`` is set when a < b) into locals once per call
and work on sets of entries as integers.  The element-by-element versions
they replaced are kept in ``tests/oracles.py`` and checked against them.

The class kernels name a tableau by its key: its column word packed at
``n.bit_length()`` bits per entry (`word_key`), comparable only within one
shape.  `enumerate_class` decodes sorted keys; it, `is_strong`, `inv_p`
and `enumerate_powerful_arrays` stay public.
"""

from __future__ import annotations

import functools
from collections import Counter

from .qcore import check_partition, compositions_with_sort, conjugate


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


rows_to_cols = cols_to_rows  # the same transpose of a justified layout


def rows_to_text(rows):
    return "/".join(",".join(str(v) for v in row) for row in rows)


def tableau_to_text(cols):
    return rows_to_text(cols_to_rows(cols))


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
    hi = p._hi
    seen = total = 0
    for v in w:
        total += (seen & hi[v]).bit_count()
        seen |= 1 << v
    return total


def inv_p(p, x):
    """Inversion count of a word, or of a tableau given in column layout."""
    if x and isinstance(x[0], tuple):
        return inv_word(p, colword(x))
    return inv_word(p, x)


def inv_sum(p, tableaux):
    """Sum of q^inv over tableaux (or words), as an integer coefficient tuple."""
    return q_count(inv_p(p, x) for x in tableaux)


def q_count(invs):
    """Sum of q^k over the inversion counts k, as an integer coefficient tuple."""
    counts = Counter(invs)
    return tuple(counts[i] for i in range(max(counts, default=-1) + 1))


# ---------------------------------------------------------------------------
# keys, standard tableaux and strength
# ---------------------------------------------------------------------------

def word_key(p, word):
    """The word in one int, ``p.n.bit_length()`` bits per letter, first letter
    highest: over one shape's column words, key order is column-word order."""
    width = p.n.bit_length()
    return sum(v << width * k for k, v in enumerate(reversed(word)))


def key_to_tableau(p, key, lam):
    """The column layout of a key of shape lam (see `word_key`)."""
    width, cols = p.n.bit_length(), []
    for height in reversed(conjugate(lam)):
        cols.append(tuple(key >> width * i & (1 << width) - 1 for i in range(height)))
        key >>= width * height
    return tuple(reversed(cols))


def standard_classes(p, lam):
    """The tableaux of the given row shape using each of 1..n once, and the
    strong ones (see `is_strong`), as ``{key: inv}`` in key order.

    Cells are filled along the column word (leftmost column bottom-to-top
    first) trying small values first, so keys come in increasing order.  A
    cell takes the unused values below the cell under it and not below the
    cell to its left.  Each entry adds the larger incomparable entries
    already placed (`inv_word`), and a column pair is tested once complete.
    """
    lam = check_partition(lam)
    if sum(lam) != p.n:
        raise ValueError(f"shape {lam} does not use {p.n} entries")
    if not lam:
        return {0: 0}, {0: 0}
    down, hi, width = p._down, p._hi, p.n.bit_length()
    pair_strong = _pair_test(p._inc)
    heights = conjugate(lam)
    # (column, row, has a cell below, has a cell to the left) in fill order
    cells = [
        (j, i, i + 1 < heights[j], j > 0)
        for j in range(lam[0])
        for i in range(heights[j] - 1, -1, -1)
    ]
    last = len(cells) - 1
    grid = [[0] * height for height in heights]
    done = [0] * lam[0]  # the entries of each completed column, as a mask
    standard, strong = {}, {}

    def place(idx, free, inv, key, col, ok):
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
            code = key << width | v
            if i:
                place(idx + 1, free ^ low, now, code, col | low, ok)
                continue
            full = col | low
            pair = ok and (not left or pair_strong(done[j - 1], full))
            if idx < last:
                done[j] = full
                place(idx + 1, free ^ low, now, code, 0, pair)
            else:
                standard[code] = now
                if pair:
                    strong[code] = now

    place(0, (1 << (p.n + 1)) - 2, 0, 0, 0, True)
    return standard, strong


def enumerate_standard(p, lam):
    """All tableaux of the given row shape using each of 1..n once, in
    column layout, sorted by column word (see `standard_classes`)."""
    return [key_to_tableau(p, key, lam) for key in standard_classes(p, lam)[0]]


def _reach(inc, mask):
    """Every element incomparable to some element of the mask."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= inc[low.bit_length() - 1]
    return out


@functools.lru_cache(maxsize=1)  # the pairs of one poset, so of one vector in a sweep
def _pair_test(inc):
    """The memoized test of two adjacent columns, as masks, of the poset: no
    ladder (a component of the incomparability graph between the columns,
    grown from a seed in the right one) holds more right entries than left."""
    @functools.lru_cache(maxsize=None)
    def pair_strong(left_col, right_col):
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
    return pair_strong


def is_strong(p, cols):
    """No adjacent column pair carries a right-unbalanced ladder."""
    masks = [sum(1 << v for v in c) for c in cols]
    return all(map(_pair_test(p._inc), masks, masks[1:]))


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
    """Nonempty powersum-word rows, each entry above its anchor in every
    earlier row: that row's entry in the same column, or its last entry
    when the row is shorter."""
    if not rows or not all(rows) or not all(is_powersum_word(p, r) for r in rows):
        return False
    return all(
        p.less(row[min(t, len(row) - 1)], v)
        for r, row in enumerate(rows) for later in rows[r + 1 :] for t, v in enumerate(later)
    )


def tab(p, rows):
    """Top-justify the columns of a row-shaped powerful array."""
    rows = tuple(tuple(r) for r in rows)
    if not is_powerful_array(p, rows):
        raise ValueError(f"not a powerful array: {rows_to_text(rows)}")
    return rows_to_cols(rows)


def _fill_powerful(p, lam, leaf):
    """Call ``leaf(alpha, rows, image)`` on every row-shaped powerful array
    using 1..n once, over every ordering alpha of lam's parts; ``rows`` is
    valid only during the call, and ``image`` comes from `_powerful_plan`.

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
    up, down = p._up, p._down
    full = (1 << (p.n + 1)) - 2

    def fill_row(alpha, need, image, rows, free):
        if len(rows) == len(alpha):
            leaf(alpha, rows, image)
            return
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
                if not last and rest & ~up[v]:  # else v sits below the rest of its row
                    fill(pos + 1, rest, ~down[v], (pending & down[v]) | low)
                elif last and not pending & down[v]:
                    rows.append(tuple(row))
                    fill_row(alpha, need, image, rows, rest)
                    rows.pop()

        fill(0, free, -1, 0)

    for alpha, need, image in _powerful_plan(lam):
        fill_row(alpha, need, image, [], full)


def enumerate_powerful_arrays(p, lam):
    """The (row_shape, rows) pairs of `_fill_powerful`, in its order."""
    out = []
    _fill_powerful(p, lam, lambda alpha, rows, image: out.append((alpha, tuple(rows))))
    return out


def powerful_classes(p, lam):
    """The top-justified images of the powerful arrays as ``{key: inv}``."""
    width, hi = p.n.bit_length(), p._hi
    images = {}

    def leaf(alpha, rows, image):
        key = seen = inv = 0
        for r, pos in image:
            v = rows[r][pos]
            key = key << width | v
            inv += (seen & hi[v]).bit_count()
            seen |= 1 << v
        images[key] = inv

    _fill_powerful(p, lam, leaf)
    return images


@functools.lru_cache(maxsize=None)
def _powerful_plan(lam):
    """Each ordering alpha of lam's parts with its table need[r][pos]: the
    cells of later rows that must sit above row r's entry at pos (the same
    column, and every column from there on when pos is the row's last);
    and its image: the (r, pos) cells in the column word of `tab`'s result."""
    return tuple(
        (alpha, tuple(
            tuple(sum(max(0, part - pos) if pos + 1 == width else part > pos
                      for part in alpha[r + 1 :]) for pos in range(width))
            for r, width in enumerate(alpha)
        ), tuple((r, pos) for pos in range(max(alpha, default=0))
                 for r in reversed(range(len(alpha))) if alpha[r] > pos))
        for alpha in compositions_with_sort(lam)
    )


def enumerate_class(p, lam, which):
    """The standard tableaux of a shape, the strong ones, or the image of
    the powerful arrays, in column layout sorted by column word."""
    if which == "standard":
        return enumerate_standard(p, lam)
    if which == "strong":
        keys = standard_classes(p, lam)[1]
    elif which == "powerful":
        keys = sorted(powerful_classes(p, lam))
    else:
        raise ValueError(f"unknown tableau class {which!r}")
    return [key_to_tableau(p, key, lam) for key in keys]
