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
and work on sets of entries as integers.  The standard walk and the
powerful fill place one cell at a time into a flat grid, along a cell
table cached per shape, and strength reads the ladders of a column pair
off its runs of incomparable entries in one pass (`_pair_test`).  The
versions they replaced (element by element, nested lists, the ladder
search) are kept in ``tests/oracles.py`` and checked against them.

The class kernels name a tableau by its key: its column word packed at
``n.bit_length()`` bits per entry (`word_key`), comparable only within one
shape.  `enumerate_class` decodes sorted keys; it, `is_strong`, `inv_p`
and `enumerate_powerful_arrays` stay public.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

from .qcore import check_partition, compositions_with_sort, conjugate


# ---------------------------------------------------------------------------
# layout plumbing
# ---------------------------------------------------------------------------

def cols_to_rows(cols):
    nrows = max(map(len, cols), default=0)
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
    return inv_word(p, colword(x) if x and isinstance(x[0], tuple) else x)


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
    strong ones of a unit order (`is_strong`), as ``{key: inv}`` in key order.

    Cells are filled in the order of the column word (`_standard_plan`),
    trying small values first, so keys come in increasing order.  A cell
    takes the unused values below the cell under it and not below the cell
    to its left.  Each entry adds the larger incomparable entries already
    placed (`inv_word`), and a column pair is tested once complete.
    """
    lam = check_partition(lam)
    if sum(lam) != p.n:
        raise ValueError(f"shape {lam} does not use {p.n} entries")
    if not lam:
        return {0: 0}, {0: 0}
    down, hi, width = p._down, p._hi, p.n.bit_length()
    pair_strong = _pair_test(p._inc)
    cells = _standard_plan(lam)
    last = len(cells) - 1
    grid = [0] * p.n
    done = [0] * lam[0]  # the entries of each completed column, as a mask
    standard, strong = {}, {}

    def place(idx, free, inv, key, col, ok):
        below, left, j, top = cells[idx]
        cand = free
        if below is not None:
            cand &= down[grid[below]]
        if left is not None:
            cand &= ~down[grid[left]]
        while cand:
            low = cand & -cand
            cand ^= low
            v = grid[idx] = low.bit_length() - 1
            now = inv + (hi[v] & ~free).bit_count()
            code = key << width | v
            if not top:
                place(idx + 1, free ^ low, now, code, col | low, ok)
                continue
            full = col | low
            pair = ok and (left is None or pair_strong(done[j - 1], full))
            if idx < last:
                done[j] = full
                place(idx + 1, free ^ low, now, code, 0, pair)
            else:
                standard[code] = now
                if pair:
                    strong[code] = now

    place(0, (1 << (p.n + 1)) - 2, 0, 0, 0, True)
    return standard, strong


@functools.lru_cache(maxsize=None)
def _standard_plan(lam):
    """The cells of lam in the walk's order: (the grid index of the cell
    below, of the cell to the left, or None; the column; tops the column)."""
    order = [(j, i) for j, height in enumerate(conjugate(lam)) for i in reversed(range(height))]
    index = {cell: k for k, cell in enumerate(order)}
    return tuple((index.get((j, i + 1)), index.get((j - 1, i)), j, not i) for j, i in order)


def enumerate_standard(p, lam):
    """All tableaux of the given row shape using each of 1..n once, in
    column layout, sorted by column word (see `standard_classes`)."""
    return [key_to_tableau(p, key, lam) for key in standard_classes(p, lam)[0]]


@functools.lru_cache(maxsize=1)  # the pairs of one poset, so of one vector in a sweep
def _pair_test(inc):
    """The memoized test of two adjacent columns, as masks, of a natural unit
    interval order: no ladder holds more right entries than left.  As x < y
    are incomparable exactly when x > m(y), the left entries incomparable to
    a right entry form a run of the left column whose ends move up with the
    entry.  Read in label order, a ladder is a stretch of right entries whose
    runs meet its left entries, ended by the first run that misses them all
    (an empty run is a ladder with no left entries)."""
    @functools.lru_cache(maxsize=None)
    def pair_strong(left_col, right_col):
        lefts = rights = 0  # the open ladder's left entries, as a mask, and right count
        while right_col:
            low = right_col & -right_col
            right_col ^= low
            run = inc[low.bit_length() - 1] & left_col
            if not run & lefts:
                if rights > lefts.bit_count():
                    return False
                lefts = rights = 0
            lefts |= run
            rights += 1
        return rights <= lefts.bit_count()
    return pair_strong


def is_strong(p, cols):
    """No adjacent column pair carries a right-unbalanced ladder."""
    if p.m is None:
        raise ValueError("is_strong needs a natural unit interval order")
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
    """Call ``leaf(alpha, grid, image)`` on every row-shaped powerful array
    using 1..n once, over every ordering alpha of lam's parts; ``grid`` holds
    the rows one after another, valid only during the call, and ``alpha``'s
    cell table and ``image`` come from `_powerful_plan`.

    Cells are filled in grid order trying small values first.  A value may
    not step down from its left neighbour and must sit above each of its
    anchors.  ``pending`` holds the entries of the row so far that sit below
    everything after them; the row's last entry must clear them all, which
    makes the row a powersum word.  A value is also dropped when fewer unused
    values than its cell's need sit above it.
    """
    lam = check_partition(lam)
    if sum(lam) != p.n:
        raise ValueError(f"shape {lam} does not use {p.n} entries")
    up, down, size = p._up, p._down, p.n
    grid = [0] * size

    def place(idx, free, allowed, pending):
        if idx == size:
            return leaf(alpha, grid, image)
        anchors, need, ends = cells[idx]
        cand = free & allowed
        for a in anchors:
            cand &= up[grid[a]]
        while cand:
            low = cand & -cand
            cand ^= low
            v = grid[idx] = low.bit_length() - 1
            rest = free ^ low
            if (rest & up[v]).bit_count() < need:
                continue
            if not ends:
                if rest & ~up[v]:  # else v sits below the rest of its row
                    place(idx + 1, rest, ~down[v], (pending & down[v]) | low)
            elif not pending & down[v]:
                place(idx + 1, rest, -1, 0)

    for alpha, cells, image in _powerful_plan(lam):
        place(0, (1 << (size + 1)) - 2, -1, 0)


def enumerate_powerful_arrays(p, lam):
    """The (row_shape, rows) pairs of `_fill_powerful`, in its order."""
    out = []
    _fill_powerful(p, lam, lambda alpha, grid, image: out.append((alpha, tuple(
        tuple(grid[end - w : end]) for w, end in zip(alpha, itertools.accumulate(alpha))))))
    return out


def powerful_classes(p, lam):
    """The top-justified images of the powerful arrays as ``{key: inv}``."""
    width, hi, images = p.n.bit_length(), p._hi, {}

    def leaf(alpha, grid, image):
        key = seen = inv = 0
        for v in map(grid.__getitem__, image):
            key = key << width | v
            inv += (seen & hi[v]).bit_count()
            seen |= 1 << v
        images[key] = inv

    _fill_powerful(p, lam, leaf)
    return images


@functools.lru_cache(maxsize=None)
def _powerful_plan(lam):
    """Each ordering alpha of lam's parts with its cell table, in the order
    of a grid that holds alpha's rows one after another, and its image: the
    grid indices in the column word of `tab`'s result.  A cell's entry is
    the grid indices of its anchors (each earlier row's cell in its column,
    or that row's last cell when the row is shorter); its need, the cells of
    later rows that must sit above it (the same column, and every column
    from there on when it ends its row); and whether it ends its row."""
    plan = []
    for alpha in compositions_with_sort(lam):
        start = tuple(itertools.accumulate(alpha, initial=0))
        plan.append((alpha, tuple(
            (tuple(start[q] + min(pos, alpha[q] - 1) for q in range(r)),
             sum(max(0, part - pos) if pos + 1 == width else part > pos for part in alpha[r + 1 :]),
             pos + 1 == width)
            for r, width in enumerate(alpha) for pos in range(width)
        ), tuple(start[r] + pos for pos in range(max(alpha, default=0))
                 for r in reversed(range(len(alpha))) if alpha[r] > pos)))
    return tuple(plan)


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
