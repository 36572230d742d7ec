"""Order-theoretic arrays and tableaux over a poset.

Two layouts are used throughout:

* column layout (``cols``): a tuple of columns, each a top-to-bottom tuple.
  This is the faithful form for tableaux and for ragged column-shaped
  arrays; columns must increase downward in the poset order.
* row layout (``rows``): a tuple of rows, used for the row-shaped arrays
  whose rows must be powersum words (see `is_powerful_array`).

The textual form everywhere is rows joined by "/" with comma-separated
entries, e.g. "1,2,4/3,5/6".
"""

from __future__ import annotations

from dataclasses import dataclass

from .qcore import QPoly, check_partition, compositions_with_sort, conjugate


# ---------------------------------------------------------------------------
# layout plumbing
# ---------------------------------------------------------------------------

def col_heights(cols):
    return tuple(len(c) for c in cols)


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
    """Pairs read in decreasing label order whose entries are incomparable."""
    return sum(
        1
        for s in range(len(w))
        for t in range(s + 1, len(w))
        if w[s] > w[t] and p.same_or_incomparable(w[s], w[t])
    )


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

def enumerate_standard(p, lam):
    """All tableaux of the given row shape using each of 1..n once.

    Cells are filled along the column word (leftmost column bottom-to-top
    first) trying small values first, so the output is sorted by column word.
    """
    lam = check_partition(lam)
    if sum(lam) != p.n:
        raise ValueError(f"shape {lam} does not use {p.n} entries")
    if not lam:
        return [()]
    heights = conjugate(lam)
    ncols = lam[0]
    cells = [
        (j, i) for j in range(ncols) for i in range(heights[j] - 1, -1, -1)
    ]
    grid = [[None] * heights[j] for j in range(ncols)]
    used = [False] * (p.n + 1)
    out = []

    def place(idx):
        if idx == len(cells):
            out.append(tuple(tuple(c) for c in grid))
            return
        j, i = cells[idx]
        below = grid[j][i + 1] if i + 1 < heights[j] else None
        left = grid[j - 1][i] if j else None
        for v in range(1, p.n + 1):
            if used[v]:
                continue
            if below is not None and not p.less(v, below):
                continue
            if left is not None and p.less(v, left):
                continue
            used[v] = True
            grid[j][i] = v
            place(idx + 1)
            used[v] = False
        grid[j][i] = None

    place(0)
    return out


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ladder:
    """One incomparability component across an adjacent column pair."""

    column: int  # 1-based index of the left column
    left: tuple  # ((row, value), ...) in the left column, rows 1-based
    right: tuple
    balance: str  # "balanced" | "left_unbalanced" | "right_unbalanced"


def ladders(p, cols, i):
    """Incomparability components between columns i and i+1 (1-based)."""
    if not (1 <= i < len(cols)):
        raise ValueError(f"no column pair at {i} in shape {col_heights(cols)}")
    left = [(r + 1, v) for r, v in enumerate(cols[i - 1])]
    right = [(r + 1, v) for r, v in enumerate(cols[i])]
    nodes = [("L", rv) for rv in left] + [("R", rv) for rv in right]
    parent = {node: node for node in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for lnode in left:
        for rnode in right:
            if p.incomparable(lnode[1], rnode[1]):
                ra, rb = find(("L", lnode)), find(("R", rnode))
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for node in nodes:
        groups.setdefault(find(node), []).append(node)
    out = []
    for members in groups.values():
        lpart = tuple(sorted(rv for side, rv in members if side == "L"))
        rpart = tuple(sorted(rv for side, rv in members if side == "R"))
        if len(lpart) == len(rpart):
            bal = "balanced"
        elif len(lpart) > len(rpart):
            bal = "left_unbalanced"
        else:
            bal = "right_unbalanced"
        out.append(Ladder(column=i, left=lpart, right=rpart, balance=bal))
    out.sort(key=lambda k: min(k.left + k.right))
    return out


def is_strong(p, cols):
    """No adjacent column pair carries a right-unbalanced ladder."""
    return not any(
        lad.balance == "right_unbalanced"
        for i in range(1, len(cols))
        for lad in ladders(p, cols, i)
    )


# ---------------------------------------------------------------------------
# powersum words and row-shaped arrays
# ---------------------------------------------------------------------------

def is_powersum_word(p, w):
    """No adjacent step down in P, and no position other than the last that
    sits below everything to its right."""
    for i in range(len(w) - 1):
        if p.less(w[i + 1], w[i]):
            return False
    for i in range(len(w) - 1):
        if all(p.less(w[i], w[j]) for j in range(i + 1, len(w))):
            return False
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
    of lam's parts.  Returned as (row_shape, rows) pairs."""
    lam = check_partition(lam)
    if sum(lam) != p.n:
        raise ValueError(f"shape {lam} does not use {p.n} entries")
    if not lam:
        return [((), ())]
    out = []
    for alpha in compositions_with_sort(lam):
        rows = []
        used = [False] * (p.n + 1)

        def fill_row(ridx, pos, row):
            target = alpha[ridx]
            if pos == target:
                if not is_powersum_word(p, row):
                    return
                rows.append(tuple(row))
                if ridx + 1 == len(alpha):
                    out.append((alpha, tuple(rows)))
                else:
                    fill_row(ridx + 1, 0, [])
                rows.pop()
                return
            for v in range(1, p.n + 1):
                if used[v]:
                    continue
                if pos and p.less(v, row[pos - 1]):
                    continue  # a step down in P inside the row
                ok = True
                for r in range(ridx):
                    prev = rows[r]
                    anchor = prev[pos] if len(prev) > pos else prev[-1]
                    if not p.less(anchor, v):
                        ok = False
                        break
                if not ok:
                    continue
                used[v] = True
                row.append(v)
                fill_row(ridx, pos + 1, row)
                row.pop()
                used[v] = False

        fill_row(0, 0, [])
    return out


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
