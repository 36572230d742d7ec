"""Structural identities for powerful-tableau families, one route each.

* ``greedy_shape_family``: shapes displaced from the greedy chain
  partition, whose elementary coefficient is a plain sum of q^inv over
  strong tableaux.
* ``K_set``: the distinguished family K(n-2, 2) between the strong and
  powerful standard tableaux.  Every powersum word of length n splits into
  a 2-letter and an (n-2)-letter word; ``complemented_set`` maps each pair
  that splitting misses to the one relation pattern it matches (1, 2, 4 or
  5: the construction's pattern 3 never matches on a natural unit interval
  order), and ``_glue`` arranges the pair into two rows as that pattern
  dictates.

The paper's other constructions (the factorization itself and the
complement of its image, concatenation, full-column extension at the
longest chain, peak vectors over the path order, the tableau-side test for
the gluing image, monomial structure coefficients) are second routes to
quantities computed here or in ``csf``; they live in the tests
(``tests/oracles.py``), which check them against these: the image
complement must equal the pattern route on every unit order with n <= 7,
and with n = 8 when ``CSFLAB_ACCEPT_N8=1`` is set.

Everything is exact.  Identities that the construction is supposed to
guarantee (pattern exclusivity, inversion preservation, injectivity) are
re-checked at runtime and raise RuntimeError when violated, so a breach is
loud rather than silent.
"""
from .qcore import conjugate, is_partition
from .posets import greedy_partition
from .tableaux import colword, inv_word, tab


# ---------------------------------------------------------------------------
# the greedy displacement family
# ---------------------------------------------------------------------------

def greedy_shape_family(p, cuts, weights):
    """Partition obtained by displacing the greedy chain partition.

    ``cuts`` is a set of row indices (1-based, no two adjacent); row i of the
    greedy partition shrinks by ``weights[i]`` and row i+1 grows by the same
    amount.  The displaced row lengths must again form a partition, which is
    returned conjugated (so the result is a column-length shape).  For every
    member of this family the elementary coefficient equals the inversion
    generating function of the strong standard tableaux of that shape.
    """
    cuts = set(cuts)
    gr = greedy_partition(p)
    for i in cuts:
        if type(i) is not int or not 1 <= i <= p.n:
            raise ValueError(f"cut index out of range: {i!r}")
        if i + 1 in cuts:
            raise ValueError(f"adjacent cut indices: {i} and {i + 1}")
    if set(weights) != cuts:
        raise ValueError("weights must be keyed exactly by the cut indices")
    for i, w in weights.items():
        if type(w) is not int or w <= 0:
            raise ValueError(f"displacement at {i} must be a positive integer")
    parts = list(gr) + [0] * (max([len(gr)] + [i + 1 for i in cuts]) - len(gr))
    for i in cuts:
        parts[i - 1] -= weights[i]
        parts[i] += weights[i]
    while parts and parts[-1] == 0:
        parts.pop()
    if not is_partition(parts):
        raise ValueError(f"displaced rows {tuple(parts)} do not form a partition")
    return conjugate(parts)


# ---------------------------------------------------------------------------
# powersum words and the pairs the factorization misses
# ---------------------------------------------------------------------------

def r_index(p, w):
    """Least position whose letter is incomparable to its right neighbour."""
    for i in range(len(w) - 1):
        if (p._inc[w[i]] >> w[i + 1]) & 1:
            return i + 1
    raise ValueError(f"no incomparable adjacent letters in {w!r}")


def powersum_words(p, length):
    """All injective powersum words of the given length, in lexicographic
    order: words draw distinct elements of the poset in any order."""
    return _powersum_words(p, (1 << (p.n + 1)) - 2, length)


def _powersum_words(p, letters, length):
    """The same on the letters of a bitmask, grown as the powerful row fill
    grows a row: no letter sits below its left neighbour, and the last must
    clear ``pending``, the letters so far below everything after them."""
    if not length:
        return [()]
    down = p._down
    out, word, last = [], [0] * length, length - 1

    def grow(pos, free, allowed, pending):
        cand = free & allowed
        while cand:
            low = cand & -cand
            cand ^= low
            v = word[pos] = low.bit_length() - 1
            if pos < last:
                grow(pos + 1, free ^ low, ~down[v], (pending & down[v]) | low)
            elif not pending & down[v]:
                out.append(tuple(word))

    grow(0, letters, -1, 0)
    return out


def _missed_pattern(p, a, b, letters):
    """Which relation pattern, 1, 2, 4 or 5, the pair matches, or 0;
    ``letters`` is the bitmask of b's letters.

    A pair of powersum words lies outside the factorization image exactly
    when one pattern matches.  The patterns are pairwise exclusive for any
    pair at all, so more than one match means the relation data is corrupt.

    The construction's pattern 3 (b[0] || a[0], b[0] < a[1] and
    a[0] < b[j] for every j >= 1) is left out: it never matches on a
    natural unit interval order.  The 2-letter powersum word a has
    a[0] || a[1], so 2+2-freeness applied to b[0] < a[1] and a[0] < b[j]
    forces b[0] < b[j] for every j >= 1; b[0] then sits below everything to
    its right without being last, and b is not a powersum word.
    """
    up, inc, (a0, a1) = p._up, p._inc, a
    r = r_index(p, b)
    below_all = up[a1] & letters == letters
    hits = []
    if below_all and (up[a0] >> b[0]) & 1:
        hits.append(1)
    if below_all and (inc[a0] >> b[0]) & 1 and (up[a0] | 1 << b[0]) & letters == letters:
        hits.append(2)
    if (up[b[r - 1]] >> a0) & 1 and (up[b[r - 1]] >> a1) & 1 and (up[b[r]] >> a1) & 1:
        hits.append(4)
    if (inc[b[r - 1]] >> a0) & 1 and (up[b[r - 1]] >> a1) & 1 and (up[b[r]] >> a0) & 1:
        hits.append(5)
    if len(hits) > 1:
        raise RuntimeError(f"patterns {hits} overlap on pair ({a!r}, {b!r})")
    return hits[0] if hits else 0


def complemented_set(p):
    """The (2, n-2) powersum word pairs missed by the factorization, each
    mapped to the relation pattern it matches.

    Each pair (a, b) uses every element of p once; it is kept exactly when
    one of the relation patterns matches.  Defined on natural unit
    interval orders with n > 4 only, the orders on which the patterns are
    checked against the factorization image; raises ValueError on any other
    poset.
    """
    if p.m is None:
        raise ValueError("complemented_set needs a natural unit interval order")
    if p.n <= 4:
        raise ValueError(f"need n > 4, got {p.n}")
    missed, tails = {}, {}
    for a in powersum_words(p, 2):
        rest = (1 << (p.n + 1)) - 2 - (1 << a[0]) - (1 << a[1])
        if rest not in tails:
            tails[rest] = _powersum_words(p, rest, p.n - 2)
        for b in tails[rest]:
            pattern = _missed_pattern(p, a, b, rest)
            if pattern:
                missed[a, b] = pattern
    return missed


# ---------------------------------------------------------------------------
# gluing into two-row tableaux
# ---------------------------------------------------------------------------

def _glue(p, a, b, pattern):
    """The powerful two-row tableau of shape (n-2, 2) that the missed pair
    (a, b) glues into; the row arrangement is dictated by its pattern.  The
    result evaluates like the concatenated pair: its column word has the
    same inversion count."""
    if pattern == 1:
        rows = (a, b)
    elif pattern == 2:
        rows = ((a[1], a[0]), b)
    elif pattern == 4 or r_index(p, b) > 1:
        rows = (b, a)
    else:  # pattern 5 with r_index 1
        rows = (b, (a[1], a[0]))
    cols = tab(p, rows)
    if inv_word(p, colword(cols)) != inv_word(p, a + b):
        raise RuntimeError(f"gluing ({a!r}, {b!r}) changed the inversion count")
    return cols


def K_set(p):
    """The distinguished standard tableaux of shape (n-2, 2).

    Image of the full complemented set under the gluing map; since the word
    pairs use every element once, each image tableau is standard.  The sum
    of q^inv over this set is the elementary coefficient of (n-2, 2), and
    the set sits between the strong and powerful standard tableaux.  Takes
    natural unit interval orders only and raises ValueError on any other
    poset.
    """
    n = p.n
    if n <= 4:
        raise ValueError(f"shape (n-2, 2) needs n > 4, got {n}")
    missed = complemented_set(p)
    out = {_glue(p, a, b, pattern) for (a, b), pattern in missed.items()}
    if len(out) != len(missed):
        raise RuntimeError("gluing map collided on distinct pairs")
    return out
