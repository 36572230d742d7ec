"""Structural identities for powerful-tableau families.

Two groups of operations live here, both downstream of the tableau
machinery:

* the greedy-partition displacement family, whose members are shapes
  whose elementary coefficient is a plain sum of q^inv over strong
  tableaux;
* the two-row factorization/multiplication machinery: every powersum word of
  length k splits into a 2-letter and a (k-2)-letter word, the pairs missed
  by that splitting are characterized by five mutually exclusive relation
  patterns, and gluing each missed pair back into a two-row array yields the
  distinguished family K(n-2, 2) sitting between the strong and powerful
  standard tableaux.

The paper's other constructions (concatenation, full-column extension at
the longest chain, peak vectors over the path order, the tableau-side
test for the gluing image, monomial structure coefficients) are second
routes to quantities computed here or in ``csf``; they live in the tests
(``tests/oracles.py``), which check them against these.

Everything is exact.  Identities that the construction is supposed to
guarantee (case exclusivity, powersum outputs, inversion preservation,
injectivity, dual-route agreement) are re-checked at runtime and raise
RuntimeError when violated, so a breach is loud rather than silent.
"""
import itertools
from dataclasses import dataclass

from .qcore import check_partition, conjugate
from .posets import greedy_partition
from .tableaux import colword, inv_word, is_powersum_word, tab


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
        if not isinstance(i, int) or not 1 <= i <= p.n:
            raise ValueError(f"cut index out of range: {i!r}")
        if i + 1 in cuts:
            raise ValueError(f"adjacent cut indices: {i} and {i + 1}")
    if set(weights) != cuts:
        raise ValueError("weights must be keyed exactly by the cut indices")
    for i, w in weights.items():
        if not isinstance(w, int) or w <= 0:
            raise ValueError(f"displacement at {i} must be a positive integer")

    top = max([len(gr)] + [i + 1 for i in cuts])
    parts = []
    for i in range(1, top + 1):
        size = gr[i - 1] if i <= len(gr) else 0
        if i in cuts:
            size -= weights[i]
        if i - 1 in cuts:
            size += weights[i - 1]
        parts.append(size)
    while parts and parts[-1] == 0:
        parts.pop()
    mu = tuple(parts)
    try:
        mu = check_partition(mu)
    except ValueError:
        raise ValueError(
            f"displaced rows {mu} do not form a partition"
        ) from None
    return conjugate(mu)


# ---------------------------------------------------------------------------
# powersum word factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorPair:
    """A 2-letter and a (k-2)-letter powersum word, kept in order."""

    a: tuple
    b: tuple

    def __iter__(self):
        return iter((self.a, self.b))


def r_index(p, w):
    """Least position whose letter is incomparable to its right neighbour."""
    for i in range(len(w) - 1):
        if p.incomparable(w[i], w[i + 1]):
            return i + 1
    raise ValueError(f"no incomparable adjacent letters in {w!r}")


def powersum_words(p, length):
    """All injective powersum words of the given length: words draw
    distinct elements of the poset in any order."""
    out = []
    for combo in itertools.combinations(p.elements(), length):
        for word in itertools.permutations(combo):
            if is_powersum_word(p, word):
                out.append(word)
    return out


def factorize(p, w):
    """Split a powersum word of length k > 2 into a 2 + (k-2) pair.

    The split swaps only comparable adjacent letters, so the inversion count
    of the concatenated pair matches the input; that and the powersum-ness of
    both halves are re-checked on every call.
    """
    w = tuple(w)
    if len(w) <= 2:
        raise ValueError(f"need at least 3 letters, got {len(w)}")
    if not is_powersum_word(p, w):
        raise ValueError(f"not a powersum word: {w!r}")
    r = r_index(p, w)

    if r == 1:
        a, b = w[:2], w[2:]
    elif p.less(w[r - 2], w[r]):
        a, b = (w[r - 1], w[r]), w[: r - 1] + w[r + 1 :]
    elif p.incomparable(w[r - 2], w[r]):
        if any(not p.less(w[r - 2], w[j]) for j in range(r + 1, len(w))):
            a, b = (w[r], w[r - 1]), w[: r - 1] + w[r + 1 :]
        else:
            if r != 2:
                raise RuntimeError(
                    f"blocked split should only happen at position 2, got {r}"
                )
            a, b = (w[2], w[0]), (w[1],) + w[3:]
    else:
        raise RuntimeError(
            f"letter below its second-left neighbour in powersum word {w!r}"
        )

    if not is_powersum_word(p, a) or not is_powersum_word(p, b):
        raise RuntimeError(f"split of {w!r} produced a non-powersum half")
    if inv_word(p, a + b) != inv_word(p, w):
        raise RuntimeError(f"split of {w!r} changed the inversion count")
    return FactorPair(a, b)


def _missed_pattern(p, a, b):
    """Which of the five relation patterns (1..5) the pair matches, or 0.

    A pair of powersum words lies outside the factorization image exactly
    when one pattern matches.  The patterns are pairwise exclusive for any
    pair at all, so more than one match means the relation data is corrupt.
    """
    r = r_index(p, b)
    below_all = all(p.less(a[1], x) for x in b)
    tail_up = all(p.less(a[0], b[j]) for j in range(1, len(b)))
    hits = []
    if below_all and p.less(a[0], b[0]):
        hits.append(1)
    if below_all and p.incomparable(a[0], b[0]) and tail_up:
        hits.append(2)
    if p.incomparable(b[0], a[0]) and p.less(b[0], a[1]) and tail_up:
        hits.append(3)
    if p.less(b[r - 1], a[0]) and p.less(b[r - 1], a[1]) and p.less(b[r], a[1]):
        hits.append(4)
    if p.incomparable(b[r - 1], a[0]) and p.less(b[r - 1], a[1]) and p.less(b[r], a[0]):
        hits.append(5)
    if len(hits) > 1:
        raise RuntimeError(f"patterns {hits} overlap on pair ({a!r}, {b!r})")
    return hits[0] if hits else 0


def complemented_set(p, k):
    """Disjoint-support word pairs missed by the length-k factorization.

    Computed twice — as the literal set complement of the factorization
    image inside all disjoint-support (2, k-2) powersum pairs, and directly
    from the five relation patterns — and the two answers must agree.
    """
    if k <= 4:
        raise ValueError(f"need k > 4, got {k}")
    universe = set()
    tails = powersum_words(p, k - 2)
    for a in powersum_words(p, 2):
        sa = set(a)
        for b in tails:
            if sa.isdisjoint(b):
                universe.add(FactorPair(a, tuple(b)))

    image = {factorize(p, w) for w in powersum_words(p, k)}
    by_image = universe - image
    by_pattern = {fp for fp in universe if _missed_pattern(p, fp.a, fp.b)}
    if by_image != by_pattern:
        diff = by_image.symmetric_difference(by_pattern)
        raise RuntimeError(
            f"complement routes disagree on {len(diff)} pairs, e.g. {next(iter(diff))}"
        )
    return by_image


# ---------------------------------------------------------------------------
# multiplication into two-row tableaux
# ---------------------------------------------------------------------------

def mult_map(p, pair):
    """Glue a missed pair into a powerful two-row tableau of shape (k-2, 2).

    The row arrangement is dictated by which relation pattern the pair
    matches; a pair matching none (i.e. one that the factorization does hit)
    is rejected.  The result always evaluates like the concatenated pair:
    its column word has the same inversion count.
    """
    a, b = pair
    a, b = tuple(a), tuple(b)
    for half in (a, b):
        if not is_powersum_word(p, half):
            raise ValueError(f"not a powersum word: {half!r}")
    if len(a) != 2 or len(b) < 3:
        raise ValueError("expected a 2-letter and a (k-2)-letter word, k > 4")
    pattern = _missed_pattern(p, a, b)
    if pattern == 0:
        raise ValueError(f"pair ({a!r}, {b!r}) is in the factorization image")

    if pattern == 1:
        rows = (a, b)
    elif pattern == 2:
        rows = ((a[1], a[0]), b)
    elif pattern == 3:
        rows = ((b[0], a[0]), (a[1],) + b[1:])
    elif pattern == 4:
        rows = (b, a)
    else:
        r = r_index(p, b)
        rows = (b, (a[1], a[0])) if r == 1 else (b, a)

    cols = tab(p, rows)
    if inv_word(p, colword(cols)) != inv_word(p, a + b):
        raise RuntimeError(f"gluing ({a!r}, {b!r}) changed the inversion count")
    return cols


def K_set(p):
    """The distinguished standard tableaux of shape (n-2, 2).

    Image of the full complemented set under the gluing map; since the word
    pairs use every element once, each image tableau is standard.  The sum
    of q^inv over this set is the elementary coefficient of (n-2, 2), and
    the set sits between the strong and powerful standard tableaux.
    """
    n = p.n
    if n <= 4:
        raise ValueError(f"shape (n-2, 2) needs n > 4, got {n}")
    missed = complemented_set(p, n)
    out = {mult_map(p, fp) for fp in missed}
    if len(out) != len(missed):
        raise RuntimeError("gluing map collided on distinct pairs")
    return out
