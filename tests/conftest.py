"""Shared test settings, oracles and helpers that no command needs.

The oracles recompute, by a second route, what ``src/`` computes on integer
tables: type A one-line notation, the simple roots of a type, dot products,
Gauss-Jordan inversion (the Gram-inverse route to the coweights), the action
and reflections on ``Fraction`` vectors, the reflection in a root as a
conjugate of a simple reflection by words, the members and words of a convex
set by breadth-first search on frozensets of root keys, the distinct convex
order ideals as the closure of the inversion masks under union, full
commutativity by a braid scan over a whole commutation class and by
Stembridge's heap test over every window (for the test of the FC walk's
children), the heap rows of a word as the closure of its pairs of
noncommuting positions (for both routes to the rows), the inversion
keys of a reduced word (for a diagram's ``inversion_mask``), the length of a
word counted as inversions (for ``check_reduced``), the number of
root-poset ideals by a walk (for ``catalan_number``), the elements of each
length by the shortlex byte walk (for ``length_distribution``), |W| from
the marks of the highest root (for ``group_order``), the group's elements
with their shortlex words decoded from the byte walk (for the codes of
``all_elements``) and the decoded table of the scans with its root
columns and bit planes row by row (for the columns and planes read off the
codes), the half bound of a
generalized semiorder by group products (for ``check_half_bound``), the
single-exit simple roots of a root-poset ideal, the classical semiorder of
a point set and brute-force linear extension counts.  The helpers build objects the
tests compare: commutation classes, the reduced words up to a length, right
translates of convex sets, W^A as a ``ConvexSet`` from the rows of each
requested A, and every convex order ideal as one, dual
posets, and the root keys of a finite group object with the masks and
frozensets of such keys.  Property tests run under a derandomized
hypothesis profile: the examples are derived from each test's source, so
every run of the suite draws the same ones, and no example database is
written.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial, prod
from struct import Struct

from hypothesis import settings

from coxbalance import convex, weyl
from coxbalance.coxgen import NotReducedError
from coxbalance.linalg import bits
from coxbalance.posets import LabeledPoset
from coxbalance.rootsys import _doubled_simple_roots, iter_ideal_masks

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


# -- Fraction vectors -----------------------------------------------------------


def vec(entries):
    return tuple(Fraction(x) for x in entries)


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def scale(c, x):
    return tuple(c * a for a in x)


def neg(x):
    return tuple(-a for a in x)


def zero(n):
    return (Fraction(0),) * n


def dot(x, y):
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def invert(m):
    """Invert a square ``Fraction`` matrix (row-major) by Gauss-Jordan
    elimination, exactly."""
    n = len(m)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [a * inv_p for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def reflect(alpha, x):
    """Reflect a vector across a nonzero root: x - (2<a,x>/<a,a>) a, exactly."""
    return sub(x, scale(2 * dot(alpha, x) / dot(alpha, alpha), alpha))


def simple_roots(family, rank):
    """Simple roots of an irreducible type in diagram order, as ``Fraction``
    vectors: the halves of the doubled table that ``rootsys`` builds from."""
    return [tuple(Fraction(x, 2) for x in d) for d in _doubled_simple_roots(family, rank)]


# -- group elements -------------------------------------------------------------


def one_line(rs, w):
    """One-line notation of a type A element, as a permutation of 1..n.

    The oracle behind the 321-avoidance checks.  w(e_1 - e_{j+1}) =
    e_{pi(1)} - e_{pi(j+1)} is read off the signed action tuple w: its
    doubled coordinates are 2 at position pi(1) and -2 at pi(j+1).
    """
    if rs.family != "A":
        raise ValueError("one-line notation is defined for type A only")
    n = rs.rank + 1
    perm = [0] * n
    for j in range(1, n):
        img = w[rs._doubled.index((2,) + (0,) * (j - 1) + (-2,) + (0,) * (n - j - 1))]
        d = [x if img > 0 else -x for x in rs._doubled[abs(img) - 1]]
        perm[0], perm[j] = d.index(2) + 1, d.index(-2) + 1
    return tuple(perm)


def apply(rs, w, x):
    """Image under w of an ambient vector lying in the span of the simple roots.

    The ``Fraction`` route: x = sum_i <x, omega_i^vee> alpha_i, and w alpha_i
    is the signed root at ``w[simple index]``, read from the ``Fraction``
    views of the type.
    """
    out = zero(rs.ambient_dim)
    for i, k in enumerate(rs.simple_indices):
        c = dot(rs.coweights[i], x)
        if c:
            img = w[k]
            out = add(out, scale(c if img > 0 else -c, rs.positive_roots[abs(img) - 1]))
    return out


def reflection_word_element(rs, k):
    """The reflection in positive root k by words: u s_j u^-1, where
    u^-1 = s_im .. s_i1 lowers root k to alpha_j one simple reflection at
    a time."""
    path = []
    while k not in rs.simple_indices:
        i = next(i for i in range(1, rs.rank + 1) if 0 < rs.simple_image(i, k) <= k)
        path.append(i)
        k = rs.simple_image(i, k) - 1
    j = rs.simple_indices.index(k) + 1
    return weyl.WeylContext(rs).from_word(path + [j] + path[::-1])


def inversion_keys_of_word(g, word):
    """Keys of s_{i_l} ... s_{i_{k+1}} alpha_{i_k} for k = 1..l (word assumed reduced).

    These are the positive roots that s_{i_1} ... s_{i_l} sends negative,
    in any group object; the oracle for a diagram's ``inversion_mask``,
    which meets the same roots in reverse order of the word.
    """
    keys = []
    y = g.identity()
    for i in reversed(word):
        keys.append(g.simple_image_key(y, i))
        y = g.mul_simple_right(y, i)
    return keys[::-1]


def word_length(g, word):
    """Length of the element of a word, counted as its inversions: the
    oracle for ``check_reduced``'s descent test."""
    return g.inversion_mask(g.from_word(word)).bit_count()


def commutation_class(sys, word):
    """All words reachable from a reduced word by swapping adjacent commuting
    letters, sorted; raises :class:`NotReducedError` on a non-reduced word."""
    if word_length(sys, word) != len(word):
        raise NotReducedError(word)
    seen = {tuple(word)}
    frontier = list(seen)
    while frontier:
        w = frontier.pop()
        for p in range(len(w) - 1):
            if sys.coxeter_m(w[p], w[p + 1]) == 2:
                w2 = w[:p] + (w[p + 1], w[p]) + w[p + 2:]
                if w2 not in seen:
                    seen.add(w2)
                    frontier.append(w2)
    return sorted(seen)


def braid_free_class(sys, word):
    """Oracle for full commutativity: no word in the commutation class of a
    reduced word has a factor i, j, i, ... of m(i, j) >= 3 letters."""
    for w in commutation_class(sys, word):
        for p in range(len(w) - 1):
            a, b = w[p], w[p + 1]
            m = sys.coxeter_m(a, b)
            if m is not None and m > 2 and w[p:p + m] == ((a, b) * m)[:m]:
                return False
    return True


def heap_rows_by_pairs(sys, word):
    """Oracle for ``heap_rows`` on a reduced word, from the definition of the
    heap: the order is generated by the pairs k < j whose letters are equal
    or do not commute, so the row of j is its own bit ORed with the rows of
    every such earlier k."""
    rows = []
    for j, a in enumerate(word):
        row = 1 << j
        for k in range(j):
            if sys.coxeter_m(word[k], a) != 2:
                row |= rows[k]
        rows.append(row)
    return tuple(rows)


def fc_by_all_windows(sys, word):
    """Oracle for full commutativity on a reduced word, by Stembridge's heap
    test over every window: for each pair i, j with 3 <= m(i, j) < inf, each
    run of m consecutive positions of i and j bounds a heap interval of m
    elements iff it is a braid."""
    rows = heap_rows_by_pairs(sys, word)
    letters = sorted(set(word))
    for x, a in enumerate(letters):
        for b in letters[x + 1:]:
            m = sys.coxeter_m(a, b)
            if m is None or m == 2:
                continue
            chain = [p for p, c in enumerate(word) if c == a or c == b]
            for top, bottom in zip(chain, chain[m - 1:]):
                # the size of the interval: positions above bottom, below top
                if sum(rows[top + z] >> top & 1 for z in bits(rows[bottom] >> top)) == m:
                    return False
    return True


def reduced_words(g, max_length):
    """Every reduced word of a group object up to ``max_length`` letters, by
    appending letters that are not right descents."""
    words = [()]
    level = [((), g.identity())]
    for _ in range(max_length):
        level = [(word + (i,), g.mul_simple_right(w, i))
                 for word, w in level for i in range(1, g.rank + 1) if not g.is_descent(w, i)]
        words += [word for word, _ in level]
    return words


def bfs_convex_rows(ctx, lower, upper, cap=weyl.DEFAULT_ELEMENT_CAP):
    """Oracle for the single-set walk of ``convex``: the (element, word,
    frozenset of inversion keys) rows of W_D^A, for the frozensets of root
    keys D = ``lower`` and A = ``upper``, sorted by (length, word).

    A breadth-first search on the inverses v = w^-1 inside W^A, keeping a
    set of seen elements, with the cap counting the members found.  Each
    member is inverted at the end and its word recomputed by
    ``reduced_word``; only then are the rows filtered by D and sorted.
    """
    start = ctx.identity()
    seen = {start}
    found = [(start, frozenset())]
    level = list(found)
    while level:
        nxt = []
        for v, inv in level:
            for i in range(1, ctx.rank + 1):
                key = ctx.simple_image_key(v, i)
                if key is None or key not in upper:
                    continue
                v2 = ctx.mul_simple_right(v, i)
                if v2 not in seen:
                    seen.add(v2)
                    if len(seen) > cap:
                        raise weyl.EnumerationCapExceeded(cap)
                    nxt.append((v2, inv | {key}))
        found += nxt
        level = nxt
    rows = [(w, ctx.reduced_word(w), inv)
            for w, inv in ((ctx.invert(v), inv) for v, inv in found) if lower <= inv]
    return sorted(rows, key=lambda row: (len(row[1]), row[1]))


def elements(rs):
    """Every group element with its shortlex-minimal reduced word, in the
    order of ``weyl.all_elements``.

    The codes of ``weyl._walk``, block by block, each decoded to its
    signed tuple.  A code c in block k has the tree parent s_(k+1) c,
    ``c.translate(table)`` with letter k+1's table and no delete string
    (s_i is an involution on codes), and its word is k+1 followed by the
    parent's word, read from the previous level's words.  Raises what
    ``all_elements`` raises, before any element.
    """
    steps = weyl._letter_steps(rs, weyl.DEFAULT_ELEMENT_CAP)
    tables = [table for table, _ in steps]
    decode = Struct(f"{rs.num_positive_roots}b").unpack
    words = {}
    for level in weyl._walk(rs, steps, weyl.DEFAULT_ELEMENT_CAP):
        parents, words = words, {}
        for letter, (table, block) in enumerate(zip(tables, level), 1):
            first = (letter,)
            for c in block:
                word = words[c] = first + parents[c.translate(table)]
                yield decode(c), word
        for c in level[-1]:  # e, alone at length 0
            words[c] = ()
            yield decode(c), ()


def element_table(ctx):
    """The decoded table of the scans: an (element, shortlex word,
    inversion mask) row per element, in the order of ``weyl.all_elements``,
    so that row r is row r of the joined codes."""
    return [(w, word, ctx.inversion_mask(w)) for w, word in elements(ctx.root_system)]


def table_columns(table, n):
    """Column j of the decoded table, row by row: the int bitset of the rows
    whose inversion set holds root j."""
    columns = [0] * n
    for r, (_, _, mask) in enumerate(table):
        bit = 1 << r
        for j in bits(mask):
            columns[j] |= bit
    return columns


def image_rows(table, n):
    """Per root k, the int bitset of the decoded table's rows w with image
    ``w[k] = a``, keyed by the signed root index a."""
    images = [{} for _ in range(n)]
    for r, (w, _, _) in enumerate(table):
        bit = 1 << r
        for by_image, a in zip(images, w):
            by_image[a] = by_image.get(a, 0) | bit
    return images


def table_bit_planes(entries, images):
    """Per root k, (low, planes) from the image rows of the decoded table:
    low is the least ``entries[a]`` over the images a of root k, and plane b
    the rows whose entry minus low has bit b set."""
    out = []
    for by_image in images:
        low = min(entries[a] for a in by_image)
        planes = [0] * max(entries[a] - low for a in by_image).bit_length()
        for a, rows in by_image.items():
            for b in bits(entries[a] - low):
                planes[b] |= rows
        out.append((low, planes))
    return out


def union_closure_uppers(ctx):
    """Oracle for the convex-ideal scan: the distinct W^A are the distinct
    unions A of inversion sets, so closing {0} under OR with the inversion
    mask of every group element gives each A once.  Sorted by (|A|, sorted A).
    """
    unions = {0}
    for w, _ in elements(ctx.root_system):
        mask = ctx.inversion_mask(w)
        unions |= {u | mask for u in unions}
    return sorted(unions, key=lambda a: (a.bit_count(), list(bits(a))))


def ideals_from_uppers(ctx, uppers):
    """W^A as a ``ConvexSet`` for each root bitmask A of ``uppers``, in order:
    the rows of ``element_table`` at the bits of M(A) from
    ``convex.ideal_rows``, in table order."""
    table = element_table(ctx)
    _, rows = convex.ideal_rows(ctx, uppers)
    return [convex._build(ctx, [table[r] for r in bits(m)]) for m in rows]


def convex_ideals(ctx):
    """Every distinct convex order ideal W^A of a finite Weyl type as a
    ``ConvexSet``, in the order of the scan that lists their A."""
    uppers = [upper for upper, _ in convex.enumerate_convex_ideals(ctx, convex.balance_scorer)]
    return ideals_from_uppers(ctx, uppers)


def keys_of(mask):
    """The root keys of a bitmask, as a frozenset."""
    return frozenset(bits(mask))


def mask_of(keys):
    """The bitmask of some root keys; a repeated key counts once."""
    mask = 0
    for k in keys:
        mask |= 1 << k
    return mask


def root_keys(g):
    """The key of each positive root of a finite group object, by its
    ``key_order`` value (the column, for a diagram): every root w(alpha_i),
    over a breadth-first walk of the whole group."""
    seen = {g.identity()}
    level = list(seen)
    keys = {}
    while level:
        nxt = []
        for v in level:
            for i in range(1, g.rank + 1):
                key = g.simple_image_key(v, i)
                if key is not None:
                    keys[g.key_order(key)] = key
                v2 = g.mul_simple_right(v, i)
                if v2 not in seen:
                    seen.add(v2)
                    nxt.append(v2)
        level = nxt
    return keys


def translate(c, w):
    """The right translate C w; ``from_members`` also checks it is convex."""
    return convex.from_members(c.ctx, [c.ctx.mul(m, w) for m in c.members])


# -- root-poset ideals and semiorders -----------------------------------------


def marks_group_order(rs):
    """|W| = r! m_1 ... m_r f, where the m_i are the marks of the highest root
    and f = 1 + #{i : m_i = 1} is the index of connection (Bourbaki, Lie
    Groups and Lie Algebras, ch. VI, section 2): the oracle for
    ``weyl.group_order``, which multiplies the degrees."""
    marks = rs.coefficients[rs.highest_root_index]
    return factorial(rs.rank) * prod(marks) * (1 + marks.count(1))


def half_bound_by_products(c, mask, refl):
    """Oracle for ``semiorder.check_half_bound`` on the ``ConvexSet`` c = W^A
    of the root set A = ``mask``: every root has inversion fraction at most
    1/2 on c, and for alpha in A, w -> w s_alpha, one group product and a set
    lookup per (member, root), sends the members inverting alpha into c."""
    if any(2 * c.inversion_count(k) > len(c) for k in bits(c.upper)):
        return False
    members = set(c.members)
    return all(c.ctx.mul(m, refl[k]) in members
               for k in bits(mask) for m, inv in zip(c.members, c.masks) if inv >> k & 1)


def count_root_ideals(rs):
    """The number of root-poset order ideals by walking them all, the oracle
    for the closed form of ``rootsys.catalan_number``."""
    return sum(1 for _ in iter_ideal_masks(rs))


def levels(rs, cap=weyl.DEFAULT_ELEMENT_CAP):
    """The group one length at a time as the byte codes that
    ``weyl.all_elements`` walks, in its blocks, with no word derived: the
    walk oracle for ``weyl.length_distribution``.  At the first ``next()``
    it raises what ``all_elements`` raises, with ``cap`` in place of
    ``weyl.DEFAULT_ELEMENT_CAP``."""
    yield from weyl._walk(rs, weyl._letter_steps(rs, cap), cap)


def exit_roots(rs, mask, i):
    """Members beta of the ideal with s_i(beta) a positive root outside it."""
    out = []
    for j in bits(mask):
        img = rs.simple_image(i, j)
        if img > 0 and not (mask >> (img - 1)) & 1:
            out.append(j)
    return out


def single_exit_simple(rs, mask):
    """The first simple root in the nonempty ideal ``mask`` moving at most one
    of its members out, as (1-based index, exit root indices); None if none."""
    if mask == 0:
        raise ValueError("the empty ideal has no simple root to offer")
    for i in range(1, rs.rank + 1):
        if not (mask >> rs.simple_indices[i - 1]) & 1:
            continue
        exits = exit_roots(rs, mask, i)
        if len(exits) <= 1:
            return i, tuple(exits)
    return None


def induced_semiorder_poset(values):
    """The classical semiorder on the given points: x < y iff f(y) - f(x) >= 1."""
    values = [Fraction(v) for v in values]
    n = len(values)
    rows = tuple(
        sum(1 << j for j in range(n) if i == j or values[j] - values[i] >= 1)
        for i in range(n)
    )
    return LabeledPoset(n, rows)


# -- posets ---------------------------------------------------------------------


def dual(poset):
    """The poset with its order reversed, same labels."""
    rows = [0] * poset.n
    for i, row in enumerate(poset.rows):
        for j in bits(row):
            rows[j] |= 1 << i
    return LabeledPoset(poset.n, tuple(rows), poset.labels)


def linear_extension_count(poset):
    """Brute-force count of order-preserving bijections onto 1..n (n <= 8)."""
    assert poset.n <= 8
    pairs = [(i, j) for i, row in enumerate(poset.rows) for j in bits(row)]
    total = 0
    for perm in permutations(range(poset.n)):
        # perm[k] = element placed at position k
        pos = [0] * poset.n
        for k, x in enumerate(perm):
            pos[x] = k
        if all(pos[i] <= pos[j] for i, j in pairs):
            total += 1
    return total


def labelled_relation(heap):
    """The order of a heap on canonical ids (label, k-th occurrence of it).

    Equal letters never commute, so in a heap they form a chain, and two
    words of one commutation class give the same relation exactly when
    their heaps are isomorphic as labelled posets.
    """
    ids = []
    seen = {}
    for label in heap.labels:
        ids.append((label, seen.get(label, 0)))
        seen[label] = seen.get(label, 0) + 1
    return {(ids[i], ids[j]) for i, row in enumerate(heap.rows) for j in bits(row)}


def heap_respects_diagram(poset, sys):
    """Cover labels are adjacent in the diagram; equal-or-adjacent labels compare.

    The two defining compatibilities of heaps with their Coxeter diagram.
    """
    for i, j in poset.covers():
        m = sys.coxeter_m(poset.labels[i], poset.labels[j])
        if m == 2 or m == 1:
            return False
    for i in range(poset.n):
        for j in range(i + 1, poset.n):
            m = sys.coxeter_m(poset.labels[i], poset.labels[j])
            if m != 2 and not ((poset.rows[i] >> j) & 1 or (poset.rows[j] >> i) & 1):
                return False
    return True
