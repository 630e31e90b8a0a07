"""Generic Coxeter systems from labelled diagrams, on integer root coordinates.

Diagram labels are 2, 3, 4, 6 and inf (inf encoded as ``None``).  Each label
m_ij fixes the generalized Cartan matrix entries (a_ij, a_ji), i < j: 0, -1,
(-1, -2), (-1, -3) or (-2, -2), so that a_ij a_ji = 4 cos^2(pi/m_ij).  The
reflections s_i alpha_j = alpha_j - a_ij alpha_i generate the Coxeter group,
and every real root w(alpha_i) is an integer vector in simple-root
coordinates, either positive or negative (Kac, *Infinite-dimensional Lie
algebras*, 3.13).  Other labels, such as 5, would need irrational entries.

:class:`CoxSystem` is the group object of a diagram; a diagram element is
its tuple of columns, column j = w(alpha_j), and is its own key.  Like
``weyl.WeylContext``, the group object of a finite Weyl type, it keeps only
the element primitives ``rank``, ``identity()``, ``mul_simple_right`` and
``mul_simple_left(w, i)``, ``is_descent(w, i)`` (True when w(alpha_i) is
negative), ``simple_image_key(w, i)`` (None when it is), ``invert(w)``,
``inversion_mask(w)``, ``coxeter_m(i, j)``, ``coxeter`` (the rows of the
Coxeter matrix), ``key_order(key)`` (the order in which keys are listed)
and ``key_display(key)``.  A root key is an int,
and a set of roots is the int bitmask of its keys.  Both inherit from
:class:`GroupWords` the routines that read elements only through these:
``from_word``, ``check_reduced`` (a descent test per letter), the least
right descent ``descent`` and the greedy least reduced words
``inverse_word`` and ``reduced_word``.  This module also holds the one
walk of the shortlex tree, :func:`shortlex_levels`, and the word
combinatorics shared by both: the reflection key of a word, and full
commutativity, decided on the heap rows of one reduced word
(``posets.heap_rows``), with no poset built.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

from .linalg import bits
from .posets import heap_rows

INF = None  # infinite edge label

# Largest rank a diagram file may give; each element is a rank x rank integer
# matrix, so the cost grows steeply with rank.
DIAGRAM_MAX_RANK = 64

# label m_ij -> Cartan entries (a_ij, a_ji) for i < j, with a_ij a_ji = 4 cos^2(pi/m_ij)
_CARTAN_PAIR = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INF: (-2, -2)}


class CoxeterMatrix:
    """Symmetric Coxeter matrix with off-diagonal entries in {2, 3, 4, 6, inf}."""

    def __init__(self, rank: int, entries: Tuple[Tuple[Optional[int], ...], ...]):
        self.rank = rank
        self.entries = m = entries
        if len(m) != rank or any(len(row) != rank for row in m):
            raise ValueError("entries must be a rank x rank table")
        for i in range(rank):
            if m[i][i] != 1:
                raise ValueError("diagonal entries must equal 1")
            for j in range(rank):
                if m[i][j] != m[j][i]:
                    raise ValueError("matrix must be symmetric")
                if i != j and m[i][j] not in _CARTAN_PAIR:
                    raise ValueError(
                        f"label m_{i+1}{j+1} = {m[i][j]} unsupported: labels "
                        "must be 2, 3, 4, 6 or inf (others need irrational "
                        "root coordinates)"
                    )

    def m(self, i: int, j: int) -> Optional[int]:
        """Entry for 1-based generator indices."""
        return self.entries[i - 1][j - 1]

    def edges(self) -> List[Tuple[int, int, Optional[int]]]:
        out = []
        for i in range(1, self.rank + 1):
            for j in range(i + 1, self.rank + 1):
                if self.m(i, j) != 2:
                    out.append((i, j, self.m(i, j)))
        return out


def matrix_from_edges(rank: int, edges: Sequence[Tuple[int, int, Optional[int]]]) -> CoxeterMatrix:
    """Build a Coxeter matrix from (i, j, m) edge triples; absent pairs get m = 2."""
    table = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        table[i][i] = 1
    given = set()
    for i, j, m in edges:
        for name, v in (("i", i), ("j", j)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f'edge ({i!r}, {j!r}): "{name}" must be an integer')
        if not (1 <= i <= rank and 1 <= j <= rank and i != j):
            raise ValueError(f"bad edge ({i}, {j})")
        if frozenset((i, j)) in given:
            raise ValueError(f"edge ({i}, {j}) is given twice")
        given.add(frozenset((i, j)))
        table[i - 1][j - 1] = m
        table[j - 1][i - 1] = m
    return CoxeterMatrix(rank, tuple(tuple(row) for row in table))


def matrix_from_json(text: str) -> CoxeterMatrix:
    """Parse the diagram format {"rank": r, "edges": [{"i","j","m"}...]}.

    ``m`` is 3, 4, 6 or the string "inf"; absent pairs commute.
    """
    data = json.loads(text)
    rank = data.get("rank") if isinstance(data, dict) else None
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ValueError('diagram must be a JSON object with an integer "rank" field')
    if not 1 <= rank <= DIAGRAM_MAX_RANK:
        raise ValueError(
            f'diagram "rank" must be between 1 and {DIAGRAM_MAX_RANK}, not {rank}'
        )
    given = data.get("edges", [])
    if not isinstance(given, list):
        raise ValueError(f'diagram "edges" must be a list, not {given!r}')
    edges = []
    for e in given:
        missing = [f for f in "ijm" if not isinstance(e, dict) or f not in e]
        if missing:
            raise ValueError(f'diagram edge {e!r} has no "{missing[0]}" field')
        m = e["m"]
        if m == "inf":
            m = INF
        elif not (isinstance(m, int) and m >= 3):
            raise ValueError(f'edge label must be an integer >= 3 or "inf": {m!r}')
        edges.append((e["i"], e["j"], m))
    return matrix_from_edges(rank, edges)


def complete_graph_matrix(n: int) -> CoxeterMatrix:
    """Every pair of the n generators joined by an edge labelled 3."""
    return matrix_from_edges(
        n, [(i, j, 3) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


def cycle_matrix(n: int) -> CoxeterMatrix:
    """The n-cycle 1 - 2 - ... - n - 1 with every label 3."""
    edges = [(i, i + 1, 3) for i in range(1, n)] + [(1, n, 3)]
    return matrix_from_edges(n, edges)


def path_matrix(n: int, labels: Sequence[Optional[int]]) -> CoxeterMatrix:
    return matrix_from_edges(n, [(i, i + 1, labels[i - 1]) for i in range(1, n)])


def is_acyclic(matrix: CoxeterMatrix) -> bool:
    """True iff the diagram (edges where m >= 3) contains no cycle."""
    parent = list(range(matrix.rank + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in matrix.edges():
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def is_irreducible(matrix: CoxeterMatrix) -> bool:
    """True iff the diagram is connected."""
    if matrix.rank == 0:
        return True
    seen = {1}
    stack = [1]
    while stack:
        i = stack.pop()
        for j in range(1, matrix.rank + 1):
            if j not in seen and i != j and matrix.m(i, j) != 2:
                seen.add(j)
                stack.append(j)
    return len(seen) == matrix.rank


# -- the integer root representation -----------------------------------------

Columns = Tuple[Tuple[int, ...], ...]  # an element: column j = w(alpha_j)


class NotReducedError(ValueError):
    def __init__(self, word):
        super().__init__(f"word {list(word)} is not reduced")
        self.word = word


class GroupWords:
    """The word routines of both group objects, written once on the element
    primitives that the module docstring lists."""

    def from_word(self, word: Sequence[int]):
        """Compose simple reflections left to right: word [i1, .., ik] -> s_i1 ... s_ik."""
        w = self.identity()
        for i in word:
            if not 1 <= i <= self.rank:
                raise ValueError(f"simple index {i} out of range 1..{self.rank}")
            w = self.mul_simple_right(w, i)
        return w

    def check_reduced(self, word: Sequence[int]) -> None:
        """Raise :class:`NotReducedError` at the first letter i that is a right
        descent of the product x of the letters before it, as l(x s_i) > l(x)
        iff x(alpha_i) > 0 (Humphreys, Reflection Groups and Coxeter Groups,
        5.4).  A letter out of range raises ``ValueError`` first."""
        if not all(1 <= i <= self.rank for i in word):
            self.from_word(word)  # raises at the first letter out of range
        x = self.identity()
        for i in word:
            if self.is_descent(x, i):
                raise NotReducedError(word)
            x = self.mul_simple_right(x, i)

    def descent(self, x) -> int:
        """Least right descent of x: the least i with x(alpha_i) negative, or 0 when x = e."""
        for i in range(1, self.rank + 1):
            if self.is_descent(x, i):
                return i
        return 0

    def inverse_word(self, x) -> Tuple[int, ...]:
        """Lexicographically least reduced word of x^-1.

        Stripping the least right descent until e is reached leaves
        x s_i1 ... s_il = e, so x^-1 = s_i1 ... s_il, and each i_k is the
        least left descent of s_i(k-1) ... s_i1 x^-1: the greedy word
        (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 3).
        """
        word = []
        while i := self.descent(x):
            word.append(i)
            x = self.mul_simple_right(x, i)
        return tuple(word)

    def reduced_word(self, w) -> Tuple[int, ...]:
        """Lexicographically least reduced word of w."""
        return self.inverse_word(self.invert(w))


class CoxSystem(GroupWords):
    """The Coxeter group of a diagram, acting on its integer root lattice.

    ``cartan[i][j]`` is a_ij (0-based), so s_i alpha_j = alpha_j - a_ij alpha_i.
    A positive real root gets its key, the next free int, when
    :meth:`simple_image_key` first meets its column; keys are listed in the
    order of their columns.  The keys of two systems are unrelated.
    """

    def __init__(self, matrix: CoxeterMatrix, cartan: Tuple[Tuple[int, ...], ...]):
        self.matrix = matrix
        self.cartan = cartan
        # the column of each key, and the key of each column met so far
        self._columns: list = []
        self._keys: dict = {}

    @property
    def rank(self) -> int:
        return self.matrix.rank

    @property
    def coxeter(self) -> Tuple[Tuple[Optional[int], ...], ...]:
        """The Coxeter matrix as rows, 0-based."""
        return self.matrix.entries

    def coxeter_m(self, i: int, j: int) -> Optional[int]:
        return self.matrix.m(i, j)

    def identity(self) -> Columns:
        r = self.rank
        return tuple(tuple(int(i == k) for k in range(r)) for i in range(r))

    def mul_simple_right(self, w: Columns, i: int) -> Columns:
        """w s_i, from (w s_i)(alpha_j) = w(alpha_j) - a_ij w(alpha_i)."""
        base = w[i - 1]
        return tuple(
            tuple(x - a * y for x, y in zip(col, base)) if a else col
            for col, a in zip(w, self.cartan[i - 1])
        )

    def mul_simple_left(self, w: Columns, i: int) -> Columns:
        """s_i w; s_i changes only coordinate i of each column."""
        k = i - 1
        row = self.cartan[k]
        return tuple(
            col[:k] + (col[k] - sum(a * x for a, x in zip(row, col)),) + col[k + 1:]
            for col in w
        )

    def is_descent(self, v: Columns, i: int) -> bool:
        """True iff v(alpha_i) is negative; read from the sign alone, so no
        key is given to the column."""
        return min(v[i - 1]) < 0

    def simple_image_key(self, v: Columns, i: int) -> Optional[int]:
        """Key of v(alpha_i) if that root is positive, else None."""
        col = v[i - 1]
        if min(col) < 0:
            return None
        key = self._keys.get(col)
        if key is None:
            key = self._keys[col] = len(self._columns)
            self._columns.append(col)
        return key

    def invert(self, w: Columns) -> Columns:
        return self.from_word(self.inverse_word(w))

    def inversion_mask(self, w: Columns) -> int:
        """Bitmask of the positive roots sent negative by w.  Stripping its
        least right descents i1, .., il gives w = s_il ... s_i1, whose
        inversions s_i1 ... s_i(k-1) alpha_ik are keyed for k = 1..l."""
        mask = 0
        y = self.identity()
        while i := self.descent(w):
            mask |= 1 << self.simple_image_key(y, i)
            w = self.mul_simple_right(w, i)
            y = self.mul_simple_right(y, i)
        return mask

    def key_order(self, key: int) -> Tuple[int, ...]:
        return self._columns[key]

    def key_display(self, key: int) -> str:
        return root_display(self._columns[key])


def build_system(matrix: CoxeterMatrix) -> CoxSystem:
    cartan = [[2 if i == j else 0 for j in range(matrix.rank)] for i in range(matrix.rank)]
    for i, j, m in matrix.edges():
        cartan[i - 1][j - 1], cartan[j - 1][i - 1] = _CARTAN_PAIR[m]
    return CoxSystem(matrix, tuple(map(tuple, cartan)))


def root_display(coeffs: Sequence) -> str:
    """A root in simple-root coordinates, as "a1+2a3"."""
    return "+".join(
        f"a{k}" if c == 1 else f"{c}a{k}" for k, c in enumerate(coeffs, start=1) if c
    )


def reflection_key_of_word(g, word: Sequence[int]):
    """Root key of the reflection that a word describes, in any group object.

    If s_i is a left descent of a reflection t != s_i, then s_i t s_i is a
    reflection of length l(t) - 2.  Conjugating by least left descents thus
    reaches some s_j, and t = u s_j u^-1 has the positive root u(alpha_j).
    """
    t = g.from_word(word)
    u = g.identity()
    rw = g.reduced_word(t)
    while len(rw) > 1:
        i = rw[0]
        t = g.mul_simple_right(g.mul_simple_left(t, i), i)
        shorter = g.reduced_word(t)
        if len(shorter) != len(rw) - 2:
            break
        u = g.mul_simple_right(u, i)
        rw = shorter
    if len(rw) != 1:
        raise ValueError("word does not describe a reflection")
    return g.simple_image_key(u, rw[0])


# -- the shortlex tree ---------------------------------------------------------


class EnumerationCapExceeded(ValueError):
    def __init__(self, cap: int):
        super().__init__(f"group enumeration exceeded the element cap of {cap}")
        self.cap = cap


def shortlex_levels(coxeter, root, extend, cap: int) -> Iterator[List[list]]:
    """The tree of least reduced words, one length at a time, in first-letter blocks.

    ``coxeter`` is a group object's ``coxeter``, the rows of its Coxeter
    matrix.  A level is a list of rank + 1 blocks: block k < rank holds the
    entries whose least word starts with letter k + 1, in shortlex order,
    and block rank holds ``root``, the entry of e, alone at length 0.
    ``extend(i, block)`` gives, in order, the entries of the children s_i u
    of the block's elements u that are to be walked; a child left out takes
    its subtree with it.  Callers must not change a yielded level.  Raises
    :class:`EnumerationCapExceeded`, checked after each letter, once more
    than ``cap`` entries, e's included, are walked.

    The tree: least reduced words are closed under taking suffixes, and
    the least word of v != e starts with its least left descent i, so they
    form a tree rooted at e in which the parent of v is s_i v (Bjorner-
    Brenti, Combinatorics of Coxeter Groups, ch. 3): s_i u is a child of u
    iff i is not a left descent of u and no k < i is one of s_i u.  Each
    element is reached once, so no set of seen elements is kept, and the
    letters taken in order, each over blocks in shortlex order, give the
    next level in shortlex order with no sort.

    The blocks: letter i is handed only the blocks j > i, e's included,
    and the blocks j < i with m(i, j) != 2 (inf is ``None``).  For u in
    block j, j is the least left descent of u: if j = i, s_i u is shorter,
    and if j < i and m(i, j) = 2, s_i alpha_j = alpha_j keeps j a left
    descent of s_i u, so neither is a child.
    """
    tried = _letter_blocks(coxeter)
    if cap < 1:
        raise EnumerationCapExceeded(cap)
    level = [[] for _ in tried] + [[root]]
    count = 1
    while True:
        yield level
        nxt = []
        for i, blocks in enumerate(tried, 1):
            children = []
            for j in blocks:
                if level[j]:
                    children += extend(i, level[j])
            count += len(children)
            if count > cap:
                raise EnumerationCapExceeded(cap)
            nxt.append(children)
        if not any(nxt):
            return
        level = nxt + [[]]


@lru_cache(maxsize=64)
def _letter_blocks(coxeter) -> Tuple[Tuple[int, ...], ...]:
    """Per letter, the blocks that :func:`shortlex_levels` hands it.  Built
    once per Coxeter matrix: building them took most of a walk of {e}."""
    rank = len(coxeter)
    return tuple(tuple(j for j in range(rank + 1) if j > i or j < i and row[j] != 2)
                 for i, row in enumerate(coxeter))


# -- word combinatorics (shared with finite Weyl groups) ----------------------


def is_fully_commutative(sys, word: Sequence[int],
                         rows: Optional[Tuple[int, ...]] = None) -> bool:
    """True iff the element of a reduced word is fully commutative.

    Stembridge (J. Algebraic Combin. 5 (1996), Prop. 3.3): iff no interval
    of the word's heap is a chain whose labels alternate i, j over
    m(i, j) >= 3 elements.  The positions of i and j form a chain in word
    order, so such an interval is a run of m consecutive ones whose ends
    bound an interval of m positions.  Its letters then alternate: an
    interval of two equal letters would make the word not reduced, and a
    word that is not reduced raises :class:`NotReducedError`.  ``rows`` are
    its ``heap_rows``, if known.
    """
    rows = heap_rows(sys, word) if rows is None else rows
    letters = sorted(set(word))
    for x, a in enumerate(letters):
        for b in letters[x + 1:]:
            m = sys.coxeter_m(a, b)
            if m is INF or m == 2:
                continue
            chain = [p for p, c in enumerate(word) if c == a or c == b]
            for top, bottom in zip(chain, chain[m - 1:]):
                # the size of the interval: positions above bottom, below top
                if sum(rows[top + z] >> top & 1 for z in bits(rows[bottom] >> top)) == m:
                    return False
    return True
