"""Generic Coxeter systems from labelled diagrams, via the geometric representation.

Diagram labels are restricted to {2, 3, inf} (inf encoded as ``None``): these
are exactly the labels whose form entries -cos(pi/m) are rational (0, -1/2,
-1), so the whole representation stays exact.  Crystallographic labels 4 and
6 are served by the ``weyl`` module instead.

Also hosts the word combinatorics shared with finite Weyl groups: commutation
classes, braid-move detection, and full commutativity.  Those functions take
any "system" argument exposing ``rank``, ``coxeter_m(i, j)`` and
``word_length(word)``; both :class:`CoxSystem` and the adapter
:class:`WeylSystem` qualify.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from .linalg import Matrix, Vector, invert
from . import weyl as _weyl
from .rootsys import RootSystem

INF = None  # infinite edge label


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric Coxeter matrix with off-diagonal entries in {2, 3, inf}."""

    rank: int
    entries: Tuple[Tuple[Optional[int], ...], ...]

    def __post_init__(self):
        m = self.entries
        if len(m) != self.rank or any(len(row) != self.rank for row in m):
            raise ValueError("entries must be a rank x rank table")
        for i in range(self.rank):
            if m[i][i] != 1:
                raise ValueError("diagonal entries must equal 1")
            for j in range(self.rank):
                if m[i][j] != m[j][i]:
                    raise ValueError("matrix must be symmetric")
                if i != j and m[i][j] not in (2, 3, INF):
                    raise ValueError(
                        f"label m_{i+1}{j+1} = {m[i][j]} unsupported here; "
                        "crystallographic labels 4 and 6 are handled by the "
                        "weyl module"
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
    for i, j, m in edges:
        if not (1 <= i <= rank and 1 <= j <= rank and i != j):
            raise ValueError(f"bad edge ({i}, {j})")
        table[i - 1][j - 1] = m
        table[j - 1][i - 1] = m
    return CoxeterMatrix(rank, tuple(tuple(row) for row in table))


def matrix_from_json(text: str) -> CoxeterMatrix:
    """Parse the diagram format {"rank": r, "edges": [{"i","j","m"}...]}.

    ``m`` is an integer >= 3 or the string "inf".
    """
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("rank"), int):
        raise ValueError('diagram must be a JSON object with an integer "rank" field')
    edges = []
    for e in data.get("edges", []):
        missing = [f for f in "ijm" if not isinstance(e, dict) or f not in e]
        if missing:
            raise ValueError(f'diagram edge {e!r} has no "{missing[0]}" field')
        m = e["m"]
        if m == "inf":
            m = INF
        elif not (isinstance(m, int) and m >= 3):
            raise ValueError(f'edge label must be an integer >= 3 or "inf": {m!r}')
        edges.append((e["i"], e["j"], m))
    return matrix_from_edges(data["rank"], edges)


def complete_graph_matrix(n: int, label: int = 3) -> CoxeterMatrix:
    return matrix_from_edges(
        n, [(i, j, label) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


def cycle_matrix(n: int, label: int = 3) -> CoxeterMatrix:
    edges = [(i, i + 1, label) for i in range(1, n)] + [(1, n, label)]
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


# -- the geometric representation -------------------------------------------

_FORM_ENTRY = {2: Fraction(0), 3: Fraction(-1, 2), INF: Fraction(-1)}


@dataclass(frozen=True)
class CoxSystem:
    """A Coxeter system with its exact rational geometric representation."""

    matrix: CoxeterMatrix
    form: Matrix = field(compare=False)

    @property
    def rank(self) -> int:
        return self.matrix.rank

    def coxeter_m(self, i: int, j: int) -> Optional[int]:
        return self.matrix.m(i, j)

    def simple_root(self, i: int) -> Vector:
        return tuple(Fraction(1 if k == i - 1 else 0) for k in range(self.rank))

    def bilinear(self, x: Vector, y: Vector) -> Fraction:
        return sum(
            (self.form[a][b] * x[a] * y[b] for a in range(self.rank) for b in range(self.rank)),
            Fraction(0),
        )

    def reflect_root(self, i: int, v: Vector) -> Vector:
        """Apply the simple reflection s_i to a root vector."""
        c = 2 * sum(self.form[i - 1][k] * v[k] for k in range(self.rank))
        return tuple(v[k] - (c if k == i - 1 else 0) for k in range(self.rank))

    def identity_element(self) -> "CoxElement":
        cols = tuple(self.simple_root(i) for i in range(1, self.rank + 1))
        return CoxElement(self, cols)

    def element_from_word(self, word: Sequence[int]) -> "CoxElement":
        w = self.identity_element()
        for i in word:
            w = w.mul_simple(i)
        return w

    def word_length(self, word: Sequence[int]) -> int:
        return self.element_from_word(word).length()


def build_system(matrix: CoxeterMatrix) -> CoxSystem:
    r = matrix.rank
    form = tuple(
        tuple(
            Fraction(1) if i == j else _FORM_ENTRY[matrix.m(i + 1, j + 1)]
            for j in range(r)
        )
        for i in range(r)
    )
    return CoxSystem(matrix, form)


@dataclass(frozen=True)
class CoxElement:
    """Group element stored as its matrix columns: column i = image of alpha_i."""

    system: CoxSystem = field(compare=False)
    columns: Tuple[Vector, ...]

    def mul_simple(self, i: int) -> "CoxElement":
        """Right multiplication by s_i."""
        sys = self.system
        if not 1 <= i <= sys.rank:
            raise ValueError(f"simple index {i} out of range 1..{sys.rank}")
        cols = list(self.columns)
        # (w s_i)(alpha_j) = w(alpha_j) - 2 B(alpha_i, alpha_j) w(alpha_i)
        base = cols[i - 1]
        new_cols = []
        for j in range(sys.rank):
            c = 2 * sys.form[i - 1][j]
            if c == 0:
                new_cols.append(cols[j])
            else:
                new_cols.append(tuple(cols[j][k] - c * base[k] for k in range(sys.rank)))
        return CoxElement(sys, tuple(new_cols))

    def left_mul_simple(self, i: int) -> "CoxElement":
        """Left multiplication: s_i w."""
        sys = self.system
        return CoxElement(
            sys, tuple(sys.reflect_root(i, col) for col in self.columns)
        )

    def apply(self, v: Vector) -> Vector:
        return tuple(
            sum((self.columns[j][k] * v[j] for j in range(len(v))), Fraction(0))
            for k in range(len(v))
        )

    def right_descents(self) -> FrozenSet[int]:
        # s_i is a right descent iff w(alpha_i) is a negative root.
        out = set()
        for i in range(self.system.rank):
            col = self.columns[i]
            if all(c <= 0 for c in col) and any(c < 0 for c in col):
                out.add(i + 1)
        return frozenset(out)

    def inverse(self) -> "CoxElement":
        rows = invert(tuple(zip(*self.columns)))
        return CoxElement(self.system, tuple(zip(*rows)))

    def left_descents(self) -> FrozenSet[int]:
        """Descents read from the sign of w^{-1} alpha_i."""
        return self.inverse().right_descents()

    def reduced_word(self) -> Tuple[int, ...]:
        """Shortlex-minimal reduced word by greedy left-descent stripping."""
        w = self
        word: List[int] = []
        while True:
            ld = w.left_descents()
            if not ld:
                return tuple(word)
            i = min(ld)
            word.append(i)
            w = w.left_mul_simple(i)

    def length(self) -> int:
        w = self
        n = 0
        while True:
            rd = w.right_descents()
            if not rd:
                return n
            w = w.mul_simple(min(rd))
            n += 1

    def inversion_roots(self) -> FrozenSet[Vector]:
        """Positive roots sent negative, unwound from a reduced word."""
        word = self.reduced_word()
        return frozenset(inversion_roots_of_word(self.system, word))


def elem_from_word(sys: CoxSystem, word: Sequence[int]) -> CoxElement:
    return sys.element_from_word(word)


def inversion_roots_of_word(sys, word: Sequence[int]) -> List[Vector]:
    """Roots s_{i_l} ... s_{i_{k+1}} alpha_{i_k} for k = 1..l (word assumed reduced).

    Works for any system exposing ``reflect_root`` and ``simple_root``.
    """
    out: List[Vector] = []
    for k in range(len(word)):
        v = sys.simple_root(word[k])
        for t in range(k + 1, len(word)):
            v = sys.reflect_root(word[t], v)
        out.append(v)
    return out


# -- word combinatorics (shared with Weyl systems) ---------------------------


class NotReducedError(ValueError):
    def __init__(self, word):
        super().__init__(f"word {list(word)} is not reduced")
        self.word = word


def _check_reduced(sys, word: Sequence[int]) -> None:
    if sys.word_length(word) != len(word):
        raise NotReducedError(word)


def commutation_class(sys, word: Sequence[int]) -> List[Tuple[int, ...]]:
    """All words reachable from a reduced word by swapping commuting letters.

    Returned sorted, so the class is deterministic.
    """
    _check_reduced(sys, word)
    start = tuple(word)
    seen: Set[Tuple[int, ...]] = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for p in range(len(w) - 1):
            if sys.coxeter_m(w[p], w[p + 1]) == 2:
                w2 = w[:p] + (w[p + 1], w[p]) + w[p + 2:]
                if w2 not in seen:
                    seen.add(w2)
                    stack.append(w2)
    return sorted(seen)


def _has_braid_factor(sys, word: Tuple[int, ...]) -> bool:
    for p in range(len(word) - 1):
        a, b = word[p], word[p + 1]
        if a == b:
            return True  # not reduced; callers check beforehand
        m = sys.coxeter_m(a, b)
        if m is INF or m == 2:
            continue
        if p + m <= len(word):
            ok = True
            for t in range(m):
                if word[p + t] != (a if t % 2 == 0 else b):
                    ok = False
                    break
            if ok:
                return True
    return False


def is_fully_commutative(sys, word: Sequence[int]) -> bool:
    """True iff no word in the commutation class admits a braid move."""
    _check_reduced(sys, word)
    start = tuple(word)
    seen: Set[Tuple[int, ...]] = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        if _has_braid_factor(sys, w):
            return False
        for p in range(len(w) - 1):
            if sys.coxeter_m(w[p], w[p + 1]) == 2:
                w2 = w[:p] + (w[p + 1], w[p]) + w[p + 2:]
                if w2 not in seen:
                    seen.add(w2)
                    stack.append(w2)
    return True


class WeylSystem:
    """Adapter giving a finite Weyl group the generic-system interface."""

    def __init__(self, rs: RootSystem):
        self.root_system = rs
        self.rank = rs.rank

    def coxeter_m(self, i: int, j: int) -> int:
        return self.root_system.coxeter_m(i, j)

    def word_length(self, word: Sequence[int]) -> int:
        return _weyl.from_word(self.root_system, word).length

    def simple_root(self, i: int) -> Vector:
        rs = self.root_system
        return rs.positive_roots[rs.simple_indices[i - 1]]

    def reflect_root(self, i: int, v: Vector) -> Vector:
        from .rootsys import reflect

        return reflect(self.simple_root(i), v)
