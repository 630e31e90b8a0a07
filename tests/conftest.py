"""Shared test settings and two oracles of the group action.

The oracles are type A one-line notation and the action on ``Fraction``
vectors.  Property tests run under a derandomized hypothesis profile: the
examples are derived from each test's source, so every run of the suite
draws the same ones, and no example database is written.
"""

from hypothesis import settings

from coxbalance.linalg import add, dot, scale, zero

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


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
        img = w[rs._doubled_index[(2,) + (0,) * (j - 1) + (-2,) + (0,) * (n - j - 1)]]
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
