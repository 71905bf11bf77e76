"""``markov_average`` against an exact rational reference.

Every chain here has dyadic entries (multiples of 2^-20, moved by
couplings 2^-k with k <= 52), so the float input is exact, each row sums
to exactly 1, and the reference below computes the true average in
``Fraction``: Gauss-Jordan elimination for a tail c < 1, closed classes
plus absorption for c = 1.  Nearly decomposable chains are where a
residual at rounding level can hide a large forward error, so the
comparison is entrywise and relative.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from payoffcontrol import Custom, Infinite
from payoffcontrol.dynamics import _continuations, markov_average

EPS = np.finfo(float).eps
UNIT = 2 ** 20


# ---------------------------------------------------------------------------
# exact reference


def _solve(a, b):
    """x with x a = b, for an invertible Fraction matrix a."""
    n = len(b)
    rows = [[a[j][i] for j in range(n)] + [b[i]] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def _step(v, m):
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(v))]


def _cesaro(m, v):
    """v P*: each closed class's stationary law, weighted by the mass v
    sends into the class."""
    n = len(m)
    reach = [[i == j or m[i][j] > 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [r or s for r, s in zip(reach[i], reach[k])]
    recurrent = [all(reach[j][i] for j in range(n) if reach[i][j])
                 for i in range(n)]
    transient = [i for i in range(n) if not recurrent[i]]
    classes = []
    for i in range(n):
        if recurrent[i] and not any(i in cls for cls in classes):
            classes.append([j for j in range(n) if reach[i][j]])
    y = [Fraction(0)] * n
    for cls in classes:
        # x (I - M_CC) = 0 with its last equation replaced by sum(x) = 1
        a = [[(i == j) - m[i][j] for j in cls] for i in cls]
        for row in a:
            row[-1] = Fraction(1)
        law = _solve(a, [Fraction(0)] * (len(cls) - 1) + [Fraction(1)])
        # absorption from each transient state: (I - M_TT) h = M_TC 1
        into = [sum(m[t][j] for j in cls) for t in transient]
        lhs = [[(s == t) - m[t][s] for t in transient] for s in transient]
        h = _solve(lhs, into) if transient else []
        mass = sum(v[i] for i in cls) + sum(v[t] * ht
                                            for t, ht in zip(transient, h))
        for i, p in zip(cls, law):
            y[i] = mass * p
    return y


def exact_average(m, v1, values, c):
    """The survival-weighted average of the round distributions of chain
    ``m`` from ``v1``: explicit continuations ``values``, then the
    constant tail ``c`` (the Cesàro limit at c = 1)."""
    m = [[Fraction(x) for x in row] for row in m]
    v = [Fraction(x) for x in v1]
    n = len(v)
    num, den, p = [Fraction(0)] * n, Fraction(0), Fraction(1)
    for value in values:
        num = [a + p * b for a, b in zip(num, v)]
        den += p
        p *= Fraction(value)
        if p == 0:
            return [a / den for a in num]
        v = _step(v, m)
    c = Fraction(c)
    if c == 1:
        return _cesaro(m, v)
    # sum over s of c^s v M^s is v (I - cM)^-1
    tail = _solve([[(i == j) - c * m[i][j] for j in range(n)]
                   for i in range(n)], v)
    num = [a + p * b for a, b in zip(num, tail)]
    den += p / (1 - c)
    return [a / den for a in num]


# ---------------------------------------------------------------------------
# dyadic chains


def dyadic_row(cuts, support, n):
    """A probability row on ``support`` with entries (cut gaps) / 2^20;
    ``cuts`` are len(support) - 1 distinct integers in [1, 2^20)."""
    edges = [0, *sorted(cuts), UNIT]
    row = np.zeros(n)
    row[support] = np.diff(edges) / UNIT
    return row


def couple(m, source, target, k):
    """Move 2^-k of row ``source``'s largest entry to ``target``; both
    entries stay exact floats, so the row still sums to exactly 1."""
    top = int(np.argmax(m[source]))
    m[source, top] -= 2.0 ** -k
    m[source, target] += 2.0 ** -k


def assert_exact(m, v1, schedule, bound):
    """Every entry of the kernel's average within ``bound`` times the
    exact entry; exact zeros must come out as exact zeros."""
    for row in m:
        assert sum(Fraction(x) for x in row) == 1
    vbar, residual, settled = markov_average(m[None], v1[None], schedule)
    assert settled[0], residual[0]
    ref = np.array([float(x) for x in exact_average(
        m, v1, *_continuations(schedule))])
    err = np.abs(vbar[0] - ref)
    assert np.all(err <= bound * ref), (err / np.where(ref > 0, ref, 1.0)
                                       ).max() / EPS


def _blocks(rng, sizes):
    """A block-diagonal dyadic chain: dense rows inside each block."""
    n = sum(sizes)
    m = np.zeros((n, n))
    start = 0
    for size in sizes:
        support = np.arange(start, start + size)
        for i in support:
            cuts = rng.choice(np.arange(1, UNIT), size - 1, replace=False)
            m[i] = dyadic_row(cuts, support, n)
        start += size
    return m


def _uniform_start(n):
    return np.full(n, 1.0 / n)


# ---------------------------------------------------------------------------
# fixed nearly decomposable chains


def _bound(n):
    """The stated entrywise relative bound: 8 (n + 1) eps for n states."""
    return 8 * (n + 1) * EPS


NEAR_ONE = pytest.mark.parametrize(
    "schedule", [Infinite(), Custom((), tail=1 - 2 ** -52)],
    ids=["infinite", "tail-1-2^-52"])


def _coupled_blocks(seed):
    """Two 4-state blocks coupled both ways by 2^-50."""
    m = _blocks(np.random.default_rng([seed, 0x2050]), [4, 4])
    couple(m, 1, 6, 50)
    couple(m, 5, 2, 50)
    return m


@pytest.mark.parametrize("seed", range(6))
@NEAR_ONE
def test_blocks_coupled_both_ways(seed, schedule):
    assert_exact(_coupled_blocks(seed), _uniform_start(8), schedule,
                 _bound(8))


@pytest.mark.parametrize("seed", range(6))
@NEAR_ONE
def test_block_leaking_into_closed_block(seed, schedule):
    m = _blocks(np.random.default_rng([seed, 0x1ea4]), [4, 4])
    couple(m, 2, 5, 50)
    assert_exact(m, _uniform_start(8), schedule, _bound(8))


@pytest.mark.parametrize("seed", range(6))
def test_coupling_2_30_near_one(seed):
    m = _blocks(np.random.default_rng([seed, 0x2030]), [3, 5])
    couple(m, 0, 7, 30)
    couple(m, 4, 1, 30)
    assert_exact(m, _uniform_start(8), Custom((), tail=1 - 2 ** -40),
                 _bound(8))


def test_markov_average_is_stacked_per_chain():
    # the coupled chains as one stack give the same rows, bit for bit
    m = np.stack([_coupled_blocks(seed) for seed in range(4)])
    v1 = np.tile(_uniform_start(8), (4, 1))
    stacked, _, settled = markov_average(m, v1, Infinite())
    assert settled.all()
    for k in range(4):
        single, _, _ = markov_average(m[k:k + 1], v1[k:k + 1], Infinite())
        assert np.array_equal(stacked[k], single[0])


# ---------------------------------------------------------------------------
# property test


def _cut_list(size):
    return st.lists(st.integers(1, UNIT - 1), min_size=size - 1,
                    max_size=size - 1, unique=True)


@st.composite
def dyadic_chains(draw):
    """(m, v1, values, c): blocks that are dense or single cycles, so some
    are periodic and several can be closed, joined by couplings 2^-k that
    make blocks leak or nearly decomposable, states shuffled; a start law
    on some states, an explicit prefix of 0-3 continuations, and a tail c
    in {0, 2^-k, 1 - 2^-k, 1}."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n = sum(sizes)
    m = np.zeros((n, n))
    start = 0
    for size in sizes:
        support = list(range(start, start + size))
        if draw(st.booleans()):  # one cycle through the block
            for i in support:
                m[i, support[(i - start + 1) % size]] = 1.0
        else:
            for i in support:
                m[i] = dyadic_row(draw(_cut_list(size)), support, n)
        start += size
    for _ in range(draw(st.integers(0, 3))):
        source, target = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if source != target:
            couple(m, source, target, draw(st.integers(5, 52)))
    perm = np.array(draw(st.permutations(range(n))))
    m = m[np.ix_(perm, perm)]
    support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    v1 = dyadic_row(draw(_cut_list(len(support))), support, n)
    k = st.integers(1, 52)
    values = tuple(draw(st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                  k.map(lambda j: 2.0 ** -j), k.map(lambda j: 1 - 2.0 ** -j)),
        max_size=3)))
    c = draw(st.one_of(st.sampled_from([0.0, 1.0]), k.map(lambda j: 2.0 ** -j),
                       k.map(lambda j: 1 - 2.0 ** -j)))
    return m, v1, values, c


@given(dyadic_chains())
@settings(max_examples=400, deadline=None)
def test_every_entry_matches_the_exact_average(chain):
    m, v1, values, c = chain
    assert_exact(m, v1, Custom(values, tail=c), _bound(len(v1)))
