import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from zones import INF, ZERO, Dbm, bound_add, bound_sat, zone_post_delay, zone_post_trans

CLOCKS = ("x", "y")


def grid(top=4, denom=2):
    pts = [Fraction(k, denom) for k in range(top * denom + 1)]
    return [dict(zip(CLOCKS, v)) for v in product(pts, repeat=len(CLOCKS))]


def random_zone(rng, max_const=3):
    z = Dbm.universe(CLOCKS)
    names = ("0",) + CLOCKS
    for _ in range(rng.randint(1, 6)):
        x, y = rng.sample(names, 2)
        d = rng.randint(-max_const, max_const)
        z.constrain(x, y, (d, rng.randint(0, 1)))
    return z


def test_bound_order():
    assert (2, 0) < (2, 1) < (3, 0) < INF
    assert bound_add((1, 1), (2, 0)) == (3, 0)
    assert bound_add((1, 1), (2, 1)) == (3, 1)
    assert bound_add(INF, (0, 1)) == INF
    assert bound_sat((2, 0), Fraction(3, 2)) and not bound_sat((2, 0), 2)
    assert bound_sat((2, 1), 2)


def test_origin_and_universe():
    o = Dbm.origin(CLOCKS)
    assert o.contains({"x": 0, "y": 0})
    assert not o.contains({"x": 0, "y": Fraction(1, 2)})
    u = Dbm.universe(CLOCKS)
    assert all(u.contains(p) for p in grid(3))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_canonicalize_triangle_and_membership(seed):
    rng = random.Random(seed)
    z = random_zone(rng)
    raw = z.copy()
    z.canonicalize()
    n = len(z.m)
    if not z.is_empty():  # canonical form is only defined for nonempty zones
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    assert not bound_add(z.m[i][k], z.m[k][j]) < z.m[i][j]
        before = [tuple(r) for r in z.m]
        z.canonicalize()
        assert [tuple(r) for r in z.m] == before
    # tightening never changes the concrete solution set
    for p in grid(5):
        assert raw.contains(p) == z.contains(p)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_emptiness_matches_grid(seed):
    rng = random.Random(seed)
    z = random_zone(rng, max_const=2).canonicalize()
    # chained lower bounds can push points out to 6 * max_const
    assert z.is_empty() == (not any(z.contains(p) for p in grid(13, denom=4)))


def test_emptiness_concrete():
    z = Dbm.universe(("x",))
    z.constrain("0", "x", (-1, 1))  # x >= 1
    z.constrain("x", "0", (1, 0))  # x < 1
    assert z.canonicalize().is_empty()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_intersect_is_conjunction(seed):
    rng = random.Random(seed)
    a = random_zone(rng).canonicalize()
    b = random_zone(rng).canonicalize()
    both = a.intersect(b)
    for p in grid(4):
        assert both.contains(p) == (a.contains(p) and b.contains(p))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_up_is_delay_closure(seed):
    rng = random.Random(seed)
    z = random_zone(rng).canonicalize()
    up = z.up()
    # admissible deltas form an interval with half-integer ends; quarters hit it
    deltas = [Fraction(k, 4) for k in range(15)]
    for p in grid(3):
        if z.contains(p):
            for d in deltas:
                assert up.contains({c: v + d for c, v in p.items()})
    # and nothing else: any point of up lies on some diagonal through z
    for p in grid(3):
        if up.contains(p):
            ok = any(
                min(p.values()) - d >= 0
                and z.contains({c: v - d for c, v in p.items()})
                for d in deltas
            )
            assert ok


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_reset_matches_concrete(seed):
    rng = random.Random(seed)
    z = random_zone(rng).canonicalize()
    r = z.reset(("x",))
    vals = [Fraction(k, 4) for k in range(33)]  # witnesses up to top + const
    for p in grid(4):
        want = p["x"] == 0 and any(z.contains({**p, "x": v}) for v in vals)
        assert r.contains(p) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_eliminate_is_projection(seed):
    rng = random.Random(seed)
    z = random_zone(rng).canonicalize()
    e = z.eliminate("y")
    assert e.clocks == ("x",)
    vals = [Fraction(k, 4) for k in range(33)]
    for xv in [Fraction(k, 2) for k in range(9)]:
        want = any(z.contains({"x": xv, "y": yv}) for yv in vals)
        assert e.contains({"x": xv}) == want


def test_zone_post_delay_concrete():
    inv = Dbm.universe(("x",))
    inv.constrain("x", "0", (2, 1))  # x <= 2
    z = zone_post_delay(Dbm.origin(("x",)), inv.canonicalize())
    assert z.contains({"x": 2}) and z.contains({"x": Fraction(1, 2)})
    assert not z.contains({"x": Fraction(5, 2)})


def test_zone_post_trans_concrete():
    clocks = ("x", "y")
    z = Dbm.origin(clocks).up()  # x == y, any value
    guard = Dbm.universe(clocks)
    guard.constrain("0", "x", (-1, 1))  # x >= 1
    free = Dbm.universe(clocks)
    out = zone_post_trans(z, guard.canonicalize(), ("x",), free, free)
    assert out.contains({"x": 0, "y": 1}) and out.contains({"x": 0, "y": 5})
    assert not out.contains({"x": 0, "y": Fraction(1, 2)})
    assert not out.contains({"x": Fraction(1, 2), "y": 2})
    blocked = zone_post_trans(Dbm.origin(clocks), guard, ("x",), free, free)
    assert blocked.is_empty()
