"""Region kernel: canonical classes, delay successors, slots, shifting."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_record_contract, random_region
from dtnmc.regions import (
    T,
    NonUniformGuard,
    Region,
    RegionState,
    Slot,
    initial_region,
    next_slot,
)
from zones import (
    count_regions,
    from_dbm,
    fubini,
    inf_sup,
    is_proper,
    region_of,
    sample,
    shift_slot,
    slot_of,
    state_slot,
    to_dbm,
)


def grid(bounds, denom=4):
    """All valuations with the given denominator, reaching far past every bound
    (collapsed classes are unbounded, so atoms need witnesses well beyond)."""
    axes = []
    for c, b in bounds.items():
        axes.append([Fraction(k, denom) for k in range(0, (b + 3) * denom + 1)])
    return [dict(zip(bounds, point)) for point in product(*axes)]


def test_region_of_partitions_grid():
    bounds = {"x": 1, "y": 2}
    buckets = {}
    for v in grid(bounds):
        buckets.setdefault(region_of(v, bounds), set()).add(tuple(v.values()))
    # the partition is exactly the region count predicted combinatorially
    assert len(buckets) == count_regions(bounds)


def test_count_regions_frozen_values():
    assert count_regions({"c": 3}) == 8
    assert count_regions({"x": 1, "y": 1}) == 18
    assert [fubini(k) for k in range(4)] == [1, 1, 3, 13]


def test_sample_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        r = random_region(rng)
        v = sample(r)
        assert region_of(v, dict(zip(r.clocks, r.bounds)), r.clocks) == r


def test_delay_successor_is_immediate():
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        r = random_region(rng)
        s = r.delay_successor()
        if s == r:  # every clock collapsed: delays change nothing
            assert all(v is None for v in r.vals)
            continue
        checked += 1
        v = sample(r)
        bounds = dict(zip(r.clocks, r.bounds))
        # the exact entry delay: integer-valued clocks of s pin it, else midpoint
        lo, hi, exact = Fraction(0), None, None
        for c, tv, b in zip(s.clocks, s.vals, s.bounds):
            if tv is None:
                lo = max(lo, b - v[c])
            elif tv[1]:
                exact = tv[0] - v[c]
            else:
                lo = max(lo, tv[0] - v[c])
                hi = tv[0] + 1 - v[c] if hi is None else min(hi, tv[0] + 1 - v[c])
        if exact is not None:
            delta = exact
        elif hi is None:
            delta = lo + 1
        else:
            delta = (lo + hi) / 2
        assert delta > 0
        after = {c: v[c] + delta for c in v}
        assert region_of(after, bounds, r.clocks) == s
        # nothing strictly between r and s: probe a few intermediate delays
        for k in (1, 2, 3):
            mid = {c: v[c] + delta * k / 4 for c in v}
            assert region_of(mid, bounds, r.clocks) in (r, s)
    assert checked > 200


def test_satisfies_atom_matches_concrete_trichotomy():
    bounds = {"x": 1, "y": 1}
    buckets = {}
    for v in grid(bounds):
        buckets.setdefault(region_of(v, bounds), []).append(v)
    atoms = []
    for left in ("x", "y"):
        for op in ("<", "<=", "==", ">=", ">"):
            for d in (0, 1):
                atoms.append((left, op, None, d))
            atoms.append((left, op, "y" if left == "x" else "x", 0))
            atoms.append((left, op, "y" if left == "x" else "x", 1))
    def holds(at, v):
        left, op, right, d = at
        x = v[left] - (v[right] if right else 0)
        return {"<": x < d, "<=": x <= d, "==": x == d, ">=": x >= d, ">": x > d}[op]
    for r, pts in buckets.items():
        for at in atoms:
            truth = {holds(at, v) for v in pts}
            if truth == {True}:
                assert r.satisfies_atom(at), (r.pretty(), at)
            elif truth == {False}:
                assert not r.satisfies_atom(at), (r.pretty(), at)
            else:
                with pytest.raises(NonUniformGuard):
                    r.satisfies_atom(at)


def test_diagonal_with_collapsed_clock_is_nonuniform():
    # x past its bound, y fractional: x-y can fall on either side of 2
    r = region_of({"x": Fraction(5, 2), "y": Fraction(1, 2)}, {"x": 1, "y": 1})
    with pytest.raises(NonUniformGuard):
        r.satisfies_atom(("x", "<=", "y", 2))


def test_reset_and_eliminate_agree_with_concrete():
    rng = random.Random(23)
    for _ in range(200):
        r = random_region(rng)
        bounds = dict(zip(r.clocks, r.bounds))
        v = sample(r)
        v2 = dict(v)
        v2["x"] = Fraction(0)
        assert region_of(v2, bounds, r.clocks) == r.reset(("x",))
        dropped = r.eliminate(("y",))
        b2 = {c: bounds[c] for c in dropped.clocks}
        assert region_of({c: v[c] for c in dropped.clocks}, b2, dropped.clocks) \
            == dropped


def test_slots_arithmetic():
    s = Slot("point", 0)
    seen = [s]
    for _ in range(4):
        s = next_slot(s)
        seen.append(s)
    assert [str(x) for x in seen] == ["[0,0]", "(0,1)", "[1,1]", "(1,2)", "[2,2]"]
    assert str(next_slot(Slot("open", 1))) == "[2,2]"
    assert next_slot(Slot("point", 2 ** 70)) == Slot("open", 2 ** 70)


def _proper_regions(seed, want):
    rng = random.Random(seed)
    out = []
    while len(out) < want:
        r = random_region(rng)
        if is_proper(r):
            out.append(r)
    return out


def test_shift_slot_laws():
    shifts = 0
    for r in _proper_regions(5, 300):
        base = slot_of(r)
        lo, hi = inf_sup(base)
        for k in range(-lo, r.bound(T) - hi + 1):
            if k == 0:
                continue
            shifts += 1
            shifted = shift_slot(r, k)
            assert slot_of(shifted).index == base.index + k
            assert slot_of(shifted).kind == base.kind
            assert shift_slot(shifted, -k) == r
            assert shifted.eliminate(("x",)) == shift_slot(
                r.eliminate(("x",)), k
            )
    assert shifts > 300


def test_shift_slot_rejects_negative_landing():
    r = region_of({"x": Fraction(1, 2), T: Fraction(1, 2)}, {"x": 1, T: 2})
    with pytest.raises(ValueError):
        shift_slot(r, -1)


def test_to_dbm_round_trip():
    rng = random.Random(31)
    for _ in range(300):
        r = random_region(rng)
        assert from_dbm(to_dbm(r), dict(zip(r.clocks, r.bounds))) == r


def crosses(rs, nxt):
    """Does the delay step rs -> nxt enter the next slot?  It does iff t
    leaves or reaches an integer, i.e. iff either state is a point state."""
    slot, nslot = state_slot(rs), state_slot(nxt)
    cross = "point" in (slot.kind, nslot.kind)
    assert nslot == (next_slot(slot) if cross else slot)
    return cross


def test_region_state_advance_walks_slots():
    bounds = {"c": 1, T: 1}
    rs = RegionState("q", initial_region(("c", T), bounds), 0)
    seen = [str(state_slot(rs))]
    kinds = []
    for _ in range(12):
        nxt = rs.advance()
        kinds.append(crosses(rs, nxt))
        rs = nxt
        seen.append(str(state_slot(rs)))
    # c collapses in (1,2); t alone walks on, every slot in turn
    assert seen == [str(Slot(kind, k)) for k in range(7) for kind in ("point", "open")][:13]
    assert rs.base.val("c") is None and rs.index == 6
    # c and t start in lockstep, so every region change is a slot change
    assert all(kinds)


def test_advance_in_slot_after_reset():
    bounds = {"c": 1, T: 1}
    rs = RegionState("q", initial_region(("c", T), bounds), 0)
    rs = rs.advance()  # t now in (0,1)
    rs = rs._replace(base=rs.base.reset(("c",)))
    nxt = rs.advance()
    assert not crosses(rs, nxt)  # c leaves 0 but trails t inside the same slot
    assert str(state_slot(nxt)) == str(state_slot(rs)) == "(0,1)"
    kinds = []
    for _ in range(3):
        prev, nxt = nxt, nxt.advance()
        kinds.append(crosses(prev, nxt))
    # t is ahead of c, so t crosses 1 and reopens before c reaches 1 in-slot
    assert kinds == [True, True, False]
    assert nxt.base.val("c") == (1, True) and nxt.index == 1


@given(st.integers(0, 6))
def test_fubini_recurrence(n):
    # a(n) = sum binom(n,k) a(n-k) over k>=1
    if n == 0:
        assert fubini(0) == 1
        return
    from math import comb

    assert fubini(n) == sum(comb(n, k) * fubini(n - k) for k in range(1, n + 1))


@settings(max_examples=200)
@given(st.integers(0, 10 ** 6), st.integers(1, 4))
def test_random_proper_region_properties(seed, k):
    rng = random.Random(seed)
    r = random_region(rng)
    if not is_proper(r):
        return
    if inf_sup(slot_of(r))[1] + k > r.bound(T):
        return
    s = shift_slot(r, k)
    assert slot_of(s).index == slot_of(r).index + k
    assert shift_slot(s, -k) == r


def test_region_records_keep_the_dataclass_contract():
    r = Region(("c", T), (2, 1), ((1, False), (0, True)), (("c",),))
    assert_record_contract(
        r, "Region(clocks=('c', 't'), bounds=(2, 1), vals=((1, False), (0, True)), "
           "fracs=(('c',),))")
    rs = RegionState("q", r, 3)
    assert_record_contract(
        rs, "RegionState(loc='q', base=Region(clocks=('c', 't'), bounds=(2, 1), "
            "vals=((1, False), (0, True)), fracs=(('c',),)), index=3)")
    assert rs.index == 3
    s = Slot("open", 2)
    assert_record_contract(s, "Slot(kind='open', index=2)")
    assert s.index == 2 and str(s) == "(2,3)"
