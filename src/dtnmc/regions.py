"""Clock regions, their time successors, and the global-time slot machinery.

A region is stored combinatorially: per clock either "collapsed" (above its
bound) or an integer part plus an integer/fractional flag, together with the
ordered classes of equal positive fractional parts.  This representation makes
time successors, resets, projections and guard checks exact.  The export to a
canonical DBM, which the tests compare regions against, is in tests/zones.py.

Region states used by the layer algorithms are normalized: the global clock t
is rebased so its integer part is 0 and the slot index is carried separately
as a plain (arbitrary precision) int, so t never collapses and there is no
last slot.  `next_slot` is the order in which the layered build visits the
slots: [0,0], (0,1), [1,1], (1,2), ...

`Region`, `Slot` and `RegionState` are NamedTuples like `model.Atom`, built
in a third of the time of frozen dataclasses with the same hash (that of the
field tuple) and repr.  The `index` fields shadow `tuple.index`.

The region steps, the member table and the summary build their records on
hot paths with `new_record(Cls, (...))`, i.e. `tuple.__new__`, which skips
the NamedTuple's Python-level `__new__` (a `Region` in 184 against 607 ns on
Python 3.11).  It applies no defaults: pass every field, a `Transition`'s last
four included.

`nogc` pauses the cyclic collector in the loops that build the engines'
records, `LayeredBuild.build`, `summary_automaton`, `check_timelock_free` and
`explore_network`: its collections there walked every young record and freed
nothing, as the engines allocate no cycles (tests/test_gc.py pins that).
"""

from __future__ import annotations

import gc
from functools import wraps
from math import inf
from typing import NamedTuple

T = "t"  # reserved name of the global clock

new_record = tuple.__new__  # new_record(Cls, fields): see the module docstring


def nogc(func):
    """`func` with the cyclic collector paused while it runs, if it was on."""
    @wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class NonUniformGuard(Exception):
    """A guard atom is neither satisfied nor violated by a whole region.

    Only possible for diagonal atoms involving a collapsed clock; per-clock
    bounds include all constants comparing the clock, so uniform satisfaction
    holds everywhere else.
    """


class Region(NamedTuple):
    clocks: tuple  # clock names, fixed order
    bounds: tuple  # per-clock bound, aligned with clocks
    vals: tuple  # per clock: None (collapsed) or (int_part, is_integer)
    fracs: tuple  # classes of clocks with positive fractional part, ascending

    def bound(self, c: str) -> int:
        return self.bounds[self.clocks.index(c)]

    def val(self, c: str):
        return self.vals[self.clocks.index(c)]

    def frac_rank(self, c: str) -> int:
        """-1 for integer-valued clocks, else index of the fractional class."""
        for i, cls in enumerate(self.fracs):
            if c in cls:
                return i
        return -1

    # -- queries ------------------------------------------------------------

    def clock_range(self, c: str):
        """Exact value range as (lo, lo_strict, hi, hi_strict)."""
        v = self.val(c)
        if v is None:
            return (self.bound(c), True, inf, True)
        m, fz = v
        if fz:
            return (m, False, m, False)
        return (m, True, m + 1, True)

    def diff_range(self, c: str, c2: str):
        """Exact range of c - c2 as (lo, lo_strict, hi, hi_strict)."""
        v, v2 = self.val(c), self.val(c2)
        if v is not None and v2 is not None:
            d = v[0] - v2[0]
            r, r2 = self.frac_rank(c), self.frac_rank(c2)
            if r == r2:
                return (d, False, d, False)
            if r > r2:
                return (d, True, d + 1, True)
            return (d - 1, True, d, True)
        # a collapsed clock has no relation to the others beyond its own range
        lo1, ls1, hi1, hs1 = self.clock_range(c)
        lo2, ls2, hi2, hs2 = self.clock_range(c2)
        return (lo1 - hi2, ls1 or hs2, hi1 - lo2, hs1 or ls2)

    def satisfies_atom(self, atom) -> bool:
        """Uniform truth of one atom (left, op, right, d) on the region."""
        left, op, right, d = atom
        if right is None:
            lo, ls, hi, hs = self.clock_range(left)
        else:
            lo, ls, hi, hs = self.diff_range(left, right)
        if op == "<":
            all_sat = hi < d or (hi == d and hs)
            none_sat = lo >= d
        elif op == "<=":
            all_sat = hi <= d
            none_sat = lo > d or (lo == d and ls)
        elif op == ">":
            all_sat = lo > d or (lo == d and ls)
            none_sat = hi <= d
        elif op == ">=":
            all_sat = lo >= d
            none_sat = hi < d or (hi == d and hs)
        elif op == "==":
            all_sat = lo == hi == d and not ls and not hs
            none_sat = hi < d or lo > d or (hi == d and hs) or (lo == d and ls)
        else:
            raise ValueError(f"unknown operator {op!r}")
        if all_sat:
            return True
        if none_sat:
            return False
        raise NonUniformGuard(
            f"atom {_atom_text(atom)} is not uniform on {self.pretty()}"
        )

    def satisfies(self, atoms) -> bool:
        return all(self.satisfies_atom(a) for a in atoms)

    # -- transformations ----------------------------------------------------

    def delay_successor(self) -> "Region":
        """The immediate time successor; self when every clock is collapsed."""
        clocks, bounds, vals, fracs = self
        out, opened, moved = list(vals), [], False
        for i, v in enumerate(vals):
            if v is not None and v[1]:  # an integer clock opens or collapses
                moved, m = True, v[0]
                if m < bounds[i]:
                    out[i] = FRAC[m]
                    opened.append(clocks[i])
                else:
                    out[i] = None
        if opened:
            fracs = (tuple(sorted(opened)),) + fracs
        elif not moved:
            if not fracs:
                return self
            for c in fracs[-1]:  # the last fractional class reaches an integer
                i = clocks.index(c)
                m = vals[i][0] + 1
                out[i] = None if m > bounds[i] else INT[m]
            fracs = fracs[:-1]
        return new_record(Region, (clocks, bounds, tuple(out), fracs))

    def reset(self, clocks) -> "Region":
        if not clocks:
            return self
        names, bounds, vals, fracs = self
        out, fractional = list(vals), False
        for c in clocks:
            i = names.index(c)
            v = out[i]
            fractional = fractional or (v is not None and not v[1])
            out[i] = ZERO
        fracs = fracs_without(fracs, clocks) if fractional else fracs
        return new_record(Region, (names, bounds, tuple(out), fracs))

    def eliminate(self, clocks) -> "Region":
        names, bounds, vals, fracs = self
        cs, bs, vs = [], [], []
        for c, b, v in zip(names, bounds, vals):
            if c not in clocks:
                cs.append(c)
                bs.append(b)
                vs.append(v)
        return new_record(Region, (tuple(cs), tuple(bs), tuple(vs),
                                   fracs_without(fracs, clocks)))

    def rename(self, mapping, order=None) -> "Region":
        """Rename clocks; `order` fixes the clock tuple of the result."""
        named = {
            mapping.get(c, c): (b, v)
            for c, b, v in zip(self.clocks, self.bounds, self.vals)
        }
        clocks = tuple(order) if order else tuple(named)
        fracs = tuple(
            tuple(sorted(mapping.get(c, c) for c in cls)) for cls in self.fracs
        )
        return Region(
            clocks,
            tuple(named[c][0] for c in clocks),
            tuple(named[c][1] for c in clocks),
            fracs,
        )

    def shift_clock(self, c: str, k: int) -> "Region":
        """Add k to the integer part of a non-collapsed clock (exact rebasing)."""
        clocks, bounds, vals, fracs = self
        i = clocks.index(c)
        m, fz = vals[i]
        out = list(vals)
        out[i] = (INT if fz else FRAC)[m + k]
        return new_record(Region, (clocks, bounds, tuple(out), fracs))

    def pretty(self) -> str:
        parts = []
        for c, v in zip(self.clocks, self.vals):
            if v is None:
                parts.append(f"{c}>{self.bound(c)}")
            elif v[1]:
                parts.append(f"{c}={v[0]}")
            else:
                parts.append(f"{v[0]}<{c}<{v[0] + 1}")
        if len(self.fracs) > 1 or (self.fracs and len(self.fracs[0]) > 1):
            chain = "<".join("=".join(cls) for cls in self.fracs)
            parts.append(f"frac({chain})")
        return " ".join(parts)

    def key(self):
        return (self.vals, self.fracs, self.clocks)


def fracs_without(fracs, clocks) -> tuple:
    """The fractional classes with `clocks` taken out, empty classes dropped;
    a class that loses no clock is kept as it is."""
    out = []
    for cls in fracs:
        kept = [c for c in cls if c not in clocks]
        if kept:
            out.append(cls if len(kept) == len(cls) else tuple(kept))
    return tuple(out)


class Memo(dict):
    """A table that computes a missing entry from its key, once."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


# integer part -> the one (m, True) / (m, False) cell of Region.vals that the
# region steps hand out, so regions share their cells
INT = Memo(lambda m: (m, True))
FRAC = Memo(lambda m: (m, False))
ZERO = INT[0]


# -- slots --------------------------------------------------------------------


class Slot(NamedTuple):
    kind: str  # "point" or "open"
    index: int  # [k,k] / (k,k+1)

    def __str__(self):
        if self.kind == "point":
            return f"[{self.index},{self.index}]"
        return f"({self.index},{self.index + 1})"


def next_slot(s: Slot) -> Slot:
    kind, index = s
    if kind == "open":
        return new_record(Slot, ("point", index + 1))
    return new_record(Slot, ("open", index))


# -- normalized region states --------------------------------------------------


class RegionState(NamedTuple):
    """A (location, region) pair with t rebased so the slot is [0,0] or (0,1);
    `index` is the real slot index."""

    loc: str
    base: Region
    index: int

    def advance(self):
        """Immediate time successor (t never collapses: its bound is 1)."""
        loc, base, index = self
        succ = base.delay_successor()
        tv = succ.vals[base.clocks.index(T)]
        if tv == (0, False):  # t moved within (k,k+1), or [k,k] opened into it
            return new_record(RegionState, (loc, succ, index))
        if tv == (1, True):  # slot (k,k+1) landed on [k+1,k+1]
            return new_record(RegionState, (loc, succ.shift_clock(T, -1), index + 1))
        raise AssertionError(f"unexpected t value {tv}")


def initial_region(clocks, bounds) -> Region:
    """All clocks at 0."""
    cs = tuple(clocks)
    return Region(cs, tuple(bounds[c] for c in cs), (ZERO,) * len(cs), ())


def _atom_text(atom) -> str:
    left, op, right, d = atom
    op = {"<": "<", "<=": "<=", "==": "==", ">=": ">=", ">": ">"}[op]
    return f"{left} {op} {right} + {d}" if right else f"{left} {op} {d}"
