"""Clock regions, their time successors, and the global-time slot machinery.

A region is stored combinatorially: per clock either "collapsed" (above its
bound) or an integer part plus an integer/fractional flag, together with the
ordered classes of equal positive fractional parts.  This representation makes
time successors, resets, projections and guard checks exact, and exports to a
canonical DBM on demand.

Region states used by the layer algorithms are normalized: the global clock t
is rebased so its integer part is 0 and the slot index is carried separately
as a plain (arbitrary precision) int.

`Region`, `Slot` and `RegionState` are NamedTuples like `model.Atom`, built
in a third of the time of frozen dataclasses with the same hash (that of the
field tuple) and repr.  The `index` fields shadow `tuple.index`.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, inf
from typing import NamedTuple

from .dbm import INF, ZERO, Dbm, bound_add

T = "t"  # reserved name of the global clock


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

    def is_time_punctual(self, skip=()) -> bool:
        """True if any positive delay leaves the region (ignoring clocks in skip)."""
        return any(
            v is not None and v[1] and c not in skip
            for c, v in zip(self.clocks, self.vals)
        )

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
        vals, bounds = list(self.vals), self.bounds
        zero = [i for i, v in enumerate(vals) if v is not None and v[1]]
        if zero:
            opened = []
            for i in zero:
                m = vals[i][0]
                if m >= bounds[i]:
                    vals[i] = None
                else:
                    vals[i] = FRAC[m]
                    opened.append(self.clocks[i])
            fracs = ((tuple(sorted(opened)),) if opened else ()) + self.fracs
        else:
            if not self.fracs:
                return self
            for c in self.fracs[-1]:
                i = self.clocks.index(c)
                m = vals[i][0] + 1
                vals[i] = None if m > bounds[i] else INT[m]
            fracs = self.fracs[:-1]
        return Region(self.clocks, bounds, tuple(vals), fracs)

    def reset(self, clocks) -> "Region":
        if not clocks:
            return self
        vals, fractional = list(self.vals), False
        for c in clocks:
            i = self.clocks.index(c)
            fractional = fractional or (vals[i] is not None and not vals[i][1])
            vals[i] = INT[0]
        fracs = fracs_without(self.fracs, clocks) if fractional else self.fracs
        return Region(self.clocks, self.bounds, tuple(vals), fracs)

    def eliminate(self, clocks) -> "Region":
        drop = set(clocks)
        keep = [i for i, c in enumerate(self.clocks) if c not in drop]
        return Region(
            tuple(self.clocks[i] for i in keep),
            tuple(self.bounds[i] for i in keep),
            tuple(self.vals[i] for i in keep),
            fracs_without(self.fracs, drop),
        )

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
        i = self.clocks.index(c)
        m, fz = self.vals[i]
        vals = list(self.vals)
        vals[i] = (INT if fz else FRAC)[m + k]
        return Region(self.clocks, self.bounds, tuple(vals), self.fracs)

    # -- conversions ----------------------------------------------------------

    def to_dbm(self) -> Dbm:
        z = Dbm(self.clocks)
        for c in self.clocks:
            lo, ls, hi, hs = self.clock_range(c)
            z.set("0", c, (-lo, 0 if ls else 1))
            z.set(c, "0", INF if hi is inf else (hi, 0 if hs else 1))
        for i, c in enumerate(self.clocks):
            for c2 in self.clocks[i + 1 :]:
                if self.val(c) is None or self.val(c2) is None:
                    continue
                lo, ls, hi, hs = self.diff_range(c, c2)
                z.set(c, c2, (hi, 0 if hs else 1))
                z.set(c2, c, (-lo, 0 if ls else 1))
        return z.canonicalize()

    def sample(self):
        """One concrete valuation inside the region, with rational fractions."""
        k = len(self.fracs) + 1
        out = {}
        for c, v in zip(self.clocks, self.vals):
            if v is None:
                out[c] = Fraction(self.bound(c)) + Fraction(1, 2)
            elif v[1]:
                out[c] = Fraction(v[0])
            else:
                out[c] = v[0] + Fraction(self.frac_rank(c) + 1, k + 1)
        return out

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
    """The fractional classes with `clocks` taken out, empty classes dropped."""
    return tuple(cls for cls in (tuple(c for c in cls if c not in clocks)
                                 for cls in fracs) if cls)


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


def region_of(valuation, bounds, clocks=None) -> Region:
    """The region of a concrete valuation under the given per-clock bounds."""
    clocks = tuple(clocks) if clocks else tuple(bounds)
    vals = []
    by_frac = {}
    for c in clocks:
        x = Fraction(valuation[c])
        if x > bounds[c]:
            vals.append(None)
            continue
        m = floor(x)
        f = x - m
        vals.append((m, f == 0))
        if f != 0:
            by_frac.setdefault(f, []).append(c)
    fracs = tuple(tuple(sorted(by_frac[f])) for f in sorted(by_frac))
    return Region(clocks, tuple(bounds[c] for c in clocks), tuple(vals), fracs)


def from_dbm(z: Dbm, bounds) -> Region:
    """Rebuild a region from a canonical DBM; fails if it is not one region."""
    vals = {}
    for c in z.clocks:
        lo = z.get("0", c)
        hi = z.get(c, "0")
        if hi == INF:
            if lo != (-bounds[c], 0):
                raise ValueError(f"{c} is unbounded but not collapsed at {bounds[c]}")
            vals[c] = None
        elif lo[1] == 1 and hi[1] == 1 and -lo[0] == hi[0]:
            vals[c] = (hi[0], True)
        elif lo[1] == 0 and hi[1] == 0 and hi[0] == -lo[0] + 1:
            vals[c] = (-lo[0], False)
        else:
            raise ValueError(f"DBM is not a single region at clock {c}")
    frac = [c for c in z.clocks if vals[c] is not None and not vals[c][1]]
    order = {c: 0 for c in frac}
    for c in frac:
        for c2 in frac:
            if c == c2:
                continue
            d = vals[c][0] - vals[c2][0]
            up, dn = z.get(c, c2), z.get(c2, c)
            if up == (d, 1) and dn == (-d, 1):
                rel = 0
            elif up == (d + 1, 0) and dn == (-d, 0):
                rel = 1
            elif up == (d, 0) and dn == (1 - d, 0):
                rel = -1
            else:
                raise ValueError(f"DBM is not a single region at {c},{c2}")
            if rel > 0:
                order[c] += 1
    by_rank = {}
    for c in frac:
        by_rank.setdefault(order[c], []).append(c)
    fracs = tuple(tuple(sorted(by_rank[r])) for r in sorted(by_rank))
    region = Region(
        z.clocks,
        tuple(bounds[c] for c in z.clocks),
        tuple(vals[c] for c in z.clocks),
        fracs,
    )
    if region.to_dbm() != z:
        raise ValueError("DBM is not a single region")
    return region


# -- slots --------------------------------------------------------------------


class Slot(NamedTuple):
    kind: str  # "point", "open" or "inf"
    index: int  # [k,k] / (k,k+1) / (tmax,inf)

    def inf_sup(self):
        if self.kind == "point":
            return (self.index, self.index)
        if self.kind == "open":
            return (self.index, self.index + 1)
        return (self.index, inf)

    def __str__(self):
        if self.kind == "point":
            return f"[{self.index},{self.index}]"
        if self.kind == "open":
            return f"({self.index},{self.index + 1})"
        return f"({self.index},inf)"


def next_slot(s: Slot, tmax: int) -> Slot:
    if s.kind == "open":
        return Slot("point", s.index + 1)
    if s.kind == "point":
        return Slot("open", s.index) if s.index < tmax else Slot("inf", tmax)
    return s


def slot_of(region: Region, tname: str = T) -> Slot:
    v = region.val(tname)
    if v is None:
        return Slot("inf", region.bound(tname))
    return Slot("point" if v[1] else "open", v[0])


def shift_slot(region: Region, k: int, tname: str = T) -> Region:
    """Shift the slot by k time units, leaving every other constraint alone.

    Exact rebasing of t's integer part: equals the erase-and-recanonicalize
    construction on proper regions, where the erased difference entries are
    implied, and is an exact region bijection in general.
    """
    v = region.val(tname)
    if v is None:
        raise ValueError("cannot shift an unbounded slot")
    lo, hi = slot_of(region, tname).inf_sup()
    if lo + k < 0 or hi + k > region.bound(tname):
        raise ValueError(f"shift by {k} leaves [0, tmax]")
    return region.shift_clock(tname, k)


def is_proper(region: Region, tname: str = T) -> bool:
    """Whether every t difference entry is implied by the t and clock bounds."""
    z = region.to_dbm()
    for c in region.clocks:
        if c == tname:
            continue
        if z.get(tname, c) != bound_add(z.get(tname, "0"), z.get("0", c)):
            return False
        if z.get(c, tname) != bound_add(z.get(c, "0"), z.get("0", tname)):
            return False
    return True


def eliminate_clock(region: Region, c: str) -> Region:
    return region.eliminate((c,))


# -- region counting (for the t bound 2^(N_A + 1)) -----------------------------


def fubini(n: int) -> int:
    """Number of ordered set partitions of an n-element set."""
    a = [1]
    for k in range(1, n + 1):
        a.append(sum(_binom(k, j) * a[k - j] for j in range(1, k + 1)))
    return a[n]


def _binom(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def count_regions(bounds) -> int:
    """Number of regions over the given clocks and per-clock bounds."""
    # coefficient vector over the number of fractional clocks
    coeffs = [1]
    for c in bounds:
        m = bounds[c]
        nxt = [0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i] += a * (m + 2)  # collapsed, or integer part 0..m
            nxt[i + 1] += a * m  # fractional with integer part 0..m-1
        coeffs = nxt
    return sum(a * fubini(i) for i, a in enumerate(coeffs))


# -- normalized region states --------------------------------------------------


class RegionState(NamedTuple):
    """A (location, region) pair with t rebased so the slot is [0,0] or (0,1).

    `index` is the real slot index; `unbounded` marks slots past tmax, where t
    is collapsed in the base region.
    """

    loc: str
    base: Region
    index: int
    unbounded: bool = False

    def slot(self, tmax: int) -> Slot:
        if self.unbounded:
            return Slot("inf", tmax)
        return Slot("point" if self.base.val(T)[1] else "open", self.index)

    def advance(self, tmax: int):
        """Immediate time successor: (kind, state) with kind "in"/"cross", or None."""
        succ = self.base.delay_successor()
        if succ == self.base:
            return None
        if self.unbounded:
            return ("in", RegionState(self.loc, succ, self.index, True))
        tv = succ.val(T)
        if tv == self.base.val(T):
            return ("in", RegionState(self.loc, succ, self.index, self.unbounded))
        if tv == (0, False):  # slot [k,k] opened into (k,k+1)
            if self.index >= tmax:
                tcoll = _collapse_t(succ)
                return ("cross", RegionState(self.loc, tcoll, tmax, True))
            return ("cross", RegionState(self.loc, succ, self.index, False))
        if tv == (1, True):  # slot (k,k+1) landed on [k+1,k+1]
            return (
                "cross",
                RegionState(self.loc, succ.shift_clock(T, -1), self.index + 1, False),
            )
        raise AssertionError(f"unexpected t value {tv}")

    def key(self):
        return (self.loc, self.index, self.unbounded, self.base.key())

    def pretty(self, tmax: int) -> str:
        return f"({self.loc}, {self.base.eliminate((T,)).pretty()}, t in {self.slot(tmax)})"


def _collapse_t(region: Region) -> Region:
    i = region.clocks.index(T)
    vals = list(region.vals)
    vals[i] = None
    return Region(region.clocks, region.bounds, tuple(vals),
                  fracs_without(region.fracs, (T,)))


def initial_region(clocks, bounds) -> Region:
    """All clocks at 0."""
    cs = tuple(clocks)
    return Region(cs, tuple(bounds[c] for c in cs), (INT[0],) * len(cs), ())


def _atom_text(atom) -> str:
    left, op, right, d = atom
    op = {"<": "<", "<=": "<=", "==": "==", ">=": ">=", ">": ">"}[op]
    return f"{left} {op} {right} + {d}" if right else f"{left} {op} {d}"
