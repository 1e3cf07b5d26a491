"""Zone reference code the region tests compare against.

Difference bound matrices with integer constants (Dill, "Timing assumptions
and verification of finite-state concurrent systems", 1989), and the
region <-> zone, region <-> valuation and slot helpers the tests use, criteria
6 and 7 among them, and the region count the partition test checks.  The
checker itself never builds a zone.

A bound is a pair (d, w): the constraint x - y < d when w == 0 and
x - y <= d when w == 1, with INF for "no constraint".  Plain tuple
comparison gives exactly the bound order used everywhere:
(d, 0) < (d, 1) < (d', 0) whenever d < d', and every bound < INF.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, inf

from dtnmc.regions import T, Region, RegionState, Slot

Bound = tuple  # (d, w) with d an int (or math.inf) and w 0 (strict) / 1 (weak)

INF: Bound = (inf, 0)
ZERO: Bound = (0, 1)


def bound_add(a: Bound, b: Bound) -> Bound:
    if a == INF or b == INF:
        return INF
    return (a[0] + b[0], a[1] & b[1])


def bound_sat(b: Bound, value) -> bool:
    """Whether value (< or <=) d holds for this bound."""
    if b == INF:
        return True
    return value < b[0] if b[1] == 0 else value <= b[0]


class Dbm:
    """Square matrix of bounds over ("0",) + clocks; row x, col y reads x - y <= m[x][y]."""

    __slots__ = ("clocks", "_idx", "m")

    def __init__(self, clocks, rows=None):
        self.clocks = tuple(clocks)
        self._idx = {"0": 0}
        for i, c in enumerate(self.clocks):
            self._idx[c] = i + 1
        n = len(self.clocks) + 1
        if rows is None:
            self.m = [[ZERO if i == j else INF for j in range(n)] for i in range(n)]
        else:
            self.m = [list(r) for r in rows]

    @classmethod
    def universe(cls, clocks) -> "Dbm":
        z = cls(clocks)
        for i in range(1, len(z.m)):
            z.m[0][i] = ZERO  # clocks are nonnegative
        return z

    @classmethod
    def origin(cls, clocks) -> "Dbm":
        z = cls(clocks)
        for i in range(len(z.m)):
            for j in range(len(z.m)):
                z.m[i][j] = ZERO  # all differences 0: canonical form of the zero point
        return z

    def copy(self) -> "Dbm":
        return Dbm(self.clocks, self.m)

    def index(self, name: str) -> int:
        return self._idx[name]

    def get(self, x: str, y: str) -> Bound:
        return self.m[self._idx[x]][self._idx[y]]

    def set(self, x: str, y: str, b: Bound) -> None:
        self.m[self._idx[x]][self._idx[y]] = b

    def constrain(self, x: str, y: str, b: Bound) -> None:
        i, j = self._idx[x], self._idx[y]
        if b < self.m[i][j]:
            self.m[i][j] = b

    def canonicalize(self) -> "Dbm":
        m = self.m
        n = len(m)
        for k in range(n):
            for i in range(n):
                mik = m[i][k]
                if mik == INF:
                    continue
                row = m[i]
                for j in range(n):
                    b = bound_add(mik, m[k][j])
                    if b < row[j]:
                        row[j] = b
        return self

    def is_empty(self) -> bool:
        return any(self.m[i][i] < ZERO for i in range(len(self.m)))

    def intersect(self, other: "Dbm") -> "Dbm":
        out = self.copy()
        for i in range(len(out.m)):
            for j in range(len(out.m)):
                if other.m[i][j] < out.m[i][j]:
                    out.m[i][j] = other.m[i][j]
        return out.canonicalize()

    def up(self) -> "Dbm":
        """Delay closure: drop upper bounds on clocks.  Preserves canonical form."""
        out = self.copy()
        for i in range(1, len(out.m)):
            out.m[i][0] = INF
        return out

    def reset(self, clocks) -> "Dbm":
        """Set the given clocks to 0.  Input must be canonical; output is canonical."""
        out = self.copy()
        for c in clocks:
            i = out._idx[c]
            for j in range(len(out.m)):
                out.m[i][j] = out.m[0][j]
                out.m[j][i] = out.m[j][0]
            out.m[i][i] = ZERO
        return out

    def eliminate(self, clock: str) -> "Dbm":
        """Project the clock away.  On a canonical DBM dropping row/col is exact."""
        i = self._idx[clock]
        rest = tuple(c for c in self.clocks if c != clock)
        rows = [
            [self.m[a][b] for b in range(len(self.m)) if b != i]
            for a in range(len(self.m))
            if a != i
        ]
        return Dbm(rest, rows)

    def contains(self, valuation) -> bool:
        """Membership of a concrete valuation (mapping clock -> number; "0" implicit)."""
        vals = [0] + [valuation[c] for c in self.clocks]
        for i in range(len(vals)):
            for j in range(len(vals)):
                if not bound_sat(self.m[i][j], vals[i] - vals[j]):
                    return False
        return True

    def key(self):
        return (self.clocks, tuple(tuple(r) for r in self.m))

    def __eq__(self, other):
        return isinstance(other, Dbm) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        names = ("0",) + self.clocks
        parts = []
        for i, x in enumerate(names):
            for j, y in enumerate(names):
                b = self.m[i][j]
                if i != j and b != INF:
                    op = "<" if b[1] == 0 else "<="
                    parts.append(f"{x}-{y}{op}{b[0]}")
        return "Dbm(" + " & ".join(parts) + ")"


def zone_post_delay(z: Dbm, inv: Dbm) -> Dbm:
    """Strongest post of letting time pass, confined to the invariant."""
    return z.up().intersect(inv)


def zone_post_trans(z: Dbm, guard: Dbm, resets, inv_src: Dbm, inv_tgt: Dbm) -> Dbm:
    """Strongest post of a discrete edge: guard and source invariant, reset, target invariant."""
    pre = z.intersect(inv_src).intersect(guard)
    if pre.is_empty():
        return pre
    return pre.reset(resets).intersect(inv_tgt)


# -- regions as zones and valuations --------------------------------------------


def to_dbm(r: Region) -> Dbm:
    z = Dbm(r.clocks)
    for c in r.clocks:
        lo, ls, hi, hs = r.clock_range(c)
        z.set("0", c, (-lo, 0 if ls else 1))
        z.set(c, "0", INF if hi is inf else (hi, 0 if hs else 1))
    for i, c in enumerate(r.clocks):
        for c2 in r.clocks[i + 1 :]:
            if r.val(c) is None or r.val(c2) is None:
                continue
            lo, ls, hi, hs = r.diff_range(c, c2)
            z.set(c, c2, (hi, 0 if hs else 1))
            z.set(c2, c, (-lo, 0 if ls else 1))
    return z.canonicalize()


def sample(r: Region):
    """One concrete valuation inside the region, with rational fractions."""
    k = len(r.fracs) + 1
    out = {}
    for c, v in zip(r.clocks, r.vals):
        if v is None:
            out[c] = Fraction(r.bound(c)) + Fraction(1, 2)
        elif v[1]:
            out[c] = Fraction(v[0])
        else:
            out[c] = v[0] + Fraction(r.frac_rank(c) + 1, k + 1)
    return out


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
    if to_dbm(region) != z:
        raise ValueError("DBM is not a single region")
    return region


# -- slots of regions over the global clock t -----------------------------------


def inf_sup(s: Slot):
    if s.kind == "point":
        return (s.index, s.index)
    if s.kind == "open":
        return (s.index, s.index + 1)
    return (s.index, inf)


def state_slot(rs: RegionState) -> Slot:
    """The slot of a region state, read from its own t."""
    return Slot("point" if rs.base.val(T)[1] else "open", rs.index)


def slot_of(region: Region, tname: str = T) -> Slot:
    v = region.val(tname)
    if v is None:  # t above its bound: a kind of these helpers only
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
    lo, hi = inf_sup(slot_of(region, tname))
    if lo + k < 0 or hi + k > region.bound(tname):
        raise ValueError(f"shift by {k} leaves [0, tmax]")
    return region.shift_clock(tname, k)


def is_proper(region: Region, tname: str = T) -> bool:
    """Whether every t difference entry is implied by the t and clock bounds."""
    z = to_dbm(region)
    for c in region.clocks:
        if c == tname:
            continue
        if z.get(tname, c) != bound_add(z.get(tname, "0"), z.get("0", c)):
            return False
        if z.get(c, tname) != bound_add(z.get(c, "0"), z.get("0", tname)):
            return False
    return True


# -- region counting ---------------------------------------------------------------


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
