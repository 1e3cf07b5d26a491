"""Difference bound matrices with integer constants.

A bound is a pair (d, w): the constraint x - y < d when w == 0 and
x - y <= d when w == 1, with INF for "no constraint".  Plain tuple
comparison gives exactly the bound order used everywhere:
(d, 0) < (d, 1) < (d', 0) whenever d < d', and every bound < INF.
"""

from __future__ import annotations

from math import inf

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
