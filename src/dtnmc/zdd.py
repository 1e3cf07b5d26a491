"""Zero-suppressed decision diagrams (Minato, "Zero-suppressed BDDs for set
manipulation in combinatorial problems", DAC 1993): families of sets of ints.

A family is a node: 0 is the empty family, 1 the family of the empty set,
and node k > 1 splits on `var[k]` into the sets without it (`lo[k]`) and
those with it, minus it (`hi[k]`, never 0).  Nodes are hash-consed, so equal
families are equal nodes.  The smallest variable sits at the root, so a new
largest variable fits below every node.  A set is an int with bit v set for
each member v; `scope[k]` is the set of variables below node k.  Binary
operations memoize in caches that `clear` empties, filters and images per
call; the recursions are methods, so a diagram is no reference cycle.
"""

from __future__ import annotations

from functools import reduce

EMPTY, BASE = 0, 1
_LEAF = 1 << 62  # the variable of both terminals, below every real one
_KEEP = ((True, None),)


class ZDD:
    def __init__(self):
        self.var, self.lo, self.hi = [_LEAF, _LEAF], [0, 1], [0, 1]
        self.scope = [0, 0]
        self.unique = {}  # (var, lo, hi) -> node
        self.clear()

    def clear(self) -> None:
        self.caches = ({}, {}, {})  # union, difference, add

    def node(self, v: int, lo: int, hi: int) -> int:
        if not hi:
            return lo
        key = (v, lo, hi)
        k = self.unique.get(key)
        if k is None:
            k = self.unique[key] = len(self.var)
            self.var.append(v)
            self.lo.append(lo)
            self.hi.append(hi)
            self.scope.append(self.scope[lo] | self.scope[hi] | 1 << v)
        return k

    def single(self, s: int) -> int:
        return reduce(self.add, self.members(s), BASE)  # the family {s}

    def union(self, f: int, g: int) -> int:
        if f == g or not g:
            return f
        if not f:
            return g
        if f > g:
            f, g = g, f
        key, cache = f << 32 | g, self.caches[0]
        r = cache.get(key)
        if r is None:
            vf, vg = self.var[f], self.var[g]
            if vf < vg:
                r = self.node(vf, self.union(self.lo[f], g), self.hi[f])
            elif vg < vf:
                r = self.node(vg, self.union(f, self.lo[g]), self.hi[g])
            else:
                r = self.node(vf, self.union(self.lo[f], self.lo[g]),
                              self.union(self.hi[f], self.hi[g]))
            cache[key] = r
        return r

    def diff(self, f: int, g: int) -> int:
        """The sets of f not in g."""
        if f == g or not f:
            return EMPTY
        if not g:
            return f
        key, cache = f << 32 | g, self.caches[1]
        r = cache.get(key)
        if r is None:
            vf, vg = self.var[f], self.var[g]
            if vf < vg:
                r = self.node(vf, self.diff(self.lo[f], g), self.hi[f])
            elif vg < vf:
                r = self.diff(f, self.lo[g])
            else:
                r = self.node(vf, self.diff(self.lo[f], self.lo[g]),
                              self.diff(self.hi[f], self.hi[g]))
            cache[key] = r
        return r

    def add(self, f: int, v: int) -> int:
        """Every set of f with v added."""
        vf = self.var[f]
        if vf > v:
            return self.node(v, EMPTY, f) if f else EMPTY
        key, cache = f << 32 | v, self.caches[2]
        r = cache.get(key)
        if r is None:
            if vf == v:
                r = self.node(v, EMPTY, self.union(self.lo[f], self.hi[f]))
            else:
                r = self.node(vf, self.add(self.lo[f], v), self.add(self.hi[f], v))
            cache[key] = r
        return r

    def within(self, f: int, mask: int, memo=None) -> int:
        """The sets of f inside the set `mask`, or outside ~mask if negative."""
        if not self.scope[f] & ~mask:
            return f
        memo = {} if memo is None else memo
        if f not in memo:
            v, lo = self.var[f], self.within(self.lo[f], mask, memo)
            memo[f] = self.node(v, lo, self.within(self.hi[f], mask, memo)) \
                if mask >> v & 1 else lo
        return memo[f]

    def avoid(self, f: int, mask: int) -> int:
        """The sets of f disjoint from the set `mask`."""
        return self.within(f, ~mask)

    def hits(self, f: int, mask: int) -> int:
        """The sets of f meeting the set `mask`."""
        return self.diff(f, self.within(f, ~mask)) if self.scope[f] & mask else EMPTY

    def image(self, f: int, options: dict, moving=None, memo=None) -> int:
        """Every outcome of the sets of f, each member v taking one of
        `options.get(v, keep)`, (stays, added member or None) pairs; losses
        come first, so a member one option drops and another adds stays."""
        if moving is None:
            moving, memo = sum(1 << v for v in options), {}
        if not self.scope[f] & moving:
            return f
        if f not in memo:
            v, r = self.var[f], self.image(self.lo[f], options, moving, memo)
            rest = self.image(self.hi[f], options, moving, memo)
            for stays, j in options.get(v, _KEEP):
                out = self.add(rest, v) if stays else rest
                r = self.union(r, out if j is None else self.add(out, j))
            memo[f] = r
        return memo[f]

    def fire(self, f: int, acts: dict, acting=None, memo=None) -> tuple:
        """(adds, drops): every set of f with one member v of `acts` acting
        once, where acts[v] is (members v may add, members v may turn into)."""
        if acting is None:
            acting, memo = sum(1 << v for v in acts), {}
        if not self.scope[f] & acting:
            return EMPTY, EMPTY
        if f not in memo:
            v, hi = self.var[f], self.hi[f]
            adds, drops = self.fire(self.lo[f], acts, acting, memo)
            a1, d1 = self.fire(hi, acts, acting, memo)
            adds, drops = self.union(adds, self.add(a1, v)), \
                self.union(drops, self.add(d1, v))
            plus, into = acts.get(v, ((), ()))
            for j in plus:
                adds = self.union(adds, self.add(self.add(hi, v), j))
            for j in into:
                drops = self.union(drops, self.add(hi, j))
            memo[f] = adds, drops
        return memo[f]

    def count(self, f: int, memo=None) -> int:
        memo = {} if memo is None else memo
        if f > BASE and f not in memo:
            memo[f] = self.count(self.lo[f], memo) + self.count(self.hi[f], memo)
        return memo.get(f, f)

    def project(self, f: int, labels, memo=None) -> set:
        """{the union of labels[v], a frozenset, over the members v of s : s in f}."""
        memo = {EMPTY: set(), BASE: {frozenset()}} if memo is None else memo
        if f not in memo:
            b = labels[self.var[f]]
            memo[f] = self.project(self.lo[f], labels, memo) | {
                m | b for m in self.project(self.hi[f], labels, memo)}
        return memo[f]

    @staticmethod
    def members(s: int) -> list:
        """The members of the set s, in order."""
        out = []
        while s:
            low = s & -s
            out.append(low.bit_length() - 1)
            s ^= low
        return out

    def variables(self, f: int) -> list:
        """The members of the sets of f, in order."""
        return self.members(self.scope[f])

    def sets(self, f: int):
        """Every set of f."""
        stack = [(f, 0)]
        while stack:
            f, s = stack.pop()
            if f > BASE:
                stack += ((self.hi[f], s | 1 << self.var[f]), (self.lo[f], s))
            elif f:
                yield s

    def least(self, f: int, key) -> int:
        """The set of f lacking the first member by `key` that sets differ in."""
        for v in sorted(self.variables(f), key=key):
            f = self.avoid(f, 1 << v) or f  # all sets left agree on v
        return next(self.sets(f))
