"""Automaton types, the textual model format, and well-formedness checks.

Three kinds of automata share one record type:
  - "gta":  transitions may carry a location guard (some other process must
            occupy that location for the transition to fire),
  - "lbta": transitions carry a broadcast send (a!!) or receive (a??) instead,
  - "ta":   plain timed automaton, the output of unguard/strip_guarded.

The format is line oriented, one declaration per line; a `#` at the start of
a line or after whitespace starts a comment:

    gta Name                      (or: lbta Name)
    clocks c, d
    broadcasts a, b               (lbta only)
    location idle initial
    location busy inv: c<=2 && d<=3
    trans idle -> busy label: go guard: c>=1 reset: c locguard: busy
    trans idle -> busy label: go guard: c>=1 reset: c sync: a!!   (lbta)

Atoms are `c <op> d` or `c <op> c2 + d` with op in < <= == >= > and d a
non-negative integer.  A transition without `label:` is silent; a label may
end in `#k` (k digits), as the ones `relabel_unique` gives summary automata.

`Atom` and `Transition` are NamedTuples: built three times faster than frozen
dataclasses, with the same hash and repr.  `tr._replace(...)` updates a field.
`Automaton` is a frozen dataclass whose `tables` field (left out of `==`,
repr and `__init__`) keeps the region successors its layered builds and its
oracle networks compute; `dataclasses.replace(a, ...)` gives a copy with none.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional


class ModelError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        self.msg, self.line, self.col = msg, line, col
        where = f"line {line}" + (f", col {col}" if col else "") if line else ""
        super().__init__(f"{where}: {msg}" if where else msg)


class BudgetExceeded(Exception):
    """An exploration blew through --max-states / --max-layers."""


class Atom(NamedTuple):
    left: str
    op: str  # < <= == >= >
    right: Optional[str]  # second clock for diagonal atoms
    d: int

    def text(self) -> str:
        rhs = f"{self.right}+{self.d}" if self.right else str(self.d)
        return f"{self.left}{self.op}{rhs}"


class Transition(NamedTuple):
    src: str
    dst: str
    label: Optional[str]  # None = silent
    guard: tuple = ()  # tuple of Atom
    resets: tuple = ()
    locguard: Optional[str] = None  # gta only; None = trivially enabled
    sync: Optional[tuple] = None  # lbta only: (channel, "!!" or "??")


@dataclass(frozen=True)
class Automaton:
    kind: str  # "gta", "lbta" or "ta"
    name: str
    clocks: tuple
    locations: tuple
    initial: str
    invariants: dict  # location -> tuple of Atom (upper bounds only)
    transitions: tuple
    broadcasts: tuple = ()
    tclock: Optional[str] = None  # the global clock, when added by unguard
    # MemberTable -> (relabeled automaton, relabel map, RegionContext, table,
    # label index: user or internal label -> its internal labels), shared by
    # both layer engines; dtn_local.Outline -> the finished local build's
    # outline; dtn_global._Chain -> the global diagram and its memos, shared by
    # every global query; oracle._SigTable -> its table
    tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def invariant(self, q: str) -> tuple:
        return self.invariants.get(q, ())

    def labels(self):
        return sorted({tr.label for tr in self.transitions if tr.label is not None})


@dataclass
class ValidationReport:
    timelock_free: str  # "proved" or "refuted"
    witness: Optional[object] = None  # refuting region state (loc, region text)
    relabel_map: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"timelock-free: {self.timelock_free}"]
        if self.witness is not None:
            loc, rtext = self.witness
            lines.append(f"Assumption 1 refuted at ({loc}, {rtext})")
        lines.extend(self.diagnostics)
        return "\n".join(lines)


_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_ID_RE = re.compile(_ID)
_LABEL_RE = re.compile(rf"{_ID}(?:#\d+)?")  # relabel_unique adds #k suffixes
_COMMENT = re.compile(r"(?:^|(?<=\s))#")  # a `#` at line start or after whitespace
_ATOM_RE = re.compile(
    rf"^\s*({_ID})\s*(<=|==|>=|<|>)\s*(?:({_ID})\s*\+\s*)?(\d+)\s*$"
)
_TRANS_RE = re.compile(rf"({_ID})\s*->\s*({_ID})")
_SYNC_RE = re.compile(rf"({_ID})\s*(!!|\?\?)")
_INV_KEYS = re.compile(r"\b(inv)\s*:")
_TRANS_KEYS = re.compile(r"\b(label|guard|reset|locguard|sync)\s*:")


def _parse_atoms(text: str, line: int, col: int) -> tuple:
    atoms = []
    for part in text.split("&&"):
        m = _ATOM_RE.match(part)
        if not m:
            raise ModelError(f"bad atom {part.strip()!r}", line, col)
        left, op, right, d = m.groups()
        atoms.append(Atom(left, op, right, int(d)))
    return tuple(atoms)


def _split_fields(rest: str, keys: re.Pattern, line: int):
    """Split "src -> dst key: value key: value" into head and key/value map."""
    out = {}
    marks = list(keys.finditer(rest))
    head = rest[: marks[0].start()] if marks else rest
    for i, m in enumerate(marks):
        end = marks[i + 1].start() if i + 1 < len(marks) else len(rest)
        key = m.group(1)
        if key in out:
            raise ModelError(f"duplicate field {key!r}", line, m.start() + 1)
        out[key] = (rest[m.end() : end].strip(), m.end() + 1)
    return head.strip(), out


def parse_model(text: str) -> Automaton:
    kind = name = initial = None
    clocks, broadcasts, locations, transitions = [], [], [], []
    invariants = {}
    declared = set()

    def _idlist(raw: str, line: int, col: int):
        items = [s.strip() for s in raw.split(",")]
        for s in items:
            if not _ID_RE.fullmatch(s):
                raise ModelError(f"bad identifier {s!r}", line, col)
        return items

    for lno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].rstrip()
        if not line.strip():
            continue
        words = line.split(None, 1)
        kw, rest = words[0], (words[1] if len(words) > 1 else "")
        if kw in ("gta", "lbta", "ta"):
            if kind is not None:
                raise ModelError("second header line", lno, 1)
            if not _ID_RE.fullmatch(rest.strip()):
                raise ModelError("missing or bad model name", lno, len(kw) + 2)
            kind, name = kw, rest.strip()
            continue
        if kind is None:
            raise ModelError("first line must be `gta <Name>` or `lbta <Name>`", lno, 1)
        if kw == "clocks":
            for c in _idlist(rest, lno, len(kw) + 2):
                if c == "t":
                    raise ModelError(
                        "clock name t is reserved for the global clock", lno, 1
                    )
                if c in declared:
                    raise ModelError(f"duplicate declaration of {c!r}", lno, 1)
                declared.add(c)
                clocks.append(c)
        elif kw == "broadcasts":
            if kind != "lbta":
                raise ModelError("broadcasts are only valid in lbta models", lno, 1)
            for b in _idlist(rest, lno, len(kw) + 2):
                if b in broadcasts:
                    raise ModelError(f"duplicate declaration of {b!r}", lno, 1)
                broadcasts.append(b)
        elif kw == "location":
            head, fields = _split_fields(rest, _INV_KEYS, lno)
            parts = head.split()
            if not parts or not _ID_RE.fullmatch(parts[0]):
                raise ModelError("bad location declaration", lno, len(kw) + 2)
            loc = parts[0]
            if loc in locations:
                raise ModelError(f"duplicate declaration of {loc!r}", lno, 1)
            if parts[1:] not in ([], ["initial"]):
                raise ModelError(f"unexpected tokens {' '.join(parts[1:])!r}", lno, 1)
            if parts[1:]:
                if initial is not None:
                    raise ModelError("second initial location", lno, 1)
                initial = loc
            locations.append(loc)
            if "inv" in fields:
                val, col = fields["inv"]
                atoms = _parse_atoms(val, lno, col)
                for a in atoms:
                    if a.right is not None:
                        raise ModelError(
                            f"diagonal atom in invariant: {a.text()}", lno, col
                        )
                    if a.op not in ("<", "<="):
                        raise ModelError(
                            "lower bound in invariant: move lower bounds into "
                            "guards of incoming transitions",
                            lno,
                            col,
                        )
                invariants[loc] = atoms
        elif kw == "trans":
            head, fields = _split_fields(rest, _TRANS_KEYS, lno)
            m = _TRANS_RE.fullmatch(head)
            if not m:
                raise ModelError("expected `trans <src> -> <dst>`", lno, len(kw) + 2)
            label = guard = resets = locguard = sync = None
            if "label" in fields:
                val, col = fields["label"]
                if not _LABEL_RE.fullmatch(val):
                    raise ModelError(f"bad label {val!r}", lno, col)
                label = val
            if "guard" in fields:
                val, col = fields["guard"]
                guard = _parse_atoms(val, lno, col)
            if "reset" in fields:
                resets = tuple(_idlist(fields["reset"][0], lno, fields["reset"][1]))
            if "locguard" in fields:
                if kind != "gta":
                    raise ModelError("locguard is only valid in gta models", lno, 1)
                val, col = fields["locguard"]
                if not _ID_RE.fullmatch(val):
                    raise ModelError(f"bad locguard {val!r}", lno, col)
                locguard = val
            if "sync" in fields:
                if kind != "lbta":
                    raise ModelError("sync is only valid in lbta models", lno, 1)
                val, col = fields["sync"]
                ms = _SYNC_RE.fullmatch(val)
                if not ms:
                    raise ModelError(f"bad sync {val!r}, expected a!! or a??", lno, col)
                sync = (ms.group(1), ms.group(2))
            if kind == "lbta" and sync is None:
                raise ModelError("lbta transitions need a sync field", lno, 1)
            transitions.append(
                Transition(m.group(1), m.group(2), label, guard or (), resets or (),
                           locguard, sync)
            )
        else:
            raise ModelError(f"unknown keyword {kw!r}", lno, 1)

    if kind is None:
        raise ModelError("empty model", 1, 1)
    if initial is None:
        raise ModelError("no initial location", 1, 1)

    a = Automaton(kind, name, tuple(clocks), tuple(locations), initial,
                  invariants, tuple(transitions), tuple(broadcasts))
    _check_references(a)
    check_initial_invariant(a)
    return a


def _check_references(a: Automaton) -> None:
    clocks, locs = set(a.clocks), set(a.locations)

    def atoms_ok(atoms, what):
        for atom in atoms:
            for c in (atom.left, atom.right):
                if c is not None and c not in clocks:
                    raise ModelError(f"undeclared clock {c!r} in {what}")

    for q, inv in a.invariants.items():
        atoms_ok(inv, f"invariant of {q}")
    for tr in a.transitions:
        for q in (tr.src, tr.dst):
            if q not in locs:
                raise ModelError(f"undeclared location {q!r} in transition")
        atoms_ok(tr.guard, f"guard of {tr.src}->{tr.dst}")
        for c in tr.resets:
            if c not in clocks:
                raise ModelError(f"undeclared clock {c!r} in reset")
        if tr.locguard is not None and tr.locguard not in locs:
            raise ModelError(f"undeclared location {tr.locguard!r} in locguard")
        if tr.sync is not None and tr.sync[0] not in a.broadcasts:
            raise ModelError(f"undeclared broadcast {tr.sync[0]!r} in sync")


def check_initial_invariant(a: Automaton) -> None:
    """Refuse an initial invariant failing at time 0, like `c < 0`: no run."""
    for atom in a.invariant(a.initial):
        if atom.d < 0 or atom.d == 0 and atom.op == "<":
            raise ModelError(f"initial location {a.initial!r} breaks its invariant "
                             f"{atom.text()} at time 0")


def parse_file(path) -> Automaton:
    with open(path, encoding="utf-8") as f:
        return parse_model(f.read())


def pretty_model(a: Automaton) -> str:
    """Canonical text form: sorted declarations, stable under parse + re-print."""
    out = [f"{a.kind} {a.name}"]
    if a.clocks:
        out.append("clocks " + ", ".join(sorted(a.clocks)))
    if a.broadcasts:
        out.append("broadcasts " + ", ".join(sorted(a.broadcasts)))
    for q in sorted(a.locations):
        line = f"location {q}"
        if q == a.initial:
            line += " initial"
        inv = a.invariants.get(q)
        if inv:
            line += " inv: " + " && ".join(x.text() for x in sorted(inv))
        out.append(line)
    for tr in sorted(a.transitions, key=_trans_key):
        line = f"trans {tr.src} -> {tr.dst}"
        if tr.label is not None:
            line += f" label: {tr.label}"
        if tr.guard:
            line += " guard: " + " && ".join(
                x.text() for x in sorted(tr.guard, key=_atom_key))
        if tr.resets:
            line += " reset: " + ", ".join(sorted(tr.resets))
        if tr.locguard is not None:
            line += f" locguard: {tr.locguard}"
        if tr.sync is not None:
            line += f" sync: {tr.sync[0]}{tr.sync[1]}"
        out.append(line)
    return "\n".join(out) + "\n"


def _atom_key(x: Atom):
    """Atoms in tuple order; a single-clock atom (right None) sorts as right ""."""
    return (x.left, x.op, x.right or "", x.d)


def _trans_key(tr: Transition):
    return (
        tr.src,
        tr.dst,
        tr.label or "",
        tuple(sorted(map(_atom_key, tr.guard))),
        tuple(sorted(tr.resets)),
        tr.locguard or "",
        tr.sync or ("", ""),
    )


# -- transformations ------------------------------------------------------------


def unguard(a: Automaton) -> Automaton:
    """Drop location guards and add the global clock t (never guarded or reset)."""
    if "t" in a.clocks:
        raise ModelError("clock name t is reserved for the global clock")
    trs = tuple(
        Transition(tr.src, tr.dst, tr.label, tr.guard, tr.resets)
        for tr in a.transitions
    )
    return Automaton("ta", a.name, a.clocks + ("t",), a.locations, a.initial,
                     dict(a.invariants), trs, tclock="t")


def strip_guarded(a: Automaton) -> Automaton:
    """Remove location-guarded transitions; keeps the clock set unchanged."""
    trs = tuple(
        Transition(tr.src, tr.dst, tr.label, tr.guard, tr.resets)
        for tr in a.transitions
        if tr.locguard is None
    )
    return Automaton("ta", a.name, a.clocks, a.locations, a.initial,
                     dict(a.invariants), trs)


def strip_receives(b: Automaton) -> Automaton:
    """LBTA analog of strip_guarded: only sends can fire without a partner."""
    trs = tuple(
        Transition(tr.src, tr.dst, tr.label, tr.guard, tr.resets)
        for tr in b.transitions
        if tr.sync is not None and tr.sync[1] == "!!"
    )
    return Automaton("ta", b.name, b.clocks, b.locations, b.initial,
                     dict(b.invariants), trs)


def relabel_unique(a: Automaton):
    """Give every transition a fresh unique non-silent label.

    Returns (automaton, map internal label -> user label or None for silent).
    Unique user labels are kept as-is; duplicates get #1, #2 suffixes in
    declaration order, and silent transitions eps#1, eps#2 (one count per
    base), skipping a suffix that would make a user label.  A duplicate that
    ends in #k takes its base without it, so every label parses again.
    """
    counts = {}
    for tr in a.transitions:
        counts[tr.label] = counts.get(tr.label, 0) + 1
    last, relabel_map, trs = {}, {}, []  # base -> its last suffix
    for tr in a.transitions:
        if tr.label is not None and counts[tr.label] == 1:
            internal = tr.label
        else:
            base = "eps" if tr.label is None else re.sub(r"#\d+$", "", tr.label)
            k = last.get(base, 0) + 1
            while f"{base}#{k}" in counts:  # a user label
                k += 1
            last[base], internal = k, f"{base}#{k}"
        relabel_map[internal] = tr.label
        trs.append(Transition(tr.src, tr.dst, internal, tr.guard, tr.resets,
                              tr.locguard, tr.sync))
    out = Automaton(a.kind, a.name, a.clocks, a.locations, a.initial,
                    dict(a.invariants), tuple(trs), a.broadcasts, a.tclock)
    return out, relabel_map


def compute_bounds(a: Automaton) -> dict:
    """Per-clock bound: the largest constant comparing the clock anywhere."""
    bounds = {c: 0 for c in a.clocks}

    def feed(atoms):
        for atom in atoms:
            bounds[atom.left] = max(bounds[atom.left], atom.d)
            if atom.right is not None:
                bounds[atom.right] = max(bounds[atom.right], atom.d)

    for inv in a.invariants.values():
        feed(inv)
    for tr in a.transitions:
        feed(tr.guard)
    return bounds


def validate(a: Automaton) -> ValidationReport:
    """Diagnostics and Assumption 1 on the guard-stripped automaton; the region
    explorer runs only where the location-graph lemma does not decide it."""
    diagnostics = []
    if a.kind == "lbta":
        senders = {tr.sync[0] for tr in a.transitions if tr.sync and tr.sync[1] == "!!"}
        for tr in a.transitions:
            if tr.sync and tr.sync[1] == "??" and tr.sync[0] not in senders:
                diagnostics.append(
                    f"receive {tr.sync[0]}?? has no matching sender (harmless, "
                    "lossy semantics)"
                )
    _, relabel_map = relabel_unique(a)
    from . import region_graph

    stripped = strip_guarded(a) if a.kind != "lbta" else strip_receives(a)
    verdict, witness = (("proved", None) if region_graph.time_always_passes(stripped)
                        else region_graph.check_timelock_free(stripped))
    if verdict == "refuted":
        diagnostics.append(
            "Assumption 1 does not hold; layer construction may under-approximate"
        )
    return ValidationReport(verdict, witness, relabel_map, diagnostics)
