"""Seeded model text for the benchmark.

`random_gta_text` follows the test suite's `random_gta` generator, extended
to several clocks: models are small and timelock-free by construction, since
every location with an invariant gets an unguarded escape to an
invariant-free location.  The output is model text; the benchmark hands the
checker only what `parse_model` makes of it.

`respell` gives a model a fresh spelling of its identifiers, drawn from a
seed.  Every name keeps its length and names compare as before, so the
checker explores in the same order and reaches the same counts; only the text
differs.

    python3 perfbench/gen.py --self-test   # same seed, byte-identical text
"""

from __future__ import annotations

import random
import re
import string
import sys

LABEL_POOL = ("a", "b", "d", "e")
OPS = ("<", "<=", "==", ">=", ">")
CLOCK_POOL = ("c", "d", "e")

FIG1 = """\
gta fig1
clocks c
location init initial
location listen
location post inv: c <= 1
location reading inv: c <= 3
location done inv: c <= 1
location error
trans init -> listen label: s0 reset: c
trans listen -> post label: s1
trans post -> init label: s2
trans init -> reading label: s4 guard: c >= 1 reset: c locguard: post
trans reading -> post label: s4 guard: c >= 3
trans reading -> done label: s5 guard: c >= 1
trans reading -> error label: serr locguard: done
trans done -> init label: s6
"""

FIG3 = """\
gta fig3
clocks c
location init initial
location q1 inv: c <= 1
trans init -> init
trans init -> q1 reset: c
trans q1 -> init locguard: init
"""


def _atom(c, op, d):
    return f"{c} {op} {d}"


def random_gta_text(seed, clocks=1, max_locs=4, max_trans=6, max_const=2) -> str:
    """Text of a random gTA; `clocks=1` draws exactly what `random_gta` draws."""
    rng = random.Random(seed)
    cs = CLOCK_POOL[:clocks]
    n = rng.randint(2, max_locs)
    locs = [f"q{i}" for i in range(n)]
    inv = {}
    for q in locs[1:]:  # the initial location stays invariant-free
        if rng.random() < 0.35:
            c = rng.choice(cs) if clocks > 1 else "c"
            if rng.random() < 0.5:
                inv[q] = _atom(c, "<", rng.randint(1, max_const))
            else:
                inv[q] = _atom(c, "<=", rng.randint(0, max_const))
    free = [q for q in locs if q not in inv]
    trans = []
    for q in sorted(inv):
        trans.append((q, rng.choice(free), rng.choice(LABEL_POOL + (None,)),
                      (), cs, None))
    while len(trans) < rng.randint(1, max_trans):
        guard = tuple(
            _atom(rng.choice(cs) if clocks > 1 else "c", rng.choice(OPS),
                  rng.randint(0, max_const))
            for _ in range(rng.randint(0, 2))
        )
        src, dst = rng.choice(locs), rng.choice(locs)
        label = rng.choice(LABEL_POOL + (None,))
        if clocks > 1:
            resets = tuple(c for c in cs if rng.random() < 0.4)
        else:
            resets = ("c",) if rng.random() < 0.4 else ()
        locguard = rng.choice((None, None, rng.choice(locs)))
        trans.append((src, dst, label, guard, resets, locguard))
    out = [f"gta r{seed}", "clocks " + ", ".join(cs)]
    for i, q in enumerate(locs):
        line = f"location {q}" + (" initial" if i == 0 else "")
        if q in inv:
            line += f" inv: {inv[q]}"
        out.append(line)
    for src, dst, label, guard, resets, locguard in trans:
        line = f"trans {src} -> {dst}"
        if label is not None:
            line += f" label: {label}"
        if guard:
            line += " guard: " + " && ".join(guard)
        if resets:
            line += " reset: " + ", ".join(resets)
        if locguard is not None:
            line += f" locguard: {locguard}"
        out.append(line)
    return "\n".join(out) + "\n"


# -- order- and length-preserving renaming ---------------------------------------

_KEYWORDS = frozenset({"gta", "lbta", "ta", "clocks", "location", "initial", "inv",
                       "trans", "label", "guard", "reset", "locguard", "sync",
                       "broadcasts", "t", "z"})
_LETTERS = string.ascii_uppercase + string.ascii_lowercase  # ascending code points
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _names(text):
    """Location, clock and label names declared or used in model text."""
    out = set()
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        if words[0] == "clocks":
            out.update(c.strip() for c in line.split(None, 1)[1].split(","))
        elif words[0] == "location":
            out.add(words[1])
        elif words[0] == "trans" and "label:" in words:
            out.add(words[words.index("label:") + 1])
    return out


def respell(text: str, seed):
    """The model text with its identifiers respelled from `seed`, and the map.

    Letters go through one strictly increasing substitution, so every name
    keeps its length and names compare as before, also against the
    punctuation and digits that surround them in region keys.
    """
    rng = random.Random(seed)
    names = _names(text)
    letters = sorted({ch for n in names for ch in n if ch.isalpha()})
    while True:
        table = dict(zip(letters, sorted(rng.sample(_LETTERS, len(letters)))))
        mapping = {n: "".join(table.get(ch, ch) for ch in n) for n in names}
        if not set(mapping.values()) & _KEYWORDS:
            break
    header, body = text.split("\n", 1)
    body = _WORD.sub(lambda m: mapping.get(m.group(0), m.group(0)), body)
    return header + "\n" + body, mapping


def self_test() -> None:
    for seed in range(50):
        for clocks in (1, 2, 3):
            a = random_gta_text(seed, clocks, 6, 12, 4)
            assert a == random_gta_text(seed, clocks, 6, 12, 4), seed
            assert respell(a, seed) == respell(a, seed), seed
    print("gen self-test passed")


if __name__ == "__main__":
    if sys.argv[1:] != ["--self-test"]:
        sys.exit("usage: python3 perfbench/gen.py --self-test")
    self_test()
