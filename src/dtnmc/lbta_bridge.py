"""Translations between location-guarded and lossy-broadcast communication.

gta_to_lbta: channels are locations.  A transition guarded by location g
becomes a receive g??; every location used as a guard gets one silent g!!
self-loop, so a process idling there can witness any number of receivers.
Unguarded transitions become sends on the source location's channel, which
lets would-be witnesses of the moving process synchronize at the instant it
is still there; lossiness makes the send harmless otherwise.

lbta_to_gta: each sending transition (q, g, Cr, s, a!!, q') gets an auxiliary
location with invariant c_snd<=0 on a fresh clock: the sender jumps there
resetting c_snd (so no time can pass), receivers of a?? fire guarded by the
auxiliary location, and the sender completes silently to q', applying its
resets.  One auxiliary location per sending transition; receiving transitions
are copied once per matching sender.
"""

from __future__ import annotations

from .model import Atom, Automaton, Transition, relabel_unique


def fresh_name(base: str, taken) -> str:
    name, i = base, 0
    while name in taken:
        i += 1
        name = f"{base}_{i}"
    return name


def gta_to_lbta(a: Automaton) -> Automaton:
    if a.kind != "gta":
        raise ValueError("gta_to_lbta expects a gta model")
    trs = []
    guard_locs = sorted({tr.locguard for tr in a.transitions if tr.locguard})
    for tr in a.transitions:
        if tr.locguard is not None:
            sync = (tr.locguard, "??")
        else:
            sync = (tr.src, "!!")
        trs.append(Transition(tr.src, tr.dst, tr.label, tr.guard, tr.resets,
                              None, sync))
    for g in guard_locs:
        trs.append(Transition(g, g, None, (), (), None, (g, "!!")))
    return Automaton("lbta", a.name, a.clocks, a.locations, a.initial,
                     dict(a.invariants), tuple(trs), broadcasts=a.locations)


def lbta_to_gta(b: Automaton) -> Automaton:
    if b.kind != "lbta":
        raise ValueError("lbta_to_gta expects an lbta model")
    b2, rmap = relabel_unique(b)
    c_snd = fresh_name("c_snd", b.clocks)
    locations = list(b.locations)
    invariants = dict(b.invariants)
    trs = []
    aux_of = []  # (channel, aux location) per sending transition
    for tr in b2.transitions:
        if tr.sync[1] != "!!":
            continue
        aux = fresh_name("snd_" + tr.label.replace("#", "_"), locations)
        locations.append(aux)
        invariants[aux] = (Atom(c_snd, "<=", None, 0),)
        aux_of.append((tr.sync[0], aux))
        trs.append(Transition(tr.src, aux, rmap[tr.label], tr.guard, (c_snd,)))
        trs.append(Transition(aux, tr.dst, None, (), tr.resets))
    for tr in b2.transitions:
        if tr.sync[1] != "??":
            continue
        for chan, aux in aux_of:
            if chan == tr.sync[0]:
                trs.append(Transition(tr.src, tr.dst, rmap[tr.label], tr.guard,
                                      tr.resets, locguard=aux))
    return Automaton("gta", b.name, b.clocks + (c_snd,), tuple(locations),
                     b.initial, invariants, tuple(trs))
