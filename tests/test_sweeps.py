"""The context sweeps against the one-program calls they generalise.

``ht.stable_masks_in_contexts`` gives the stable models of a program alone
and together with each of many contexts, and
``forks.fork_stable_models_each`` the fork stable models of many forks,
each in one pass over a source compiled once.  The HT sweep gives masks
projected onto a vocabulary: onto the whole alphabet they are the stable
models themselves, onto the source alphabet what the head-splitting check
compares.  ``forks.forked_masks_in_contexts`` gives as masks the fork
stable models of a program's fork, bare and conjoined with each of the
contexts compiled by ``forks.ContextRegisters``.  Every list they return
must equal the one-program result: ``ht.stable_models`` of the joined
program, projected by ``forks.project_models``, and
``forks.fork_stable_models`` of the conjoined fork.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from dlplab import forks as deno
from dlplab import ht
from dlplab.checks import context_family
from dlplab.gen import GenConfig, gen_fork, gen_program
from dlplab.parser import parse_program
from dlplab.syntax import (FALSUM, Atom, Falsum, ForkAnd, ForkImplies, ForkPair,
                           Or, Program, fork_and, forked, rule)


def one_by_one(p: Program, contexts) -> tuple[list, list, list, list]:
    """Per context, one call each: the stable models of pf(p) joined with
    it, those projected onto p's atoms, the fork stable models of p's fork
    conjoined with it, and the last again.  The lists of projected and of
    repeated fork stable models begin with pf's and p's fork's alone."""
    al = p.atoms()
    f, pf = forked(p), deno.pf_translate(p)
    sm = [ht.stable_models(Program(pf.rules + c.rules), pf.atoms() | al)
          for c in contexts]
    fork = [deno.fork_stable_models(fork_and(f, c.to_formula()), al) for c in contexts]
    bare = ht.stable_models(pf, pf.atoms() | al)
    return (sm, [deno.project_models(models, al) for models in [bare] + sm], fork,
            [deno.fork_stable_models(f, al)] + fork)


def decoded(masks, pool) -> list:
    """Masks over a sorted pool as sorted models, each once."""
    return ht.sort_models(frozenset(pool[i] for i in ht.set_bits(m)) for m in masks)


def in_contexts(p: Program, contexts, atoms=None) -> list:
    """The stable models of p together with each context, sorted, from one
    sweep over the alphabet, by default the atoms of p and of every
    context, projected onto the whole alphabet: p alone is dropped."""
    rules = ht.ContextRules(contexts)
    al = p.atoms().union(rules.atoms) if atoms is None else atoms
    pool = sorted(set(al))
    return [decoded(masks, pool)
            for masks in ht.stable_masks_in_contexts(p, rules, al, al)[1:]]


def swept(p: Program, contexts) -> tuple[list, list, list, list]:
    """The same lists from one call of each sweep: the HT sweep, whole and
    projected, for the first and second, the tree sweep for the third and
    the program's fork for the fourth."""
    al = p.atoms()
    pool = sorted(al)
    f, pf = forked(p), deno.pf_translate(p)
    projected = ht.stable_masks_in_contexts(pf, ht.ContextRules(contexts),
                                            pf.atoms() | al, al)
    fork = deno.forked_masks_in_contexts(p, deno.ContextRegisters(contexts, al))
    return (in_contexts(pf, contexts, pf.atoms() | al),
            [decoded(masks, pool) for masks in projected],
            deno.fork_stable_models_each([fork_and(f, c.to_formula())
                                          for c in contexts], al),
            [decoded(masks, pool) for masks in fork])


def pf_width(p: Program) -> int:
    return len(p.atoms() | deno.pf_translate(p).atoms())


def seeded(cfg: GenConfig, count: int, max_width: int = 12) -> list[Program]:
    """The first count programs of the config, by seed, whose pf
    translation has at most max_width atoms."""
    out, seed = [], 0
    while len(out) < count:
        p = gen_program(replace(cfg, seed=seed))
        if pf_width(p) <= max_width:
            out.append(p)
        seed += 1
    return out


SEED_SETS = [pytest.param(GenConfig(), 40, id="default"),
             pytest.param(GenConfig(atoms=3, rules=3, max_head=3), 100,
                          id="atoms3-rules3-head3")]


@pytest.mark.parametrize("cfg, count", SEED_SETS)
def test_sweeps_match_one_call_per_context(cfg, count):
    widths = set()
    for p in seeded(cfg, count):
        contexts = context_family(p.atoms())
        assert swept(p, contexts) == one_by_one(p, contexts), p
        widths.add(pf_width(p))
    assert max(widths) == 12


def test_the_one_context_calls_are_the_sweeps():
    for seed in range(40):
        p = gen_program(GenConfig(seed=seed))
        assert ht.stable_models(p) == in_contexts(p, [Program(())])[0]
        f = forked(p)
        assert deno.fork_stable_models(f) == deno.fork_stable_models_each([f])[0]


def test_no_contexts_give_no_lists():
    p = parse_program("a | b :- not c. c :- a.")
    assert ht.stable_masks_in_contexts(p, ht.ContextRules([]), p.atoms(), p.atoms()) \
        == [[0b010]]
    assert ht.stable_masks_in_contexts(p, ht.ContextRules(()), p.atoms() | {"z"},
                                       p.atoms()) == [[0b010]]
    assert deno.fork_stable_models_each([]) == []
    assert deno.fork_stable_models_each([], ("a", "b")) == []
    bare = deno.forked_masks_in_contexts(p, deno.ContextRegisters([], "abc"))
    assert [decoded(masks, "abc") for masks in bare] == [deno.forked_stable_models(p)]


def test_duplicate_contexts_get_equal_lists_of_their_own():
    p = gen_program(GenConfig(atoms=3, rules=3, max_head=3, seed=4))
    c = context_family(p.atoms())[-1]
    contexts = [c, Program(()), c, Program(c.rules), Program(c.rules[::-1])]
    lists = swept(p, contexts)
    assert lists == one_by_one(p, contexts)
    sm = lists[0]
    assert sm[0] == sm[2] == sm[3] == sm[4]
    # the masks entry: pf alone first, which the empty context repeats
    pf, al = deno.pf_translate(p), p.atoms()
    masks = ht.stable_masks_in_contexts(pf, ht.ContextRules(contexts), pf.atoms() | al, al)
    assert masks[0] == masks[2] and masks[0] is not masks[2]
    assert masks[1] == masks[3] == masks[4] == masks[5]
    assert masks[1] is not masks[3]
    masks[1].append(-1)
    assert masks[3] == masks[4] != masks[1]


def test_contexts_repeating_the_programs_rules():
    for seed in range(30):
        p = gen_program(GenConfig(atoms=3, rules=3, max_head=3, seed=seed))
        pf = deno.pf_translate(p)
        first, last = pf.rules[0], pf.rules[-1]
        a = min(p.atoms())
        contexts = [Program((first,)), Program((last, rule(pos=(a,)))),
                    Program(pf.rules), Program((first, first))]
        # the context's own atoms are those of pf here, not of p
        al = pf.atoms()
        assert (in_contexts(pf, contexts, al)
                == [ht.stable_models(Program(pf.rules + c.rules), al)
                    for c in contexts]), seed
        assert in_contexts(pf, contexts, al)[0] == ht.stable_models(pf, al)


def test_contexts_of_constraints_only():
    constraints = [rule(pos=("a",)), rule(pos=("b",), negated=("a",)),
                   rule(negated=("c",)), rule(pos=("a", "b")), rule(negneg=("b",))]
    contexts = [Program((r,)) for r in constraints]
    contexts += [Program((r1, r2)) for r1 in constraints for r2 in constraints]
    for seed in range(30):
        p = gen_program(GenConfig(atoms=3, rules=3, max_head=3, seed=seed))
        ctx = [c for c in contexts if c.atoms() <= p.atoms()]
        assert swept(p, ctx) == one_by_one(p, ctx), seed


def test_stable_models_of_a_wider_alphabet_in_contexts():
    p = parse_program("a | b. c :- a, not b.")
    contexts = [Program(()), parse_program(":- c."), parse_program("z :- not a.")]
    atoms = {"a", "b", "c", "z", "y"}
    assert in_contexts(p, contexts, atoms) \
        == [ht.stable_models(Program(p.rules + c.rules), atoms) for c in contexts]
    with pytest.raises(ValueError, match="missing atoms"):
        in_contexts(p, contexts, {"a", "b", "c"})


def unshared(f):
    """A copy of the fork in which no node object occurs twice."""
    if isinstance(f, Atom):
        return Atom(f.name)
    if isinstance(f, Falsum):
        return Falsum()
    return type(f)(unshared(f.left), unshared(f.right))


def test_forks_sharing_nodes_in_both_readings():
    """One node object read as a formula in one place and as a fork in
    another must get a support register and a view register."""
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    phi = Or(a, b)
    pair = ForkPair(a, c)
    forks = [ForkAnd(phi, ForkImplies(phi, pair)), ForkImplies(phi, a),
             ForkAnd(pair, ForkImplies(a, ForkPair(b, FALSUM))),
             ForkPair(FALSUM, ForkImplies(FALSUM, phi)), phi]
    for order in (forks, forks[::-1]):
        assert deno.fork_stable_models_each(order, "abc") \
            == [deno.fork_stable_models(unshared(f), "abc") for f in order]


def test_random_forks_sharing_subforks():
    rng = random.Random(5)
    atoms = ("a", "b", "c")
    for _ in range(60):
        g, h = gen_fork(rng, atoms, 3), gen_fork(rng, atoms, 3)
        forks = [g, fork_and(g, h), ForkPair(h, g), fork_and(h, g), h,
                 ForkImplies(Atom("a"), g)]
        assert deno.fork_stable_models_each(forks, atoms) \
            == [deno.fork_stable_models(unshared(f), atoms) for f in forks]


# ---------------------------------------------------------------------------
# The pruned fork sweep against the sweep over every T
# ---------------------------------------------------------------------------

def every_t(forks, atoms=None):
    """The roots of the compiled forks, and their registers at every T of
    ht.subsets: the fork sweep without the pre-pass that prunes it."""
    pool, ops, roots = deno._compile_over(forks, atoms)

    def runs():
        for t in ht.subsets(pool):
            combo = [pool.index(a) for a in sorted(t)]
            regs = [0] * (len(pool) + 1)
            for i, j in enumerate(combo):
                regs[j] = ht._columns(len(combo))[i]
            yield t, deno._run(ops, regs, len(combo))
    return roots, runs()


def unpruned_fork_stable_models_each(forks, atoms=None):
    roots, runs = every_t(forks, atoms)
    found = [[] for _ in roots]
    for t, regs in runs:
        for models, root in zip(found, roots):
            if ht._full_bit(len(t)) in regs[root]:
                models.append(t)
    return found


def unpruned_strongly_entails(f, g, atoms=None):
    (rf, rg), runs = every_t([f, g], atoms)
    for t, regs in runs:
        missing = [h for h in regs[rf] if all(k & ~h for k in regs[rg])]
        if missing:
            h = min(missing, key=deno._support_order)
            return deno.EntailmentResult(
                False, t, deno.Support(tuple(sorted(t)), deno._unpack(h)))
    return deno.EntailmentResult(True)


def assert_prune_is_exact(p, atoms=None):
    f, phi = forked(p), p.to_formula()
    assert deno.fork_stable_models(f, atoms) \
        == unpruned_fork_stable_models_each([f], atoms)[0], p
    for left, right in ((phi, f), (f, phi)):
        # equal verdict, witness_t and witness_support
        assert deno.strongly_entails(left, right, atoms) \
            == unpruned_strongly_entails(left, right, atoms), p


def cyclic(n):
    """x_i | x_{i+1} :- not x_{i+2}, indices mod n."""
    return parse_program("".join(
        f"x{i:02d} | x{(i + 1) % n:02d} :- not x{(i + 2) % n:02d}.\n"
        for i in range(n)))


@pytest.mark.parametrize("cfg, count", [
    pytest.param(GenConfig(), 300, id="default"),
    pytest.param(GenConfig(atoms=6, rules=8), 100, id="atoms6-rules8")])
def test_pruned_fork_sweep_matches_every_t(cfg, count):
    failing = 0
    for seed in range(count):
        p = gen_program(replace(cfg, seed=seed))
        assert_prune_is_exact(p, p.atoms())
        failing += not deno.strongly_entails(forked(p), p.to_formula())
    assert failing > count // 4


@pytest.mark.parametrize("cfg", [GenConfig(), GenConfig(atoms=3, rules=3, max_head=3)],
                         ids=["default", "atoms3-rules3-head3"])
def test_pruned_fork_sweep_matches_every_t_on_context_families(cfg):
    for p in seeded(cfg, 25):
        al = p.atoms()
        f = forked(p)
        forks = [f] + [fork_and(f, c.to_formula()) for c in context_family(al)]
        assert deno.fork_stable_models_each(forks, al) \
            == unpruned_fork_stable_models_each(forks, al), p


@pytest.mark.parametrize("n", range(3, 13))
def test_pruned_fork_sweep_matches_every_t_on_cyclic_family(n):
    assert_prune_is_exact(cyclic(n))


def test_pruned_fork_sweep_visits_pinned_counts(monkeypatch):
    """The T that the pre-pass leaves open on the cyclic family: a prune
    weakened in any of its rules visits more of them."""
    visits = 0
    run = deno._run

    def counted(*args):
        nonlocal visits
        visits += 1
        return run(*args)

    monkeypatch.setattr(deno, "_run", counted)
    counts = []
    for n in range(6, 13):
        visits = 0
        deno.fork_stable_models(forked(cyclic(n)))
        counts.append(visits)
    assert counts == [20, 28, 46, 78, 122, 198, 324]
    # random forks reach a fork conjunction with one empty side
    visits = 0
    rng = random.Random(5)
    for _ in range(200):
        deno.fork_stable_models(gen_fork(rng, "abcd", 4), "abcd")
    assert visits == 520
    visits = 0
    for seed in range(300):
        p = gen_program(GenConfig(seed=seed))
        deno.fork_stable_models(forked(p), p.atoms())
    assert visits == 1131


def test_fork_engine_reads_no_program_table(monkeypatch):
    """The fork sweep prunes on its own registers, and the program entries
    compile the rules themselves, so the engine stays an oracle independent
    of the truth tables of ht.CompiledProgram."""
    def refuse(*args, **kwargs):
        raise AssertionError("the fork engine compiled a program table")

    p = parse_program("a | b :- not c. c :- not a. b :- c, not not b.")
    models = deno.fork_stable_models(forked(p))
    stable = ht.stable_models(p)
    monkeypatch.setattr(ht, "CompiledProgram", refuse)
    assert deno.fork_stable_models(forked(p)) == models
    assert not deno.strongly_entails(forked(p), p.to_formula())
    assert deno.strongly_entails(p.to_formula(), forked(p))
    assert deno.forked_stable_models(p) == models
    assert deno.equilibrium_models(p) == stable
    assert deno.entails_forked(p)
    contexts = [Program(()), parse_program("a."), parse_program(":- b. c :- a.")]
    registers = deno.ContextRegisters(contexts, p.atoms())
    assert [decoded(masks, "abc") for masks in deno.forked_masks_in_contexts(p, registers)] \
        == [models] + [deno.fork_stable_models(fork_and(forked(p), c.to_formula()))
                       for c in contexts]
