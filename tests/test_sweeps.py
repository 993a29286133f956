"""The context sweeps against the one-program calls they generalise.

``ht.stable_masks_in_contexts`` gives the stable models of a program alone
and together with each of many contexts, in one pass over a source
compiled once, as masks projected onto a vocabulary: onto the whole
alphabet they are the stable models themselves, onto the source alphabet
what the head-splitting check compares.  ``forks.forked_masks_in_contexts``
gives as masks the fork stable models of a program's fork, bare and
conjoined with each of the contexts compiled by ``forks.ContextRegisters``;
it builds no conjunction but reads, at each T, whether [T] is a product of
the program's view and each context's support off the contexts' supports
sliced by member.  Both return one dict from a model mask to its context
set, bit 0 for the program alone and bit j + 1 for the j-th context;
``per_context`` turns it into one model list per bit, and every list must
equal the one-program result of ``one_by_one``: ``ht.stable_models`` of
the joined program, projected by ``forks.project_models``, and
``forks.fork_stable_models`` of the conjoined fork tree, the fork masks in
the same order.

The second part checks the pruned fork sweep of ``forks.fork_stable_models``
against a sweep over every T (``every_t``), one fork at a time, and the
entailment sweep of ``forks.strongly_entails`` and ``forks.entails_forked``,
pruned by the register shadows, against one over every T.  The oracles
named here are those of ``tests/reference.py``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations, permutations

import pytest

from dlplab import compare, ht
from dlplab import forks as deno
from dlplab.checks import check_pf_projection, context_family
from dlplab.compare import model_tables
from dlplab.gen import GenConfig, gen_fork, gen_formula, gen_program
from dlplab.parser import parse_fork, parse_program
from dlplab.syntax import (FALSUM, And, Atom, Falsum, ForkAnd, ForkImplies, ForkPair,
                           Formula, Implies, Or, Program, fork_and, forked, rule)

from families import cyclic
from reference import (every_t, one_by_one, per_context, unpruned_fork_stable_models,
                       unpruned_strongly_entails)


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
    found = ht.stable_masks_in_contexts(p, rules, al, al)
    return [decoded(masks, pool)
            for masks in per_context(found, len(contexts) + 1)[1:]]


def swept(p: Program, contexts) -> tuple[list, list, list]:
    """The same lists from one call of each sweep: the HT sweep, whole and
    projected, for the first and second, and the program's fork for the
    third, decoded in the order found."""
    al = p.atoms()
    pool = sorted(al)
    pf = deno.pf_translate(p)
    count = len(contexts) + 1
    projected = ht.stable_masks_in_contexts(pf, ht.ContextRules(contexts),
                                            pf.atoms() | al, al)
    fork = deno.forked_masks_in_contexts(p, deno.ContextRegisters(contexts, al))
    return (in_contexts(pf, contexts, pf.atoms() | al),
            [decoded(masks, pool) for masks in per_context(projected, count)],
            [deno._decoded(pool, masks) for masks in per_context(fork, count)])


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
                          id="atoms3-rules3-head3"),
             pytest.param(GenConfig(atoms=6, rules=8), 40, id="atoms6-rules8")]


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
        bare, alone = per_context(deno.forked_masks_in_contexts(
            p, deno.ContextRegisters([Program(())], p.atoms())), 2)
        assert deno.fork_stable_models(forked(p)) == decoded(bare, sorted(p.atoms())) \
            == decoded(alone, sorted(p.atoms()))


def test_no_contexts_give_no_lists():
    p = parse_program("a | b :- not c. c :- a.")
    assert ht.stable_masks_in_contexts(p, ht.ContextRules([]), p.atoms(), p.atoms()) \
        == {0b010: 1}
    assert ht.stable_masks_in_contexts(p, ht.ContextRules(()), p.atoms() | {"z"},
                                       p.atoms()) == {0b010: 1}
    bare = deno.forked_masks_in_contexts(p, deno.ContextRegisters([], "abc"))
    assert [decoded(masks, "abc") for masks in per_context(bare, 1)] \
        == [deno.fork_stable_models(forked(p))]


def test_contexts_reusing_a_label_sweep_like_one_call_each():
    """A label names a rule within its own context, so contexts may reuse
    one, and a rule labelled in two ways is one rule."""
    p = parse_program("a | b :- not c. c :- a.")
    contexts = [parse_program("l1: a."), parse_program("l1: b."),
                parse_program("l2: a. l1: c :- b."), Program(())]
    assert swept(p, contexts) == one_by_one(p, contexts)
    assert len(ht.ContextRules(contexts).rules) == 3


def test_duplicate_contexts_get_equal_lists_of_their_own():
    p = gen_program(GenConfig(atoms=3, rules=3, max_head=3, seed=4))
    c = context_family(p.atoms())[-1]
    contexts = [c, Program(()), c, Program(c.rules), Program(c.rules[::-1])]
    lists = swept(p, contexts)
    assert lists == one_by_one(p, contexts)
    sm = lists[0]
    assert sm[0] == sm[2] == sm[3] == sm[4]
    # the masks entry: pf alone at bit 0, which the empty context repeats,
    # so each context set holds a context's bit iff it holds its duplicates'
    pf, al = deno.pf_translate(p), p.atoms()
    found = ht.stable_masks_in_contexts(pf, ht.ContextRules(contexts), pf.atoms() | al, al)
    masks = per_context(found, len(contexts) + 1)
    assert masks[0] == masks[2] and masks[1] == masks[3] == masks[4] == masks[5]
    assert masks[0] and masks[1] != masks[0]


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


def test_context_sweep_with_empty_supports_and_many_generators():
    """Contexts whose support is empty at some T, and programs whose view
    has several generators at one T, each meeting the contexts' supports
    in other members."""
    facts = [parse_program(text) for text in ("a.", "b.", "c.", "a. c.", "b. c.")]
    contexts = facts + [Program(()), parse_program(":- a."),
                        parse_program("a :- not b."), parse_program(":- b, not c.")]
    programs = [parse_program(text) for text in (
        "a | b. b | c.", "a | b | c.", "a | b. a | c :- not b.", "a | c :- not b. b | c.")]
    pool = ("a", "b", "c")
    registers = deno.ContextRegisters(contexts, pool)
    empty = set()
    for t in range(8):
        regs = registers.at(t)[0]
        empty.update(j for j, r in enumerate(registers.roots) if not regs[r])
    assert empty == set(range(len(contexts))) - {5}
    for p in programs:
        many = [t for t in ht.subsets(pool)
                if len(deno.denotation(forked(p), t).gens) > 1]
        assert many, p
        assert swept(p, contexts) == one_by_one(p, contexts), p


def context_family_registers(atoms) -> deno.ContextRegisters:
    return deno.ContextRegisters(context_family(atoms), sorted(atoms))


@pytest.mark.parametrize("cfg, count", SEED_SETS)
def test_context_views_have_at_most_one_generator(cfg, count):
    for p in seeded(cfg, count // 4):
        registers = context_family_registers(p.atoms())
        for t in range(1 << len(registers.pool)):
            regs = registers.at(t)[0]
            assert all(len(regs[r]) <= 1 for r in registers.roots), (p, t)


def test_context_sweep_visits_pinned_counts(monkeypatch):
    """The T the context sweep runs the program's registers at, those where
    its forked view is nonempty: a sweep visiting every T, or pruning less,
    runs more of them."""
    visits = 0
    run = deno._run

    def counted(*args):
        nonlocal visits
        visits += 1
        return run(*args)

    counts = []
    for cfg in (GenConfig(), GenConfig(atoms=3, rules=3, max_head=3),
                GenConfig(atoms=6, rules=8)):
        programs = seeded(cfg, 40)
        families = {}
        for p in programs:
            key = tuple(sorted(p.atoms()))
            if key not in families:
                families[key] = registers = context_family_registers(key)
                for t in range(1 << len(key)):
                    registers.at(t)
        monkeypatch.setattr(deno, "_run", counted)
        visits = 0
        for p in programs:
            deno.forked_masks_in_contexts(p, families[tuple(sorted(p.atoms()))])
        monkeypatch.setattr(deno, "_run", run)
        counts.append(visits)
    # of 592, 310 and 2272 T over the programs' alphabets
    assert counts == [199, 199, 362]


def test_ht_context_sweep_tests_pinned_candidates(monkeypatch):
    """The models t at which the HT context sweep reads the family, pf's
    classical models whose atoms outside the contexts' are supported by
    pf, and those of them that some context supports and so reach the
    here-components: a sweep filtering less reads or tests more of them."""
    calls = {}

    def counted(cls, name):
        real = getattr(cls, name)

        def count(self, x):
            calls[name] += 1
            return real(self, x)
        monkeypatch.setattr(cls, name, count)

    counted(ht.ContextRules, "at")
    counted(ht.CompiledProgram, "here_columns")
    counts = []
    for cfg in (GenConfig(), GenConfig(atoms=3, rules=3, max_head=3),
                GenConfig(atoms=6, rules=8)):
        calls.update(at=0, here_columns=0)
        for p in seeded(cfg, 40):
            al, pf = p.atoms(), deno.pf_translate(p)
            ht.stable_masks_in_contexts(pf, ht.ContextRules(context_family(al)),
                                        pf.atoms() | al, al)
        counts.append((calls["at"], calls["here_columns"]))
    # of 4897, 3505 and 5109 classical models of pf
    assert counts == [(538, 527), (502, 501), (640, 520)]


def test_stable_models_of_a_wider_alphabet_in_contexts():
    p = parse_program("a | b. c :- a, not b.")
    contexts = [Program(()), parse_program(":- c."), parse_program("z :- not a.")]
    atoms = {"a", "b", "c", "z", "y"}
    assert in_contexts(p, contexts, atoms) \
        == [ht.stable_models(Program(p.rules + c.rules), atoms) for c in contexts]
    with pytest.raises(ValueError, match="missing atoms"):
        in_contexts(p, contexts, {"a", "b", "c"})


def test_the_ht_sweep_refusals(monkeypatch):
    """A vocabulary the alphabet does not cover is refused, and th1 refuses
    a pf wider than MAX_ENUM_ATOMS before it runs any fork sweep."""
    p = parse_program("a | b. c :- a, not b.")
    rules = ht.ContextRules([Program(()), parse_program(":- c.")])
    with pytest.raises(ValueError, match=r"vocabulary atoms \['z'\] outside the alphabet"):
        ht.stable_masks_in_contexts(p, rules, p.atoms(), {"a", "z"})

    def refuse(*args):
        raise AssertionError("a fork sweep ran")

    monkeypatch.setattr(deno, "forked_masks_in_contexts", refuse)
    # 7 source atoms, and 15 fresh ones for five three-atom heads
    wide = parse_program("a | b | c :- not d. b | c | d :- not e. c | d | e :- not f. "
                         "d | e | f :- not g. e | f | g :- not a.")
    assert len(wide.atoms()) == 7 and len(deno.pf_translate(wide).atoms()) == 22
    with pytest.raises(ht.CapacityError, match="22 atoms exceed"):
        check_pf_projection(wide)


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
    for f in forks:
        assert deno.fork_stable_models(f, "abc") \
            == deno.fork_stable_models(unshared(f), "abc")
    # the forks of one compile share nodes too
    for g in forks:
        for h in forks:
            assert deno.strongly_entails(g, fork_and(g, h), "abc") \
                == deno.strongly_entails(unshared(g), unshared(fork_and(g, h)), "abc")


def test_random_forks_sharing_subforks():
    rng = random.Random(5)
    atoms = ("a", "b", "c")
    for _ in range(60):
        g, h = gen_fork(rng, atoms, 3), gen_fork(rng, atoms, 3)
        forks = [g, fork_and(g, h), ForkPair(h, g), fork_and(h, g), h,
                 ForkImplies(Atom("a"), g),
                 ForkPair(fork_and(g, h), ForkImplies(Atom("a"), g))]
        for f in forks:
            assert deno.fork_stable_models(f, atoms) \
                == deno.fork_stable_models(unshared(f), atoms)
        assert deno.strongly_entails(g, fork_and(g, h), atoms) \
            == deno.strongly_entails(unshared(g), unshared(fork_and(g, h)), atoms)


# ---------------------------------------------------------------------------
# The pruned fork sweep against the sweep over every T
# ---------------------------------------------------------------------------

def assert_prune_is_exact(p, atoms=None):
    f, phi = forked(p), p.to_formula()
    assert deno.fork_stable_models(f, atoms) == unpruned_fork_stable_models(f, atoms), p
    for left, right in ((phi, f), (f, phi)):
        # equal verdict, witness_t and witness_support
        assert deno.strongly_entails(left, right, atoms) \
            == unpruned_strongly_entails(left, right, atoms), p


PRUNE_SEED_SETS = [
    pytest.param(GenConfig(), 300, id="default"),
    pytest.param(GenConfig(atoms=6, rules=8), 100, id="atoms6-rules8"),
    pytest.param(GenConfig(atoms=3, rules=3, max_head=3), 300,
                 id="atoms3-rules3-head3")]


@pytest.mark.parametrize("cfg, count", PRUNE_SEED_SETS)
def test_pruned_fork_sweep_matches_every_t(cfg, count):
    failing = 0
    for seed in range(count):
        p = gen_program(replace(cfg, seed=seed))
        assert_prune_is_exact(p, p.atoms())
        failing += not deno.strongly_entails(forked(p), p.to_formula())
    assert failing > count // 4


@pytest.mark.parametrize("cfg, count", PRUNE_SEED_SETS)
def test_entails_forked_matches_every_t(cfg, count):
    """cor1's entailment, on the memo's registers: the roots share a shadow
    and the left view, a leaf, never has two generators, so the sweep
    visits no T and the verdict rests on the shadow rules alone."""
    for seed in range(count):
        p = gen_program(replace(cfg, seed=seed))
        m = model_tables(p)
        assert deno.entails_forked(m.registers, m.nonempty) \
            == unpruned_strongly_entails(p.to_formula(), forked(p)), p


def formula_reading(f):
    """The fork with every fork connective read as the formula one: the
    tree whose register is the shadow of the fork's."""
    if isinstance(f, Formula):
        return f
    kind = {ForkAnd: And, ForkPair: Or, ForkImplies: Implies}[type(f)]
    return kind(formula_reading(f.left), formula_reading(f.right))


def partly_read(f, rng):
    """The fork with random subforks replaced by their formula reading,
    which leaves the formula reading of the whole as it was."""
    if isinstance(f, Formula) or rng.random() < 0.3:
        return formula_reading(f)
    left = f.left if isinstance(f, ForkImplies) else partly_read(f.left, rng)
    return type(f)(left, partly_read(f.right, rng))


def test_forks_sharing_a_shadow_match_every_t():
    """Random forks nest splits under implications and conjunctions, which
    a program's fork does not.  Compiled beside its formula reading, a fork
    and a copy with random subforks read as formulas share that reading's
    register as their shadow, so each direction between the three sweeps
    only the T where its left view may have several generators."""
    rng = random.Random(7)
    atoms = "abcd"
    for _ in range(300):
        f = gen_fork(rng, atoms, 4)
        forks = [f, partly_read(f, rng), formula_reading(f)]
        pool, ops, roots = deno._compile_over(forks, atoms)
        n = len(pool)
        nonempty = deno._nonempty_tables(ops, [*ht._columns(n), 0], ht._universe(n))
        shadow, _ = deno._shadow_tables(ops, nonempty, n)
        # the formula reading's root is a leaf, whose shadow is its operand
        assert {shadow[r] for r in roots} == {ops[roots[2] - n - 1][1]}, f
        for i, j in permutations(range(3), 2):
            assert deno._entailment_sweep(pool, ops, [roots[i], roots[j]]) \
                == unpruned_strongly_entails(forks[i], forks[j], atoms), (forks[i], forks[j])


@pytest.mark.parametrize("cfg", [GenConfig(), GenConfig(atoms=3, rules=3, max_head=3)],
                         ids=["default", "atoms3-rules3-head3"])
def test_pruned_fork_sweep_matches_every_t_on_context_families(cfg):
    for p in seeded(cfg, 25):
        al = p.atoms()
        f = forked(p)
        for g in [f] + [fork_and(f, c.to_formula()) for c in context_family(al)]:
            assert deno.fork_stable_models(g, al) == unpruned_fork_stable_models(g, al), p


@pytest.mark.parametrize("n", range(3, 13))
def test_pruned_fork_sweep_matches_every_t_on_cyclic_family(n):
    assert_prune_is_exact(cyclic(n))


def fork_model_table(f, atoms=None):
    """The fork stable models of the fork as a table over the pool masks,
    from the sweep over every T."""
    pool = deno._compile_over([f], atoms)[0]
    return sum(1 << sum(1 << pool.index(a) for a in t)
               for t in unpruned_fork_stable_models(f, atoms))


def excluding_table(f, atoms=None):
    """As a table over the pool masks, the T where the fork's view has, for
    every atom d of T, a generator without T minus d and, for every two
    atoms d, e of T, one without either, read off the views at every T:
    what the per-atom passes and the pair stage ask."""
    pool = deno._compile_over([f], atoms)[0]
    (root,), runs = every_t([f], atoms)
    table = 0
    for t, regs in runs:
        width = len(t)
        # the here-masks of T minus each atom of T
        minus = [(1 << width) - 1 ^ 1 << i for i in range(width)]
        groups = [[m] for m in minus] + [list(two) for two in combinations(minus, 2)]
        view = regs[root]
        if view and all(any(all(not g >> m & 1 for m in group) for g in view)
                        for group in groups):
            table |= 1 << sum(1 << pool.index(a) for a in t)
    return table


def pair_stage_table(f, atoms=None):
    """The table the pair stage leaves open after the per-atom passes, run
    whatever the count of open T."""
    pool, ops, (root,) = deno._compile_over([f], atoms)
    n = len(pool)
    return deno._open_by_pair(ops, root, deno._open_by_atom(ops, root, n), n)


def assert_pair_stage_is_exact(f, atoms=None):
    """Each rule is exact for its own question, so the stage leaves open
    exactly the T of :func:`excluding_table`, every model among them."""
    table = pair_stage_table(f, atoms)
    assert table == excluding_table(f, atoms), f
    assert not fork_model_table(f, atoms) & ~table, f


@pytest.mark.parametrize("cfg, count", PRUNE_SEED_SETS)
def test_pair_stage_below_its_cost_rule_keeps_every_model(cfg, count):
    for seed in range(count):
        p = gen_program(replace(cfg, seed=seed))
        assert_pair_stage_is_exact(forked(p), p.atoms())


def test_pair_stage_is_exact_on_random_forks():
    """Random forks nest splits under implications and conjunctions, which
    a program's fork does not.  An implication beside another fork in a
    split is where its rule shows: its supports can exclude T minus d and
    not T minus e while the other fork's exclude only T minus e."""
    rng = random.Random(5)
    for _ in range(200):
        assert_pair_stage_is_exact(gen_fork(rng, "abcd", 4), "abcd")
        assert_pair_stage_is_exact(ForkPair(
            ForkImplies(gen_formula(rng, "abc", 3), gen_fork(rng, "abc", 3)),
            gen_fork(rng, "abc", 3)), "abc")
    for f in [gen_fork(rng, "abcde", 5) for _ in range(40)]:
        assert_pair_stage_is_exact(f, "abcde")


@pytest.mark.parametrize("cfg", [GenConfig(), GenConfig(atoms=3, rules=3, max_head=3)],
                         ids=["default", "atoms3-rules3-head3"])
def test_pair_stage_keeps_every_model_on_context_families(cfg):
    for p in seeded(cfg, 25):
        f = forked(p)
        for g in [f] + [fork_and(f, c.to_formula()) for c in context_family(p.atoms())]:
            assert_pair_stage_is_exact(g, p.atoms())


@pytest.mark.parametrize("n", range(3, 15))
def test_pair_stage_leaves_exactly_the_models_on_cyclic_family(n, monkeypatch):
    f = forked(cyclic(n))
    models = fork_model_table(f)
    assert pair_stage_table(f) == models
    # one group of slots per first atom, as the widest pools take them
    monkeypatch.setattr(deno, "_PAIR_BITS", 1)
    assert pair_stage_table(f) == models


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
    # at n = 6 too few T stay open for the pair stage to run; from n = 7
    # it leaves open exactly the models
    assert counts == [20, 14, 22, 30, 47, 66, 99]
    # random forks reach a fork conjunction with one empty side; over 4
    # atoms the pair stage never runs
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
    # over 6 atoms it runs where more than 23 T stay open
    visits = 0
    for seed in range(100):
        p = gen_program(GenConfig(atoms=6, rules=8, seed=seed))
        deno.fork_stable_models(forked(p), p.atoms())
    assert visits == 758


def test_entailment_sweep_visits_pinned_counts(monkeypatch):
    """The T that the shadows leave the entailment sweep: a program's
    formula reading into its fork none, the fork into the formula only
    those where a split may give the fork's view two generators, and forks
    whose shadows differ every T where the left view is nonempty."""
    split, wider = parse_fork("a ; b"), parse_fork("a ; b ; c")
    nonempty = sum(not deno.denotation(split, t).is_empty for t in ht.subsets("abc"))
    visits = 0
    run = deno._run

    def counted(*args):
        nonlocal visits
        visits += 1
        return run(*args)

    def visited(call, items) -> int:
        nonlocal visits
        visits = 0
        for item in items:
            call(item)
        return visits

    monkeypatch.setattr(deno, "_run", counted)
    default = [gen_program(GenConfig(seed=seed)) for seed in range(300)]
    wide = [gen_program(GenConfig(atoms=6, rules=8, seed=seed)) for seed in range(100)]
    assert [visited(lambda p: deno.entails_forked(model_tables(p).registers), ps)
            for ps in (default, wide)] == [0, 0]

    def into_formula(p):
        deno.strongly_entails(forked(p), p.to_formula(), p.atoms())

    assert [visited(into_formula, ps) for ps in (default, wide)] == [326, 132]
    assert deno.strongly_entails(split, wider, "abc")
    assert visited(lambda f: deno.strongly_entails(f, wider, "abc"), [split]) \
        == nonempty == 6


def test_fork_engine_reads_no_program_table(monkeypatch):
    """The fork sweep prunes on its own registers, and the program entries
    take registers compiled from the rules themselves, so the engine stays
    an oracle independent of the truth tables of ht.CompiledProgram, and
    reads nothing of the memo of dlplab.compare."""
    def refuse(*args, **kwargs):
        raise AssertionError("the fork engine read a program table or the memo")

    p = parse_program("a | b :- not c. c :- not a. b :- c, not not b.")
    models = deno.fork_stable_models(forked(p))
    stable = ht.stable_models(p)
    for owner, name in [(ht, "CompiledProgram"), (compare, "model_tables"),
                        (compare, "ModelTables")]:
        monkeypatch.setattr(owner, name, refuse)
    assert deno.fork_stable_models(forked(p)) == models
    assert not deno.strongly_entails(forked(p), p.to_formula())
    assert deno.strongly_entails(p.to_formula(), forked(p))
    regs = deno.program_registers(p, p.atoms())
    nonempty = deno.pool_nonempty(regs[1], len(regs[0]))
    assert decoded(deno.forked_stable_masks(regs, nonempty), "abc") == models
    assert decoded(deno.equilibrium_masks(regs), "abc") == stable
    assert deno.entails_forked(regs, nonempty)
    contexts = [Program(()), parse_program("a."), parse_program(":- b. c :- a.")]
    registers = deno.ContextRegisters(contexts, p.atoms())
    found = deno.forked_masks_in_contexts(p, registers)
    assert [decoded(masks, "abc") for masks in per_context(found, len(contexts) + 1)] \
        == [models] + [deno.fork_stable_models(fork_and(forked(p), c.to_formula()))
                       for c in contexts]
