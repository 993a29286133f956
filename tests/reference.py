"""The brute-force oracles that test modules compare the package with,
one per definition; pytest collects nothing here.  ``Ref`` is the
per-interpretation code the truth-table enumerators replaced: a 2^n scan
with the AST path ``classical_sat``, which shares no rule masks with the
compile, the submask loop for here-and-there minimality, formula-based
body tests for AD, selections and labellings, ``reduct`` plus the submask
loop for candidate stable models, the fixpoint reading of supported
models, and breadth-first chain search (``ref_chain``).  ``ref_gens``
computes fork views on frozensets of here-masks, ``every_t`` runs the fork
engine's registers at every T with no pre-pass, and ``one_by_one`` makes
the head-splitting comparison one call per context."""

from __future__ import annotations

from itertools import product

from dlplab import di, justify, ssm
from dlplab import forks as deno
from dlplab import ht
from dlplab.ht import (CompiledProgram, classical_sat, ht_sat, sort_models,
                       subsets)
from dlplab.syntax import (FALSUM, And, Atom, ExtendedRule, ForkAnd,
                           ForkImplies, ForkPair, Implies, Or, Program,
                           fork_and, forked)


# --- programs: the per-interpretation reference ----------------------------

def ref_is_stable(cp, t):
    if not cp.sat_classical(t):
        return False
    h = (t - 1) & t
    while h != t:
        if cp.sat_ht(h, t):
            return False
        if h == 0:
            break
        h = (h - 1) & t
    return True


def ref_is_stable_model(p, model, atoms=None):
    cp = CompiledProgram(p, model | p.atoms() if atoms is None else atoms)
    return ref_is_stable(cp, cp.mask(model))


def submasks(m):
    s = m
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & m


def ref_chain(cp, tmask):
    """Breadth-first search over the reachable stages, strictly growing,
    for a shortest chain to tmask."""
    def pool(prev):
        if prev is None:
            return [k for k, (_, bp, bn, bnn) in enumerate(cp.rules)
                    if not (bp | bn | bnn)]
        return cp.fired(tmask, prev)

    def allowed(rules):
        out = 0
        for k in rules:
            out |= cp.rules[k][0]
        return out & tmask

    def hits_all(s, rules):
        return all(cp.rules[k][0] & s for k in rules)

    pool0 = pool(None)
    parent = {}
    frontier = []
    for s in sorted(submasks(allowed(pool0))):
        if hits_all(s, pool0):
            parent[s] = None
            frontier.append(s)
    while frontier:
        nxt = []
        for h in frontier:
            if h == tmask:
                masks = [h]
                while parent[masks[-1]] is not None:
                    masks.append(parent[masks[-1]])
                return ssm.SsmChain(tuple(cp.unmask(m) for m in reversed(masks)),
                                    cp.unmask(h))
            rules = pool(h)
            for extra in submasks(allowed(rules) & ~h):
                s = h | extra
                if s in parent or not hits_all(s, rules):
                    continue
                parent[s] = h
                nxt.append(s)
        frontier = sorted(nxt)
    return None


class Ref:
    """The reference semantics of one program over its own alphabet; the
    classical models and the body formulas are computed once."""

    def __init__(self, p):
        self.p = p
        self.atoms = p.atoms()
        self.cp = CompiledProgram(p, self.atoms)
        formula = p.to_formula()
        self.classical = sort_models(i for i in subsets(self.atoms)
                                     if classical_sat(i, formula))
        self.bodies = [r.body_formula() for r in p.rules]

    def fires(self, k, i):
        return classical_sat(i, self.bodies[k])

    def stable(self):
        cp = self.cp
        return sort_models(cp.unmask(t) for t in range(cp.full + 1)
                           if ref_is_stable(cp, t))

    def ad(self):
        p = self.p

        def supported(a, i):
            return any(a in r.head_set and self.fires(k, i)
                       and not (r.head_set - {a}) & i
                       for k, r in enumerate(p.rules))

        return [i for i in self.classical if all(supported(a, i) for a in i)]

    def selections(self, i, closed):
        p = self.p
        trig = [k for k in range(len(p.rules)) if self.fires(k, i)]
        if not closed:
            options = []
            for k in trig:
                hits = sorted(p.rules[k].head_set & i)
                options.append([(k, a) for a in hits] if hits else [(k, None)])
            for combo in product(*options):
                yield di.HeadSelection(tuple(combo), closed=False)
            return
        groups = {}
        for k in trig:
            groups.setdefault(p.rules[k].head_set, []).append(k)
        keys = sorted(groups, key=lambda s: tuple(sorted(s)))
        options = [sorted(key & i) or [None] for key in keys]
        for combo in product(*options):
            pairs = [(k, a) for key, a in zip(keys, combo) for k in groups[key]]
            yield di.HeadSelection(tuple(sorted(pairs)), closed=True)

    def reduct(self, sel):
        """The reduct as ``di.reduct`` builds it, without its checks."""
        rules = (self.p.rules[k] for k, _ in sel.choices)
        out = (ExtendedRule((a,) if a is not None else (), r.bpos, r.bneg,
                            r.bnegneg)
               for (_, a), r in zip(sel.choices, rules))
        return Program(tuple(dict.fromkeys(out)))

    def candidates(self, closed):
        out = []
        for i in self.classical:
            for sel in self.selections(i, closed):
                q = self.reduct(sel)
                if ref_is_stable_model(q, i, self.atoms):
                    assert di.reduct(self.p, i, sel) == q
                    out.append((i, sel))
                    break
        return out

    def fixpoint(self):
        out = []
        for i in self.classical:
            for sel in self.selections(i, closed=False):
                q = self.reduct(sel)
                if frozenset(r.head[0] for r in q.rules
                             if r.head and classical_sat(i, r.body_formula())) == i:
                    out.append(i)
                    break
        return out

    def labellings(self, q, model):
        atoms = sorted(model)
        candidates = [[r for k, r in enumerate(q.rules)
                       if a in r.head_set and self.fires(k, model)]
                      for a in atoms]
        for combo in product(*candidates):
            if len({r.label for r in combo}) == len(combo):
                yield {a: r.label for a, r in zip(atoms, combo)}

    def graph_witnesses(self, acyclic):
        """Models with a (for JM acyclic) support graph, each with the
        labels of the first such graph."""
        q = self.p.labelled()
        out = []
        for i in self.classical:
            for labels in self.labellings(q, i):
                edges = {(b, a) for a, l in labels.items()
                         for b in q.rule_by_label(l).bpos}
                if not acyclic or justify.SupportGraph.of(i, edges, labels).is_acyclic():
                    out.append((i, labels))
                    break
        return out

    def chains(self):
        out = []
        for i in self.classical:
            chain = ref_chain(self.cp, self.cp.mask(i))
            if chain is not None:
                out.append((i, chain))
        return out


def assert_chains_match(p, atoms, ref, case):
    """The greedy chain of maximal stages may differ from the first chain
    breadth-first search finds, so it must verify, be no longer, and
    contain the searched chain stage by stage."""
    found = ssm.strongly_supported_models(p, atoms)
    expected = ref.chains()
    assert [m for m, _ in found] == [m for m, _ in expected], case
    for (m, chain), (_, searched) in zip(found, expected):
        assert ssm.check_chain(chain, p), (case, m)
        assert len(chain.stages) <= len(searched.stages), (case, m)
        last = len(chain.stages) - 1
        for i, stage in enumerate(searched.stages):
            assert stage <= chain.stages[min(i, last)], (case, m, i)


# --- forks: views as frozensets of here-masks ------------------------------

def naive_den(phi, t):
    return frozenset(h for h in subsets(t) if ht_sat(h, t, phi))


def _mask(base, h):
    return sum(1 << i for i, a in enumerate(base) if a in h)


def _support_key(s):
    return len(s), sorted(s)


def ref_minimize(cands):
    kept = []
    for c in sorted(set(cands), key=_support_key):
        if c and not any(k <= c for k in kept):
            kept.append(c)
    return frozenset(kept)


def ref_gens(f, t):
    """The minimal supports of the view at T, computed clause by clause on
    frozensets of here-masks, with formula supports from naive_den."""
    t = frozenset(t)
    base = tuple(sorted(t))
    everything = frozenset(range(1 << len(base)))
    full = (1 << len(base)) - 1

    def support(phi):
        return frozenset(_mask(base, h) for h in naive_den(phi, t))

    def go(f):
        if f == FALSUM:
            return frozenset()
        if isinstance(f, Atom):
            s = support(f)
            return frozenset((s,)) if s else frozenset()
        if isinstance(f, (And, ForkAnd)):
            return ref_minimize(a & b for a in go(f.left) for b in go(f.right))
        if isinstance(f, Or):
            gl = go(f.left) or frozenset((frozenset(),))
            gr = go(f.right) or frozenset((frozenset(),))
            return ref_minimize(a | b for a in gl for b in gr)
        if isinstance(f, (Implies, ForkImplies)):
            s = support(f.left)
            if not s:
                return frozenset((everything,))
            comp = frozenset() if s == everything else everything - s | {full}
            return ref_minimize(comp | g for g in go(f.right))
        if isinstance(f, ForkPair):
            return ref_minimize(go(f.left) | go(f.right))
        raise TypeError(f)

    return go(f)


def ref_entails(f, g, pool):
    """Strong entailment as a loop over the reference views: the verdict,
    and on failure the first T and its first missing support."""
    for t in subsets(pool):
        left, right = ref_gens(f, t), ref_gens(g, t)
        for gen in sorted(left, key=_support_key):
            if not any(k <= gen for k in right):
                return False, t, gen
    return True, None, None


# --- forks: the register sweep over every T --------------------------------

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


def unpruned_fork_stable_models(f, atoms=None):
    (root,), runs = every_t([f], atoms)
    return [t for t, regs in runs if ht._full_bit(len(t)) in regs[root]]


def unpruned_strongly_entails(f, g, atoms=None):
    (rf, rg), runs = every_t([f, g], atoms)
    for t, regs in runs:
        missing = [h for h in regs[rf] if all(k & ~h for k in regs[rg])]
        if missing:
            h = min(missing, key=deno._support_order)
            return deno.EntailmentResult(
                False, t, deno.Support(tuple(sorted(t)), h))
    return deno.EntailmentResult(True)


# --- head splitting: one call per context ---------------------------------

def one_by_one(p: Program, contexts) -> tuple[list, list, list]:
    """Per context, one call each: the stable models of pf(p) joined with
    it, those projected onto p's atoms, and the fork stable models of p's
    fork conjoined with it.  The lists of projected and of fork stable
    models begin with pf's and p's fork's alone."""
    al = p.atoms()
    f, pf = forked(p), deno.pf_translate(p)
    sm = [ht.stable_models(Program(pf.rules + c.rules), pf.atoms() | al)
          for c in contexts]
    fork = [deno.fork_stable_models(fork_and(f, c.to_formula()), al) for c in contexts]
    bare = ht.stable_models(pf, pf.atoms() | al)
    return (sm, [deno.project_models(models, al) for models in [bare] + sm],
            [deno.fork_stable_models(f, al)] + fork)


def per_context(found: dict[int, int], count: int) -> list[list[int]]:
    """A sweep's map from model mask to context set as one mask list per
    bit, bit 0 (the program alone) first, each in the map's order."""
    assert all(found.values()) and max(found.values(), default=0) < 1 << count
    return [[m for m, s in found.items() if s >> k & 1] for k in range(count)]
