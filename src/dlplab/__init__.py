"""Desk-scale laboratory for comparing semantics of disjunctive logic
programs: stable models, fork stable models, justified models, candidate
stable models and strongly supported models, plus the translations that
relate them.
"""

from .forks import (EntailmentResult, Support, View, closure, complement,
                    denotation, entails_forked, fork_stable_models, ideal,
                    is_vocab_feasible, pf_translate, preceq, project_models,
                    projected_denotation, restrict_support, strongly_entails,
                    strongly_equivalent, support_of_formula)
from .di import (HeadSelection, NonNormalProgramError, SelectionError,
                 candidate_stable_models, disambiguate_head_sets,
                 eliminate_double_negation, immediate_consequences, reduct,
                 selections, supported_models_fixpoint)
from .gen import GenConfig, InvalidConfigError, gen_fork, gen_formula, gen_program
from .ht import (CapacityError, CompiledProgram, classical_models,
                 classical_sat, ht_equivalent, ht_sat, is_stable_model,
                 sort_models, stable_models, subsets)
from .justify import (GraphVerdict, ModelMismatchError, SupportGraph,
                      ad_supported_models, check_support_graph,
                      justified_models, node_forget, support_graphs_of,
                      supported_models_graph, to_dot)
from .parser import (ParseError, SourceSpan, parse_fork, parse_formula,
                     parse_program, render, render_fork, render_program,
                     render_rule)
from .ssm import (ChainVerdict, NonMonotoneChainError, SsmChain, check_chain,
                  minimal_elements, strongly_supported_models)
from .syntax import (FALSUM, TRUTH, And, Atom, ExtendedRule, Falsum, Fork,
                     ForkAnd, ForkGrammarError, ForkImplies, ForkPair,
                     Formula, Implies, Or, Program, alphabet, conj, disj,
                     fork_and, fork_conj, fork_implies, fork_split, forked,
                     forked_rule, neg, rule, rule_to_formula)

__version__ = "0.1.0"
