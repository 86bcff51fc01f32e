"""Evaluate a bare condition tree as a plan evaluates its filter.

The engine compiles a filter once per plan, for the names every match of
that plan binds; a test that has one binding and a tree compiles it for
that binding's names.
"""

from graphpdp.path_matcher import eval_filter
from graphpdp.pattern_compiler import compile_filter


def eval_tree(binding, expr, graph) -> bool:
    return eval_filter(binding, compile_filter(expr, binding.names)[0], graph)
