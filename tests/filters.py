"""Evaluate a bare condition tree as a plan evaluates its filter.

The engine compiles a filter once per plan, for the names every match of
that plan binds and the kind of element each names; a test that has one
binding and a tree compiles it for that binding's names, a name bound to
one of the binding's edges as an edge and any other as a vertex.
"""

from graphpdp import uris
from graphpdp.path_matcher import eval_filter
from graphpdp.pattern_compiler import compile_filter


def eval_tree(binding, expr, graph) -> bool:
    edges = set(binding.edge_seq)
    bound = {
        name: uris.CAT_PATH_EDGE if element in edges else uris.CAT_PATH_VERTEX
        for name, element in binding.names.items()
    }
    return eval_filter(binding, compile_filter(expr, bound)[0], graph)
