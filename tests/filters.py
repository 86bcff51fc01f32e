"""Evaluate a bare condition tree as a plan evaluates its filter.

The engine compiles a filter once per plan, for the names every match of
that plan binds, the kind of element each names and where the match
holds it; a test that has one match and a tree compiles it for that
match's names.  The match is a ``(vertex_seq, edge_seq, names)`` triple
whose ``names`` hold every name it binds, as
:func:`~graphpdp.path_matcher.match_names` gives them: a name bound to
one of its edges reads as an edge and any other as a vertex, each from
``names``.
"""

from graphpdp import uris
from graphpdp.path_matcher import eval_filter
from graphpdp.pattern_compiler import compile_filter


def eval_tree(match, expr, graph) -> bool:
    _, edge_seq, names = match
    edges = set(edge_seq)
    bound = {
        name: uris.CAT_PATH_EDGE if element in edges else uris.CAT_PATH_VERTEX
        for name, element in names.items()
    }
    locations = {name: (2, name) for name in names}
    return eval_filter(match, compile_filter(expr, bound, locations)[0], graph)
