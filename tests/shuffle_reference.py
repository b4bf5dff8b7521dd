"""The reference decomposition of a shuffle into edge moves, in Fractions.

The differential corpora of ``test_transport_units`` and
``test_raystar_units`` both replay shuffles through this one copy of the
package's decomposition order, so a change of that order edits a single
reference.
"""

from endflow.transport import route


def _ref_rearrangement_moves(tree, anchor, cur, new):
    """The edge moves taking the checked support masses ``cur`` to ``new``
    through the support's top node ``anchor``: surpluses are routed to
    the anchor in preorder, then deficits are served from it in reverse
    preorder."""
    order = sorted(set(cur) - {anchor}, key=tree.preorder_index.__getitem__)
    moves = []
    for v in order:
        if cur[v] > new[v]:
            moves += route(tree, v, anchor, cur[v] - new[v])
    for v in reversed(order):
        if new[v] > cur[v]:
            moves += route(tree, anchor, v, new[v] - cur[v])
    return moves
