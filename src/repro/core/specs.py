"""The generalized matmul operators MFBC is built from.

``BELLMAN_FORD_SPEC`` is ``•⟨⊕,f⟩`` of §4.1.2 (multpath monoid + BF action);
``BRANDES_SPEC`` is ``•⟨⊗,g⟩`` of §4.2.2 (centpath monoid + Brandes action).
``BFS_LEVEL_SPEC`` is ``BELLMAN_FORD_SPEC`` under a complemented mask: on
equal weights an MFBF iteration forms only the pairs landing outside T.
``RELAX_SPEC`` is ``BELLMAN_FORD_SPEC`` under a bound mask: on weighted
graphs an MFBF iteration forms only the relaxations whose weight does not
lose to T's distance, the ones that can change T.
``SUCCESSOR_SPEC`` is ``BRANDES_SPEC`` under a tie mask: MFBr's successor
count forms only the pairs whose weight equals the mask's (T's) distance.
"""

from repro.algebra.centpath import CENTPATH, brandes_action
from repro.algebra.matmul import MatMulSpec
from repro.algebra.multpath import MULTPATH, bellman_ford_action

__all__ = [
    "BELLMAN_FORD_SPEC", "BFS_LEVEL_SPEC", "RELAX_SPEC", "BRANDES_SPEC", "SUCCESSOR_SPEC",
]

BELLMAN_FORD_SPEC = MatMulSpec(MULTPATH, bellman_ford_action, name="bellman-ford")
BFS_LEVEL_SPEC = MatMulSpec(
    MULTPATH, bellman_ford_action, name="bfs-level", mask_rule="complement"
)
RELAX_SPEC = MatMulSpec(MULTPATH, bellman_ford_action, name="relax", mask_rule="bound")
BRANDES_SPEC = MatMulSpec(CENTPATH, brandes_action, name="brandes")
SUCCESSOR_SPEC = MatMulSpec(CENTPATH, brandes_action, name="successor", mask_rule="tie")
