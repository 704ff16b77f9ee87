"""Block quivers of the fixed-central-character category and their projectives.

The arrows follow the reflection rule of ``sl2rep.hc_tensor`` at the outer
indices j = n - 4 and n + 4 of L(4) (x) V(n), as ``arrows_from`` states.
The simples fall into three blocks:

1. V(n) for odd n, arranged on a line ... V(11) - V(7) - V(3) - V(1) - V(5)
   - V(9) ...; arrows both ways between neighbours, all 2-cycles zero.
2. V(n) for n = 2 (mod 4), a half-line with a loop at V(2); all 2-cycles
   zero and the loop squares to zero.
3. V'(0), V'(2) and V(n) for n = 0 (mod 4): a diamond V'(0), V'(2) <-> V(4)
   glued to the half-line V(4) - V(8) - V(12) ...; all 2-cycles are zero
   except the two through V'(0) and V'(2) based at V(4), which are set equal;
   the two length-2 routes between V'(0) and V'(2) are zero.

Projectives are handled purely through their radical filtrations: layer l of
the projective with a given top is the multiset of endpoints of length-l
paths from the top surviving the relations, with the two nonzero 2-cycles at
V(4) identified.  Every relation has length 2, so whether a path extends
depends only on its last two vertices, and each layer is counted from the
number of surviving paths ending in each pair of vertices.
"""

from __future__ import annotations

from collections import Counter
from typing import Counter as CounterT, List, Optional, Tuple

from .sl2rep import SimpleHC, V, Vp, hc_tensor


def arrows_from(s: SimpleHC) -> List[SimpleHC]:
    """Targets of the arrows out of s, each of multiplicity 1: V(n) points
    to V(|n - 4|) and V(n + 4), except that the j = 0 arrow of V(4) goes to
    both V'(0) and V'(2); each primed simple points to V(4) alone."""
    if s.primed:
        return [V(4)]
    n = s.index
    if n == 4:
        return [Vp(0), Vp(2), V(8)]
    return [V(abs(n - 4)), V(n + 4)]


# ---------------------------------------------------------------------------
# Path survival modulo the relations
# ---------------------------------------------------------------------------

_V4 = V(4)


def _triple_survives(u: SimpleHC, v: SimpleHC, w: SimpleHC) -> bool:
    # 2-cycles die, except at V(4): the two through V'(0) and V'(2) are equal,
    # and V'(0) stands for both
    if u == w:
        return w == _V4 and v == Vp(0)
    # the two length-2 routes between V'(0) and V'(2) are zero
    if u.primed and w.primed and v == _V4:
        return False
    return True


def radical_filtration(top: SimpleHC, depth: int) -> List[CounterT[SimpleHC]]:
    """Layers of the projective cover of ``top`` by counting surviving paths.

    ``layers[l]`` is the multiset of simples in radical layer l; layer 0 is
    the top.  ``ends`` counts the surviving paths by their last two vertices;
    a path of length 0 has no previous vertex.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    layers: List[CounterT[SimpleHC]] = [Counter({top: 1})]
    ends: CounterT[Tuple[Optional[SimpleHC], SimpleHC]] = Counter({(None, top): 1})
    for _ in range(depth):
        nxt: CounterT[Tuple[SimpleHC, SimpleHC]] = Counter()
        layer: CounterT[SimpleHC] = Counter()
        for (u, v), count in ends.items():
            for w in arrows_from(v):
                if u is None or _triple_survives(u, v, w):
                    nxt[v, w] += count
                    layer[w] += count
        ends = nxt
        layers.append(layer)
    return layers


def expected_filtration(top: SimpleHC, depth: int) -> List[CounterT[SimpleHC]]:
    """Predicted radical layers, built from the two-branch picture.

    Layer l of P(V(k)) is the right branch V(k + 4l) plus layer l of the left
    branch.  The left branch descends V(k-4), V(k-8), ... to the bottom
    b = k mod 4 (b = 4 when 4 divides k); for b = 4 it then passes the pair
    {V'(0), V'(2)}; then it climbs by 4, from V(4 - b) for odd b (the
    V(3)-V(1) bend) and from V(b) for even b (the loop at V(2), or the pair
    merging into V(4)).  P(V'(0)) and P(V'(2)) are uniserial with layers
    V(4), V(8), V(12), ...  Shares no code with ``arrows_from``, so it is an
    independent oracle against the path-counting computation.
    """
    layers: List[CounterT[SimpleHC]] = [Counter({top: 1})]
    if top.primed:
        layers += [Counter({V(4 * l): 1}) for l in range(1, depth + 1)]
        return layers

    k = top.index
    bottom = k % 4 or 4
    left = [Counter({V(j): 1}) for j in range(k - 4, bottom - 1, -4)]
    if bottom == 4:
        left.append(Counter({Vp(0): 1, Vp(2): 1}))
    climb = 4 - bottom if bottom % 2 else bottom
    while len(left) < depth:
        left.append(Counter({V(climb): 1}))
        climb += 4
    for l in range(1, depth + 1):
        layers.append(left[l - 1] + Counter({V(k + 4 * l): 1}))
    return layers


# ---------------------------------------------------------------------------
# Decomposing the reduced universal module
# ---------------------------------------------------------------------------

def decompose_Q(k: int) -> CounterT[SimpleHC]:
    """Indecomposable summands of the reduced universal module Q(k).

    Returned as a multiset of tops of projective covers.  Q(k) is
    L(k) (x) Q(0), and Q(0) is the projective cover of V'(0).  Tensoring
    with a finite-dimensional module is exact and preserves projectives, so
    the multiplicity of the projective with top W equals the multiplicity of
    W in L(k) (x) V'(0).
    """
    return hc_tensor(k, Vp(0))
