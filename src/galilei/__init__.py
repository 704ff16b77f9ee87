"""Exact computations around symmetric powers of simple sl2-modules.

The package verifies, in exact integer and rational arithmetic, the
combinatorial backbone of the category of locally sl2-finite modules over the
semidirect products sl2 |x L(k): weight generating functions and invariant
Hilbert series, the degree-2/degree-3 invariants of Sym(L(4)) under the
derivation action, rank certificates on the Young lattice restricted to
parts <= 4, and the block quivers with the radical filtrations of their
projectives.

The package namespace is empty, so ``import galilei`` loads no module of it.
Import each name from the module that defines it, such as
``from galilei.genfun import f_enum``.
"""
