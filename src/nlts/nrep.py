"""Nijenhuis structures on representations and the deformed action.

A Nijenhuis representation adds to a representation (V, theta) a pair of
operators, N on the base system and Nv on V.  With

  I(x,y)       = theta(Nx,y) + theta(x,Ny) - Nv theta(x,y),
  theta_N(x,y) = theta(Nx,Ny) - Nv I(x,y),

where theta_N is the deformed action, the pair is subject to the
compatibility identity (for all x, y)

  theta(Nx,Ny) Nv = Nv ( theta_N(x,y) + I(x,y) Nv ),

whose right side expands to Nv ( theta(Nx,Ny) + theta(Nx,y) Nv
+ theta(x,Ny) Nv - Nv theta(Nx,y) - Nv theta(x,Ny) - Nv theta(x,y) Nv
+ Nv^2 theta(x,y) ).

The pair (theta_N, Nv) always satisfies the compatibility identity again,
now read over the deformed bracket [.,.,.]_N.  Whether theta_N also
satisfies the two representation identities of the deformed system
depends on the inputs.  It does for the stock examples on the
two-dimensional system.  It does not for the adjoint representation of
the solvable three-dimensional system with N = Nv the square-zero
operator e2 -> e3 (the other basis vectors go to 0): check_representation
finds 4 violations there.  Run check_representation on the result to
find out.
"""

from .linalg import as_matrix, matadd, mat_iszero, matmul, matsub
from .lts import Representation, apply_in_slot, slot_matrices
from .operators import identity_report, induced_bracket


def _deformed_parts(rep, N, Nv):
    """theta(Nx,Ny), I = theta(Nx,y) + theta(x,Ny) - Nv theta(x,y) and
    theta_N(x,y) = theta(Nx,Ny) - Nv I at every basis pair (e_i, e_j),
    as {(i, j): (theta(Nx,Ny), I, theta_N(x,y))}.

    The three actions with N in one or both base slots are contractions
    of the action's first-slot table with N.
    """
    n, m = rep.base.dim, rep.vdim
    first = rep.slot_tensors()[0]
    moved = apply_in_slot(first, N, 1)
    tNN, tNy, txN = (slot_matrices(t, n, m, 0) for t in (
        apply_in_slot(moved, N, 2), moved, apply_in_slot(first, N, 2)))
    out = {}
    for key, th in rep.theta.items():
        inner = matsub(matadd(tNy[key], txN[key]), matmul(Nv, th))
        out[key] = tNN[key], inner, matsub(tNN[key], matmul(Nv, inner))
    return out


def compatibility_sides(rep, N, Nv):
    """Both sides of the compatibility identity at every basis pair
    (e_i, e_j), as {(i, j): (theta(Nx,Ny) Nv, Nv (theta_N(x,y) + I Nv))},
    with I as in ``_deformed_parts``."""
    return {key: (matmul(tNN, Nv),
                  matmul(Nv, matadd(thetaN, matmul(inner, Nv))))
            for key, (tNN, inner, thetaN)
            in _deformed_parts(rep, N, Nv).items()}


def check_nijenhuis_rep(rep, N, Nv):
    """Verify the compatibility identity on all basis pairs of the base."""
    n, m = rep.base.dim, rep.vdim
    N, Nv = as_matrix(N, n, n, "operator"), as_matrix(Nv, m, m, "fiber operator")
    return identity_report("nijenhuis-representation", (
        (key, lhs, rhs)
        for key, (lhs, rhs) in compatibility_sides(rep, N, Nv).items()))


def deformed_theta(rep, N, Nv):
    """The deformed action theta_N as a dict over basis pairs."""
    n, m = rep.base.dim, rep.vdim
    N, Nv = as_matrix(N, n, n, "operator"), as_matrix(Nv, m, m, "fiber operator")
    return {key: parts[2]
            for key, parts in _deformed_parts(rep, N, Nv).items()}


def induce_rep(rep, N, Nv):
    """Build theta_N as an action over the deformed system.

    N does not need to be invertible.  The returned representation has
    base equal to the deformed system of (rep.base, N); its derived
    family D_N comes from theta_N in the usual way.  The compatibility
    identity for (theta_N, Nv) over the deformed system always holds,
    but the representation identities themselves may fail; callers who
    need them should run check_representation on the result.
    """
    deformed, _ = induced_bracket(rep.base, N)
    return Representation(deformed, rep.vdim, deformed_theta(rep, N, Nv))


def is_trivial_action(rep):
    """True when every theta(e_i, e_j) is the zero matrix."""
    return all(mat_iszero(M) for M in rep.theta.values())
