"""Numerical policy: every tolerance and size cap, in one numpy-free
module.  The modules that apply a value import it from here, under the
same name; user tolerances are checked by ``errors.check_tol``."""

# algebra: rank cuts read singular values relative to the largest, times
# sqrt(dimension); commutation and membership residuals are relative
SVD_RANK_REL = 1e-9
COMM_REL_TOL = 1e-9
CLUSTER_REL = 1e-7
RESIDUAL_TOL = 1e-8
# residuals of what a generic element yields (its spectral projectors,
# its support) carry the eigensolver's roundoff on top
GENERIC_RESIDUAL_TOL = RESIDUAL_TOL * 10
# UnitaryIso accepts ||V^dag V - 1||_F / sqrt(dim) up to this
ISO_UNITARITY_TOL = 1e-7
# a connecting partial isometry needs rank m: sv[m-1] above this * sv[0]
ISOMETRY_RANK_REL = 1e-8

# causal: the default relative influence cut and the Choi route's
# trace-norm tolerance
INFLUENCE_REL_TOL = 1e-9
CHOI_TRACE_TOL = 1e-8
# UnitaryChannel accepts ||U^dag U - 1||_F / sqrt(dim) up to this
CHANNEL_UNITARITY_TOL = 1e-8
GATE_UNITARITY_TOL = 1e-9
# recomposition residual counts as zero below tol * sqrt(dim)
RECOMPOSE_TOL = 1e-8
# wire algebras must sit inside the images they were cut from
INCLUSION_TOL = 1e-6

# Hard cap on ambient dimensions for dense linear algebra.
DIM_CAP = 256
# Intermediate contraction frames may exceed the channel cap when gates
# are rectangular; this bounds the transient blow-up.
FRAME_DIM_CAP = 4096
# commutant_of solves over all D^2 matrix units, an SVD of a
# (2n D^2) x D^2 commutator map for n test matrices; no pipeline step
# calls it, and commutant stays within this cap.
COMMUTANT_DIM_CAP = 32
# Most concepts a lattice may have.  A relation with at most 12 labels on
# a side has at most 2^12 concepts, so all of those fit.
MAX_CONCEPTS = 4096
