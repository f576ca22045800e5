"""Every threshold that decides a verdict, a check or an input rejection.

One name per decision; no function takes a tolerance as a parameter.  Report
headers echo the first six (`harness.TOLERANCES`).  A relative threshold
scales by max(1, size) of the quantity its comment names.  Numerical guards
(division floors, renormalisation bounds, redraw and step floors) decide
nothing and stay beside the code they protect.
"""

# Echoed in every report header.
TAU_SYM = 1e-12             # asymmetry of input matrices, relative to max entry
TAU_GAP = 1e-9              # gap, relative to |lambda|, that makes an extremal eigenvalue simple
TAU_MEMBERSHIP = 1e-10      # cone margin, relative to ||u||: interior, boundary or outside
TAU_STRICT = 1e-10          # margin of every strict "> 0" improvement or ergodicity decision
RECON_TOL = 1e-10           # eigh: ||Q L Q^T - A||_F relative to ||A||_F, and ||Q^T Q - I||_F
CORRESPONDENCE_TOL = 1e-9   # real/complex correspondence clauses, relative to ||T||

# Operators and positivity verifiers.
PSD_TOL = 1e-9              # PSD means least eigenvalue >= -PSD_TOL, relative to ||A||
AXIS_TOL = 1e-9             # unit norm and relative eigen-residual of a top-eigenvector axis
UNIT_AXIS_TOL = 1e-12       # | ||axis|| - 1 | admitted when an axis cone is built
ORTHANT_NONNEG_TOL = 1e-12  # least matrix entry above -this certifies orthant preservation

# Sampled cone-axiom checks (cones.cone_check).
PAIR_TOL = 1e-12            # cos(u, v) of two in-cone rows must stay >= -PAIR_TOL
MOREAU_TOL = 1e-9           # relative residual and orthogonality defect of a Moreau split
PARTNER_TOL = 1e-10         # |<u, partner>| / ||u||^2 of a boundary partner

# Perturbation budgets and drift.
DRIFT_CERT_TOL = 1e-12      # drift certificates: certified above +this, violated below -this
DRIFT_BOUND_SLACK = 1e-8    # admitted excess of the drifted axis's drift over its proven bound
GAP_COLLAPSE_TOL = 1e-12    # uniform gap, relative to ||T||, at or below which it has collapsed
RADIUS_RECOMPUTE_TOL = 1e-14  # a budget's r equals radius_from_alpha(alpha) to this

# Magnetic Schrodinger pipeline and config bounds.
DEMO_WITNESS_TOL = 1e-10          # imaginary part or negative entry: the flow left the orthant
SCALE_LIMIT = 1e75                # config bound on h, 1/h, |demo_e|, demo_s, perturb a, b, t
                                  # and s entries and grid entries: squares stay finite
SIZE_LIMIT = 4096                 # config bound on 2N+1, dims entries, n_pairs and a grid's
                                  # num: dense operators and sample blocks stay in memory
SAMPLES_LIMIT = 100_000           # config bound on cone_axioms samples per check: a run over
                                  # the default dims takes seconds
INSTANCES_LIMIT = 1000            # config bound on pf_verify instances_per_flavor: a run over
                                  # the default dims and flavors takes seconds

# Acceptance criteria (selftest).
CLOSED_FORM_TOL = 1e-12     # criterion 1: alpha, r and 1/(4c) against their closed forms
DERIVATION_TOL = 1e-9       # criterion 2: budget scalars against the hand derivation
