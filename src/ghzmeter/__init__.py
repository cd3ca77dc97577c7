"""Multiplicative GHZ correlation functional and tripartite entanglement indicator."""

from .correlators import (
    CorrelatorQuad,
    correlators_from_tensor,
    pauli_tensor,
    verify_identities,
)
from .functional import (
    QuditGenPair,
    acin_closed_form,
    closed_form_from_mu,
    eval_I,
    eval_Id,
    lhv_oracle,
    mermin_M3,
    scan_qudit_pairs,
    schmidt_subfamily_I,
    tau3_relation,
    w_reduced_I,
)
from .linalg import (
    OrthoFrame,
    kron,
    spin_observable,
    symplectic_form,
    weyl_operator,
)
from .optimize import (
    OptimizationResult,
    convexity_probe,
    e_ghz,
    lu_invariance_check,
    maximize_I,
    maximize_mermin,
    w_analytic_max,
)
from .states import (
    AcinParams,
    QuantumState,
    StateError,
    ghz_basis,
    haar_random_pure,
    load_state,
    make_acin,
    make_biseparable,
    make_ghz,
    make_ghz_basis_element,
    make_product,
    make_w,
    maximally_mixed,
    save_state,
)

__version__ = "0.1.0"
