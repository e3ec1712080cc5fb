"""Exact commutator certificates in GL(n, D) over rational quaternion
division algebras: budgeted triangular normal forms, a witness-emitting
word calculus, and verified factorization pipelines in both directions."""

from .budget import HFactor, HFactorList, kappa_p, lambda_vec, mu_vec, s_of
from .certify import (
    BasedInstance,
    balanced_partition,
    dstar_length_bound,
    embed_instance,
    factor_commutators_e,
    factor_commutators_gl,
    lower_extract,
    make_instance,
    prescribed_gauss,
    prescribed_gauss_base,
    scalar_cert_from_hfactors,
    single_commutator,
    single_commutator_necessary_bound,
    stable_single_commutator,
    width_ratio_lower_bound,
    width_upper_bounds,
)
from .errors import (
    AlgebraMismatchError,
    CommcertError,
    InternalInvariantError,
    NotDivisionAlgebraError,
    PreconditionError,
    SingularMatrixError,
    SingularTwistedSystemError,
    VerificationError,
    ZeroInputError,
)
from .matrix import (
    DetClass,
    MatD,
    dieudonne_det,
    h_elem,
    is_central_in_E,
    is_elementary,
    mat_inv,
    transvection,
    verify_relation,
)
from .normalform import (
    UVUForm,
    absorb_V,
    absorb_lower_transvection,
    absorb_upper,
    commutator_normal_form,
    decompose_huvu,
    extract_H,
    factor_lower_unitriangular,
)
from .quaternion import (
    Quat,
    QuaternionAlgebra,
    random_quat,
    solve_twisted,
)
from .wordcalc import (
    CommutatorCert,
    Letter,
    cert_inverse_product,
    move_letter_end,
    move_letter_front,
    transfer_cert,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
