"""dehnsurg: exact invariants of Dehn surgeries and a cosmetic-surgery
obstruction.

Dedekind sums and lens-space invariants, Alexander polynomials and exact
Tristram-Levine signatures from Seifert matrices, Casson-Walker and total
Casson-Gordon invariants of surgered manifolds, a homology-level model of
the hat-flavor rational surgery mapping cone with a rank oracle that
checks the closed-form rank formula, and a decision procedure reporting
which invariant distinguishes two surgeries on a knot.
"""

from ._value import replace
from .dedekind import (
    LensSpace,
    Rational,
    dedekind_sum,
    lens_lambda,
    lens_op_homeomorphic,
    lens_tau_cg,
    sawtooth,
)
from .hfcone import (
    ConeMatrix,
    KnotFloerData,
    build_cone,
    cone_rank_oracle,
    delta_dimension,
    lspace_model,
    mirror_of,
    nu_of,
    rank_formula,
)
from .knots import (
    LSpaceForm,
    NotLSpaceFormError,
    SeifertMatrix,
    SingularValueError,
    SymLaurentPoly,
    alexander_from_seifert,
    delta2_at_one,
    delta2_from_form,
    parse_lspace_form,
    sigma_total,
    tl_signature,
)
from .obstruction import (
    BY_CASSON_GORDON,
    BY_CASSON_WALKER,
    BY_HF_RANK,
    DIFFERENT_HOMOLOGY,
    INCONCLUSIVE,
    UNKNOT_COSMETIC,
    KnotRecord,
    SweepReport,
    Verdict,
    bundled_corpus_path,
    distinguish,
    full_invariants,
    load_knots,
    mirror_record,
    sweep,
)
from .surgery import (
    AmbientData,
    LongitudeData,
    PeripheralClass,
    Slope,
    casson_gordon_surgered,
    casson_walker_surgered,
    walker_correction,
    walker_general,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientData",
    "BY_CASSON_GORDON",
    "BY_CASSON_WALKER",
    "BY_HF_RANK",
    "ConeMatrix",
    "DIFFERENT_HOMOLOGY",
    "INCONCLUSIVE",
    "KnotFloerData",
    "KnotRecord",
    "LSpaceForm",
    "LensSpace",
    "LongitudeData",
    "NotLSpaceFormError",
    "PeripheralClass",
    "Rational",
    "SeifertMatrix",
    "SingularValueError",
    "Slope",
    "SweepReport",
    "SymLaurentPoly",
    "UNKNOT_COSMETIC",
    "Verdict",
    "alexander_from_seifert",
    "build_cone",
    "bundled_corpus_path",
    "casson_gordon_surgered",
    "casson_walker_surgered",
    "cone_rank_oracle",
    "dedekind_sum",
    "delta2_at_one",
    "delta2_from_form",
    "delta_dimension",
    "distinguish",
    "full_invariants",
    "lens_lambda",
    "lens_op_homeomorphic",
    "lens_tau_cg",
    "load_knots",
    "lspace_model",
    "mirror_of",
    "mirror_record",
    "nu_of",
    "parse_lspace_form",
    "rank_formula",
    "replace",
    "sawtooth",
    "sigma_total",
    "sweep",
    "tl_signature",
    "walker_correction",
    "walker_general",
]
