"""Construction and verification of eta groups and non-abelian tensor products."""

from .abelian import (
    AbelianInvariants,
    canonical_invariants,
    delta_of_abelian,
    pi_set,
    smith_normal_form,
    z_tensor,
)
from .errors import (
    CapacityError,
    ConstructionError,
    DegreeMismatchError,
    EtacalcError,
    IllDefinedHomError,
    IncompatibleActionError,
    IncompleteTableError,
    InvalidActionError,
    InvarianceError,
    MembershipError,
    ParseError,
)
from .action import (
    ActionPair,
    ActionTable,
    check_compatibility,
    conjugation_pair,
    pair_from_json_dict,
    require_compatible,
    trivial_pair,
    validate_action,
)
from .fpgroup import (
    CosetTable,
    Presentation,
    parse_presentation,
    regular_representation,
    todd_coxeter,
)
from .groups import (
    TableGroup,
    builtin,
    builtin_names,
    cyclic,
    dihedral,
    direct_product,
    quaternion8,
    table_from_perms,
)
from .perm import (
    GroupHom,
    PermGroup,
    abelian_invariants_of,
    centralizer_index,
    derived_subgroup,
    hom_kernel,
    normal_closure,
)
from .eta import (
    DEFAULT_MAX_COSETS,
    EtaGroup,
    TensorSet,
    check_decomposition,
    construct_eta,
    restricted_tensor_set,
    trivial_action_baseline,
)
from .nu import NuGroup, check_derived_decomposition, construct_nu
from .verify import (
    CLAIM_IDS,
    ClaimReport,
    Corpus,
    CorpusPair,
    SubgroupCase,
    corpus_from_json_dict,
    default_corpus,
    run_corpus,
    summary,
)

__version__ = "0.1.0"
