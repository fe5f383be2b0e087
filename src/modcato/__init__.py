"""Exact character and multiplicity calculus for the modular category O.

Small-rank root systems over F_p: truncated formal characters, divided-power
contravariant Gram ranks, decomposition tables, Verma-flag calculus under
truncation and tensor functors, and shift-functor periodicity verification.
"""

__version__ = "0.1.0"

from .category_o import (  # noqa: F401
    DecompositionTable,
    FlagVector,
    build_decomposition_table,
    decomposition_numbers,
    full_simple_character,
    projective_verma_mult,
    q_module_mult,
    simple_character,
    steinberg_check,
    steinberg_digits,
    tensor_flag,
    truncate_flag,
    validate_table_consistency,
)
from .charring import (  # noqa: F401
    FormalCharacter,
    TruncationBox,
    peel_decompose,
    verma_character,
    weyl_character,
    weyl_dimension,
)
from .hypalg import (  # noqa: F401
    GramMatrix,
    SizeGuard,
    shapovalov_gram,
    simple_weight_dims,
)
from .periodicity import (  # noqa: F401
    ShiftContext,
    shift_down_flag,
    shift_up_flag,
    verify_periodicity,
    verify_projective_shift,
    verify_updown,
)
from .reporting import CheckRecord, Report  # noqa: F401
from .rootdata import (  # noqa: F401
    RootSystem,
    Weight,
    build_root_system,
    is_dominant,
    kostant_partition,
    leq,
    pairing,
)
from .topology import (  # noqa: F401
    CarvedOpen,
    LocallyClosedSet,
    OpenSet,
    carve_J_Jprime,
    is_locally_closed,
    min_l,
    periodicity_condition,
    shift_set,
)
