"""starxor: a workbench for star-of-symmetric-difference state complexity."""

from .automata import (
    Dfa,
    NerodePartition,
    accessible_part,
    export_dot,
    export_json,
    import_json,
    is_equivalent,
    minimize,
    nerode_partition,
    preimage_by_renaming,
)
from .modifiers import (
    DEFAULT_STATE_CAP,
    SubsetDfa,
    star_modifier,
    stx,
    xor_modifier,
)
from .monsters import (
    DEFAULT_LETTER_CAP,
    MonsterSpec,
    PairLetter,
    monster,
    monster1,
    monster2,
)
from .reports import ExperimentReport
from .tableaux import (
    FinalZone,
    count_constrained,
    count_rtf,
    count_rtf_pinned,
    final_zone,
    predicted_complexity,
)
from .transforms import (
    LimitExceeded,
    Transformation,
    cycle,
    enumerate_all,
    identity,
    point_map,
)
from .witness import sigma_prime, verify_witness, witness_pair

__version__ = "0.1.0"

__all__ = [
    "Dfa",
    "NerodePartition",
    "SubsetDfa",
    "Transformation",
    "MonsterSpec",
    "PairLetter",
    "FinalZone",
    "ExperimentReport",
    "LimitExceeded",
    "DEFAULT_STATE_CAP",
    "DEFAULT_LETTER_CAP",
    "accessible_part",
    "count_constrained",
    "count_rtf",
    "count_rtf_pinned",
    "cycle",
    "enumerate_all",
    "export_dot",
    "export_json",
    "final_zone",
    "identity",
    "import_json",
    "is_equivalent",
    "minimize",
    "monster",
    "monster1",
    "monster2",
    "nerode_partition",
    "point_map",
    "predicted_complexity",
    "preimage_by_renaming",
    "sigma_prime",
    "star_modifier",
    "stx",
    "verify_witness",
    "witness_pair",
    "xor_modifier",
]
