"""Word and permutation statistics with exhaustively verified MAJ/STAT involutions."""

from .errors import (
    BoundTooLargeError,
    EmptyInputError,
    InternalInvariantError,
    InvalidTripleError,
    NotCompatibleError,
    NotStandardError,
    ParseError,
    ShapeMismatchError,
    SizeMismatchError,
    UnknownNameError,
)
from .involution import (
    ShuffleTriple,
    burstein_p,
    decompose,
    phi,
    phi_on_class,
    recompose,
    transform_shuffle,
)
from .patterns import (
    NAMED_SUMS,
    PatternSum,
    VincularPattern,
    count_occurrences,
    eval_sum,
    named_sum,
    parse_pattern,
)
from .tableaux import Tableau, foata_j, inverse_rsk, rsk
from .verify import (
    CHECK_IDS,
    CheckBounds,
    CheckReport,
    Counterexample,
    check,
    compatible_set,
    joint_distribution,
    multinomial,
    rearrangement_class,
    run_all,
    symmetric_group,
    word_cube,
)
from .words import (
    Word,
    adj,
    block_boundaries,
    code,
    complement,
    decode,
    descent_set,
    format_index_set,
    format_word,
    inverse_descent_set,
    is_permutation,
    parse_word,
    reverse,
    reverse_complement,
    shuffle_set,
    sorted_word,
    stat,
    statistic,
    symmetries,
)

__version__ = "0.1.0"
