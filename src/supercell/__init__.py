"""Schema-change-tolerant data integration.

Raw sources decompose into super cells (shared keys plus parallel
attribute/value vectors); a subword-embedding classifier learns each cell's
position in a user-specified target table; an assembler materializes
predictions with full aggregation semantics. A MinHash column-matching
baseline provides the comparison point.

Importing the package before numpy sets the BLAS and OpenMP pools to one
thread, unless the environment already names a count: the models' products
are small, so a second thread only adds CPU time, a one-thread process may
fork ``learner.train``'s worker, and a model's bytes depend on the thread
count, so every entry point trains the same model.
"""

import os
import sys

if "numpy" not in sys.modules:  # the pools are sized when numpy loads
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_name, "1")

from .core import (
    AggMode,
    FeatureSentence,
    KeyDomain,
    SuperCell,
    TargetPosition,
    TargetSchema,
    render_feature,
)
from .canon import CanonKind, SynonymDictionary, canonicalize
from .ingest import RawTable, SourceDescriptor, decompose, decompose_log
from .mapping import (
    KeyHierarchy,
    KeyMapEntry,
    LabeledSample,
    MappingSpec,
    consistency_check,
    generate_training_data,
    oracle_integrate,
)
from .perturb import PerturbationPlan, augment, expand_keys
from .learner import (
    ModelParams,
    TrainConfig,
    accuracy,
    gradient_check,
    predict_cells,
    train,
)
from .assemble import TargetTable, finalize_and_write
from .baseline import (
    MinHashSignature,
    baseline_integrate,
    estimate_jaccard,
    match_columns,
    match_signatures,
    select_sources,
    sign_columns,
    signature,
    storage_report,
)

__version__ = "0.1.0"

__all__ = [
    "AggMode", "CanonKind", "FeatureSentence", "KeyDomain", "KeyHierarchy",
    "KeyMapEntry", "LabeledSample", "MappingSpec", "MinHashSignature",
    "ModelParams", "PerturbationPlan", "RawTable", "SourceDescriptor",
    "SuperCell", "SynonymDictionary", "TargetPosition", "TargetSchema",
    "TargetTable", "TrainConfig", "accuracy", "augment", "baseline_integrate",
    "canonicalize", "consistency_check", "decompose", "decompose_log",
    "estimate_jaccard", "expand_keys", "finalize_and_write",
    "generate_training_data", "gradient_check", "match_columns",
    "match_signatures", "oracle_integrate", "predict_cells", "render_feature",
    "select_sources", "sign_columns", "signature", "storage_report", "train",
]
