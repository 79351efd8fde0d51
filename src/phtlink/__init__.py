"""phtlink: privacy-preserving linkage and analysis of vertically
partitioned data across train/station endpoints.

Data-provider stations canonicalize and pseudonymize quasi-identifiers under
a secret salt each derives from its own and its peer's keys, seal their
extracts in sign-then-encrypt envelopes, and ship them to an isolated
analysis station that links (exactly or with Fellegi-Sunter scoring), runs
the authorized analysis, applies disclosure control, returns only the
validated tables, and deletes everything it held.
"""

from .analysis import (
    AnalysisSpec,
    DisclosurePolicy,
    RawResult,
    ResultTable,
    ValidatedResult,
    run_analysis,
    validate,
)
from .envelope import (
    KeyPair,
    PublicEncryptionKey,
    SealedPackage,
    SigningKeys,
    generate_encryption_keypair,
    generate_signing_keys,
    open_package,
    seal,
)
from .linkage import LinkageParams, LinkResult, ScoredPair, estimate_u, link, merge, score_pair
from .manifest import (
    DataRequest,
    PoolFilter,
    TrainManifest,
    Validation,
    sign_manifest,
    validate_train,
)
from .model import (
    Dataset,
    DatasetDescriptor,
    QuasiIdentifierSet,
    Record,
    age_on,
    canonicalize,
    read_dataset_csv,
    write_dataset_csv,
)
from .network import RunOutcome, RunSetup, run_network
from .pseudonym import PseudonymVector, Salt, generate_salt, pseudonymize
from .stations import (
    DataStationActor,
    DataStationConfig,
    ResearcherActor,
    TseActor,
    TseConfig,
    TseStorage,
)
from .synth import (
    GroundTruth,
    SyntheticPopulationSpec,
    generate_population,
    generate_vertical_demo,
)

__version__ = "0.1.0"
