"""featurespace: convert tabular data and additive feature-contribution
explanations between model-ready and interpretable feature spaces, tracking
lineage and feature-property metadata along the way."""

from .errors import FeatureSpaceError, KernelError, MappingError, ValidationError
from .explain import (
    ContributionVector,
    MappedContributions,
    conservation_check,
    map_contributions,
    read_contributions,
    write_contributions,
)
from .lineage import Computed, Imputed, RawLinked
from .pipeline import (
    FittedPipeline,
    InversionRefusal,
    Pipeline,
    RunResult,
    as_fitted,
    compose,
    fit,
    invert,
    load_fitted,
    load_pipeline,
    run,
    save_fitted,
)
from .planner import (
    AuditReport,
    Persona,
    Suggestion,
    audit,
    load_persona,
    make_persona,
    required_properties,
    suggest_transforms,
)
from .properties import (
    IMPLICATIONS,
    PROPERTY_NAMES,
    PropertySet,
    implication_closure,
    validate_property_set,
)
from .schema import (
    DerivedFrom,
    FeatureSpec,
    RawSource,
    SchemaManifest,
    Wording,
    load_manifest,
    parse_manifest,
    serialize_manifest,
)
from .table import MISSING, DataTable, read_table_csv, write_table_csv
from .transforms import (
    EXACT_KINDS,
    TRANSFORM_KINDS,
    TransformStep,
    render_value,
    unrender_value,
)

__version__ = "0.1.0"

__all__ = [
    "MISSING",
    "EXACT_KINDS",
    "IMPLICATIONS",
    "PROPERTY_NAMES",
    "TRANSFORM_KINDS",
    "AuditReport",
    "Computed",
    "ContributionVector",
    "DataTable",
    "DerivedFrom",
    "FeatureSpaceError",
    "FeatureSpec",
    "FittedPipeline",
    "Imputed",
    "InversionRefusal",
    "KernelError",
    "MappedContributions",
    "MappingError",
    "Persona",
    "Pipeline",
    "PropertySet",
    "RawLinked",
    "RawSource",
    "RunResult",
    "SchemaManifest",
    "Suggestion",
    "TransformStep",
    "ValidationError",
    "Wording",
    "audit",
    "as_fitted",
    "compose",
    "conservation_check",
    "fit",
    "implication_closure",
    "invert",
    "load_fitted",
    "load_manifest",
    "load_persona",
    "load_pipeline",
    "make_persona",
    "map_contributions",
    "parse_manifest",
    "read_contributions",
    "read_table_csv",
    "render_value",
    "required_properties",
    "run",
    "save_fitted",
    "serialize_manifest",
    "suggest_transforms",
    "unrender_value",
    "validate_property_set",
    "write_contributions",
    "write_table_csv",
]
