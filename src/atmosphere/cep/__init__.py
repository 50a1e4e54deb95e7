from .engine import Emission, Engine
from .infer import check_predicate_types, infer_output_schema, register_output_schema
from .oracle import oracle_replay

__all__ = [
    "Engine",
    "Emission",
    "oracle_replay",
    "infer_output_schema",
    "check_predicate_types",
    "register_output_schema",
]
