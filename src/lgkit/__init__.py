"""Learning-graph toolkit: gadgets, compositions, witnesses, cost models."""

from .model import (
    BooleanFunction,
    Edge,
    GraphBuilder,
    LearningGraph,
    StageInfo,
    SuperEdge,
    Vertex,
)
from .complexity import ComplexityReport, complexity
from .expand import expand
from .validate import ValidationReport, validate

__all__ = [
    "BooleanFunction",
    "ComplexityReport",
    "Edge",
    "GraphBuilder",
    "LearningGraph",
    "StageInfo",
    "SuperEdge",
    "ValidationReport",
    "Vertex",
    "complexity",
    "expand",
    "validate",
]
