"""Reflection-order matchings and discrete-Morse certificates on finite Coxeter groups."""

from .coxeter import (
    CoxeterMatrix,
    CoxeterSystem,
    ParabolicSubset,
    build_system,
)
from .matchings import (
    LabeledInterval,
    Matching,
    MorseSummary,
    build_matching,
    is_acyclic,
    labeled_interval,
    morse_counts,
)
from .reflection_orders import (
    ReflectionOrder,
    opposite,
    order_for_fiber,
    order_for_springer,
    order_from_reduced_word,
    shortlex_order,
)

__version__ = "0.1.0"

__all__ = [
    "CoxeterMatrix",
    "CoxeterSystem",
    "LabeledInterval",
    "Matching",
    "MorseSummary",
    "ParabolicSubset",
    "ReflectionOrder",
    "build_matching",
    "build_system",
    "is_acyclic",
    "labeled_interval",
    "morse_counts",
    "opposite",
    "order_for_fiber",
    "order_for_springer",
    "order_from_reduced_word",
    "shortlex_order",
]
