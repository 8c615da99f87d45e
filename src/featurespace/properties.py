"""Feature-property taxonomy: ten flags per feature plus implication rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ValidationError

PROPERTY_NAMES: tuple[str, ...] = (
    "predictive",
    "model_compatible",
    "model_ready",
    "readable",
    "human_worded",
    "understandable",
    "meaningful",
    "abstract_concept",
    "trackable",
    "simulatable",
)

Edge = tuple[str, str]


def _checked_edges(extra: Iterable[Edge]) -> tuple[Edge, ...]:
    edges = tuple((str(t), str(h)) for t, h in extra)
    for tail, head in edges:
        if tail not in PROPERTY_NAMES or head not in PROPERTY_NAMES:
            raise ValidationError(f"implication references unknown property: {tail}=>{head}")
    return edges


# Implication edges (tail, head): a feature carrying the tail property must
# also carry the head property. Their names are checked once, here.
IMPLICATIONS: tuple[Edge, ...] = _checked_edges((
    ("human_worded", "readable"),
    ("simulatable", "trackable"),
    ("model_ready", "model_compatible"),
))


@dataclass(frozen=True)
class PropertySet:
    """Declared interpretability flags for a single feature.

    Flags are metadata asserted by whoever authored the schema; in particular
    ``predictive`` and ``meaningful`` are user assertions, never measured here.
    """

    predictive: bool = False
    model_compatible: bool = False
    model_ready: bool = False
    readable: bool = False
    human_worded: bool = False
    understandable: bool = False
    meaningful: bool = False
    abstract_concept: bool = False
    trackable: bool = False
    simulatable: bool = False

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "PropertySet":
        names = list(names)
        unknown = sorted(set(names) - set(PROPERTY_NAMES), key=str)
        if unknown:
            raise ValidationError(f"unknown property flags: {unknown}")
        return cls(**{name: True for name in names})

    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in PROPERTY_NAMES}

    def true_names(self) -> tuple[str, ...]:
        return tuple(name for name in PROPERTY_NAMES if getattr(self, name))

    def has(self, name: str) -> bool:
        if name not in PROPERTY_NAMES:
            raise ValidationError(f"unknown property flag: {name!r}")
        return getattr(self, name)

    def intersect(self, other: "PropertySet") -> "PropertySet":
        """The flags both sets hold."""
        return PropertySet(**{
            name: getattr(self, name) and getattr(other, name) for name in PROPERTY_NAMES
        })


def format_edge(edge: Edge) -> str:
    return f"{edge[0]}=>{edge[1]}"


def validate_property_set(p: PropertySet,
                          extra_implications: Iterable[Edge] = ()) -> tuple[Edge, ...]:
    """Return the violated implication edges; an empty tuple means coherent.

    Violations are data, not faults: callers decide whether to raise.
    """
    edges = IMPLICATIONS + _checked_edges(extra_implications)
    return tuple(e for e in edges if p.has(e[0]) and not p.has(e[1]))


def implication_closure(p: PropertySet,
                        extra_implications: Iterable[Edge] = ()) -> PropertySet:
    """Smallest superset of ``p`` that satisfies every implication edge:
    ``p`` itself when no edge fires.

    Extensive, monotone, and idempotent over the fixed edge set.
    """
    edges = IMPLICATIONS + _checked_edges(extra_implications)
    flags = p.flags()
    fired = False
    changed = True
    while changed:
        changed = False
        for tail, head in edges:
            if flags[tail] and not flags[head]:
                flags[head] = True
                changed = fired = True
    return PropertySet(**flags) if fired else p
