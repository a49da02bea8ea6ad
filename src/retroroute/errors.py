"""Exception types shared across the toolkit."""

from __future__ import annotations


class SmilesSyntaxError(ValueError):
    """Malformed SMILES text: bad bracket, unknown element, unbalanced ring closure."""


class SchemaError(ValueError):
    """A data file does not match the expected schema."""


class RouteError(ValueError):
    """A route cannot be decoupled into a tree: a molecule lies on a cycle or
    has more than one producing reaction."""


class CycleError(RouteError):
    """A route's molecule graph contains a cycle."""


class ConfigError(ValueError):
    """A configuration violates its invariants."""

