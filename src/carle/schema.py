"""The one reader for config dataclasses.

Each stage owns its config dataclass (``features.ExtractionConfig``,
``nn.train.TrainConfig``, ``forest.ForestConfig``, ...) and
``pipeline.ExperimentConfig`` nests them. Config files, ``--set`` overrides
and the configs stored in checkpoints all pass through ``read``, so every key
and every value is checked the same way.
"""

import dataclasses
import math
import typing

from .errors import ParameterError


def read(cls, doc, base=None, prefix: str = ""):
    """``base`` (default ``cls()``) with the values of the JSON object ``doc``
    put in place.

    Dataclass-typed fields read nested objects; keys a nested object leaves
    out keep their value in ``base``. An unknown key, or a value that does
    not fit its field's annotation, raises ParameterError naming the dotted
    key (``prefix`` + name).
    """
    if base is None:
        base = cls()
    if not isinstance(doc, dict):
        where = f"config key {prefix[:-1]!r}" if prefix else "config"
        raise ParameterError(f"{where} must be a JSON object, got {type(doc).__name__}")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(prefix + key for key in set(doc) - set(fields))
    if unknown:
        raise ParameterError(f"unknown config keys: {unknown}")
    values = {}
    for name, kind in fields.items():
        if dataclasses.is_dataclass(kind):
            # rebuilt even when doc leaves it out, so no two configs share a section
            values[name] = read(kind, doc.get(name, {}), getattr(base, name), f"{prefix}{name}.")
        elif name in doc:
            values[name] = _checked(prefix + name, doc[name], kind)
    return dataclasses.replace(base, **values)


def _checked(key: str, value, annotation):
    """``value`` if it fits ``annotation`` (a type or ``X | None``): a bool
    is not an int, and a float must be finite. An int given for a float is
    stored as that float, so ``2`` and ``2.0`` make one config and one hash."""
    types = typing.get_args(annotation) or (annotation,)
    if float in types and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ParameterError(f"config key {key!r} must be finite, got {value!r}") from None
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        expected = getattr(annotation, "__name__", str(annotation))
        raise ParameterError(f"config key {key!r} must be {expected}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ParameterError(f"config key {key!r} must be finite, got {value!r}")
    return value
