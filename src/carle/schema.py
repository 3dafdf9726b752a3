"""The one reader and the one checker for config dataclasses.

Each stage owns its config dataclass (``features.ExtractionConfig``,
``nn.train.TrainConfig``, ``forest.ForestConfig``, ...) and
``pipeline.ExperimentConfig`` nests them. Config files, ``--set`` overrides
and the configs stored in checkpoints all pass through ``read``, so every key
and every value is checked the same way. ``check`` holds a config to the
``BOUNDS`` table its class declares: rows of (bound, test, field names).
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


def check(config, prefix: str = ""):
    """``config`` if each field passes the test of its class's ``BOUNDS`` row,
    each number is finite, and None stands only where the field's annotation
    allows it; nested sections are checked too. Otherwise ParameterError
    names the first field that fails by its dotted key, ``prefix`` + name."""
    rules = {name: (bound, test) for bound, test, names in type(config).BOUNDS for name in names}
    for f in dataclasses.fields(config):
        value, types = getattr(config, f.name), typing.get_args(f.type) or (f.type,)
        bound, test = rules.get(f.name, (None, lambda v: True))
        if int in types or float in types:
            bound, test = (f"finite and {bound}" if bound else "finite"), _finite_and(test)
        if dataclasses.is_dataclass(f.type):
            check(value, f"{prefix}{f.name}.")
        elif not (value is None and type(None) in types or _holds(test, value)):
            raise ParameterError(f"{prefix}{f.name} must be {bound}, got {value!r}")
    return config


def _finite_and(test):
    return lambda v: math.isfinite(v) and test(v)


def _holds(test, value) -> bool:
    try:
        return bool(test(value))
    except (TypeError, OverflowError):  # not a number where one belongs, or an int past float
        return False
