"""Typed parameter schemas of the experiment registry.

Every :class:`repro.runner.registry.ExperimentSpec` declares its tunable
parameters as :class:`ParamSpec` entries collected in a :class:`ParamSchema`.
The schema is the single validation boundary all callers share — the engine,
``python -m repro run --param``, the sweep spec builder and the
:mod:`repro.api` façade — so every entry point rejects the same inputs with
the same messages:

* unknown names fail with :class:`UnknownParameterError`, carrying
  ``difflib`` close-match suggestions just like unknown experiment names;
* values are *coerced* to their declared type (``"4"`` and ``4`` both
  canonicalise to ``4``), so equivalent spellings produce identical resolved
  parameters and therefore identical cache keys;
* bounds (``minimum``/``maximum``) and ``choices`` are enforced with a
  message naming the experiment, the parameter and the allowed domain
  (:class:`ParameterValueError`).

:func:`parse_param` is the shared ``--param key=value`` reader used by both
the runner and the sweep command lines (one normalisation table, one
behaviour).
"""

from __future__ import annotations

import ast
import difflib
import math
from typing import (Any, Dict, Iterable, Iterator, Mapping, Optional,
                    Sequence, Tuple)

#: Parameter types a :class:`ParamSpec` can declare.
PARAM_TYPES = ("int", "float", "bool", "str", "list", "any")

#: Bare-word spellings normalised to Python literals by ``--param`` — the
#: shell-friendly lowercase forms users type (``ast.literal_eval`` already
#: handles the canonical ``True``/``False``/``None``).
PARAM_LITERALS: Dict[str, Any] = {"true": True, "false": False,
                                  "none": None, "null": None}


def parse_param(text: str) -> Tuple[str, Any]:
    """Parse one ``--param key=value`` override (shared by both CLIs).

    The value is evaluated as a Python literal when possible; the common
    bare words ``true``/``false``/``none``/``null`` (any case) normalise to
    the corresponding literal, and anything else stays a plain string.
    Only the *first* ``=`` splits key from value, so ``key=a=b`` assigns
    the string ``"a=b"``.

    Raises
    ------
    ValueError
        When ``text`` has no ``=`` or an empty key.
    """
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise ValueError(f"--param expects key=value, got {text!r}")
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        lowered = raw.strip().lower()
        if lowered in PARAM_LITERALS:
            value = PARAM_LITERALS[lowered]
        else:
            value = raw  # plain string value
    return key, value


def parse_param_arg(text: str) -> Tuple[str, Any]:
    """:func:`parse_param` as an argparse ``type=`` callable.

    Re-raises malformed input as ``argparse.ArgumentTypeError`` so both
    CLIs print the shared message instead of a generic "invalid value".
    """
    import argparse
    try:
        return parse_param(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _context(experiment: Optional[str]) -> str:
    return f"Experiment {experiment!r} " if experiment else ""


def did_you_mean(name: str, known: Iterable[str]) -> str:
    """A `` Did you mean: …?`` suffix naming up to three close matches of
    ``name`` among ``known`` (``difflib``), or ``""`` when none is close."""
    suggestions = difflib.get_close_matches(name, list(known), n=3)
    return f" Did you mean: {', '.join(suggestions)}?" if suggestions else ""


class ReadableKeyError(KeyError):
    """A :class:`KeyError` that prints its message as written.

    The base of the unknown-name errors, so callers catching ``KeyError``
    (the CLI's shared error path) render the message without a traceback.
    """

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable
        return self.args[0]


class UnknownParameterError(ReadableKeyError):
    """An override names a parameter the experiment does not declare.

    A :class:`KeyError` subclass so pre-schema callers catching ``KeyError``
    keep working; the message carries ``difflib`` close-match suggestions
    (mirroring :class:`repro.runner.registry.UnknownExperimentError`).
    """

    def __init__(self, name: str, known: Sequence[str],
                 experiment: Optional[str] = None):
        self.name = name
        self.known = tuple(known)
        self.experiment = experiment
        super().__init__(
            f"{_context(experiment)}has no parameter {name!r}; "
            f"tunable parameters: "
            f"{', '.join(sorted(self.known)) or '(none)'}."
            + did_you_mean(name, self.known))


class ParameterValueError(ValueError):
    """A parameter value fails its spec's type, bounds or choices.

    The message always names the experiment (when known), the parameter and
    the allowed domain, so a failing sweep spec or CLI override is
    actionable without opening the registry.
    """

    def __init__(self, name: str, value: Any, domain: str,
                 experiment: Optional[str] = None, reason: str = ""):
        self.name = name
        self.value = value
        self.domain = domain
        self.experiment = experiment
        detail = f" ({reason})" if reason else ""
        super().__init__(
            f"{_context(experiment)}parameter {name!r}: invalid value "
            f"{value!r}{detail}; expected {domain}")


class ParamSpec:
    """Declaration of one tunable experiment parameter.

    Parameters
    ----------
    name:
        Parameter name (the ``--param`` / keyword-argument key).
    type:
        One of :data:`PARAM_TYPES`.  ``"any"`` disables type coercion
        (bounds and choices still apply).
    default:
        Default value; validated against the spec itself at construction.
    doc:
        One-line description (rendered by ``python -m repro list --verbose``
        and :func:`repro.api.Session.experiments` consumers).
    minimum / maximum:
        Inclusive numeric bounds for ``int``/``float`` parameters (and for
        the elements of ``list`` parameters with a numeric ``element``).
    choices:
        Explicit allowed values (checked after coercion).
    element:
        Element type of a ``list`` parameter (``"int"``/``"float"``/
        ``"str"``); ``None`` leaves elements uncoerced.
    nullable:
        Whether ``None`` is a legal value; implied when ``default`` is
        ``None``.
    """

    __slots__ = ("name", "type", "default", "doc", "minimum", "maximum",
                 "choices", "element", "nullable")

    def __init__(self, name: str, type: str = "any", default: Any = None,
                 doc: str = "", minimum: Optional[float] = None,
                 maximum: Optional[float] = None,
                 choices: Optional[Sequence[Any]] = None,
                 element: Optional[str] = None,
                 nullable: bool = False):
        if not name:
            raise ValueError("ParamSpec needs a non-empty name")
        if type not in PARAM_TYPES:
            raise ValueError(f"ParamSpec {name!r}: unknown type {type!r}; "
                             f"use one of {', '.join(PARAM_TYPES)}")
        if element is not None and element not in ("int", "float", "str"):
            raise ValueError(f"ParamSpec {name!r}: unknown element type "
                             f"{element!r}; use 'int', 'float' or 'str'")
        if element is not None and type != "list":
            raise ValueError(f"ParamSpec {name!r}: element= only applies to "
                             f"type='list'")
        self.name = name
        self.type = type
        self.doc = doc
        self.minimum = minimum
        self.maximum = maximum
        self.choices = tuple(choices) if choices is not None else None
        self.element = element
        self.nullable = bool(nullable) or default is None
        # Canonicalise the default through the spec itself, so declaration
        # mistakes fail at registry-build time, not at the first run.
        self.default = self.coerce(default)

    # -- validation ---------------------------------------------------------------
    def coerce(self, value: Any, experiment: Optional[str] = None) -> Any:
        """Validate ``value`` and return its canonical form.

        Raises
        ------
        ParameterValueError
            When the value cannot be coerced to the declared type, falls
            outside the bounds, or is not one of the choices.
        """
        if value is None:
            if self.nullable:
                return None
            raise ParameterValueError(self.name, value, self.domain(),
                                      experiment, "None is not allowed")
        canonical = self._coerce_type(value, experiment)
        self._check_bounds(canonical, experiment)
        if self.choices is not None and canonical not in self.choices:
            raise ParameterValueError(self.name, value, self.domain(),
                                      experiment)
        return canonical

    def _coerce_type(self, value: Any, experiment: Optional[str]) -> Any:
        kind = self.type
        try:
            if kind == "int":
                return _as_int(value)
            if kind == "float":
                return _as_float(value)
            if kind == "bool":
                if isinstance(value, bool):
                    return value
                raise TypeError
            if kind == "str":
                if isinstance(value, str):
                    return value
                raise TypeError
            if kind == "list":
                if not isinstance(value, (list, tuple)):
                    raise TypeError
                return [self._coerce_element(item, experiment)
                        for item in value]
        except ParameterValueError:
            raise
        except (TypeError, ValueError, OverflowError):
            raise ParameterValueError(self.name, value, self.domain(),
                                      experiment) from None
        return value  # type "any": passthrough

    def _coerce_element(self, item: Any, experiment: Optional[str]) -> Any:
        if self.element == "int":
            coerced: Any = _as_int(item)
        elif self.element == "float":
            coerced = _as_float(item)
        elif self.element == "str":
            if not isinstance(item, str):
                raise TypeError
            coerced = item
        else:
            return item
        self._check_bounds(coerced, experiment)
        return coerced

    def _check_bounds(self, value: Any, experiment: Optional[str]) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        if (self.minimum is not None and value < self.minimum) or \
                (self.maximum is not None and value > self.maximum):
            raise ParameterValueError(self.name, value, self.domain(),
                                      experiment, "out of bounds")

    # -- documentation ------------------------------------------------------------
    def domain(self) -> str:
        """Human-readable description of the allowed values."""
        if self.choices is not None:
            base = "one of " + ", ".join(repr(choice)
                                         for choice in self.choices)
        elif self.type == "list" and self.element:
            base = f"list[{self.element}]"
        else:
            base = self.type
        bounds = _bounds_text(self.minimum, self.maximum)
        if bounds:
            base += f" {bounds}"
        if self.nullable and self.choices is None:
            base += " or None"
        return base

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ParamSpec({self.name!r}, type={self.type!r}, "
                f"default={self.default!r})")


def _as_int(value: Any) -> int:
    if isinstance(value, bool):
        raise TypeError
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not value.is_integer():
            raise TypeError
        return int(value)
    if isinstance(value, str):
        return int(value.strip())
    raise TypeError


def _as_float(value: Any) -> float:
    if isinstance(value, bool):
        raise TypeError
    if isinstance(value, (int, float)):
        result = float(value)
    elif isinstance(value, str):
        result = float(value.strip())
    else:
        raise TypeError
    if not math.isfinite(result):
        raise TypeError
    return result


def _bounds_text(minimum: Optional[float], maximum: Optional[float]) -> str:
    if minimum is not None and maximum is not None:
        return f"in [{minimum:g}, {maximum:g}]"
    if minimum is not None:
        return f">= {minimum:g}"
    if maximum is not None:
        return f"<= {maximum:g}"
    return ""


class ParamSchema:
    """Ordered, validated collection of :class:`ParamSpec` entries.

    The schema owns parameter resolution for one experiment: merging
    overrides into the defaults, coercing every value to its canonical type
    and failing helpfully on unknown names or out-of-domain values.

    Examples
    --------
    >>> schema = ParamSchema([
    ...     ParamSpec("num_windows", "int", 15, minimum=1, maximum=30),
    ...     ParamSpec("mode", "str", "fast", choices=("fast", "slow"))])
    >>> schema.resolve({"num_windows": "4"})
    {'num_windows': 4, 'mode': 'fast'}
    """

    __slots__ = ("_specs",)

    def __init__(self, specs: Iterable[ParamSpec] = ()):
        ordered: Dict[str, ParamSpec] = {}
        for spec in specs:
            if spec.name in ordered:
                raise ValueError(f"Duplicate parameter {spec.name!r}")
            ordered[spec.name] = spec
        self._specs = ordered

    # -- mapping protocol ---------------------------------------------------------
    def __iter__(self) -> Iterator[ParamSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __getitem__(self, name: str) -> ParamSpec:
        return self._specs[name]

    def __bool__(self) -> bool:
        return bool(self._specs)

    def names(self) -> Tuple[str, ...]:
        """Parameter names, in declaration order."""
        return tuple(self._specs)

    def defaults(self) -> Dict[str, Any]:
        """The canonical default of every parameter, in declaration order."""
        return {spec.name: spec.default for spec in self}

    # -- resolution ---------------------------------------------------------------
    def validate(self, name: str, value: Any,
                 experiment: Optional[str] = None) -> Any:
        """Coerce one ``(name, value)`` pair to its canonical form.

        Raises
        ------
        UnknownParameterError
            When ``name`` is not declared (with close-match suggestions).
        ParameterValueError
            When ``value`` is outside the parameter's domain.
        """
        if name not in self._specs:
            raise UnknownParameterError(name, self.names(), experiment)
        return self._specs[name].coerce(value, experiment)

    def resolve(self, overrides: Optional[Mapping[str, Any]] = None,
                experiment: Optional[str] = None) -> Dict[str, Any]:
        """Merge ``overrides`` into the defaults, coercing every value."""
        params = self.defaults()
        for name, value in (overrides or {}).items():
            params[name] = self.validate(name, value, experiment)
        return params

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ParamSchema({list(self._specs)})"
