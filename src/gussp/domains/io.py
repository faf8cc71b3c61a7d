"""Plain-text instance files.

One ``key: value`` pair per line, ``#`` comments, repeatable keys for
obstacles, goals, landmarks, and explicit prior configurations.  Example::

    domain: grid
    width: 4
    height: 1
    start: 0,0
    goal: 2,0
    goal: 3,0
    prior: uniform

Cells are ``x,y``; landmark lines read ``landmark: 2,2 -> 5,5; 7,0``
(observer cell, then the goal cells it reports on).  Explicit priors list
``config: 5,5 + 7,0 = 0.25`` lines.  The charging domain uses ``time``
lines (``time: 5 = 1.25`` for a candidate departure time and its weight)
and a single ``prices`` line instead of grid geometry.

Each domain is one entry of ``_DOMAINS``: its name, its parameter
dataclass and its builder.  The optional scalar keys are the dataclass
fields whose default is an ``int`` or a ``float``, in field order, read
with the default's type and written last with ``repr``; a missing key
takes the default.  A malformed or non-finite number, an unknown key and
a line the domain never reads all raise :class:`InvalidInstance`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io as _io
import math
from typing import Callable, Dict, List, Tuple, Union

from ..errors import InvalidInstance
from ..model import GusspModel
from .ev import EvParams, build_ev
from .grid import Cell, GridParams, build_grid
from .priors import PriorSpec
from .rover import RoverParams, build_rover
from .search_rescue import SearchRescueParams, build_search_rescue

Params = Union[GridParams, RoverParams, SearchRescueParams, EvParams]

_DOMAINS = {
    "grid": (GridParams, build_grid),
    "rover": (RoverParams, build_rover),
    "search": (SearchRescueParams, build_search_rescue),
    "ev": (EvParams, build_ev),
}
_BY_TYPE = {cls: (name, build) for name, (cls, build) in _DOMAINS.items()}
# file keys that differ from their field names
_KEY_OF = {"n_victims": "victims"}
_REPEATED = ("obstacle", "goal", "landmark", "config", "time")


def _scalars(cls) -> List[Tuple[str, str, Callable]]:
    """``(key, field name, type)`` of each optional scalar of ``cls``."""
    return [(_KEY_OF.get(f.name, f.name), f.name, type(f.default))
            for f in dataclasses.fields(cls) if type(f.default) in (int, float)]


def _goal_field(cls) -> str:
    return "candidate_cells" if cls is SearchRescueParams else "potential_goals"


def _number(kind: Callable, text: str, what: str):
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InvalidInstance(
            f"bad {what} {text!r}, expected {'an int' if kind is int else 'a finite number'}"
        )
    return value


def _parse_cell(text: str) -> Cell:
    try:
        x, y = text.split(",")
        return (int(x), int(y))
    except ValueError as e:
        raise InvalidInstance(f"bad cell {text!r}, expected x,y") from e


def _parse_lines(text: str) -> List[Tuple[str, str]]:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise InvalidInstance(f"line {lineno}: expected 'key: value', got {raw!r}")
        key, value = line.split(":", 1)
        pairs.append((key.strip().lower(), value.strip()))
    return pairs


def parse_instance(text: str) -> Params:
    fields: Dict[str, str] = {}
    repeated: Dict[str, List[str]] = {key: [] for key in _REPEATED}
    for key, value in _parse_lines(text):
        if key in repeated:
            repeated[key].append(value)
        elif key in fields:
            raise InvalidInstance(f"duplicate key {key!r}")
        else:
            fields[key] = value

    domain = fields.pop("domain", None)
    if domain is None:
        raise InvalidInstance("missing 'domain' line")
    if domain not in _DOMAINS:
        raise InvalidInstance(f"unknown domain {domain!r}")
    cls, _build = _DOMAINS[domain]
    # each reader pops the repeated keys it reads; what is left is unread
    kwargs = (_parse_ev(fields, repeated) if cls is EvParams
              else _parse_spatial(cls, fields, repeated))
    for key, name, kind in _scalars(cls):
        if key in fields:
            kwargs[name] = _number(kind, fields.pop(key), key)
    if fields:
        raise InvalidInstance(f"unknown keys for {domain}: {sorted(fields)}")
    unread = sorted(key for key, values in repeated.items() if values)
    if unread:
        raise InvalidInstance(f"{domain} instances do not read {unread} lines")
    return cls(**kwargs)


def _parse_prior(fields: Dict[str, str], repeated: Dict[str, List[str]]) -> PriorSpec:
    kind, *parts = fields.pop("prior", "uniform").split() or [""]
    if kind == "uniform":
        return PriorSpec()
    if kind == "bernoulli":
        return PriorSpec(kind="bernoulli", marginals=tuple(
            _number(float, p, "bernoulli marginal") for p in parts))
    if kind == "explicit":
        configs = []
        for line in repeated.pop("config"):
            if "=" not in line:
                raise InvalidInstance(f"config line {line!r} needs '= weight'")
            labels_text, weight = line.rsplit("=", 1)
            labels = tuple(
                _parse_cell(c.strip()) for c in labels_text.split("+")
            )
            configs.append((labels, _number(float, weight.strip(), "config weight")))
        if not configs:
            raise InvalidInstance("explicit prior without config lines")
        return PriorSpec(kind="explicit", configs=tuple(configs))
    raise InvalidInstance(f"unknown prior kind {kind!r}")


def _parse_landmarks(lines: List[str]):
    out = []
    for line in lines:
        if "->" not in line:
            raise InvalidInstance(f"landmark line {line!r} needs '-> vicinity'")
        where, vicinity = line.split("->", 1)
        cells = tuple(_parse_cell(c.strip()) for c in vicinity.split(";"))
        out.append((_parse_cell(where.strip()), cells))
    return tuple(out)


def _parse_spatial(cls, fields: Dict[str, str],
                   repeated: Dict[str, List[str]]) -> dict:
    try:
        width = _number(int, fields.pop("width"), "width")
        height = _number(int, fields.pop("height"), "height")
        start = _parse_cell(fields.pop("start"))
    except KeyError as e:
        raise InvalidInstance(f"missing required key {e.args[0]!r}") from e
    goals = tuple(_parse_cell(g) for g in repeated.pop("goal"))
    if not goals:
        raise InvalidInstance("at least one 'goal' line is required")
    return {
        "width": width, "height": height, "start": start, _goal_field(cls): goals,
        "obstacles": frozenset(_parse_cell(o) for o in repeated.pop("obstacle")),
        "landmarks": _parse_landmarks(repeated.pop("landmark")),
        "prior": _parse_prior(fields, repeated),
    }


def _parse_ev(fields: Dict[str, str], repeated: Dict[str, List[str]]) -> dict:
    times: List[int] = []
    weights: List[float] = []
    for line in repeated.pop("time"):
        t, w = line.split("=", 1) if "=" in line else (line, "1.0")
        times.append(_number(int, t.strip(), "time"))
        weights.append(_number(float, w.strip(), "time weight"))
    if not times:
        raise InvalidInstance("charging instances need 'time' lines")
    try:
        prices = tuple(_number(float, p, "price") for p in fields.pop("prices").split())
    except KeyError as e:
        raise InvalidInstance("missing required key 'prices'") from e
    return {"times": tuple(times), "time_weights": tuple(weights), "prices": prices}


def serialize_instance(params: Params) -> str:
    out = _io.StringIO()

    def emit(key: str, value) -> None:
        out.write(f"{key}: {value}\n")

    def fmt_cell(c: Cell) -> str:
        return f"{c[0]},{c[1]}"

    cls = type(params)
    emit("domain", _BY_TYPE[cls][0])
    if cls is EvParams:
        for t, w in zip(params.times, params.time_weights):
            emit("time", f"{t} = {w!r}")
        emit("prices", " ".join(repr(p) for p in params.prices))
    else:
        emit("width", params.width)
        emit("height", params.height)
        emit("start", fmt_cell(params.start))
        for g in getattr(params, _goal_field(cls)):
            emit("goal", fmt_cell(g))
        for o in sorted(params.obstacles):
            emit("obstacle", fmt_cell(o))
        for lm, vic in params.landmarks:
            emit("landmark", f"{fmt_cell(lm)} -> {'; '.join(fmt_cell(c) for c in vic)}")
        prior = params.prior
        if prior.kind == "uniform":
            emit("prior", "uniform")
        elif prior.kind == "bernoulli":
            emit("prior", "bernoulli " + " ".join(repr(p) for p in prior.marginals))
        else:
            emit("prior", "explicit")
            for labels, w in prior.configs:
                emit("config", " + ".join(fmt_cell(c) for c in labels) + f" = {w!r}")
    for key, name, _kind in _scalars(cls):
        emit(key, repr(getattr(params, name)))
    return out.getvalue()


def build_model(params: Params) -> GusspModel:
    if type(params) not in _BY_TYPE:
        raise InvalidInstance(f"unknown parameter type {type(params).__name__}")
    return _BY_TYPE[type(params)][1](params)


def load_instance(path: str) -> Tuple[Params, GusspModel]:
    with open(path, "r", encoding="utf-8") as fh:
        params = parse_instance(fh.read())
    return params, build_model(params)


def save_instance(params: Params, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(params))


def instance_digest(params: Params) -> str:
    """Short stable fingerprint of an instance, for report provenance."""
    return hashlib.sha256(serialize_instance(params).encode()).hexdigest()[:12]
