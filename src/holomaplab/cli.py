"""Batch experiment runner.

Commands:

    holomaplab run <config.json> [--output PATH]
    holomaplab emit <report.json> --format rows|structured [--output PATH]
    holomaplab parse-check <map-text>
    holomaplab list-builtins

A config is a JSON object:

    {
      "schema": 1,
      "map": "compose(henon(b=0.5), expcoord(c=0.1, k=2))",
      "domain": {"shape": "ball", "radius": 1.0},
      "task": "kappa-sup",
      "seed": 7,
      "params": { ... task-specific ... },
      "output": "report.json"          // optional
    }

Tasks: eval | jacobian | kappa-sup | refined-sup | bz-run | bz-sequence |
landau | rescaled-growth | counterexample.  Each task is one record in
_REGISTRY: its runner, the library config class it builds, the library
function it calls, its own params, its required params and, for the series
tasks, the csv rows that `emit --format rows` renders.  A task's params are
the config's fields, the function's keyword params and its own, and every
library default is the library's.  A payload is the library's record
encoded by _enc, whose fields keep their names except those that
_PAYLOAD_NAMES renames or drops.  Complex numbers in configs and reports
are [re, im] pairs.  All randomness flows from the single config seed
through named sub-seeds (sampler, newton, centers), and a run is
single-threaded, so re-running a config reproduces the payload byte for
byte.  The report file is one line of sorted-key JSON, written by the C
encoder; `emit --format structured` or `python -m json.tool` indents it.

Exit codes: 0 success; 2 validation error (a malformed config, a NaN,
Infinity or out-of-range number in it, a param that does not cast or is
out of range, an unreadable or malformed input or an unwritable output);
3 numerical failure, any unexpected exception from the task included (a
partial report with the error is still written).  The CLI only casts JSON
values: an int param takes only a JSON integer, a real param only a JSON
number (not a bool or a string), a point only finite [re, im] pairs of
numbers.  The library owns every range rule and raises PreconditionFailed
when one fails.  The CLI adds only the rules of its own params,
centers_count and bz-sequence's n_values.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import inspect
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable

import numpy as np

from . import __version__, algebra, conditioning, counterexamples, landau, renorm
from ._grammar import BUILTIN_SIGNATURES
from ._sampling import MAX_COUNT, subseed
from .errors import ConfigError, ParseError, PreconditionFailed, UnsupportedPayload
from .mapkit import DomainSpec, MapExpr, evaluate, jacobian, parse, to_text

SCHEMA_VERSION = 1
_CENTERS_SCALE = 2.0  # counterexample: std of the seeded random centers
# the named sub-seed of each library config class a task builds
_SUBSEEDS = {conditioning.SamplerConfig: "sampler", landau.NewtonConfig: "newton"}


@dataclass
class ExperimentConfig:
    """Validated experiment description; to_dict/from_dict round-trip.
    map_expr is the map parsed from map_text (a family's member at n = 1)."""

    map_text: str
    map_expr: MapExpr = field(compare=False, repr=False)
    task: str
    domain: DomainSpec
    seed: int
    params: dict = field(default_factory=dict)
    output: str | None = None

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "map": self.map_text,
            "task": self.task,
            "domain": {
                "shape": self.domain.shape,
                "radius": self.domain.radius,
                "dim": self.domain.dim,
            },
            "seed": self.seed,
            "params": dict(self.params),
            "output": self.output,
        }

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        schema = raw.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {schema}")
        unknown = set(raw) - {"schema", "map", "task", "domain", "seed", "params", "output"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "map" not in raw or "task" not in raw:
            raise ConfigError("config needs 'map' and 'task'")
        map_text = raw["map"]
        task = raw["task"]
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
        if not isinstance(map_text, str):
            raise ConfigError("map must be a string")
        spec = _REGISTRY[task]
        m = parse(spec.probe_text(map_text))  # ParseError => validation failure
        dom_raw = raw.get("domain") or {}
        if not isinstance(dom_raw, dict):
            raise ConfigError("domain must be an object")
        shape = dom_raw.get("shape", "ball")
        radius = _cast(dom_raw, "radius", float) if "radius" in dom_raw else 1.0
        dim = _cast(dom_raw, "dim", int) if "dim" in dom_raw else m.dim
        if dim != m.dim:
            raise ConfigError(f"domain dim {dim} does not match map dim {m.dim}")
        domain = DomainSpec(shape, radius, dim)
        seed = raw.get("seed")
        if seed is None:
            raise ConfigError("config needs an explicit integer 'seed'")
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("'seed' must be a nonnegative integer")
        params = dict(spec.defaults)
        user_params = raw.get("params") or {}
        if not isinstance(user_params, dict):
            raise ConfigError("params must be an object")
        bad = set(user_params) - set(spec.defaults)
        if bad:
            raise ConfigError(f"unknown params for task {task}: {sorted(bad)}")
        params.update(user_params)
        for key in spec.required:
            if params.get(key) is None:
                raise ConfigError(f"task {task} requires param {key!r}")
        output = raw.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("output must be a string")
        return ExperimentConfig(map_text, m, task, domain, seed, params, output)


# --------------------------------------------------------------------------
# JSON encoding: complex -> [re, im], arrays -> lists, a float that is not
# finite -> "inf", "-inf" or "nan" (so a payload is strict JSON), a map ->
# its text, a library record (a dataclass) -> its fields, under the names of
# _PAYLOAD_NAMES where a payload name differs (None drops the field)

_PAYLOAD_NAMES = {
    landau.LandauEstimate: {"shell_history": "shells"},
    renorm.RenormStep: {"lambda_": "lambda"},
    conditioning.ConditionReport: {"norm_name": "norm"},
    counterexamples.CertifiedBound: {"value": "bound", "map_text": "map"},
    counterexamples.HarrisWitness: {"n": None, "delta": None},
    counterexamples.DRWitness: {"delta": None},
}


def _enc(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return [c.real, c.imag] if cmath.isfinite(c) else [_enc(c.real), _enc(c.imag)]
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else str(x)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_enc(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_enc(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _enc(v) for k, v in obj.items()}
    if isinstance(obj, MapExpr):
        return to_text(obj)
    if is_dataclass(obj):
        return {name: _enc(getattr(obj, attr)) for attr, name in _payload_fields(type(obj))}
    return obj


@functools.cache
def _payload_fields(record: type) -> tuple:
    """The (field, payload name) pairs of a library record type, in field
    order, without the fields that _PAYLOAD_NAMES drops."""
    names = _PAYLOAD_NAMES.get(record, {})
    return tuple((f.name, name) for f in fields(record)
                 if (name := names.get(f.name, f.name)))


def _real(x) -> float:
    """A JSON number as a float; anything else, a bool or a string
    included, raises TypeError."""
    if type(x) not in (int, float):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def _cast(params, key, kind):
    """params[key] cast by kind; a value that does not cast is a ConfigError.
    With kind int only a JSON integer casts: not a bool, float or string.
    With kind float only a JSON number casts (_real)."""
    try:
        if kind is int and type(params[key]) is not int:
            raise TypeError(f"{params[key]!r} is not an integer")
        return (_real if kind is float else kind)(params[key])
    except (TypeError, ValueError, LookupError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def _point_from(param, k) -> np.ndarray:
    """Only ExperimentConfig.from_dict callers can reach the finiteness check."""
    if not isinstance(param, (list, tuple)) or len(param) != k:
        raise ConfigError(f"point must be a list of {k} [re, im] pairs")
    out = np.empty(k, dtype=np.complex128)
    for i, entry in enumerate(param):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ConfigError("each coordinate must be an [re, im] pair")
        try:
            out[i] = complex(_real(entry[0]), _real(entry[1]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad coordinate {entry!r}: {exc}") from exc
    if not np.isfinite(out).all():
        raise ConfigError(f"point coordinates must be finite, got {param!r}")
    return out


@functools.cache
def _library_defaults(source) -> dict:
    """The params of a library config class or function that have defaults,
    with them, in a shared dict that callers only read; a config's rng_seed
    comes from the config seed instead."""
    params = inspect.signature(source).parameters if source else {}
    return {name: p.default for name, p in params.items()
            if p.default is not p.empty and name != "rng_seed"}


def _cast_like(params, defaults) -> dict:
    """Each param named in defaults, cast by its default's type (None: an optional int)."""
    return {key: None if default is None and params[key] is None
            else _cast(params, key, int if default is None else type(default))
            for key, default in defaults.items()}


def _family_member(template: str, n: int) -> str:
    """A bz-sequence map text is a family over {n} / {1/n} placeholders (a
    placeholder-free text is a constant family); its member at n."""
    return template.replace("{n}", repr(float(n))).replace("{1/n}", repr(1.0 / n))


def _run_eval(m, cfg):
    z = _point_from(cfg.params["point"], m.dim)
    return {"point": _enc(z), "value": _enc(evaluate(m, z))}


def _run_jacobian(m, cfg):
    z = _point_from(cfg.params["point"], m.dim)
    return {"point": _enc(z), **_enc(jacobian(m, z))}


def _run_kappa_sup(m, cfg, sampler, **kwargs):
    return _enc(conditioning.sup_kappa(m, cfg.domain, sampler, **kwargs))


def _run_refined_sup(m, cfg, sampler):
    a = _point_from(cfg.params["base_point"], m.dim)
    value = conditioning.refined_sup(m, a, sampler)
    return {"base_point": _enc(a), "sup": _enc(value), "norm": algebra.NORM_NAME}


def _run_bz_run(m, cfg, sampler, **kwargs):
    C = _cast(cfg.params, "C", float)
    return _enc(renorm.bz_step(m, C, sampler, **kwargs))


def _run_bz_sequence(m, cfg, sampler, **kwargs):
    n_values = cfg.params["n_values"]
    if not (isinstance(n_values, list)
            and all(type(n) is int and 1 <= n <= sys.float_info.max for n in n_values)):
        raise ConfigError("n_values must be a list of integers >= 1 with finite floats")
    C = _cast(cfg.params, "C", float)
    steps = renorm.bz_sequence(
        lambda n: m if n == 1 else parse(_family_member(cfg.map_text, n)),
        n_values, C, sampler, **kwargs)
    return {"series": [dict(_enc(step), n=n) for n, step in zip(n_values, steps)]}


def _run_landau(m, cfg, newton, **kwargs):
    return _enc(landau.landau_estimate(m, cfg.domain, newton, **kwargs))


def _run_rescaled_growth(m, cfg, newton, **kwargs):
    r_values = _cast(cfg.params, "R_values", lambda v: [_real(r) for r in v])
    series = landau.rescaled_growth(m, r_values, newton, **kwargs)
    return {"series": [{"R": _enc(r), "r_times_rlo": _enc(v)} for r, v in series]}


def _run_counterexample(m, cfg):
    params = cfg.params
    if params["centers"] is not None:
        centers = _cast(params, "centers", lambda v: [_point_from(c, 2) for c in v])
    else:
        count = _cast(params, "centers_count", int)
        if not 0 <= count <= MAX_COUNT:
            raise ConfigError(f"centers_count must lie in [0, {MAX_COUNT}]")
        rng = np.random.default_rng(
            np.random.SeedSequence([subseed(cfg.seed, "centers") & (2**63 - 1)])
        )
        raw = _CENTERS_SCALE * rng.standard_normal((count, 4))
        centers = [(complex(r[0], r[1]), complex(r[2], r[3])) for r in raw]
    return _enc(counterexamples.certify_no_ball(m, centers))


@dataclass(frozen=True)
class _Task:
    """Everything the CLI knows about one task.  Its params are the fields of
    config, the keyword params of func and its own params, each with its
    default.  func is read only for its signature: a runner calls the library
    through module attributes, which tracing can patch."""

    run: Callable  # (map, ExperimentConfig[, config], **func keywords) -> payload
    func: Callable  # the library function whose keyword params the task accepts
    config: type | None = None  # the library config class the task builds, seeded
    own: dict = field(default_factory=dict)  # the task's own params, with defaults
    required: tuple = ()  # params that must be given
    rows: tuple | None = None  # (csv header, payload -> csv lines) for `emit --format rows`
    template: bool = False  # the map text is a family over {n} / {1/n}

    @property
    def defaults(self) -> dict:  # every param the task accepts, with its default
        return {**_library_defaults(self.config), **_library_defaults(self.func), **self.own}

    def probe_text(self, map_text: str) -> str:
        """The text that validates the map: a family's member at n = 1."""
        return _family_member(map_text, 1) if self.template else map_text


_SAMPLER, _NEWTON = conditioning.SamplerConfig, landau.NewtonConfig
_REGISTRY = {
    "eval": _Task(_run_eval, evaluate, own={"point": None}, required=("point",)),
    "jacobian": _Task(_run_jacobian, jacobian, own={"point": None}, required=("point",)),
    "kappa-sup": _Task(_run_kappa_sup, conditioning.sup_kappa, _SAMPLER),
    "refined-sup": _Task(_run_refined_sup, conditioning.refined_sup, _SAMPLER,
                         own={"base_point": None}, required=("base_point",)),
    "bz-run": _Task(_run_bz_run, renorm.bz_step, _SAMPLER, own={"C": None}, required=("C",)),
    "bz-sequence": _Task(
        _run_bz_sequence, renorm.bz_sequence, _SAMPLER,
        own={"C": None, "n_values": None}, required=("C", "n_values"),
        rows=("n,lambda", lambda p: [f"{row['n']},{row['lambda']}" for row in p["series"]]),
        template=True,
    ),
    "landau": _Task(
        _run_landau, landau.landau_estimate, _NEWTON,
        rows=("radius,all_certified",
              lambda p: [f"{r},{1 if ok else 0}" for r, ok in p["shells"]]),
    ),
    "rescaled-growth": _Task(
        _run_rescaled_growth, landau.rescaled_growth, _NEWTON,
        own={"R_values": None}, required=("R_values",),
        rows=("R,r_times_rlo",
              lambda p: [f"{row['R']},{row['r_times_rlo']}" for row in p["series"]]),
    ),
    "counterexample": _Task(_run_counterexample, counterexamples.certify_no_ball,
                            own={"centers_count": 100, "centers": None}),
}
TASKS = tuple(_REGISTRY)
_INVALID = (ConfigError, ParseError, PreconditionFailed)  # exit 2, no report


def _run_task(cfg: ExperimentConfig) -> dict:
    """Run a validated config on its parsed map: the task's library config
    is built once from its params and seeded by its named sub-seed, and its
    func keywords are cast once, each by the type of its library default."""
    task = _REGISTRY[cfg.task]
    args = [cfg.map_expr, cfg]
    if task.config is not None:
        values = _cast_like(cfg.params, _library_defaults(task.config))
        args.append(task.config(rng_seed=subseed(cfg.seed, _SUBSEEDS[task.config]), **values))
    return task.run(*args, **_cast_like(cfg.params, _library_defaults(task.func)))


def _finite(text: str) -> float:
    """A config's JSON number as a float.  NaN, Infinity, -Infinity and a
    number past the float range raise ValueError: they are not JSON numbers
    a report could repeat."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is not a finite number")
    return x


def run(config_path: str, output: str | None = None) -> int:
    """Execute a config file; returns the process exit code."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, _finite, bad UTF-8
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except _INVALID as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2

    out_path = output or cfg.output or (os.path.splitext(config_path)[0] + ".report.json")
    report = {
        "schema": SCHEMA_VERSION,
        "artifact": {"name": "holomaplab", "version": __version__},
        "norm": algebra.NORM_NAME,
        "config": cfg.to_dict(),
        "payload": None,
        "error": None,
        "wall_time_s": None,
    }
    start = time.perf_counter()
    try:
        report["payload"] = _run_task(cfg)
        code = 0
    except _INVALID as exc:  # ParseError: a bz-sequence member's text
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # HolomapError, or e.g. LinAlgError from an overflowing map
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        print(f"error: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 3
    report["wall_time_s"] = time.perf_counter() - start
    text = json.dumps(report, sort_keys=True) + "\n"  # encode before truncating
    return code if _write(out_path, text, "report") else 2


def _write(path: str, text: str, what: str) -> bool:
    """Write text to path; on failure print an error and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {what}: {exc}", file=sys.stderr)
        return False
    return True


def emit_series(report: dict, fmt: str) -> str:
    """Render a report's series payload as csv rows or as structured JSON.
    A report of the wrong shape raises UnsupportedPayload."""
    if not isinstance(report, dict):
        raise UnsupportedPayload("report must be a JSON object")
    payload = report.get("payload")
    if payload is None:
        raise UnsupportedPayload("report has no payload")
    if fmt == "structured":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt != "rows":
        raise UnsupportedPayload(f"unknown format {fmt!r}")
    config = report.get("config")
    task = config.get("task") if isinstance(config, dict) else None
    rows = _REGISTRY[task].rows if task in TASKS else None
    if rows is None:
        raise UnsupportedPayload(f"task {task!r} has no rows series")
    header, lines = rows
    try:
        body = lines(payload)
    except (LookupError, TypeError, ValueError) as exc:
        raise UnsupportedPayload(f"malformed {task} payload: {exc!r}") from exc
    return "\n".join([header] + body) + "\n"


def emit(report_path: str, fmt: str, output: str | None = None) -> int:
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, bad UTF-8
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return 2
    try:
        text = emit_series(report, fmt)
    except UnsupportedPayload as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if output:
        return 0 if _write(output, text, "output") else 2
    sys.stdout.write(text)
    return 0


def parse_check(text: str) -> int:
    try:
        m = parse(text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"ok: k={m.dim}")
    print(to_text(m))
    return 0


def list_builtins() -> int:
    for sig in BUILTIN_SIGNATURES:
        print(sig)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="holomaplab",
        description="Batch experiments on holomorphic self-maps of complex balls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config file and write a report")
    p_run.add_argument("config")
    p_run.add_argument("--output", "-o", default=None)

    p_emit = sub.add_parser("emit", help="render a report's series payload")
    p_emit.add_argument("report")
    p_emit.add_argument("--format", choices=("rows", "structured"), default="rows")
    p_emit.add_argument("--output", "-o", default=None)

    p_check = sub.add_parser("parse-check", help="validate a map expression")
    p_check.add_argument("text")

    sub.add_parser("list-builtins", help="list map constructors")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.output)
    if args.command == "emit":
        return emit(args.report, args.format, args.output)
    if args.command == "parse-check":
        return parse_check(args.text)
    if args.command == "list-builtins":
        return list_builtins()
    return 2


if __name__ == "__main__":
    sys.exit(main())
