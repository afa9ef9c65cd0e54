"""Workload definitions: inputs generated from the seed, the fixed task list
of one round, and the output check of every task.

Every task is a call into a public function of holomaplab.  A task's
``run`` is the timed call; its ``check`` runs untimed afterwards and turns
the result into an Outcome.  Inputs are map texts and config files built
from the seed alone and parsed before the first timed task, so the program
only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import holomaplab as hl
from holomaplab import cli

WORKLOADS = ("sup-dense", "landau-shells", "cli-configs")

# Tolerances of the output checks.
KAPPA_LINEAR_RTOL = 1e-12  # Linear sup kappa against cond(A)
REFINED_LINEAR_RTOL = 1e-12  # Linear refined sup against 1
LANDAU_LINEAR_RTOL = 0.02  # linear r_lo against sigma_min
GROWTH_IDENTITY_RTOL = 0.01  # identity growth R * r_lo(R) against R
HARRIS_SLACK = 0.05  # Harris r_lo <= sqrt(2/n) + slack
BOUND_RTOL = 1e-12  # certified counterexample bound against its closed form

# The exit-code contract task: an overflowing map must give exit 3 and a
# partial report carrying an error entry.
CONTRACT_MAP = "expcoord(c=1000, k=2)"
CONTRACT_FAILURE = ("the documented exit-code contract asks for exit 3 and a partial "
                    "report with an error entry when a map overflows")


@dataclass
class Outcome:
    ok: bool
    digest: str | None  # SHA-256 of the task's deterministic output
    oracle_err: float | None = None  # relative error against an analytic oracle
    detail: str = ""


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]  # calls no traced function
    known_failure: str = ""  # why the task is expected to fail today


def subseed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{int(seed)}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def digest_of(obj) -> str:
    """SHA-256 of a JSON rendering; floats print with repr, so any change in
    the last digit changes the digest."""
    text = json.dumps(_plain(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _plain(obj):
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (np.generic,)):
        obj = obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _rel(value: float, exact: float) -> float:
    return abs(float(value) - exact) / abs(exact)


def _ctext(c: complex) -> str:
    c = complex(c)
    sign = "+" if c.imag >= 0 else "-"
    return f"({c.real!r}{sign}{abs(c.imag)!r}i)"


def _unitary(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _linear_text(rng, singular_values) -> str:
    a = _unitary(rng) @ np.diag(singular_values) @ _unitary(rng).conj().T
    rows = ", ".join("[" + ", ".join(_ctext(x) for x in row) + "]" for row in a)
    return f"linear(a=[{rows}])"


# --------------------------------------------------------------------------
# sup-dense: sampled suprema at tens of thousands of points per call


def _sup_dense(seed: int, tiny: bool) -> list[Task]:
    rng = np.random.default_rng([seed, 1])
    shells, per_shell = (4, 64) if tiny else (16, 2048)
    s_lin = np.array([1.0 + rng.random(), 0.0])
    s_lin[1] = s_lin[0] / (2.0 + 18.0 * rng.random())
    maps = {
        "tree": hl.parse(
            f"compose(henon(b={0.3 + 0.4 * rng.random()!r}), "
            f"expcoord(c={0.05 + 0.25 * rng.random()!r}, k=2))"
        ),
        "poly": hl.parse(
            "(z1 + {}*z2^2 + {}*z1*z2, z2 + {}*z1^2 + {}*z1^3)".format(
                *(_ctext(0.15 * (rng.standard_normal() + 1j * rng.standard_normal()))
                  for _ in range(4))
            )
        ),
        "linear": hl.parse(_linear_text(rng, s_lin)),
    }
    cond = float(s_lin[0] / s_lin[1])
    ball = hl.DomainSpec.ball(2, 1.0)
    tasks = []
    kappa_sup = {}  # the round's sup kappa estimate feeds that map's bz_step

    for key, m in maps.items():
        sampler = hl.SamplerConfig(
            radial_shells=shells, points_per_shell=per_shell,
            rng_seed=subseed(seed, f"sup-{key}"), refine_steps=20,
        )
        phase = 2.0 * np.pi * rng.random(2)
        base = 0.2 * np.exp(1j * phase) / np.sqrt(2.0)

        def run_kappa(m=m, sampler=sampler, key=key):
            rep = hl.sup_kappa(m, ball, sampler)
            kappa_sup[key] = rep.sup_estimate
            return rep

        def check_kappa(rep, key=key):
            out = [rep.sup_estimate, rep.argmax_point, rep.samples_used, rep.skipped_singular]
            ok = math.isfinite(rep.sup_estimate) and rep.sup_estimate >= 1.0
            err = None
            if key == "linear":
                err = _rel(rep.sup_estimate, cond)
                ok = ok and err <= KAPPA_LINEAR_RTOL
            return Outcome(ok, digest_of(out), err, f"sup kappa {rep.sup_estimate:.6g}")

        def run_refined(m=m, sampler=sampler, base=base):
            return hl.refined_sup(m, base, sampler)

        def check_refined(value, key=key):
            ok = math.isfinite(value) and value >= 1.0 - REFINED_LINEAR_RTOL
            err = None
            if key == "linear":
                err = _rel(value, 1.0)
                ok = ok and err <= REFINED_LINEAR_RTOL
            return Outcome(ok, digest_of([value]), err, f"refined sup {value:.6g}")

        def run_bz(m=m, sampler=sampler, key=key):
            return hl.bz_step(m, 1.05 * kappa_sup[key], sampler)

        def check_bz(step):
            bc = step.bound_check
            out = [step.lambda_, step.base_point, step.b_matrix, hl.to_text(step.psi),
                   step.validity_radius, bc.max_jacobian_norm, bc.shift_max]
            return Outcome(bool(bc.passed and bc.shift_ok), digest_of(out), None,
                           f"lambda {step.lambda_:.6g} passed={bc.passed} shift_ok={bc.shift_ok}")

        tasks += [
            Task(f"sup_kappa[{key}]", run_kappa, check_kappa),
            Task(f"refined_sup[{key}]", run_refined, check_refined),
            Task(f"bz_step[{key}]", run_bz, check_bz),
        ]
    return tasks


# --------------------------------------------------------------------------
# landau-shells: Newton-certified shells, salvage and certificates


def _estimate_digest(est) -> str:
    certs = [[c.target, c.preimage, c.residual, c.domain_margin] for c in est.certificates]
    return digest_of([est.center, est.r_lo, est.r_hi, est.r_hi_label,
                      est.directions_tested, certs, est.shell_history])


def _landau_shells(seed: int, tiny: bool) -> list[Task]:
    rng = np.random.default_rng([seed, 2])
    # Shell sizes: 128 directions for the linear maps, 96 for the others.
    directions, other_directions = (32, 32) if tiny else (128, 96)
    growth = 1.02
    # The maps' shapes are fixed (singular values, n, c) and the climb starts
    # from the image of the origin, so every seed does about the same work;
    # the seed moves singular vectors, sphere directions and Newton starts.
    s_lin = (1.5, 0.35)
    ball = hl.DomainSpec.ball(2, 1.0)
    polydisc = hl.DomainSpec.polydisc(2, 1.0)
    tasks = []

    for i in range(3):
        m = hl.parse(_linear_text(rng, s_lin))
        cfg = hl.NewtonConfig(tolerance=1e-8, rng_seed=subseed(seed, f"linear-{i}"))

        def run_linear(m=m, cfg=cfg):
            return hl.landau_estimate(m, ball, cfg, center_candidates=1,
                                      direction_count=directions,
                                      growth_factor=growth, center_refine_steps=0)

        def check_linear(est):
            err = _rel(est.r_lo, s_lin[1])
            return Outcome(err <= LANDAU_LINEAR_RTOL, _estimate_digest(est), err,
                           f"r_lo {est.r_lo:.6g} vs sigma_min {s_lin[1]}")

        tasks.append(Task(f"landau[linear{i}]", run_linear, check_linear))

    n = 3
    harris = hl.parse(f"harris(n={n})")
    harris_cfg = hl.NewtonConfig(tolerance=1e-8, rng_seed=subseed(seed, "harris"))

    def run_harris():
        return hl.landau_estimate(harris, polydisc, harris_cfg, center_candidates=1,
                                  direction_count=other_directions, growth_factor=growth,
                                  center_refine_steps=1)

    def check_harris(est):
        limit = math.sqrt(2.0 / n) + HARRIS_SLACK
        ok = est.r_lo <= limit and est.r_hi_label == "certified"
        return Outcome(ok, _estimate_digest(est), None,
                       f"r_lo {est.r_lo:.6g} <= {limit:.6g}, r_hi {est.r_hi_label}")

    tasks.append(Task(f"landau[harris{n}]", run_harris, check_harris))

    expcoord = hl.parse("expcoord(c=0.1, k=2)")
    r_values = [1.0] if tiny else [1.0, 2.0]

    def check_growth(series):
        values = [v for _, v in series]
        ok = all(a <= b for a, b in zip(values, values[1:]))
        return Outcome(ok, digest_of(series), None,
                       "series " + ", ".join(f"{v:.5g}" for v in values))

    # The growth series is the slowest task.  It runs twice per round, with
    # two Newton seeds, so that the tail (the 11th largest latency) falls in
    # the middle of its samples rather than on its fastest one.
    for i in range(2):
        growth_cfg = hl.NewtonConfig(tolerance=1e-8, rng_seed=subseed(seed, f"growth-{i}"))

        def run_growth(growth_cfg=growth_cfg):
            return hl.rescaled_growth(expcoord, r_values, growth_cfg, center_candidates=1,
                                      direction_count=other_directions,
                                      growth_factor=growth, center_refine_steps=0)

        tasks.append(Task(f"rescaled_growth[expcoord{i}]", run_growth, check_growth))
    return tasks


# --------------------------------------------------------------------------
# cli-configs: the bundled configs plus two generated ones, run in process


def _cli_configs(seed: int, tiny: bool, root: Path, workdir: Path) -> list[Task]:
    rng = np.random.default_rng([seed, 3])
    configs = {}
    for path in sorted((root / "configs").glob("*.json")):
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["seed"] = subseed(seed, path.stem)
        if tiny and raw["task"] == "rescaled-growth":
            raw["params"]["R_values"] = [1]
        configs[path.stem] = raw
    configs["counterexample_durenrudin"] = {
        "schema": 1,
        "map": f"durenrudin(delta={0.5 + 1.5 * rng.random()!r})",
        "domain": {"shape": "polydisc", "radius": 1.0},
        "task": "counterexample",
        "seed": subseed(seed, "durenrudin"),
        "params": {"centers_count": 25},
    }
    configs["contract_kappa_overflow"] = {
        "schema": 1,
        "map": CONTRACT_MAP,
        "task": "kappa-sup",
        "seed": subseed(seed, "contract"),
        "params": {"radial_shells": 8, "points_per_shell": 48, "refine_steps": 10},
    }

    tasks = []
    for name, raw in configs.items():
        cfg_path = workdir / f"{name}.json"
        cfg_path.write_text(json.dumps(raw), encoding="utf-8")
        report_path = workdir / f"{name}.report.json"
        expected = 3 if name.startswith("contract_") else 0
        bound = None  # closed-form bound of a counterexample config
        if raw["task"] == "counterexample":
            m = hl.parse(raw["map"])
            bound = math.sqrt(2.0 / m.n) if isinstance(m, hl.Harris) else m.delta

        def run_cli(cfg_path=cfg_path, report_path=report_path):
            report_path.unlink(missing_ok=True)
            return cli.run(str(cfg_path), str(report_path))

        def check_cli(code, raw=raw, report_path=report_path, expected=expected,
                      bound=bound):
            if code != expected:
                return Outcome(False, None, None, f"exit {code}, expected {expected}")
            if not report_path.is_file():
                return Outcome(False, None, None, "no report written")
            report = json.loads(report_path.read_text(encoding="utf-8"))
            if expected != 0:
                ok = report.get("error") is not None
                return Outcome(ok, digest_of(report.get("error")), None, f"exit {code}")
            ok, err, detail = _check_payload(raw, report["payload"], bound)
            return Outcome(ok, digest_of(report["payload"]), err, detail)

        tasks.append(Task(f"cli[{name}]", run_cli, check_cli,
                          CONTRACT_FAILURE if expected else ""))
    return tasks


def _check_payload(raw: dict, payload: dict, bound: float | None):
    """Task-specific check of a cli report payload: (ok, oracle_err, detail)."""
    task = raw["task"]
    if task in ("bz-run", "bz-sequence"):
        steps = payload["series"] if task == "bz-sequence" else [payload]
        ok = all(s["bound_check"]["passed"] and s["bound_check"]["shift_ok"] for s in steps)
        return ok, None, f"bound checks passed={ok}"
    if task == "rescaled-growth" and raw["map"] == "identity(k=2)":
        err = max(_rel(row["r_times_rlo"], row["R"]) for row in payload["series"])
        return err <= GROWTH_IDENTITY_RTOL, err, f"identity growth rel err {err:.3g}"
    if task == "counterexample":
        err = _rel(payload["bound"], bound)
        ok = err <= BOUND_RTOL and payload["label"] == "certified"
        return ok, err, f"bound {payload['bound']:.6g} ({payload['label']})"
    return True, None, "exit 0"


def build(name: str, seed: int, tiny: bool, root: Path, workdir: Path) -> list[Task]:
    """Generate and parse the inputs of one workload; returns its task list."""
    if name == "sup-dense":
        return _sup_dense(seed, tiny)
    if name == "landau-shells":
        return _landau_shells(seed, tiny)
    if name == "cli-configs":
        return _cli_configs(seed, tiny, root, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
