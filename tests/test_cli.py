import hashlib
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from holomaplab import cli, conditioning
from holomaplab.cli import ExperimentConfig, _run_task, emit_series, main, run
from holomaplab.errors import ConfigError, UnsupportedPayload

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def load_report(path):
    return json.loads(Path(path).read_text())


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "holomaplab", *args],
        capture_output=True, text=True,
    )


# sampled tasks on expcoord(c=1000, k=2), whose Jacobians overflow
OVERFLOWING_SAMPLER_TASKS = [
    ("kappa-sup", {"radial_shells": 8, "points_per_shell": 48, "refine_steps": 10}),
    ("bz-run", {"C": 12.0, "radial_shells": 8, "points_per_shell": 48, "refine_steps": 12}),
]
FAR_CENTERS = [[[0, 0], [0, 0]], [[0, 0], [1e200, 0]], [[1e200, 0], [0, 0]]]


class TestRun:
    def test_identity_landau(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1,
            "map": "identity(k=2)",
            "task": "landau",
            "seed": 3,
            "params": {"direction_count": 64, "growth_factor": 1.01,
                       "center_candidates": 1, "center_refine_steps": 0},
        })
        out = tmp_path / "r.json"
        assert run(str(cfg), str(out)) == 0
        report = load_report(out)
        assert report["payload"]["r_lo"] >= 0.99
        assert report["payload"]["r_lo_label"] == "sampled"
        assert report["norm"] == "spectral"

    def test_harris_counterexample(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1,
            "map": "harris(n=3)",
            "domain": {"shape": "polydisc", "radius": 1.0},
            "task": "counterexample",
            "seed": 3,
            "params": {"centers_count": 20},
        })
        out = tmp_path / "r.json"
        assert run(str(cfg), str(out)) == 0
        payload = load_report(out)["payload"]
        assert payload["bound"] == pytest.approx(math.sqrt(2 / 3), rel=1e-12)
        assert payload["label"] == "certified"
        assert len(payload["witnesses"]) == 20

    @pytest.mark.parametrize("map_text, params", [
        ("harris(n=3)", {"centers": FAR_CENTERS}),
        ("durenrudin(delta=1.0)", {"centers": FAR_CENTERS}),
        ("durenrudin(delta=1e200)", {"centers_count": 25}),
    ])
    def test_far_centers_certify(self, tmp_path, map_text, params):
        # squares of beta0 = 1e200 (harris), u = 1e200 and delta = 1e200
        # (durenrudin) pass the float range; a circle value past it reads "inf"
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1, "map": map_text, "domain": {"shape": "polydisc"},
            "task": "counterexample", "seed": 5, "params": params,
        })
        out = tmp_path / "r.json"
        assert run(str(cfg), str(out)) == 0
        payload = load_report(out)["payload"]
        assert payload["label"] == "certified"
        values = [w.get("circle_value") for w in payload["witnesses"]]
        assert ("inf" in values) == map_text.startswith("durenrudin")

    def test_malformed_map_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1, "map": "henon(b=0.5", "task": "eval",
            "seed": 1, "params": {"point": [[0, 0], [0, 0]]},
        })
        result = run_cli("run", str(cfg))
        assert result.returncode == 2
        assert "position" in result.stderr

    def test_missing_seed_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1, "map": "identity(k=2)", "task": "landau",
        })
        assert run(str(cfg)) == 2

    def test_default_report_path_keeps_a_dotted_directory(self, tmp_path):
        (tmp_path / "run.v2").mkdir()
        cfg = write_config(tmp_path / "run.v2", "evalcfg", EVAL_CONFIG)
        assert run(str(cfg)) == 0
        assert (tmp_path / "run.v2" / "evalcfg.report.json").is_file()
        assert not (tmp_path / "run.report.json").exists()

    def test_numerical_failure_exits_3_with_partial_report(self, tmp_path):
        # refined-sup at a singular base point
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1,
            "map": "(z1^2, z2)",
            "task": "refined-sup",
            "seed": 2,
            "params": {"base_point": [[0, 0], [0, 0]]},
        })
        out = tmp_path / "r.json"
        assert run(str(cfg), str(out)) == 3
        report = load_report(out)
        assert report["payload"] is None
        assert report["error"]["type"] == "SingularMatrix"

    @pytest.mark.parametrize("task, params", OVERFLOWING_SAMPLER_TASKS)
    def test_overflowing_map_exits_3_with_partial_report(self, tmp_path, task, params):
        # the Jacobians overflow and the SVD raises numpy's LinAlgError
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1, "map": "expcoord(c=1000, k=2)", "task": task,
            "seed": 3, "params": params,
        })
        out = tmp_path / "r.json"
        assert run(str(cfg), str(out)) == 3
        report = load_report(out)
        assert report["payload"] is None
        assert report["error"] is not None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("task, params", OVERFLOWING_SAMPLER_TASKS)
    def test_overflowing_sampler_prints_no_warning(self, tmp_path, task, params):
        # the sampled scorers overflow quietly, so the run still ends on the
        # SVD's LinAlgError, not on a numpy RuntimeWarning turned error
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1, "map": "expcoord(c=1000, k=2)", "task": task,
            "seed": 3, "params": params,
        })
        out = tmp_path / "r.json"
        assert run(str(cfg), str(out)) == 3
        assert load_report(out)["error"]["type"] == "LinAlgError"

    @pytest.mark.filterwarnings("error")
    def test_landau_on_an_overflowing_map_prints_no_warning(self, tmp_path):
        # a warning turned error would end the run with exit 3
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1, "map": "expcoord(c=1000, k=2)", "task": "landau",
            "seed": 3, "params": {},
        })
        assert run(str(cfg), str(tmp_path / "r.json")) == 0

    def test_overflowing_jacobian_stays_a_plain_value_error(self, tmp_path):
        # algebra.as_matrix rejects the computed non-finite Jacobian with a
        # plain ValueError: a numerical failure, not a bad argument
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1, "map": "expcoord(c=1000, k=2)", "task": "refined-sup",
            "seed": 3, "params": {"base_point": [[0.9, 0], [0, 0]]},
        })
        out = tmp_path / "r.json"
        assert run(str(cfg), str(out)) == 3
        assert load_report(out)["error"]["type"] == "ValueError"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_jacobian_prints_no_warning(self, tmp_path):
        # the base point's Jacobian overflows quietly, so the run still ends
        # on invert's ValueError, not on a numpy RuntimeWarning turned error
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1, "map": "expcoord(c=1000, k=2)", "task": "refined-sup",
            "seed": 3, "params": {"base_point": [[0.9, 0], [0, 0]]},
        })
        out = tmp_path / "r.json"
        assert run(str(cfg), str(out)) == 3
        assert load_report(out)["error"]["type"] == "ValueError"

    def test_kappa_sup_counts_are_builtin_ints(self, tmp_path, monkeypatch):
        # numpy integer counts must not break json encoding of the report
        original = conditioning.sup_kappa

        def numpy_counts(*args, **kwargs):
            rep = original(*args, **kwargs)
            return replace(rep, samples_used=np.int64(rep.samples_used),
                           skipped_singular=np.intp(rep.skipped_singular))

        monkeypatch.setattr(conditioning, "sup_kappa", numpy_counts)
        raw = {"schema": 1, "map": "henon(b=0.5)", "task": "kappa-sup", "seed": 4,
               "params": {"radial_shells": 4, "points_per_shell": 16, "refine_steps": 3}}
        payload = _run_task(ExperimentConfig.from_dict(raw))
        assert type(payload["samples_used"]) is int
        assert type(payload["skipped_singular"]) is int
        out = tmp_path / "r.json"
        assert run(str(write_config(tmp_path, "c.json", raw)), str(out)) == 0
        assert load_report(out)["payload"] == payload

    def test_config_echo_round_trips(self, tmp_path):
        cfg_dict = {
            "schema": 1,
            "map": "henon(b=0.5)",
            "task": "eval",
            "seed": 9,
            "params": {"point": [[0.2, 0.0], [0.1, 0.0]]},
        }
        cfg = write_config(tmp_path, "c.json", cfg_dict)
        out = tmp_path / "r.json"
        assert run(str(cfg), str(out)) == 0
        echoed = load_report(out)["config"]
        assert ExperimentConfig.from_dict(echoed) == ExperimentConfig.from_dict(cfg_dict)

    def test_eval_payload_value(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1, "map": "henon(b=0.5)", "task": "eval",
            "seed": 1, "params": {"point": [[0.2, 0.0], [0.1, 0.0]]},
        })
        out = tmp_path / "r.json"
        assert run(str(cfg), str(out)) == 0
        value = load_report(out)["payload"]["value"]
        assert value[0] == pytest.approx([0.09, 0.0], abs=1e-15)
        assert value[1] == pytest.approx([0.2, 0.0], abs=0)


# payload shapes that no bundled config reaches: each raw config, a check of
# the shape it pins, and the SHA-256 of json.dumps(payload, sort_keys=True)
PAYLOAD_PINS = {
    "counterexample_durenrudin": (
        {"map": "durenrudin(delta=0.75)", "domain": {"shape": "polydisc"},
         "task": "counterexample", "seed": 11, "params": {"centers_count": 6}},
        lambda p: sorted(p["witnesses"][0]) == ["center", "circle_value", "theta_star"],
        "a81fd27cfe875be9816ec1173224dade5bfc64a6a89ed5d38035edd4e80410e7",
    ),
    "landau_harris_certified": (
        {"map": "harris(n=3)", "domain": {"shape": "polydisc", "radius": 1.0},
         "task": "landau", "seed": 7,
         "params": {"direction_count": 16, "center_candidates": 1, "center_refine_steps": 0}},
        lambda p: p["r_hi_label"] == "certified",
        "5dd353b95b19068f3e4dbd90be3428982804efa8a7211b59b33df6eb826631e7",
    ),
    "landau_ladder_end": (
        {"map": "identity(k=2)", "task": "landau", "seed": 3,
         "params": {"direction_count": 8, "growth_factor": 1.000001,
                    "center_candidates": 1, "center_refine_steps": 0}},
        lambda p: (p["r_hi"], p["r_hi_label"]) == ("inf", "ladder_end"),
        "545d1c1418d2cd68a2a8e320c87d6954c3be10b30ec5a221c12bd6c8eccdf91d",
    ),
    "kappa_sup_skipped_singular": (
        {"map": "(z1^2, z2)", "task": "kappa-sup", "seed": 4,
         "params": {"radial_shells": 4, "points_per_shell": 16, "refine_steps": 3}},
        lambda p: p["skipped_singular"] > 0,
        "78cfeff64d419bafe9e6b8521faa5814a731df0e7b9799a52350a05ec2e5ad37",
    ),
}


@pytest.mark.parametrize("name", sorted(PAYLOAD_PINS))
def test_payload_pins(name, tmp_path):
    raw, shape, digest = PAYLOAD_PINS[name]
    out = tmp_path / "r.json"
    assert run(str(write_config(tmp_path, "c.json", {"schema": 1, **raw})), str(out)) == 0
    payload = load_report(out)["payload"]
    assert shape(payload)
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("x, encoded", [
    (INF, "inf"),
    (-INF, "-inf"),
    (NAN, "nan"),
    (np.float64(-INF), "-inf"),
    (np.float32(NAN), "nan"),
    (complex(INF, 1.0), ["inf", 1.0]),
    (complex(0.5, -INF), [0.5, "-inf"]),
    (complex(NAN, NAN), ["nan", "nan"]),
    (np.complex128(complex(-INF, NAN)), ["-inf", "nan"]),
    (np.array([1.0, -INF, NAN, INF]), [1.0, "-inf", "nan", "inf"]),
    (np.array([[complex(NAN, INF)]]), [[["nan", "inf"]]]),
    ({"r": (-INF, [NAN])}, {"r": ["-inf", ["nan"]]}),
    (conditioning.ConditionReport(-INF, np.array([NAN]), 3, 1),
     {"sup_estimate": "-inf", "argmax_point": ["nan"], "samples_used": 3,
      "skipped_singular": 1, "norm": "spectral"}),
])
def test_enc_writes_non_finite_floats_as_strict_json(x, encoded):
    assert cli._enc(x) == encoded
    json.dumps(cli._enc(x), allow_nan=False)


EVAL_CONFIG = {"schema": 1, "map": "identity(k=2)", "task": "eval", "seed": 1,
               "params": {"point": [[0.1, 0], [0.2, 0]]}}


def run_args(raw):
    def args(tmp_path):
        return ["run", str(write_config(tmp_path, "c.json", raw)),
                "-o", str(tmp_path / "r.json")]
    args.expect = "error: invalid config"  # how stderr starts when the config is rejected
    return args


def emit_to_missing_dir(tmp_path):
    report = write_config(tmp_path, "report.json", {
        "config": {"task": "landau"}, "payload": {"shells": [[0.1, True]]}})
    return ["emit", str(report), "-o", str(tmp_path / "missing" / "rows.csv")]


def emit_report(raw):
    def args(tmp_path):
        return ["emit", str(write_config(tmp_path, "report.json", raw))]
    return args


LANDAU_CONFIG = dict(EVAL_CONFIG, task="landau", params={})
GROWTH_CONFIG = dict(EVAL_CONFIG, task="rescaled-growth", params={"R_values": [1.0, 0.0]})
COUNTEREXAMPLE_CONFIG = dict(EVAL_CONFIG, map="harris(n=3)", task="counterexample",
                             domain={"shape": "polydisc"}, params={"centers_count": -1})
BZ_RUN_CONFIG = dict(EVAL_CONFIG, task="bz-run")
BZ_SEQUENCE_CONFIG = dict(EVAL_CONFIG, task="bz-sequence")


class TestExitCodeContract:
    @pytest.mark.parametrize("args", [
        run_args(dict(EVAL_CONFIG, domain={"dim": [2]})),
        run_args(dict(EVAL_CONFIG, map=2)),
        run_args(dict(EVAL_CONFIG, seed=True)),
        run_args(dict(EVAL_CONFIG, output=["r.json"])),
        run_args(dict(EVAL_CONFIG, params={"point": [["a", 0], [0, 0]]})),
        run_args(dict(EVAL_CONFIG, task="kappa-sup", params={"radial_shells": "x"})),
        run_args(dict(EVAL_CONFIG, task="landau", params={"tolerance": 0})),
        run_args(dict(EVAL_CONFIG, task="landau", params={"continuation_steps": 8})),
        run_args(dict(LANDAU_CONFIG, params={"center_candidates": 0})),
        run_args(dict(LANDAU_CONFIG, params={"growth_factor": 1})),
        run_args(dict(LANDAU_CONFIG, params={"direction_count": 0})),
        run_args(GROWTH_CONFIG),
        run_args(COUNTEREXAMPLE_CONFIG),
        emit_to_missing_dir,
        emit_report([]),
        emit_report({"payload": {"series": 3}, "config": {"task": "bz-sequence"}}),
        # range rules the library owns and checks at entry
        run_args(dict(BZ_RUN_CONFIG, params={"C": 0.5})),
        run_args(dict(BZ_RUN_CONFIG, params={"C": 2.0, "grid_factor": 0})),
        run_args(dict(LANDAU_CONFIG, params={"tolerance": -1e-8})),
        run_args(dict(LANDAU_CONFIG, params={"center_refine_steps": -1})),
        run_args(dict(EVAL_CONFIG, task="kappa-sup", domain={"radius": -1}, params={})),
        run_args(dict(GROWTH_CONFIG, params={"R_values": [1, -1]})),
        run_args(dict(GROWTH_CONFIG, params={"R_values": [1, 1e-320]})),  # 1/R overflows
        # the CLI's own rule on n_values
        run_args(dict(BZ_SEQUENCE_CONFIG, params={"C": 2.0, "n_values": [0]})),
        run_args(dict(BZ_SEQUENCE_CONFIG, params={"C": 2.0, "n_values": [1.5]})),
        run_args(dict(BZ_SEQUENCE_CONFIG, params={"C": 2.0, "n_values": [True]})),
        run_args(dict(BZ_SEQUENCE_CONFIG, params={"C": 2.0, "n_values": [10**400]})),
        # int params given as floats
        run_args(dict(EVAL_CONFIG, task="kappa-sup", params={
            "radial_shells": 1.5, "points_per_shell": 4.9, "refine_steps": 0})),
        # at 1 every Jacobian is singular
        run_args(dict(EVAL_CONFIG, task="kappa-sup", params={"exclusion_tolerance": 1.5})),
        # params that no code reads, or that are no longer settings
        run_args(dict(EVAL_CONFIG, task="refined-sup", params={
            "base_point": [[0.1, 0], [0, 0]], "exclusion_tolerance": 1e-10})),
        run_args(dict(COUNTEREXAMPLE_CONFIG, params={"centers_scale": 1.0})),
        run_args(dict(LANDAU_CONFIG, params={"max_iterations": 40})),
        # counts that size an array beyond what can be allocated
        run_args(dict(EVAL_CONFIG, task="kappa-sup", params={"radial_shells": 10**400})),
        run_args(dict(EVAL_CONFIG, task="kappa-sup", params={"points_per_shell": 10**400})),
        run_args(dict(LANDAU_CONFIG, params={"direction_count": 10**400})),
        run_args(dict(LANDAU_CONFIG, params={"center_candidates": 10**400})),
        run_args(dict(COUNTEREXAMPLE_CONFIG, params={"centers_count": 10**400})),
        # a real param or coordinate takes only a JSON number
        run_args(dict(BZ_RUN_CONFIG, params={"C": "12"})),
        run_args(dict(BZ_RUN_CONFIG, params={"C": True})),
        run_args(dict(LANDAU_CONFIG, params={"growth_factor": "1.5"})),
        run_args(dict(LANDAU_CONFIG, params={"tolerance": "1e-8"})),
        run_args(dict(GROWTH_CONFIG, params={"R_values": [1, "2"]})),
        run_args(dict(EVAL_CONFIG, params={"point": [["0.2", False], [0.1, 0]]})),
        run_args(dict(EVAL_CONFIG, domain={"radius": "1"})),
    ], ids=["dim-list", "map-number", "seed-bool", "output-list", "point-entry",
            "param-cast", "newton-validation", "continuation-steps", "center-candidates",
            "growth-factor", "direction-count", "r-values", "centers-count",
            "emit-unwritable", "emit-report-list", "emit-series-number",
            "bz-c-below-1", "bz-grid-factor", "newton-tolerance-inf", "center-refine-steps",
            "domain-radius-inf", "r-values-negative", "r-values-inf", "n-values-zero",
            "n-values-float", "n-values-bool", "n-values-huge", "int-param-float",
            "exclusion-tolerance-1.5",
            "refined-sup-exclusion", "centers-scale", "max-iterations",
            "radial-shells-huge", "points-per-shell-huge", "direction-count-huge",
            "center-candidates-huge", "centers-count-huge", "c-string", "c-bool",
            "growth-factor-string", "tolerance-string", "r-values-string",
            "point-string-bool", "domain-radius-string"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, args):
        assert main(args(tmp_path)) == 2
        assert capsys.readouterr().err.startswith(getattr(args, "expect", "error:"))
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("raw", [
        dict(EVAL_CONFIG, params={"point": [[math.nan, 0], [0, 0]]}),
        dict(EVAL_CONFIG, task="jacobian", params={"point": [[0, 0], [0, math.inf]]}),
        dict(COUNTEREXAMPLE_CONFIG, params={"centers": [[[math.nan, 0], [0, 0]]]}),
        dict(COUNTEREXAMPLE_CONFIG, params={"centers": [[[0, 0], [-math.inf, 0]]]}),
    ], ids=["point-nan", "point-inf", "center-nan", "center-inf"])
    def test_non_finite_point_is_a_config_error(self, raw):
        # a config file cannot hold these numbers, a from_dict caller can
        cfg = ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError, match="must be finite"):
            _run_task(cfg)

    @pytest.mark.parametrize("command", ["run", "parse-check"])
    @pytest.mark.parametrize("text", [
        "compose(henon(b=0.5), identity(k=3))",
        "affine([1,2,3], [[1,0],[0,1]], identity(k=2))",
        "linear(a=[[1,2]])",
        "scalar(s=0, identity(k=2))",
        "dilate(0, identity(k=2))",
        # a constant that is not finite, or whose inverse or merged sum is not
        "henon(b=1e400)",
        "expcoord(c=1e400i, k=2)",
        "scalar(s=1e400, identity(k=2))",
        "durenrudin(delta=1e-320)",  # 1/delta overflows
        "dilate(1e-320, identity(k=2))",
        "(1e308*10*z1, z2)",
        "(1e308*z1 + 1e308*z1, z2)",  # the merged coefficient overflows
    ])
    def test_rejected_constructor_exits_2(self, tmp_path, capsys, command, text):
        # a constructor's own check fails after the text has parsed; the
        # error points at the constructor's name or at the tuple's "("
        if command == "run":
            args = run_args(dict(EVAL_CONFIG, map=text))(tmp_path)
        else:
            args = ["parse-check", text]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "at position 0" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["run", "parse-check"])
    @pytest.mark.parametrize("text, position", [("é", 0), ("henon(b=²)", 8)])
    def test_rejected_character_exits_2(self, tmp_path, capsys, command, text, position):
        # str.isalpha and str.isdigit accept these, the grammar does not
        if command == "run":
            args = run_args(dict(EVAL_CONFIG, map=text))(tmp_path)
        else:
            args = ["parse-check", text]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"unexpected character {text[position]!r} at position {position}" in err
        assert not (tmp_path / "r.json").exists()


def reject_constant(token):
    raise ValueError(f"{token} is not a JSON number")


class TestReportFile:
    """A report file is one line of sorted-key strict JSON, and a config
    number a report could not repeat as JSON exits 2."""

    def test_report_is_one_line_of_sorted_keys(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(str(CONFIG_DIR / "bz_sequence_linear.json"), str(out)) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_non_finite_value_is_strict_json(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1, "map": "(z1^2, z2)", "task": "kappa-sup", "seed": 1,
            "params": {"exclusion_tolerance": 0, "radial_shells": 3, "points_per_shell": 8,
                       "refine_steps": 0}})
        out = tmp_path / "r.json"
        assert run(str(cfg), str(out)) == 0
        text = out.read_text()
        report = json.loads(text, parse_constant=reject_constant)
        assert report["payload"]["sup_estimate"] == "inf"
        assert text == json.dumps(report, sort_keys=True, allow_nan=False) + "\n"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_config_number_exits_2(self, tmp_path, capsys, token):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"schema": 1, "map": "linear(a=[[{n}, 0], [0, {n}]])", '
                       '"task": "bz-sequence", "seed": 1, '
                       f'"params": {{"C": {token}, "n_values": []}}}}')
        assert main(["run", str(cfg), "-o", str(tmp_path / "r.json")]) == 2
        assert f"{token} is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("params, rule", [
        ({"C": -1, "grid_factor": -3}, "c_bound"),
        ({"C": 2.0, "grid_factor": -3}, "grid_factor"),
    ])
    def test_empty_sequence_checks_its_bounds(self, tmp_path, capsys, params, rule):
        args = run_args(dict(BZ_SEQUENCE_CONFIG, params={**params, "n_values": []}))
        assert main(args(tmp_path)) == 2
        assert f"invalid config: {rule} must be" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["run", "emit"])
    def test_undecodable_input_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "in.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main([command, str(path)]) == 2
        assert "can't decode" in capsys.readouterr().err


class TestEmit:
    def test_bz_sequence_rows(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(str(CONFIG_DIR / "bz_sequence_linear.json"), str(out)) == 0
        text = emit_series(load_report(out), "rows")
        lines = text.strip().splitlines()
        assert lines[0] == "n,lambda"
        assert lines[1:] == [f"{n},{float(n)}" for n in range(1, 6)]

    def test_rescaled_growth_rows(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(str(CONFIG_DIR / "rescaled_growth_identity.json"), str(out)) == 0
        lines = emit_series(load_report(out), "rows").strip().splitlines()
        assert lines[0] == "R,r_times_rlo"
        values = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        for R, v in values:
            assert v == pytest.approx(R, rel=0.02)

    def test_landau_rows_end_near_sigma_min(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(str(CONFIG_DIR / "landau_linear.json"), str(out)) == 0
        lines = emit_series(load_report(out), "rows").strip().splitlines()
        assert lines[0] == "radius,all_certified"
        certified = [float(ln.split(",")[0]) for ln in lines[1:] if ln.endswith(",1")]
        assert certified
        assert certified[-1] == pytest.approx(0.5, rel=0.05)

    def test_structured_mirrors_payload(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(str(CONFIG_DIR / "eval_henon.json"), str(out)) == 0
        report = load_report(out)
        assert json.loads(emit_series(report, "structured")) == report["payload"]

    def test_unsupported_payload(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(str(CONFIG_DIR / "eval_henon.json"), str(out)) == 0
        with pytest.raises(UnsupportedPayload):
            emit_series(load_report(out), "rows")

    def test_emit_cli_roundtrip(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(str(CONFIG_DIR / "bz_sequence_linear.json"), str(out)) == 0
        result = run_cli("emit", str(out), "--format", "rows")
        assert result.returncode == 0
        assert result.stdout.startswith("n,lambda")


class TestSmallCommands:
    def test_parse_check_ok(self):
        result = run_cli("parse-check", "compose(henon(b=0.5), expcoord(c=0.1, k=2))")
        assert result.returncode == 0
        assert "k=2" in result.stdout

    def test_parse_check_error_position(self):
        result = run_cli("parse-check", "henon(b=)")
        assert result.returncode == 2
        assert "position" in result.stderr

    def test_list_builtins(self):
        # the signatures derive from the node fields; this pins them
        result = run_cli("list-builtins")
        assert result.returncode == 0
        assert result.stdout == (
            "identity(k=<int>)\n"
            "linear(a=<matrix>)\n"
            "translation(t=<vector>)\n"
            "henon(b=<complex>)\n"
            "harris(n=<int>)\n"
            "durenrudin(delta=<real>)\n"
            "expcoord(c=<complex>, k=<int>)\n"
            "scalar(s=<complex>, <map>)\n"
            "compose(<map>, <map>)\n"
            "affine(<vector>, <matrix>, <map>)\n"
            "dilate(<real>, <map>)\n"
            "(<poly>, ..., <poly>)    polynomials in z1..zk\n"
        )


def _single_map_configs():
    return [p for p in sorted(CONFIG_DIR.glob("*.json"))
            if not cli._REGISTRY[json.loads(p.read_text())["task"]].template]


def parsed_texts(monkeypatch):
    """Record the text of every cli.parse call."""
    texts = []
    original = cli.parse

    def counting(text, *args, **kwargs):
        texts.append(text)
        return original(text, *args, **kwargs)

    monkeypatch.setattr(cli, "parse", counting)
    return texts


class TestBundledConfigsValidate:
    @pytest.mark.parametrize("path", _single_map_configs(), ids=lambda p: p.stem)
    def test_run_parses_the_map_once(self, path, tmp_path, monkeypatch):
        texts = parsed_texts(monkeypatch)
        assert run(str(path), str(tmp_path / "r.json")) == 0
        assert texts == [json.loads(path.read_text())["map"]]

    def test_bz_sequence_reuses_the_parsed_first_member(self, tmp_path, monkeypatch):
        # the config parses the member at n = 1; the run parses only n = 2..5
        texts = parsed_texts(monkeypatch)
        assert run(str(CONFIG_DIR / "bz_sequence_linear.json"), str(tmp_path / "r.json")) == 0
        assert len(texts) == 5
        assert len(set(texts)) == 5

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_config_parses(self, path):
        ExperimentConfig.from_dict(json.loads(path.read_text()))
