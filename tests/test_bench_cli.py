from __future__ import annotations

import ast
import csv
import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

import cqd.bench_cli as bench_cli
from cqd.bench_cli import (
    ConvergeConfig,
    EnsembleConfig,
    ProjOptConfig,
    RateDistConfig,
    Report,
    TailBoundConfig,
    emit_report,
    exp_convergence,
    exp_ensemble_variance,
    exp_projector_optimality,
    exp_rate_distortion,
    exp_tail_bound,
    gen_synthetic,
    main,
)
from cqd.tensor_core import hosvd


def test_gen_synthetic_zero_noise_floor():
    instance, target = gen_synthetic((4, 5, 6), (2, 2, 2), 0.0, 0)
    assert np.array_equal(instance, target)


def test_gen_synthetic_target_has_exact_rank():
    _, target = gen_synthetic((5, 5, 5), (2, 3, 2), 0.1, 1)
    f = hosvd(target)
    for mode, r in enumerate((2, 3, 2)):
        assert f.svals[mode][r - 1] > 1e-10
        if r < f.svals[mode].size:
            assert f.svals[mode][r] <= 1e-10


def test_gen_synthetic_deterministic():
    a = gen_synthetic((4, 4, 4), (2, 2, 2), 0.3, 7)
    b = gen_synthetic((4, 4, 4), (2, 2, 2), 0.3, 7)
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1].tobytes() == b[1].tobytes()


@pytest.mark.parametrize(
    "shape, ranks",
    [((4, 5, 6), (2, 2, 2)), ((6, 6, 6), (2, 3, 2)), ((12, 12, 12), (4, 4, 4)), ((48, 48, 48), (2, 2, 2))],
)
def test_gen_synthetic_instance_has_the_bits_of_target_plus_scaled_noise(shape, ranks):
    instance, target = gen_synthetic(shape, ranks, 0.3, 11)
    rng = np.random.default_rng(11)  # gen_synthetic's draws: core, three factors, noise
    rng.standard_normal(ranks)
    for n, r in zip(shape, ranks):
        rng.standard_normal((n, r))
    assert instance.tobytes() == (target + 0.3 * rng.standard_normal(shape)).tobytes()


def test_gen_synthetic_validates_ranks():
    with pytest.raises(ValueError):
        gen_synthetic((3, 3, 3), (4, 2, 2), 0.0, 0)


@pytest.mark.parametrize("noise_floor", [-0.1, float("nan"), float("inf")])
def test_gen_synthetic_rejects_noise_floors_that_are_not_finite_and_nonnegative(noise_floor):
    # nan used to pass `noise_floor < 0` and give the unperturbed target.
    with pytest.raises(ValueError, match="noise_floor"):
        gen_synthetic((3, 3, 3), (2, 2, 2), noise_floor, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        ConvergeConfig(seeds=())
    with pytest.raises(ValueError):
        ConvergeConfig(shape=(0, 2, 2))


# A count below 1 leaves an experiment nothing to check, so its report would
# read PASS on no rows; such a config is refused when it is built.
@pytest.mark.parametrize("field, value", [
    ("iters", 0), ("grid_points", 0), ("trials", 0), ("n_projectors", 0),
    ("n_instances", 0), ("m_values", ()), ("m_values", (1, 0)), ("iters", -1),
])
def test_config_rejects_counts_below_one(field, value):
    for config_class, _ in bench_cli.EXPERIMENTS.values():
        if field in {f.name for f in dataclasses.fields(config_class)}:
            with pytest.raises(ValueError, match="at least 1|non-empty"):
                config_class(**{field: value})


def test_an_experiment_refuses_another_experiments_config():
    # A converge config has no n_instances, so the tail-bound experiment
    # cannot run on it, cut down to its first seed and a cube of side 4.
    with pytest.raises(AttributeError, match="n_instances"):
        exp_tail_bound(ConvergeConfig(shape=(4, 2, 2), seeds=(3, 4, 5)))


@pytest.mark.parametrize("argv", [
    ["converge", "--seed-list", ""],
    ["tailbound", "--shape", "0,2,2"],
    ["ratedist", "--grid-points", "0"],
    ["tailbound", "--instances", "0"],
    ["ensemble", "--m-list", ""],
    ["projopt", "--projectors", "0"],
    ["converge", "--iters", "0"],
    ["converge", "--tau", "0"],
    ["converge", "--ranks", "9,2,2"],
    ["projopt", "--shape", "6,6,6"],
    # Inputs the experiment would otherwise cut down without a word: tailbound
    # reads only the first seed and the largest side, projopt the first rank.
    ["tailbound", "--seed-list", "3,4,5"],
    pytest.param(["tailbound", "--shape", "4,1,1"], id="tailbound --shape 4,1,1"),
    pytest.param(["tailbound", "--shape", "4"], id="tailbound --shape 4"),
    ["projopt", "--ranks", "2,5,7"],
    # Values that used to fail inside the run with a traceback (exit 1).
    pytest.param(["converge", "--sigma", "nan"], id="converge --sigma nan"),
    pytest.param(["ensemble", "--sigma", "inf"], id="ensemble --sigma inf"),
    pytest.param(["converge", "--eps", "0"], id="converge --eps 0"),
    pytest.param(["ensemble", "--eps", "1"], id="ensemble --eps 1"),
    pytest.param(["converge", "--ranks", "1,2,3"], id="converge --ranks 1,2,3"),
    pytest.param(["projopt", "--seed-list=-1"], id="projopt --seed-list=-1"),
    pytest.param(["converge", "--noise-floor", "-1"], id="converge --noise-floor -1"),
    pytest.param(["ratedist", "--lambda", "nan"], id="ratedist --lambda nan"),
    # Seeds the query header cannot carry: converge's task_id is a uint32,
    # ensemble's seed field a uint64.
    pytest.param(["converge", "--seed-list", "4294967296"], id="converge --seed-list 2**32"),
    pytest.param(["ensemble", "--seed-list", "18446744073709551616"],
                 id="ensemble --seed-list 2**64"),
    # The variance check compares each m with the next: 16,1 used to fail a correct oracle.
    pytest.param(["ensemble", "--m-list", "16,1", "--trials", "1", "--seed-list", "0"],
                 id="ensemble --m-list 16,1"),
    pytest.param(["ensemble", "--m-list", "4,4", "--trials", "1", "--seed-list", "0"],
                 id="ensemble --m-list 4,4"),
], ids=lambda argv: " ".join(argv[:2]))
def test_cli_turns_config_errors_into_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cqd-bench")
    assert f"error: {argv[0]}: " in err


def test_projector_optimality_experiment():
    cfg = ProjOptConfig(shape=(6, 8), ranks=(2,), seeds=(0, 1, 2), n_projectors=100)
    report = exp_projector_optimality(cfg)
    assert report.ok
    assert len(report.rows) == 3
    assert all(r["violations"] == 0 for r in report.rows)
    assert all(r["best_random_residual_sq"] > r["optimal_residual_sq"] for r in report.rows)


def test_projector_optimality_full_rank_trivial():
    cfg = ProjOptConfig(shape=(4, 6), ranks=(4,), seeds=(0,), n_projectors=20)
    report = exp_projector_optimality(cfg)
    assert report.ok
    assert report.rows[0]["optimal_residual_sq"] <= 1e-18


def test_projector_optimality_on_exact_rank_matrix():
    # Truncating an exactly rank-2 matrix at rank 2 leaves zero residual,
    # while random rank-2 projectors generically miss the row space.
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 8))
    svals = np.linalg.svd(a, compute_uv=False)
    optimal = float(np.sum(svals[2:] ** 2))
    assert optimal <= 1e-18
    from cqd.manifold import qr_retraction

    for _ in range(25):
        v = qr_retraction(rng.standard_normal((6, 2))).u
        assert np.sum((a - v @ (v.T @ a)) ** 2) > optimal


def test_tail_bound_experiment():
    cfg = TailBoundConfig(shape=(4, 4, 4), seeds=(0,), n_instances=8)
    report = exp_tail_bound(cfg)
    assert report.ok
    assert len(report.rows) == 8
    assert all(r["max_slack_ratio"] <= 1.0 + 1e-6 for r in report.rows)


def test_convergence_experiment_small():
    cfg = ConvergeConfig(seeds=(0, 1), iters=600)
    report = exp_convergence(cfg)
    assert report.ok
    assert len(report.rows) == 2 * 3  # seeds x variants
    rm = [r for r in report.rows if r["variant"] == "rm_noisy"]
    assert all(r["crossing_iter"] >= 0 for r in rm)
    det = [r for r in report.rows if r["variant"] == "deterministic"]
    assert all(r["min_loss"] < 1e-8 for r in det)
    neg = [r for r in report.rows if r["variant"] == "negative_control"]
    assert all(r["diverged"] == 1 for r in neg)


def test_convergence_run_that_stops_at_k0_fails_its_report(capsys):
    # The loss overflows at k=0, so every trace is empty; the statistics of
    # a row used to raise IndexError from the empty running minimum.
    rc = main(["converge", "--noise-floor", "1e200", "--seed-list", "0", "--iters", "5"])
    assert rc == 1
    assert capsys.readouterr().out.endswith("converge: 3 rows, overall FAIL\n")
    report = exp_convergence(ConvergeConfig(seeds=(0,), iters=5, noise_floor=1e200))
    for row in report.rows:
        assert row["iters_run"] == 0 and row["crossing_iter"] == -1 and row["diverged"] == 0
        assert row["error"] == "loss at k=0: non-finite loss inf"
        assert all(np.isnan(row[c]) for c in ("min_running_grad_sq", "final_loss", "min_loss"))
    # No run made an iteration, so no budget was respected; it used to PASS vacuously.
    assert report.passed["budget_respected"] is False


def test_rate_distortion_experiment():
    cfg = RateDistConfig(seeds=(0, 1), grid_points=20)
    report = exp_rate_distortion(cfg)
    assert report.ok
    assert len(report.rows) == 2 * 20
    # endpoints of the sweep: near-1 eps gives minimal budget, tiny eps full rank
    for seed in (0, 1):
        rows = [r for r in report.rows if r["seed"] == seed]
        assert rows[0]["budget"] <= rows[-1]["budget"]
        assert rows[0]["distortion"] >= rows[-1]["distortion"]
        assert rows[-1]["budget"] == 6 * 6 * 6
        assert rows[-1]["distortion"] <= 1e-18
    assert report.summary["payload_ratio_2x2x2_in_20x20x20"] == 1e-3


def test_ensemble_variance_experiment():
    cfg = EnsembleConfig(sigma=0.5, seeds=(0,), trials=400, m_values=(1, 4, 16))
    report = exp_ensemble_variance(cfg)
    assert report.ok
    variances = [r["variance"] for r in report.rows]
    assert variances == sorted(variances, reverse=True)
    for row in report.rows:
        assert 0.8 <= row["ratio"] <= 1.25


def test_ensemble_zero_noise_all_zero_variance():
    cfg = EnsembleConfig(sigma=0.0, seeds=(0,), trials=10, m_values=(1, 4))
    report = exp_ensemble_variance(cfg)
    assert all(r["variance"] == 0.0 for r in report.rows)
    # zero expected variance: band check is skipped, decrease cannot be strict
    assert report.passed["ratio_in_band"]


def test_emit_report_csv_and_json_round_trip(tmp_path):
    cfg = ProjOptConfig(shape=(6, 8), ranks=(2,), seeds=(0,), n_projectors=10)
    report = exp_projector_optimality(cfg)
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    emit_report(report, csv_path, "csv")
    emit_report(report, json_path, "json")

    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report.rows)
    assert set(rows[0]) == set(report.columns)

    doc = json.loads(json_path.read_text())
    assert doc["experiment"] == "projopt"
    assert doc["passed"] == report.passed
    assert doc["rows"] == report.rows
    # Every number is in the rows; summary holds only what an experiment writes there.
    assert set(doc) == {"experiment", "config", "columns", "rows", "summary", "passed"}
    assert doc["summary"] == {}


def test_emit_report_empty_rows_header_only(tmp_path):
    report = Report("projopt", {}, ("a", "b"), rows=[], summary={}, passed={"ok": True})
    path = tmp_path / "empty.csv"
    emit_report(report, path, "csv")
    assert path.read_bytes() == b"a,b\r\n"
    emit_report(report, tmp_path / "empty.json", "json")
    assert json.loads((tmp_path / "empty.json").read_text())["rows"] == []


def test_emit_report_deterministic_bytes(tmp_path):
    cfg = RateDistConfig(seeds=(0,), grid_points=10)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(exp_rate_distortion(cfg), p1, "json")
    emit_report(exp_rate_distortion(cfg), p2, "json")
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_report_unknown_format(tmp_path):
    report = Report("projopt", {}, ("a",), rows=[], summary={}, passed={})
    with pytest.raises(ValueError):
        emit_report(report, tmp_path / "x.yaml", "yaml")


def test_emit_report_unwritable_path():
    report = Report("projopt", {}, ("a",), rows=[], summary={}, passed={})
    with pytest.raises(OSError):
        emit_report(report, "/nonexistent-dir/x.json", "json")


def test_cli_exit_codes_and_output(tmp_path, capsys):
    out = tmp_path / "proj.json"
    rc = main([
        "projopt", "--seed-list", "0,1", "--projectors", "25",
        "--out", str(out), "--format", "json",
    ])
    assert rc == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "[PASS] projopt: zero_violations" in captured


def test_cli_seed_and_shape_parsing(tmp_path):
    rc = main([
        "tailbound", "--seed-list", "3", "--instances", "4",
        "--shape", "3,3,3", "--out", str(tmp_path / "t.csv"), "--format", "csv",
    ])
    assert rc == 0
    text = (tmp_path / "t.csv").read_text()
    assert text.startswith("instance,shape,n_triples,violations,max_slack_ratio")


# Each subcommand's config at its defaults, spelled out field by field, so
# that no default changes unnoticed.
_SYNTHETIC = dict(shape=(6, 6, 6), ranks=(2, 2, 2), seeds=tuple(range(10)), noise_floor=0.1)
PINNED_DEFAULTS = {
    "projopt": dict(shape=(6, 8), ranks=(2,), seeds=tuple(range(20)), n_projectors=500),
    "tailbound": dict(shape=(5, 5, 5), seeds=(0,), n_instances=100),
    "converge": dict(_SYNTHETIC, sigma=0.1, iters=5000, eps0=0.1, tau=27),
    "ratedist": dict(_SYNTHETIC, lam=0.1, grid_points=50),
    "ensemble": dict(_SYNTHETIC, sigma=0.5, eps0=0.1, trials=2000, m_values=(1, 4, 16, 64)),
}
# Each subcommand's flags: one per field of its config class.
OWN_FLAGS = {
    "projopt": {"--shape", "--ranks", "--seed-list", "--projectors"},
    "tailbound": {"--shape", "--seed-list", "--instances"},
    "converge": {"--shape", "--ranks", "--sigma", "--seed-list", "--iters", "--eps", "--tau",
                 "--noise-floor"},
    "ratedist": {"--shape", "--ranks", "--seed-list", "--lambda", "--noise-floor", "--grid-points"},
    "ensemble": {"--shape", "--ranks", "--sigma", "--seed-list", "--eps", "--noise-floor",
                 "--trials", "--m-list"},
}
# Every config flag, with a non-default value as typed and as it lands in its field.
FLAG_VALUES = {
    "--shape": ("4,5,6", "shape", (4, 5, 6)),
    "--ranks": ("1,2,3", "ranks", (1, 2, 3)),
    "--sigma": ("0.2", "sigma", 0.2),
    "--seed-list": ("3,4", "seeds", (3, 4)),
    "--iters": ("7", "iters", 7),
    "--eps": ("0.3", "eps0", 0.3),
    "--tau": ("9", "tau", 9),
    "--lambda": ("0.4", "lam", 0.4),
    "--noise-floor": ("0.05", "noise_floor", 0.05),
    "--grid-points": ("11", "grid_points", 11),
    "--trials": ("12", "trials", 12),
    "--projectors": ("13", "n_projectors", 13),
    "--instances": ("14", "n_instances", 14),
    "--m-list": ("2,3", "m_values", (2, 3)),
}
# projopt takes a matrix and one rank, tailbound one seed and a cube, and the
# others ranks some tensor has: no rank above the product of the other two.
_RANKS_122 = {"--ranks": ("1,2,2", "ranks", (1, 2, 2))}
FLAG_VALUES_FOR = {
    "projopt": {"--shape": ("4,5", "shape", (4, 5)), "--ranks": ("3", "ranks", (3,))},
    "tailbound": {"--shape": ("4,4,4", "shape", (4, 4, 4)), "--seed-list": ("3", "seeds", (3,))},
    "converge": _RANKS_122,
    "ratedist": _RANKS_122,
    "ensemble": _RANKS_122,
}


def typed(cfg) -> dict:
    """Field values with their types: a report writes 27 and 27.0 differently."""
    fields = cfg if isinstance(cfg, dict) else dataclasses.asdict(cfg)
    return {k: (type(v), v) for k, v in fields.items()}


def run_main(monkeypatch, argv):
    """main(argv) with the experiment and the report writer replaced by recorders."""
    seen = {}

    def experiment(cfg):
        seen["cfg"] = cfg
        return Report(argv[0], {}, ())

    config_class, _ = bench_cli.EXPERIMENTS[argv[0]]
    monkeypatch.setitem(bench_cli.EXPERIMENTS, argv[0], (config_class, experiment))
    monkeypatch.setattr(bench_cli, "emit_report", lambda report, path, fmt: seen.update(out=(path, fmt)))
    assert main(argv) == 0
    return seen


@pytest.mark.parametrize("name", sorted(PINNED_DEFAULTS))
def test_cli_defaults_are_pinned(monkeypatch, name):
    cfg = run_main(monkeypatch, [name])["cfg"]
    assert type(cfg) is bench_cli.EXPERIMENTS[name][0]
    assert typed(cfg) == typed(PINNED_DEFAULTS[name])


@pytest.mark.parametrize("name", sorted(PINNED_DEFAULTS))
def test_cli_offers_exactly_its_own_flags(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    offered = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert offered == OWN_FLAGS[name] | {"--out", "--format", "--help"}
    for flag in sorted(set(FLAG_VALUES) - OWN_FLAGS[name]) + ["--eta0", "--k0"]:
        with pytest.raises(SystemExit) as exc:
            main([name, flag, FLAG_VALUES.get(flag, ("1",))[0]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cqd-bench")
        assert f"unrecognized arguments: {flag} " in err


def test_cli_every_flag_lands_in_its_field(monkeypatch):
    for name, flags in OWN_FLAGS.items():
        values = {**FLAG_VALUES, **FLAG_VALUES_FOR.get(name, {})}
        argv = [name, "--out", "x.csv", "--format", "csv"]
        expected = dict(PINNED_DEFAULTS[name])
        for flag in sorted(flags):
            text, field_name, value = values[flag]
            argv += [flag, text]
            expected[field_name] = value
        seen = run_main(monkeypatch, argv)
        assert seen["out"] == ("x.csv", "csv")
        assert typed(seen["cfg"]) == typed(expected)


def config_fields_read(name: str, defs: dict) -> set:
    """Fields of `cfg` read in module function `name` and the module functions it calls."""
    read, todo, done = set(), [name], set()
    while todo:
        fn = todo.pop()
        done.add(fn)
        for node in ast.walk(defs[fn]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cfg":
                read.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in defs.keys() - done:
                todo.append(node.func.id)
    return read


def test_each_subcommand_flags_exactly_the_fields_its_experiment_reads():
    # A subcommand's flags are its config class's fields.
    module = ast.parse(inspect.getsource(bench_cli))
    defs = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}
    for name, (config_class, fn) in bench_cli.EXPERIMENTS.items():
        read = config_fields_read(fn.__name__, defs)
        assert read == {f.name for f in dataclasses.fields(config_class)}, name


def _wrap(owner, name, how):
    """A break that replaces owner.name with how(the original)."""
    def patch(monkeypatch, cfg):
        monkeypatch.setattr(owner, name, how(getattr(owner, name)))
        return cfg
    return patch


_CONVERGE = ConvergeConfig(seeds=(0,), iters=600)
_RATEDIST = RateDistConfig(seeds=(0,), grid_points=10)


# Every certificate but budget_respected (see the k=0 test above), and a way to
# break the property it certifies: the report must then FAIL that flag.
@pytest.mark.parametrize("cfg, brk, flags", [
    pytest.param(ProjOptConfig(seeds=(0, 1), n_projectors=100),
                 _wrap(np.linalg, "svd", lambda svd: lambda *a, **k: 2 * svd(*a, **k)),
                 ("zero_violations",), id="projopt-svals-doubled"),
    pytest.param(TailBoundConfig(shape=(4, 4, 4), n_instances=3),
                 _wrap(bench_cli, "tail_energy", lambda tail: lambda f, r: tail(f, r) / 2),
                 ("zero_violations",), id="tailbound-bound-halved"),
    pytest.param(_RATEDIST,
                 _wrap(bench_cli, "mask_factorization", lambda mask: lambda f, e: mask(f, 1 - e)),
                 ("frontier_monotone",), id="ratedist-eps-reversed"),
    pytest.param(_RATEDIST,
                 _wrap(bench_cli, "encode", lambda enc: lambda *a: enc(*a) + bytes(8)),
                 ("compression_ratio_1e_3",), id="ratedist-payload-padded"),
    pytest.param(EnsembleConfig(seeds=(0,), trials=100, m_values=(1, 4, 16)),
                 _wrap(bench_cli, "ensemble_infer",
                       lambda infer: lambda oracle, q, m, **kw: infer(oracle, q, 1, **kw)),
                 ("ratio_in_band", "variance_strictly_decreasing"), id="ensemble-m-ignored"),
    pytest.param(_CONVERGE, lambda monkeypatch, cfg: dataclasses.replace(cfg, iters=2),
                 ("median_grad_crossing",), id="converge-two-iterations"),
    pytest.param(_CONVERGE, _wrap(bench_cli, "DETERMINISTIC_MAX_ITERS", lambda _: 2),
                 ("deterministic_contraction",), id="converge-deterministic-cut-short"),
    pytest.param(_CONVERGE, _wrap(bench_cli, "NEGATIVE_CONTROL_ETA", lambda _: 0.01),
                 ("divergence_detected",), id="converge-control-step-small"),
])
def test_every_certificate_fails_when_its_property_breaks(monkeypatch, cfg, brk, flags):
    experiment = next(fn for cls, fn in bench_cli.EXPERIMENTS.values() if type(cfg) is cls)
    intact = experiment(cfg).passed
    assert all(intact[flag] for flag in flags)
    broken = experiment(brk(monkeypatch, cfg)).passed
    assert {flag: broken[flag] for flag in flags} == dict.fromkeys(flags, False)
    # The break fails its own flags only.
    assert {k: v for k, v in broken.items() if k not in flags} == {
        k: v for k, v in intact.items() if k not in flags}
