"""CLI surface: output schemas, determinism, config merging, exit codes."""

from __future__ import annotations

import csv
import hashlib
import io
import json

import numpy as np
import pytest

from streamcode import cli, gf2, sw_binning
from streamcode.cli import main
from streamcode.gaussian_stream import QUANT_GAP
from streamcode.markov import BinarySymmetricChain
from streamcode.rates import RateQuery, r_delay, r_plus
from streamcode.sources import SemiDetSpec

from helpers import h_b


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_rates_chain_known_value(capsys):
    code, out, _ = run_cli(["rates", "--flip", "0.25", "--B", "1", "--W", "0"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [r["scheme"] for r in rows] == ["r_plus", "r_minus"]
    assert rows[0]["rate"] == rows[1]["rate"] == "0.954434002925"


def test_rates_incompressible_chain_is_flat(capsys):
    code, out, _ = run_cli(["rates", "--flip", "0.5", "--B", "2", "--sweep", "W=0..3"], capsys)
    assert code == 0
    assert {r["rate"] for r in parse_csv(out)} == {"1"}


def test_rates_b0_column_is_one_step_entropy(capsys):
    code, out, _ = run_cli(["rates", "--flip", "0.3", "--B", "0", "--sweep", "W=0..2"], capsys)
    assert code == 0
    want = format(h_b(0.3), ".12g")
    assert all(r["rate"] == want for r in parse_csv(out))


def test_rates_lossy_vector_matches_reference_identity(capsys):
    d = "0.1,0.25,0.4,0.55,0.7,0.85"
    code, out, _ = run_cli(["rates", "--d", d, "--B", "2", "--W", "0"], capsys)
    assert code == 0
    rows = {r["scheme"]: r["rate"] for r in parse_csv(out)}
    assert rows["gaussian"] == rows["wz"] == "3.32192809489"
    assert rows["fec"] == "4.98289214233"


def test_identical_configs_are_byte_identical(capsys):
    argv = ["sweep", "--flip", "0.25", "--B", "1", "--W", "0", "--n", "10",
            "--trials", "40", "--modes", "post_burst"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    _, shifted, _ = run_cli(argv + ["--seed", "5"], capsys)
    assert shifted != first


def test_config_file_merges_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flip": 0.25, "B": 1, "W": 0}))
    _, from_cfg, _ = run_cli(["rates", "--config", str(cfg)], capsys)
    _, from_flags, _ = run_cli(["rates", "--flip", "0.25", "--B", "1", "--W", "0"], capsys)
    assert from_cfg == from_flags
    _, overridden, _ = run_cli(["rates", "--config", str(cfg), "--W", "1"], capsys)
    _, direct, _ = run_cli(["rates", "--flip", "0.25", "--B", "1", "--W", "1"], capsys)
    assert overridden == direct


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flip": 0.25, "bogus": 1}))
    code, _, err = run_cli(["rates", "--config", str(cfg)], capsys)
    assert code == 3
    assert "unknown config keys" in err


def test_simulate_det_no_failures_anywhere(capsys):
    code, out, _ = run_cli(
        ["simulate-det", "--widths", "2,1", "--B", "1", "--W", "1",
         "--n", "32", "--T", "6", "--trials", "2"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 6  # every burst start at blen 1
    assert all(r["failures"] == "0" and r["mismatches"] == "0" for r in rows)
    # a source with no innovation bits sends empty packets
    for widths in ("0", "0,0"):
        code, out, _ = run_cli(
            ["simulate-det", "--T", "4", "--n", "8", "--widths", widths], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        assert all(r["failures"] == "0" and r["mismatches"] == "0" for r in rows)


def test_simulate_det_tallies_failures_without_mismatches(capsys):
    # delta 0 leaves no slack above the rate floor, so deadline solves fail,
    # and a failed decode never hands out wrong bits
    code, out, _ = run_cli(
        ["simulate-det", "--widths", "3,2,1", "--n", "4", "--delta", "0", "--T", "8",
         "--trials", "4", "--seed", "2"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 8
    assert all(int(r["failures"]) > 0 and r["mismatches"] == "0" for r in rows)


def test_simulate_det_counts_mismatches_outside_the_window_only(capsys, monkeypatch):
    real = cli.decode_stream

    def corrupted(stream, bincode, tail):
        # with B = W = 1, a burst at time 0 puts times 0 and 1 in the window:
        # a wrong symbol there is not counted, a wrong or missing one at
        # times 3 and 4 is
        outs = real(stream, bincode, tail)
        outs[1] = outs[3] = [layer ^ 1 for layer in tail]
        outs[4] = None
        return outs

    monkeypatch.setattr(cli, "decode_stream", corrupted)
    code, out, _ = run_cli(
        ["simulate-det", "--widths", "2,1", "--B", "1", "--W", "1", "--n", "8",
         "--T", "6", "--trials", "1"],
        capsys,
    )
    assert code == 0
    first = parse_csv(out)[0]
    assert (first["start"], first["failures"], first["mismatches"]) == ("0", "0", "2")


def test_simulate_det_jobs_do_not_change_output(capsys):
    argv = ["simulate-det", "--widths", "2,1", "--B", "1", "--W", "0",
            "--n", "16", "--T", "4", "--trials", "2"]
    _, serial, _ = run_cli(argv + ["--jobs", "1"], capsys)
    _, parallel, _ = run_cli(argv + ["--jobs", "2"], capsys)
    assert serial == parallel


def test_jobs_fork_no_more_workers_than_payloads(capsys, monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, forks nothing."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    # B=1, T=2 and one trial make two payloads: bursts at t=0 and t=1
    argv = ["simulate-det", "--widths", "2,1", "--B", "1", "--W", "0",
            "--n", "8", "--T", "2", "--trials", "1"]
    _, serial, _ = run_cli(argv + ["--jobs", "1"], capsys)
    assert pools == []
    _, pooled, _ = run_cli(argv + ["--jobs", "4"], capsys)
    assert pools == [2]
    assert pooled == serial and len(parse_csv(serial)) == 2


@pytest.mark.parametrize(
    "widths, problem",
    [("3,4", "layer 1 is wider than layer 0"), ("3,-1", "layer 1 has negative width")],
    ids=["wider", "negative"],
)
def test_impossible_widths_are_an_input_error(widths, problem, capsys):
    code, out, err = run_cli(["simulate-det", "--widths", widths], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and problem in err


def test_simulate_gaussian_skips_the_window(capsys):
    code, out, _ = run_cli(
        ["simulate-gaussian", "--T", "8", "--burst", "3:1", "--n", "512"], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    assert set(rows[0].keys()) == {"time", "lag", "mse", "target", "met"}
    times = {int(r["time"]) for r in rows}
    assert times == set(range(8)) - {3, 4}
    # single-block mse wobbles a few percent, so judge the budget on the
    # per-lag average over the run rather than row by row
    by_lag: dict[int, list[float]] = {}
    budget: dict[int, float] = {}
    for r in rows:
        lag = int(r["lag"])
        by_lag.setdefault(lag, []).append(float(r["mse"]))
        budget[lag] = QUANT_GAP * float(r["target"])
    for lag, vals in by_lag.items():
        assert np.mean(vals) <= budget[lag]


def test_transform_one_shot_route(capsys):
    code, out, _ = run_cli(["transform", "--random-seed", "3"], capsys)
    assert code == 0
    artifact = json.loads(out)
    assert artifact["route"] == "one-shot"
    assert artifact["checks"]["roundtrip_exact"] is True
    assert artifact["checks"]["coupling_solved"] is True


def count_eliminations(argv, capsys, monkeypatch) -> tuple[int, dict]:
    calls = []
    reduce = gf2._reduce
    monkeypatch.setattr(gf2, "_reduce", lambda *a, **k: calls.append(a) or reduce(*a, **k))
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    return len(calls), json.loads(out)


def test_transform_one_shot_route_runs_three_eliminations(capsys, monkeypatch):
    # in lf_transform the one round's independent-row split of A; in
    # lb_transform the rank of A and the solve of the coupling block; each
    # builder passes its map's inverse, and the CLI reads X off the map
    # instead of solving again
    count, artifact = count_eliminations(["transform", "--random-seed", "3"], capsys, monkeypatch)
    assert artifact["route"] == "one-shot" and count == 3


def test_transform_three_layer_peel_runs_six_eliminations(capsys, monkeypatch):
    # lf_transform: one independent-row split per round (two rounds);
    # lb_transform: two sub-diagonal ranks and one coupling solve per row
    # block (two rows); the derived maps are those ranked blocks, and no
    # map inverts its matrix
    count, artifact = count_eliminations(["transform", "--random-seed", "5"], capsys, monkeypatch)
    assert artifact["derived"]["widths"] == [4, 3, 2] and count == 6


# SHA-256 of stdout for cheap fixed-seed runs whose output is only integers
# and bits: a change that moves any decoded bit or transform entry shows here
GOLDEN = {
    "simulate-det-B1-W1": (
        ["simulate-det", "--seed", "1", "--n", "16", "--T", "12", "--trials", "2"],
        "064e9a861d4eadbba6133a40d7ca7a6f3d7f76787219346d4b0c69ae910f5f24",
    ),
    "simulate-det-B2-W2": (
        ["simulate-det", "--B", "2", "--W", "2", "--widths", "3,2,1,1,1", "--n", "8",
         "--T", "10", "--trials", "1", "--seed", "4"],
        "d0f9382def360d0bc6a8ea190a7662bde50ff6d256c9d281b5b05ba209693f34",
    ),
    "transform-3": (
        ["transform", "--random-seed", "3"],
        "2cda62939ac8fb45ade194993dea080b53d8ca12262713758658857d93286e35",
    ),
    "transform-5": (
        ["transform", "--random-seed", "5"],
        "6b1fdcfe641b5baf6bf85742ca92de3ca4933f02f459db9582af76ad46f32ac5",
    ),
    "transform-11": (
        ["transform", "--random-seed", "11"],
        "e92ce74780ee59ff5d51cdf25b108af45471a4d5245877948a186d664bacf91d",
    ),
}


@pytest.mark.parametrize("argv, digest", GOLDEN.values(), ids=GOLDEN.keys())
def test_cli_output_stays_byte_identical(argv, digest, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_transform_peel_route_from_spec_file(tmp_path, capsys):
    rng = np.random.default_rng(7)
    col = rng.integers(0, 2, (4, 1), dtype=np.uint8)
    spec = SemiDetSpec(
        N0=2,
        Nd=4,
        A=gf2.BitMatrix.from_bits(np.concatenate([col, col], axis=1)),
        B=gf2.BitMatrix.from_bits(rng.integers(0, 2, (4, 4), dtype=np.uint8)),
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    code, out, _ = run_cli(["transform", "--spec", str(path), "--symbols", "24"], capsys)
    assert code == 0
    artifact = json.loads(out)
    assert artifact["route"] == "peel-cancel"
    assert artifact["checks"]["roundtrip_exact"] is True
    assert len(artifact["maps"]) == 2


@pytest.mark.parametrize("n0, nd", [(0, 0), (0, 1), (0, 2), (2, 0)])
def test_transform_accepts_zero_width_layers(n0, nd, tmp_path, capsys):
    # zero-width symbols give a timeline with no entries, which must still map and invert
    spec = SemiDetSpec(
        N0=n0,
        Nd=nd,
        A=gf2.BitMatrix.zeros(nd, n0),
        B=gf2.BitMatrix.identity(nd),
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    code, out, err = run_cli(["transform", "--spec", str(path), "--symbols", "8"], capsys)
    assert (code, err) == (0, "")
    checks = json.loads(out)["checks"]
    assert checks["roundtrip_exact"] is True and checks["derived_valid"] is True


def test_oracle_full_rate_never_errs(capsys):
    code, out, _ = run_cli(
        ["oracle", "--flip", "0.5", "--B", "1", "--W", "0", "--rate", "1.0",
         "--n", "10", "--trials", "30", "--modes", "steady,post_burst"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert [r["mode"] for r in rows] == ["steady", "post_burst"]
    assert all(r["errors"] == "0" for r in rows)
    assert all(int(r["decodes"]) > 0 for r in rows)


def test_oracle_periodic_statuses(capsys):
    code, out, _ = run_cli(
        ["oracle", "--flip", "0.0", "--B", "2", "--T", "1", "--periodic",
         "--rate", "0.5", "--n", "6", "--horizon", "12"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 12
    for r in rows:
        want = "window" if int(r["time"]) % 4 < 2 else "recovered"
        assert r["status"] == want


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--flip", "0.25", "--modes", "steady,bogus"],
        ["sweep", "--flip", "0.25", "--modes", "bogus"],
    ],
    ids=["oracle", "sweep"],
)
def test_unknown_mode_is_an_input_error(argv, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the modes were checked")

    monkeypatch.setattr(sw_binning, "sample_path", no_trials)
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert "'bogus'" in err


def test_sweep_errors_fall_with_rate(capsys):
    code, out, _ = run_cli(
        ["sweep", "--flip", "0.25", "--B", "1", "--W", "0", "--n", "12",
         "--trials", "80", "--modes", "post_burst"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    errs = [int(r["errors"]) for r in rows]
    assert errs[0] > errs[-1]
    assert float(rows[0]["rate"]) < float(rows[-1]["rate"])


def test_sweep_delay_threshold_centres_the_offsets(capsys):
    code, out, _ = run_cli(
        ["sweep", "--flip", "0.25", "--threshold", "delay", "--B", "1", "--T", "2",
         "--n", "8", "--trials", "4", "--modes", "post_burst"],
        capsys,
    )
    assert code == 0
    thr = r_delay(BinarySymmetricChain(0.25), 1, 2)
    assert thr != r_plus(BinarySymmetricChain(0.25), RateQuery(B=1, W=0))
    got = [float(r["rate"]) for r in parse_csv(out)]
    assert got == pytest.approx([thr - 0.1, thr, thr + 0.15], abs=1e-9)


def test_sweep_explicit_rates_run_in_ascending_order(capsys):
    code, out, _ = run_cli(
        ["sweep", "--flip", "0.25", "--rates", "1.2,0.5", "--n", "8", "--trials", "4",
         "--modes", "steady,post_burst"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert [(float(r["rate"]), r["mode"]) for r in rows] == [
        (0.5, "steady"), (0.5, "post_burst"), (1.2, "steady"), (1.2, "post_burst")
    ]


def test_exit_codes(capsys, tmp_path):
    code, _, _ = run_cli(["rates", "--flip", "2.0"], capsys)
    assert code == 3
    # a burst outside the design contract is an invariant problem, not input
    code, _, err = run_cli(
        ["simulate-gaussian", "--burst", "2:2", "--B", "1", "--W", "1", "--n", "8",
         "--T", "6"],
        capsys,
    )
    assert code == 2 and "longer" in err
    # each refusal names the problem of its own input
    for argv, problem in (
        (["rates", "--flip", "0.25", "--sweep", "W=3..1"], "sweep range is empty"),
        (["oracle", "--flip", "0.25", "--periodic", "--T", "-1", "--rate", "1"],
         "T must be nonnegative"),
        (["oracle", "--flip", "0.25", "--periodic", "--B", "-1", "--rate", "1"],
         "B must be nonnegative"),
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert err.startswith(f"error: {problem}"), argv
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 3


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "rates.csv"
    code, out, _ = run_cli(
        ["rates", "--flip", "0.25", "--B", "1", "--W", "0", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("scheme,B,W,rate")


@pytest.mark.parametrize(
    "argv, flag, key, value",
    [
        (["simulate-det", "--B", "1", "--W", "0", "--n", "16", "--T", "4", "--trials", "1"],
         ["--widths", "2,1"], "widths", [2, 1]),
        (["oracle", "--flip", "0.25", "--n", "8", "--trials", "10"],
         ["--modes", "steady,post_burst"], "modes", ["steady", "post_burst"]),
        (["simulate-gaussian", "--n", "32", "--T", "6"], ["--burst", "3:1"], "burst", [3, 1]),
        (["rates", "--B", "2", "--sweep", "W=0..1"], ["--d", "0.5,0.6"], "d", [0.5, 0.6]),
    ],
    ids=["widths", "modes", "burst", "d"],
)
def test_config_list_forms_match_flags(argv, flag, key, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, from_flag, _ = run_cli(argv + flag, capsys)
    assert code == 0
    assert run_cli(argv + ["--config", str(cfg)], capsys) == (0, from_flag, "")


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["rates", "--flip", "0.25"], "B", "x"),
        (["oracle", "--flip", "0.25", "--n", "8"], "trials", "many"),
        (["rates", "--flip", "0.25"], "B", 1.7),
        (["oracle", "--flip", "0.25", "--n", "8", "--trials", "10"], "periodic", "no"),
    ],
    ids=["B-text", "trials-text", "B-fraction", "periodic-text"],
)
def test_bad_config_value_is_an_input_error(argv, key, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"error: {key}:") and "Traceback" not in err


def test_config_that_is_not_json_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"flip": 0.25,')
    code, out, err = run_cli(["rates", "--config", str(cfg)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ")


def test_sweep_jobs_do_not_change_output(capsys):
    argv = ["sweep", "--flip", "0.25", "--B", "1", "--W", "0", "--n", "8",
            "--trials", "20", "--modes", "steady,post_burst"]
    code, serial, _ = run_cli(argv + ["--jobs", "1"], capsys)
    assert code == 0
    _, parallel, _ = run_cli(argv + ["--jobs", "2"], capsys)
    assert serial == parallel


@pytest.mark.parametrize(
    "argv, name",
    [
        (["simulate-det", "--seed", "-1"], "seed"),
        (["simulate-det", "--spec-seed", "-1"], "spec_seed"),
        (["transform", "--random-seed", "-1"], "random_seed"),
        (["oracle", "--flip", "0.25", "--seed", "-3"], "seed"),
        (["sweep", "--flip", "0.25", "--seed", "-3"], "seed"),
        (["simulate-gaussian", "--seed", "-2"], "seed"),
    ],
    ids=["det-seed", "det-spec-seed", "transform", "oracle", "sweep", "gaussian"],
)
def test_negative_seed_is_an_input_error(argv, name, tmp_path, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"error: {name}: expected a nonnegative integer")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: int(argv[-1])}))
    code, out, err = run_cli(argv[:-2] + ["--config", str(cfg)], capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"error: {name}: expected a nonnegative integer")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["simulate-det", "--trials", "-1"], "trials"),
        (["simulate-det", "--T", "-1"], "T"),
        (["simulate-det", "--T", "0"], "T"),
        # burst lengths run 1..B, so B = 0 would stream nothing
        (["simulate-det", "--B", "0"], "B"),
        (["simulate-det", "--jobs", "-2"], "jobs"),
        (["sweep", "--flip", "0.25", "--jobs", "0"], "jobs"),
        (["oracle", "--flip", "0.25", "--trials", "0"], "trials"),
        (["sweep", "--flip", "0.25", "--trials", "0"], "trials"),
    ],
    ids=["det-trials", "det-T-negative", "det-T-zero", "det-B-zero", "det-jobs", "sweep-jobs",
         "oracle-trials", "sweep-trials"],
)
def test_nonpositive_count_is_an_input_error(argv, name, tmp_path, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"error: {name}: expected a positive integer")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: int(argv[-1])}))
    code, out, err = run_cli(argv[:-2] + ["--config", str(cfg)], capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"error: {name}: expected a positive integer")


@pytest.mark.parametrize("mode", ["ideal", "binned"])
def test_negative_delta_is_an_input_error_in_both_modes(mode, capsys):
    # a negative delta puts the packet below the rate floor
    argv = ["simulate-gaussian", "--delta", "-5", "--n", "8", "--T", "4", "--mode", mode]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: delta must be nonnegative")


def test_simulate_det_negative_delta_names_delta(capsys):
    code, out, err = run_cli(["simulate-det", "--delta", "-1"], capsys)
    assert code == 3 and out == ""
    assert err == "error: delta must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "chain, problem",
    [
        ({"Q": [[0.5, 0.5], [0.5, 0.5]]}, "'P'"),
        ([[0.5, 0.5], [0.5]], "numeric 2-D array"),
        ({"P": [[None, 1.0], [0.5, 0.5]]}, "[0, 1]"),
        # int() would truncate 2.7 and parse "2", so both matched the size
        ({"P": [[0.5, 0.5], [0.5, 0.5]], "alphabet": 2.7}, "'alphabet': expected an integer"),
        ({"P": [[0.5, 0.5], [0.5, 0.5]], "alphabet": "2"}, "'alphabet': expected an integer"),
    ],
    ids=["no-P", "ragged", "null-entry", "float-alphabet", "string-alphabet"],
)
def test_malformed_chain_file_is_an_input_error(chain, problem, tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    code, out, err = run_cli(["rates", "--chain", str(path)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and problem in err


_ROW = {"rows": 1, "cols": 2, "data": ["10"]}


@pytest.mark.parametrize(
    "command, spec, problem",
    [
        ("simulate-det", {"widths": [3, 2]}, "no 'R'"),
        ("simulate-det", {"widths": [2, 1], "R": [dict(_ROW, data=["1x"])]}, "malformed matrix"),
        ("simulate-det", [3, 2], "expected a JSON object with 'widths', got list"),
        ("transform", {"N0": 2, "Nd": 1, "A": _ROW}, "no 'B'"),
        ("simulate-det", {"widths": [2, 2], "R": [{"rows": 2, "cols": 2, "data": ["11", "11"]}]},
         "map into layer 1 is not full row rank"),
        ("simulate-det", {"widths": [1, 2], "R": [{"rows": 2, "cols": 1, "data": ["1", "1"]}]},
         "map into layer 1 is not full row rank"),
        # int() would read each of these as a valid integer: 2.9 -> 2, True -> 1, "2" -> 2
        ("simulate-det", {"widths": [2.9, 1], "R": [_ROW]}, "'widths': expected an integer"),
        ("transform", {"N0": 2, "Nd": True, "A": _ROW, "B": dict(_ROW, cols=1, data=["1"])},
         "'Nd': expected an integer"),
        ("transform", {"N0": "2", "Nd": 1, "A": _ROW, "B": dict(_ROW, cols=1, data=["1"])},
         "'N0': expected an integer"),
        ("transform", {"N0": 2, "Nd": 1, "A": dict(_ROW, rows=1.5),
                       "B": dict(_ROW, cols=1, data=["1"])}, "'A': 'rows': expected an integer"),
        ("simulate-det", {"widths": [2, 1], "R": [dict(_ROW, cols=2.0)]},
         "'R': 'cols': expected an integer"),
    ],
    ids=["det-no-R", "det-bad-row", "det-list", "transform-no-B", "det-rank-deficient",
         "det-wider-layer", "det-float-width", "transform-bool-Nd", "transform-string-N0",
         "transform-float-rows", "det-float-cols"],
)
def test_malformed_spec_file_is_an_input_error(command, spec, problem, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli([command, "--spec", str(path)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and problem in err
